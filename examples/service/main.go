// Service: the long-lived, concurrent form of the parallel search — the
// serving shape of on-line policy improvement. One shared worker pool is
// built once; jobs across all three domains are submitted concurrently,
// stream progress while they run, and return results bit-identical to
// parallel.Reference's answer for the same seed. cmd/pnmcsd exposes this same
// service over HTTP; this example drives it in-process through the Go
// facade.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	pnmcs "repro"
)

func main() {
	svc, err := pnmcs.New(
		pnmcs.WithSlots(3),      // jobs served concurrently
		pnmcs.WithPool(4, 8),    // shared level-(ℓ−1) medians, rollout clients
		pnmcs.WithQueueLimit(8), // waiting jobs beyond the slots before ErrServiceSaturated
	)
	if err != nil {
		log.Fatal(err)
	}

	// A mixed batch: every bundled domain, submitted at once. The jobs
	// multiplex onto the same medians and clients.
	specs := []pnmcs.JobSpec{
		{Domain: "morpion", Variant: "4D", Level: 2, Seed: 7, Memorize: true},
		{Domain: "samegame", Width: 8, Height: 8, Colors: 4, BoardSeed: 3, Level: 2, Seed: 5, Memorize: true},
		{Domain: "sudoku", Box: 3, Level: 2, Seed: 1, Memorize: true},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := svc.Submit(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		ids[i] = id
		fmt.Printf("submitted %s: %s level %d\n", id, spec.Domain, spec.Level)
	}

	// Stream progress while the batch runs.
	for done := 0; done < len(ids); {
		time.Sleep(50 * time.Millisecond)
		done = 0
		for i, id := range ids {
			st, err := svc.Get(id)
			if err != nil {
				log.Fatal(err)
			}
			if st.State.Terminal() {
				done++
				continue
			}
			fmt.Printf("  %s (%s): %s, %d steps, best %.0f\n",
				id, specs[i].Domain, st.State, st.Steps, st.BestScore)
		}
	}

	fmt.Println()
	for i, id := range ids {
		st, err := svc.Wait(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		if st.State != "done" {
			log.Fatalf("%s ended as %s: %s", id, st.State, st.Error)
		}
		fmt.Printf("%s %-9s score %4.0f in %3d moves, %5d rollouts, %v\n",
			id, specs[i].Domain, st.Score, len(st.Sequence), st.Rollouts,
			st.Finished.Sub(st.Started).Round(time.Millisecond))
	}

	// Graceful drain: running jobs finish, the pool is torn down with no
	// work in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	m := svc.Metrics()
	fmt.Printf("\npool served %d rollouts (%d work units) across %d jobs\n",
		m.Pool.Jobs, m.Pool.WorkUnits, m.Completed)
}
