package pnmcs_test

// Integration tests against the public facade: everything an external user
// of the library touches, wired end-to-end.

import (
	"context"
	"errors"
	"testing"
	"time"

	pnmcs "repro"
	"repro/internal/parallel"
)

func TestFacadeSequentialSearch(t *testing.T) {
	s := pnmcs.NewSearcher(pnmcs.NewRand(1), pnmcs.DefaultSearchOptions())
	res := s.Nested(pnmcs.NewMorpion(pnmcs.Var4D), 1)
	if res.Score <= 0 || len(res.Sequence) != int(res.Score) {
		t.Fatalf("bad search result: %+v", res)
	}
	grid, err := pnmcs.RenderMorpionSequence(pnmcs.Var4D, res.Sequence)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFacadeAllVariants(t *testing.T) {
	for _, name := range []string{"5T", "5D", "4T", "4D"} {
		v, err := pnmcs.MorpionVariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := pnmcs.NewMorpion(v)
		if st.Terminal() {
			t.Fatalf("%s: initial position terminal", name)
		}
	}
}

func TestFacadeParallelVirtual(t *testing.T) {
	res, err := pnmcs.RunVirtual(pnmcs.Homogeneous(8), pnmcs.ParallelConfig{
		Algo: pnmcs.LastMinute, Level: 2, Root: pnmcs.NewMorpion(pnmcs.Var4D),
		Seed: 3, Memorize: true, FirstMoveOnly: true, JobScale: 100,
	}, pnmcs.VirtualOptions{Medians: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 || res.Elapsed <= 0 || res.Jobs == 0 {
		t.Fatalf("bad parallel result: %+v", res)
	}
}

func TestFacadeParallelWall(t *testing.T) {
	cfg := pnmcs.ParallelConfig{
		Algo: pnmcs.RoundRobin, Level: 2, Root: pnmcs.NewMorpion(pnmcs.Var4D),
		Seed: 5, Memorize: true, FirstMoveOnly: true,
	}
	res, err := pnmcs.RunWall(2, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("bad wall result: %+v", res)
	}
	want, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score || res.FirstMove != want.FirstMove || res.Jobs != want.Jobs {
		t.Fatalf("wall %v/%v/%d != reference %v/%v/%d",
			res.Score, res.FirstMove, res.Jobs, want.Score, want.FirstMove, want.Jobs)
	}
}

func TestFacadeClusterSpecs(t *testing.T) {
	if pnmcs.PaperCluster().NumClients() != 64 {
		t.Fatal("paper cluster size wrong")
	}
	if pnmcs.Hetero16x4p16x2().NumClients() != 96 {
		t.Fatal("16x4+16x2 size wrong")
	}
	if pnmcs.Hetero8x4p8x2().NumClients() != 48 {
		t.Fatal("8x4+8x2 size wrong")
	}
	if pnmcs.Homogeneous(7).NumClients() != 7 {
		t.Fatal("homogeneous size wrong")
	}
}

func TestFacadeSameGame(t *testing.T) {
	s := pnmcs.NewSearcher(pnmcs.NewRand(2), pnmcs.DefaultSearchOptions())
	board := pnmcs.NewSameGameSized(8, 8, 4, 1)
	res := s.Nested(board, 1)
	if res.Score <= 0 {
		t.Fatalf("SameGame search scored %v", res.Score)
	}
}

func TestFacadeSudoku(t *testing.T) {
	s := pnmcs.NewSearcher(pnmcs.NewRand(2), pnmcs.DefaultSearchOptions())
	grid := pnmcs.NewSudoku(3)
	res := s.Nested(grid, 1)
	if res.Score <= 0 {
		t.Fatalf("Sudoku search filled %v cells", res.Score)
	}
	if !grid.Valid() {
		t.Fatal("grid violates constraints after search")
	}
}

func TestFacadeRandStreams(t *testing.T) {
	a := pnmcs.NewRandStream(1, 1)
	b := pnmcs.NewRandStream(1, 2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams correlated")
	}
}

func TestFacadeService(t *testing.T) {
	svc, err := pnmcs.New(pnmcs.WithSlots(2), pnmcs.WithPool(2, 2), pnmcs.WithQueueLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	spec := pnmcs.JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 3, Memorize: true}
	id, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Score != 16 {
		t.Fatalf("service job: state %s score %v", st.State, st.Score)
	}

	// The service result matches parallel.Reference bit for bit.
	solo, err := parallel.Reference(pnmcs.ParallelConfig{
		Level: 2, Root: pnmcs.NewSudoku(2), Seed: 3, Memorize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != solo.Score || len(st.Sequence) != len(solo.Sequence) {
		t.Fatalf("service %v/%d != solo %v/%d", st.Score, len(st.Sequence), solo.Score, len(solo.Sequence))
	}
	for i := range st.Sequence {
		if st.Sequence[i] != solo.Sequence[i] {
			t.Fatalf("sequences differ at %d", i)
		}
	}
	if m := svc.Metrics(); m.Completed != 1 || m.Pool.Jobs == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestFacadeRouter drives the sharded plane through the facade: jobs
// placed across pools return bit-identical results to the single-pool
// Service, tenants over quota are shed with ErrTenantQuota, and the
// aggregate metrics carry the per-pool breakdown.
func TestFacadeRouter(t *testing.T) {
	rt, err := pnmcs.NewRouter(
		pnmcs.WithPools(2),
		pnmcs.WithSlots(1),
		pnmcs.WithPool(1, 2),
		pnmcs.WithQueueLimit(8),
		pnmcs.WithTenantQPS(0.001, 3), // burst 3, negligible refill
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rt.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	spec := pnmcs.JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 3, Memorize: true, Tenant: "t0"}
	var last pnmcs.JobStatus
	for i := 0; i < 3; i++ {
		id, err := rt.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if last, err = rt.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if last.State != "done" || last.Score != 16 {
			t.Fatalf("router job %d: state %s score %v", i, last.State, last.Score)
		}
	}
	// The burst of 3 is spent and the refill rate is negligible: the 4th
	// submission is shed.
	if _, err := rt.Submit(context.Background(), spec); !errors.Is(err, pnmcs.ErrTenantQuota) {
		t.Fatalf("over-quota submit: %v, want ErrTenantQuota", err)
	}

	solo, err := parallel.Reference(pnmcs.ParallelConfig{
		Level: 2, Root: pnmcs.NewSudoku(2), Seed: 3, Memorize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Score != solo.Score || len(last.Sequence) != len(solo.Sequence) {
		t.Fatalf("router %v/%d != solo %v/%d", last.Score, len(last.Sequence), solo.Score, len(solo.Sequence))
	}

	m := rt.Metrics()
	if m.Completed != 3 || len(m.PerPool) != 2 || m.TenantShed != 1 {
		t.Fatalf("router metrics: completed %d pools %d shed %d", m.Completed, len(m.PerPool), m.TenantShed)
	}
}

// runServiceJob submits one spec and waits for the terminal status.
func runServiceJob(t *testing.T, svc *pnmcs.Service, spec pnmcs.JobSpec) pnmcs.JobStatus {
	t.Helper()
	id, err := svc.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job finished in state %s (%s)", st.State, st.Error)
	}
	return st
}

// TestFacadeOptions exercises the functional-options constructor: a
// service built with New must behave exactly like one built from the
// equivalent ServiceConfig, including the evaluator default and the
// per-job "uniform" opt-out.
func TestFacadeOptions(t *testing.T) {
	svc, err := pnmcs.New(
		pnmcs.WithSlots(2),
		pnmcs.WithPool(2, 3),
		pnmcs.WithQueueLimit(2),
		pnmcs.WithEvaluator(pnmcs.HeuristicEvaluatorName),
		pnmcs.WithEvalBatch(2),
		pnmcs.WithEvalFlush(100*time.Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()

	// A spec naming no evaluator inherits the service default: the result
	// must match a solo guided run, not a solo uniform run.
	spec := pnmcs.JobSpec{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: 3, Level: 2, Seed: 3, Memorize: true}
	inherited := runServiceJob(t, svc, spec)
	guided, err := parallel.Reference(pnmcs.ParallelConfig{
		Level: 2, Root: pnmcs.NewSameGameSized(5, 5, 3, 3), Seed: 3, Memorize: true,
		Evaluator: pnmcs.HeuristicEvaluatorName,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inherited.Score != guided.Score || len(inherited.Sequence) != len(guided.Sequence) {
		t.Fatalf("inherited default %v/%d != solo guided %v/%d",
			inherited.Score, len(inherited.Sequence), guided.Score, len(guided.Sequence))
	}

	// The sentinel forces uniform playouts despite the service default.
	uspec := spec
	uspec.Evaluator = pnmcs.EvaluatorUniform
	uniform := runServiceJob(t, svc, uspec)
	solo, err := parallel.Reference(pnmcs.ParallelConfig{
		Level: 2, Root: pnmcs.NewSameGameSized(5, 5, 3, 3), Seed: 3, Memorize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Score != solo.Score || len(uniform.Sequence) != len(solo.Sequence) {
		t.Fatalf("uniform sentinel %v/%d != solo uniform %v/%d",
			uniform.Score, len(uniform.Sequence), solo.Score, len(solo.Sequence))
	}

	// The batcher must have seen the guided job's evaluations.
	if m := svc.Metrics(); m.Pool.EvalRequests == 0 {
		t.Fatalf("no evaluations batched: %+v", m.Pool)
	}
}

// TestFacadeCustomEvaluator registers an evaluator through the facade and
// runs it as a service job, which must match parallel.Reference: same
// name, same seed, same answer.
func TestFacadeCustomEvaluator(t *testing.T) {
	pnmcs.RegisterEvaluator("facade-test", func() pnmcs.Evaluator { return shortestFirst{} })
	found := false
	for _, name := range pnmcs.EvaluatorNames() {
		if name == "facade-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered evaluator not listed: %v", pnmcs.EvaluatorNames())
	}

	svc, err := pnmcs.New(pnmcs.WithSlots(1), pnmcs.WithPool(2, 2), pnmcs.WithEvalBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	st := runServiceJob(t, svc, pnmcs.JobSpec{
		Domain: "sudoku", Box: 2, Level: 2, Seed: 3, Memorize: true, Evaluator: "facade-test",
	})
	solo, err := parallel.Reference(pnmcs.ParallelConfig{
		Level: 2, Root: pnmcs.NewSudoku(2), Seed: 3, Memorize: true, Evaluator: "facade-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != solo.Score || len(st.Sequence) != len(solo.Sequence) {
		t.Fatalf("custom evaluator: service %v/%d != solo %v/%d",
			st.Score, len(st.Sequence), solo.Score, len(solo.Sequence))
	}

	// Unknown names are rejected at submission, not silently uniform.
	if _, err := svc.Submit(context.Background(), pnmcs.JobSpec{
		Domain: "sudoku", Box: 2, Level: 2, Seed: 3, Evaluator: "no-such-evaluator",
	}); err == nil {
		t.Fatal("unknown evaluator accepted")
	}
}

// shortestFirst weights each move by how few moves the position has —
// a deliberately arbitrary but pure custom evaluator.
type shortestFirst struct{}

func (shortestFirst) Evaluate(req pnmcs.EvalRequest, w []float64) []float64 {
	for range req.Moves {
		w = append(w, 1/float64(len(req.Moves)))
	}
	return w
}
