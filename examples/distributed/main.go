// Command distributed demonstrates — and smoke-tests — the multi-process
// deployment of the search service: one pnmcsd coordinator plus two
// pnmcs-worker processes on loopback TCP, the topology of the paper's MPI
// cluster (server = coordinator, worker PCs = pnmcs-worker).
//
// It builds both binaries, wires the processes together (with handshake
// authentication: every worker presents the shared -worker-token),
// submits one job per domain over the HTTP API, and verifies each
// distributed result is bit-identical to the same JobSpec's answer
// computed in-process by parallel.Reference — score, move sequence, and
// rollout accounting.
//
// It then rehearses the failure model (DESIGN.md §8): another job is
// submitted, one worker process is SIGKILLed mid-run, a replacement
// worker dials in and reclaims the lost rank range, and the job must
// still complete bit-identical to its reference — the coordinator
// re-queues the dead worker's candidate grants, which /metrics must show
// (pnmcs_worker_lost_total, pnmcs_worker_rejoined_total).
//
// Last comes graceful degradation (DESIGN.md §9): the replacement worker
// is SIGKILLed and NO new worker is started. After -replace-grace the
// coordinator abandons the slot and re-maps the dead rank range onto the
// one surviving worker, and the next job must run on the shrunken world —
// still bit-identical, flagged "degraded" in its status, with the
// abandonment visible in /metrics (pnmcs_worker_abandoned_total,
// pnmcs_pool_degraded) and /readyz answering 200 "degraded".
//
// The CI distributed-smoke job runs exactly this program:
//
//	go run ./examples/distributed
//
// Flags: -bin keeps the built binaries in a chosen directory (default: a
// temp dir, removed afterwards); -http / -worker pick the loopback ports.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/service"
)

var (
	httpAddr   string
	workerAddr string

	// procs and cleanups are torn down by die() on any failure:
	// log.Fatalf alone would skip deferred kills and leave the daemon and
	// workers running on their fixed ports, where the NEXT smoke run
	// would silently talk to them.
	procs    []*exec.Cmd
	cleanups []func()
)

// die tears the spawned processes and temp state down, then exits.
func die(format string, args ...any) {
	for _, p := range procs {
		p.Process.Kill() //nolint:errcheck // going down anyway
	}
	for _, fn := range cleanups {
		fn()
	}
	log.Fatalf(format, args...)
}

func main() {
	binDir := flag.String("bin", "", "directory for the built binaries (default: a temp dir, removed afterwards)")
	flag.StringVar(&httpAddr, "http", "127.0.0.1:18731", "pnmcsd HTTP address")
	flag.StringVar(&workerAddr, "worker", "127.0.0.1:18732", "pnmcsd worker-listen address")
	flag.Parse()

	if *binDir == "" {
		d, err := os.MkdirTemp("", "pnmcs-distributed")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
		cleanups = append(cleanups, func() { os.RemoveAll(d) })
		*binDir = d
	}

	log.Printf("building pnmcsd and pnmcs-worker into %s", *binDir)
	for _, cmd := range []string{"pnmcsd", "pnmcs-worker"} {
		build := exec.Command("go", "build", "-o", filepath.Join(*binDir, cmd), "./cmd/"+cmd)
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("build %s: %v", cmd, err)
		}
	}

	// One coordinator expecting two workers. 2 slots / 2 medians / 4
	// clients keeps the world small; determinism does not depend on it.
	// The shared token exercises handshake authentication end-to-end.
	const token = "smoke-secret"
	// -replace-grace 5s: far beyond the replacement phase's join latency
	// (the replacement dials as soon as its predecessor is killed), short
	// enough that the final no-replacement phase abandons quickly.
	daemon := start(*binDir, "pnmcsd",
		"-addr", httpAddr, "-workers", "2", "-worker-listen", workerAddr,
		"-worker-token", token,
		"-slots", "2", "-medians", "2", "-clients", "4",
		"-replace-grace", "5s")
	defer daemon.Process.Kill() //nolint:errcheck // beyond the graceful path below

	waitHealthy()

	// Stagger the joins: the coordinator hands out the lowest free slot,
	// so waiting for worker-1 before starting worker-2 pins worker-1 to
	// the first remote range. Each range hosts a median and two clients
	// (c c m | c c m), so each worker dispatches its own clients and
	// either can finish a job alone once the other is gone.
	w1 := start(*binDir, "pnmcs-worker", "-connect", workerAddr, "-worker-token", token)
	waitMetric("pnmcs_net_workers 1")
	w2 := start(*binDir, "pnmcs-worker", "-connect", workerAddr, "-worker-token", token)
	waitMetric("pnmcs_net_workers 2")

	// One job per domain: morpion plays a full level-2 game across the
	// wire; the others are smaller boards. Seeds are arbitrary but fixed.
	specs := []service.JobSpec{
		{Domain: "morpion", Variant: "4D", Level: 2, Seed: 11, Memorize: true},
		{Domain: "samegame", Width: 6, Height: 6, Colors: 3, BoardSeed: 3, Level: 2, Seed: 5, Memorize: true},
		{Domain: "sudoku", Box: 3, Level: 2, Seed: 7},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = submit(spec)
		log.Printf("submitted %s as %s", spec.Domain, ids[i])
	}
	for i, spec := range specs {
		st := await(ids[i])
		if st.State != service.StateDone {
			die("%s: state %s (error %q)", spec.Domain, st.State, st.Error)
		}
		verify(spec, st)
	}

	// Transport counters must show the jobs crossed the wire.
	metrics := httpGet("/metrics")
	for _, want := range []string{"pnmcs_net_workers 2", "pnmcs_net_frames_sent_total"} {
		if !bytes.Contains(metrics, []byte(want)) {
			die("/metrics missing %q", want)
		}
	}

	// Chaos phase: SIGKILL worker 2 mid-job, dial a replacement in, and
	// require the job to ride the churn out bit-identically.
	chaosSpec := service.JobSpec{
		Domain: "samegame", Width: 8, Height: 8, Colors: 3, BoardSeed: 9,
		Level: 2, Seed: 13, Memorize: true,
	}
	chaosID := submit(chaosSpec)
	log.Printf("chaos: submitted %s as %s", chaosSpec.Domain, chaosID)
	awaitSteps(chaosID, 1)
	if err := w2.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		die("kill worker-2: %v", err)
	}
	log.Printf("chaos: worker-2 SIGKILLed mid-job; starting replacement")
	w3 := start(*binDir, "pnmcs-worker", "-connect", workerAddr, "-worker-token", token)
	st := await(chaosID)
	if st.State != service.StateDone {
		die("chaos job state %s (error %q)", st.State, st.Error)
	}
	verify(chaosSpec, st)
	metrics = httpGet("/metrics")
	for _, want := range []string{"pnmcs_worker_lost_total 1", "pnmcs_worker_rejoined_total 1"} {
		if !bytes.Contains(metrics, []byte(want)) {
			die("/metrics missing %q after the kill", want)
		}
	}
	w2.Wait() //nolint:errcheck // reap the SIGKILLed worker

	// Degradation phase: SIGKILL the replacement and start NO new worker.
	// Once -replace-grace expires the coordinator abandons the slot and
	// re-maps its rank range onto worker-1; the next job runs on the
	// shrunken world — bit-identical, because rollout randomness is keyed
	// by logical job coordinates, never by which worker runs them. (A job
	// in flight at the kill would not wait for the abandonment: worker-1
	// finishes it with its own median and clients.)
	if err := w3.Process.Kill(); err != nil {
		die("kill worker-3: %v", err)
	}
	log.Printf("degrade: worker-3 SIGKILLed; no replacement — waiting out -replace-grace")
	waitMetric("pnmcs_worker_abandoned_total 1")
	degradeSpec := service.JobSpec{
		Domain: "samegame", Width: 8, Height: 8, Colors: 3, BoardSeed: 17,
		Level: 2, Seed: 29, Memorize: true,
	}
	degradeID := submit(degradeSpec)
	log.Printf("degrade: submitted %s as %s", degradeSpec.Domain, degradeID)
	st = await(degradeID)
	if st.State != service.StateDone {
		die("degraded job state %s (error %q)", st.State, st.Error)
	}
	if !st.Degraded {
		die("degraded job not flagged degraded: %+v", st)
	}
	verify(degradeSpec, st)
	metrics = httpGet("/metrics")
	for _, want := range []string{
		"pnmcs_worker_lost_total 2",
		"pnmcs_worker_abandoned_total 1",
		"pnmcs_pool_degraded 1",
		"pnmcs_net_workers 1",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			die("/metrics missing %q after the abandonment", want)
		}
	}
	// The daemon keeps serving degraded — ready for traffic, flagged so.
	if ready := httpGet("/readyz"); !bytes.Contains(ready, []byte(`"status": "degraded"`)) {
		die("/readyz does not report degraded: %s", ready)
	}
	w3.Wait() //nolint:errcheck // reap the SIGKILLed replacement

	// Graceful drain: SIGTERM the daemon; the surviving worker exits by
	// itself once the coordinator tears the rank world down.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		die("%v", err)
	}
	for name, p := range map[string]*exec.Cmd{"pnmcsd": daemon, "worker-1": w1} {
		if err := waitFor(p, 30*time.Second); err != nil {
			die("%s did not drain cleanly: %v", name, err)
		}
	}
	fmt.Println("distributed smoke PASS: 3 domains bit-identical across 2 worker processes, " +
		"a SIGKILL mid-job survived via rolling replacement, and a second SIGKILL with no " +
		"replacement finished degraded on one worker — all bit-identical")
}

// awaitSteps polls a job until it has played at least n root steps (so a
// fault injected now lands mid-job, not before it).
func awaitSteps(id string, n int) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st service.JobStatus
		if err := json.Unmarshal(httpGet("/v1/jobs/"+id), &st); err != nil {
			die("%v", err)
		}
		if st.Steps >= n {
			return
		}
		if st.State.Terminal() {
			die("%s finished before the fault could land (state %s)", id, st.State)
		}
		if time.Now().After(deadline) {
			die("%s never reached %d steps", id, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// start launches a built binary with stdout/stderr piped through.
func start(binDir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		die("start %s: %v", name, err)
	}
	procs = append(procs, cmd)
	return cmd
}

// waitFor waits for a process to exit within the budget.
func waitFor(cmd *exec.Cmd, budget time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		cmd.Process.Kill() //nolint:errcheck // giving up anyway
		return fmt.Errorf("still running after %v", budget)
	}
}

// waitMetric polls /metrics until it carries the line want: a worker
// count, pinning the slot order of staggered worker starts, or an
// abandonment.
func waitMetric(want string) {
	deadline := time.Now().Add(30 * time.Second)
	for !bytes.Contains(httpGet("/metrics"), []byte(want)) {
		if time.Now().After(deadline) {
			die("never saw %s", want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func waitHealthy() {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close() //nolint:errcheck // drained by Close
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			die("pnmcsd never became healthy: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func httpGet(path string) []byte {
	resp, err := http.Get("http://" + httpAddr + path)
	if err != nil {
		die("%v", err)
	}
	defer resp.Body.Close() //nolint:errcheck // read fully below
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		die("%v", err)
	}
	return body
}

func submit(spec service.JobSpec) string {
	body, err := json.Marshal(spec)
	if err != nil {
		die("%v", err)
	}
	resp, err := http.Post("http://"+httpAddr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		die("%v", err)
	}
	defer resp.Body.Close() //nolint:errcheck // decoded below
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		die("submit %s: %d %s", spec.Domain, resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		die("%v", err)
	}
	return st.ID
}

func await(id string) service.JobStatus {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st service.JobStatus
		if err := json.Unmarshal(httpGet("/v1/jobs/"+id), &st); err != nil {
			die("%v", err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			die("%s never finished (state %s after %d steps)", id, st.State, st.Steps)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// verify computes the spec's answer with parallel.Reference in this process
// and compares every deterministic field — the cross-process form of the
// equivalence tests.
func verify(spec service.JobSpec, st service.JobStatus) {
	cfg, err := spec.Config()
	if err != nil {
		die("%v", err)
	}
	solo, err := parallel.Reference(cfg)
	if err != nil {
		die("%v", err)
	}
	if st.Score != solo.Score {
		die("%s: distributed score %v != solo %v", spec.Domain, st.Score, solo.Score)
	}
	if len(st.Sequence) != len(solo.Sequence) {
		die("%s: sequence %d moves != solo %d", spec.Domain, len(st.Sequence), len(solo.Sequence))
	}
	for i := range st.Sequence {
		if st.Sequence[i] != solo.Sequence[i] {
			die("%s: sequences differ at move %d", spec.Domain, i)
		}
	}
	if st.Rollouts != solo.Jobs || st.WorkUnits != solo.WorkUnits {
		die("%s: accounting %d rollouts / %d units != solo %d / %d",
			spec.Domain, st.Rollouts, st.WorkUnits, solo.Jobs, solo.WorkUnits)
	}
	log.Printf("%s: bit-identical (score %.0f, %d moves, %d rollouts)",
		spec.Domain, st.Score, len(st.Sequence), st.Rollouts)
}
