package main

// Handler-level tests of the pnmcsd HTTP surface: the full mux is driven
// through httptest recorders (no sockets), backed by a real Manager and
// worker pool.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/service"
)

func newTestServer(t *testing.T, cfg service.Config) *http.ServeMux {
	t.Helper()
	rt, err := service.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return newMux(rt)
}

func do(mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad status JSON: %v\n%s", err, rec.Body.String())
	}
	return st
}

func TestSubmitStatusLifecycle(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 2, Medians: 2, Clients: 2})

	rec := do(mux, "POST", "/v1/jobs", `{"domain":"sudoku","box":2,"level":2,"seed":1,"memorize":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", rec.Code, rec.Body.String())
	}
	st := decodeStatus(t, rec)
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("fresh job: %+v", st)
	}

	// Poll until terminal (the 4x4 grid finishes in well under a second).
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec = do(mux, "GET", "/v1/jobs/"+st.ID, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status: %d", rec.Code)
		}
		st = decodeStatus(t, rec)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != service.StateDone || st.Score != 16 {
		t.Fatalf("final status: state %s score %v", st.State, st.Score)
	}

	// The listing contains it.
	rec = do(mux, "GET", "/v1/jobs", "")
	var all []service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil || len(all) != 1 {
		t.Fatalf("listing: %v %s", err, rec.Body.String())
	}

	// Cancelling a finished job is a conflict.
	rec = do(mux, "DELETE", "/v1/jobs/"+st.ID, "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel finished: %d", rec.Code)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 1, Clients: 1})
	for _, body := range []string{
		``,
		`not json`,
		`{"domain":"chess"}`,
		`{"domain":"morpion","level":1}`,
		`{"domain":"sudoku","box":2,"level":65}`, // past parallel.MaxLevel
		`{"domain":"sudoku","box":2,"speculate":70000}`, // past parallel.MaxSpeculate
		`{"domain":"morpion","nope":1}`,                 // unknown field
	} {
		rec := do(mux, "POST", "/v1/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, rec.Code)
		}
	}
}

// TestSubmitRejectsWrappingDeadline posts a deadline_ms that overflows
// time.Duration to exactly one second: it must be a 400, not a job that
// silently stops after 1 s.
func TestSubmitRejectsWrappingDeadline(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 1, Clients: 1})
	body := `{"domain":"sudoku","level":2,"seed":1,"deadline_ms":288230376151712744}`
	if rec := do(mux, "POST", "/v1/jobs", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400\n%s", rec.Code, rec.Body.String())
	}
}

// TestSubmitRejectsOversizedBody posts a spec far past the body bound: it
// must be cut off at the bound and answered 413, not buffered whole and
// then rejected as an unknown domain.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 1, Clients: 1})
	body := `{"domain":"` + strings.Repeat("x", 2*maxSpecBytes) + `"}`
	if rec := do(mux, "POST", "/v1/jobs", body); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d, want 413\n%s", rec.Code, rec.Body.String())
	}
}

func TestBackpressure503(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 1, Clients: 1, QueueLimit: 1})
	// One long-running job fills the slot, one fills the queue.
	long := `{"domain":"morpion","variant":"5D","level":2,"seed":%d,"memorize":true}`
	for i := 1; i <= 2; i++ {
		rec := do(mux, "POST", "/v1/jobs", fmt.Sprintf(long, i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, rec.Code)
		}
	}
	rec := do(mux, "POST", "/v1/jobs", fmt.Sprintf(long, 3))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestCancelRunningJob(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 2, Clients: 2})
	rec := do(mux, "POST", "/v1/jobs", `{"domain":"morpion","variant":"5D","level":2,"seed":9,"memorize":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	id := decodeStatus(t, rec).ID

	rec = do(mux, "DELETE", "/v1/jobs/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d\n%s", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := decodeStatus(t, do(mux, "GET", "/v1/jobs/"+id, ""))
		if st.State.Terminal() {
			if st.State != service.StateCancelled {
				t.Fatalf("cancelled job ended as %s", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 1, Clients: 1})
	if rec := do(mux, "GET", "/v1/jobs/job-404", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("status: %d", rec.Code)
	}
	if rec := do(mux, "DELETE", "/v1/jobs/job-404", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel: %d", rec.Code)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	// More clients than medians: helpers join the medians' steps (with no
	// more, the medians play the steps themselves). A level-3 sudoku box-3
	// job (a few hundred milliseconds) outlasts a helper's wake-up however
	// loaded the machine.
	mux := newTestServer(t, service.Config{Slots: 2, Medians: 2, Clients: 3})
	rec := do(mux, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	// Liveness is pure: no load-dependent fields an orchestrator might
	// misread as a health signal.
	if body := rec.Body.String(); strings.Contains(body, "slots") || strings.Contains(body, "running") {
		t.Fatalf("healthz leaked readiness state: %s", body)
	}

	// Run one job so the counters move.
	id := decodeStatus(t, do(mux, "POST", "/v1/jobs",
		`{"domain":"sudoku","box":3,"level":3,"seed":1,"memorize":true}`)).ID
	deadline := time.Now().Add(30 * time.Second)
	for !decodeStatus(t, do(mux, "GET", "/v1/jobs/"+id, "")).State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec = do(mux, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"pnmcs_jobs_submitted_total 1",
		"pnmcs_jobs_completed_total 1",
		"pnmcs_pool_rollouts_total",
		"pnmcs_pool_chunks_total",
		"pnmcs_pool_queue_depth_max",
		`pnmcs_pool_median_idle_seconds{median="0"}`,
		`pnmcs_pool_client_idle_seconds{client="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Helpers joined the job's steps, and the counter saw them.
	if strings.Contains(body, "\npnmcs_pool_chunks_total 0\n") {
		t.Fatalf("no step joined by a helper:\n%s", body)
	}
}

// TestReadyzLifecycle drives /readyz through a live Router: ready while
// serving, 503 with "draining" once shutdown begins.
func TestReadyzLifecycle(t *testing.T) {
	mgr, err := service.NewRouter(service.Config{Slots: 1, Medians: 1, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(mgr)

	rec := do(mux, "GET", "/readyz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status": "ok"`) {
		t.Fatalf("readyz while serving: %d %s", rec.Code, rec.Body.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec = do(mux, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"draining": true`) {
		t.Fatalf("readyz while draining: %d %s", rec.Code, rec.Body.String())
	}
}

// TestReadinessStates pins the readiness verdicts the handler cannot
// reach without staging a real worker outage: a degraded pool stays
// ready (capacity, not correctness), a failed pool does not, and the
// worker gauges only appear on a distributed pool.
func TestReadinessStates(t *testing.T) {
	degraded := service.Metrics{
		Slots: 2,
		Pool: parallel.PoolMetrics{
			Degraded:         true,
			WorkersAbandoned: 1,
			Net:              &mpi.NetStats{Workers: 1},
		},
	}
	code, body := readiness(degraded, false)
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("degraded pool: %d %v", code, body)
	}
	if body["workers_live"] != 1 || body["workers_abandoned"] != int64(1) {
		t.Fatalf("degraded pool worker gauges: %v", body)
	}

	failed := degraded
	failed.Pool.Failed = true
	if code, body := readiness(failed, false); code != http.StatusServiceUnavailable || body["status"] != "failed" {
		t.Fatalf("failed pool: %d %v", code, body)
	}

	// Draining outranks everything.
	if code, body := readiness(failed, true); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining: %d %v", code, body)
	}

	// In-process pool: no worker gauges.
	if _, body := readiness(service.Metrics{Slots: 2}, false); body["workers_live"] != nil {
		t.Fatalf("in-process pool leaked worker gauges: %v", body)
	}
}

// TestMetricsTransportCounters pins the /metrics lines a distributed
// daemon exposes from NetCluster: frame/byte counters and codec timers
// appear when the pool is networked, and are absent on an in-process
// pool (no misleading zero-valued series).
func TestMetricsTransportCounters(t *testing.T) {
	rec := httptest.NewRecorder()
	writeMetrics(rec, service.Metrics{
		Slots:   2,
		Retried: 4,
		Pool: parallel.PoolMetrics{
			WorkersLost:      1,
			WorkersRejoined:  1,
			Regranted:        3,
			WorkersAbandoned: 2,
			Degraded:         true,
			Net: &mpi.NetStats{
				FramesSent: 10, FramesRecv: 9,
				BytesSent: 1200, BytesRecv: 900,
				EncodeNs: 2_000_000, DecodeNs: 1_000_000,
				Workers: 2,
			},
		},
	})
	body := rec.Body.String()
	for _, want := range []string{
		"pnmcs_net_workers 2",
		"pnmcs_net_frames_sent_total 10",
		"pnmcs_net_frames_recv_total 9",
		"pnmcs_net_bytes_sent_total 1200",
		"pnmcs_net_bytes_recv_total 900",
		"pnmcs_net_encode_seconds_total 0.002",
		"pnmcs_net_decode_seconds_total 0.001",
		"pnmcs_worker_lost_total 1",
		"pnmcs_worker_rejoined_total 1",
		"pnmcs_worker_regranted_total 3",
		"pnmcs_worker_abandoned_total 2",
		"pnmcs_pool_degraded 1",
		"pnmcs_pool_failed 0",
		"pnmcs_job_retries_total 4",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("transport metrics missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	writeMetrics(rec, service.Metrics{Slots: 2})
	if strings.Contains(rec.Body.String(), "pnmcs_net_") {
		t.Fatalf("in-process pool leaked transport metrics:\n%s", rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "pnmcs_worker_") {
		t.Fatalf("in-process pool leaked worker-churn metrics:\n%s", rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "pnmcs_pool_degraded") {
		t.Fatalf("in-process pool leaked degradation gauges:\n%s", rec.Body.String())
	}
	// Retry accounting is transport-independent: present either way.
	if !strings.Contains(rec.Body.String(), "pnmcs_job_retries_total 0") {
		t.Fatalf("in-process pool missing retry counter:\n%s", rec.Body.String())
	}
}

// TestEventsStreamToTerminal drives GET /v1/jobs/{id}/events: one JSON
// status per line, flushed as produced, ending with the terminal
// snapshot. The recorder path exercises the same handler the chunked
// HTTP transport wraps.
func TestEventsStreamToTerminal(t *testing.T) {
	mux := newTestServer(t, service.Config{Slots: 1, Medians: 2, Clients: 2})
	id := decodeStatus(t, do(mux, "POST", "/v1/jobs",
		`{"domain":"sudoku","box":2,"level":2,"seed":1,"memorize":true}`)).ID

	rec := do(mux, "GET", "/v1/jobs/"+id+"/events", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("empty event stream")
	}
	var last service.JobStatus
	for i, line := range lines {
		var st service.JobStatus
		if err := json.Unmarshal([]byte(line), &st); err != nil {
			t.Fatalf("event %d not a status: %v\n%s", i, err, line)
		}
		if st.ID != id {
			t.Fatalf("event %d for job %s, want %s", i, st.ID, id)
		}
		last = st
	}
	if last.State != service.StateDone || last.Score != 16 {
		t.Fatalf("stream ended on %s score %v, want terminal done/16", last.State, last.Score)
	}

	// A terminal job's stream is its final snapshot, once.
	rec = do(mux, "GET", "/v1/jobs/"+id+"/events", "")
	lines = strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("terminal stream has %d events, want 1:\n%s", len(lines), rec.Body.String())
	}
	if rec := do(mux, "GET", "/v1/jobs/job-404/events", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown events: %d", rec.Code)
	}
}

// TestPoolsEndpointAndShardMetrics pins the sharded surface: /v1/pools
// reports one entry per pool with the jobs spread across them, and
// /metrics grows the pnmcs_shard_* and tenant series.
func TestPoolsEndpointAndShardMetrics(t *testing.T) {
	mux := newTestServer(t, service.Config{Pools: 2, Slots: 1, Medians: 1, Clients: 2, QueueLimit: 8})
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"domain":"sudoku","box":2,"level":2,"seed":%d,"memorize":true}`, seed)
		rec := do(mux, "POST", "/v1/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", seed, rec.Code)
		}
		ids = append(ids, decodeStatus(t, rec).ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for !decodeStatus(t, do(mux, "GET", "/v1/jobs/"+id, "")).State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	rec := do(mux, "GET", "/v1/pools", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("pools: %d", rec.Code)
	}
	var rm service.RouterMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &rm); err != nil {
		t.Fatalf("pools JSON: %v\n%s", err, rec.Body.String())
	}
	if len(rm.PerPool) != 2 {
		t.Fatalf("pools listing has %d entries, want 2", len(rm.PerPool))
	}
	if rm.Submitted != 4 || rm.Completed != 4 {
		t.Fatalf("aggregate submitted %d completed %d, want 4/4", rm.Submitted, rm.Completed)
	}
	for i, ps := range rm.PerPool {
		if ps.Metrics.Submitted == 0 {
			t.Fatalf("pool %d never placed a job; least-loaded routing broken: %+v", i, rm.PerPool)
		}
	}

	body := do(mux, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"pnmcs_pools 2",
		`pnmcs_shard_jobs_submitted_total{pool="0"}`,
		`pnmcs_shard_jobs_submitted_total{pool="1"}`,
		`pnmcs_shard_utilization{pool="0"}`,
		"pnmcs_tenant_shed_total 0",
		"pnmcs_jobs_submitted_total 4",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTenantQuota429 pins the admission mapping: a tenant over its
// token-bucket rate is shed with 429 + Retry-After, and the shed shows
// up in the tenant ledger.
func TestTenantQuota429(t *testing.T) {
	mux := newTestServer(t, service.Config{
		Slots: 2, Medians: 1, Clients: 2, QueueLimit: 8,
		TenantQPS: 0.001, TenantBurst: 1, // one submission, then a long wait
	})
	body := `{"domain":"sudoku","box":2,"level":2,"seed":1,"memorize":true,"tenant":"alice"}`
	if rec := do(mux, "POST", "/v1/jobs", body); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d\n%s", rec.Code, rec.Body.String())
	}
	rec := do(mux, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	metrics := do(mux, "GET", "/metrics", "").Body.String()
	if !strings.Contains(metrics, "pnmcs_tenant_shed_total 1") {
		t.Fatalf("shed not counted:\n%s", metrics)
	}
}
