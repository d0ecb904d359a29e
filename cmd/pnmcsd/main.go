// Command pnmcsd serves nested Monte-Carlo searches over HTTP: the
// long-lived, multi-tenant form of the paper's root/median/client cluster
// (see internal/service). Workers are built once at startup and reused
// across every request; concurrent jobs are multiplexed onto them with
// bounded-queue backpressure.
//
// Start a daemon:
//
//	pnmcsd -addr :8723 -slots 4 -medians 4 -clients 8 -queue 16
//
// Submit a job (any bundled domain, any level ≥ 2):
//
//	curl -s -X POST localhost:8723/v1/jobs -d \
//	  '{"domain":"morpion","variant":"5D","level":2,"seed":7,"memorize":true}'
//	→ {"id":"job-1","state":"queued",...}
//
// Poll it, stream it, cancel it, watch the pools:
//
//	curl -s localhost:8723/v1/jobs/job-1         # status snapshot
//	curl -sN localhost:8723/v1/jobs/job-1/events # live progress, one JSON status per line until terminal
//	curl -s -X DELETE localhost:8723/v1/jobs/job-1
//	curl -s localhost:8723/v1/pools              # per-pool breakdown + tenant-shed ledger
//	curl -s localhost:8723/healthz               # liveness: process is up
//	curl -s localhost:8723/readyz                # readiness: 503 when draining or below the worker floor
//	curl -s localhost:8723/metrics               # idle / queue-depth / shard counters
//
// -pools N shards the service plane across N independent worker pools
// behind one admission layer (placement never changes a job's result),
// and -tenant-qps puts a per-tenant token-bucket quota in front of the
// queue: a spec's "tenant" field over its rate is shed with 429 before
// it can displace anyone else's traffic. A saturated service answers
// POST /v1/jobs with 503 and Retry-After instead of queueing
// unboundedly. SIGINT/SIGTERM drains gracefully: queued jobs are
// cancelled, running jobs finish (bounded by -drain), event streams
// flush their terminal snapshot, and the pools are torn down with no
// work in flight.
//
// With -workers > 0 the degradation policy decides what a permanently
// lost worker costs: -replace-grace bounds how long its slot waits for a
// replacement, after which -degrade either re-maps the dead ranks onto
// the survivors (down to -min-workers) or fails running jobs fast; either
// way -job-retries re-queues failed jobs under their original seed, so a
// revived pool finishes them bit-identical to an undisturbed run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	slots := flag.Int("slots", 4, "concurrent jobs served at once")
	medians := flag.Int("medians", 4, "shared median workers")
	clients := flag.Int("clients", 8, "shared rollout workers")
	queue := flag.Int("queue", 16, "jobs queued beyond the running slots before 503 (per pool)")
	pools := flag.Int("pools", 1, "independent worker pools behind one admission layer (slots/medians/clients/queue are per pool; >1 requires -workers 0)")
	tenantQPS := flag.Float64("tenant-qps", 0, "per-tenant submission rate before 429 (0 = no quotas)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst allowance on top of -tenant-qps (0 = qps+1)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for running jobs")
	workers := flag.Int("workers", 0, "serve medians+clients from this many pnmcs-worker processes (0 = in-process)")
	workerListen := flag.String("worker-listen", "127.0.0.1:8724", "TCP address pnmcs-worker processes dial (with -workers); set -worker-token before binding a non-loopback interface")
	workerToken := flag.String("worker-token", "", "shared secret pnmcs-worker processes must present at handshake (empty = accept any; loopback only)")
	degrade := flag.Bool("degrade", true, "keep finishing jobs on a shrunken pool after a worker is abandoned (false = fail running jobs fast instead)")
	minWorkers := flag.Int("min-workers", 1, "degraded floor: fail fast once fewer workers survive (with -degrade)")
	replaceGrace := flag.Duration("replace-grace", 10*time.Second, "give a lost worker's slot up after waiting this long for a replacement (0 = wait forever)")
	jobRetries := flag.Int("job-retries", 2, "re-queue a failed job up to this many times under its original seed")
	evaluator := flag.String("evaluator", "", "default rollout evaluator for jobs that don't name one (e.g. \"heuristic\"; empty = uniform playouts)")
	cacheMB := flag.Int("cache-mb", 0, "shared transposition cache size in MB, serving jobs submitted with \"cache\":true (0 = default 64)")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every transposition-cache hit and crash on mismatch (debug)")
	speculate := flag.Int("speculate", 0, "async pipelined root: speculate the next step's candidates for this many partial-score leaders (0 = synchronous; results identical either way)")
	flag.Parse()

	rt, err := service.NewRouter(service.Config{
		Slots:        *slots,
		Medians:      *medians,
		Clients:      *clients,
		QueueLimit:   *queue,
		Pools:        *pools,
		TenantQPS:    *tenantQPS,
		TenantBurst:  *tenantBurst,
		Evaluator:    *evaluator,
		Workers:      *workers,
		WorkerListen: *workerListen,
		WorkerToken:  *workerToken,
		Degrade:      *degrade,
		MinWorkers:   *minWorkers,
		ReplaceGrace: *replaceGrace,
		Retry:        service.RetryPolicy{Max: *jobRetries},
		CacheMB:      *cacheMB,
		CacheVerify:  *cacheVerify,
		Speculate:    *speculate,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: newMux(rt)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("pnmcsd listening on %s: %d pools x (%d slots, %d medians, %d clients, queue %d)",
		*addr, rt.Pools(), *slots, *medians, *clients, *queue)
	if *tenantQPS > 0 {
		log.Printf("tenant quotas: %.3g qps, burst %d", *tenantQPS, *tenantBurst)
	}
	if *workers > 0 {
		log.Printf("distributed pool: expecting %d pnmcs-worker processes on %s", *workers, rt.WorkerAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// Startup failures (bad listen address, port in use) are fatal;
		// ErrServerClosed only ever means an orderly Shutdown elsewhere
		// won the race and must not take the process down mid-drain.
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("%v: draining (budget %v)", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// The HTTP drain and the job drain must overlap, not sequence: an
	// /events stream stays open until its job is terminal, so
	// srv.Shutdown can only complete after the router has drained — and
	// the terminal snapshots those streams flush are only guaranteed
	// delivered once srv.Shutdown has returned. Start both, wait for both.
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Shutdown(ctx) }()
	if err := rt.Shutdown(ctx); err != nil {
		log.Printf("forced drain: %v", err)
	}
	if err := <-httpDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http drain: %v", err)
	}
	log.Print("pnmcsd stopped")
}

// newMux wires the API routes onto a fresh mux. Split from main so the
// handler tests can drive the full HTTP surface without a socket. The
// daemon always serves through a Router — with -pools 1 it behaves
// exactly like the single Manager it wraps.
func newMux(rt *service.Router) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(rt, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Jobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := rt.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(rt, w, r)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := rt.Cancel(id); err != nil {
			writeError(w, err)
			return
		}
		st, err := rt.Get(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/pools", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.Metrics())
	})
	// Liveness and readiness are deliberately split: /healthz answers "is
	// the process up" and nothing else, so an orchestrator never restarts
	// a daemon that is merely draining or waiting out a worker outage;
	// /readyz is the traffic gate that goes 503 in those states.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rm := rt.Metrics()
		code, body := readiness(rm.Metrics, rt.Draining())
		writeJSON(w, code, body)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeRouterMetrics(w, rt.Metrics())
	})
	return mux
}

// handleEvents streams the job's status as chunked newline-delimited
// JSON: an immediate snapshot, then one line per observable change
// (latest-wins — a slow reader skips intermediate states, never stalls
// the search), always ending with the terminal status. The stream is the
// push form of polling GET /v1/jobs/{id}; a disconnected client just
// cancels its subscription, never the job.
func handleEvents(rt *service.Router, w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := rt.Watch(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case st, ok := <-ch:
			if !ok {
				return // terminal snapshot already delivered
			}
			if err := enc.Encode(st); err != nil {
				return // client went away
			}
			if canFlush {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// readiness maps the service state onto a readiness verdict. Split from
// the handler so tests can drive the degraded and failed states without
// staging a real worker outage. Draining and a pool below its worker
// floor are not ready (503); a degraded-but-serving pool stays ready —
// capacity is reduced, correctness is not.
func readiness(m service.Metrics, draining bool) (int, map[string]any) {
	status, code := "ok", http.StatusOK
	switch {
	case draining:
		status, code = "draining", http.StatusServiceUnavailable
	case m.Pool.Failed:
		status, code = "failed", http.StatusServiceUnavailable
	case m.Pool.Degraded:
		status = "degraded"
	}
	body := map[string]any{
		"status":   status,
		"draining": draining,
		"degraded": m.Pool.Degraded,
		"slots":    m.Slots,
		"running":  m.Running,
		"queued":   m.Queued,
	}
	if n := m.Pool.Net; n != nil {
		body["workers_live"] = n.Workers
		body["workers_abandoned"] = m.Pool.WorkersAbandoned
	}
	return code, body
}

// maxSpecBytes bounds a submitted job spec: a real one is a few hundred
// bytes, and the decoder must not buffer an arbitrarily large body before
// rejecting it.
const maxSpecBytes = 1 << 20

func handleSubmit(rt *service.Router, w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": "bad job spec: " + err.Error()})
		return
	}
	// Fire-and-forget: the job's lifetime is owned by the service, not by
	// this request's context.
	id, err := rt.Submit(context.Background(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := rt.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// writeError maps service errors onto HTTP statuses: saturation is the
// documented 503 (with Retry-After), a tenant over quota 429 (the
// per-tenant verdict, distinct from the whole plane being full), unknown
// ids 404, finished jobs 409, shutdown 503, anything else a 400 (the
// spec was at fault).
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrSaturated):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrQuota):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrNotFound):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrFinished):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// writeMetrics renders the service counters and the pool's idle /
// queue-depth instrumentation in Prometheus text exposition format.
func writeMetrics(w http.ResponseWriter, m service.Metrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(metricsText(m))) //nolint:errcheck // client went away; nothing to do
}

// writeRouterMetrics renders the aggregate exposition plus the sharding
// plane's series: per-pool pnmcs_shard_* breakdowns and the admission
// layer's tenant-shed ledger.
func writeRouterMetrics(w http.ResponseWriter, rm service.RouterMetrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	b.WriteString(metricsText(rm.Metrics))
	shard := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	shard("pnmcs_shard_jobs_running", "gauge", "jobs on a slot now, by pool")
	for _, ps := range rm.PerPool {
		fmt.Fprintf(&b, "pnmcs_shard_jobs_running{pool=\"%d\"} %d\n", ps.Pool, ps.Metrics.Running)
	}
	shard("pnmcs_shard_jobs_queued", "gauge", "jobs waiting for a slot, by pool")
	for _, ps := range rm.PerPool {
		fmt.Fprintf(&b, "pnmcs_shard_jobs_queued{pool=\"%d\"} %d\n", ps.Pool, ps.Metrics.Queued)
	}
	shard("pnmcs_shard_jobs_submitted_total", "counter", "jobs placed on this pool")
	for _, ps := range rm.PerPool {
		fmt.Fprintf(&b, "pnmcs_shard_jobs_submitted_total{pool=\"%d\"} %d\n", ps.Pool, ps.Metrics.Submitted)
	}
	shard("pnmcs_shard_utilization", "gauge", "running/slots busy fraction, by pool")
	for _, ps := range rm.PerPool {
		fmt.Fprintf(&b, "pnmcs_shard_utilization{pool=\"%d\"} %g\n", ps.Pool, ps.Utilization)
	}
	fmt.Fprintf(&b, "# HELP pnmcs_pools number of independent pools behind the admission layer\n# TYPE pnmcs_pools gauge\npnmcs_pools %d\n", len(rm.PerPool))
	fmt.Fprintf(&b, "# HELP pnmcs_tenant_shed_total submissions shed by per-tenant quotas (429)\n# TYPE pnmcs_tenant_shed_total counter\npnmcs_tenant_shed_total %d\n", rm.TenantShed)
	fmt.Fprintf(&b, "# HELP pnmcs_tenants tenant token buckets tracked\n# TYPE pnmcs_tenants gauge\npnmcs_tenants %d\n", rm.Tenants)
	w.Write([]byte(b.String())) //nolint:errcheck // client went away; nothing to do
}

// metricsText builds the Prometheus exposition body for one Metrics
// snapshot (the single-pool series; writeRouterMetrics appends the
// shard-level series on top).
func metricsText(m service.Metrics) string {
	var b strings.Builder
	emit := func(name, typ, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	emit("pnmcs_jobs_submitted_total", "counter", "jobs accepted by Submit", m.Submitted)
	emit("pnmcs_jobs_rejected_total", "counter", "submissions shed with 503 (queue full)", m.Rejected)
	emit("pnmcs_jobs_completed_total", "counter", "jobs finished normally", m.Completed)
	emit("pnmcs_jobs_cancelled_total", "counter", "jobs cancelled", m.Cancelled)
	emit("pnmcs_jobs_failed_total", "counter", "jobs failed", m.Failed)
	emit("pnmcs_job_retries_total", "counter", "failed jobs re-queued under their original seed", m.Retried)
	emit("pnmcs_jobs_running", "gauge", "jobs on a slot now", m.Running)
	emit("pnmcs_jobs_queued", "gauge", "jobs waiting for a slot", m.Queued)
	emit("pnmcs_slots", "gauge", "concurrent job capacity", m.Slots)
	emit("pnmcs_pool_rollouts_total", "counter", "rollouts executed", m.Pool.Jobs)
	emit("pnmcs_pool_work_units_total", "counter", "metered rollout work units", m.Pool.WorkUnits)
	emit("pnmcs_pool_chunks_total", "counter", "median steps whose rollouts a helper joined", m.Pool.Chunks)
	emit("pnmcs_pool_queue_depth_max", "gauge", "peak scheduler ready-queue depth", m.Pool.QueueDepthMax)
	emit("pnmcs_pool_queue_depth_mean", "gauge", "mean scheduler ready-queue depth", m.Pool.QueueDepthMean)
	// Async pipelined root: speculation economics and per-step latency.
	emit("pnmcs_spec_speculated_total", "counter", "next-step candidates dispatched speculatively", m.Pool.Speculated)
	emit("pnmcs_spec_wasted_total", "counter", "speculative rollouts charged to losing branches", m.Pool.SpecWasted)
	emit("pnmcs_step_latency_count", "counter", "root steps timed", m.Pool.StepCount)
	emit("pnmcs_step_latency_seconds_total", "counter", "cumulative root-step latency", m.Pool.StepLatencySum.Seconds())
	emit("pnmcs_step_latency_seconds_max", "gauge", "slowest root step observed", m.Pool.StepLatencyMax.Seconds())
	emit("pnmcs_cache_hits_total", "counter", "transposition-cache hits (coordinator-resident cache)", m.Pool.CacheHits)
	emit("pnmcs_cache_misses_total", "counter", "transposition-cache misses (coordinator-resident cache)", m.Pool.CacheMisses)
	emit("pnmcs_cache_evictions_total", "counter", "transposition-cache entries evicted to stay in budget", m.Pool.CacheEvictions)
	emit("pnmcs_cache_entries", "gauge", "transposition-cache entries resident", m.Pool.CacheEntries)
	emit("pnmcs_cache_bytes", "gauge", "transposition-cache bytes resident", m.Pool.CacheBytes)
	// Per-rank idle series: co-resident workers account directly, remote
	// workers push theirs on every heartbeat pong and on the goodbye
	// frame, so the series exist on every transport.
	for i, d := range m.Pool.MedianIdle {
		fmt.Fprintf(&b, "pnmcs_pool_median_idle_seconds{median=\"%d\"} %g\n", i, d.Seconds())
	}
	for i, d := range m.Pool.ClientIdle {
		fmt.Fprintf(&b, "pnmcs_pool_client_idle_seconds{client=\"%d\"} %g\n", i, d.Seconds())
	}
	if n := m.Pool.Net; n != nil {
		emit("pnmcs_worker_lost_total", "counter", "worker connections lost before teardown", m.Pool.WorkersLost)
		emit("pnmcs_worker_rejoined_total", "counter", "replacement workers that reclaimed a lost slot", m.Pool.WorkersRejoined)
		emit("pnmcs_worker_regranted_total", "counter", "candidate grants re-queued after worker loss", m.Pool.Regranted)
		emit("pnmcs_worker_abandoned_total", "counter", "lost workers given up on (grace expired or pending queue overflowed)", m.Pool.WorkersAbandoned)
		emit("pnmcs_pool_degraded", "gauge", "1 while the pool runs on a shrunken world (abandoned workers not yet revived)", b2i(m.Pool.Degraded))
		emit("pnmcs_pool_failed", "gauge", "1 while the surviving world is below the worker floor and jobs fail fast", b2i(m.Pool.Failed))
		emit("pnmcs_net_workers", "gauge", "worker processes connected", n.Workers)
		emit("pnmcs_net_frames_sent_total", "counter", "frames sent to workers", n.FramesSent)
		emit("pnmcs_net_frames_recv_total", "counter", "frames received from workers", n.FramesRecv)
		emit("pnmcs_net_bytes_sent_total", "counter", "frame bytes sent to workers", n.BytesSent)
		emit("pnmcs_net_bytes_recv_total", "counter", "frame bytes received from workers", n.BytesRecv)
		emit("pnmcs_net_encode_seconds_total", "counter", "codec time spent encoding frames", float64(n.EncodeNs)/1e9)
		emit("pnmcs_net_decode_seconds_total", "counter", "codec time spent decoding frames", float64(n.DecodeNs)/1e9)
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
