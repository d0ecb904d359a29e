package main

import (
	"math"
	"strings"
	"time"
)

// clockOffsets estimates, per pool, how far a Manager's job timestamps run
// ahead of the benchmark's clock. A Manager stamps jobs with its creation
// time plus a clock started slightly earlier, so its stamps are off by a
// constant. Each job bounds that constant: its Submitted stamp was taken
// while Submit was executing, between t0 and t1. The estimate is the
// middle of the intersection of all jobs' bounds.
func clockOffsets(ops []opResult, pools int) []time.Duration {
	lo := make([]time.Duration, pools)
	hi := make([]time.Duration, pools)
	seen := make([]bool, pools)
	for _, op := range ops {
		jt := op.job
		if jt == nil || jt.status.Submitted.IsZero() {
			continue
		}
		l, h := jt.status.Submitted.Sub(jt.t1), jt.status.Submitted.Sub(jt.t0)
		p := jt.pool
		if !seen[p] {
			lo[p], hi[p], seen[p] = l, h, true
			continue
		}
		lo[p], hi[p] = max(lo[p], l), min(hi[p], h)
	}
	off := make([]time.Duration, pools)
	for p := range off {
		off[p] = (lo[p] + hi[p]) / 2
	}
	return off
}

// jobPhases are one job's latency split at the layer boundaries, on the
// benchmark's clock: the generator's lateness (open loop), the Submit
// call, the wait for a slot, the run on the pool, and the time from the
// job turning terminal to Wait returning.
type jobPhases struct {
	start                     time.Time // due time (open loop) or t0
	submitted, began, ended   time.Time // Manager stamps, offset removed
	late, submit, queue, run  time.Duration
	notify, latency, spanSums time.Duration
}

func phasesOf(jt *jobTimes, off time.Duration) jobPhases {
	ph := jobPhases{
		start:     jt.t0,
		submitted: jt.status.Submitted.Add(-off),
		began:     jt.status.Started.Add(-off),
		ended:     jt.status.Finished.Add(-off),
	}
	if !jt.due.IsZero() {
		ph.start = jt.due
		ph.late = jt.t0.Sub(jt.due)
	}
	ph.submit = jt.t1.Sub(jt.t0)
	ph.queue = ph.began.Sub(ph.submitted)
	ph.run = ph.ended.Sub(ph.began)
	ph.notify = jt.tw.Sub(ph.ended)
	ph.latency = jt.tw.Sub(ph.start)
	ph.spanSums = ph.late + ph.submit + ph.queue + ph.run + ph.notify
	return ph
}

// recordSpans writes a traced round's operations into the trace: one op
// span per job and under it the submit call, the queue wait, the run and
// the notification, with the root steps a Watch subscription saw as
// children of the run.
func (w *serviceWorkload) recordSpans(tr *tracer, parent int, ops []opResult) {
	off := clockOffsets(ops, len(w.sys.pools))
	submitName := "service.submit"
	if w.sys.router != nil {
		submitName = "router.submit"
	}
	for _, op := range ops {
		jt := op.job
		if jt == nil || jt.status.ID == "" {
			continue
		}
		ph := phasesOf(jt, off[jt.pool])
		id := tr.add(parent, "op", ph.start, jt.tw, map[string]any{"name": op.name, "class": op.class, "job": jt.status.ID, "pool": jt.pool})
		if ph.late > 0 {
			tr.add(id, "gen.late", jt.due, jt.t0, nil)
		}
		tr.add(id, submitName, jt.t0, jt.t1, nil)
		tr.add(id, "service.queue", ph.submitted, ph.began, nil)
		run := tr.add(id, "service.run", ph.began, ph.ended, nil)
		tr.add(id, "bench.notify", ph.ended, jt.tw, nil)
		prev := ph.began
		for _, mk := range jt.marks {
			tr.add(run, "parallel.step", prev, mk.at, map[string]any{"steps": mk.steps})
			prev = mk.at
		}
	}
}

// layers turns the traced rounds into the service, parallel, cache and
// transport rows of the per-layer table. Every duration is taken at
// reference speed, like the end-to-end times it explains.
func (w *serviceWorkload) layers(m metricSet, pr *probeResults, traced []measuredRound) {
	if len(traced) == 0 {
		return
	}
	var submitUs, queueMs, runMs, notifyUs, sumErr, readMs, writeMs []float64
	var wall time.Duration
	var mallocs uint64
	var compute float64 // seconds the rollouts would take at the solo rate
	var d planeCounters // deltas summed over the traced rounds
	d.perPool = make([]int64, w.pools)
	var last planeCounters
	atRef := func(d time.Duration, speed float64) time.Duration { return time.Duration(float64(d) * speed) }
	for _, r := range traced {
		wall += time.Duration(r.wallAtReference() * float64(time.Second))
		mallocs += r.mallocs
		off := clockOffsets(r.res.ops, len(d.perPool))
		for _, op := range r.res.ops {
			jt := op.job
			if jt == nil || jt.status.ID == "" {
				continue
			}
			ph := phasesOf(jt, off[jt.pool])
			submitUs = append(submitUs, float64(atRef(ph.submit, r.speed).Nanoseconds())/1e3)
			queueMs = append(queueMs, ms(atRef(ph.queue, r.speed).Nanoseconds()))
			runMs = append(runMs, ms(atRef(ph.run, r.speed).Nanoseconds()))
			notifyUs = append(notifyUs, float64(atRef(ph.notify, r.speed).Nanoseconds())/1e3)
			sumErr = append(sumErr, math.Abs(ph.spanSums.Seconds()-ph.latency.Seconds())/ph.latency.Seconds())
			switch op.class {
			case "R":
				readMs = append(readMs, ms(atRef(op.latency, r.speed).Nanoseconds()))
			case "W":
				writeMs = append(writeMs, ms(atRef(op.latency, r.speed).Nanoseconds()))
			}
			compute += float64(jt.status.WorkUnits) / pr.unitsPerSecond(op.name)
		}
		pd := r.res.layer.(planeDelta)
		b, a := pd.before, pd.after
		last = a
		d.svc.Rejected += a.svc.Rejected - b.svc.Rejected
		d.tenantShed += a.tenantShed - b.tenantShed
		for i := range d.perPool {
			d.perPool[i] += a.perPool[i] - b.perPool[i]
		}
		d.medianIdle += atRef(a.medianIdle-b.medianIdle, r.speed)
		d.clientIdle += atRef(a.clientIdle-b.clientIdle, r.speed)
		d.netFrames += a.netFrames - b.netFrames
		d.netBytes += a.netBytes - b.netBytes
		d.netCodecNs += uint64(float64(a.netCodecNs-b.netCodecNs) * r.speed)
		dp, ap, bp := &d.svc.Pool, a.svc.Pool, b.svc.Pool
		dp.Jobs += ap.Jobs - bp.Jobs
		dp.WorkUnits += ap.WorkUnits - bp.WorkUnits
		dp.StepCount += ap.StepCount - bp.StepCount
		dp.StepLatencySum += atRef(ap.StepLatencySum-bp.StepLatencySum, r.speed)
		dp.Speculated += ap.Speculated - bp.Speculated
		dp.SpecWasted += ap.SpecWasted - bp.SpecWasted
		dp.CacheHits += ap.CacheHits - bp.CacheHits
		dp.CacheMisses += ap.CacheMisses - bp.CacheMisses
		dp.CacheEvictions += ap.CacheEvictions - bp.CacheEvictions
	}
	rounds := float64(len(traced))
	rollouts := float64(d.svc.Pool.Jobs)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	if w.routed {
		m.set("router.submit_us_p50", quantile(submitUs, 0.5))
		m.set("router.shed_quota", float64(d.tenantShed))
		lo, hi := d.perPool[0], d.perPool[0]
		for _, n := range d.perPool {
			lo, hi = min(lo, n), max(hi, n)
		}
		m.set("router.pool_balance", ratio(float64(lo), float64(hi)))
	} else {
		m.set("service.submit_us_p50", quantile(submitUs, 0.5))
	}
	m.set("service.queue_ms_p50", quantile(queueMs, 0.5))
	m.set("service.queue_ms_p90", quantile(queueMs, 0.9))
	m.set("service.run_ms_p50", quantile(runMs, 0.5))
	m.set("service.run_ms_p90", quantile(runMs, 0.9))
	m.set("service.notify_us_p50", quantile(notifyUs, 0.5))
	m.set("service.shed_saturated", float64(d.svc.Rejected))
	m.set("service.span_sum_err_p90", quantile(sumErr, 0.9))

	clientSeconds := float64(w.plan.clients) * wall.Seconds()
	m.set("parallel.rollouts", rollouts/rounds)
	m.set("parallel.work_units", float64(d.svc.Pool.WorkUnits)/rounds)
	m.set("parallel.rollouts_per_s", rollouts/wall.Seconds())
	m.set("parallel.overhead_us_per_rollout", ratio((clientSeconds-compute)*1e6, rollouts))
	m.set("parallel.allocs_per_rollout", ratio(float64(mallocs), rollouts))
	m.set("parallel.median_idle_frac", d.medianIdle.Seconds()/(float64(w.plan.medians)*wall.Seconds()))
	m.set("parallel.client_idle_frac", d.clientIdle.Seconds()/clientSeconds)
	m.set("parallel.queue_depth_mean", last.svc.Pool.QueueDepthMean)
	m.set("parallel.step_ms_mean", ratio(ms(d.svc.Pool.StepLatencySum.Nanoseconds()), float64(d.svc.Pool.StepCount)))
	// The longest step is a lifetime maximum; it is scaled by the speed of
	// the last traced round, the best available.
	m.set("parallel.step_ms_max", ms(atRef(last.svc.Pool.StepLatencyMax, traced[len(traced)-1].speed).Nanoseconds()))
	m.set("parallel.spec_waste_ratio", ratio(float64(d.svc.Pool.SpecWasted), float64(d.svc.Pool.Speculated)))
	m.set("parallel.par_eff", compute/clientSeconds)

	m.set("cache.hit_ratio", ratio(float64(d.svc.Pool.CacheHits), float64(d.svc.Pool.CacheHits+d.svc.Pool.CacheMisses)))
	m.set("cache.evictions", float64(d.svc.Pool.CacheEvictions)/rounds)
	m.set("cache.bytes", float64(last.svc.Pool.CacheBytes))
	m.set("cache.read_job_ms_p50", quantile(readMs, 0.5))
	m.set("cache.write_job_ms_p50", quantile(writeMs, 0.5))

	m.set("mpi.net.frames", float64(d.netFrames)/rounds)
	m.set("mpi.net.bytes", float64(d.netBytes)/rounds)
	m.set("mpi.net.bytes_per_frame", ratio(float64(d.netBytes), float64(d.netFrames)))
	m.set("mpi.net.frames_per_rollout", ratio(float64(d.netFrames), rollouts))
	m.set("mpi.net.codec_share", float64(d.netCodecNs)/float64(wall.Nanoseconds()))
}

// domainOf names the domain an operation searched, from the op name's
// leading letters ("samegame8x8x4/L2" -> "samegame").
func domainOf(opName string) string {
	return strings.TrimRight(strings.SplitN(opName, "/", 2)[0], "0123456789xDT")
}
