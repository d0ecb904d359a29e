package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pnmcs "repro"
	"repro/internal/parallel"
	"repro/internal/service"
)

// jobSystem is the part of the service plane the load generator drives;
// *service.Manager and *service.Router both provide it.
type jobSystem interface {
	Submit(ctx context.Context, spec service.JobSpec) (string, error)
	Wait(ctx context.Context, id string) (service.JobStatus, error)
	Watch(id string) (<-chan service.JobStatus, func(), error)
}

// system is a built service plane: what jobs are submitted to, the pools
// behind it (for counters and clock calibration) and how to tear it down.
type system struct {
	jobs   jobSystem
	pools  []*service.Manager
	router *service.Router // nil when jobs is a single Manager
	stop   func() error
}

// jobTemplate is one position of a round's fixed job list.
type jobTemplate struct {
	name  string
	class string // "R" repeated spec, "W" fresh every round, "" unclassified
	spec  service.JobSpec
}

// plan is what distinguishes the four service workloads.
type plan struct {
	build func() (*system, error)
	jobs  func(g *gen) []jobTemplate
	// Open loop: arrivals follow a schedule over window whatever the
	// service does. Closed loop (window == 0): each of submitters sends its
	// next job only after its previous one completed.
	window     time.Duration
	submitters int
	// limit is the latency beyond which a finished job no longer counts
	// toward goodput.
	limit time.Duration
	// medians and clients are the pool totals across the plane, the
	// denominators of the idle fractions and of parallel efficiency.
	medians, clients int
	// exactCounts says a job's rollout and work-unit counts are part of its
	// pinned output. With the cache on they depend on what the shared cache
	// already held, so only the search itself — score, steps, sequence —
	// must repeat, hit or miss.
	exactCounts bool
}

// cut shortens a plan's job list for the smoke tests to one job of each
// class and domain, leaving out the slow morpion ones, and lifts the
// latency limit, so that a test's verdict does not depend on how fast the
// machine (or the race detector) lets a job run.
func (p plan) cut(tiny bool) plan {
	if !tiny {
		return p
	}
	p.limit = time.Minute
	full := p.jobs
	p.jobs = func(g *gen) []jobTemplate {
		var out []jobTemplate
		seen := map[string]bool{}
		for _, t := range full(g) {
			if k := t.class + domainOf(t.name); !seen[k] && domainOf(t.name) != "morpion" {
				seen[k] = true
				out = append(out, t)
			}
		}
		return out
	}
	return p
}

// roundTimeout bounds one round; a job still unfinished then is a failure,
// not a hang.
const roundTimeout = 90 * time.Second

// latencyLimit is the limit of every service workload: a job that takes
// longer than this has missed it.
const latencyLimit = time.Second

// planOpen is svc_open: the Router, two pools of one slot, one median and
// one client each, four tenants under a quota none of them reaches, and an
// open loop of twenty fine jobs over two seconds (10 jobs/s, about 40% of
// what the two pools can serve). Admission, placement, queueing and the
// pool's messaging do most of the work; latency is timed from each job's
// due time. Seventeen jobs are sudoku searches of some 60 ms and three are
// morpion first moves of some 170 ms: the median then sits among the
// sudoku jobs that met no queue, and the 90th percentile among those that
// queued behind a morpion job, and neither on the edge between two kinds
// of job, where it would jump from seed to seed.
func planOpen(tiny bool) plan {
	p := plan{
		build: func() (*system, error) {
			rt, err := pnmcs.NewRouter(pnmcs.WithPools(2), pnmcs.WithSlots(1), pnmcs.WithPool(1, 1), pnmcs.WithTenantQPS(100, 0))
			if err != nil {
				return nil, err
			}
			sys := &system{jobs: rt, router: rt, stop: func() error { return rt.Shutdown(context.Background()) }}
			for i := 0; i < rt.Pools(); i++ {
				sys.pools = append(sys.pools, rt.Pool(i))
			}
			return sys, nil
		},
		jobs: func(g *gen) []jobTemplate {
			var out []jobTemplate
			for i := 0; i < 3; i++ {
				out = append(out, jobTemplate{name: "morpion4D/L2/first", spec: fineMorpion(g)})
			}
			for i := 0; i < 17; i++ {
				out = append(out, jobTemplate{name: "sudoku3/L2", spec: fineSudoku(g)})
			}
			g.shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
			for i := range out {
				out[i].spec.Tenant = fmt.Sprintf("tenant-%d", g.specs.Intn(4))
			}
			return out
		},
		window: 2 * time.Second, limit: latencyLimit,
		medians: 2, clients: 2, exactCounts: true,
	}
	if tiny {
		p.window = 100 * time.Millisecond
	}
	return p.cut(tiny)
}

// planCoarse is svc_coarse and, with the cache on, its twin svc_cached:
// one pool of two slots, two medians and two clients under a closed loop
// of two submitters. A round is twelve R-class jobs (ten sudoku first
// moves, five specs twice each, and two samegame boards) and four W-class
// samegame jobs on boards new in every round.
// Clients run whole level-1 searches, so rollout compute dominates and
// parallel efficiency and step-barrier idle show. With the cache on the R
// class are cache reads and the W class misses, inserts and, under the
// 2 MB budget, evictions: op_p50_ms lands in the read class and wall_s is
// dominated by the write class, so a read gain paid for by writes shows.
func planCoarse(cached, tiny bool) plan {
	p := plan{
		build: func() (*system, error) {
			cfg := service.Config{Slots: 2, Medians: 2, Clients: 2}
			if cached {
				cfg.CacheMB = 2
			}
			m, err := service.New(cfg)
			if err != nil {
				return nil, err
			}
			return &system{jobs: m, pools: []*service.Manager{m}, stop: func() error { return m.Shutdown(context.Background()) }}, nil
		},
		jobs: func(g *gen) []jobTemplate {
			out := []jobTemplate{
				{name: "samegame7x7x4/L3/first", class: "R", spec: coarseSameGame(g, boardCatalog[0])},
				{name: "samegame7x7x4/L3/first", class: "R", spec: coarseSameGame(g, boardCatalog[1])},
			}
			for i := 0; i < 5; i++ {
				sudoku := jobTemplate{name: "sudoku3/L3/first", class: "R", spec: coarseSudoku(g)}
				out = append(out, sudoku, sudoku)
			}
			for i := 0; i < 4; i++ {
				// The board is filled in per round; see roundJobs.
				out = append(out, jobTemplate{name: "samegame7x7x4/L3/first", class: "W", spec: coarseSameGame(g, 0)})
			}
			g.shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
			for i := range out {
				out[i].spec.Cache = cached
			}
			return out
		},
		submitters: 2, limit: latencyLimit,
		medians: 2, clients: 2, exactCounts: !cached,
	}
	return p.cut(tiny)
}

// planNet is net_loopback: the same pool shape as svc_coarse, but its
// medians and clients are hosted by two workers that dial the coordinator
// over TCP loopback, so every message is encoded, framed, sent, and often
// forwarded through the hub. Sixteen fine first-move jobs per round —
// twelve sudoku, four samegame — under two submitters; codec and
// NetCluster dominate, and this is the only workload where a wire change
// can show.
func planNet(tiny bool) plan {
	p := plan{
		build: func() (*system, error) {
			m, err := service.New(service.Config{Slots: 2, Medians: 2, Clients: 2, Workers: 2})
			if err != nil {
				return nil, err
			}
			var workers sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				workers.Add(1)
				go func(i int) {
					defer workers.Done()
					_, errs[i] = pnmcs.ServeWorker(m.WorkerAddr(), "")
				}(i)
			}
			stop := func() error {
				err := m.Shutdown(context.Background())
				workers.Wait()
				return errors.Join(append(errs, err)...)
			}
			return &system{jobs: m, pools: []*service.Manager{m}, stop: stop}, nil
		},
		jobs: func(g *gen) []jobTemplate {
			sg := func(board uint64) service.JobSpec {
				s := fineSameGame(g, board)
				s.FirstMoveOnly = true
				return s
			}
			su := func() service.JobSpec {
				s := fineSudoku(g)
				s.FirstMoveOnly = true
				return s
			}
			var out []jobTemplate
			for i := 0; i < 4; i++ {
				out = append(out, jobTemplate{name: "samegame8x8x4/L2/first", spec: sg(boardCatalog[i])})
			}
			for i := 0; i < 12; i++ {
				out = append(out, jobTemplate{name: "sudoku3/L2/first", spec: su()})
			}
			g.shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
			return out
		},
		submitters: 2, limit: latencyLimit,
		medians: 2, clients: 2, exactCounts: true,
	}
	return p.cut(tiny)
}

// serviceWorkload drives one plan.
type serviceWorkload struct {
	plan      plan
	g         *gen
	sys       *system
	templates []jobTemplate
	// pools and routed outlive sys, which close releases before the layer
	// metrics are computed.
	pools  int
	routed bool
}

func (w *serviceWorkload) setup(g *gen) error {
	w.g = g
	w.templates = w.plan.jobs(g)
	sys, err := w.plan.build()
	if err != nil {
		return err
	}
	w.sys, w.pools, w.routed = sys, len(sys.pools), sys.router != nil
	return w.checkOracle()
}

// checkOracle runs the first repeated spec solo through parallel.RunWall
// and through the system under test, and requires the same search from
// both: solo == pool == router == net.
func (w *serviceWorkload) checkOracle() error {
	var spec service.JobSpec
	for _, t := range w.templates {
		if t.class != "W" {
			spec = t.spec
			break
		}
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	solo, err := parallel.RunWall(1, 1, cfg)
	if err != nil {
		return fmt.Errorf("solo oracle: %w", err)
	}
	id, err := w.sys.jobs.Submit(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("oracle job: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	st, err := w.sys.jobs.Wait(ctx, id)
	if err != nil {
		return fmt.Errorf("oracle job: %w", err)
	}
	want := digest{Score: solo.Score, Steps: solo.Steps, SeqHash: hashSequence(solo.Sequence)}
	if w.plan.exactCounts {
		want.Rollouts, want.WorkUnits = solo.Jobs, solo.WorkUnits
	}
	got := w.statusDigest(st)
	if st.State != service.StateDone || got != want {
		return fmt.Errorf("oracle mismatch: solo %+v, system %+v (state %s %s)", want, got, st.State, st.Error)
	}
	return nil
}

func (w *serviceWorkload) statusDigest(st service.JobStatus) digest {
	d := digest{Score: st.Score, Steps: st.Steps, SeqHash: hashSequence(st.Sequence)}
	if w.plan.exactCounts {
		d.Rollouts, d.WorkUnits = st.Rollouts, st.WorkUnits
	}
	return d
}

// jobTimes are one job's timestamps as seen from outside the service.
type jobTimes struct {
	due    time.Time // open loop only
	t0, t1 time.Time // Submit called, Submit returned
	tw     time.Time // Wait returned
	status service.JobStatus
	pool   int
	// marks are the moments a Watch subscription saw the root's step
	// counter move; traced rounds only.
	marks []stepMark
}

type stepMark struct {
	at    time.Time
	steps int
}

// pending is a submitted job whose completion has not been awaited yet.
type pending struct {
	tmpl    jobTemplate
	jt      *jobTimes
	id      string
	err     error
	watched chan struct{}
}

// submit sends one job. due is zero on a closed loop.
func (w *serviceWorkload) submit(t jobTemplate, due time.Time, traced bool) *pending {
	p := &pending{tmpl: t, jt: &jobTimes{due: due}}
	p.jt.t0 = time.Now()
	p.id, p.err = w.sys.jobs.Submit(context.Background(), t.spec)
	p.jt.t1 = time.Now()
	if p.err != nil || !traced {
		return p
	}
	ch, cancel, err := w.sys.jobs.Watch(p.id)
	if err != nil {
		return p // the job was already evicted; its spans go without steps
	}
	p.watched = make(chan struct{})
	go func() {
		defer close(p.watched)
		defer cancel()
		last := 0
		for st := range ch {
			if st.Steps > last {
				p.jt.marks = append(p.jt.marks, stepMark{at: time.Now(), steps: st.Steps})
				last = st.Steps
			}
		}
	}()
	return p
}

// wait blocks until the job is terminal and judges it.
func (w *serviceWorkload) wait(ctx context.Context, p *pending) opResult {
	op := opResult{name: p.tmpl.name, class: p.tmpl.class, pinned: p.tmpl.class != "W", job: p.jt}
	if p.err != nil {
		op.failed = "shed: " + p.err.Error()
		return op
	}
	st, err := w.sys.jobs.Wait(ctx, p.id)
	p.jt.tw = time.Now()
	if err != nil {
		op.failed = "wait: " + err.Error()
		return op
	}
	if p.watched != nil {
		<-p.watched // the stream closes right after the terminal snapshot
	}
	p.jt.status = st
	p.jt.pool = poolOf(st.ID, w.pools)
	op.dig = w.statusDigest(st)
	start := p.jt.t0
	if !p.jt.due.IsZero() {
		start = p.jt.due
	}
	op.latency = p.jt.tw.Sub(start)
	switch {
	case st.State != service.StateDone || st.Stopped:
		op.failed = fmt.Sprintf("ended %s (stopped=%v) %s", st.State, st.Stopped, st.Error)
	case st.Steps == 0:
		op.failed = "done with zero steps"
	case op.latency > w.plan.limit:
		op.failed = fmt.Sprintf("late: %v > %v", op.latency, w.plan.limit)
	}
	return op
}

// poolOf recovers which pool ran a job: a Router numbers its pools' job
// ids in disjoint residues ("job-N" ran on pool (N-1) mod pools).
func poolOf(id string, pools int) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 1 {
		return 0
	}
	return (n - 1) % pools
}

// roundJobs is the job list of round n: the templates, with the W-class
// boards drawn fresh for this round.
func (w *serviceWorkload) roundJobs(n int) []jobTemplate {
	out := append([]jobTemplate(nil), w.templates...)
	for i := range out {
		if out[i].class == "W" {
			out[i].spec.BoardSeed = w.g.freshBoard(n, i)
		}
	}
	return out
}

func (w *serviceWorkload) round(n int, tr *tracer, parent int) (roundResult, error) {
	jobs := w.roundJobs(n)
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	traced := tr != nil

	var before planeCounters
	if traced {
		before = w.sys.counters()
	}
	res := roundResult{ops: make([]opResult, len(jobs))}
	if w.plan.window > 0 {
		// Open loop: this goroutine is the generator. It sleeps to each due
		// time, submits, and hands the wait to a goroutine of its own, so a
		// slow job never delays a later arrival.
		schedule := w.g.arrivalSchedule(n, len(jobs), w.plan.window)
		res.scheduled = schedule[len(schedule)-1]
		res.lateness = make([]time.Duration, len(jobs))
		var waiters sync.WaitGroup
		start := time.Now()
		for i, t := range jobs {
			due := start.Add(schedule[i])
			time.Sleep(time.Until(due))
			p := w.submit(t, due, traced)
			res.lateness[i] = p.jt.t0.Sub(due)
			waiters.Add(1)
			go func(i int) {
				defer waiters.Done()
				res.ops[i] = w.wait(ctx, p)
			}(i)
		}
		waiters.Wait()
	} else {
		var next atomic.Int64
		var submitters sync.WaitGroup
		for s := 0; s < w.plan.submitters; s++ {
			submitters.Add(1)
			go func() {
				defer submitters.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					res.ops[i] = w.wait(ctx, w.submit(jobs[i], time.Time{}, traced))
				}
			}()
		}
		submitters.Wait()
	}
	if traced {
		res.layer = planeDelta{before: before, after: w.sys.counters()}
		w.recordSpans(tr, parent, res.ops)
	}
	return res, nil
}

func (w *serviceWorkload) close() error {
	if w.sys == nil {
		return nil
	}
	err := w.sys.stop()
	w.sys = nil
	return err
}

// planeCounters is a reading of every counter the service plane keeps.
type planeCounters struct {
	svc        service.Metrics // folded over the pools
	perPool    []int64         // jobs submitted to each pool
	tenantShed int64
	medianIdle time.Duration // summed over ranks
	clientIdle time.Duration
	netFrames  uint64
	netBytes   uint64
	netCodecNs uint64
}

// planeDelta is a traced round's before and after.
type planeDelta struct{ before, after planeCounters }

func (s *system) counters() planeCounters {
	var c planeCounters
	if s.router != nil {
		rm := s.router.Metrics()
		c.svc = rm.Metrics
		c.tenantShed = rm.TenantShed
		for _, p := range rm.PerPool {
			c.perPool = append(c.perPool, p.Metrics.Submitted)
		}
	} else {
		c.svc = s.pools[0].Metrics()
		c.perPool = []int64{c.svc.Submitted}
	}
	for _, d := range c.svc.Pool.MedianIdle {
		c.medianIdle += d
	}
	for _, d := range c.svc.Pool.ClientIdle {
		c.clientIdle += d
	}
	if n := c.svc.Pool.Net; n != nil {
		c.netFrames = n.FramesSent + n.FramesRecv
		c.netBytes = n.BytesSent + n.BytesRecv
		c.netCodecNs = n.EncodeNs + n.DecodeNs
	}
	return c
}
