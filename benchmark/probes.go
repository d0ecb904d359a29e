package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
	"repro/internal/vtime"
)

// The layer probes time each layer alone, through its public functions,
// over fixed inputs: they are what a workload's end-to-end number is
// explained by. They run only in the traced run, before the workload, and
// do not depend on the workload or the seed.

// probeSeed fixes every probe's random stream.
const probeSeed = 0x70726f6265

// probeResults holds every probe's figures by metric name, plus the solo
// work-unit rate per domain that parallel efficiency is computed against.
// All of it is at reference speed (see speed.go).
type probeResults struct {
	values map[string]float64
	rate   map[string]float64 // domain -> metered work units per second, solo
}

func (pr *probeResults) fill(m metricSet) {
	for k, v := range pr.values {
		m.set(k, v)
	}
}

// unitsPerSecond is the solo rate for the domain an operation searched.
func (pr *probeResults) unitsPerSecond(opName string) float64 {
	if r := pr.rate[domainOf(opName)]; r > 0 {
		return r
	}
	return 1 // an unknown domain contributes its units as seconds, visibly wrong
}

type probeDomain struct {
	name string
	root func() game.State
}

var probeDomains = []probeDomain{
	{"morpion", func() game.State { return morpion.New(morpion.Var5D) }},
	{"samegame", func() game.State { return samegame.NewRandom(8, 8, 4, boardCatalog[0]) }},
	{"sudoku", func() game.State { return sudoku.New(3) }},
}

func runProbes() (*probeResults, error) {
	pr := &probeResults{values: map[string]float64{}, rate: map[string]float64{}}
	speed := machineSpeed()
	for _, d := range probeDomains {
		probeDomainOps(pr, d)
		probeCore(pr, d)
		if err := probeCodec(pr, d); err != nil {
			return nil, fmt.Errorf("codec probe, %s: %w", d.name, err)
		}
	}
	probeRng(pr)
	if err := probeFrame(pr); err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	probeCache(pr)
	probeWallRTT(pr)
	probeVirtual(pr)
	if err := probeNetRTT(pr); err != nil {
		return nil, fmt.Errorf("net probe: %w", err)
	}
	speed = (speed + machineSpeed()) / 2
	for k, v := range pr.values {
		switch unitOf(k) {
		case "ns", "us", "ms", "s":
			pr.values[k] = v * speed
		case "1/s":
			pr.values[k] = v / speed
		}
	}
	for d, r := range pr.rate {
		pr.rate[d] = r / speed
	}
	return pr, nil
}

// perCall times fn over reps calls and returns nanoseconds per call.
func perCall(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps)
}

// replayedGame plays one random game from the root and returns its moves,
// so the domain loops below walk through opening, middle game and endgame
// positions in their natural proportions.
func replayedGame(d probeDomain) []game.Move {
	st := d.root()
	r := rng.New(probeSeed)
	var moves, buf []game.Move
	for !st.Terminal() {
		buf = st.LegalMoves(buf[:0])
		m := buf[r.Intn(len(buf))]
		st.Play(m)
		moves = append(moves, m)
	}
	return moves
}

func probeDomainOps(pr *probeResults, d probeDomain) {
	moves := replayedGame(d)
	// Each operation is repeated in a tight loop at every position, so the
	// two clock reads around the loop cost a negligible share of it.
	const passes, legalReps, undoReps, cloneReps = 10, 16, 4, 8
	var buf []game.Move
	var legal, playUndo, clone, copyFrom time.Duration
	var nLegal, nPlayUndo, nClone int
	scratch := d.root().Clone().(game.Copier)
	for pass := 0; pass < passes; pass++ {
		st := d.root()
		undo := st.(game.Undoer)
		for _, mv := range moves {
			t0 := time.Now()
			for i := 0; i < legalReps; i++ {
				buf = st.LegalMoves(buf[:0])
			}
			t1 := time.Now()
			for i := 0; i < undoReps; i++ {
				for _, m := range buf {
					undo.Play(m)
					undo.Undo()
				}
			}
			t2 := time.Now()
			for i := 0; i < cloneReps; i++ {
				_ = st.Clone()
			}
			t3 := time.Now()
			for i := 0; i < cloneReps; i++ {
				scratch.CopyFrom(st)
			}
			t4 := time.Now()
			legal += t1.Sub(t0)
			playUndo += t2.Sub(t1)
			clone += t3.Sub(t2)
			copyFrom += t4.Sub(t3)
			nLegal += legalReps
			nPlayUndo += undoReps * len(buf)
			nClone += cloneReps
			st.Play(mv)
		}
	}
	pr.values[d.name+".legal_ns"] = float64(legal.Nanoseconds()) / float64(nLegal)
	pr.values[d.name+".play_undo_ns"] = float64(playUndo.Nanoseconds()) / float64(nPlayUndo)
	pr.values[d.name+".clone_ns"] = float64(clone.Nanoseconds()) / float64(nClone)
	pr.values[d.name+".copyfrom_ns"] = float64(copyFrom.Nanoseconds()) / float64(nClone)
}

// unitMeter counts the work units core charges.
type unitMeter struct{ units int64 }

func (u *unitMeter) Add(n int64) { u.units += n }

func probeCore(pr *probeResults, d probeDomain) {
	// Level-0 playouts.
	s := core.NewSearcher(rng.New(probeSeed), core.DefaultOptions())
	const playouts = 300
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < playouts; i++ {
		s.Sample(d.root())
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	pr.values["core.sample_us."+d.name] = float64(el.Microseconds()) / playouts
	pr.values["core.steps_per_s."+d.name] = float64(s.Stats().Steps) / el.Seconds()
	// One figure for the three domains: the root each playout starts from
	// is allocated here too, which is the same for every change measured.
	pr.values["core.allocs_per_playout"] += float64(ms1.Mallocs-ms0.Mallocs) / playouts / float64(len(probeDomains))

	// Level-1 searches, both traversals; the undo one also gives the solo
	// work-unit rate.
	const searches = 5
	for _, mode := range []struct {
		name   string
		noUndo bool
	}{{"undo", false}, {"clone", true}} {
		meter := &unitMeter{}
		opt := core.DefaultOptions()
		opt.NoUndo, opt.Meter = mode.noUndo, meter
		s := core.NewSearcher(rng.New(probeSeed), opt)
		t0 := time.Now()
		for i := 0; i < searches; i++ {
			s.Nested(d.root(), 1)
		}
		el := time.Since(t0)
		pr.values[fmt.Sprintf("core.nested1_%s_ms.%s", mode.name, d.name)] = ms(el.Nanoseconds()) / searches
		if !mode.noUndo {
			pr.rate[d.name] = float64(meter.units) / el.Seconds()
		}
	}
}

func probeRng(pr *probeResults) {
	r := rng.New(probeSeed)
	sink := 0
	pr.values["rng.draw_ns"] = perCall(2_000_000, func() { sink += r.Intn(37) })
	_ = sink
}

// midGame is the position half way through the replayed game: a typical
// payload of a candidate or job message.
func midGame(d probeDomain) game.State {
	moves := replayedGame(d)
	st := d.root()
	for _, m := range moves[:len(moves)/2] {
		st.Play(m)
	}
	return st
}

func probeCodec(pr *probeResults, d probeDomain) error {
	st := midGame(d)
	var buf []byte
	var err error
	pr.values["codec.encode_ns."+d.name] = perCall(20_000, func() { buf, err = codec.EncodeState(buf[:0], st) })
	if err != nil {
		return err
	}
	pr.values["codec.state_bytes."+d.name] = float64(len(buf))
	pr.values["codec.decode_ns."+d.name] = perCall(20_000, func() { _, err = codec.DecodeState(buf) })
	return err
}

// probeFrame times one small control message — a score — through the
// frame encoder and decoder.
func probeFrame(pr *probeResults) error {
	var buf []byte
	var err error
	pr.values["codec.frame_ns"] = perCall(200_000, func() {
		buf, err = codec.AppendFrame(buf[:0], codec.Frame{From: 3, To: 0, Tag: 2, Payload: 42.5})
		if err == nil {
			_, err = codec.DecodeFrame(buf[4:])
		}
	})
	return err
}

func probeCache(pr *probeResults) {
	c := cache.New(8 << 20)
	seq := make([]game.Move, 8)
	const n = 20_000
	i := uint64(0)
	pr.values["cache.put_ns"] = perCall(n, func() { i++; c.Put(cache.Key{Hash: rng.Mix(probeSeed, i), Level: 1}, 1, seq) })
	var out []game.Move
	i = 0
	pr.values["cache.get_hit_ns"] = perCall(n, func() { i++; out = out[:0]; c.Get(cache.Key{Hash: rng.Mix(probeSeed, i), Level: 1}, &out) })
	i = 0
	pr.values["cache.get_miss_ns"] = perCall(n, func() { i++; out = out[:0]; c.Get(cache.Key{Hash: rng.Mix(probeSeed, i), Level: 2}, &out) })
}

// pingPong has rank 0 bounce a message off rank 1 trips times and stop it.
func pingPong(trips int) (zero, one func(mpi.Comm)) {
	const ping, pong, stop mpi.Tag = 1, 2, 3
	zero = func(c mpi.Comm) {
		for i := 0; i < trips; i++ {
			c.Send(1, ping, i)
			c.Recv(1, pong)
		}
		c.Send(1, stop, nil)
	}
	one = func(c mpi.Comm) {
		for {
			m := c.Recv(0, mpi.AnyTag)
			if m.Tag == stop {
				return
			}
			c.Send(0, pong, m.Payload)
		}
	}
	return zero, one
}

func probeWallRTT(pr *probeResults) {
	const trips = 20_000
	cl := mpi.NewWallCluster(2)
	zero, one := pingPong(trips)
	cl.Start(0, zero)
	cl.Start(1, one)
	pr.values["mpi.wall.rtt_ns"] = float64(cl.Run().Nanoseconds()) / trips
}

// probeVirtual times the simulator itself: the wall cost of one simulated
// message on the virtual cluster, and of one process hand-off in the
// event loop underneath it.
func probeVirtual(pr *probeResults) {
	const trips = 10_000
	cl := mpi.NewVirtualCluster(mpi.VirtualConfig{Speeds: []float64{1, 1}, Network: mpi.DefaultNetwork()})
	zero, one := pingPong(trips)
	cl.Start(0, zero)
	cl.Start(1, one)
	t0 := time.Now()
	cl.Run()
	pr.values["mpi.virtual.msg_ns"] = float64(time.Since(t0).Nanoseconds()) / (2 * trips)

	const sleeps = 20_000
	sim := vtime.NewSim()
	for p := 0; p < 2; p++ {
		sim.Spawn(fmt.Sprintf("p%d", p), func(p *vtime.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	t0 = time.Now()
	sim.Run()
	pr.values["vtime.handoff_ns"] = float64(time.Since(t0).Nanoseconds()) / (2 * sleeps)
	sim.Close()
}

// probeNetRTT bounces a message between the coordinator's rank and a
// worker's rank over TCP loopback.
func probeNetRTT(pr *probeResults) error {
	const trips = 2_000
	nc, err := mpi.ListenNet(mpi.NetConfig{Listen: "127.0.0.1:0", LocalRanks: 1, WorkerRanks: []int{1}, Heartbeat: -1})
	if err != nil {
		return err
	}
	// The coordinator's rank must run even if the dial fails: Run is what
	// closes the listener.
	zero, one := pingPong(trips)
	w, err := mpi.DialWorker(nc.Addr(), "")
	if err != nil {
		nc.Start(0, func(mpi.Comm) {})
		nc.Run()
		return err
	}
	nc.Start(0, zero)
	w.Start(1, one)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run()
	}()
	el := nc.Run()
	<-done
	pr.values["mpi.net.rtt_us"] = float64(el.Microseconds()) / trips
	return nil
}
