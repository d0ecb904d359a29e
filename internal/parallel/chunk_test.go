package parallel

// Tests of the pool's chunked median↔client exchange (svcChunk /
// svcChunkResult). Two layers:
//
//   - an equivalence table over chunk shapes: the pool layout alone decides
//     how a step's rollouts are packed (one client: a step per message; two:
//     halves; sixteen: one rollout per message, the paper's protocol), and
//     every shape must return exactly what Reference returns;
//   - scripted protocol tests: a wall cluster laid out like a pool in which
//     the test plays every rank but the one under test, so the moments the
//     chaos suite can only hit by chance — a client lost while it holds a
//     multi-rollout chunk, a speculative branch cancelled with a chunk in
//     flight, forged and duplicated items — are produced deterministically.
//
// All of it rides the race job: clients read the median's step position
// and buffers while the median blocks.

import (
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// lateGame returns the position `left` moves before the end of a seeded
// level-1 game from root: the real domain at a depth where level-2 and
// level-3 games of several steps finish in test time.
func lateGame(root game.State, left int, seed uint64) game.State {
	line := core.NewSearcher(rng.New(seed), core.DefaultOptions()).Nested(root.Clone(), 1).Sequence
	st := root.Clone()
	for _, m := range line[:max(0, len(line)-left)] {
		st.Play(m)
	}
	return st
}

// TestChunkShapeEquivalence is the chunk-shape table: 2 medians with 1, 2,
// 4 and 16 clients × three domains × level 2 and 3 × the lockstep and the
// speculating root, on the wall pool and on the net pool, each against
// Reference. With 1 and 2 clients no process hosts more clients than
// medians, so the medians play their steps themselves and send no chunk;
// with 4 and 16 the layout alone decides the chunk size.
func TestChunkShapeEquivalence(t *testing.T) {
	noGoroutineLeak(t)
	type job struct {
		name string
		cfg  Config
	}
	var jobs []job
	for _, d := range []struct {
		name string
		root game.State
		left [2]int // moves left at level 2, level 3
	}{
		{"sudoku3", sudoku.New(3), [2]int{55, 22}},
		{"morpion4D", morpion.New(morpion.Var4D), [2]int{12, 6}},
		{"samegame", samegame.NewRandom(8, 8, 4, 7), [2]int{12, 8}},
	} {
		for i, level := range []int{2, 3} {
			jobs = append(jobs, job{
				name: d.name + "/level" + strconv.Itoa(level),
				cfg:  Config{Level: level, Root: lateGame(d.root, d.left[i], 3), Seed: 17, Memorize: true},
			})
		}
	}
	solo := make([]Result, len(jobs))
	for i, j := range jobs {
		var err error
		if solo[i], err = Reference(j.cfg); err != nil {
			t.Fatal(err)
		}
		if solo[i].Steps < 2 || solo[i].Jobs == 0 {
			t.Fatalf("%s: degenerate oracle (%d steps, %d rollouts)", j.name, solo[i].Steps, solo[i].Jobs)
		}
	}

	lastMean := math.Inf(1)
	for _, clients := range []int{1, 2, 4, 16} {
		cfg := PoolConfig{Slots: 1, Medians: 2, Clients: clients}
		wall, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every net worker hosts a median and a client: one worker for the
		// one client.
		workers := min(2, clients)
		net, err := NewNetPool(cfg, NetPoolConfig{Listen: "127.0.0.1:0", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		wait := startNetWorkers(t, net.WorkerAddr(), workers)
		wasted := map[string]int64{}
		for i, j := range jobs {
			for _, speculate := range []int{0, 2} {
				c := j.cfg
				c.Speculate = speculate
				for name, pool := range map[string]*Pool{"wall": wall, "net": net} {
					res, err := pool.RunJob(0, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, name+" pool, "+j.name+" vs solo", res, solo[i])
					if speculate > 0 && res.Speculated == 0 {
						t.Fatalf("%s pool, %s: Speculate=%d job never speculated", name, j.name, speculate)
					}
					wasted[name] += res.SpecWasted
				}
			}
		}
		t.Logf("%d clients: speculating rows wasted %d candidates on the wall pool, %d on the net pool",
			clients, wasted["wall"], wasted["net"])
		// The layout decided the chunk shape, and nothing else did: no
		// chunk where the medians play inline, about one rollout per
		// message on sixteen clients.
		m := wall.Metrics()
		if clients <= 2 {
			if nm := net.Metrics(); m.Chunks != 0 || nm.Chunks != 0 {
				t.Fatalf("%d clients for 2 medians: %d chunks on the wall pool, %d on the net pool", clients, m.Chunks, nm.Chunks)
			}
		} else {
			mean := float64(m.Jobs) / float64(m.Chunks)
			if mean < 1 || mean >= lastMean || (clients == 16 && mean > 1.25) {
				t.Fatalf("%d clients: mean chunk of %.2f rollouts (after %.2f on fewer clients)", clients, mean, lastMean)
			}
			lastMean = mean
		}
		wall.Shutdown()
		net.Shutdown()
		wait()
	}
}

// TestChaosKillClientsHoldingChunks kills worker 1 of a two-worker pool
// (ranks c c m | c c m) mid-job: a median dies together with the two
// clients holding its chunks, each carrying half a step's rollouts. The
// scheduler re-grants the median's candidate, and the finished job must be
// identical to solo, with no drift in Jobs or WorkUnits.
func TestChaosKillClientsHoldingChunks(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: samegame.NewRandom(8, 8, 4, 7), Seed: 5, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 2, Clients: 4},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each worker hosts a median and the two clients it dispatches (c c m).
	workers := []*chaosWorker{
		startChaosWorker(t, pool.WorkerAddr()),
		startChaosWorker(t, pool.WorkerAddr()),
	}
	var once sync.Once
	res, err := pool.RunJob(0, cfg, func(p Progress) {
		if p.Steps == 1 {
			once.Do(func() {
				workers[1].proxy.Sever()
				startReplacementWorker(t, pool.WorkerAddr())
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "clients killed holding chunks vs solo", res, solo)
	m := pool.Metrics()
	if m.WorkersLost < 1 || m.WorkersRejoined < 1 {
		t.Fatalf("churn not recorded: %+v", m)
	}
	if m.Chunks >= m.Jobs {
		t.Fatalf("%d chunks for %d rollouts: the dead clients held single rollouts", m.Chunks, m.Jobs)
	}
	pool.Shutdown()
	for _, w := range workers {
		w.proxy.Close()
		<-w.done
	}
}

// TestPoolAsyncCancelsChunksInFlight runs speculating jobs on a pool of
// two medians and three clients, so the medians ship every step in chunks
// and the losing branches' games are aborted while their chunks run on
// the clients: the medians must drop the buffers those chunks alias, and
// the stale answers must be shed. Bit-identical to solo, with waste and
// chunks recorded.
func TestPoolAsyncCancelsChunksInFlight(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	wasted := int64(0)
	for name, cfg := range asyncCfgs() {
		solo, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Speculate = 2
		res, err := pool.RunJob(0, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, name+": async on chunking medians vs solo", res, solo)
		wasted += res.SpecWasted
	}
	if wasted == 0 {
		t.Fatal("no speculative branch lost: nothing was cancelled")
	}
	if pool.Metrics().Chunks == 0 {
		t.Fatal("no chunk sent: nothing was in flight to cancel")
	}
}

// Ranks of the 1 slot × 1 median × 2 clients world the scripts run in:
// slot 0, scheduler 1, then the two clients and the median in
// newPoolWorld's interleaved order (c c m).
const slot0 mpi.Rank = 0

var (
	scriptedWorld  = newPoolWorld(PoolConfig{Slots: 1, Medians: 1, Clients: 2}, 1)
	scriptedMedian = scriptedWorld.medians[0]
	scriptedClient = scriptedWorld.clients[0]
)

// scriptedPool is a wall cluster with a pool's (or a per-run) rank layout
// in which the test plays every rank except those given a real body: a
// scripted rank forwards what it receives to its inbox, and the test
// sends in its name.
type scriptedPool struct {
	t     *testing.T
	w     *poolWorld // nil for a per-run layout
	cl    *mpi.WallCluster
	comm  []mpi.Comm
	inbox []chan mpi.Msg
}

// newScriptedPool lays out an in-process pool of cfg, its clientList
// included, and runs the real bodies given.
func newScriptedPool(t *testing.T, cfg PoolConfig, real map[mpi.Rank]func(mpi.Comm, *poolWorld)) *scriptedPool {
	t.Helper()
	w := newPoolWorld(cfg.withDefaults(), 1)
	w.list = newClientList(w, w.firstWorker(), mpi.Rank(w.size()))
	bodies := make(map[mpi.Rank]func(mpi.Comm), len(real))
	for r, body := range real {
		bodies[r] = func(c mpi.Comm) { body(c, w) }
	}
	sp := newScripted(t, w.size(), bodies)
	sp.w = w
	return sp
}

// newScripted starts a world of size ranks that runs the real bodies
// given and scripts every other rank.
func newScripted(t *testing.T, size int, real map[mpi.Rank]func(mpi.Comm)) *scriptedPool {
	t.Helper()
	sp := &scriptedPool{t: t, cl: mpi.NewWallCluster(size),
		comm: make([]mpi.Comm, size), inbox: make([]chan mpi.Msg, size)}
	var ready sync.WaitGroup
	for r := mpi.Rank(0); int(r) < size; r++ {
		if body, ok := real[r]; ok {
			sp.cl.Start(r, body)
			continue
		}
		// Sized to hold a whole script: a scripted rank never blocks on the test.
		sp.inbox[r] = make(chan mpi.Msg, 64)
		ready.Add(1)
		sp.cl.Start(r, func(c mpi.Comm) {
			sp.comm[c.Rank()] = c
			ready.Done()
			for {
				msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
				if msg.Tag == tagShutdown {
					return
				}
				sp.inbox[c.Rank()] <- msg
			}
		})
	}
	done := make(chan struct{})
	go func() {
		sp.cl.Run()
		close(done)
	}()
	ready.Wait()
	t.Cleanup(func() {
		for r := 0; r < size; r++ {
			sp.cl.Inject(mpi.Rank(r), tagShutdown, nil)
		}
		<-done
	})
	return sp
}

// send sends in the name of a scripted rank (a wall Comm's Send only
// touches the receiver's mailbox, so the test goroutine may call it).
func (sp *scriptedPool) send(from, to mpi.Rank, tag mpi.Tag, payload any) {
	sp.comm[from].Send(to, tag, payload)
}

// expect returns the next message a scripted rank received, which must
// carry tag.
func (sp *scriptedPool) expect(rank mpi.Rank, tag mpi.Tag) mpi.Msg {
	sp.t.Helper()
	select {
	case msg := <-sp.inbox[rank]:
		if msg.Tag != tag {
			sp.t.Fatalf("rank %d received tag %d from %d, want tag %d", rank, msg.Tag, msg.From, tag)
		}
		return msg
	case <-time.After(10 * time.Second):
		sp.t.Fatalf("rank %d: no message with tag %d", rank, tag)
		panic("unreachable")
	}
}

// quiet asserts a scripted rank has nothing waiting once the rank under
// test has provably moved on (the caller sequences that).
func (sp *scriptedPool) quiet(rank mpi.Rank) {
	sp.t.Helper()
	select {
	case msg := <-sp.inbox[rank]:
		sp.t.Fatalf("rank %d received unexpected tag %d from %d: %+v", rank, msg.Tag, msg.From, msg.Payload)
	default:
	}
}

// listState snapshots whether client is free on the list and how many
// medians wait there for a client.
func (l *clientList) listState(client mpi.Rank) (free bool, waiting int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Contains(l.free, client), len(l.waiting)
}

// until polls cond, failing the test if it does not hold within 10s.
func (sp *scriptedPool) until(what string, cond func() bool) {
	sp.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			sp.t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answer is the well-formed result of a chunk under made-up scores: seq j
// scores j mod 3 and costs 10+j units, so a double-counted item shows.
func answer(ck svcChunk) svcChunkResult {
	r := svcChunkResult{First: ck.First}
	for i := range ck.Keys {
		seq := ck.First + i
		r.Keys = append(r.Keys, resultKey(ck.P, ck.Par, ck.Keys[i]))
		r.Scores = append(r.Scores, float64(seq%3))
		r.Units = append(r.Units, int64(10+seq))
	}
	return r
}

// TestMedianShedsStaleResults pins the median's per-item result guard: a
// step of five rollouts goes out as a three-rollout and a two-rollout
// chunk to the two clients of the median's process, each item under its
// coordinate key; a duplicated answer, an answer of the slot's previous
// job at the same coordinates, forged items and malformed results are
// shed, and every rollout is counted once.
func TestMedianShedsStaleResults(t *testing.T) {
	noGoroutineLeak(t)
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedMedian: func(c mpi.Comm, w *poolWorld) { runPoolMedian(c, w, nil, false, func(time.Duration) {}) },
	})
	w, median := sp.w, scriptedMedian
	a, b := w.clients[0], w.clients[1]
	root := game.NewArmTree(5, 1, 7) // one step of five moves, then terminal
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 9, JobScale: 1, Root: 0}

	sp.expect(w.sched, tagWorkReq)
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 3, Cand: 1, Par: -1, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq) // the prefetch, sent at play start

	// Both clients are free: the median takes them off the list in order,
	// with no message, and sends the first ceil(5/2) = 3 rollouts.
	first := sp.expect(a, tagJob).Payload.(svcChunk)
	rest := sp.expect(b, tagJob).Payload.(svcChunk)
	legal := root.LegalMoves(nil)
	for i, ck := range []svcChunk{first, rest} {
		lo := 3 * i
		if ck.First != lo || !slices.Equal(ck.Moves, legal[lo:lo+len(ck.Moves)]) {
			t.Fatalf("chunk %d: first %d moves %v", i, ck.First, ck.Moves)
		}
		for k := range ck.Keys {
			if want := rng.Fold(3, 1, 0, uint64(lo+k)); ck.Keys[k] != want {
				t.Fatalf("chunk %d item %d: key %#x, want the coordinate key %#x", i, k, ck.Keys[k], want)
			}
		}
		if ck.P != p || ck.Par != -1 || ck.Base.MovesPlayed() != 0 {
			t.Fatalf("chunk %d: params %+v par %d base at %d moves", i, ck.P, ck.Par, ck.Base.MovesPlayed())
		}
	}
	if len(first.Moves) != 3 || len(rest.Moves) != 2 || len(first.Keys) != 3 || len(rest.Keys) != 2 {
		t.Fatalf("chunks of %d and %d rollouts, want 3 and 2", len(first.Moves), len(rest.Moves))
	}

	sp.send(a, median, tagResult, answer(first))
	// The same answer again: every item is a duplicate.
	sp.send(a, median, tagResult, answer(first))
	// The slot's previous job at the same coordinates: same rng keys,
	// another identity.
	stale := answer(rest)
	prev := p
	prev.Epoch = 0
	for i := range stale.Keys {
		stale.Keys[i] = resultKey(prev, -1, rest.Keys[i])
	}
	sp.send(b, median, tagResult, stale)
	// Malformed and forged results: ragged slices, an out-of-range, a
	// negative and a repeated seq, a key of another branch.
	sp.send(b, median, tagResult, svcChunkResult{First: 3, Keys: []uint64{1, 2}, Scores: []float64{9}, Units: []int64{1000, 1000}})
	for _, forged := range []struct {
		first int
		key   uint64
	}{{99, rest.Keys[0]}, {-1, rest.Keys[0]}, {0, resultKey(p, -1, first.Keys[0])}, {3, resultKey(p, 0, rest.Keys[0])}} {
		sp.send(b, median, tagResult, svcChunkResult{First: forged.first, Keys: []uint64{forged.key}, Scores: []float64{9}, Units: []int64{1000}})
	}
	sp.send(slot0, median, tagResult, answer(rest)) // not a client: forged
	sp.send(b, median, tagResult, answer(rest))

	sc := sp.expect(slot0, tagStepScore).Payload.(svcScore)
	if sc.Rollouts != 5 || sc.Units != 10+11+12+13+14 || sc.Chunks != 2 {
		t.Fatalf("score accounting %+v, want 5 rollouts, 60 units, 2 chunks", sc)
	}
	// argmax of the made-up scores (seq mod 3) is seq 2.
	won := root.Clone()
	won.Play(legal[2])
	if sc.Score != won.Score() || sc.Step != 3 || sc.Cand != 1 || sc.Par != -1 || sc.Epoch != 1 {
		t.Fatalf("score %+v, want the game that played move 2 (%v)", sc, won.Score())
	}
}

// TestMedianAbortDropsChunkBuffers cancels a speculative branch while a
// client holds one of its chunks: the median must not score the game, must
// hand back the client its pending request still earns it, and the next
// game must not write into the buffers the held chunk aliases — the client
// may still be reading them. The aborted game's late answer, under the
// same rng keys but another branch, is shed by the identity echo.
func TestMedianAbortDropsChunkBuffers(t *testing.T) {
	noGoroutineLeak(t)
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedMedian: func(c mpi.Comm, w *poolWorld) { runPoolMedian(c, w, nil, false, func(time.Duration) {}) },
	})
	w, median := sp.w, scriptedMedian
	a, b := w.clients[0], w.clients[1]
	root := game.NewArmTree(4, 1, 7)
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 9, JobScale: 1, Root: 0}

	// b is busy with another chunk: the list hands the median a, then
	// keeps it waiting for the other half of the step.
	for _, want := range []mpi.Rank{a, b} {
		if got, ok := w.list.take(median, 0); !ok || got != want {
			t.Fatalf("list handed out %d (%v), want %d", got, ok, want)
		}
	}
	w.list.release(sp.comm[a], a)

	sp.expect(w.sched, tagWorkReq)
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 1, Cand: 0, Par: 2, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq)
	held := sp.expect(a, tagJob).Payload.(svcChunk)
	snapshot := svcChunk{Moves: slices.Clone(held.Moves), Keys: slices.Clone(held.Keys), First: held.First}
	sp.until("the median to wait for a client", func() bool { _, n := w.list.listState(b); return n == 1 })

	// Branch 2 lost the argmax to branch 0. b, freed, answers the aborted
	// game's request and finds the median idle: the median must put it
	// straight back on the list, not keep it reserved for a grant that may
	// depend on it.
	sp.send(w.sched, median, tagSpecCancel, svcSpecCancel{Slot: 0, Epoch: 1, Step: 1, Keep: 0})
	w.list.release(sp.comm[b], b)
	sp.until("the idle median to hand its client back", func() bool { free, _ := w.list.listState(b); return free })
	sp.quiet(slot0) // the aborted game reported nothing

	// The winner's game at the same coordinates follows: same rng keys,
	// another identity. a still holds the aborted chunk, so both halves
	// go to b.
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 1, Cand: 0, Par: 0, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq)
	first := sp.expect(b, tagJob).Payload.(svcChunk)
	w.list.release(sp.comm[b], b)
	second := sp.expect(b, tagJob).Payload.(svcChunk)
	if !slices.Equal(first.Keys, held.Keys) || first.Par != 0 {
		t.Fatalf("winner's chunk %+v: want the loser's rng keys under par 0", first)
	}
	if !slices.Equal(held.Moves, snapshot.Moves) || !slices.Equal(held.Keys, snapshot.Keys) || held.First != snapshot.First {
		t.Fatalf("held chunk rewritten to %+v", held)
	}
	for name, shared := range map[string]bool{
		"moves": &first.Moves[0] == &held.Moves[0],
		"keys":  &first.Keys[0] == &held.Keys[0],
	} {
		if shared {
			t.Fatalf("the new game's chunk reuses the %s buffer a client still holds", name)
		}
	}

	sp.send(a, median, tagResult, answer(held)) // the aborted game comes home
	sp.send(b, median, tagResult, answer(first))
	sp.send(b, median, tagResult, answer(second))
	sc := sp.expect(slot0, tagStepScore).Payload.(svcScore)
	if sc.Par != 0 || sc.Rollouts != 4 || sc.Units != 10+11+12+13 || sc.Chunks != 2 {
		t.Fatalf("score %+v, want the winner's game: 4 rollouts, 46 units, 2 chunks", sc)
	}
}

// TestClientAnswersChunks drives a real client rank: degenerate chunks are
// refused without an answer, and a well-formed chunk is answered item by
// item with the score the sequential search gives under the item's key,
// with the client back on its process's list by the time the answer
// arrives.
func TestClientAnswersChunks(t *testing.T) {
	noGoroutineLeak(t)
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedClient: func(c mpi.Comm, w *poolWorld) { runPoolClient(c, w, nil, false, func(time.Duration) {}) },
	})
	w := sp.w
	median, client, other := w.medians[0], w.clients[0], w.clients[1]
	base := sudoku.New(2)
	legal := base.LegalMoves(nil)
	p := jobParams{Slot: 0, Epoch: 1, Level: 3, Seed: 9, Memorize: true, JobScale: 1, Root: 0}
	good := svcChunk{Par: -1, P: p, Base: base, Moves: legal[:2], Keys: []uint64{21, 22}, First: 5}

	// The median takes the client off the list, as it does for a chunk.
	if got, ok := w.list.take(median, 0); !ok || got != client {
		t.Fatalf("list handed out %d (%v), want %d", got, ok, client)
	}
	flat := good
	flat.P.Level = 1
	refused := map[string]struct {
		from    mpi.Rank
		payload any
	}{
		"wrong type":        {median, svcCandidate{}},
		"no base":           {median, svcChunk{P: p, Moves: legal[:1], Keys: []uint64{1}}},
		"level below 2":     {median, flat},
		"keys short":        {median, svcChunk{P: p, Base: base, Moves: legal[:2], Keys: []uint64{1}}},
		"not from a median": {other, good},
	}
	for _, r := range refused {
		sp.send(r.from, client, tagJob, r.payload)
	}

	sp.send(median, client, tagJob, good)
	res := sp.expect(median, tagResult).Payload.(svcChunkResult)
	if free, _ := w.list.listState(client); !free {
		t.Fatal("the client answered before putting itself back on the list")
	}
	sp.quiet(median) // the refused chunks were never answered
	sp.quiet(other)
	if res.First != good.First || len(res.Keys) != 2 || len(res.Scores) != 2 || len(res.Units) != 2 {
		t.Fatalf("result %+v", res)
	}
	if base.MovesPlayed() != 0 {
		t.Fatal("the client played on the median's position")
	}
	for i, mv := range good.Moves {
		meter := &unitMeter{}
		s := core.NewSearcher(rng.New(0), core.Options{Meter: meter, Memorize: true})
		s.Reseed(p.Seed, good.Keys[i])
		st := base.Clone()
		st.Play(mv)
		want := s.Nested(st, 1)
		if res.Scores[i] != want.Score || res.Units[i] != meter.units || res.Keys[i] != resultKey(p, -1, good.Keys[i]) {
			t.Fatalf("item %d: score %v units %d key %#x, want %v, %d, %#x", i,
				res.Scores[i], res.Units[i], res.Keys[i], want.Score, meter.units, resultKey(p, -1, good.Keys[i]))
		}
	}
}
