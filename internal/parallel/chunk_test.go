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

// TestChunkShapeEquivalence is the chunk-shape table: 1, 2 and 16 clients
// × three domains × level 2 and 3 × the lockstep and the speculating root,
// on the wall pool and on the net pool, each against Reference.
func TestChunkShapeEquivalence(t *testing.T) {
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
	for _, clients := range []int{1, 2, 16} {
		cfg := PoolConfig{Slots: 1, Medians: 2, Clients: clients}
		wall, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetPool(cfg, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		wait := startNetWorkers(t, net.WorkerAddr(), 2)
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
				}
			}
		}
		// The layout decided the chunk shape, and nothing else did: whole
		// steps on one client, about one rollout per message on sixteen.
		m := wall.Metrics()
		mean := float64(m.Jobs) / float64(m.Chunks)
		if mean < 1 || mean >= lastMean || (clients == 16 && mean > 1.25) {
			t.Fatalf("%d clients: mean chunk of %.2f rollouts (after %.2f on fewer clients)", clients, mean, lastMean)
		}
		lastMean = mean
		wall.Shutdown()
		net.Shutdown()
		wait()
	}
}

// TestChaosKillClientsHoldingChunks kills the worker that hosts every
// client of a two-client pool — so each of the dead clients holds half a
// step's rollouts in one chunk — and requires the finished job identical
// to solo: every unscored item re-issued under its original key, the
// duplicates the replacement computes from the flushed frames shed, no
// drift in Jobs or WorkUnits.
func TestChaosKillClientsHoldingChunks(t *testing.T) {
	cfg := Config{Level: 2, Root: samegame.NewRandom(8, 8, 4, 7), Seed: 5, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 hosts the two medians, worker 1 the two clients.
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

// TestPoolAsyncCancelsChunksInFlight runs speculating jobs on a pool whose
// single client takes every step as one chunk, so the losing branches'
// games are aborted while their chunks are queued at or running on the
// client: the medians must drop the buffers those chunks alias, and the
// stale answers must be shed. Bit-identical to solo, with waste recorded.
func TestPoolAsyncCancelsChunksInFlight(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 3, Clients: 1})
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
		assertSameResult(t, name+": async on one client vs solo", res, solo)
		wasted += res.SpecWasted
	}
	if wasted == 0 {
		t.Fatal("no speculative branch lost: nothing was cancelled")
	}
}

// Ranks of the 1 slot × 1 median × 2 clients world the scripts run in:
// slot 0, scheduler 1, dispatcher 2, median 3, clients 4 and 5.
const (
	slot0          mpi.Rank = 0
	scriptedMedian mpi.Rank = 3
)

// scriptedPool is a wall cluster with a pool's rank layout in which the
// test plays every rank except those given a real body: a scripted rank
// forwards what it receives to its inbox, and the test sends in its name.
type scriptedPool struct {
	t     *testing.T
	w     *poolWorld
	cl    *mpi.WallCluster
	comm  []mpi.Comm
	inbox []chan mpi.Msg
}

func newScriptedPool(t *testing.T, cfg PoolConfig, real map[mpi.Rank]func(mpi.Comm, *poolWorld)) *scriptedPool {
	t.Helper()
	w := newPoolWorld(cfg.withDefaults())
	sp := &scriptedPool{t: t, w: w, cl: mpi.NewWallCluster(w.size()),
		comm: make([]mpi.Comm, w.size()), inbox: make([]chan mpi.Msg, w.size())}
	var ready sync.WaitGroup
	for r := mpi.Rank(0); int(r) < w.size(); r++ {
		if body, ok := real[r]; ok {
			sp.cl.Start(r, func(c mpi.Comm) { body(c, w) })
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
		for r := 0; r < w.size(); r++ {
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

// chunkFor hands the median a client (answering its pending request) and
// returns the chunk the median sends there.
func (sp *scriptedPool) chunkFor(median, client mpi.Rank) svcChunk {
	sp.t.Helper()
	sp.expect(sp.w.disp, tagRequest)
	sp.send(sp.w.disp, median, tagAssign, client)
	return sp.expect(client, tagJob).Payload.(svcChunk)
}

// answer is the well-formed result of a chunk under made-up scores: seq j
// scores j mod 3 and costs 10+j units, so a double-counted item shows.
func answer(ck svcChunk) svcChunkResult {
	var r svcChunkResult
	for i, seq := range ck.Seqs {
		r.Keys = append(r.Keys, resultKey(ck.P, ck.Par, ck.Keys[i]))
		r.Seqs = append(r.Seqs, seq)
		r.Scores = append(r.Scores, float64(seq%3))
		r.Units = append(r.Units, int64(10+seq))
	}
	return r
}

// TestMedianReissuesLostChunk pins the per-item loss handling: a client
// dies holding a three-rollout chunk, and the median re-issues exactly
// those items — same moves, same keys, same seqs — to the next client;
// the late answer of the dead client's replacement, forged items and
// malformed results are shed, and every rollout is counted once.
func TestMedianReissuesLostChunk(t *testing.T) {
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedMedian: func(c mpi.Comm, w *poolWorld) { runPoolMedian(c, w, func(time.Duration) {}) },
	})
	w, median := sp.w, scriptedMedian
	a, b := w.clients[0], w.clients[1]
	root := game.NewArmTree(5, 1, 7) // one step of five moves, then terminal
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 9, JobScale: 1, Root: 0}

	sp.expect(w.sched, tagWorkReq)
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 3, Cand: 1, Par: -1, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq) // the prefetch, sent at play start

	lost := sp.chunkFor(median, a) // ceil(5/2) = 3 rollouts
	rest := sp.chunkFor(median, b)
	legal := root.LegalMoves(nil)
	for i, ck := range []svcChunk{lost, rest} {
		lo := 3 * i
		if !slices.Equal(ck.Seqs, []int{0, 1, 2, 3, 4}[lo:lo+len(ck.Seqs)]) || !slices.Equal(ck.Moves, legal[lo:lo+len(ck.Seqs)]) {
			t.Fatalf("chunk %d: seqs %v moves %v", i, ck.Seqs, ck.Moves)
		}
		for k, seq := range ck.Seqs {
			if want := rng.Fold(3, 1, 0, uint64(seq)); ck.Keys[k] != want {
				t.Fatalf("chunk %d item %d: key %#x, want the coordinate key %#x", i, k, ck.Keys[k], want)
			}
		}
		if ck.P != p || ck.Par != -1 || ck.Base.MovesPlayed() != 0 {
			t.Fatalf("chunk %d: params %+v par %d base at %d moves", i, ck.P, ck.Par, ck.Base.MovesPlayed())
		}
	}
	if len(lost.Seqs) != 3 || len(rest.Seqs) != 2 {
		t.Fatalf("chunks of %d and %d rollouts, want 3 and 2", len(lost.Seqs), len(rest.Seqs))
	}

	// The worker hosting client a dies; the three items go out again.
	sp.cl.Inject(median, tagRanksLost, svcRanksLost{Lo: a, Hi: a + 1})
	again := sp.chunkFor(median, b)
	if !slices.Equal(again.Seqs, lost.Seqs) || !slices.Equal(again.Keys, lost.Keys) || !slices.Equal(again.Moves, lost.Moves) {
		t.Fatalf("re-issued chunk %+v differs from the lost one %+v", again, lost)
	}

	sp.send(b, median, tagResult, answer(again))
	// The original chunk was flushed to the dead client's replacement,
	// which answers it too: every item is a duplicate.
	sp.send(a, median, tagResult, answer(lost))
	// Malformed and forged results: ragged slices, an out-of-range, a
	// negative and a repeated seq, a key of another branch.
	sp.send(b, median, tagResult, svcChunkResult{Keys: []uint64{1}, Seqs: []int{3, 4}, Scores: []float64{9}, Units: []int64{1000}})
	sp.send(b, median, tagResult, svcChunkResult{
		Keys:   []uint64{rest.Keys[0], rest.Keys[0], resultKey(p, -1, again.Keys[0]), resultKey(p, 0, rest.Keys[0])},
		Seqs:   []int{99, -1, 0, 3},
		Scores: []float64{9, 9, 9, 9},
		Units:  []int64{1000, 1000, 1000, 1000},
	})
	sp.send(slot0, median, tagResult, answer(rest)) // not a client: forged
	sp.send(b, median, tagResult, answer(rest))

	sc := sp.expect(slot0, tagStepScore).Payload.(svcScore)
	if sc.Rollouts != 5 || sc.Units != 10+11+12+13+14 || sc.Chunks != 3 {
		t.Fatalf("score accounting %+v, want 5 rollouts, 60 units, 3 chunks", sc)
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
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedMedian: func(c mpi.Comm, w *poolWorld) { runPoolMedian(c, w, func(time.Duration) {}) },
	})
	w, median := sp.w, scriptedMedian
	a, b := w.clients[0], w.clients[1]
	root := game.NewArmTree(4, 1, 7)
	p := jobParams{Slot: 0, Epoch: 1, Level: 2, Seed: 9, JobScale: 1, Root: 0}

	sp.expect(w.sched, tagWorkReq)
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 1, Cand: 0, Par: 2, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq)
	held := sp.chunkFor(median, a)
	snapshot := svcChunk{Moves: slices.Clone(held.Moves), Keys: slices.Clone(held.Keys), Seqs: slices.Clone(held.Seqs)}
	sp.expect(w.disp, tagRequest) // for the other half; left unanswered

	// Branch 2 lost the argmax to branch 0. The dispatcher's answer to the
	// aborted game's request finds the median idle: the client must come
	// straight back (an empty job, which it answers with a free notice),
	// not wait reserved for a grant that may depend on it.
	sp.send(w.sched, median, tagSpecCancel, svcSpecCancel{Slot: 0, Epoch: 1, Step: 1, Keep: 0})
	sp.send(w.disp, median, tagAssign, b)
	if release := sp.expect(b, tagJob); release.Payload != nil {
		t.Fatalf("idle median kept its client busy with %+v", release.Payload)
	}
	sp.quiet(slot0) // the aborted game reported nothing

	// The winner's game at the same coordinates follows: same rng keys,
	// another identity.
	sp.send(w.sched, median, tagGrant, svcCandidate{Step: 1, Cand: 0, Par: 0, P: p, State: root.Clone()})
	sp.expect(w.sched, tagWorkReq)
	first := sp.chunkFor(median, b)
	second := sp.chunkFor(median, b)
	if !slices.Equal(first.Keys, held.Keys) || first.Par != 0 {
		t.Fatalf("winner's chunk %+v: want the loser's rng keys under par 0", first)
	}
	if !slices.Equal(held.Moves, snapshot.Moves) || !slices.Equal(held.Keys, snapshot.Keys) || !slices.Equal(held.Seqs, snapshot.Seqs) {
		t.Fatalf("held chunk rewritten to %+v", held)
	}
	for name, shared := range map[string]bool{
		"moves": &first.Moves[0] == &held.Moves[0],
		"keys":  &first.Keys[0] == &held.Keys[0],
		"seqs":  &first.Seqs[0] == &held.Seqs[0],
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
// refused with nothing but the availability notice the dispatcher needs,
// and a well-formed chunk is answered item by item with the score the
// sequential search gives under the item's key.
func TestClientAnswersChunks(t *testing.T) {
	sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 2}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
		scriptedMedian + 1: func(c mpi.Comm, w *poolWorld) { runPoolClient(c, w, nil, false, func(time.Duration) {}) },
	})
	w := sp.w
	median, client, other := w.medians[0], w.clients[0], w.clients[1]
	base := sudoku.New(2)
	legal := base.LegalMoves(nil)
	p := jobParams{Slot: 0, Epoch: 1, Level: 3, Seed: 9, Memorize: true, JobScale: 1, Root: 0}
	good := svcChunk{Par: -1, P: p, Base: base, Moves: legal[:2], Keys: []uint64{21, 22}, Seqs: []int{5, 6}}

	flat := good
	flat.P.Level = 1
	refused := map[string]struct {
		from    mpi.Rank
		payload any
	}{
		"wrong type":        {median, svcCandidate{}},
		"no base":           {median, svcChunk{P: p, Moves: legal[:1], Keys: []uint64{1}, Seqs: []int{0}}},
		"level below 2":     {median, flat},
		"keys short":        {median, svcChunk{P: p, Base: base, Moves: legal[:2], Keys: []uint64{1}, Seqs: []int{0, 1}}},
		"seqs long":         {median, svcChunk{P: p, Base: base, Moves: legal[:1], Keys: []uint64{1}, Seqs: []int{0, 1}}},
		"not from a median": {other, good},
	}
	for name, r := range refused {
		sp.send(r.from, client, tagJob, r.payload)
		if msg := sp.expect(w.disp, tagFree); msg.From != client {
			t.Fatalf("%s: free notice from %d", name, msg.From)
		}
	}

	sp.send(median, client, tagJob, good)
	sp.expect(w.disp, tagFree)
	res := sp.expect(median, tagResult).Payload.(svcChunkResult)
	sp.quiet(median) // the refused chunks were never answered
	sp.quiet(other)
	if !slices.Equal(res.Seqs, good.Seqs) || len(res.Keys) != 2 || len(res.Scores) != 2 || len(res.Units) != 2 {
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
