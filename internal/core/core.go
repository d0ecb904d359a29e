// Package core implements sequential Nested Monte-Carlo Search (NMCS), the
// algorithm parallelized by the paper.
//
// The two functions of the paper's §III are provided:
//
//   - Sample: play uniformly random moves to the end of the game and return
//     the score (the paper's "sample" function).
//   - Searcher.Nested: the "nested" function. A level-ℓ search plays a game
//     choosing, at every step, the move whose level-(ℓ−1) evaluation scored
//     highest, while memorizing the best terminal sequence seen so far and
//     following it when no lower-level search improves on it (pseudocode
//     lines 7–10). Level 0 is a plain random sample.
//
// Level numbering: this package calls a plain random playout "level 0", so
// the paper's "level 1 rollout" (argmax over samples) is Nested(st, 1),
// matching the paper's numbering exactly.
//
// The argmax loop (paper lines 3–6) dominates the run time, so its
// traversal is allocation-free where the domain allows it: when the
// searched position implements game.Undoer, every candidate move is
// evaluated by playing it on the single mutable state, recursing, and
// rewinding with Undo back to the step position — no clone, no allocation.
// Domains without Undo take the historical clone-per-candidate path, which
// itself recycles scratch states through a free list when the domain
// implements game.Copier. Both traversals consume the random stream
// identically, so for a fixed seed they return bit-identical Results
// (Options.NoUndo forces the clone path; the equivalence tests pin this).
//
// The search is instrumented through the Meter interface: every simulated
// move, every undo and every position clone reports work units. The
// virtual-time cluster transport uses those units to charge simulated CPU
// time, which is how the repository regenerates the paper's wall-clock
// tables on arbitrary simulated cluster topologies (see internal/mpi and
// internal/harness).
package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/rng"
)

// Meter receives work-accounting callbacks from the search. Implementations
// must be cheap; the search calls Add once per game step and per clone.
type Meter interface {
	// Add reports n abstract work units. One simulated move costs one unit;
	// a position clone costs CloneCost units.
	Add(n int64)
}

// CloneCost is the metered cost of one position clone, in units of one
// simulated move. Cloning a Morpion position costs roughly as much as a
// handful of incremental moves; the exact constant only shifts absolute
// times, not speedup shapes.
const CloneCost = 4

// UndoCost is the metered cost of one Undo on the allocation-free
// traversal. Reverting a move is the same incremental bookkeeping as
// playing one, so it is charged like a move, not like a clone.
const UndoCost = 1

// nopMeter is used when the caller does not need work accounting.
type nopMeter struct{}

func (nopMeter) Add(int64) {}

// Result is the outcome of a search from some position: the terminal score
// reached and the move sequence leading there from the searched position.
type Result struct {
	Score    float64
	Sequence []game.Move
}

// Stats are cumulative instrumentation counters of a Searcher.
type Stats struct {
	Playouts int64 // number of random playouts run
	Steps    int64 // moves played inside simulations (incl. argmax play)
	Clones   int64 // position clones (zero on the undo traversal)
	Undos    int64 // moves reverted by the undo traversal

	// CacheHits/CacheMisses count transposition-cache lookups at the
	// level≥1 sub-search boundaries (zero unless a cache is attached).
	CacheHits   int64
	CacheMisses int64
}

// Options configure a Searcher.
type Options struct {
	// Meter receives work units; nil disables accounting.
	Meter Meter
	// Memorize enables the best-sequence memory of the paper's nested
	// rollout (lines 7–10 of the pseudocode). Disabling it yields the
	// older "reflexive" behaviour (Cazenave 2007) where the argmax move is
	// always played even when it scores worse than a previously found
	// sequence. Used as an ablation.
	Memorize bool
	// Stop, when non-nil, is polled during the search; once it returns
	// true the search stops branching and completes the current game with
	// cheap random playouts so that a full sequence is still returned.
	Stop func() bool
	// NoUndo forces the clone-per-candidate traversal even when the domain
	// implements game.Undoer. Used by ablations, benchmarks and the
	// equivalence tests that pin undo-vs-clone determinism; leave it false
	// to let the searcher take the allocation-free fast path.
	NoUndo bool
	// Evaluator, when non-nil, guides the level-0 playouts: each playout
	// step samples the next move proportionally to the evaluator's weights
	// instead of uniformly. Nil keeps the paper's uniform playout
	// bit-identically (the uniform path draws from the random stream
	// exactly as before). See game.Evaluator for the purity contract.
	Evaluator game.Evaluator

	// Cache, when non-nil, enables the transposition cache: every level≥1
	// sub-search boundary looks its position up before recursing and
	// inserts the result on return. Caching requires the searched domain
	// to implement game.Hasher (silently disabled otherwise) and switches
	// the searcher into DERIVED mode: every sub-search draws from a random
	// stream re-derived from (CacheScope, position hash, level), and
	// level-0 move selection and argmax tie-breaks become independent of
	// legal-move-list order. Derived mode makes every cached result a pure
	// function of its key — so a hit returns exactly what recomputation
	// would, regardless of which job or worker populated the entry — but
	// it is NOT bit-identical to the cache-off search; leave Cache nil for
	// the paper's exact behaviour. Cache is shared across searchers and
	// safe for concurrent use.
	Cache *cache.Cache
	// CacheScope is folded into every cache key; build it with cache.Scope
	// so results computed under different evaluators or options never
	// alias. The zero scope is valid (uniform playouts, default options).
	CacheScope uint64
	// CacheVerify recomputes every cache hit from scratch and panics if
	// the cached score or sequence differs — the correctness mode that
	// pins derived-mode purity. It costs a full recomputation per hit, so
	// it is for tests and debugging, never production.
	CacheVerify bool
}

// DefaultOptions returns the configuration matching the paper: best-sequence
// memorization on, no cancellation, no metering.
func DefaultOptions() Options {
	return Options{Memorize: true}
}

// Searcher runs nested Monte-Carlo searches. It owns per-level scratch
// buffers, so it is not safe for concurrent use: create one Searcher per
// goroutine (the parallel layer creates one per simulated process).
type Searcher struct {
	rng   *rng.Rand
	opt   Options
	meter Meter
	stats Stats

	movebuf []game.Move // shared scratch for move lists at sample level
	seqbuf  []game.Move // Score's discarded move sequence
	levels  []levelBuf  // per-recursion-level scratch

	// eval guides level-0 playouts (see Options.Evaluator); wbuf is its
	// reusable weight scratch. eval starts as Options.Evaluator and can be
	// swapped per job with SetEvaluator on long-lived worker searchers.
	eval game.Evaluator
	wbuf []float64

	// undo is non-nil while the current top-level search traverses with
	// Play/Undo on the single mutable root state (capability-checked once
	// in search). When nil, the clone-per-candidate fallback runs.
	undo game.Undoer

	// Transposition cache (see Options.Cache). derived is true while the
	// current top-level search runs in derived mode: cache non-nil and the
	// searched domain implements game.Hasher.
	cache       *cache.Cache
	cacheScope  uint64
	cacheVerify bool
	derived     bool

	// scratch is the free list of the clone fallback: released candidate
	// states of game.Copier domains, recycled via CopyFrom so the fallback
	// stops allocating after warmup.
	scratch StatePool
}

type levelBuf struct {
	moves   []game.Move // candidate move list
	scratch []game.Move // suffix of the candidate being evaluated
	best    []game.Move // memorized best sequence; best[next:] is not yet replayed
	next    int
}

// NewSearcher returns a Searcher drawing randomness from r.
func NewSearcher(r *rng.Rand, opt Options) *Searcher {
	if r == nil {
		panic("core: NewSearcher needs a random source")
	}
	m := opt.Meter
	if m == nil {
		m = nopMeter{}
	}
	return &Searcher{
		rng: r, opt: opt, meter: m, eval: opt.Evaluator,
		cache: opt.Cache, cacheScope: opt.CacheScope, cacheVerify: opt.CacheVerify,
	}
}

// SetEvaluator swaps the playout evaluator (nil restores the paper's
// uniform playout). Long-lived worker searchers serve jobs with differing
// evaluator configurations; swapping between jobs is what keeps a job's
// result independent of the worker that runs it.
func (s *Searcher) SetEvaluator(e game.Evaluator) { s.eval = e }

// SetCache attaches (c non-nil) or detaches (c nil) a shared transposition
// cache, like Options.Cache but swappable per job on long-lived worker
// searchers. scope and verify mirror Options.CacheScope/CacheVerify.
func (s *Searcher) SetCache(c *cache.Cache, scope uint64, verify bool) {
	s.cache, s.cacheScope, s.cacheVerify = c, scope, verify
}

// Stats returns the cumulative instrumentation counters.
func (s *Searcher) Stats() Stats { return s.stats }

// Reseed resets the searcher's random source to the stream-th independent
// stream of the family identified by seed (see rng.SeedStream). Persistent
// workers that serve one rollout per logical job reseed before every job,
// which is what makes a job's result independent of the worker that runs
// it and of whatever ran on that worker before.
func (s *Searcher) Reseed(seed, stream uint64) { s.rng.SeedStream(seed, stream) }

// Sample plays uniformly random moves on st until the game ends and returns
// the terminal score and the moves played. st is mutated to the terminal
// position. This is the paper's "sample" function.
func (s *Searcher) Sample(st game.State) Result {
	var seq []game.Move
	score := s.sample(st, &seq)
	return Result{Score: score, Sequence: seq}
}

func (s *Searcher) sample(st game.State, seq *[]game.Move) float64 {
	s.stats.Playouts++
	steps := int64(0)
	for {
		s.movebuf = st.LegalMoves(s.movebuf[:0])
		if len(s.movebuf) == 0 {
			break
		}
		var m game.Move
		switch {
		case s.eval != nil:
			m = s.movebuf[s.pickWeighted(st)]
		case s.derived:
			m = s.movebuf[s.pickDerived()]
		default:
			m = s.movebuf[s.rng.Intn(len(s.movebuf))]
		}
		st.Play(m)
		*seq = append(*seq, m)
		steps++
	}
	s.stats.Steps += steps
	s.meter.Add(steps)
	return st.Score()
}

// pickWeighted returns the index of the next playout move in s.movebuf,
// sampled proportionally to the evaluator's weights. Degenerate weight
// vectors (zero or negative total, NaN/Inf) fall back to a uniform draw so
// an evaluator with "no opinion" — or a buggy one — can never wedge a
// playout; both branches consume exactly one draw from the stream.
func (s *Searcher) pickWeighted(st game.State) int {
	s.wbuf = s.eval.Evaluate(game.EvalRequest{State: st, Moves: s.movebuf}, s.wbuf[:0])
	total := 0.0
	for _, w := range s.wbuf {
		total += w
	}
	if len(s.wbuf) != len(s.movebuf) || !(total > 0) || math.IsInf(total, 1) {
		if s.derived {
			return s.pickDerived()
		}
		return s.rng.Intn(len(s.movebuf))
	}
	if s.derived {
		return s.pickWeightedDerived()
	}
	x := s.rng.Float64() * total
	for i, w := range s.wbuf {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(s.movebuf) - 1 // rounding spill lands on the last move
}

// pickDerived returns the index of a uniformly distributed move from
// s.movebuf, chosen independently of the LIST ORDER of the moves: one
// stream draw keys every move VALUE and the largest key wins. Derived mode
// needs order independence because position hashes cover content, not the
// history-dependent legal-move-list order (Morpion's list order differs
// across transpositions of equal content) — with it, the whole sub-search
// is a pure function of (scope, position content, level).
func (s *Searcher) pickDerived() int {
	z := s.rng.Uint64()
	best, bestKey := 0, uint64(0)
	for i, m := range s.movebuf {
		if k := rng.Mix(z, uint64(m)); k > bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// pickWeightedDerived is pickDerived's weighted counterpart: the
// exponential-race (Gumbel-max) construction — the move maximizing
// log(u)/w for a per-move-value uniform u — samples exactly
// proportionally to the weights while staying order-independent.
// Non-positive weights are unreachable, as in the prefix-walk branch.
func (s *Searcher) pickWeightedDerived() int {
	z := s.rng.Uint64()
	best, bestKey := -1, math.Inf(-1)
	for i, m := range s.movebuf {
		w := s.wbuf[i]
		if !(w > 0) {
			continue
		}
		u := (float64(rng.Mix(z, uint64(m))>>11) + 0.5) / (1 << 53)
		if k := math.Log(u) / w; best < 0 || k > bestKey {
			best, bestKey = i, k
		}
	}
	if best < 0 {
		return s.pickDerived() // unreachable: caller checked total > 0
	}
	return best
}

// Nested runs a level-`level` nested search from st and returns the best
// terminal score found and the move sequence reaching it from st. st itself
// is left at the terminal position of the played game. Level 0 is Sample.
//
// This is the paper's "nested" function; the argmax over moves evaluates
// each move with a level-(level−1) search. When st implements game.Undoer
// (and Options.NoUndo is unset) the evaluation plays the candidate on st
// itself and rewinds with Undo — the allocation-free fast path; otherwise
// each candidate is evaluated on a clone. Both paths return bit-identical
// results for the same random stream.
func (s *Searcher) Nested(st game.State, level int) Result {
	var seq []game.Move
	score := s.search(st, level, false, &seq)
	return Result{Score: score, Sequence: seq}
}

// NestedCached is Nested with the WHOLE call treated as a cache boundary:
// the result is keyed by (scope, st's position hash, level) and shared
// with any other job or worker that searches an identical position. Client
// ranks get the same boundary from Score(st, level, true) for their rollouts,
// which is what makes the cache cross-job — a position re-searched by a
// different job (under a different seed) hits, because derived mode ignores
// the job seed entirely. Falls back to Nested when no cache is attached or
// the domain does not hash.
func (s *Searcher) NestedCached(st game.State, level int) Result {
	var seq []game.Move
	score := s.search(st, level, true, &seq)
	return Result{Score: score, Sequence: seq}
}

// Score is Nested (boundary false) or NestedCached (boundary true) for
// callers that want only the score: the same search, the same random draws
// and the same Stats, with the move sequence collected in a buffer the
// searcher reuses — so a client rank scoring rollout after rollout stops
// allocating once the buffer has grown to the longest game.
func (s *Searcher) Score(st game.State, level int, boundary bool) float64 {
	s.seqbuf = s.seqbuf[:0]
	return s.search(st, level, boundary, &s.seqbuf)
}

// search is the one top-level entry of the searcher: it checks st's
// capabilities once — Undo traversal, derived (cached) mode — for the
// duration of the call and runs the level. With boundary set the call
// itself is a cache boundary (see NestedCached); subEval is plain nested
// outside derived mode, so the flag costs nothing when no cache is attached.
func (s *Searcher) search(st game.State, level int, boundary bool, out *[]game.Move) float64 {
	if level < 0 {
		panic(fmt.Sprintf("core: negative nesting level %d", level))
	}
	defer func() { s.undo, s.derived = nil, false }()
	if u, ok := st.(game.Undoer); ok && !s.opt.NoUndo {
		s.undo = u
	}
	if _, ok := st.(game.Hasher); ok && s.cache != nil {
		s.derived = true
	}
	if boundary {
		return s.subEval(st, level, out)
	}
	return s.nested(st, level, out)
}

// cloneFor returns a state equal to st for candidate evaluation on the
// clone fallback, recycling a released scratch state via the StatePool.
// The metered cost is CloneCost either way: recycling changes allocation
// pressure, not the simulated work model.
func (s *Searcher) cloneFor(st game.State) game.State {
	s.stats.Clones++
	s.meter.Add(CloneCost)
	return s.scratch.Get(st)
}

// nested implements one level of the paper's nested rollout. The suffix of
// moves played from the input position is appended to out.
func (s *Searcher) nested(st game.State, level int, out *[]game.Move) float64 {
	if level == 0 {
		return s.sample(st, out)
	}
	for len(s.levels) <= level {
		s.levels = append(s.levels, levelBuf{})
	}
	lb := &s.levels[level]

	// Memorized best game (paper lines 1, 7–9): bestScore is the score of
	// the best terminal sequence seen at this level, lb.best[lb.next:] the
	// not yet replayed suffix of that sequence (its head is the next move to
	// play). An index, not a re-slice, so the buffer keeps its capacity from
	// one search to the next.
	bestScore := 0.0
	haveBest := false
	lb.best, lb.next = lb.best[:0], 0

	for {
		lb.moves = st.LegalMoves(lb.moves[:0])
		if len(lb.moves) == 0 {
			return st.Score()
		}
		if s.opt.Stop != nil && s.opt.Stop() {
			// Cancelled: finish the game cheaply so the caller still gets
			// a complete sequence, preferring the memorized best suffix.
			return s.finishCancelled(st, lb, out)
		}

		// Iterate over a stable copy of the move list: lb.moves is only
		// rewritten by this frame (recursion uses strictly lower levels),
		// but the re-fetch at the top of the loop reuses its backing array.
		moves := lb.moves

		// Argmax over the moves of this step (paper lines 3–6). On the
		// undo traversal the candidate is played on st itself and the
		// lower search's whole game is rewound afterwards; on the clone
		// fallback it is played on a (recycled) copy.
		stepScore := 0.0
		stepMove := moves[0]
		stepFirst := true
		bestThisStep := false
		for _, m := range moves {
			var sc float64
			lb.scratch = lb.scratch[:0]
			if s.undo != nil {
				depth := st.MovesPlayed()
				st.Play(m)
				s.meter.Add(1)
				s.stats.Steps++
				sc = s.subEval(st, level-1, &lb.scratch)
				undone := int64(st.MovesPlayed() - depth)
				for st.MovesPlayed() > depth {
					s.undo.Undo()
				}
				s.stats.Undos += undone
				s.meter.Add(UndoCost * undone)
			} else {
				child := s.cloneFor(st)
				child.Play(m)
				s.meter.Add(1)
				s.stats.Steps++
				sc = s.subEval(child, level-1, &lb.scratch)
				s.scratch.Put(child)
			}
			// In derived mode exact score ties are broken towards the
			// smaller move VALUE, so the step's choice does not depend on
			// the history-dependent order of the move list (transpositions
			// of equal content must choose identically; see subEval).
			if stepFirst || sc > stepScore ||
				(s.derived && sc == stepScore && m < stepMove) {
				stepScore = sc
				stepMove = m
				stepFirst = false
			}
			// Paper line 7: a strictly better score replaces the memorized
			// best sequence, which is m followed by the lower search's game.
			// Derived-mode tie-break: a tie with a best found at THIS step
			// goes to the smaller head move; a tie with an earlier step's
			// best keeps it (the step loop itself is deterministic).
			if !haveBest || sc > bestScore ||
				(s.derived && bestThisStep && sc == bestScore && lb.next < len(lb.best) && m < lb.best[lb.next]) {
				bestScore = sc
				haveBest = true
				bestThisStep = true
				lb.best, lb.next = append(lb.best[:0], m), 0
				lb.best = append(lb.best, lb.scratch...)
			}
		}

		// Paper line 10: play the next move of the best sequence. In
		// reflexive mode (no memory, Cazenave 2007) play this step's argmax
		// move instead, even if an earlier sequence scored higher.
		var mv game.Move
		if s.opt.Memorize && haveBest && lb.next < len(lb.best) {
			mv = lb.best[lb.next]
			lb.next++
		} else {
			mv = stepMove
		}

		st.Play(mv)
		s.meter.Add(1)
		s.stats.Steps++
		*out = append(*out, mv)
	}
}

// subEval evaluates one sub-search of the argmax loop (or one NestedCached
// top call). Outside derived mode it is exactly s.nested — the cache-off
// path stays bit-identical to the pre-cache searcher. In derived mode it
// is the cache boundary: the searcher's stream is re-derived from (scope,
// position hash, level) for the duration of the sub-search and restored
// afterwards, so the result — and every random draw below this point — is
// a pure function of the key. That purity is what makes a cached result
// from ANY job or worker interchangeable with recomputation, and what the
// verify mode asserts. Level-0 playouts are re-derived but not cached
// (an entry per playout would flood the cache with leaf results that are
// cheaper to recompute than to store).
func (s *Searcher) subEval(st game.State, level int, out *[]game.Move) float64 {
	if !s.derived {
		return s.nested(st, level, out)
	}
	hs, ok := st.(game.Hasher)
	if !ok {
		return s.nested(st, level, out)
	}
	h := hs.Hash()
	saved := s.rng.State()
	s.rng.SeedStream(s.cacheScope, rng.Fold(h, uint64(level)))
	var sc float64
	if level == 0 {
		sc = s.sample(st, out)
	} else {
		sc = s.cachedNested(st, h, level, out)
	}
	s.rng.SetState(saved)
	return sc
}

// cachedNested is the level≥1 half of subEval: look the position up,
// verify on a hit when asked, recurse and insert on a miss. The cache
// stores the score GAIN over the boundary position plus the realizing
// move suffix — absolute scores differ across transpositions of equal
// content (see the game.Hasher contract), gains do not.
func (s *Searcher) cachedNested(st game.State, h uint64, level int, out *[]game.Move) float64 {
	key := cache.Key{Scope: s.cacheScope, Hash: h, Level: uint32(level)}
	base := st.Score()
	pre := len(*out)
	if gain, ok := s.cache.Get(key, out); ok {
		s.stats.CacheHits++
		if s.cacheVerify {
			s.verifyHit(st, key, base, gain, (*out)[pre:], level)
		}
		return base + gain
	}
	s.stats.CacheMisses++
	sc := s.nested(st, level, out)
	// A search cut short by Stop is partial; caching it would serve
	// truncated results to uncancelled jobs.
	if s.opt.Stop == nil || !s.opt.Stop() {
		s.cache.Put(key, sc-base, (*out)[pre:])
	}
	return sc
}

// verifyHit recomputes a cache hit from scratch and panics on any
// difference — the CacheVerify correctness mode. The stream was just
// seeded by subEval and Get drew nothing from it, so the recomputation
// runs under exactly the stream the original miss ran under; derived-mode
// purity then demands bitwise-equal score and sequence no matter which
// job, worker or transposition populated the entry.
func (s *Searcher) verifyHit(st game.State, key cache.Key, base, gain float64, seq []game.Move, level int) {
	var buf []game.Move
	sc := s.nested(st, level, &buf)
	if sc != base+gain {
		panic(fmt.Sprintf("core: cache verify: key %+v cached score %v (base %v + gain %v), recomputed %v",
			key, base+gain, base, gain, sc))
	}
	if len(buf) != len(seq) {
		panic(fmt.Sprintf("core: cache verify: key %+v cached sequence length %d, recomputed %d",
			key, len(seq), len(buf)))
	}
	for i := range seq {
		if seq[i] != buf[i] {
			panic(fmt.Sprintf("core: cache verify: key %+v sequence differs at move %d: cached %#x, recomputed %#x",
				key, i, seq[i], buf[i]))
		}
	}
}

// finishCancelled completes the game after a Stop signal: it replays the
// memorized best suffix if one exists, then samples to the end.
func (s *Searcher) finishCancelled(st game.State, lb *levelBuf, out *[]game.Move) float64 {
	for _, m := range lb.best[lb.next:] {
		st.Play(m)
		s.meter.Add(1)
		s.stats.Steps++
		*out = append(*out, m)
	}
	lb.next = len(lb.best)
	if st.Terminal() {
		return st.Score()
	}
	return s.sample(st, out)
}
