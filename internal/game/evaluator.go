package game

// Pluggable rollout evaluation: the hook that turns the paper's uniform
// random playouts into guided ones. A level-0 playout asks its Evaluator
// for one non-negative weight per legal move and samples the next move
// proportionally to the weights, instead of uniformly — the on-line
// policy-improvement shape (Tesauro & Galperin): a base policy, a
// rollout, an argmax.
//
// Determinism contract: an Evaluator must be a pure function of the
// request — its weights may depend on the position and its legal moves,
// and on nothing else (no internal state that changes across calls, no
// randomness, no wall clock). Purity is what makes every execution path
// agree: one-shot runs, pool clients and remote workers each resolve the
// name into their own instance and call it from many concurrent
// rollouts, and because each reply depends only on its own request,
// every rollout sees the exact weights a solo run would have computed.
// The nil-Evaluator path (uniform sampling) is the bit-identical
// reproduction of the paper and never changes.

import (
	"fmt"
	"sort"
	"sync"
)

// EvalRequest is one rollout position submitted for evaluation: the
// position and its current legal moves, in LegalMoves order. The
// evaluator must not mutate State and must not retain State or Moves
// beyond the call — both alias live search buffers of the submitting
// rollout.
type EvalRequest struct {
	State State
	Moves []Move
}

// Evaluator scores the legal moves of a rollout position. Evaluate
// appends one non-negative finite weight per request move to w (in
// request order) and returns the extended slice; the search samples the
// next playout move proportionally to the weights. A zero total falls
// back to uniform sampling, so "no opinion" is always expressible.
//
// Evaluate must be safe for concurrent use and pure (see the package
// comment): identical requests yield identical weights, regardless of
// what else is being evaluated.
type Evaluator interface {
	Evaluate(req EvalRequest, w []float64) []float64
}

// MoveRater is optionally implemented by domain states that can rate
// their own legal moves with a cheap heuristic. RateMoves appends one
// non-negative weight per move to w and returns the extended slice; like
// Evaluator it must be pure and must not mutate the state. The bundled
// "heuristic" evaluator delegates to it.
type MoveRater interface {
	RateMoves(moves []Move, w []float64) []float64
}

// HeuristicEvaluator evaluates with the domain's own MoveRater: central
// moves for Morpion, large groups for SameGame, common digits for
// Sudoku. Positions of domains without a MoveRater get uniform weights
// (the playout stays uniform there).
type HeuristicEvaluator struct{}

// Evaluate implements Evaluator.
func (HeuristicEvaluator) Evaluate(req EvalRequest, w []float64) []float64 {
	if r, ok := req.State.(MoveRater); ok {
		return r.RateMoves(req.Moves, w)
	}
	for range req.Moves {
		w = append(w, 1)
	}
	return w
}

// Evaluator registry. Evaluators cross process boundaries by name: a job
// on a distributed pool carries only the registered name in its wire
// parameters, and the executing worker resolves the same name against
// its own registry — function values cannot ride the wire. Registration
// happens in package init functions (like the codec's kind registry), so
// lookups after init are lock-free in practice; the mutex makes the
// registry safe for tests that register fixtures at runtime.
var (
	evalMu  sync.RWMutex
	evalReg = map[string]func() Evaluator{}
)

// HeuristicEvaluatorName is the registered name of HeuristicEvaluator.
const HeuristicEvaluatorName = "heuristic"

func init() {
	RegisterEvaluator(HeuristicEvaluatorName, func() Evaluator { return HeuristicEvaluator{} })
}

// RegisterEvaluator binds a name to an evaluator constructor. It panics
// on an empty name or a duplicate: registration is package wiring, and a
// silently replaced evaluator would let two processes resolve the same
// job name to different policies.
func RegisterEvaluator(name string, mk func() Evaluator) {
	if name == "" || mk == nil {
		panic("game: RegisterEvaluator needs a name and a constructor")
	}
	evalMu.Lock()
	defer evalMu.Unlock()
	if _, dup := evalReg[name]; dup {
		panic(fmt.Sprintf("game: evaluator %q registered twice", name))
	}
	evalReg[name] = mk
}

// NewEvaluator resolves a registered evaluator name.
func NewEvaluator(name string) (Evaluator, error) {
	evalMu.RLock()
	mk, ok := evalReg[name]
	evalMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("game: unknown evaluator %q (registered: %v)", name, EvaluatorNames())
	}
	return mk(), nil
}

// HasEvaluator reports whether name is registered.
func HasEvaluator(name string) bool {
	evalMu.RLock()
	defer evalMu.RUnlock()
	_, ok := evalReg[name]
	return ok
}

// EvaluatorNames returns the registered names, sorted.
func EvaluatorNames() []string {
	evalMu.RLock()
	out := make([]string, 0, len(evalReg))
	for n := range evalReg {
		out = append(out, n)
	}
	evalMu.RUnlock()
	sort.Strings(out)
	return out
}
