package service

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/parallel"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// JobSpec describes one search job: the domain position to search and the
// parallel-search parameters. The zero values of the domain knobs select
// sensible defaults, so {"domain":"morpion","level":2} is a complete
// submission. JSON tags are the wire format of cmd/pnmcsd.
type JobSpec struct {
	// Domain is "morpion", "samegame" or "sudoku".
	Domain string `json:"domain"`

	// Tenant names the submitting principal for admission control: a
	// Router with Config.TenantQPS set charges this tenant's token
	// bucket before the job can occupy any queue capacity (empty is a
	// tenant like any other — omitting the field does not bypass
	// quotas). Purely an admission label: it never reaches the search
	// and never changes a result.
	Tenant string `json:"tenant,omitempty"`

	// Variant is the Morpion rule set ("5T", "5D", "4T", "4D");
	// default "5D", the paper's variant. Ignored by other domains.
	Variant string `json:"variant,omitempty"`

	// Width/Height/Colors/BoardSeed describe the SameGame board;
	// defaults 8×8, 4 colours, seed 1. Ignored by other domains.
	Width     int    `json:"width,omitempty"`
	Height    int    `json:"height,omitempty"`
	Colors    int    `json:"colors,omitempty"`
	BoardSeed uint64 `json:"board_seed,omitempty"`

	// Box is the Sudoku box side (3 → 9×9, 4 → 16×16); default 3.
	// Ignored by other domains.
	Box int `json:"box,omitempty"`

	// Level is the overall nesting level ℓ ≥ 2 (root ℓ, medians ℓ−1,
	// client rollouts ℓ−2). Default 2, at most parallel.MaxLevel.
	Level int `json:"level,omitempty"`

	// Seed derives every random stream of the job. Two jobs with equal
	// specs return bit-identical results, on the service or solo.
	Seed uint64 `json:"seed"`

	// Memorize enables best-sequence memorization in the client rollouts
	// (the paper's configuration).
	Memorize bool `json:"memorize"`

	// FirstMoveOnly stops the job after the root's first move — the
	// paper's first-move experiments, and the on-line policy-improvement
	// shape (one position in, one move out).
	FirstMoveOnly bool `json:"first_move_only,omitempty"`

	// Evaluator names the registered rollout evaluator guiding this job's
	// playouts ("heuristic" for the bundled per-domain heuristics); empty
	// inherits the service default (Config.Evaluator), and the sentinel
	// "uniform" forces the paper's uniform playouts even when the service
	// has a default. Unknown names are rejected at submission.
	Evaluator string `json:"evaluator,omitempty"`

	// Speculate is the async pipelined-root width for this job
	// (parallel.Config.Speculate): positive speculatively dispatches the
	// next root step's candidates for that many partial-score leaders,
	// pipelining step boundaries; negative forces the synchronous pull
	// root even when the service sets a pool-wide default
	// (Config.Speculate); zero inherits that default. Results are
	// bit-identical at every setting. At most parallel.MaxSpeculate.
	Speculate int `json:"speculate,omitempty"`

	// Cache consults the pool's shared transposition cache for this job's
	// client rollouts (parallel.Config.Cache). Cached jobs draw their
	// sub-search randomness from position-derived streams, so the result
	// is NOT bit-identical to the same spec without the flag — it is one
	// fixed alternative answer of the same quality (see DESIGN.md §11).
	Cache bool `json:"cache,omitempty"`

	// Deadline, when positive, cancels the job that long after it starts
	// running (queue time excluded). The partial result is returned with
	// Stopped true. Go callers set this field; the HTTP API uses
	// DeadlineMillis.
	Deadline time.Duration `json:"-"`

	// DeadlineMillis is the wire form of Deadline, in milliseconds.
	// When both are set, Deadline wins. Root rejects a negative value of
	// either and a DeadlineMillis past the largest time.Duration.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// EvaluatorUniform is the JobSpec.Evaluator sentinel that forces the
// paper's uniform rollouts on a service whose Config.Evaluator default
// would otherwise apply (an empty spec field inherits the default).
const EvaluatorUniform = "uniform"

// normalized fills the spec's defaults without mutating the original.
func (s JobSpec) normalized() JobSpec {
	s.Domain = strings.ToLower(strings.TrimSpace(s.Domain))
	s.Evaluator = strings.TrimSpace(s.Evaluator)
	if s.Level == 0 {
		s.Level = 2
	}
	if s.Deadline == 0 && s.DeadlineMillis > 0 {
		s.Deadline = time.Duration(s.DeadlineMillis) * time.Millisecond
	}
	switch s.Domain {
	case "morpion":
		if s.Variant == "" {
			s.Variant = "5D"
		}
	case "samegame":
		if s.Width == 0 {
			s.Width = 8
		}
		if s.Height == 0 {
			s.Height = 8
		}
		if s.Colors == 0 {
			s.Colors = 4
		}
		if s.BoardSeed == 0 {
			s.BoardSeed = 1
		}
	case "sudoku":
		if s.Box == 0 {
			s.Box = 3
		}
	}
	return s
}

// Root builds the initial position the spec describes, or an error for an
// invalid spec. The returned state is fresh on every call, so a spec can
// be run any number of times (service job, solo verification run).
func (s JobSpec) Root() (game.State, error) {
	// Bound the deadline before normalized converts it: a DeadlineMillis
	// past the largest Duration would wrap, to a negative value (no
	// deadline at all) or to an arbitrary short one.
	if s.Deadline < 0 || s.DeadlineMillis < 0 || s.DeadlineMillis > math.MaxInt64/int64(time.Millisecond) {
		return nil, fmt.Errorf("service: deadline %v / deadline_ms %d out of range", s.Deadline, s.DeadlineMillis)
	}
	n := s.normalized()
	if n.Level < 2 {
		return nil, fmt.Errorf("service: level %d < 2 cannot be distributed", n.Level)
	}
	if n.Level > parallel.MaxLevel {
		return nil, fmt.Errorf("service: level %d exceeds limit %d", n.Level, parallel.MaxLevel)
	}
	switch n.Domain {
	case "morpion":
		v, err := morpion.VariantByName(n.Variant)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		return morpion.New(v), nil
	case "samegame":
		if n.Width < 1 || n.Height < 1 || n.Width > 32 || n.Height > 32 {
			return nil, fmt.Errorf("service: samegame board %dx%d out of range", n.Width, n.Height)
		}
		if n.Colors < 2 || n.Colors > 9 {
			return nil, fmt.Errorf("service: samegame needs 2..9 colors, got %d", n.Colors)
		}
		return samegame.NewRandom(n.Width, n.Height, n.Colors, n.BoardSeed), nil
	case "sudoku":
		if n.Box < 2 || n.Box > 4 {
			return nil, fmt.Errorf("service: sudoku box side %d out of range 2..4", n.Box)
		}
		return sudoku.New(n.Box), nil
	case "":
		return nil, fmt.Errorf("service: job spec needs a domain (morpion, samegame or sudoku)")
	default:
		return nil, fmt.Errorf("service: unknown domain %q (want morpion, samegame or sudoku)", s.Domain)
	}
}

// Config translates the spec into the parallel-run configuration used
// both by the service pool and by parallel.Reference, which judges it. The
// spec carries no dispatch order: the pool's helpers join posted steps in
// Last-Minute order, and scheduling never changes scores.
func (s JobSpec) Config() (parallel.Config, error) {
	root, err := s.Root()
	if err != nil {
		return parallel.Config{}, err
	}
	n := s.normalized()
	if n.Speculate > parallel.MaxSpeculate {
		return parallel.Config{}, fmt.Errorf("service: speculate %d exceeds limit %d", n.Speculate, parallel.MaxSpeculate)
	}
	eval := n.Evaluator
	switch eval {
	case "", EvaluatorUniform:
		// "uniform" is a spec-level sentinel, not a registered evaluator:
		// both map to the empty parallel.Config field (uniform playouts).
		// The service-default overlay (Manager.run) distinguishes them by
		// looking at the spec, where "uniform" blocks the default.
		eval = ""
	default:
		if !game.HasEvaluator(eval) {
			return parallel.Config{}, fmt.Errorf("service: unknown evaluator %q (registered: %v, or %q)",
				eval, game.EvaluatorNames(), EvaluatorUniform)
		}
	}
	return parallel.Config{
		Level:         n.Level,
		Root:          root,
		Seed:          n.Seed,
		Memorize:      n.Memorize,
		FirstMoveOnly: n.FirstMoveOnly,
		StopAfter:     n.Deadline,
		Evaluator:     eval,
		Cache:         n.Cache,
		Speculate:     n.Speculate,
	}, nil
}
