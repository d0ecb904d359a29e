package parallel

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// TestReferenceJudgesEngines is the bit-identity invariant as one table:
// every engine — the per-run Execute on the virtual cluster under each root
// policy, RunWall, a wall Pool and a net Pool — must return Reference's
// answer for every config. Per-run speculating runs charge wasted rollouts
// to Jobs/WorkUnits, so they are held to the game fields only.
func TestReferenceJudgesEngines(t *testing.T) {
	shape := PoolConfig{Slots: 1, Medians: 2, Clients: 3, CacheVerify: true}
	wallPool, err := NewPool(shape)
	if err != nil {
		t.Fatal(err)
	}
	defer wallPool.Shutdown()
	netPool, err := NewNetPool(shape, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, netPool.WorkerAddr(), 2)
	defer wait()
	defer netPool.Shutdown()

	virtual := func(mod func(*Config)) func(Config) (Result, error) {
		return func(cfg Config) (Result, error) {
			mod(&cfg)
			return RunVirtual(cluster.Homogeneous(3), cfg, fastVirtual(4))
		}
	}
	engines := []struct {
		name     string
		run      func(Config) (Result, error)
		gameOnly bool
	}{
		{"virtual static RR", virtual(func(c *Config) { c.Static, c.Algo = true, RoundRobin }), false},
		{"virtual pull LM", virtual(func(c *Config) { c.Algo = LastMinute }), false},
		{"virtual pull speculate", virtual(func(c *Config) { c.Speculate = 2 }), true},
		{"wall", func(cfg Config) (Result, error) { return RunWall(3, 2, cfg) }, false},
		{"wall pool", func(cfg Config) (Result, error) { return wallPool.RunJob(0, cfg, nil) }, false},
		{"wall pool speculate", func(cfg Config) (Result, error) {
			cfg.Speculate = 2
			return wallPool.RunJob(0, cfg, nil)
		}, false},
		{"net pool", func(cfg Config) (Result, error) { return netPool.RunJob(0, cfg, nil) }, false},
	}
	cases := map[string]Config{
		"armtree":         {Level: 2, Root: game.NewArmTree(3, 2, 5), Seed: 2, Memorize: true},
		"armtree level 3": {Level: 3, Root: game.NewArmTree(3, 3, 33), Seed: 17, Memorize: true},
		"sudoku":          {Level: 2, Root: sudoku.New(2), Seed: 7},
		"samegame":        {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
		"samegame reflex": {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5},
		"heuristic":       {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 3, Memorize: true, Evaluator: "heuristic"},
		"cache verify":    {Level: 3, Root: sudoku.New(2), Seed: 4, Memorize: true, Cache: true, CacheVerify: true},
		"morpion first":   {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Steps == 0 || want.Jobs == 0 {
				t.Fatalf("degenerate reference: %+v", want)
			}
			for _, e := range engines {
				got, err := e.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if e.gameOnly {
					assertSameGame(t, e.name, got, want)
				} else {
					assertSameResult(t, e.name, got, want)
				}
			}
		})
	}
}

// TestReferenceValidation pins what Reference refuses: configs that cannot
// be distributed, and StopAfter, whose answer depends on timing.
func TestReferenceValidation(t *testing.T) {
	good := Config{Level: 2, Root: game.NewArmTree(2, 2, 1), Memorize: true}
	if _, err := Reference(good); err != nil {
		t.Fatal(err)
	}
	for name, mod := range map[string]func(*Config){
		"level 1":   func(c *Config) { c.Level = 1 },
		"nil root":  func(c *Config) { c.Root = nil },
		"stop":      func(c *Config) { c.StopAfter = 1 },
		"evaluator": func(c *Config) { c.Evaluator = "no-such-evaluator" },
	} {
		bad := good
		mod(&bad)
		if _, err := Reference(bad); err == nil {
			t.Errorf("%s accepted", name)
		} else if name == "evaluator" && !strings.Contains(err.Error(), "no-such-evaluator") {
			t.Errorf("evaluator error does not name it: %v", err)
		}
	}
	// The root is never mutated.
	root := sudoku.New(2)
	if _, err := Reference(Config{Level: 2, Root: root, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if root.MovesPlayed() != 0 {
		t.Fatal("Reference mutated cfg.Root")
	}
}
