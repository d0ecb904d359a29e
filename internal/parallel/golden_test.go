package parallel

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/morpion"
	"repro/internal/sudoku"
)

// TestVirtualGolden pins the simulator's output: the exact virtual
// makespan, job and work counts, queue profile and summed idle time of a
// small table of RunVirtual configs. Score equality between engines
// (TestReferenceJudgesEngines) cannot see a reordered event — only the
// timing figures move — so these constants are the tier-1 guard on the
// event loop's (t, seq) order in vtime and mpi.VirtualCluster. A change
// that moves any of them changes the paper's tables.
func TestVirtualGolden(t *testing.T) {
	firstMove := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 11, Memorize: true, FirstMoveOnly: true, JobScale: 50}
	slow := cluster.Homogeneous(8).WithSlowMedian(0, 0.5)
	cases := []struct {
		name string
		spec cluster.Spec
		opts VirtualOptions
		mod  func(*Config)

		elapsed        time.Duration
		jobs, work     int64
		queueDepthMean float64
		clientIdle     time.Duration
		medianIdle     time.Duration
	}{
		{name: "static RR", spec: cluster.Homogeneous(8), opts: fastVirtual(4),
			mod:     func(c *Config) { c.Static, c.Algo = true, RoundRobin },
			elapsed: 1721120208, jobs: 16446, work: 254341, queueDepthMean: 0, clientIdle: 1051911664, medianIdle: 6817798432},
		{name: "pull LM", spec: cluster.Homogeneous(8), opts: fastVirtual(4),
			elapsed: 2248639296, jobs: 16446, work: 254341, queueDepthMean: 19.047619047619047, clientIdle: 5272064368, medianIdle: 8927874784},
		{name: "slow median static", spec: slow, opts: stragglerVirtual(4),
			mod:     func(c *Config) { c.Static = true },
			elapsed: 1591420353696, jobs: 16446, work: 254341, queueDepthMean: 0, clientIdle: 14312829568, medianIdle: 6282690214784},
		{name: "slow median pull", spec: slow, opts: stragglerVirtual(4),
			elapsed: 1597527352896, jobs: 16446, work: 254341, queueDepthMean: 19.047619047619047, clientIdle: 63168823168, medianIdle: 6306982211584},
		{name: "speculate 2", spec: slow, opts: stragglerVirtual(3),
			mod: func(c *Config) {
				c.Root, c.FirstMoveOnly, c.Memorize, c.Speculate = sudoku.New(3), false, false, 2
			},
			elapsed: 2947585682328, jobs: 21371, work: 268165, queueDepthMean: 1.4492512479201332, clientIdle: 10172435458624, medianIdle: 8718661846984},
		{name: "prefetch 3", spec: slow, opts: stragglerVirtual(4),
			mod:     func(c *Config) { c.Prefetch = 3 },
			elapsed: 1597212245152, jobs: 16446, work: 254341, queueDepthMean: 17.391304347826086, clientIdle: 60647961216, medianIdle: 6306992180608},
	}
	for _, tc := range cases {
		cfg := firstMove
		if tc.mod != nil {
			tc.mod(&cfg)
		}
		res := run(t, tc.spec, cfg, tc.opts)
		var cidle, midle time.Duration
		for _, d := range res.ClientIdle {
			cidle += d
		}
		for _, d := range res.MedianIdle {
			midle += d
		}
		if res.Elapsed != tc.elapsed || res.Jobs != tc.jobs || res.WorkUnits != tc.work ||
			res.QueueDepthMean != tc.queueDepthMean || cidle != tc.clientIdle || midle != tc.medianIdle {
			t.Errorf("%s: got elapsed %d jobs %d work %d qdepth %v cidle %d midle %d; "+
				"want elapsed %d jobs %d work %d qdepth %v cidle %d midle %d",
				tc.name, int64(res.Elapsed), res.Jobs, res.WorkUnits, res.QueueDepthMean, int64(cidle), int64(midle),
				int64(tc.elapsed), tc.jobs, tc.work, tc.queueDepthMean, int64(tc.clientIdle), int64(tc.medianIdle))
		}
	}
}
