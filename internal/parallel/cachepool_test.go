package parallel

// Pool-level tests of the shared transposition cache. Verify mode is on
// throughout — every hit is recomputed and compared, so these tests also
// serve as the cache's consistency check under the race detector (the CI
// race job runs this package with -race).

import (
	"testing"

	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// TestPoolCacheCrossJobSharing pins the tentpole property end to end: two
// jobs with DIFFERENT seeds but the same root share sub-search results
// through the pool cache, and — because cached sub-searches draw from
// position-derived streams — return identical answers. The second job must
// actually hit the first job's entries.
func TestPoolCacheCrossJobSharing(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 2, Medians: 2, Clients: 2, CacheVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfg := Config{Level: 3, Root: sudoku.New(2), Seed: 1, Memorize: true, Cache: true}
	first, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := pool.Metrics()
	if m.CacheMisses == 0 {
		t.Fatal("cached job produced no cache traffic")
	}

	cfg.Seed = 99999
	second, err := pool.RunJob(1, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Score != second.Score || len(first.Sequence) != len(second.Sequence) {
		t.Fatalf("seed changed a cached job: %v/%d vs %v/%d",
			first.Score, len(first.Sequence), second.Score, len(second.Sequence))
	}
	for i := range first.Sequence {
		if first.Sequence[i] != second.Sequence[i] {
			t.Fatalf("sequences differ at move %d", i)
		}
	}
	m2 := pool.Metrics()
	if m2.CacheHits <= m.CacheHits {
		t.Fatalf("second job never hit the first job's entries: %d -> %d hits",
			m.CacheHits, m2.CacheHits)
	}
	if m2.CacheEntries == 0 || m2.CacheBytes == 0 {
		t.Fatalf("cache reports no residency: %+v", m2)
	}
}

// TestPoolCachedMatchesRunWall pins that a cached pool job equals
// Reference's answer for the same cached Config: purity makes the answer
// independent of which cache (run-local vs pool-shared) served it.
func TestPoolCachedMatchesRunWall(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2, CacheVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfg := Config{
		Level: 3, Root: samegame.NewRandom(4, 4, 3, 3), Seed: 5,
		Memorize: true, Cache: true, CacheVerify: true,
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Score != solo.Score || len(pooled.Sequence) != len(solo.Sequence) {
		t.Fatalf("pool %v/%d != solo %v/%d",
			pooled.Score, len(pooled.Sequence), solo.Score, len(solo.Sequence))
	}
	for i := range pooled.Sequence {
		if pooled.Sequence[i] != solo.Sequence[i] {
			t.Fatalf("sequences differ at move %d", i)
		}
	}
}
