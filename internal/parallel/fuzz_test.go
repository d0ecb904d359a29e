package parallel

// Native fuzz target for the worker handshake blob, the one input a
// pnmcs-worker takes from its coordinator before any frame: arbitrary bytes
// must decode to a pool world ServeWorker can build, or to an error — never
// a panic, a degenerate world or one beyond wireMaxWorld. The committed
// corpus under testdata/fuzz holds version-4 blobs — one per pool shape, a
// truncated one, one with trailing bytes and one claiming 2^40 medians —
// which the version check now refuses, and a version-5 blob with the
// local-dispatch flag set.

import "testing"

func FuzzDecodeWorkerBlob(f *testing.F) {
	for i, cfg := range []PoolConfig{
		{Slots: 1, Medians: 1, Clients: 1},
		{Slots: 3, Medians: 5, Clients: 9, Algo: LastMinute, Speculate: 2},
		{Slots: 1, Medians: 2, Clients: 3, CacheMB: 128, CacheVerify: true},
	} {
		f.Add(appendWorkerBlob(nil, cfg, i%2 == 0))
	}
	f.Add([]byte{})
	f.Add([]byte{workerBlobVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, local, err := decodeWorkerBlob(data)
		if err != nil {
			return
		}
		if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
			t.Fatalf("degenerate world decoded: %+v", cfg)
		}
		if n := cfg.Slots + 2 + cfg.Medians + cfg.Clients; n > wireMaxWorld {
			t.Fatalf("world of %d ranks decoded, limit %d", n, wireMaxWorld)
		}
		again, againLocal, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg, local))
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again != cfg || againLocal != local {
			t.Fatalf("blob round trip: %+v local %v != %+v local %v", again, againLocal, cfg, local)
		}
	})
}
