package parallel

// Native fuzz target for the worker handshake blob, the one input a
// pnmcs-worker takes from its coordinator before any frame: arbitrary bytes
// must decode to a pool world ServeWorker can build, or to an error — never
// a panic, a degenerate world, one beyond wireMaxWorld or one with a worker
// lacking a role. The committed corpus under testdata/fuzz holds
// version-4 blobs — one per pool shape, a truncated one, one with trailing
// bytes and one claiming 2^40 medians — and a version-5 blob with the
// local-dispatch flag set, all of which the version check now refuses, and
// the version-6 blob of net_loopback's pool on its two workers.

import "testing"

func FuzzDecodeWorkerBlob(f *testing.F) {
	for i, cfg := range []PoolConfig{
		{Slots: 1, Medians: 1, Clients: 1},
		{Slots: 3, Medians: 5, Clients: 9, Algo: LastMinute, Speculate: 2},
		{Slots: 1, Medians: 2, Clients: 3, CacheMB: 128, CacheVerify: true},
	} {
		f.Add(appendWorkerBlob(nil, cfg, 1+i%2))
	}
	f.Add([]byte{})
	f.Add([]byte{workerBlobVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, workers, err := decodeWorkerBlob(data)
		if err != nil {
			return
		}
		if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
			t.Fatalf("degenerate world decoded: %+v", cfg)
		}
		if n := cfg.Slots + 1 + cfg.Medians + cfg.Clients; n > wireMaxWorld {
			t.Fatalf("world of %d ranks decoded, limit %d", n, wireMaxWorld)
		}
		if workers < 1 || workers > cfg.Medians {
			t.Fatalf("%d workers decoded for %d medians and %d clients", workers, cfg.Medians, cfg.Clients)
		}
		again, againWorkers, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg, workers))
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again != cfg || againWorkers != workers {
			t.Fatalf("blob round trip: %+v on %d workers != %+v on %d", again, againWorkers, cfg, workers)
		}
	})
}
