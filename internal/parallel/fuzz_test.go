package parallel

// Native fuzz target for the worker handshake blob, the one input a
// pnmcs-worker takes from its coordinator before any frame: arbitrary bytes
// must decode to a pool world ServeWorker can build, or to an error — never
// a panic, a degenerate world or one beyond wireMaxWorld. The committed
// corpus under testdata/fuzz holds one valid blob per pool shape, a
// truncated one, one with trailing bytes and one claiming 2^40 medians.

import (
	"testing"
	"time"
)

func FuzzDecodeWorkerBlob(f *testing.F) {
	for _, cfg := range []PoolConfig{
		{Slots: 1, Medians: 1, Clients: 1},
		{Slots: 3, Medians: 5, Clients: 9, Algo: LastMinute, EvalBatch: 16, EvalFlush: 3 * time.Millisecond, Speculate: 2},
		{Slots: 1, Medians: 2, Clients: 3, CacheMB: 128, CacheVerify: true},
	} {
		f.Add(appendWorkerBlob(nil, cfg))
	}
	f.Add([]byte{})
	f.Add([]byte{workerBlobVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeWorkerBlob(data)
		if err != nil {
			return
		}
		if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
			t.Fatalf("degenerate world decoded: %+v", cfg)
		}
		if n := cfg.Slots + 2 + cfg.Medians + cfg.Clients; n > wireMaxWorld {
			t.Fatalf("world of %d ranks decoded, limit %d", n, wireMaxWorld)
		}
		again, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg))
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again != cfg {
			t.Fatalf("blob round trip: %+v != %+v", again, cfg)
		}
	})
}
