package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into each layer (spans inside the program
// are a later change); Parent links a span to the one that caused it, and
// all spans of one operation share that operation's span as an ancestor.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the tracer's epoch
	End    int64          `json:"end_ns"`
	Attr   map[string]any `json:"attr,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced rounds run the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, attr map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Attr: attr,
	})
	return id
}

// begin opens a span whose end is not known yet; finish closes it.
func (t *tracer) begin(parent int, name string, attr map[string]any) int {
	now := time.Now()
	return t.add(parent, name, now, now, attr)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its own interval that its child spans cover. Children may overlap each
// other (concurrent operations under one round) and may stick out of the
// parent by clock skew; only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, k int) bool { return kids[i].Start < kids[k].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time over every span of each name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Env      environment `json:"env"`
	Spans    []span      `json:"spans"`
	// SelfNs is the self time summed per span name, the figure the
	// per-layer table is read against.
	SelfNs map[string]int64 `json:"self_ns"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
