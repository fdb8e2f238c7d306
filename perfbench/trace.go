package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. All spans of one pass share the pass number; Parent is
// the ID of the span that caused it (0 for a pass).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Worker names the dist worker a route span served, if any.
	Worker string `json:"worker,omitempty"`
	// Bytes counts request and response body bytes of a route span.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// Safe for concurrent use (cluster workers and HTTP handlers record spans
// from several goroutines).
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	pass int
	next int
	all  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginPass opens the span of a new pass and returns its ID.
func (t *tracer) beginPass() int {
	t.mu.Lock()
	t.pass++
	t.mu.Unlock()
	return t.begin(0, "bench", "pass")
}

// begin records the start of a span and returns its ID; end closes it.
func (t *tracer) begin(parent int, layer, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.all = append(t.all, span{ID: t.next, Parent: parent, Pass: t.pass, Layer: layer, Name: name, Start: start, End: -1})
	return t.next
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all[id-1].End = end
}

// endAt closes a span with an interval measured by the caller.
func (t *tracer) endAt(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all[id-1].Start = int64(start.Sub(t.t0))
	t.all[id-1].End = int64(end.Sub(t.t0))
}

// add records a span whose interval was observed after the fact.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	s.Pass = t.pass
	t.all = append(t.all, s)
}

// spans returns the spans recorded since mark (an earlier len of the list).
func (t *tracer) spans(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all[mark:]...)
}

// truncate drops the spans recorded since mark.
func (t *tracer) truncate(mark int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all = t.all[:mark]
	t.next = mark
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.all)
}

// selfTimes returns each layer's self time over the given spans: a span's
// duration minus the part of its interval its children cover (children of
// one parent may overlap, as parallel tasks do, so their union is taken).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		covered := unionWithin(children[s.ID], s.Start, s.End)
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.all {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
