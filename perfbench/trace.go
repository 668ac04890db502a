package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one unit of
// work (a simulation run, a suite, one gateway exchange) share Trace;
// Parent is the index of the span that caused this one, or -1.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Begin(trace uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records an already measured interval.
func (t *Tracer) Add(trace uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Spans left open are skipped.
func (t *Tracer) SelfTimes() map[string]float64 {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(s.Start, s.End, children[s.ID])
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNs returns how much of [start, end) the union of kids covers.
func coveredNs(start, end int64, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return covered
}

// WriteFile writes the spans and their self times as one JSON document.
func (t *Tracer) WriteFile(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.SelfTimes()
	t.mu.Lock()
	doc := map[string]any{"meta": meta, "self_s": self, "spans": t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
