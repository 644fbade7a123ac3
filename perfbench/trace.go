package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share
// Group (a round-scoped operation id); Parent links a span to the span
// that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; writeFile dumps them when the run
// ends. Recording takes a mutex, which is fine at layer boundaries:
// the benchmark opens a handful of spans per operation, never per
// element. A tracer made by child records into the same log with a
// default parent for the spans timeCall opens.
type tracer struct {
	*spanLog
	parent int64
}

type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{spanLog: &spanLog{t0: time.Now()}} }

func (t *tracer) child(parent int64) *tracer { return &tracer{spanLog: t.spanLog, parent: parent} }

// begin opens a span and returns its id, for children, and the
// function that closes it.
func (t *tracer) begin(group, name string, parent int64) (id int64, end func()) {
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.add(span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: stop})
	}
}

// record adds a span whose bounds were measured elsewhere (client or
// server timestamps of an HTTP job).
func (t *tracer) record(group, name string, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.add(span{ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(group, name string, parent int64, f func()) time.Duration {
	_, end := t.begin(group, name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	end()
	return d
}

// byName sums span durations by name.
func (t *tracer) byName() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur()
	}
	return out
}

// coverage is, over every span named parent, the summed duration of
// its direct children divided by its own summed duration.
func (t *tracer) coverage(parent string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[int64]bool{}
	var whole time.Duration
	for _, s := range t.spans {
		if s.Name == parent {
			roots[s.ID] = true
			whole += s.dur()
		}
	}
	var covered time.Duration
	for _, s := range t.spans {
		if roots[s.Parent] {
			covered += s.dur()
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(covered) / float64(whole)
}

// writeFile writes the spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
