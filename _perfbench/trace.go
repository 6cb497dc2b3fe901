package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the span
// that caused this one (-1 for a root); ID groups the spans of one
// question or request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// tracer keeps every span in memory; nothing is written until the run
// ends, so the traced path pays only a clock read and an append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent, id int) int {
	now := int64(time.Since(t.epoch))
	return t.add(name, parent, id, now, now)
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// add records a finished span (times in ns since the epoch).
func (t *tracer) add(name string, parent, id int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// selfTimes sums, per span name, the span durations minus the part of
// each span's interval that its children cover (children that overlap
// one another are counted once). Values are in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		self := s.End - s.Start - covered(s, kids[i])
		out[s.Name] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span: %w", err)
		}
	}
	return bw.Flush()
}

// ms is the duration of the span with handle h, in milliseconds.
func (t *tracer) ms(h int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[h].End-t.spans[h].Start) / 1e6
}

// dump writes the spans to path and says where they went.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", len(t.spans), path)
	return nil
}
