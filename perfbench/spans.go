package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark's own code into a layer's
// public function. Spans of one operation share Op; Parent links a span
// to the span that caused it (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"` // "" for benchmark glue, reported as unattributed
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A disabled tracer makes begin/end
// no-ops, so the same code path runs traced and untraced and the
// difference between the two is the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, layer, name string, op int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin and returns its duration (0 when
// tracing is off).
func (t *tracer) end(id int) int64 {
	if !t.on || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	d := now - t.spans[id-1].Start
	t.mu.Unlock()
	return d
}

// durations returns the durations of every closed span with the given
// name, in recording order.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes attributes the root span's wall time to layers: each span's
// self time is its duration minus the part of it its children cover,
// summed per layer. Glue spans (Layer "") and the root's own self time
// are the unattributed remainder, so the layer totals plus unattributed
// equal the root's duration exactly.
func (t *tracer) selfTimes(root int) (byLayer map[string]int64, unattributed, wall int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer = make(map[string]int64)
	var walk func(s span)
	walk = func(s span) {
		self := s.dur() - covered(s, children[s.ID])
		if s.Layer == "" {
			unattributed += self
		} else {
			byLayer[s.Layer] += self
		}
		for _, c := range children[s.ID] {
			walk(c)
		}
	}
	r := t.spans[root-1]
	walk(r)
	return byLayer, unattributed, r.dur()
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
