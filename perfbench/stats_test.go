package main

import "testing"

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		ns := make([]int64, c.n)
		for i := range ns {
			ns[i] = int64(i)
		}
		if p, _ := newDist(ns).tail(); p != c.want {
			t.Errorf("n=%d: tail p%g, want p%g", c.n, p, c.want)
		}
	}
}

// Self times per layer plus the unattributed remainder add up to the
// root's wall time for sequential spans, as the replay records them.
func TestSelfTimesSumToWall(t *testing.T) {
	tr := &tracer{on: true}
	add := func(parent int, layer string, start, end int64) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Layer: layer, Start: start, End: end})
		return len(tr.spans)
	}
	root := add(0, "", 0, 100)
	op := add(root, "", 5, 95)
	add(op, "minic", 10, 20)
	s := add(op, "serve", 20, 60)
	add(s, "vm", 30, 40)
	add(s, "vm", 42, 50)
	add(op, "srv", 70, 90)
	byLayer, unattr, wall := tr.selfTimes(root)
	want := map[string]int64{"minic": 10, "serve": 22, "vm": 18, "srv": 20}
	for l, v := range want {
		if byLayer[l] != v {
			t.Errorf("%s self time %d, want %d", l, byLayer[l], v)
		}
	}
	// root: 10 uncovered by op; op: 90 - (10+40+20) = 20.
	if unattr != 30 || wall != 100 {
		t.Errorf("unattributed %d wall %d, want 30 and 100", unattr, wall)
	}
	sum := unattr
	for _, v := range byLayer {
		sum += v
	}
	if sum != wall {
		t.Errorf("self times sum to %d, want wall %d", sum, wall)
	}
}
