package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50]; a third sticks out
		// past the parent's end and only [80, 100] counts.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 80, End: 120},
		// A grandchild is covered by its own parent, not by span 1.
		{ID: 5, Parent: 2, Start: 12, End: 18},
		{ID: 6, Start: 200, End: 260},
	}
	fillSelf(spans)
	want := map[int]int64{1: 100 - 40 - 20, 2: 20 - 6, 3: 30, 4: 40, 5: 6, 6: 60}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {4, 6}}, 4},
		{0, 10, [][2]int64{{5, 9}, {1, 3}, {2, 6}}, 8},
		{0, 10, [][2]int64{{-5, 20}}, 10},
		{0, 10, [][2]int64{{11, 12}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(tr.newTrace(), 0, "x")
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
