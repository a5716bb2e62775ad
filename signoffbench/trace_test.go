package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	// parent [0,100]; children [10,40] and [30,60] overlap, [90,120] runs
	// past the parent's end; the grandchild [15,20] lies inside a child.
	spans := []span{
		{name: "run", parent: -1, start: 0, end: 100},
		{name: "unit", parent: 0, start: 10, end: 40},
		{name: "unit", parent: 0, start: 30, end: 60},
		{name: "unit", parent: 0, start: 90, end: 120},
		{name: "view", parent: 1, start: 15, end: 20},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, self[i], want[i])
		}
	}
	st := summarize(spans)["unit"]
	if st.calls != 3 || st.busy != 90 || st.self != 85 {
		t.Errorf("unit stats = %d calls, busy %v, self %v; want 3, 90, 85", st.calls, st.busy, st.self)
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	spans := []span{
		{name: "p", parent: -1, start: 0, end: 10},
		{name: "c", parent: 0, start: 1, end: 3},
		{name: "c", parent: 0, start: 5, end: 6},
		{name: "c", parent: 0, start: 2, end: 3}, // inside the first child's interval
	}
	if got := selfTimes(spans)[0]; got != 7 {
		t.Errorf("self = %v, want 7", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		pm int
		ok bool
	}{
		{0, 500, false}, {1, 500, false}, {19, 500, false},
		{20, 500, true}, {99, 500, true},
		{100, 900, true}, {999, 900, true},
		{1000, 990, true}, {9999, 990, true},
		{10000, 999, true}, {1 << 20, 999, true},
	} {
		pm, ok := tailPerMille(c.n)
		if pm != c.pm || ok != c.ok {
			t.Errorf("tailPerMille(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.pm, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		pm   int
		want time.Duration
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}} {
		if got := percentile(d, c.pm); got != c.want {
			t.Errorf("percentile(1..100, %d‰) = %v, want %v", c.pm, got, c.want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile(d[:1], 999); got != 1 {
		t.Errorf("percentile of one sample = %v, want 1", got)
	}
}

func TestTracerCountsAllocationsPerSpan(t *testing.T) {
	tr := newTracer(true, 4)
	var keep [][]byte
	s := tr.begin("outer", -1)
	for i := 0; i < 40; i++ {
		keep = append(keep, make([]byte, 64<<10)) // large objects are counted one by one
	}
	tr.end(s)
	if got := tr.spans[s].allocs; got < 40 {
		t.Errorf("span counted %d allocations, want at least 40", got)
	}
	_ = keep
}
