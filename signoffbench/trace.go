package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. parent indexes the span that caused
// it (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
	allocs     uint64
}

// tracer keeps spans in memory until the run ends. With countAllocs set it
// also records each span's heap allocations, read from the process-wide
// counter: that is only meaningful while a single goroutine runs spans. The
// runtime counts small objects a block of slots at a time, so a span's count
// is exact for large objects and close for calls that allocate thousands.
type tracer struct {
	mu          sync.Mutex
	origin      time.Time
	spans       []span
	countAllocs bool
	sample      []metrics.Sample
}

func newTracer(countAllocs bool, capacity int) *tracer {
	return &tracer{
		origin:      time.Now(),
		spans:       make([]span, 0, capacity), // no growth inside a counted span
		countAllocs: countAllocs,
		sample:      []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{name: name, parent: parent}
	if t.countAllocs {
		s.allocs = t.heapAllocs()
	}
	s.start = time.Since(t.origin)
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	if t.countAllocs {
		s.allocs = t.heapAllocs() - s.allocs
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (units on
// parallel workers), so the covered part is the union of their intervals,
// clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered measures the union of the given spans' intervals within [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	calls      int
	busy, self time.Duration
	durs       []time.Duration
	allocs     uint64
}

func summarize(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.calls++
		st.busy += s.end - s.start
		st.self += self[i]
		st.durs = append(st.durs, s.end-s.start)
		st.allocs += s.allocs
	}
	return out
}

// tailPerMille picks the highest percentile of the ladder p50, p90, p99,
// p99.9 (in per mille) that has at least ten of n samples beyond it. ok is
// false when even the median has fewer than ten samples beyond it.
func tailPerMille(n int) (pm int, ok bool) {
	for _, p := range []int{999, 990, 900, 500} {
		if n*(1000-p) >= 10*1000 {
			return p, true
		}
	}
	return 500, false
}

// percentile returns the nearest-rank percentile (in per mille) of d, which
// must be sorted; 0 for no samples.
func percentile(d []time.Duration, pm int) time.Duration {
	if len(d) == 0 {
		return 0
	}
	rank := (len(d)*pm + 999) / 1000 // ceil(n·p)
	if rank < 1 {
		rank = 1
	}
	return d[rank-1]
}
