package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/testcases"
)

func smallEnv(t *testing.T) *env {
	t.Helper()
	var tests []core.Test
	for _, name := range []string{"basic_write_read", "random_mixed"} {
		tc, err := testcases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, tc)
	}
	return &env{cfgs: regress.StandardMatrix()[:2], tests: tests, workers: 2, work: t.TempDir()}
}

// TestRedriveReproducesRegressRun checks that the span-instrumented re-drive
// builds the same canonical report as regress.Run on every kind of pass:
// cold with a cache, warm from it, and a bugged BCA view without one.
func TestRedriveReproducesRegressRun(t *testing.T) {
	e := smallEnv(t)
	seeds := []int64{7, 8}
	fill := pass{label: "fill", seeds: seeds, cache: filledCache, signOff: true}
	for _, p := range []pass{
		{label: "cold", seeds: seeds, cache: freshCache, signOff: true},
		fill,
		warmPass(seeds),
		{label: "bug", seeds: seeds[:1], bugs: bca.AllBugs()[2]},
	} {
		want := runPass(e, p)
		if want.err != nil {
			t.Fatalf("%s: regress.Run: %v", p.label, want.err)
		}
		for _, c := range []struct {
			workers     int
			kernelStats bool
		}{{2, false}, {1, true}} {
			if p.label == "fill" {
				break // re-driving the fill would find it cached
			}
			cache, err := e.cache(p.cache)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(c.workers == 1, 256)
			got, n, err := redrive(context.Background(), e, p, cache, c.workers, tr, c.kernelStats)
			if err != nil {
				t.Fatalf("%s on %d workers: %v", p.label, c.workers, err)
			}
			if !bytes.Equal(got, want.report) {
				t.Errorf("%s on %d workers: report differs from regress.Run's", p.label, c.workers)
			}
			units := e.units(p)
			if n.hits+n.misses != map[cacheMode]int{noCache: 0, freshCache: units, filledCache: units}[p.cache] {
				t.Errorf("%s: %d hits + %d misses for %d units", p.label, n.hits, n.misses, units)
			}
			if c.kernelStats && !p.fromCache && (n.cycles != want.cycles() || n.evals == 0 || n.waveBytes == 0) {
				t.Errorf("%s: counted %d cycles, %d evals, %d wave bytes; regress.Run simulated %d cycles",
					p.label, n.cycles, n.evals, n.waveBytes, want.cycles())
			}
			if got := summarize(tr.spans)["regress.unit"].calls; got != units {
				t.Errorf("%s: %d unit spans, want %d", p.label, got, units)
			}
		}
		if err := e.dropFresh(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGatesCatchAMovedReport(t *testing.T) {
	e := smallEnv(t)
	g := newGates()
	p := pass{label: "cold", seeds: []int64{3}, cache: freshCache, signOff: true}
	r := runPass(e, p)
	if failed := g.check(e, p, r); failed != 0 || len(g.problems) != 0 {
		t.Fatalf("clean pass: %d failed, problems %v", failed, g.problems)
	}
	r.report = append([]byte(nil), r.report...)
	r.report[len(r.report)/2] ^= 1
	g.check(e, p, r)
	if len(g.problems) != 1 {
		t.Errorf("changed report: problems %v, want one", g.problems)
	}
	bug := pass{label: "bug", seeds: []int64{3}, bugs: bca.Bugs{}}
	g.check(e, bug, runPass(e, bug))
	if len(g.problems) != 2 {
		t.Errorf("clean BCA in a bug pass: problems %v, want a second one", g.problems)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer(false, 0)
	root := tr.begin("run", -1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := tr.begin("unit", root)
				tr.end(tr.begin(fmt.Sprint("leaf", i%2), s))
				tr.end(s)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	st := summarize(tr.spans)
	if st["unit"].calls != 400 || st["leaf0"].calls+st["leaf1"].calls != 400 {
		t.Errorf("calls: unit %d, leaves %d+%d", st["unit"].calls, st["leaf0"].calls, st["leaf1"].calls)
	}
	if st["run"].self < 0 || st["run"].self > st["run"].busy {
		t.Errorf("run self %v outside [0, %v]", st["run"].self, st["run"].busy)
	}
}
