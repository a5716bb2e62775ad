package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
)

// cacheMode says which result cache a pass runs against.
type cacheMode int

const (
	noCache     cacheMode = iota
	freshCache            // a new, empty directory per pass
	filledCache           // the one directory the workload fills before timing
)

// pass is one regress.Run call over the configuration matrix.
type pass struct {
	label string
	seeds []int64
	bugs  bca.Bugs
	cache cacheMode
	// fromCache expects every unit served from the cache; otherwise a pass
	// with a cache must simulate every unit.
	fromCache bool
	// signOff expects every pair to sign off; otherwise the pass runs a
	// bugged BCA view and at least one unit must catch the bug.
	signOff bool
	// sameAs names an earlier pass whose canonical report this one must
	// equal byte for byte, apart from the cache-outcome fields.
	sameAs string
}

// workload is one benchmark input: the untimed passes that warm the process
// (and fill the cache) and the batch of passes one timed sample runs.
type workload struct {
	name, why string
	warmup    func(seeds []int64) []pass
	batch     func(seeds []int64) []pass
}

var workloads = []workload{
	{
		name: "signoff-cold",
		why:  "full sign-off matrix, two seeds per (config, test), empty cache: every unit simulates both views and stores its record",
		warmup: func(seeds []int64) []pass {
			return []pass{coldPass(seeds)}
		},
		batch: func(seeds []int64) []pass {
			return []pass{coldPass(seeds)}
		},
	},
	{
		name: "signoff-warm",
		why:  "the same matrix served entirely from a filled cache: no simulation, only cache load, merge and report",
		warmup: func(seeds []int64) []pass {
			fill := coldPass(seeds)
			fill.label, fill.cache = "fill", filledCache
			return []pass{fill, warmPass(seeds)}
		},
		batch: func(seeds []int64) []pass {
			return []pass{warmPass(seeds)}
		},
	},
	{
		name: "bughunt",
		why:  "each of the five BCA bugs over the matrix, one seed per (config, test): failing traces, checker violations and stalls",
		warmup: func(seeds []int64) []pass {
			return bugPasses(seeds[:1])[:1]
		},
		batch: func(seeds []int64) []pass {
			return bugPasses(seeds[:1])
		},
	},
}

func coldPass(seeds []int64) pass {
	return pass{label: "cold", seeds: seeds, cache: freshCache, signOff: true}
}

func warmPass(seeds []int64) pass {
	return pass{label: "warm", seeds: seeds, cache: filledCache, fromCache: true, signOff: true, sameAs: "fill"}
}

func bugPasses(seeds []int64) []pass {
	var out []pass
	for i, b := range bca.AllBugs() {
		out = append(out, pass{label: "bug " + bca.BugNames()[i], seeds: seeds, bugs: b})
	}
	return out
}

// matrixSeeds derives the per-(config, test) seed list from the workload
// seed, so distinct workload seeds never share a matrix seed.
func matrixSeeds(seed int64) []int64 {
	return []int64{seed*1000 + 1, seed*1000 + 2}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is the state one benchmark process runs its passes in.
type env struct {
	cfgs    []nodespec.Config
	tests   []core.Test
	workers int
	work    string // working directory inside the checkout
	filled  *regress.Cache
	fresh   []string
}

func (e *env) units(p pass) int { return len(e.cfgs) * len(e.tests) * len(p.seeds) }

// cache returns the result cache pass p runs against.
func (e *env) cache(m cacheMode) (*regress.Cache, error) {
	switch m {
	case freshCache:
		dir := filepath.Join(e.work, fmt.Sprintf("cache-%d", len(e.fresh)))
		e.fresh = append(e.fresh, dir)
		return regress.OpenCache(dir)
	case filledCache:
		if e.filled == nil {
			c, err := regress.OpenCache(filepath.Join(e.work, "filled"))
			if err != nil {
				return nil, err
			}
			e.filled = c
		}
		return e.filled, nil
	}
	return nil, nil
}

// dropFresh deletes the fresh cache directories of finished passes.
func (e *env) dropFresh() error {
	for _, d := range e.fresh {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	e.fresh = e.fresh[:0]
	return nil
}

// passResult is the outcome of one pass and its canonical report.
type passResult struct {
	results []*regress.ConfigResult
	stats   regress.Stats
	report  []byte
	err     error
}

// runPass runs pass p through regress.Run and renders the canonical report,
// as `regress -config configs -cache DIR -json` does after its set-up.
func runPass(e *env, p pass) passResult {
	cache, err := e.cache(p.cache)
	if err != nil {
		return passResult{err: err}
	}
	results, stats, err := regress.Run(e.cfgs, regress.Options{
		Tests: e.tests, Seeds: p.seeds, Bugs: p.bugs, Workers: e.workers,
		Cache: cache, NoLint: true, // linted in set-up, as the CLI does
	})
	if err != nil {
		return passResult{err: err}
	}
	var buf bytes.Buffer
	err = regress.WriteJSON(&buf, regress.BuildReport(results, stats))
	return passResult{results: results, stats: stats, report: buf.Bytes(), err: err}
}

// cycles totals both views' cycles over every unit of the pass, cached
// units at their recorded cost.
func (r passResult) cycles() uint64 {
	var n uint64
	for _, cr := range r.results {
		for _, run := range cr.Runs {
			n += run.Pair.RTL.Cycles + run.Pair.BCA.Cycles
		}
	}
	return n
}

// gates applies the correctness checks to every pass a run makes.
type gates struct {
	ref      map[string][]byte // first canonical report per pass label
	failing  map[string]int    // failing units per pass label
	problems []string
}

func newGates() *gates {
	return &gates{ref: map[string][]byte{}, failing: map[string]int{}}
}

func (g *gates) failf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// check gates one pass and returns how many of its units failed: all of
// them on an error, and on a sign-off pass every pair that did not sign off.
// A pass that repeats an earlier label must reproduce its report exactly.
func (g *gates) check(e *env, p pass, r passResult) (failed int) {
	planned := e.units(p)
	if r.err != nil {
		g.failf("%s: %v", p.label, r.err)
		return planned
	}
	units, failing, signed := 0, 0, 0
	for _, cr := range r.results {
		if cr.SignedOff() {
			signed++
		}
		for _, run := range cr.Runs {
			units++
			if !run.Pair.SignedOff() {
				failing++
			}
		}
	}
	if units != planned {
		g.failf("%s: %d units merged, %d planned", p.label, units, planned)
	}
	switch {
	case p.cache == noCache:
	case p.fromCache && r.stats.Ran != 0:
		g.failf("%s: %s, want every unit from the cache", p.label, r.stats)
	case !p.fromCache && (r.stats.Ran != units || r.stats.Cached != 0):
		g.failf("%s: %s, want every unit simulated", p.label, r.stats)
	}
	if p.signOff {
		if signed != len(r.results) {
			g.failf("%s: signed off %d/%d configurations", p.label, signed, len(r.results))
		}
		failed = failing
	} else if failing == 0 {
		g.failf("%s: no unit caught the bug", p.label)
	}
	if ref, ok := g.ref[p.label]; !ok {
		g.ref[p.label], g.failing[p.label] = r.report, failing
	} else if !bytes.Equal(ref, r.report) {
		g.failf("%s: canonical report differs from the first run of this pass", p.label)
	}
	if p.sameAs != "" {
		a, errA := normalized(g.ref[p.sameAs])
		b, errB := normalized(r.report)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			g.failf("%s: canonical report differs from %s beyond the cache-outcome fields", p.label, p.sameAs)
		}
	}
	return failed
}

// normalized re-renders a canonical report with the cache-outcome fields
// (each run's cached flag and the unit totals) cleared.
func normalized(report []byte) ([]byte, error) {
	var rep regress.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, err
	}
	rep.Units = regress.UnitTotals{}
	for i := range rep.Configs {
		for j := range rep.Configs[i].Runs {
			rep.Configs[i].Runs[j].Cached = false
		}
	}
	var buf bytes.Buffer
	err := regress.WriteJSON(&buf, &rep)
	return buf.Bytes(), err
}

// summary prints each pass's failing-unit count and report hash.
func (g *gates) summary(passes []pass) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range passes {
		if ref, ok := g.ref[p.label]; ok && !seen[p.label] {
			seen[p.label] = true
			out = append(out, fmt.Sprintf("pass %-24s failing units %4d  report sha256 %x", p.label, g.failing[p.label], sha256.Sum256(ref)))
		}
	}
	return out
}
