package main

// This file re-drives one regress pass through the public calls the engine
// makes, so spans can sit on each layer boundary without touching the
// program. It follows regress.Run's scalar path unit by unit: cache probe,
// RTL view with a recording, BCA view aligned against it, coverage
// equality, cache store, then the canonical-order merge and the report. The
// traced run checks that the report it builds is byte-identical to
// regress.Run's, which keeps this copy honest. It probes the cache once per
// unit, where the engine's flight group probes a missing key twice.

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/vcd"
)

// counts are the per-layer counts of a re-driven pass.
type counts struct {
	cycles, deltas, evals uint64
	transactions          int
	failingUnits          int
	waveBytes             int
	simulated             int
	hits, misses          int
}

func (c *counts) add(o counts) {
	c.cycles += o.cycles
	c.deltas += o.deltas
	c.evals += o.evals
	c.transactions += o.transactions
	c.failingUnits += o.failingUnits
	c.waveBytes += o.waveBytes
	c.simulated += o.simulated
	c.hits += o.hits
	c.misses += o.misses
}

type unit struct {
	cfgIdx int
	cfg    nodespec.Config
	test   core.Test
	seed   int64
}

type unitOut struct {
	pair   *core.PairResult
	cached bool
	counts counts
	wave   *vcd.Recording // kept for counting, outside the unit's span
	err    error
}

// redrive runs pass p with the given number of workers and returns the
// canonical report. kernelStats also collects the simulation-kernel
// profile into the returned counts; it is dropped before the cache store,
// as regress.Run without KernelStats would store no profile.
func redrive(ctx context.Context, e *env, p pass, cache *regress.Cache, workers int, tr *tracer, kernelStats bool) ([]byte, counts, error) {
	run := tr.begin("regress.run", -1)
	results := make([]*regress.ConfigResult, len(e.cfgs))
	var units []unit
	for ci := range e.cfgs {
		cfg := e.cfgs[ci].WithDefaults()
		results[ci] = &regress.ConfigResult{
			Cfg:              cfg,
			SuiteCoverage:    catg.NewCoverageModel(cfg, regress.SuiteTraffic(cfg)).Group,
			CodeCov:          coverage.NewCodeMap(),
			CoverageAllEqual: true,
			MinAlignment:     100,
		}
		for _, test := range e.tests {
			for _, seed := range p.seeds {
				units = append(units, unit{cfgIdx: ci, cfg: cfg, test: test, seed: seed})
			}
		}
	}

	outs := make([]unitOut, len(units))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := runUnit(ctx, units[i], p, cache, tr, run, kernelStats)
				if o.wave != nil {
					o.counts.waveBytes, o.wave = len(o.wave.Encode()), nil
				}
				outs[i] = o
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()

	var total counts
	var stats regress.Stats
	for i, u := range units {
		o := outs[i]
		if o.err != nil {
			tr.end(run)
			return nil, total, fmt.Errorf("%s/%s seed %d: %w", u.cfg.Name, u.test.Name, u.seed, o.err)
		}
		total.add(o.counts)
		m := tr.begin("regress.merge", run)
		err := merge(results[u.cfgIdx], u, o)
		tr.end(m)
		if err != nil {
			tr.end(run)
			return nil, total, err
		}
		if o.cached {
			stats.Cached++
		} else {
			stats.Ran++
			stats.Cycles += o.pair.RTL.Cycles + o.pair.BCA.Cycles
		}
	}
	rs := tr.begin("regress.report", run)
	var buf bytes.Buffer
	err := regress.WriteJSON(&buf, regress.BuildReport(results, stats))
	tr.end(rs)
	tr.end(run)
	return buf.Bytes(), total, err
}

// runUnit is one unit of the engine's scalar path with a span per call.
func runUnit(ctx context.Context, u unit, p pass, cache *regress.Cache, tr *tracer, parent int, kernelStats bool) (out unitOut) {
	us := tr.begin("regress.unit", parent)
	defer tr.end(us)
	var key string
	if cache != nil {
		key = cache.Key(u.cfg, u.test.Name, u.seed, p.bugs, "")
		s := tr.begin("regress.cache_load", us)
		if rec, ok := cache.Load(key); ok {
			out.pair, out.cached = rec.Result(u.cfg), true
		}
		tr.end(s)
		if out.cached {
			out.counts = counts{hits: 1, transactions: out.pair.RTL.Transactions, failingUnits: failing(out.pair)}
			return out
		}
		out.counts.misses = 1
	}

	s := tr.begin("core.rtl_view", us)
	rres, err := core.RunTestCtx(ctx, u.cfg, core.RTLView, u.test, u.seed, core.RunOptions{RecordWave: true, KernelStats: kernelStats})
	tr.end(s)
	if err != nil {
		out.err = fmt.Errorf("RTL run: %w", err)
		return out
	}
	s = tr.begin("core.bca_view", us)
	bres, err := core.RunTestCtx(ctx, u.cfg, core.BCAView, u.test, u.seed, core.RunOptions{AlignWith: rres.Wave, KernelStats: kernelStats, Bugs: p.bugs})
	tr.end(s)
	if err != nil {
		out.err = fmt.Errorf("BCA run: %w", err)
		return out
	}

	c := &out.counts
	c.simulated = 1
	if kernelStats {
		out.wave = rres.Wave
		for _, k := range []*core.RunResult{rres, bres} {
			c.cycles += k.Kernel.Cycles
			c.deltas += k.Kernel.Deltas
			for _, ps := range k.Kernel.Procs {
				c.evals += ps.Evals
			}
			k.Kernel = nil
		}
	}
	pair := &core.PairResult{RTL: rres, BCA: bres, Alignment: bres.Alignment}
	bres.Alignment = nil
	rres.Wave = nil // only the alignment reference
	s = tr.begin("coverage.equal", us)
	pair.CoverageEqual, pair.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	tr.end(s)
	out.pair = pair
	c.transactions, c.failingUnits = rres.Transactions, failing(pair)

	if cache != nil {
		s = tr.begin("regress.cache_store", us)
		err = cache.Store(key, u.cfg, u.test.Name, u.seed, pair.Record())
		tr.end(s)
		out.err = err
	}
	return out
}

// merge folds one unit into its configuration aggregate, as the engine's
// merge goroutine does.
func merge(cr *regress.ConfigResult, u unit, o unitOut) error {
	pair := o.pair
	cr.Runs = append(cr.Runs, regress.TestRun{Test: u.test.Name, Seed: u.seed, Pair: pair, Cached: o.cached})
	if !pair.RTL.Passed() {
		cr.RTLFailures++
	}
	if !pair.BCA.Passed() {
		cr.BCAFailures++
	}
	if !pair.CoverageEqual {
		cr.CoverageAllEqual = false
	}
	if r := pair.Alignment.MinRate(); r < cr.MinAlignment {
		cr.MinAlignment = r
	}
	if err := cr.SuiteCoverage.Merge(pair.RTL.Coverage); err != nil {
		return fmt.Errorf("coverage merge: %w", err)
	}
	if pair.RTL.CodeCov != nil {
		cr.CodeCov.Merge(pair.RTL.CodeCov)
	}
	return nil
}

func failing(p *core.PairResult) int {
	if p.SignedOff() {
		return 0
	}
	return 1
}
