// Package core assembles the paper's contribution: the Common Reusable
// Verification Environment. One environment — harnesses, monitors, protocol
// checkers, scoreboard, functional coverage (all from internal/catg) — into
// which either design view plugs unchanged:
//
//	DUT (RTL or BCA)  ←→  CATG bench  →  reports + VCD
//
// RunTest executes one (test file, seed) pair against one view; RunPair
// executes the same pair against both views, streams the STBus Analyzer
// comparison across them (full VCD dumps are opt-in artifacts, no longer the
// comparison medium) and checks functional-coverage equality — the full
// flow of the paper's Figures 4 and 5.
package core

import (
	"bytes"
	"context"
	"fmt"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// View names a design view of the IP.
type View int

const (
	// RTLView is the synthesisable signal-level model.
	RTLView View = iota
	// BCAView is the bus-cycle-accurate model wrapped for the common bench.
	BCAView
)

func (v View) String() string {
	if v == BCAView {
		return "BCA"
	}
	return "RTL"
}

// DUT is what the common environment needs from a design view: its port
// bundles and, when available, its code-coverage instrumentation. Both node
// views satisfy it through the adapters below.
type DUT interface {
	// InitPorts returns the initiator-facing ports.
	InitPorts() []*stbus.Port
	// TgtPorts returns the target-facing ports.
	TgtPorts() []*stbus.Port
	// CodeCoverage returns the instrumentation map, nil when the view has
	// none (the BCA case: "no tool is able to generate this metrics for
	// SystemC").
	CodeCoverage() *coverage.CodeMap
	// View identifies the design view.
	View() View
}

type rtlDUT struct{ n *rtl.Node }

func (d rtlDUT) InitPorts() []*stbus.Port        { return d.n.Init }
func (d rtlDUT) TgtPorts() []*stbus.Port         { return d.n.Tgt }
func (d rtlDUT) CodeCoverage() *coverage.CodeMap { return d.n.Code }
func (d rtlDUT) View() View                      { return RTLView }

type bcaDUT struct{ n *bca.Node }

func (d bcaDUT) InitPorts() []*stbus.Port        { return d.n.Init }
func (d bcaDUT) TgtPorts() []*stbus.Port         { return d.n.Tgt }
func (d bcaDUT) CodeCoverage() *coverage.CodeMap { return nil }
func (d bcaDUT) View() View                      { return BCAView }

// BuildDUT elaborates the requested view of the node under sc. bugs applies
// to the BCA view only (the RTL view is the reference).
func BuildDUT(sc sim.Scope, cfg nodespec.Config, view View, bugs bca.Bugs) (DUT, error) {
	switch view {
	case RTLView:
		n, err := rtl.NewNode(sc, cfg)
		if err != nil {
			return nil, err
		}
		return rtlDUT{n}, nil
	case BCAView:
		n, err := bca.NewNode(sc, cfg, bugs)
		if err != nil {
			return nil, err
		}
		return bcaDUT{n}, nil
	default:
		return nil, fmt.Errorf("core: unknown view %d", int(view))
	}
}

// Test is one test file of the suite: named traffic and target-timing
// constraints, reusable across every node configuration (the paper's twelve
// "generic" test cases "depend on some HDL parameters" and "can be reused
// for all configurations").
type Test struct {
	Name string
	// Traffic configures the initiator BFMs. TrafficFor allows per-initiator
	// specialisation; when nil, Traffic applies to every initiator.
	Traffic    catg.TrafficConfig
	TrafficFor func(cfg nodespec.Config, initIdx int) catg.TrafficConfig
	// Target configures the target BFMs. TargetFor allows per-target
	// specialisation (e.g. one slow target to force out-of-order traffic).
	Target    catg.TargetConfig
	TargetFor func(cfg nodespec.Config, tgtIdx int) catg.TargetConfig
	// MaxCycles bounds the run (0 = derived from traffic volume).
	MaxCycles int
}

func (t Test) trafficFor(cfg nodespec.Config, i int) catg.TrafficConfig {
	if t.TrafficFor != nil {
		return t.TrafficFor(cfg, i)
	}
	return t.Traffic
}

func (t Test) targetFor(cfg nodespec.Config, tg int) catg.TargetConfig {
	if t.TargetFor != nil {
		return t.TargetFor(cfg, tg)
	}
	return t.Target
}

// RunResult is the verification report of one (test, seed, view) run.
type RunResult struct {
	Test  string
	Seed  int64
	View  View
	DUTIn nodespec.Config

	Cycles       uint64
	Drained      bool
	Transactions int
	// Latencies holds one total latency (cycles) per completed initiator-side
	// transaction, for performance analyses.
	Latencies   []uint64
	Violations  []catg.Violation
	ScoreErrors []string
	Coverage    *coverage.Group
	CodeCov     *coverage.CodeMap
	VCD         []byte
	// Wave is the compact binary waveform recording, captured when
	// RunOptions.RecordWave is set — the storable artifact that can re-serve
	// values or the byte-identical text VCD on demand.
	Wave *vcd.Recording
	// Alignment is the streaming STBA report against RunOptions.AlignWith.
	Alignment *stba.Report
	// Kernel is the simulation-kernel profile, collected when
	// RunOptions.KernelStats is set.
	Kernel *sim.KernelStats
}

// Passed reports whether every automatic check of the run succeeded.
func (r *RunResult) Passed() bool {
	return r.Drained && len(r.Violations) == 0 && len(r.ScoreErrors) == 0
}

// Summary renders the one-line verdict of the run.
func (r *RunResult) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-4s %-24s seed=%-6d %s: %d cycles, %d txs, %d violations, %d scoreboard errors, cov %.1f%%",
		r.View, r.Test, r.Seed, verdict, r.Cycles, r.Transactions, len(r.Violations),
		len(r.ScoreErrors), r.Coverage.Percent())
}

// RunOptions tunes a RunTest invocation.
type RunOptions struct {
	// DumpVCD captures the DUT port waveforms as full-fidelity text VCD.
	// The paired comparison no longer needs it: alignment streams online.
	DumpVCD bool
	// RecordWave captures the DUT port waveforms as a compact binary
	// Recording (RunResult.Wave) — the artifact tier that replaces text VCD.
	RecordWave bool
	// AlignWith, when set, attaches a streaming STBA observer comparing the
	// run's port signals cycle-by-cycle against this reference recording;
	// the per-port report lands in RunResult.Alignment.
	AlignWith *vcd.Recording
	// LegacyAlignment makes RunPairOpt compute alignment through the
	// write-two-VCDs / parse / Compare round trip instead of the observer —
	// kept for ablation and equivalence testing.
	LegacyAlignment bool
	// KernelStats collects the kernel profile (per-process evaluation
	// counts, settle-depth histogram, SCC inventory) into RunResult.Kernel,
	// and enables sampled per-process wall-time collection.
	KernelStats bool
	// Bugs applies to the BCA view.
	Bugs bca.Bugs
}

// RunTest builds a fresh simulator, elaborates the requested view, wires the
// common bench around it, runs the test to drain and collects every report.
func RunTest(cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions) (*RunResult, error) {
	return RunTestCtx(context.Background(), cfg, view, test, seed, opt)
}

// benchInst is one fully wired bench+DUT instance: the per-run state of
// RunTestCtx. Construction (buildBench) is kept apart from the run loop so
// bench elaboration shows up as one frame in CPU profiles, and so a bench
// can later be built once and reused across seeds.
type benchInst struct {
	dut        DUT
	res        *RunResult
	bfms       []*catg.InitiatorBFM
	initMons   []*catg.Monitor
	tgtMons    []*catg.Monitor
	checkers   []*catg.Checker
	sb         *catg.Scoreboard
	cov        *catg.CoverageModel
	traceSigs  []*sim.Signal
	totalCells int
	buf        bytes.Buffer
	wr         *vcd.Writer
	rc         *vcd.Recorder
	obs        *stba.Observer
}

// buildBench elaborates the requested view under sm and wires the common
// environment around it: BFMs, monitors, checkers, scoreboard, coverage, and
// whichever waveform/alignment taps the options request. cfg must already
// have its defaults applied.
func buildBench(sm *sim.Simulator, cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions) (*benchInst, error) {
	b := &benchInst{res: &RunResult{Test: test.Name, Seed: seed, View: view, DUTIn: cfg}}
	dut, err := BuildDUT(sim.Root(sm), cfg, view, opt.Bugs)
	if err != nil {
		return nil, err
	}
	b.dut = dut

	// traceSigs collects the DUT port signals, in port order, for whichever
	// waveform/alignment taps the options request.
	tracing := opt.DumpVCD || opt.RecordWave || opt.AlignWith != nil
	for i, p := range dut.InitPorts() {
		ops := catg.GenerateOps(cfg, test.trafficFor(cfg, i), i, seed)
		for _, o := range ops {
			b.totalCells += len(o.Cells) + o.IdleBefore
		}
		b.bfms = append(b.bfms, catg.NewInitiatorBFM(sm, p, ops))
		mon := catg.NewMonitor(sm, p, i, true, catg.NodeRouter(cfg, i))
		res := b.res
		mon.OnComplete(func(tr *stbus.Transaction) {
			res.Latencies = append(res.Latencies, tr.Latency())
		})
		b.initMons = append(b.initMons, mon)
		b.checkers = append(b.checkers, catg.NewChecker(sm, p, cfg, true, catg.NodeRouter(cfg, i)))
		if tracing {
			b.traceSigs = append(b.traceSigs, p.Signals()...)
		}
	}
	for tg, p := range dut.TgtPorts() {
		catg.NewTargetBFM(sm, p, test.targetFor(cfg, tg), catg.TargetSeed(seed, tg))
		b.tgtMons = append(b.tgtMons, catg.NewMonitor(sm, p, tg, false, nil))
		b.checkers = append(b.checkers, catg.NewChecker(sm, p, cfg, false, nil))
		if tracing {
			b.traceSigs = append(b.traceSigs, p.Signals()...)
		}
	}
	b.sb = catg.NewScoreboard(cfg, b.initMons, b.tgtMons)
	b.cov = catg.NewCoverageModel(cfg, test.trafficFor(cfg, 0))
	b.cov.SubscribeMonitors(sm, b.initMons)
	if opt.DumpVCD {
		b.wr = vcd.NewWriter(&b.buf, "tb")
		for _, s := range b.traceSigs {
			b.wr.Declare(s)
		}
		b.wr.Attach(sm)
	}
	if opt.RecordWave {
		b.rc = vcd.NewRecorder("tb")
		for _, s := range b.traceSigs {
			b.rc.Declare(s)
		}
		b.rc.Attach(sm)
	}
	if opt.AlignWith != nil {
		b.obs, err = stba.NewObserver(opt.AlignWith, b.traceSigs)
		if err != nil {
			return nil, err
		}
		b.obs.Attach(sm)
	}
	return b, nil
}

// limit returns the run's cycle bound: the test's own, or one derived from
// this bench's traffic volume.
func (b *benchInst) limit(test Test) int {
	if test.MaxCycles != 0 {
		return test.MaxCycles
	}
	return 2000 + b.totalCells*60
}

// done reports whether every initiator BFM has drained its program.
func (b *benchInst) done() bool {
	for _, bf := range b.bfms {
		if !bf.Done() {
			return false
		}
	}
	return true
}

// collect finalises the run report from the bench observers. The caller has
// already set Drained and Cycles.
func (b *benchInst) collect() (*RunResult, error) {
	res := b.res
	for _, c := range b.checkers {
		res.Violations = append(res.Violations, c.Violations...)
	}
	res.ScoreErrors = b.sb.Check()
	res.Coverage = b.cov.Group
	res.CodeCov = b.dut.CodeCoverage()
	for _, m := range b.initMons {
		res.Transactions += len(m.CompletedTxs())
	}
	if b.wr != nil {
		if err := b.wr.Flush(); err != nil {
			return nil, err
		}
		res.VCD = b.buf.Bytes()
	}
	if b.rc != nil {
		res.Wave = b.rc.Recording()
	}
	if b.obs != nil {
		res.Alignment = b.obs.Report()
	}
	return res, nil
}

// RunTestCtx is RunTest under a cancellation context: the run loop polls ctx
// every few cycles and aborts with ctx's error, so a served job can be
// cancelled mid-simulation, not just between units. A context without a
// cancel path (context.Background()) costs the hot loop nothing.
func RunTestCtx(ctx context.Context, cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions) (*RunResult, error) {
	cfg = cfg.WithDefaults()
	sm := sim.New()
	sm.Timing = opt.KernelStats
	b, err := buildBench(sm, cfg, view, test, seed, opt)
	if err != nil {
		return nil, err
	}
	limit := b.limit(test)
	done := b.done
	cancelled := false
	if ctx.Done() != nil {
		inner := done
		tick := 0
		done = func() bool {
			if tick++; tick&63 == 0 && ctx.Err() != nil {
				cancelled = true
				return true // stop RunUntil; the abort is detected below
			}
			return inner()
		}
	}
	err = sm.RunUntil(done, limit)
	if cancelled {
		return nil, fmt.Errorf("core: %s %s seed %d: %w", view, test.Name, seed, ctx.Err())
	}
	b.res.Drained = err == nil
	if err == nil {
		// A short tail so registered responses and monitors settle.
		if err := sm.Run(5); err != nil {
			return nil, err
		}
	}
	b.res.Cycles = sm.Cycle()
	res, err := b.collect()
	if err != nil {
		return nil, err
	}
	if opt.KernelStats {
		res.Kernel = sm.Stats()
	}
	return res, nil
}

// PairResult is the outcome of running the same (test, seed) on both views
// and comparing them — the complete common-flow iteration of Figure 4.
type PairResult struct {
	RTL, BCA *RunResult
	// Alignment is the per-port STBA comparison of the two waveform dumps.
	Alignment *stba.Report
	// CoverageEqual reports whether functional coverage matched bin by bin.
	CoverageEqual bool
	CoverageDiff  string
}

// SignedOff reports the paper's sign-off criterion: both runs pass their
// checks, functional coverage is identical, and every port is at or above
// the 99 % alignment rate.
func (p *PairResult) SignedOff() bool {
	return p.RTL.Passed() && p.BCA.Passed() && p.CoverageEqual && p.Alignment.AllPass()
}

// RunPair runs one (test, seed) against the RTL and the BCA views, then
// performs the bus-accurate comparison and the coverage-equality check.
func RunPair(cfg nodespec.Config, test Test, seed int64, bugs bca.Bugs) (*PairResult, error) {
	return RunPairOpt(cfg, test, seed, RunOptions{Bugs: bugs})
}

// RunPairOpt is RunPair with full run options. By default the bus-accurate
// comparison streams: the RTL run captures a compact binary recording, the
// BCA run replays it through an online observer, and no VCD text is ever
// built — DumpVCD and RecordWave are honoured as given, purely as artifact
// requests. LegacyAlignment restores the write/parse/Compare round trip.
func RunPairOpt(cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	return RunPairCtx(context.Background(), cfg, test, seed, opt)
}

// RunPairCtx is RunPairOpt under a cancellation context, threaded through
// both view runs.
func RunPairCtx(ctx context.Context, cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	if opt.LegacyAlignment {
		return runPairLegacy(ctx, cfg, test, seed, opt)
	}
	rtlOpt := RunOptions{DumpVCD: opt.DumpVCD, RecordWave: true, KernelStats: opt.KernelStats}
	rres, err := RunTestCtx(ctx, cfg, RTLView, test, seed, rtlOpt)
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	bcaOpt := RunOptions{
		DumpVCD: opt.DumpVCD, RecordWave: opt.RecordWave, AlignWith: rres.Wave,
		KernelStats: opt.KernelStats, Bugs: opt.Bugs,
	}
	bres, err := RunTestCtx(ctx, cfg, BCAView, test, seed, bcaOpt)
	if err != nil {
		return nil, fmt.Errorf("core: BCA run: %w", err)
	}
	pr := &PairResult{RTL: rres, BCA: bres, Alignment: bres.Alignment}
	bres.Alignment = nil
	if !opt.RecordWave {
		// The RTL recording was only the alignment reference; drop it unless
		// the caller asked for the artifact.
		rres.Wave = nil
	}
	pr.CoverageEqual, pr.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	return pr, nil
}

// runPairLegacy is the pre-streaming pipeline: dump both runs as text VCD,
// parse both, Compare. Kept behind RunOptions.LegacyAlignment for ablation
// and for the streaming-equivalence property test.
func runPairLegacy(ctx context.Context, cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	rtlOpt := RunOptions{DumpVCD: true, RecordWave: opt.RecordWave, KernelStats: opt.KernelStats}
	rres, err := RunTestCtx(ctx, cfg, RTLView, test, seed, rtlOpt)
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	bcaOpt := RunOptions{DumpVCD: true, RecordWave: opt.RecordWave, KernelStats: opt.KernelStats, Bugs: opt.Bugs}
	bres, err := RunTestCtx(ctx, cfg, BCAView, test, seed, bcaOpt)
	if err != nil {
		return nil, fmt.Errorf("core: BCA run: %w", err)
	}
	fr, err := vcd.Parse(bytes.NewReader(rres.VCD))
	if err != nil {
		return nil, err
	}
	fb, err := vcd.Parse(bytes.NewReader(bres.VCD))
	if err != nil {
		return nil, err
	}
	rep, err := stba.Compare(fr, fb, nil)
	if err != nil {
		return nil, err
	}
	pr := &PairResult{RTL: rres, BCA: bres, Alignment: rep}
	if !opt.DumpVCD {
		// Legacy alignment needs the text dumps internally, but the caller
		// did not ask for them as artifacts — keep the result shape identical
		// to the streaming path.
		rres.VCD, bres.VCD = nil, nil
	}
	pr.CoverageEqual, pr.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	return pr, nil
}
