// Command signoffbench measures the paper's sign-off flow end to end and
// layer by layer: the configuration matrix through regress.Run on both
// views, ending in the canonical report. Run it from the repository root
// through run.sh, which builds it:
//
//	bash signoffbench/run.sh --workload signoff-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer ones. The last line of standard output is the JSON result; the
// exit code is non-zero when a correctness gate fails. README.md describes
// the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"crve/internal/lint"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// configDir is the matrix `regress -config configs` signs off, relative to
// the repository root.
const configDir = "configs"

// One set-up takes about a millisecond, and its speed follows the host's
// swings within seconds. A run times setupReps repetitions after the
// warm-up and setupPerBatch more before each timed batch, so setup_s, the
// median of them all, samples the host over the whole run as the batch
// metrics do.
const (
	setupReps     = 100
	setupPerBatch = 20
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "signoff-cold, signoff-warm or bughunt")
		seed    = flag.Int64("seed", 1, "workload seed; the matrix seeds derive from it")
		seconds = flag.Int("seconds", 10, "how long the timed phase runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 || *seed > 1<<40 {
		fmt.Fprintln(os.Stderr, "signoffbench: need --workload {signoff-cold|signoff-warm|bughunt}, --seed in [0, 2^40], --seconds >= 1, --trace {0|1}")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "signoffbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "signoffbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	e := &env{tests: testcases.All(), workers: runtime.NumCPU(), work: work}
	seeds := matrixSeeds(*seed)
	fmt.Printf("workload %s, seed %d: matrix seeds %v, %d workers, %d s\n", w.name, *seed, seeds, e.workers, *seconds)
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = endToEndRun(w, e, seeds, dur)
	} else {
		res, err = tracedRun(w, e, seeds, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "signoffbench:", err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "signoffbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// setup repeats the pre-dispatch phase of `regress -config configs -cache
// DIR` (load and lint the parameter files, load the configurations, open
// the cache) and returns the time of each repetition. It leaves the loaded
// configurations in e.
func setup(e *env, seeds []int64, reps int, tr *tracer) ([]float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s := tr.begin("regress.load", -1)
		srcs, err := regress.LoadSourceDir(configDir)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("lint.check", -1)
		rep := lint.CheckSet(srcs, seeds)
		tr.end(s)
		if rep.HasErrors() {
			return nil, fmt.Errorf("lint: %s", rep.Summary())
		}
		s = tr.begin("regress.load", -1)
		cfgs, err := regress.LoadConfigDir(configDir)
		if err == nil {
			_, err = regress.OpenCache(filepath.Join(e.work, "setup", fmt.Sprint(i)))
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		e.cfgs = cfgs
	}
	return times, os.RemoveAll(filepath.Join(e.work, "setup"))
}

// batchSample is what one timed batch cost.
type batchSample struct {
	wall, cpu     float64
	allocs, bytes uint64
	units         int
	cycles        uint64
}

var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

func readMetrics(names []string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// cpuTime is the process's user plus system time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runBatch runs passes back to back as one closed-loop sample, gates every
// pass and returns the sample, the results and the failed-unit count.
func runBatch(e *env, passes []pass, g *gates) (batchSample, []passResult, int, error) {
	m0 := readMetrics(allocMetrics)
	c0 := cpuTime()
	t0 := time.Now()
	rs := make([]passResult, len(passes))
	for i, p := range passes {
		rs[i] = runPass(e, p)
	}
	wall := time.Since(t0).Seconds()
	c1 := cpuTime()
	m1 := readMetrics(allocMetrics)
	s := batchSample{
		wall: wall, cpu: c1 - c0,
		allocs: m1[0].Value.Uint64() - m0[0].Value.Uint64(),
		bytes:  m1[1].Value.Uint64() - m0[1].Value.Uint64(),
	}
	failed := 0
	for i, p := range passes {
		failed += g.check(e, p, rs[i])
		s.units += e.units(p)
		s.cycles += rs[i].cycles()
	}
	return s, rs, failed, e.dropFresh()
}

// prepare sets up a run: one untimed set-up, the workload's untimed
// warm-up passes (which also fill the warm workload's cache), then the
// timed set-up repetitions. Timing set-up in the warmed process keeps it
// clear of the first pass's start-up costs.
func prepare(w workload, e *env, seeds []int64, g *gates, tr *tracer) ([]float64, error) {
	if _, err := setup(e, seeds, 1, nil); err != nil {
		return nil, err
	}
	if _, _, _, err := runBatch(e, w.warmup(seeds), g); err != nil {
		return nil, err
	}
	return setup(e, seeds, setupReps, tr)
}

// timedBatches repeats the workload's batch until d has passed. Before each
// batch it times setupEach set-ups and appends their times to setupTimes.
func timedBatches(w workload, e *env, seeds []int64, g *gates, d time.Duration, setupEach int, setupTimes *[]float64) ([]batchSample, []passResult, int, error) {
	var samples []batchSample
	var last []passResult
	failed := 0
	start := time.Now()
	for len(samples) == 0 || time.Since(start) < d {
		times, err := setup(e, seeds, setupEach, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		*setupTimes = append(*setupTimes, times...)
		s, rs, f, err := runBatch(e, w.batch(seeds), g)
		if err != nil {
			return nil, nil, 0, err
		}
		samples, last, failed = append(samples, s), rs, failed+f
	}
	return samples, last, failed, nil
}

func endToEndRun(w workload, e *env, seeds []int64, d time.Duration) (result, error) {
	g := newGates()
	setupTimes, err := prepare(w, e, seeds, g, nil)
	if err != nil {
		return result{}, err
	}
	samples, last, failed, err := timedBatches(w, e, seeds, g, d, setupPerBatch, &setupTimes)
	if err != nil {
		return result{}, err
	}
	// Live heap after a forced GC, with the last batch's results held.
	runtime.GC()
	live := readMetrics([]string{"/gc/heap/live:bytes"})[0].Value.Uint64()
	runtime.KeepAlive(last)

	attempted := 0
	pick := func(f func(s batchSample) float64) float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return median(v)
	}
	for _, s := range samples {
		attempted += s.units
	}
	values := map[string]float64{
		"wall_s":               pick(func(s batchSample) float64 { return s.wall }),
		"cpu_s":                pick(func(s batchSample) float64 { return s.cpu }),
		"cycles_per_s":         pick(func(s batchSample) float64 { return float64(s.cycles) / s.wall }),
		"units_per_cpu_s":      pick(func(s batchSample) float64 { return float64(s.units) / s.cpu }),
		"allocs_per_unit":      pick(func(s batchSample) float64 { return float64(s.allocs) / float64(s.units) }),
		"alloc_bytes_per_unit": pick(func(s batchSample) float64 { return float64(s.bytes) / float64(s.units) }),
		"live_heap_mb":         float64(live) / 1e6,
		"pass_share":           float64(attempted-failed) / float64(attempted),
		"setup_s":              median(setupTimes),
	}
	fmt.Printf("%d timed batches of %d units each; wall s:", len(samples), samples[0].units)
	for _, s := range samples {
		fmt.Printf(" %.3f", s.wall)
	}
	fmt.Println()
	return finish(w, seeds, g, attempted, failed, endToEnd, values), nil
}

// finish prints the gate summary and the metric table and assembles the
// result.
func finish(w workload, seeds []int64, g *gates, attempted, failed int, defs []metricDef, values map[string]float64) result {
	for _, line := range g.summary(append(w.warmup(seeds), w.batch(seeds)...)) {
		fmt.Println(line)
	}
	for _, p := range g.problems {
		fmt.Println("GATE FAILED:", p)
	}
	res := result{Correct: len(g.problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		fmt.Printf("  %-36s %16.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

// tracedRun measures the per-layer metrics in three phases:
//  1. untraced regress.Run batches for the run's duration under the CPU
//     profiler (layer shares, GC, and the untraced wall time);
//  2. one batch re-driven through public calls with a span on each layer
//     boundary, on the same number of workers (span times and the tracing
//     overhead);
//  3. the same batch re-driven on one worker with allocation counting and
//     kernel statistics (allocations per call and the counts).
//
// Both re-driven batches must reproduce regress.Run's reports byte for byte.
func tracedRun(w workload, e *env, seeds []int64, d time.Duration) (result, error) {
	g := newGates()
	tr := newTracer(false, 0)
	if _, err := prepare(w, e, seeds, g, tr); err != nil {
		return result{}, err
	}
	passes := w.batch(seeds)
	units := 0
	for _, p := range passes {
		units += e.units(p)
	}

	var prof bytes.Buffer
	gcNames := []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}
	gc0 := readMetrics(gcNames)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	var unused []float64 // set-up stays out of the profile
	samples, last, failed, err := timedBatches(w, e, seeds, g, d, 0, &unused)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	gc1 := readMetrics(gcNames)
	walls := make([]float64, len(samples))
	attempted := 0
	for i, s := range samples {
		walls[i], attempted = s.wall, attempted+s.units
	}

	t0 := time.Now()
	if err := redriveBatch(e, passes, last, e.workers, tr, false, g, nil); err != nil {
		return result{}, err
	}
	tracedWall := time.Since(t0).Seconds()

	ctr := newTracer(true, 3*setupReps+8*units+64) // 3 spans per set-up, at most 8 per unit
	if _, err := setup(e, seeds, setupReps/2, ctr); err != nil {
		return result{}, err
	}
	var c counts
	entryBytes := &sizeStat{}
	if err := redriveBatch(e, passes, last, 1, ctr, true, g, func(cache *regress.Cache, o counts) {
		c.add(o)
		if cache != nil {
			entryBytes.addDir(cache.Dir())
		}
	}); err != nil {
		return result{}, err
	}

	parsed, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	shares, nsamples := cpuShares(parsed)
	values := spanValues(tr.spans, ctr.spans)
	for l, v := range shares {
		values["cpu_share."+l] = v
	}
	gcCPU := gc1[1].Value.Float64() - gc0[1].Value.Float64()
	busyCPU := (gc1[2].Value.Float64() - gc0[2].Value.Float64()) - (gc1[3].Value.Float64() - gc0[3].Value.Float64())
	values["sim.cycles"] = float64(c.cycles)
	values["sim.deltas_per_cycle"] = ratio(float64(c.deltas), float64(c.cycles))
	values["sim.evals_per_cycle"] = ratio(float64(c.evals), float64(c.cycles))
	values["core.transactions"] = float64(c.transactions)
	values["core.failing_units"] = float64(c.failingUnits)
	values["vcd.wave_bytes_per_unit"] = ratio(float64(c.waveBytes), float64(c.simulated))
	values["regress.cache_entry_bytes"] = entryBytes.mean()
	values["regress.cache_hits"] = float64(c.hits)
	values["regress.cache_misses"] = float64(c.misses)
	values["runtime.gc_cycles"] = float64(gc1[0].Value.Uint64()-gc0[0].Value.Uint64()) / float64(len(samples))
	values["runtime.gc_cpu_share"] = 100 * ratio(gcCPU, busyCPU)
	values["bench.trace_overhead_s"] = tracedWall - median(walls)
	values["bench.profile_samples"] = float64(nsamples)
	fmt.Printf("%d profiled batches; traced batch %.3f s against untraced median %.3f s\n", len(samples), tracedWall, median(walls))
	printSpanTable(tr.spans)
	return finish(w, seeds, g, attempted, failed, perLayer(), values), nil
}

// redriveBatch re-drives every pass of a batch and checks each report
// against regress.Run's. each, when set, sees every pass's cache and counts.
func redriveBatch(e *env, passes []pass, want []passResult, workers int, tr *tracer, kernelStats bool, g *gates, each func(*regress.Cache, counts)) error {
	for i, p := range passes {
		cache, err := e.cache(p.cache)
		if err != nil {
			return err
		}
		report, c, err := redrive(context.Background(), e, p, cache, workers, tr, kernelStats)
		switch {
		case err != nil:
			g.failf("%s re-driven on %d workers: %v", p.label, workers, err)
		case !bytes.Equal(report, want[i].report):
			g.failf("%s re-driven on %d workers: canonical report differs from regress.Run's", p.label, workers)
		}
		if each != nil {
			each(cache, c)
		}
	}
	return e.dropFresh()
}

// spanValues computes the span metrics: times from the timing trace,
// allocations per call from the counting trace.
func spanValues(timed, counted []span) map[string]float64 {
	ts, cs := summarize(timed), summarize(counted)
	values := map[string]float64{}
	for _, name := range spanNames {
		st := ts[name]
		if st == nil {
			st = &spanStats{}
		}
		sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
		pm, _ := tailPerMille(len(st.durs))
		values[name+".calls"] = float64(st.calls)
		values[name+".busy_s"] = st.busy.Seconds()
		values[name+".self_s"] = st.self.Seconds()
		values[name+".p50_ms"] = ms(percentile(st.durs, 500))
		values[name+".ptail_ms"] = ms(percentile(st.durs, pm))
		values[name+".allocs_per_call"] = 0
		if c := cs[name]; c != nil {
			values[name+".allocs_per_call"] = float64(c.allocs) / float64(c.calls)
		}
	}
	return values
}

// printSpanTable prints each span's sample count and which percentile its
// ptail_ms reports.
func printSpanTable(spans []span) {
	ts := summarize(spans)
	fmt.Println("span                     calls  ptail")
	for _, name := range spanNames {
		n := 0
		if st := ts[name]; st != nil {
			n = st.calls
		}
		pm, ok := tailPerMille(n)
		label := fmt.Sprintf("p%g", float64(pm)/10)
		if !ok {
			label += " (fewer than 10 samples beyond it)"
		}
		fmt.Printf("  %-22s %6d  %s\n", name, n, label)
	}
}

// sizeStat averages the sizes of cache entry files.
type sizeStat struct {
	bytes, files int64
}

func (s *sizeStat) addDir(dir string) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil // an unreadable entry only drops out of the average
		}
		if info, err := d.Info(); err == nil {
			s.bytes += info.Size()
			s.files++
		}
		return nil
	})
}

func (s *sizeStat) mean() float64 { return ratio(float64(s.bytes), float64(s.files)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
