// Package jobs is the job tier of the served verification flow: it wraps
// the regress/closure engines in an explicit job lifecycle
// (queued → running → done/failed/cancelled) behind a bounded scheduler, so
// many clients can submit matrix runs into one long-lived process sharing
// one content-addressed result cache. The HTTP surface (internal/api) and
// the dashboard (internal/web) are thin views over this package; nothing in
// it knows about HTTP.
package jobs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

// State is a job's lifecycle position.
type State string

const (
	// Queued — accepted, waiting for an executor slot.
	Queued State = "queued"
	// Running — an executor is driving the engine.
	Running State = "running"
	// Done — the run completed; results and the report are available.
	Done State = "done"
	// Failed — the run errored (lint gate, simulation failure, ...).
	Failed State = "failed"
	// Cancelled — the client (or shutdown) cancelled the job before it
	// completed. Work units finished before the cancel remain in the shared
	// cache; nothing else ran.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Spec is a job submission: which configurations to run, with which tests
// and seeds, and which extras to collect. It is the POST /api/v1/jobs body.
type Spec struct {
	// Matrix selects the standard ≥36-configuration matrix; Quick restricts
	// it to the first 6 (the CI slice).
	Matrix bool `json:"matrix,omitempty"`
	Quick  bool `json:"quick,omitempty"`
	// Configs holds inline HDL-parameter files (the .cfg text format), one
	// configuration each, appended after any matrix selection.
	Configs []string `json:"configs,omitempty"`
	// Tests names the suite subset (default: all twelve generic tests).
	Tests []string `json:"tests,omitempty"`
	// Seeds lists the per-test seeds (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// NoLint skips the static-analysis gate.
	NoLint bool `json:"nolint,omitempty"`
	// KernelStats collects the simulation-kernel profile per unit.
	KernelStats bool `json:"kernelstats,omitempty"`
	// RecordWave keeps compact binary waveform recordings (.crw) per run,
	// served back via GET .../wave/{config}/{test}/{seed}/{view}.
	RecordWave bool `json:"record_wave,omitempty"`
	// Close runs the coverage-closure loop on configurations the suite
	// leaves below 100% functional coverage; MaxIters/Budget bound it.
	Close    bool   `json:"close,omitempty"`
	MaxIters int    `json:"max_iters,omitempty"`
	Budget   uint64 `json:"budget,omitempty"`
}

// resolved is a validated spec: concrete configurations and tests.
type resolved struct {
	cfgs  []nodespec.Config
	tests []core.Test
	seeds []int64
}

// resolve validates the spec into runnable form, so a bad submission fails
// at submit time with a client error, not mid-job.
func (s Spec) resolve() (resolved, error) {
	var r resolved
	if s.Matrix {
		r.cfgs = regress.StandardMatrix()
		if s.Quick {
			r.cfgs = r.cfgs[:6]
		}
	} else if s.Quick {
		return r, fmt.Errorf("jobs: \"quick\" needs \"matrix\"")
	}
	for i, text := range s.Configs {
		cfg, err := regress.ParseConfig(strings.NewReader(text))
		if err != nil {
			return r, fmt.Errorf("jobs: configs[%d]: %w", i, err)
		}
		r.cfgs = append(r.cfgs, cfg)
	}
	if len(r.cfgs) == 0 {
		return r, fmt.Errorf("jobs: empty spec: set \"matrix\" or supply \"configs\"")
	}
	if len(s.Tests) == 0 {
		r.tests = testcases.All()
	} else {
		for _, name := range s.Tests {
			tc, err := testcases.ByName(name)
			if err != nil {
				return r, fmt.Errorf("jobs: %w", err)
			}
			r.tests = append(r.tests, tc)
		}
	}
	r.seeds = s.Seeds
	if len(r.seeds) == 0 {
		r.seeds = []int64{1}
	}
	return r, nil
}

// ProgressStatus is the live counter block of a job status.
type ProgressStatus struct {
	// Total is the planned work-unit count; Done counts units merged so
	// far, split into Ran (simulated) and Cached (served from the store).
	Total  int `json:"total"`
	Done   int `json:"done"`
	Ran    int `json:"ran"`
	Cached int `json:"cached"`
	// Cycles totals simulated cycles so far (both views, ran units only);
	// CyclesPerSec is the engine-computed throughput over the job's
	// wall-clock so far.
	Cycles       uint64  `json:"cycles"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Config/Test/Seed identify the most recently merged unit.
	Config string `json:"config,omitempty"`
	Test   string `json:"test,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// Status is a point-in-time snapshot of a job — the GET /api/v1/jobs/{id}
// body and the SSE event payload.
type Status struct {
	ID       string         `json:"id"`
	State    State          `json:"state"`
	Spec     Spec           `json:"spec"`
	Created  time.Time      `json:"created"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Error    string         `json:"error,omitempty"`
	Progress ProgressStatus `json:"progress"`
	// SignedOff/Total summarise the result once the job is done.
	SignedOff int `json:"signed_off,omitempty"`
	Configs   int `json:"configs,omitempty"`
}

// Job is one submitted verification run. All mutable state is behind mu;
// accessors hand out snapshots.
type Job struct {
	ID   string
	Spec Spec

	res resolved

	mu       sync.Mutex
	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	progress ProgressStatus
	// committed accumulates counters from engine runs that already finished
	// (the base matrix, then each closure loop): live Progress events are
	// relative to one engine run, so the job-level counters are
	// committed + current.
	committed ProgressStatus
	log       strings.Builder
	cancel    func()
	results   []*regress.ConfigResult
	stats     regress.Stats
	report    *regress.Report
	closures  []*core.ClosureTrajectory
	waves     map[string]*vcd.Recording
	subs      map[chan Status]struct{}
	subClosed bool
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Created: j.created, Error: j.err, Progress: j.progress,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		elapsed := time.Since(j.started)
		if !j.finished.IsZero() {
			elapsed = j.finished.Sub(j.started)
		}
		st.Progress.ElapsedMS = elapsed.Milliseconds()
		if elapsed > 0 {
			st.Progress.CyclesPerSec = float64(st.Progress.Cycles) / elapsed.Seconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.results != nil {
		st.Configs = len(j.results)
		for _, cr := range j.results {
			if cr.SignedOff() {
				st.SignedOff++
			}
		}
	}
	return st
}

// Report returns the canonical JSON report, or nil until the job is done.
func (j *Job) Report() *regress.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Results returns the per-configuration aggregates, or nil until done.
func (j *Job) Results() []*regress.ConfigResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Stats returns the engine statistics of a finished job.
func (j *Job) Stats() regress.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Closures returns the coverage-closure trajectories, if the job ran any.
func (j *Job) Closures() []*core.ClosureTrajectory {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closures
}

// Log returns the accumulated progress log.
func (j *Job) Log() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.String()
}

// Wave returns the stored waveform recording for a unit key of the form
// "config/test/seed/view" (view "rtl" or "bca"), or nil.
func (j *Job) Wave(unit string) *vcd.Recording {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.waves[unit]
}

// WaveUnits lists the unit keys with stored recordings, in report order.
func (j *Job) WaveUnits() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var keys []string
	for _, cr := range j.results {
		for _, run := range cr.Runs {
			for _, view := range []string{"rtl", "bca"} {
				k := waveKey(cr.Cfg.Name, run.Test, run.Seed, view)
				if _, ok := j.waves[k]; ok {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

func waveKey(cfg, test string, seed int64, view string) string {
	return fmt.Sprintf("%s/%s/%d/%s", cfg, test, seed, view)
}

// Subscribe registers for status events: one snapshot per merged work unit
// and per state change, closing after the terminal snapshot. Subscribing to
// a finished job yields exactly the terminal snapshot. The returned cancel
// function is idempotent and must be called when the consumer stops early.
func (j *Job) Subscribe() (<-chan Status, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Status, 16)
	if j.subClosed || j.state.Terminal() {
		ch <- j.statusLocked()
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// broadcastLocked sends the current status to every subscriber without
// blocking: a slow consumer misses intermediate snapshots, never stalls the
// engine. Callers hold mu.
func (j *Job) broadcastLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

// closeSubsLocked delivers the terminal snapshot and closes every
// subscriber. Callers hold mu.
func (j *Job) closeSubsLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
		close(ch)
		delete(j.subs, ch)
	}
	j.subClosed = true
}

// onProgress is the engine's injected sink (regress.Options.Progress),
// called from the merge goroutine in canonical order. Events are relative
// to the current engine run; the job adds its committed baseline.
func (j *Job) onProgress(p regress.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Total = j.committed.Total + p.Total
	j.progress.Done = j.committed.Done + p.Done
	j.progress.Ran = j.committed.Ran + p.Ran
	j.progress.Cached = j.committed.Cached + p.Cached
	j.progress.Cycles = j.committed.Cycles + p.Cycles
	j.progress.Config = p.Config
	j.progress.Test = p.Test
	j.progress.Seed = p.Seed
	j.broadcastLocked()
}

// commit folds a finished engine run's statistics into the committed
// baseline, so the next engine run's relative events stack correctly.
func (j *Job) commit(stats regress.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	units := stats.Ran + stats.Cached
	j.committed.Total += units
	j.committed.Done += units
	j.committed.Ran += stats.Ran
	j.committed.Cached += stats.Cached
	j.committed.Cycles += stats.Cycles
	j.progress = j.committed
	j.broadcastLocked()
}

// jobLog adapts the job to io.Writer for regress.Options.Log.
type jobLog struct{ j *Job }

// logCap bounds the per-job log; runaway logs truncate with a marker rather
// than growing without bound in a long-lived server.
const logCap = 1 << 20

func (w jobLog) Write(p []byte) (int, error) {
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	if w.j.log.Len() < logCap {
		w.j.log.Write(p)
		if w.j.log.Len() >= logCap {
			w.j.log.WriteString("\n... log truncated ...\n")
		}
	}
	return len(p), nil
}
