package jobs

// This file is the bounded scheduler: a fixed pool of executor slots pulls
// queued jobs and drives the regress/closure engines under a per-job
// cancellation context. Every job shares the manager's content-addressed
// result cache, so overlapping submissions dedupe at the work-unit level —
// the cache's in-process flight group guarantees a unit is simulated at most
// once even when identical jobs run concurrently.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"crve/internal/closure"
	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/vcd"
)

// Options configures a Manager.
type Options struct {
	// Cache is the shared result store. Optional but strongly recommended:
	// without it every job simulates everything and nothing dedupes.
	Cache *regress.Cache
	// Workers bounds each job's engine worker pool (0 = GOMAXPROCS).
	Workers int
	// Slots bounds how many jobs run concurrently (default 2).
	Slots int
	// QueueDepth bounds the submission queue (default 256); Submit fails
	// fast when the backlog is full instead of blocking the API.
	QueueDepth int
	// Log, when non-nil, receives one line per job state transition.
	Log io.Writer
}

// Manager owns the job table and the executor pool.
type Manager struct {
	opt Options

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	closed bool

	queue     chan *Job
	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc
}

// NewManager starts a manager with opt.Slots executor goroutines.
func NewManager(opt Options) *Manager {
	if opt.Slots <= 0 {
		opt.Slots = 2
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opt:       opt,
		jobs:      make(map[string]*Job),
		queue:     make(chan *Job, opt.QueueDepth),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	for i := 0; i < opt.Slots; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.execute(job)
			}
		}()
	}
	return m
}

// Submit validates spec, registers a queued job and hands it to the
// executor pool. A spec that cannot resolve (unknown test, bad config text,
// nothing to run) fails here, before a job ID exists.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	res, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: manager is draining, not accepting jobs")
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("j%04d", m.nextID),
		Spec:    spec,
		res:     res,
		state:   Queued,
		created: time.Now(),
		subs:    make(map[chan Status]struct{}),
		waves:   make(map[string]*vcd.Recording),
	}
	job.progress.Total = len(res.cfgs) * len(res.tests) * len(res.seeds)
	// Enqueue under the lock: Drain closes the queue under the same lock,
	// so a submission can never race a send onto a closed channel.
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		return nil, fmt.Errorf("jobs: queue full (%d pending)", cap(m.queue))
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()
	m.logf("job %s queued (%d configs, %d tests, %d seeds)",
		job.ID, len(res.cfgs), len(res.tests), len(res.seeds))
	return job, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cache exposes the shared result store (nil when the manager runs
// cacheless).
func (m *Manager) Cache() *regress.Cache { return m.opt.Cache }

// Cancel stops a job: a queued job goes terminal immediately (the executor
// skips it), a running job has its context cancelled and reaches the
// cancelled state once the engine unwinds. Cancelling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) error {
	job, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	switch {
	case job.state == Queued:
		job.state = Cancelled
		job.finished = time.Now()
		job.closeSubsLocked()
		m.logf("job %s cancelled while queued", job.ID)
	case job.state == Running && job.cancel != nil:
		job.cancel()
		m.logf("job %s cancel requested", job.ID)
	}
	return nil
}

// Drain stops accepting submissions, cancels everything still queued and
// waits for running jobs to finish — the graceful-shutdown path. If ctx
// expires first, running jobs are cancelled and the drain waits for them to
// unwind to their terminal states.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	ids := append([]string(nil), m.order...)
	// Close under the lock — see Submit for the pairing.
	close(m.queue)
	m.mu.Unlock()

	// Queued jobs will never get a slot once the queue closes; cancel them
	// so clients see a terminal state instead of an eternal "queued".
	for _, id := range ids {
		if job, ok := m.Get(id); ok {
			job.mu.Lock()
			if job.state == Queued {
				job.state = Cancelled
				job.finished = time.Now()
				job.closeSubsLocked()
			}
			job.mu.Unlock()
		}
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancelAll()
		<-done
		return ctx.Err()
	}
}

// execute drives one job start to finish on an executor slot.
func (m *Manager) execute(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	job.mu.Lock()
	if job.state != Queued { // cancelled while waiting for a slot
		job.mu.Unlock()
		return
	}
	job.state = Running
	job.started = time.Now()
	job.cancel = cancel
	job.broadcastLocked()
	job.mu.Unlock()
	m.logf("job %s running", job.ID)

	results, stats, err := regress.RunCtx(ctx, job.res.cfgs, regress.Options{
		Tests: job.res.tests, Seeds: job.res.seeds,
		NoLint: job.Spec.NoLint, Workers: m.opt.Workers, Cache: m.opt.Cache,
		KernelStats: job.Spec.KernelStats, RecordWave: job.Spec.RecordWave,
		Log: jobLog{job}, Progress: job.onProgress,
	})
	if err == nil {
		job.commit(stats)
		if job.Spec.Close {
			err = m.runClosure(ctx, job, results, &stats)
		}
	}
	m.finish(job, results, stats, err)
}

// runClosure runs the coverage-closure loop on every configuration the
// suite left below full functional coverage, accumulating trajectories and
// unit statistics into the job.
func (m *Manager) runClosure(ctx context.Context, job *Job, results []*regress.ConfigResult, stats *regress.Stats) error {
	for _, cr := range results {
		if cr.SuiteCoverage.Full() {
			continue
		}
		res, err := closure.CloseGroupCtx(ctx, cr.Cfg, cr.SuiteCoverage, closure.Options{
			Seeds: job.res.seeds, Workers: m.opt.Workers, Cache: m.opt.Cache,
			MaxIters: job.Spec.MaxIters, Budget: job.Spec.Budget, Log: jobLog{job},
		})
		if err != nil {
			return err
		}
		cs := res.ClosureStats
		stats.Ran += cs.Ran
		stats.Cached += cs.Cached
		job.mu.Lock()
		job.closures = append(job.closures, res.Trajectory)
		job.mu.Unlock()
		job.commit(regress.Stats{Ran: cs.Ran, Cached: cs.Cached, Cycles: res.Trajectory.TotalCycles})
	}
	return nil
}

// finish moves the job to its terminal state, builds the canonical report
// and the waveform index, and releases subscribers.
func (m *Manager) finish(job *Job, results []*regress.ConfigResult, stats regress.Stats, err error) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = Done
		job.results = results
		job.stats = stats
		job.stats.Duration = job.finished.Sub(job.started)
		job.report = regress.BuildReport(results, job.stats)
		for _, cr := range results {
			for _, run := range cr.Runs {
				for view, r := range map[string]*core.RunResult{"rtl": run.Pair.RTL, "bca": run.Pair.BCA} {
					if r.Wave != nil {
						job.waves[waveKey(cr.Cfg.Name, run.Test, run.Seed, view)] = r.Wave
					}
				}
			}
		}
	case errors.Is(err, context.Canceled):
		job.state = Cancelled
		job.err = err.Error()
	default:
		job.state = Failed
		job.err = err.Error()
	}
	job.closeSubsLocked()
	m.logf("job %s %s", job.ID, job.state)
}

func (m *Manager) logf(format string, args ...any) {
	if m.opt.Log != nil {
		fmt.Fprintf(m.opt.Log, "regressd: "+format+"\n", args...)
	}
}
