package sim

import (
	"errors"
	"fmt"
)

// DefaultMaxDeltas bounds the number of delta cycles the kernel will run
// within a single clock cycle before declaring combinational oscillation.
const DefaultMaxDeltas = 1000

// ErrOscillation is returned by Step and Run when combinational processes
// fail to reach a fixed point within MaxDeltas delta cycles, i.e. the design
// contains an unstable combinational loop.
var ErrOscillation = errors.New("sim: combinational logic did not settle (oscillation)")

// ForceDeltaLoop, when set before New, makes new simulators settle with the
// legacy iterate-to-fixpoint delta loop instead of the levelized scheduler.
// It exists for the kernel-equivalence property tests and for the ablation
// benchmarks; production callers leave it false.
var ForceDeltaLoop bool

// StrictSensitivity, when set before New, makes new simulators panic when a
// combinational process reads a signal outside its sensitivity list. Such a
// process is undersensitized: it would not be re-run when the signal
// changes, and the levelized scheduler would rank it against an incomplete
// input set. Test suites enable this; production callers leave it false.
var StrictSensitivity bool

type process struct {
	name string
	fn   func()
	seq  bool
	inQ  bool

	// id is the dense registration index among combinational processes,
	// assigned at levelization; it doubles as the deterministic tiebreaker.
	id int
	// evals counts evaluations, for the kernel profiling surface.
	evals uint64
	// sampleNS accumulates 1-in-8 sampled evaluation wall time when the
	// simulator's Timing flag is set.
	sampleNS int64

	// declared reports that outs came from CombOut rather than from the
	// time-zero write-recording fallback.
	declared bool
	// outs holds the signals this process drives (declared or learned).
	outs []*Signal
	// sens is the sensitivity list as registered.
	sens []*Signal
	// sensBits is a bitset over signal IDs backing the strict-sensitivity
	// check.
	sensBits []uint64

	// unit/rank/cyclic are the levelization results (valid when frozen).
	unit   int
	rank   int
	cyclic bool
}

// noteOut records s as a driven signal of p (learning fallback for legacy
// Comb registrations). Output lists are short, so a linear scan beats a map.
func (p *process) noteOut(s *Signal) {
	for _, o := range p.outs {
		if o == s {
			return
		}
	}
	p.outs = append(p.outs, s)
}

func (p *process) setSensBit(id int) {
	w := id >> 6
	for len(p.sensBits) <= w {
		p.sensBits = append(p.sensBits, 0)
	}
	p.sensBits[w] |= 1 << (uint(id) & 63)
}

func (p *process) sensHas(id int) bool {
	w := id >> 6
	return w < len(p.sensBits) && p.sensBits[w]&(1<<(uint(id)&63)) != 0
}

// sccUnit is one strongly connected component of the combinational process
// graph, the scheduling unit of the levelized settler. Units are kept in
// topological order of the condensation (ties within a rank break by
// registration order).
type sccUnit struct {
	procs  []*process // members, in registration order
	rank   int
	cyclic bool
	queued int // members currently woken
}

// Simulator owns a set of signals and processes and advances them under a
// single implicit synchronous clock. Cycle numbering starts at 0; within each
// cycle the kernel:
//
//  1. runs every sequential process once (they observe values settled at the
//     end of the previous cycle),
//  2. commits scheduled signal updates and settles combinational processes —
//     by default with the levelized scheduler (one ranked sweep over the
//     SCC condensation of the process graph, iterating to a fixed point only
//     inside cyclic components), or with the bounded iterate-to-fixpoint
//     delta loop when ForceDeltaLoop is set,
//  3. invokes end-of-cycle hooks (monitors, tracers) which observe the fully
//     settled cycle.
//
// Both settling strategies reach the same fixed point on acyclic logic (the
// fixed point is unique) and iterate deterministically inside cyclic
// components, so waveforms are identical either way.
type Simulator struct {
	signals []*Signal
	seqs    []*process
	combs   []*process
	hooks   []func()

	// pending/runQ and their spares are double-buffered so the settle hot
	// loop is allocation-free in steady state.
	pending   []*Signal
	pendSpare []*Signal
	runQ      []*process
	runQSpare []*process

	// units is the topologically ordered SCC condensation, built at the
	// Step-time elaboration freeze; nil when levelization is disabled.
	units       []*sccUnit
	totalQueued int
	maxRank     int

	cycle  uint64
	frozen bool

	// cur is the process currently evaluating (nil outside evaluations);
	// it anchors the strict-sensitivity check and output learning.
	cur *process

	MaxDeltas int

	// Timing enables 1-in-8 sampled per-process wall-time collection for
	// Stats. Off by default: the hot loop pays only a flag check.
	Timing bool

	// ForceDeltaLoop disables the levelized scheduler on this simulator;
	// it must be set before the first Step. Initialized from the package
	// variable of the same name.
	ForceDeltaLoop bool

	// Strict enables the strict-sensitivity debug check on this simulator.
	// Initialized from the package variable StrictSensitivity.
	Strict bool

	// DeltaCount accumulates the total number of delta iterations executed,
	// exposed for the kernel-convergence ablation benchmarks. The levelized
	// scheduler charges one delta per settle plus one per extra fixpoint
	// iteration inside cyclic components (and per mop-up pass after an
	// undeclared write fed an already-swept rank).
	DeltaCount uint64

	// settles/settleHist back the Stats settle-depth histogram.
	settles    uint64
	settleHist [settleHistBuckets]uint64
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{
		MaxDeltas:      DefaultMaxDeltas,
		ForceDeltaLoop: ForceDeltaLoop,
		Strict:         StrictSensitivity,
	}
}

// Signal creates a new signal with the given hierarchical name and bit width.
func (sm *Simulator) Signal(name string, width int) *Signal {
	if width <= 0 || width > MaxBitsWidth {
		panic(fmt.Sprintf("sim: signal %q width %d out of range 1..%d", name, width, MaxBitsWidth))
	}
	s := &Signal{sim: sm, id: len(sm.signals), name: name, width: width, mask: &maskTab[width]}
	sm.signals = append(sm.signals, s)
	return s
}

// Bool creates a 1-bit signal.
func (sm *Simulator) Bool(name string) *Signal { return sm.Signal(name, 1) }

// Signals returns all signals in creation order. The returned slice is owned
// by the simulator and must not be mutated.
func (sm *Simulator) Signals() []*Signal { return sm.signals }

// Cycle returns the number of completed clock cycles.
func (sm *Simulator) Cycle() uint64 { return sm.cycle }

// Seq registers a sequential (clocked) process, run once per cycle in
// registration order.
func (sm *Simulator) Seq(name string, fn func()) {
	sm.seqs = append(sm.seqs, &process{name: name, fn: fn, seq: true, unit: -1})
}

// Comb registers a combinational process sensitive to the given signals. The
// process runs whenever any of them changes, and once at the start of
// simulation to establish initial outputs. Its driven signals are learned by
// recording its writes on that mandatory time-zero evaluation; processes
// whose writes are conditional should declare them with CombOut instead so
// the levelized scheduler ranks them exactly.
func (sm *Simulator) Comb(name string, fn func(), sensitivity ...*Signal) {
	sm.addComb(name, fn, nil, false, sensitivity)
}

// CombOut registers a combinational process that declares the signals it
// drives. Sensitivity (inputs) plus outputs give the levelized scheduler the
// exact dependency edges of the process, with no reliance on the time-zero
// learning fallback.
func (sm *Simulator) CombOut(name string, fn func(), outputs []*Signal, sensitivity ...*Signal) {
	sm.addComb(name, fn, outputs, true, sensitivity)
}

func (sm *Simulator) addComb(name string, fn func(), outs []*Signal, declared bool, sens []*Signal) {
	p := &process{name: name, fn: fn, declared: declared, unit: -1}
	for _, s := range sens {
		if s.sim != sm {
			panic(fmt.Sprintf("sim: process %q sensitive to foreign signal %q", name, s.name))
		}
		s.sensitive = append(s.sensitive, p)
		p.setSensBit(s.id)
	}
	p.sens = append(p.sens, sens...)
	for _, s := range outs {
		if s.sim != sm {
			panic(fmt.Sprintf("sim: process %q declares foreign output %q", name, s.name))
		}
		p.noteOut(s)
	}
	sm.combs = append(sm.combs, p)
	// Any new combinational process invalidates the levelization; the next
	// Step re-freezes (and runs the new process's time-zero evaluation).
	sm.unfreeze()
	sm.wake(p)
}

// unfreeze drops the levelized schedule so the next Step re-elaborates.
// Queued wakes are re-homed onto the legacy run queue.
func (sm *Simulator) unfreeze() {
	if !sm.frozen && sm.units == nil {
		return
	}
	sm.frozen = false
	if sm.units != nil {
		for _, u := range sm.units {
			if u.queued == 0 {
				continue
			}
			for _, p := range u.procs {
				if p.inQ {
					sm.runQ = append(sm.runQ, p)
					u.queued--
				}
			}
		}
		sm.units = nil
		sm.totalQueued = 0
	}
}

// AtCycleEnd registers a read-only observer hook invoked after each cycle
// fully settles (monitors, tracers, checkers). Hooks must not drive signals:
// a hook write would re-settle combinational logic after other observers
// already sampled it, making "the value of the cycle" ambiguous. Anything
// that drives signals — bus functional models included — belongs in a Seq
// process.
func (sm *Simulator) AtCycleEnd(fn func()) {
	sm.hooks = append(sm.hooks, fn)
}

func (sm *Simulator) wake(p *process) {
	if p.inQ {
		return
	}
	p.inQ = true
	if sm.units != nil {
		sm.units[p.unit].queued++
		sm.totalQueued++
	} else {
		sm.runQ = append(sm.runQ, p)
	}
}

// eval runs one process evaluation with the current-process context set for
// strict-sensitivity checking and output learning. With Timing set, one in
// eight evaluations per process is wall-clock sampled for the profile.
func (sm *Simulator) eval(p *process) {
	sm.cur = p
	p.evals++
	if sm.Timing && p.evals&7 == 1 {
		t0 := nowNS()
		p.fn()
		p.sampleNS += nowNS() - t0
	} else {
		p.fn()
	}
	sm.cur = nil
}

// commit applies every pending signal write and wakes the processes
// sensitive to the ones that changed, reporting whether any did. The pending
// list is double-buffered, not reallocated.
func (sm *Simulator) commit() bool {
	pend := sm.pending
	sm.pending = sm.pendSpare[:0]
	changed := false
	for _, s := range pend {
		s.pending = false
		if s.next.Equal(s.cur) {
			continue
		}
		s.cur = s.next
		changed = true
		for _, p := range s.sensitive {
			sm.wake(p)
		}
	}
	sm.pendSpare = pend[:0]
	return changed
}

// settle commits pending writes and runs woken combinational processes until
// a fixed point, dispatching to the levelized scheduler when a schedule is
// in place and recording the settle-depth histogram.
func (sm *Simulator) settle() error {
	sm.settles++
	start := sm.DeltaCount
	var err error
	if sm.units != nil {
		err = sm.settleLevelized()
	} else {
		err = sm.settleLoop()
	}
	d := sm.DeltaCount - start
	if d >= settleHistBuckets {
		d = settleHistBuckets - 1
	}
	sm.settleHist[d]++
	return err
}

// settleLoop is the legacy bounded iterate-to-fixpoint delta loop: evaluate
// every woken process, commit, repeat until nothing changes. Its run queue
// is double-buffered so steady-state settling does not allocate.
func (sm *Simulator) settleLoop() error {
	for delta := 0; ; delta++ {
		if delta > sm.MaxDeltas {
			return fmt.Errorf("%w after %d deltas at cycle %d", ErrOscillation, delta, sm.cycle)
		}
		// Evaluate phase: run every queued process.
		q := sm.runQ
		sm.runQ = sm.runQSpare[:0]
		for _, p := range q {
			p.inQ = false
			sm.eval(p)
		}
		sm.runQSpare = q[:0]
		// Update phase: commit writes, wake sensitive processes.
		changed := sm.commit()
		sm.DeltaCount++
		if !changed && len(sm.runQ) == 0 {
			return nil
		}
	}
}

// freeze is the Step-time elaboration freeze: it runs the time-zero settle
// under the legacy loop — during which legacy Comb processes have their
// writes recorded as outputs — then levelizes the process graph (unless
// ForceDeltaLoop is set).
func (sm *Simulator) freeze() error {
	if err := sm.settle(); err != nil {
		return err
	}
	if !sm.ForceDeltaLoop {
		sm.buildLevels()
	}
	sm.frozen = true
	return nil
}

// Step advances the simulation by one clock cycle.
func (sm *Simulator) Step() error {
	if !sm.frozen {
		if err := sm.freeze(); err != nil {
			return err
		}
	}
	for _, p := range sm.seqs {
		sm.eval(p)
	}
	if err := sm.settle(); err != nil {
		return err
	}
	sm.cycle++
	for _, h := range sm.hooks {
		h()
	}
	if len(sm.pending) > 0 {
		return fmt.Errorf("sim: cycle-end hook drove signal %q; hooks are read-only observers, use a Seq process", sm.pending[0].name)
	}
	return nil
}

// Run advances the simulation n cycles, stopping early on error.
func (sm *Simulator) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := sm.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances the simulation until done reports true or the cycle
// limit is hit, returning an error in the latter case.
func (sm *Simulator) RunUntil(done func() bool, limit int) error {
	for i := 0; i < limit; i++ {
		if done() {
			return nil
		}
		if err := sm.Step(); err != nil {
			return err
		}
	}
	if done() {
		return nil
	}
	return fmt.Errorf("sim: condition not reached within %d cycles", limit)
}
