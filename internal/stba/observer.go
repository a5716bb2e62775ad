package stba

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"crve/internal/sim"
	"crve/internal/vcd"
)

// Observer is the streaming STBus Analyzer: it compares a live (typically
// BCA) simulation's port signals, cycle by cycle, against a reference — no
// VCD text, no parsing, no per-cycle value searches. The reference is one of
// two sources:
//
//   - a Recording captured from an earlier (RTL) run, replayed through a
//     Cursor (NewObserver; the observer Attaches to the live simulator);
//   - the live signals of a second simulator stepped in lockstep with the
//     first (NewPairObserver; the pair driver calls SamplePair after each
//     cycle of both), so no recording is ever kept.
//
// After the run, Report returns the same *Report the legacy pipeline (write
// two VCDs, Parse both, Compare) produces, byte for byte.
//
// The comparison window is min of the two sides' cycle counts, each defined
// by its last signal activity exactly like File.Cycles on a parsed dump; the
// window is therefore only known once both runs end, so per-port mismatches
// are kept as cycle bitsets and accounted at Report time (cycles at or past
// the window are discarded, the uncovered tail is charged as misaligned).
type Observer struct {
	// rec/cursor are the recorded reference; nil for a live reference.
	rec    *vcd.Recording
	cursor *vcd.Cursor

	// pairs is every compared (reference, live) signal pair, flattened port
	// by port; each port owns the range pairs[lo:hi]. One pass over it per
	// cycle tracks both sides' last activity and compares the values.
	pairs []sigPair
	ports []obsPort
	// extraLive/extraRef are traced signals under no port: they are never
	// compared but still count as activity for their side's cycle count.
	extraLive, extraRef []tracked

	samples   uint64
	live, ref activity
}

// sigPair is one compared signal: its live and reference sources, and the
// value each side held at its last sample.
type sigPair struct {
	name     string
	live     *sim.Signal
	ref      *sim.Signal // live reference; nil when replaying a recording
	recIdx   int         // recording index when replaying
	lastLive sim.Bits
	lastRef  sim.Bits
}

// tracked is a signal watched for activity only.
type tracked struct {
	sig  *sim.Signal
	last sim.Bits
}

// activity derives one side's cycle count from its last change, mirroring
// the dump's EndTime; the first sample counts as a change (the $dumpvars
// analog), exactly like Writer.
type activity struct {
	started bool
	end     uint64
}

func (a *activity) sample(cycle uint64) {
	if !a.started {
		a.started = true
		a.end = cycle
	}
}

// cycles is the side's cycle count; a side never sampled still parses as
// one all-zero cycle.
func (a *activity) cycles() uint64 { return a.end + 1 }

// obsPort is the per-port comparison state.
type obsPort struct {
	name   string
	lo, hi int // pairs range, signal names sorted — legacy pair order

	mismatch   []uint64 // bitset of mismatching cycles
	firstCycle int64    // first mismatching cycle, or -1
	firstNames []string // all mismatching signals at firstCycle
}

// NewObserver builds an observer comparing the recording (first dump) against
// the given live signals (second dump). Ports are discovered over the union
// of both sides; a port signal present on only one side is an error, exactly
// as in Compare.
func NewObserver(rec *vcd.Recording, sigs []*sim.Signal) (*Observer, error) {
	names := make([]string, rec.NumSignals())
	for i := range names {
		names[i] = rec.SignalName(i)
	}
	obs, err := newObserver(names, nil, sigs)
	if err != nil {
		return nil, err
	}
	obs.rec, obs.cursor = rec, rec.NewCursor()
	return obs, nil
}

// NewPairObserver builds an observer comparing two live signal sets: ref
// (first dump, typically RTL) against sigs (second dump, typically BCA). The
// caller steps both simulators in lockstep and calls SamplePair once per
// cycle; nothing is recorded.
func NewPairObserver(ref, sigs []*sim.Signal) (*Observer, error) {
	names := make([]string, len(ref))
	for i, s := range ref {
		names[i] = s.Name()
	}
	return newObserver(names, ref, sigs)
}

// newObserver discovers the ports over refNames ∪ live names and flattens
// their signal pairs. refSigs is nil when the reference is a recording, in
// which case refNames are its declare-ordered signal names.
func newObserver(refNames []string, refSigs, sigs []*sim.Signal) (*Observer, error) {
	liveByName := make(map[string]*sim.Signal, len(sigs))
	refByName := make(map[string]int, len(refNames))
	names := make([]string, 0, len(sigs)+len(refNames))
	for _, s := range sigs {
		liveByName[s.Name()] = s
		names = append(names, s.Name())
	}
	for i, n := range refNames {
		refByName[n] = i
		names = append(names, n)
	}

	seen := map[string]int{}
	for _, n := range names {
		dot := strings.LastIndexByte(n, '.')
		if dot < 0 {
			continue
		}
		prefix, leaf := n[:dot], n[dot+1:]
		if leaf == "req" {
			seen[prefix] |= 1
		}
		if leaf == "gnt" {
			seen[prefix] |= 2
		}
	}
	ports := portsFrom(seen)
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}

	obs := &Observer{}
	covered := map[*sim.Signal]bool{}
	for _, port := range ports {
		under := map[string]bool{}
		for _, n := range names {
			if strings.HasPrefix(n, port+".") {
				under[n] = true
			}
		}
		sorted := make([]string, 0, len(under))
		for n := range under {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		if len(sorted) == 0 {
			return nil, fmt.Errorf("stba: port %q has no signals", port)
		}
		p := obsPort{name: port, lo: len(obs.pairs), firstCycle: -1}
		for _, n := range sorted {
			ri, ok := refByName[n]
			if !ok {
				return nil, fmt.Errorf("stba: signal %q missing from first dump", n)
			}
			ls, ok := liveByName[n]
			if !ok {
				return nil, fmt.Errorf("stba: signal %q missing from second dump", n)
			}
			sp := sigPair{name: n, live: ls, recIdx: ri}
			if refSigs != nil {
				sp.ref = refSigs[ri]
				covered[sp.ref] = true
			}
			covered[ls] = true
			obs.pairs = append(obs.pairs, sp)
		}
		p.hi = len(obs.pairs)
		obs.ports = append(obs.ports, p)
	}
	for _, s := range sigs {
		if !covered[s] {
			obs.extraLive = append(obs.extraLive, tracked{sig: s})
		}
	}
	for _, s := range refSigs {
		if !covered[s] {
			obs.extraRef = append(obs.extraRef, tracked{sig: s})
		}
	}
	return obs, nil
}

// Attach registers an end-of-cycle hook on the live simulator, sampling at
// the same points as vcd.Writer.Attach. It is for a recorded reference; a
// live reference is sampled by the lockstep driver through SamplePair.
func (obs *Observer) Attach(sm *sim.Simulator) {
	sm.AtCycleEnd(func() {
		obs.Sample(sm.Cycle() - 1)
	})
}

// Sample compares every port signal's live value against the recording at
// the end of the given cycle. Cycles must be sampled in increasing order.
func (obs *Observer) Sample(cycle uint64) {
	obs.cursor.AdvanceTo(cycle)
	obs.SamplePair(cycle, false, true)
}

// SamplePair samples the end of the given cycle, once per lockstep cycle,
// in one pass over the signal pairs: each side is read when it simulated
// this cycle (refOn, liveOn), its activity tracked, and the held values
// compared. A side that has ended (or never started) holds its last
// sampled values, while the other side's activity is still tracked, so the
// short side's uncovered tail is charged as misaligned at Report time. A
// recorded reference is read through the cursor and needs no refOn.
func (obs *Observer) SamplePair(cycle uint64, refOn, liveOn bool) {
	obs.samples++
	if liveOn {
		obs.live.sample(cycle)
	}
	if refOn {
		obs.ref.sample(cycle)
	}
	for pi := range obs.ports {
		p := &obs.ports[pi]
		ok := true
		for i := p.lo; i < p.hi; i++ {
			sp := &obs.pairs[i]
			if liveOn {
				if v := sp.live.Get(); !v.Equal(sp.lastLive) {
					sp.lastLive = v
					obs.live.end = cycle
				}
			}
			rv := sp.lastRef
			if sp.ref == nil {
				rv = obs.cursor.Value(sp.recIdx)
			} else if refOn {
				if v := sp.ref.Get(); !v.Equal(rv) {
					sp.lastRef, rv = v, v
					obs.ref.end = cycle
				}
			}
			if !sp.lastLive.Equal(rv) {
				ok = false
				// Every mismatching name is kept at the first diverging
				// cycle; after it, a mismatch only marks the cycle.
				if p.firstCycle < 0 {
					p.firstNames = append(p.firstNames, sp.name)
				}
			}
		}
		if !ok {
			if p.firstCycle < 0 {
				p.firstCycle = int64(cycle)
			}
			p.mark(cycle)
		}
	}
	if liveOn {
		trackAll(obs.extraLive, cycle, &obs.live)
	}
	if refOn {
		trackAll(obs.extraRef, cycle, &obs.ref)
	}
}

// mark records a mismatch at cycle.
func (p *obsPort) mark(cycle uint64) {
	word := cycle / 64
	for uint64(len(p.mismatch)) <= word {
		p.mismatch = append(p.mismatch, 0)
	}
	p.mismatch[word] |= 1 << (cycle % 64)
}

// trackAll notes activity on activity-only signals.
func trackAll(ts []tracked, cycle uint64, a *activity) {
	for i := range ts {
		if v := ts[i].sig.Get(); !v.Equal(ts[i].last) {
			ts[i].last = v
			a.end = cycle
		}
	}
}

// Report finalizes the comparison: the window both sides cover is now known,
// so mismatches past it are discarded and the uncovered tail is charged as
// misaligned — identical accounting to Compare on the two parsed dumps.
func (obs *Observer) Report() *Report {
	ca := obs.ref.cycles()
	if obs.rec != nil {
		ca = obs.rec.Cycles()
	}
	cb := obs.live.cycles()
	if obs.cursor != nil && obs.samples == 0 {
		// No samples: the live dump would still parse as one all-zero cycle.
		obs.cursor.AdvanceTo(0)
		for pi := range obs.ports {
			p := &obs.ports[pi]
			var zero sim.Bits
			for i := p.lo; i < p.hi; i++ {
				if !obs.cursor.Value(obs.pairs[i].recIdx).Equal(zero) {
					if p.firstCycle < 0 {
						p.firstCycle = 0
						p.firstNames = append(p.firstNames, obs.pairs[i].name)
					}
					p.mismatch = []uint64{1}
					break
				}
			}
		}
	}
	shared, span := compareWindow(ca, cb)
	rep := &Report{}
	for pi := range obs.ports {
		p := &obs.ports[pi]
		pa := PortAlignment{
			Port: p.name, Signals: p.hi - p.lo,
			Cycles: span, CyclesA: ca, CyclesB: cb,
			Aligned:         shared - popcountBelow(p.mismatch, shared),
			FirstDivergence: -1,
		}
		if p.firstCycle >= 0 && uint64(p.firstCycle) < shared {
			pa.FirstDivergence = p.firstCycle
			pa.FirstDiverging = p.firstNames
		} else if shared < span {
			pa.FirstDivergence = int64(shared)
		}
		rep.Ports = append(rep.Ports, pa)
	}
	return rep
}

// popcountBelow counts set bits at positions strictly below limit.
func popcountBelow(words []uint64, limit uint64) uint64 {
	var n uint64
	full := limit / 64
	for i := uint64(0); i < full && i < uint64(len(words)); i++ {
		n += uint64(bits.OnesCount64(words[i]))
	}
	if rem := limit % 64; rem != 0 && full < uint64(len(words)) {
		n += uint64(bits.OnesCount64(words[full] & (1<<rem - 1)))
	}
	return n
}
