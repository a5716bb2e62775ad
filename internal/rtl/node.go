package rtl

import (
	"fmt"

	"crve/internal/arb"
	"crve/internal/coverage"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// Route encodings used by the request path. Non-negative routes are target
// port indices; the two internal services are the error responder and the
// register decoder (programming port).
const (
	routeNone = -3
	routeProg = -2
	routeErr  = -1
)

// initState is the per-initiator-port state of the node.
type initState struct {
	// Request side.
	inPacket bool
	route    int
	intCells []stbus.Cell
	// outstanding holds one response-source index per in-flight packet, in
	// issue order (targets 0..NumTgt-1, internal services NumTgt).
	outstanding []int

	// Response side.
	intQ       []stbus.RespCell
	respValid  bool
	respCell   stbus.RespCell
	respSrc    int
	respLocked bool
}

// tgtState is the per-target-port state of the node.
type tgtState struct {
	outValid bool
	outCell  stbus.Cell
	lockInit int
}

// Node is the RTL view of the STBus node: combinational grant logic plus one
// registered forwarding stage in each direction, per NODE-SPEC.md.
type Node struct {
	Cfg NodeConfig
	// Init are the initiator-facing ports (the node drives gnt/r_req/...).
	Init []*stbus.Port
	// Tgt are the target-facing ports (the node drives req/r_gnt/...).
	Tgt []*stbus.Port
	// Code is the RTL code-coverage instrumentation of this instance.
	Code *coverage.CodeMap

	prog     *arb.ProgrammablePolicy
	progRegs []uint8

	reqArbs  []arb.Policy
	reqArbG  arb.Policy
	respArbs []arb.Policy
	respArbG arb.Policy

	tick *sim.Signal

	// Internal handshake strobes, one per port: fire = req & gnt and
	// rfire = r_req & r_gnt, computed by one combinational process per port.
	// The state process reads the settled strobes instead of re-deriving the
	// handshakes — the same values, computed once.
	ifire, irfire []*sim.Signal
	tfire, trfire []*sim.Signal

	ist []initState
	tst []tgtState

	// pts holds the node's preresolved code-coverage handles, filled by
	// declareCoverage. Per-event instrumentation through a handle is a counter
	// increment; the Declare-and-lookup-per-hit path was a visible slice of
	// the E5 throughput profile.
	pts struct {
		routeProg, routeUnmapped, routePartial, routeMapped  coverage.Point
		grantMid, grantFirst, arbShared, arbCrossbar         coverage.Point
		respTarget, respInternal, chunkRelease, orphanResp   coverage.Point
		seqTgtDrain, seqRespDeliver, seqReqForward           coverage.Point
		seqReqInternal, seqRespLoad                          coverage.Point
		intErrPacket, intProgWrite, intProgRead, intProgBad  coverage.Point
		eligOrder, eligOutreg, eligPipe, eligLock, chunkHold coverage.Point
	}

	// srcMap learns which initiator port issues each src value, so responses
	// are routed back transparently even when the node sits below another
	// node in a hierarchy (srcs are system-global in STBus).
	srcMap [256]int16

	// Per-cycle plans rewritten by the combinational process and consumed by
	// the sequential one.
	reqPlan  []int
	grant    []bool
	respPlan []int
	rgnt     []bool
	reqInG   arb.Input
	reqIns   []arb.Input
	respIns  []arb.Input
	respInG  arb.Input
}

// NewNode elaborates a node under scope sc, creating its port signal bundles
// and registering its processes with the simulator.
func NewNode(sc sim.Scope, cfg NodeConfig) (*Node, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ns := sc.Sub(cfg.Name)
	n := &Node{
		Cfg:      cfg,
		Code:     coverage.NewCodeMap(),
		progRegs: make([]uint8, cfg.NumInit),
		ist:      make([]initState, cfg.NumInit),
		tst:      make([]tgtState, cfg.NumTgt),
		reqPlan:  make([]int, cfg.NumInit),
		grant:    make([]bool, cfg.NumInit),
		respPlan: make([]int, cfg.NumInit),
		rgnt:     make([]bool, cfg.NumTgt),
	}
	for i := range n.tst {
		n.tst[i].lockInit = -1
	}
	for i := range n.srcMap {
		n.srcMap[i] = -1
	}
	copy(n.progRegs, cfg.DefaultPriorities())
	for i := 0; i < cfg.NumInit; i++ {
		n.Init = append(n.Init, stbus.NewPort(ns, fmt.Sprintf("init%d", i), cfg.Port))
		n.respArbs = append(n.respArbs, arb.New(cfg.RespArb, cfg.NumTgt+1))
		n.respIns = append(n.respIns, arb.Input{Req: make([]bool, cfg.NumTgt+1)})
	}
	for t := 0; t < cfg.NumTgt; t++ {
		n.Tgt = append(n.Tgt, stbus.NewPort(ns, fmt.Sprintf("tgt%d", t), cfg.Port))
		n.reqArbs = append(n.reqArbs, n.newReqArb())
		n.reqIns = append(n.reqIns, arb.Input{Req: make([]bool, cfg.NumInit), Pri: make([]uint8, cfg.NumInit)})
	}
	n.reqArbG = n.newReqArb()
	n.reqInG = arb.Input{Req: make([]bool, cfg.NumInit), Pri: make([]uint8, cfg.NumInit)}
	n.respArbG = arb.New(cfg.RespArb, cfg.NumInit)
	n.respInG = arb.Input{Req: make([]bool, cfg.NumInit)}

	n.declareCoverage()

	n.tick = ns.Signal("tick", 32)
	sens := []*sim.Signal{n.tick}
	var outs []*sim.Signal
	for _, p := range n.Init {
		sens = append(sens, p.Req, p.Add, p.EOP, p.Lck, p.Pri, p.RGnt)
		outs = append(outs, p.Gnt)
	}
	for _, p := range n.Tgt {
		sens = append(sens, p.Gnt, p.RReq, p.RSrc)
		outs = append(outs, p.RGnt)
	}
	ns.CombOut("grants", n.comb, outs, sens...)
	for i, p := range n.Init {
		fire := ns.Bool(fmt.Sprintf("init%d_fire", i))
		rfire := ns.Bool(fmt.Sprintf("init%d_rfire", i))
		ns.CombOut(fmt.Sprintf("init%d_fire", i), fireProc(p, fire, rfire),
			[]*sim.Signal{fire, rfire}, p.Req, p.Gnt, p.RReq, p.RGnt)
		n.ifire = append(n.ifire, fire)
		n.irfire = append(n.irfire, rfire)
	}
	for t, p := range n.Tgt {
		fire := ns.Bool(fmt.Sprintf("tgt%d_fire", t))
		rfire := ns.Bool(fmt.Sprintf("tgt%d_rfire", t))
		ns.CombOut(fmt.Sprintf("tgt%d_fire", t), fireProc(p, fire, rfire),
			[]*sim.Signal{fire, rfire}, p.Req, p.Gnt, p.RReq, p.RGnt)
		n.tfire = append(n.tfire, fire)
		n.trfire = append(n.trfire, rfire)
	}
	ns.Seq("state", n.seq)
	ns.Seq("tick", func() { n.tick.SetU64(n.tick.U64() + 1) })
	return n, nil
}

// fireProc computes a port's handshake strobes: fire = req & gnt and
// rfire = r_req & r_gnt.
func fireProc(p *stbus.Port, fire, rfire *sim.Signal) func() {
	return func() {
		fire.SetBool(p.Req.Bool() && p.Gnt.Bool())
		rfire.SetBool(p.RReq.Bool() && p.RGnt.Bool())
	}
}

// newReqArb instantiates the request-path policy. The programmable policy is
// shared with the register decoder, so a single instance backs every port of
// the request path.
func (n *Node) newReqArb() arb.Policy {
	if n.Cfg.ReqArb == arb.Programmable {
		if n.prog == nil {
			n.prog = arb.NewProgrammable(n.Cfg.DefaultPriorities())
		}
		return n.prog
	}
	return arb.New(n.Cfg.ReqArb, n.Cfg.NumInit)
}

// Ports returns every external port, initiators first, for tracing and the
// per-port alignment analysis.
func (n *Node) Ports() []*stbus.Port {
	out := append([]*stbus.Port{}, n.Init...)
	return append(out, n.Tgt...)
}

// srcIdx maps a route to its response-source index.
func (n *Node) srcIdx(route int) int {
	if route >= 0 {
		return route
	}
	return n.Cfg.NumTgt
}

// decode routes a first-cell address for initiator i.
func (n *Node) decode(addr uint64, i int) int {
	if n.Cfg.ProgPort && addr >= n.Cfg.ProgBase && addr < n.Cfg.ProgBase+uint64(4*n.Cfg.NumInit) {
		n.pts.routeProg.Hit()
		return routeProg
	}
	t := n.Cfg.Map.Route(addr)
	if t < 0 {
		n.pts.routeUnmapped.Hit()
		return routeErr
	}
	if !n.Cfg.Connected(i, t) {
		n.pts.routePartial.Hit()
		return routeErr
	}
	n.pts.routeMapped.Hit()
	return t
}

// orderOK enforces the Type 2 ordering rule: all outstanding packets of an
// initiator must share one response source.
func (n *Node) orderOK(i, src int) bool {
	if n.Cfg.Port.Type != stbus.Type2 {
		return true
	}
	for _, s := range n.ist[i].outstanding {
		if s != src {
			n.pts.eligOrder.Branch(true)
			return false
		}
	}
	n.pts.eligOrder.Branch(false)
	return true
}

// tgtCanAccept reports whether target t's output register can take a cell
// this cycle (empty, or draining because the target grants).
func (n *Node) tgtCanAccept(t int) bool {
	ok := !n.tst[t].outValid || n.Tgt[t].Gnt.Bool()
	n.pts.eligOutreg.Branch(!ok)
	return ok
}

// eligible evaluates the request-path grant conditions for initiator i
// toward route (NODE-SPEC.md "Eligibility").
func (n *Node) eligible(i, route int) bool {
	st := &n.ist[i]
	if st.inPacket {
		n.pts.grantMid.Hit()
		if route >= 0 {
			return n.tgtCanAccept(route)
		}
		return true // internal services always absorb mid-packet cells
	}
	n.pts.grantFirst.Hit()
	if !n.orderOK(i, n.srcIdx(route)) {
		return false
	}
	if len(st.outstanding) >= n.Cfg.PipeSize {
		n.pts.eligPipe.Branch(true)
		return false
	}
	n.pts.eligPipe.Branch(false)
	if route >= 0 {
		lock := n.tst[route].lockInit
		if lock != -1 && lock != i {
			n.pts.eligLock.Branch(true)
			return false
		}
		n.pts.eligLock.Branch(false)
		return n.tgtCanAccept(route)
	}
	return true
}

// comb is the grant process: it plans routes, arbitrates and drives gnt and
// r_gnt combinationally (NODE-SPEC.md "Request path" / "Response path").
func (n *Node) comb() {
	cfg := &n.Cfg
	// ----- Request path: candidates -----
	for i, p := range n.Init {
		n.reqPlan[i] = routeNone
		n.grant[i] = false
		if !p.Req.Bool() {
			continue
		}
		var route int
		if n.ist[i].inPacket {
			route = n.ist[i].route
		} else {
			route = n.decode(p.Add.U64(), i)
		}
		if n.eligible(i, route) {
			n.reqPlan[i] = route
		}
	}
	// ----- Request path: arbitration -----
	if cfg.Arch == SharedBus {
		n.pts.arbShared.Hit()
		for i, p := range n.Init {
			n.reqInG.Req[i] = n.reqPlan[i] != routeNone
			n.reqInG.Pri[i] = uint8(p.Pri.U64())
		}
		w := n.reqArbG.Pick(n.reqInG)
		for i := range n.grant {
			if i == w {
				n.grant[i] = true
			} else {
				n.reqPlan[i] = routeNone
			}
		}
	} else {
		n.pts.arbCrossbar.Hit()
		for i := range n.Init {
			if n.reqPlan[i] == routeErr || n.reqPlan[i] == routeProg {
				n.grant[i] = true // internal routes: no datapath contention
			}
		}
		for t := range n.Tgt {
			in := &n.reqIns[t]
			for i, p := range n.Init {
				in.Req[i] = n.reqPlan[i] == t
				in.Pri[i] = uint8(p.Pri.U64())
			}
			w := n.reqArbs[t].Pick(*in)
			for i := range n.Init {
				if n.reqPlan[i] != t {
					continue
				}
				if i == w {
					n.grant[i] = true
				} else {
					n.reqPlan[i] = routeNone
				}
			}
		}
	}
	for i, p := range n.Init {
		p.Gnt.SetBool(n.grant[i])
	}

	// ----- Response path: candidates per initiator -----
	for t := range n.Tgt {
		n.rgnt[t] = false
	}
	eligibleSrc := func(i, s int) bool {
		st := &n.ist[i]
		if len(st.outstanding) == 0 {
			return false
		}
		if st.respLocked && s != st.respSrc {
			return false
		}
		if cfg.Port.Type == stbus.Type2 && s != st.outstanding[0] {
			return false
		}
		if s == cfg.NumTgt {
			return len(st.intQ) > 0
		}
		return n.Tgt[s].RReq.Bool() && n.srcMap[uint8(n.Tgt[s].RSrc.U64())] == int16(i)
	}
	avail := func(i int) bool {
		st := &n.ist[i]
		return !st.respValid || n.Init[i].RGnt.Bool()
	}
	chooseSrc := func(i int) int {
		in := &n.respIns[i]
		any := false
		for s := 0; s <= cfg.NumTgt; s++ {
			in.Req[s] = eligibleSrc(i, s)
			any = any || in.Req[s]
		}
		if !any {
			return -1
		}
		return n.respArbs[i].Pick(*in)
	}
	for i := range n.Init {
		n.respPlan[i] = -1
	}
	if cfg.Arch == SharedBus {
		for i := range n.Init {
			n.respInG.Req[i] = false
			if !avail(i) {
				continue
			}
			for s := 0; s <= cfg.NumTgt; s++ {
				if eligibleSrc(i, s) {
					n.respInG.Req[i] = true
					break
				}
			}
		}
		if w := n.respArbG.Pick(n.respInG); w >= 0 {
			n.respPlan[w] = chooseSrc(w)
		}
	} else {
		for i := range n.Init {
			if avail(i) {
				n.respPlan[i] = chooseSrc(i)
			}
		}
	}
	for i := range n.Init {
		if s := n.respPlan[i]; s >= 0 && s < cfg.NumTgt {
			n.pts.respTarget.Hit()
			n.rgnt[s] = true
		} else if s == cfg.NumTgt {
			n.pts.respInternal.Hit()
		}
	}
	for t, p := range n.Tgt {
		p.RGnt.SetBool(n.rgnt[t])
	}
}

// seq is the state process: it commits the transfers the settled grant plan
// implies, updates packet/lock/outstanding bookkeeping, advances the
// arbiters and drives the registered outputs.
func (n *Node) seq() {
	cfg := &n.Cfg
	// 1) Drain target output registers accepted by their targets.
	for t := range n.Tgt {
		if n.tst[t].outValid && n.tfire[t].Bool() {
			n.pts.seqTgtDrain.Hit()
			n.tst[t].outValid = false
		}
	}
	// 2) Deliver response cells accepted by initiators.
	for i := range n.Init {
		st := &n.ist[i]
		if st.respValid && n.irfire[i].Bool() {
			n.pts.seqRespDeliver.Hit()
			if st.respCell.EOP {
				n.popOutstanding(i, st.respSrc)
				st.respLocked = false
			}
			st.respValid = false
		}
	}
	// 3) Capture granted request cells.
	for i, p := range n.Init {
		if !n.ifire[i].Bool() {
			continue
		}
		cell := p.SampleCell()
		route := n.reqPlan[i]
		st := &n.ist[i]
		if !st.inPacket {
			st.outstanding = append(st.outstanding, n.srcIdx(route))
			n.srcMap[cell.Src] = int16(i)
		}
		switch {
		case route >= 0:
			n.pts.seqReqForward.Hit()
			// A chunk lock held elsewhere by i is released when i opens a
			// packet to a different target (defensive: misbehaving chunk).
			if !st.inPacket {
				for u := range n.tst {
					if u != route && n.tst[u].lockInit == i {
						n.pts.chunkRelease.Hit()
						n.tst[u].lockInit = -1
					}
				}
			}
			ts := &n.tst[route]
			ts.outCell = cell
			ts.outValid = true
			ts.lockInit = i
			if cell.EOP {
				if cell.Lck {
					n.pts.chunkHold.Branch(true)
				} else {
					n.pts.chunkHold.Branch(false)
					ts.lockInit = -1
				}
			}
			st.inPacket = !cell.EOP
			st.route = route
		default:
			n.pts.seqReqInternal.Hit()
			st.intCells = append(st.intCells, cell)
			st.inPacket = !cell.EOP
			st.route = route
			if cell.EOP {
				n.serveInternal(i, route)
				st.intCells = nil
			}
		}
	}
	// 4) Accept planned response cells into the response registers.
	for i := range n.Init {
		s := n.respPlan[i]
		if s < 0 {
			continue
		}
		st := &n.ist[i]
		var cell stbus.RespCell
		if s < cfg.NumTgt {
			if !n.trfire[s].Bool() {
				continue
			}
			cell = n.Tgt[s].SampleResp()
		} else {
			cell = st.intQ[0]
			st.intQ = st.intQ[1:]
		}
		n.pts.seqRespLoad.Hit()
		st.respCell = cell
		st.respValid = true
		st.respSrc = s
		st.respLocked = !cell.EOP
	}
	// 5) Advance the arbiters once per cycle.
	if cfg.Arch == SharedBus {
		wg := -1
		for i, g := range n.grant {
			if g {
				wg = i
			}
		}
		n.reqArbG.Tick(n.reqInG, wg)
		wr := -1
		for i, s := range n.respPlan {
			if s >= 0 {
				wr = i
			}
		}
		n.respArbG.Tick(n.respInG, wr)
	} else {
		for t := range n.Tgt {
			w := -1
			for i, g := range n.grant {
				if g && n.reqPlan[i] == t {
					w = i
				}
			}
			n.reqArbs[t].Tick(n.reqIns[t], w)
		}
	}
	for i := range n.Init {
		n.respArbs[i].Tick(n.respIns[i], n.respPlan[i])
	}
	// 6) Drive registered outputs.
	for t, p := range n.Tgt {
		if n.tst[t].outValid {
			p.DriveCell(n.tst[t].outCell)
		} else {
			p.IdleReq()
		}
	}
	for i, p := range n.Init {
		if n.ist[i].respValid {
			p.DriveResp(n.ist[i].respCell)
		} else {
			p.IdleResp()
		}
	}
	// The tick re-trigger of the grant process lives in its own Seq.
}

// popOutstanding removes the oldest outstanding entry with the given source.
func (n *Node) popOutstanding(i, src int) {
	st := &n.ist[i]
	for k, s := range st.outstanding {
		if s == src {
			st.outstanding = append(st.outstanding[:k], st.outstanding[k+1:]...)
			return
		}
	}
	n.pts.orphanResp.Hit()
}

// serveInternal runs the node's internal services at the edge completing a
// request packet: the error responder and the register decoder.
func (n *Node) serveInternal(i, route int) {
	cfg := &n.Cfg
	st := &n.ist[i]
	first := st.intCells[0]
	op, addr := first.Opc, first.Addr
	buildErr := func() []stbus.RespCell {
		cells, err := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, nil,
			cfg.Port.BusBytes(), first.TID, first.Src, true)
		if err != nil {
			// Unbuildable (e.g. invalid opcode field): answer a single error
			// cell so the initiator is never left hanging.
			return []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
		}
		return cells
	}
	if route == routeErr {
		n.pts.intErrPacket.Hit()
		st.intQ = append(st.intQ, buildErr()...)
		return
	}
	// Register decoder.
	off := addr - cfg.ProgBase
	idx := int(off / 4)
	switch {
	case op == stbus.ST4 && idx < cfg.NumInit:
		n.pts.intProgWrite.Hit()
		data := stbus.ExtractWriteData(cfg.Port.Endian, st.intCells, cfg.Port.BusBytes())
		val := data[0] & 0xf
		n.progRegs[idx] = val
		if n.prog != nil {
			if err := n.prog.SetPriority(idx, val); err != nil {
				st.intQ = append(st.intQ, buildErr()...)
				return
			}
		}
		cells, _ := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, nil,
			cfg.Port.BusBytes(), first.TID, first.Src, false)
		st.intQ = append(st.intQ, cells...)
	case op == stbus.LD4 && idx < cfg.NumInit:
		n.pts.intProgRead.Hit()
		data := []byte{n.progRegs[idx], 0, 0, 0}
		cells, _ := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, data,
			cfg.Port.BusBytes(), first.TID, first.Src, false)
		st.intQ = append(st.intQ, cells...)
	default:
		n.pts.intProgBad.Hit()
		st.intQ = append(st.intQ, buildErr()...)
	}
}

// PriorityRegs returns a copy of the programming-port register file.
func (n *Node) PriorityRegs() []uint8 {
	out := make([]uint8, len(n.progRegs))
	copy(out, n.progRegs)
	return out
}

// Outstanding returns the number of in-flight packets of initiator i,
// exposed for tests and checkers.
func (n *Node) Outstanding(i int) int { return len(n.ist[i].outstanding) }

// declareCoverage pre-declares every code-coverage point of the node and
// justifies the ones unreachable under this configuration, mirroring the
// paper's "100 % of justified code" line-coverage goal.
func (n *Node) declareCoverage() {
	m := n.Code
	// Declaration resolves the preresolved handles the hot processes hit
	// through; declaration order is the report order, so it is kept stable.
	n.pts.routeProg = m.Point(coverage.StmtPoint, "route.prog")
	n.pts.routeUnmapped = m.Point(coverage.StmtPoint, "route.unmapped")
	n.pts.routePartial = m.Point(coverage.StmtPoint, "route.partial_blocked")
	n.pts.routeMapped = m.Point(coverage.StmtPoint, "route.mapped")
	n.pts.grantMid = m.Point(coverage.StmtPoint, "grant.mid_packet")
	n.pts.grantFirst = m.Point(coverage.StmtPoint, "grant.first_cell")
	n.pts.arbShared = m.Point(coverage.StmtPoint, "arb.shared")
	n.pts.arbCrossbar = m.Point(coverage.StmtPoint, "arb.crossbar")
	n.pts.respTarget = m.Point(coverage.StmtPoint, "resp.target")
	n.pts.respInternal = m.Point(coverage.StmtPoint, "resp.internal")
	n.pts.chunkRelease = m.Point(coverage.StmtPoint, "chunk.release_elsewhere")
	n.pts.orphanResp = m.Point(coverage.StmtPoint, "seq.orphan_response")
	n.pts.seqTgtDrain = m.Point(coverage.LinePoint, "seq.tgt_drain")
	n.pts.seqRespDeliver = m.Point(coverage.LinePoint, "seq.resp_deliver")
	n.pts.seqReqForward = m.Point(coverage.LinePoint, "seq.req_forward")
	n.pts.seqReqInternal = m.Point(coverage.LinePoint, "seq.req_internal")
	n.pts.seqRespLoad = m.Point(coverage.LinePoint, "seq.resp_load")
	n.pts.intErrPacket = m.Point(coverage.LinePoint, "int.error_packet")
	n.pts.intProgWrite = m.Point(coverage.LinePoint, "int.prog_write")
	n.pts.intProgRead = m.Point(coverage.LinePoint, "int.prog_read")
	n.pts.intProgBad = m.Point(coverage.LinePoint, "int.prog_bad_access")
	n.pts.eligOrder = m.Point(coverage.BranchPoint, "elig.order")
	n.pts.eligOutreg = m.Point(coverage.BranchPoint, "elig.outreg")
	n.pts.eligPipe = m.Point(coverage.BranchPoint, "elig.pipe")
	n.pts.eligLock = m.Point(coverage.BranchPoint, "elig.lock")
	n.pts.chunkHold = m.Point(coverage.BranchPoint, "chunk.hold")
	// Configuration-dependent justifications.
	if !n.Cfg.ProgPort {
		for _, p := range []string{"route.prog", "int.prog_write", "int.prog_read", "int.prog_bad_access"} {
			_ = m.Justify(p)
		}
	}
	if n.Cfg.Arch != PartialCrossbar {
		_ = m.Justify("route.partial_blocked")
	}
	if n.Cfg.Arch == SharedBus {
		_ = m.Justify("arb.crossbar")
	} else {
		_ = m.Justify("arb.shared")
	}
	if n.Cfg.Port.Type != stbus.Type2 {
		_ = m.Justify("elig.order")
	}
	// Defensive paths not reachable from spec-conforming harnesses.
	_ = m.Justify("chunk.release_elsewhere")
	_ = m.Justify("seq.orphan_response")
}
