// Package simnet provides a simulated message-passing network on top of the
// discrete-event kernel in internal/sim.
//
// Every process in the reproduction (metadata servers, coordination ensemble
// members, data servers, clients, pool nodes) is a Node. Nodes exchange
// one-way messages and request/response RPCs; the network draws per-message
// latencies from a seeded distribution and honours injected faults:
//
//   - Crash/Restart: the process stops; its timers and pending RPCs die.
//   - Unplug/Replug: the NIC goes dark (the paper's "take out network
//     wires" fault); the process keeps running but nothing gets in or out.
//   - Cut/Heal: directional link partitions between node pairs.
//   - Gray failures (gray.go): per-node slowdown and clock skew, flapping
//     one-directional cuts — degradation without a clean "down" signal.
//
// The simulation is single-threaded: handlers run to completion and may
// schedule further events, but never race.
package simnet

import (
	"fmt"

	"mams/internal/obs"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// Compile-time plane checks: simnet is the deterministic implementation of
// the transport interface pair.
var (
	_ transport.Transport = (*Network)(nil)
	_ transport.Node      = (*Node)(nil)
)

// LatencyModel describes one-way message delay.
type LatencyModel struct {
	Base   sim.Time // median one-way latency
	Spread float64  // log-normal sigma; 0 = constant latency
}

// draw samples a delivery delay.
func (m LatencyModel) draw(r *rng.RNG) sim.Time {
	if m.Base <= 0 {
		return 0
	}
	if m.Spread <= 0 {
		return m.Base
	}
	return sim.Time(r.LogNormalAround(float64(m.Base), m.Spread))
}

type envKind uint8

const (
	envOneway envKind = iota
	envRequest
	envResponse
)

type envelope struct {
	kind    envKind
	id      uint64
	payload any
}

// pendingCall is one outstanding Call. Entries are reused
// (Network.freeCalls): one leaves its node's pending map and is released
// when its call is answered or times out. A crashed node's entries are
// dropped with its map and left to the GC, so their deadlines, which still
// surface as events, find the entry as the crash left it.
type pendingCall struct {
	nd    *Node
	id    uint64
	to    transport.NodeID
	gen   uint64 // nd.gen at the call
	cb    func(resp any, err error)
	timer sim.Timer // the deadline
}

// Fire is the call's deadline: it fails the call with ErrTimeout if the
// entry still holds it.
func (pc *pendingCall) Fire() {
	nd := pc.nd
	if nd.gen != pc.gen || !nd.up {
		return
	}
	if p, ok := nd.pending[pc.id]; ok && p == pc {
		delete(nd.pending, pc.id)
		nd.net.link(nd.id, pc.to).timeoutInc()
		nd.net.release(pc)(nil, transport.ErrTimeout)
	}
}

// reuse takes a released record off free, or makes one.
func reuse[T any](free *[]*T) *T {
	k := len(*free)
	if k == 0 {
		return new(T)
	}
	r := (*free)[k-1]
	*free = (*free)[:k-1]
	return r
}

// release puts an entry that has left its node's pending map, and whose
// deadline has fired or been stopped, back for reuse, and returns its
// callback.
func (n *Network) release(pc *pendingCall) func(resp any, err error) {
	cb := pc.cb
	*pc = pendingCall{}
	n.freeCalls = append(n.freeCalls, pc)
	return cb
}

// delivery is one message in flight. Records are reused
// (Network.freeDeliveries): each fires exactly once, since nothing stops a
// delivery, and goes back to the list before the message is handled.
type delivery struct {
	n        *Network
	src, dst *Node
	lc       *linkCounters
	from     transport.NodeID
	env      envelope
}

// Fire hands the message to dst, or drops it if a fault now stands between
// the two.
func (d *delivery) Fire() {
	m, n := *d, d.n
	*d = delivery{}
	n.freeDeliveries = append(n.freeDeliveries, d)
	if !n.deliverable(m.src, m.dst) {
		n.Dropped++
		m.lc.droppedInc()
		return
	}
	n.Delivered++
	m.dst.deliver(m.from, m.env)
}

// replySlot is one received request's right to an answer. Slots are reused
// (Network.freeReplies): an answer moves its slot on a turn and frees it,
// so a reply func whose turn has passed, a second reply to one request, is
// caught even once the slot serves another request. A request that is
// never answered leaves its slot to the GC.
type replySlot struct {
	turn uint64
	nd   *Node
	gen  uint64 // nd.gen when the request arrived
	id   uint64
	from transport.NodeID
}

// replyFunc returns the reply func for request id, which arrived at nd from
// from, in a free slot when there is one.
func (n *Network) replyFunc(nd *Node, from transport.NodeID, id uint64) func(any) {
	s := reuse(&n.freeReplies)
	s.nd, s.gen, s.id, s.from = nd, nd.gen, id, from
	turn := s.turn
	return func(r any) { n.reply(s, turn, r) }
}

// reply answers the request s holds for turn and frees s.
func (n *Network) reply(s *replySlot, turn uint64, r any) {
	if s.turn != turn {
		panic("simnet: reply invoked twice")
	}
	rs := *s
	*s = replySlot{turn: turn + 1}
	n.freeReplies = append(n.freeReplies, s)
	if rs.nd.gen != rs.gen || !rs.nd.up {
		return // we crashed since receiving the request
	}
	n.send(rs.nd, rs.from, envelope{kind: envResponse, id: rs.id, payload: r})
}

// nodeTimer is the handle Node.After returns, and the event body it
// schedules: one allocation per timer.
type nodeTimer struct {
	nd  *Node
	gen uint64 // nd.gen at arming: a restarted node's old timers stay silent
	fn  func()
	t   sim.Timer
}

// Fire runs the callback unless the node crashed or restarted since arming.
func (nt *nodeTimer) Fire() {
	fn := nt.fn
	nt.fn = nil
	if nt.nd.up && nt.nd.gen == nt.gen {
		fn()
	}
}

// Stop cancels the timer, reporting whether it was still pending.
func (nt *nodeTimer) Stop() bool {
	nt.fn = nil
	return nt.t.Stop()
}

// Pending reports whether the callback has yet to fire.
func (nt *nodeTimer) Pending() bool { return nt.t.Pending() }

// Network ties nodes together over a shared latency model.
type Network struct {
	world   *sim.World
	rng     *rng.RNG
	latency LatencyModel
	nodes   map[transport.NodeID]*Node
	cuts    map[[2]transport.NodeID]bool
	log     *trace.Log
	loss    float64 // probability an individual message is dropped
	// lastArrival enforces per-link FIFO delivery (TCP-like): a message
	// never overtakes an earlier one on the same (src, dst) link.
	lastArrival map[[2]transport.NodeID]sim.Time

	// Reused per-message and per-call state (see delivery, pendingCall,
	// replySlot).
	freeDeliveries []*delivery
	freeCalls      []*pendingCall
	freeReplies    []*replySlot

	// Stats counts message traffic for reporting.
	Sent      uint64
	Delivered uint64
	Dropped   uint64

	// Observability (optional; see SetObs). linkStats caches per-(src,dst)
	// registry counters so the send hot path pays one map lookup, same as
	// the FIFO clamp above.
	reg       *obs.Registry
	tracer    *obs.Tracer
	linkStats map[[2]transport.NodeID]*linkCounters
}

// linkCounters are the per-directed-link traffic instruments.
type linkCounters struct {
	sent, dropped, timeouts *obs.Counter
}

// SetObs attaches a metrics registry and span tracer to the network. Both
// may be nil. Components hosted on this network (mams servers, the ssp
// client, the coordination ensemble) discover them via Obs and Tracer at
// construction time, so one call here wires the whole deployment.
func (n *Network) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	n.reg = reg
	n.tracer = tracer
	if reg != nil && n.linkStats == nil {
		n.linkStats = make(map[[2]transport.NodeID]*linkCounters)
	}
}

// Obs returns the attached metrics registry (nil when observability is off;
// all registry methods are nil-safe).
func (n *Network) Obs() *obs.Registry { return n.reg }

// Tracer returns the attached span tracer (nil when observability is off;
// all tracer methods are nil-safe).
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// link returns the cached counters for a directed (src, dst) pair, or nil
// when no registry is attached.
func (n *Network) link(src, dst transport.NodeID) *linkCounters {
	if n.reg == nil {
		return nil
	}
	key := [2]transport.NodeID{src, dst}
	lc := n.linkStats[key]
	if lc == nil {
		lc = &linkCounters{
			sent:     n.reg.Counter("mams_net_messages_sent_total", "Messages handed to the network per directed link.", "src", string(src), "dst", string(dst)),
			dropped:  n.reg.Counter("mams_net_messages_dropped_total", "Messages dropped (fault, loss, dead endpoint) per directed link.", "src", string(src), "dst", string(dst)),
			timeouts: n.reg.Counter("mams_net_rpc_timeouts_total", "RPCs that timed out per directed (caller, callee) link.", "src", string(src), "dst", string(dst)),
		}
		n.linkStats[key] = lc
	}
	return lc
}

// New creates a network on the given world. log may be nil.
func New(w *sim.World, r *rng.RNG, latency LatencyModel, log *trace.Log) *Network {
	return &Network{
		world:       w,
		rng:         r.Split("simnet"),
		latency:     latency,
		nodes:       make(map[transport.NodeID]*Node),
		cuts:        make(map[[2]transport.NodeID]bool),
		log:         log,
		lastArrival: make(map[[2]transport.NodeID]sim.Time),
	}
}

// World returns the underlying simulation world.
func (n *Network) World() *sim.World { return n.world }

// Node looks up a registered node, or nil.
func (n *Network) Node(id transport.NodeID) *Node { return n.nodes[id] }

// AddNode registers a new process. A nil handler drops every message.
func (n *Network) AddNode(id transport.NodeID, h transport.Handler) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", id))
	}
	node := &Node{id: id, net: n, handler: h, up: true, pending: make(map[uint64]*pendingCall)}
	n.nodes[id] = node
	return node
}

// Listen registers a node and returns it as a transport-plane handle; it is
// AddNode behind the transport.Transport interface.
func (n *Network) Listen(id transport.NodeID, h transport.Handler) transport.Node {
	return n.AddNode(id, h)
}

// Cut severs delivery from a to b (one direction). Messages in flight are
// dropped at delivery time.
func (n *Network) Cut(a, b transport.NodeID) { n.cuts[[2]transport.NodeID{a, b}] = true }

// Heal restores delivery from a to b.
func (n *Network) Heal(a, b transport.NodeID) { delete(n.cuts, [2]transport.NodeID{a, b}) }

// CutBoth severs both directions between a and b.
func (n *Network) CutBoth(a, b transport.NodeID) { n.Cut(a, b); n.Cut(b, a) }

// HealBoth restores both directions between a and b.
func (n *Network) HealBoth(a, b transport.NodeID) { n.Heal(a, b); n.Heal(b, a) }

func (n *Network) cut(a, b transport.NodeID) bool { return n.cuts[[2]transport.NodeID{a, b}] }

// SetLoss makes every message independently vanish with probability p.
// Protocols under test must tolerate this via retransmission.
func (n *Network) SetLoss(p float64) { n.loss = p }

// deliverable reports whether a message from src can reach dst right now.
func (n *Network) deliverable(src, dst *Node) bool {
	if dst == nil || !dst.up || dst.unplugged {
		return false
	}
	if src != nil && (src.unplugged || !src.up) {
		return false
	}
	if src != nil && n.cut(src.id, dst.id) {
		return false
	}
	return true
}

// send schedules delivery of env from src to dst subject to faults at both
// send and delivery time. A dropped message is silence: a lost request or
// response surfaces as its caller's deadline.
func (n *Network) send(src *Node, to transport.NodeID, env envelope) {
	n.Sent++
	fromID := transport.NodeID("")
	if src != nil {
		fromID = src.id
	}
	lc := n.link(fromID, to)
	lc.sentInc()
	dst := n.nodes[to]
	if src != nil && (!src.up || src.unplugged) || dst == nil || n.loss > 0 && n.rng.Bool(n.loss) {
		n.Dropped++
		lc.droppedInc()
		return
	}
	delay := n.latency.draw(n.rng)
	// FIFO per link: clamp the arrival so it never precedes an earlier
	// message on the same link.
	link := [2]transport.NodeID{fromID, to}
	arrival := n.world.Now() + delay
	if last := n.lastArrival[link]; arrival < last {
		arrival = last
		delay = arrival - n.world.Now()
	}
	n.lastArrival[link] = arrival
	d := reuse(&n.freeDeliveries)
	*d = delivery{n: n, src: src, dst: dst, lc: lc, from: fromID, env: env}
	n.world.AfterFor(delay, string(to), "deliver", d)
}

// sentInc / droppedInc / timeoutInc tolerate a nil receiver (observability
// off) so the send path stays branch-free at call sites.
func (lc *linkCounters) sentInc() {
	if lc != nil {
		lc.sent.Inc()
	}
}

func (lc *linkCounters) droppedInc() {
	if lc != nil {
		lc.dropped.Inc()
	}
}

func (lc *linkCounters) timeoutInc() {
	if lc != nil {
		lc.timeouts.Inc()
	}
}

// Node is one simulated process.
type Node struct {
	id        transport.NodeID
	net       *Network
	handler   transport.Handler
	up        bool
	unplugged bool
	gen       uint64 // bumped on crash; invalidates timers and pending RPCs

	nextCall uint64
	pending  map[uint64]*pendingCall

	// Gray-failure state (see gray.go). Zero values mean healthy: no timer
	// stretch, an honest clock. Survives Crash/Restart — it models hardware.
	slowdown  float64  // local timer stretch; 0 or <=1 = none
	drift     float64  // clock rate skew; local rate is (1+drift)
	localBase sim.Time // LocalNow() at the moment drift last changed
	skewSince sim.Time // true time at the moment drift last changed
}

// ID returns the node's name.
func (nd *Node) ID() transport.NodeID { return nd.id }

// Net returns the owning network.
func (nd *Node) Net() *Network { return nd.net }

// World returns the simulation world.
func (nd *Node) World() *sim.World { return nd.net.world }

// Now returns the transport clock — virtual time on this plane.
func (nd *Node) Now() sim.Time { return nd.net.world.Now() }

// Obs returns the owning network's metrics registry (nil-safe to use).
func (nd *Node) Obs() *obs.Registry { return nd.net.reg }

// Up reports whether the process is running.
func (nd *Node) Up() bool { return nd.up }

// Unplugged reports whether the NIC is disconnected.
func (nd *Node) Unplugged() bool { return nd.unplugged }

// Send delivers a one-way message (subject to faults and latency).
func (nd *Node) Send(to transport.NodeID, msg any) {
	nd.net.send(nd, to, envelope{kind: envOneway, payload: msg})
}

// PendingCalls returns the number of outstanding RPCs awaiting a response
// (diagnostics and leak tests).
func (nd *Node) PendingCalls() int { return len(nd.pending) }

// Call issues an RPC. cb runs exactly once: with the response, or with
// ErrTimeout at the deadline; never if this node crashes first. timeout
// must be positive.
func (nd *Node) Call(to transport.NodeID, req any, timeout sim.Time, cb func(resp any, err error)) {
	if timeout <= 0 {
		panic(fmt.Sprintf("simnet: Call to %q with timeout %v: every call needs a deadline", to, timeout))
	}
	if !nd.up {
		// Local process is dead; nothing can run a callback meaningfully.
		return
	}
	nd.nextCall++
	id := nd.nextCall
	pc := reuse(&nd.net.freeCalls)
	*pc = pendingCall{nd: nd, id: id, to: to, gen: nd.gen, cb: cb}
	// The deadline is measured on the node's local clock: a skewed-fast
	// node gives up on RPCs early relative to true time (gray.go).
	pc.timer = nd.net.world.AfterFor(nd.stretchTimeout(timeout), string(nd.id), "rpc-timeout", pc)
	nd.pending[id] = pc
	nd.net.send(nd, to, envelope{kind: envRequest, id: id, payload: req})
}

// deliver dispatches an arrived envelope to the local handler or a pending
// callback.
func (nd *Node) deliver(from transport.NodeID, env envelope) {
	switch env.kind {
	case envOneway:
		if nd.handler != nil {
			nd.handler.HandleMessage(from, env.payload)
		}
	case envRequest:
		rh, ok := nd.handler.(transport.RequestHandler)
		if !ok {
			return // node does not serve RPCs; the request times out at the caller
		}
		rh.HandleRequest(from, env.payload, nd.net.replyFunc(nd, from, env.id))
	case envResponse:
		pc, ok := nd.pending[env.id]
		if !ok {
			return // late response after timeout or crash
		}
		delete(nd.pending, env.id)
		pc.timer.Stop()
		nd.net.release(pc)(env.payload, nil)
	}
}

// After schedules fn on this node's behalf; it silently does not fire if the
// node has crashed or restarted in the meantime. d is a *local* duration:
// slowdown stretches it and clock skew rescales it (gray.go), so a degraded
// or skewed node's timers fire late or early in true virtual time.
func (nd *Node) After(d sim.Time, name string, fn func()) transport.Timer {
	nt := &nodeTimer{nd: nd, gen: nd.gen, fn: fn}
	nt.t = nd.net.world.AfterFor(nd.stretchTimer(d), string(nd.id), name, nt)
	return nt
}

// Crash stops the process: timers die, pending RPC callbacks are dropped,
// and in-flight messages to it are discarded at delivery.
func (nd *Node) Crash() {
	if !nd.up {
		return
	}
	nd.up = false
	nd.gen++
	nd.pending = make(map[uint64]*pendingCall)
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "crash")
	}
}

// Restart brings the process back up with a fresh generation. The caller is
// responsible for re-initialising the handler's state (a restarted server
// rejoins as a junior in MAMS terms).
func (nd *Node) Restart() {
	if nd.up {
		return
	}
	nd.up = true
	nd.gen++
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "restart")
	}
}

// Unplug disconnects the NIC while the process keeps running.
func (nd *Node) Unplug() {
	if nd.unplugged {
		return
	}
	nd.unplugged = true
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "unplug")
	}
}

// Replug reconnects the NIC.
func (nd *Node) Replug() {
	if !nd.unplugged {
		return
	}
	nd.unplugged = false
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "replug")
	}
}
