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

type pendingCall struct {
	cb    func(resp any, err error)
	timer *sim.Timer
}

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

// AddNode registers a new process. The handler may be nil initially and set
// later with SetHandler.
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

// reapDropped tells the caller of a dropped RPC envelope that its call will
// never complete. With a timeout armed the pending entry reports through the
// timer as before; without one (timeout == 0) the entry would otherwise
// outlive the drop forever — the caller's pending map entry and callback
// closure leaking for the node's lifetime.
func (n *Network) reapDropped(src *Node, to transport.NodeID, env envelope) {
	switch env.kind {
	case envRequest:
		if src != nil {
			src.failPending(env.id)
		}
	case envResponse:
		if dst := n.nodes[to]; dst != nil {
			dst.failPending(env.id)
		}
	}
}

// send schedules delivery of env from src to dst subject to faults at both
// send and delivery time.
func (n *Network) send(src *Node, to transport.NodeID, env envelope) {
	n.Sent++
	fromID := transport.NodeID("")
	if src != nil {
		fromID = src.id
	}
	lc := n.link(fromID, to)
	lc.sentInc()
	if src != nil && (!src.up || src.unplugged) {
		n.Dropped++
		lc.droppedInc()
		n.reapDropped(src, to, env)
		return
	}
	dst := n.nodes[to]
	if dst == nil {
		n.Dropped++
		lc.droppedInc()
		n.reapDropped(src, to, env)
		return
	}
	if n.loss > 0 && n.rng.Bool(n.loss) {
		n.Dropped++
		lc.droppedInc()
		n.reapDropped(src, to, env)
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
	n.world.After(delay, "deliver:"+string(to), func() {
		if !n.deliverable(src, dst) {
			n.Dropped++
			lc.droppedInc()
			n.reapDropped(src, to, env)
			return
		}
		n.Delivered++
		dst.deliver(fromID, env)
	})
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

// Tracer returns the owning network's span tracer (nil-safe to use).
func (nd *Node) Tracer() *obs.Tracer { return nd.net.tracer }

// Up reports whether the process is running.
func (nd *Node) Up() bool { return nd.up }

// Unplugged reports whether the NIC is disconnected.
func (nd *Node) Unplugged() bool { return nd.unplugged }

// SetHandler installs (or replaces) the message handler.
func (nd *Node) SetHandler(h transport.Handler) { nd.handler = h }

// Send delivers a one-way message (subject to faults and latency).
func (nd *Node) Send(to transport.NodeID, msg any) {
	nd.net.send(nd, to, envelope{kind: envOneway, payload: msg})
}

// PendingCalls returns the number of outstanding RPCs awaiting a response
// (diagnostics and leak tests).
func (nd *Node) PendingCalls() int { return len(nd.pending) }

// failPending reports a dropped request or response to a pending call that
// has no timeout timer. Timer-armed calls keep their original semantics
// (the timeout fires later); zero-timeout calls would otherwise leak their
// pending entry — and never learn of the drop — for the node's lifetime.
func (nd *Node) failPending(id uint64) {
	pc, ok := nd.pending[id]
	if !ok || pc.timer != nil {
		return
	}
	delete(nd.pending, id)
	gen := nd.gen
	nd.net.world.Defer("rpc-drop:"+string(nd.id), func() {
		if nd.up && nd.gen == gen {
			pc.cb(nil, transport.ErrTimeout)
		}
	})
}

// Call issues an RPC. cb runs exactly once: with the response; with
// ErrTimeout after the deadline (or, for zero-timeout calls, as soon as the
// request or its response is provably dropped); or never if this node
// crashes first.
func (nd *Node) Call(to transport.NodeID, req any, timeout sim.Time, cb func(resp any, err error)) {
	if !nd.up {
		// Local process is dead; nothing can run a callback meaningfully.
		return
	}
	nd.nextCall++
	id := nd.nextCall
	pc := &pendingCall{cb: cb}
	if timeout > 0 {
		// The deadline is measured on the node's local clock: a skewed-fast
		// node gives up on RPCs early relative to true time (gray.go).
		timeout = nd.stretchTimeout(timeout)
		gen := nd.gen
		pc.timer = nd.net.world.After(timeout, "rpc-timeout:"+string(nd.id), func() {
			if nd.gen != gen || !nd.up {
				return
			}
			if p, ok := nd.pending[id]; ok && p == pc {
				delete(nd.pending, id)
				nd.net.link(nd.id, to).timeoutInc()
				pc.cb(nil, transport.ErrTimeout)
			}
		})
	}
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
			// Node does not serve RPCs; the request times out at the caller.
			// A zero-timeout caller has no timer to fire, so reap its entry.
			if src := nd.net.nodes[from]; src != nil {
				src.failPending(env.id)
			}
			return
		}
		replied := false
		gen := nd.gen
		id := env.id
		rh.HandleRequest(from, env.payload, func(resp any) {
			if replied {
				panic("simnet: reply invoked twice")
			}
			replied = true
			if nd.gen != gen || !nd.up {
				return // we crashed since receiving the request
			}
			nd.net.send(nd, from, envelope{kind: envResponse, id: id, payload: resp})
		})
	case envResponse:
		pc, ok := nd.pending[env.id]
		if !ok {
			return // late response after timeout or crash
		}
		delete(nd.pending, env.id)
		if pc.timer != nil {
			pc.timer.Stop()
		}
		pc.cb(env.payload, nil)
	}
}

// After schedules fn on this node's behalf; it silently does not fire if the
// node has crashed or restarted in the meantime. d is a *local* duration:
// slowdown stretches it and clock skew rescales it (gray.go), so a degraded
// or skewed node's timers fire late or early in true virtual time.
func (nd *Node) After(d sim.Time, name string, fn func()) transport.Timer {
	d = nd.stretchTimer(d)
	gen := nd.gen
	return nd.net.world.After(d, string(nd.id)+":"+name, func() {
		if nd.up && nd.gen == gen {
			fn()
		}
	})
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
