// Package transport defines the plane-neutral messaging surface the MAMS
// protocol state machines (internal/mams, internal/coord, internal/ssp,
// internal/fsclient) are written against. Two implementations exist:
//
//   - internal/simnet — the deterministic discrete-event simulation plane.
//     Virtual clock, seeded latency model; byte-identical runs for a given
//     seed.
//   - internal/nettrans — the real plane. TCP listeners on real addresses,
//     self-contained length-prefixed frames in internal/wire's encoding,
//     wall-clock timers.
//
// The protocol packages import only this package (enforced by a lint test
// in internal/transport); which plane they run on is decided by whoever
// constructs the servers. Faults other than a crash are not part of this
// surface: they are the test harness's, applied to the simulator's node
// (internal/check.Inject applies the fault alphabet), so the wire plane has
// no unplug, slowdown or clock skew to stub. Both planes honor the same contract, pinned by
// the cross-transport conformance suite (transporttest):
//
//   - Handlers run one at a time per transport: a handler never races
//     another handler or timer callback on the same transport. Protocol
//     code needs no locks.
//   - Call invokes its callback exactly once — with the response, with
//     ErrTimeout after the timeout (or when the request/response is
//     provably lost, even with timeout 0), or never-leaking on teardown.
//   - Send is fire-and-forget; sends to dead or unknown peers are dropped
//     silently (detected only by Call timeouts), mirroring UDP-ish loss.
//   - After schedules a callback on the same serialized executor; the
//     returned Timer can be stopped and queried.
//
// Durations and instants use sim.Time (int64 nanoseconds, mirroring
// time.Duration) on both planes so protocol constants read identically;
// the real plane maps it onto the wall clock.
package transport

import (
	"errors"

	"mams/internal/obs"
	"mams/internal/sim"
)

// NodeID names a node on a transport. IDs are flat strings ("mams-0-1",
// "coord2", "client-7"); on the real plane a resolver maps them to
// addresses.
type NodeID string

// ErrTimeout is the error a Call callback receives when no response
// arrived in time (or the request was provably dropped). Implementations
// must return this exact value: protocol code compares by identity.
var ErrTimeout = errors.New("transport: rpc timeout")

// ErrNodeDown is returned by operations attempted from a crashed node.
var ErrNodeDown = errors.New("transport: node down")

// Handler receives one-way messages.
type Handler interface {
	HandleMessage(from NodeID, msg any)
}

// RequestHandler additionally receives request/response calls. reply must
// be called exactly once (synchronously or later) to answer the request.
type RequestHandler interface {
	Handler
	HandleRequest(from NodeID, req any, reply func(resp any))
}

// Timer is a cancellable scheduled callback, as returned by Node.After.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was still
	// pending (false if it already fired or was already stopped).
	Stop() bool
	// Pending reports whether the callback has yet to fire.
	Pending() bool
}

// Charge runs fn on n's executor once the modelled cost d has been paid: a
// timer when d > 0, inline when d is zero. The plane decides which it is — the
// simulator charges the calibrated cost model, the wire plane the zero one
// (mams.CostModel, ssp.Params) — and the zero case must arm no timer, because
// an idle Go process fires a sub-millisecond timer up to a millisecond late
// (see package nettrans) and that would sit on every op. Use it only where
// running fn before Charge returns is safe: fn answers through the transport,
// or Charge is the last thing its caller does.
func Charge(n Node, d sim.Time, name string, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	n.After(d, name, fn)
}

// Lane is a single-threaded resource in modelled time — a dispatch thread, a
// journal writer, a disk: work queued at now starts when the lane is free or
// at now, whichever is later, and keeps it busy for its cost. The zero Lane
// is free. Callers schedule the work themselves (Charge, or After where a
// zero wait must still yield to the event queue).
type Lane struct{ free sim.Time }

// Add queues cost at now and returns the wait from now until it is done.
func (l *Lane) Add(now, cost sim.Time) sim.Time {
	if l.free < now {
		l.free = now
	}
	l.free += cost
	return l.free - now
}

// Node is one endpoint's handle onto its transport. All methods are meant
// to be used from within the transport's serialized executor (handler and
// timer callbacks); Call callbacks likewise run serialized.
type Node interface {
	ID() NodeID
	// SetHandler swaps the message handler (used by composite hosts that
	// demultiplex to several protocol clients).
	SetHandler(h Handler)

	// Send delivers msg to the peer's Handler, fire-and-forget.
	Send(to NodeID, msg any)
	// Call delivers req to the peer's RequestHandler and invokes cb exactly
	// once with the response or an error. timeout == 0 means no deadline,
	// but the callback still fires with ErrTimeout if the request or
	// response is provably lost (peer dead, connection refused).
	Call(to NodeID, req any, timeout sim.Time, cb func(resp any, err error))
	// PendingCalls reports the number of Calls awaiting a callback —
	// a leak diagnostic.
	PendingCalls() int

	// After schedules fn on the transport's executor after d. Now is the
	// transport clock: virtual time on the sim plane, wall-clock elapsed
	// time on the real plane. LocalNow is this node's possibly-skewed view
	// of Now (identical to Now unless a clock-skew fault is injected).
	After(d sim.Time, name string, fn func()) Timer
	Now() sim.Time
	LocalNow() sim.Time

	// Liveness. Crash stops the node's I/O, timers and pending calls on
	// either plane; Restart brings it back with none of them. The server
	// calls both on its own node. Every other fault (unplug, cuts,
	// slowdown, clock skew, link flap) belongs to the test harness, which
	// applies it to the simulator's node (simnet.Network.Node), never
	// through this interface.
	Up() bool
	Crash()
	Restart()

	// Obs and Tracer expose the observability attachments of the owning
	// transport; either may be nil.
	Obs() *obs.Registry
	Tracer() *obs.Tracer
}

// Transport creates nodes. A transport instance corresponds to one failure
// domain of executor state: the whole simulated world on the sim plane,
// one OS process on the real plane.
type Transport interface {
	// Listen registers a node under id and starts delivering its traffic.
	// Registering a duplicate id panics (it is always a wiring bug).
	Listen(id NodeID, h Handler) Node
	Obs() *obs.Registry
	Tracer() *obs.Tracer
}
