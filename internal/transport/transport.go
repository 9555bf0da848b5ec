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
//   - Every Call has a deadline: its timeout must be positive, and a Call
//     with timeout <= 0 panics (a wiring bug, like a duplicate Listen).
//     The callback runs exactly once — with the response, with ErrRefused
//     at once when the request provably never reached a listening process,
//     or with ErrTimeout at its deadline — and never if the caller crashes
//     first. A request or response that is lost any other way is silence:
//     the deadline answers it.
//   - Send is fire-and-forget; sends to dead or unknown peers are dropped
//     silently (detected only by Call timeouts, or by ErrRefused where the
//     peer's host refuses the connection), mirroring UDP-ish loss.
//   - After schedules a callback on the same serialized executor; the
//     returned Timer can be stopped and queried.
//
// ErrRefused is the one failure that proves something: the destination's
// address refused the connection, so no process was listening there and
// the request was never received. Only the real plane reports it (a dial
// answered with ECONNREFUSED); the simulator's crashed nodes stay silent,
// so no seeded run ever sees it. Every other failure — a time-out, an
// unreachable host, a dropped connection — is silence and proves nothing.
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
// arrived by its deadline. Implementations must return this exact value:
// protocol code compares by identity.
var ErrTimeout = errors.New("transport: rpc timeout")

// ErrRefused is the error a Call callback receives, at once and whatever
// its timeout, when the request provably never reached a listening
// process: the destination's address refused the connection. Protocol code
// may treat it as proof that no process serves that address now; it must
// never treat ErrTimeout so. Implementations must return this exact value.
var ErrRefused = errors.New("transport: connection refused")

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

	// Send delivers msg to the peer's Handler, fire-and-forget.
	Send(to NodeID, msg any)
	// Call delivers req to the peer's RequestHandler and invokes cb exactly
	// once: with the response, with ErrRefused at once if the destination
	// refused the connection, or with ErrTimeout when timeout has passed.
	// timeout must be positive; Call panics otherwise.
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

	// Obs exposes the owning transport's metrics registry; it may be nil.
	Obs() *obs.Registry
}

// Transport creates nodes. A transport instance corresponds to one failure
// domain of executor state: the whole simulated world on the sim plane,
// one OS process on the real plane.
type Transport interface {
	// Listen registers a node under id and starts delivering its traffic.
	// Registering a duplicate id panics (it is always a wiring bug).
	Listen(id NodeID, h Handler) Node
	Obs() *obs.Registry
}
