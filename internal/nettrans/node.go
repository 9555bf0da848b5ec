package nettrans

import (
	"container/heap"
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
)

// netPending is one outstanding Call. A timed call's deadline lives inside
// it, and entries are reused (Transport.freeCalls), so a warm Call allocates
// none whether or not it has a timeout.
type netPending struct {
	cb       func(resp any, err error)
	id       uint64
	timed    bool
	deadline timer // in the heap while timed and outstanding
}

// acquire returns a pending entry for call id, reusing a released one when
// there is one. Loop-only.
func (t *Transport) acquire(id uint64, cb func(resp any, err error)) *netPending {
	var pc *netPending
	if n := len(t.freeCalls); n > 0 {
		pc, t.freeCalls = t.freeCalls[n-1], t.freeCalls[:n-1]
	} else {
		pc = &netPending{deadline: timer{index: -1}}
		pc.deadline.call = pc
	}
	pc.cb, pc.id, pc.timed = cb, id, false
	return pc
}

// release puts an entry that has left its node's pending map, and whose
// deadline is out of the heap, back for reuse, and returns its callback.
// Loop-only.
func (t *Transport) release(pc *netPending) func(resp any, err error) {
	cb := pc.cb
	pc.cb = nil
	t.freeCalls = append(t.freeCalls, pc)
	return cb
}

// Node is one endpoint hosted on a Transport. All methods are loop-only
// unless noted (use Transport.Do from outside); this matches the sim plane,
// where everything runs inside the single-threaded world.
type Node struct {
	id      transport.NodeID
	tr      *Transport
	handler transport.Handler
	up      bool
	gen     uint64 // bumped on crash; invalidates timers and pending RPCs

	pending map[uint64]*netPending
}

// ID returns the node's name. Safe from any goroutine.
func (nd *Node) ID() transport.NodeID { return nd.id }

// Transport returns the owning transport. Safe from any goroutine.
func (nd *Node) Transport() *Transport { return nd.tr }

// SetHandler installs (or replaces) the message handler.
func (nd *Node) SetHandler(h transport.Handler) { nd.handler = h }

// Up reports whether the node is accepting traffic.
func (nd *Node) Up() bool { return nd.up }

// Now returns the transport clock (wall-clock elapsed). Safe anywhere.
func (nd *Node) Now() sim.Time { return nd.tr.Now() }

// LocalNow equals Now: clock-skew injection is a sim-plane fault.
func (nd *Node) LocalNow() sim.Time { return nd.tr.Now() }

// Obs returns the transport's metrics registry (possibly nil).
func (nd *Node) Obs() *obs.Registry { return nd.tr.reg }

// Tracer returns the transport's span tracer (possibly nil).
func (nd *Node) Tracer() *obs.Tracer { return nd.tr.tracer }

// PendingCalls reports outstanding RPCs awaiting a callback.
func (nd *Node) PendingCalls() int { return len(nd.pending) }

// Send delivers a one-way message, fire-and-forget.
func (nd *Node) Send(to transport.NodeID, msg any) {
	nd.tr.sendFrame(frame{Kind: frameOneway, From: nd.id, To: to, Payload: msg})
}

// Call issues an RPC. cb runs exactly once on the loop: with the response;
// with transport.ErrTimeout after the deadline (or, for zero-timeout calls,
// as soon as the request is provably undeliverable); or never if this node
// crashes first.
func (nd *Node) Call(to transport.NodeID, req any, timeout sim.Time, cb func(resp any, err error)) {
	if !nd.up {
		return
	}
	nd.tr.nextCall++
	id := nd.tr.nextCall
	pc := nd.tr.acquire(id, cb)
	if timeout > 0 {
		pc.timed = true
		nd.arm(&pc.deadline, timeout)
	}
	nd.pending[id] = pc
	nd.tr.sendFrame(frame{Kind: frameRequest, ID: id, From: nd.id, To: to, Payload: req})
}

// failPending fails a provably-lost call that has no timeout timer armed
// (timer-armed calls keep their deadline semantics). Loop-only; the
// callback itself is re-posted so it never runs inside the failing send.
func (nd *Node) failPending(id uint64) {
	pc, ok := nd.pending[id]
	if !ok || pc.timed {
		return
	}
	delete(nd.pending, id)
	gen, cb := nd.gen, nd.tr.release(pc)
	nd.tr.post(func() {
		if nd.up && nd.gen == gen {
			cb(nil, transport.ErrTimeout)
		}
	})
}

// After schedules fn on the loop after wall-clock d; it silently does not
// fire if the node crashes or restarts in the meantime.
func (nd *Node) After(d sim.Time, name string, fn func()) transport.Timer {
	_ = name // the sim plane uses names for deterministic trace labels
	tm := &timer{fn: fn}
	nd.arm(tm, d)
	return tm
}

// Crash stops the node: timers die, pending RPC callbacks are dropped, and
// arriving frames are reaped at dispatch. The listener stays up — other
// nodes on the transport keep running (a crashed role inside a live
// process).
func (nd *Node) Crash() {
	if !nd.up {
		return
	}
	nd.up = false
	nd.gen++
	nd.pending = make(map[uint64]*netPending)
	nd.tr.dropTimers(nd)
}

// Restart brings the node back with a fresh generation; the caller is
// responsible for re-initialising handler state.
func (nd *Node) Restart() {
	if nd.up {
		return
	}
	nd.up = true
	nd.gen++
}

// ---- timers ----

// timer is one entry in the transport's deadline heap: an After callback
// or a timed Call's deadline. It is in the heap, and Pending, from arming
// until it fires or is stopped.
type timer struct {
	nd    *Node
	at    sim.Time    // deadline on the transport clock
	seq   uint64      // arming order, breaks deadline ties
	index int         // position in the heap; -1 once fired or stopped
	gen   uint64      // nd.gen at arming: a restarted node's old timers stay silent
	fn    func()      // the After callback
	call  *netPending // set instead of fn for a Call's deadline
}

// arm puts tm in the heap to fire after d. Loop-only.
func (nd *Node) arm(tm *timer, d sim.Time) {
	t := nd.tr
	t.timerSeq++
	tm.nd, tm.at, tm.seq, tm.gen = nd, t.Now()+d, t.timerSeq, nd.gen
	heap.Push(&t.timers, tm)
	t.wake()
}

// Stop cancels the timer, reporting whether it was still pending.
// Loop-only.
func (tm *timer) Stop() bool {
	if tm.index < 0 {
		return false
	}
	heap.Remove(&tm.nd.tr.timers, tm.index)
	return true
}

// Pending reports whether the callback has yet to run.
func (tm *timer) Pending() bool { return tm.index >= 0 }

// fire runs a timer popped off the heap. Loop-only.
func (tm *timer) fire() {
	nd := tm.nd
	if !nd.up || nd.gen != tm.gen {
		return
	}
	pc := tm.call
	if pc == nil {
		tm.fn()
		return
	}
	if p, ok := nd.pending[pc.id]; ok && p == pc {
		delete(nd.pending, pc.id)
		nd.tr.release(pc)(nil, transport.ErrTimeout)
	}
}

// timerHeap orders timers by deadline, then arming order. It implements
// heap.Interface and keeps each timer's index current so Stop can remove
// from the middle.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	tm := x.(*timer)
	tm.index = len(*h)
	*h = append(*h, tm)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old) - 1
	tm := old[n]
	old[n] = nil
	tm.index = -1
	*h = old[:n]
	return tm
}

// wake makes sure the runtime timer goes off by the earliest deadline in
// the heap. It is reset only when that deadline moves earlier than the one
// it is already set for, so a steady stream of equal time-outs never touches
// it. Loop-only.
func (t *Transport) wake() {
	if len(t.timers) == 0 {
		return
	}
	at := t.timers[0].at
	if t.wakeSet && t.wakeAt <= at {
		return
	}
	t.wakeSet, t.wakeAt = true, at
	d := time.Duration(at - t.Now())
	if t.rt == nil {
		fire := t.fireDue // one closure for the transport's life
		t.rt = time.AfterFunc(d, func() { t.post(fire) })
	} else {
		t.rt.Reset(d)
	}
}

// fireDue runs, in heap order, every timer whose deadline had passed when
// it started, then re-arms the runtime timer for the rest. Timers that the
// callbacks arm are due later, so a callback that keeps re-arming After(0)
// cannot hold the loop. Loop-only.
func (t *Transport) fireDue() {
	t.wakeSet = false
	now := t.Now()
	for len(t.timers) > 0 && t.timers[0].at <= now && !t.closed.Load() {
		heap.Pop(&t.timers).(*timer).fire()
	}
	t.wake()
}

// dropTimers removes nd's timers from the heap (Crash). Loop-only.
func (t *Transport) dropTimers(nd *Node) {
	kept := t.timers[:0]
	for _, tm := range t.timers {
		if tm.nd == nd {
			tm.index = -1
			continue
		}
		tm.index = len(kept)
		kept = append(kept, tm)
	}
	clear(t.timers[len(kept):])
	t.timers = kept
	heap.Init(&t.timers)
}
