// Package sim implements a deterministic discrete-event simulation kernel.
//
// All components of the reproduced system (metadata servers, coordination
// ensemble, data servers, clients) run on a single virtual clock owned by a
// World. Events are executed in strict (time, sequence) order, so a run is
// bit-for-bit reproducible given the same seed and schedule of calls.
//
// The virtual clock is entirely decoupled from wall time: simulating the
// paper's 240-second failover experiments takes milliseconds of real time.
//
// The kernel is a hot path: every simulated RPC arms (and usually cancels) a
// timeout timer, so the experiment harness dispatches tens of millions of
// events per run. Three mechanisms keep that cheap:
//
//   - fired and compacted events return to a per-World free list, and the
//     Timer handle is a value, so steady-state scheduling does not allocate;
//   - an event body may be a Firer the caller keeps anyway (a reused record,
//     a handle), and an event's owner and name are joined only when the
//     step limit reports it, so a schedule builds neither a closure nor a
//     string;
//   - cancelled events are removed lazily, but the heap is compacted once
//     more than half of it is dead, so Timer.Stop cannot leak memory.
//
// A World is confined to one goroutine. Independent Worlds (one per
// experiment trial) may run on different goroutines concurrently; they share
// no state.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration so the two convert
// trivially.
type Time int64

// Common virtual-time unit constructors.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Duration converts a virtual instant (relative to zero) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a time.Duration into a virtual duration.
func FromDuration(d time.Duration) Time { return Time(d) }

// A Firer is an event body. Scheduling a value the caller keeps anyway — a
// reused record, a handle it returns — through AfterFor costs no closure.
type Firer interface{ Fire() }

// Func adapts a plain function to Firer. A func value is a single pointer,
// so the conversion does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// An event is a scheduled callback. Events fire in (at, seq) order; seq is a
// monotonically increasing tiebreaker that makes scheduling deterministic.
// Recycled events bump gen so stale Timer handles cannot observe the next
// occupant of the struct.
type event struct {
	at    Time
	seq   uint64
	gen   uint64
	owner string // who the event runs for ("" for the world itself)
	name  string
	f     Firer
	w     *World
	index int  // heap index, -1 once popped
	dead  bool // cancelled
}

// label names the event for a panic: "owner:name", or name alone.
func (ev *event) label() string {
	if ev.owner == "" {
		return ev.name
	}
	return ev.owner + ":" + ev.name
}

// Timer is a handle to a scheduled event; it may be cancelled before firing.
// It is a value: the generation snapshot detaches it once the event struct
// is recycled for a later schedule, so copies need no shared state. The
// zero Timer refers to nothing.
type Timer struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original, uncancelled,
// unfired schedule.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// Stop cancels the timer. It reports whether the timer was still pending.
// The event stays in the heap until it surfaces or a compaction pass
// reclaims it; either way it no longer counts toward World.Pending.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	ev := t.ev
	pending := ev.index >= 0
	ev.dead = true
	ev.f = nil // release the body now; the struct may linger in the heap
	if pending {
		ev.w.dead++
	}
	return pending
}

// Pending reports whether the timer has neither fired nor been stopped.
func (t Timer) Pending() bool {
	return t.live() && t.ev.index >= 0
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// compactThreshold is the minimum heap size before lazy-deleted events
// trigger a compaction pass; below it the dead entries are cheaper to carry
// until they surface naturally.
const compactThreshold = 64

// World owns the virtual clock and the pending-event queue.
type World struct {
	now     Time
	seq     uint64
	events  eventHeap
	dead    int // cancelled events still occupying the heap
	free    []*event
	steps   uint64
	maxStep uint64 // safety valve against runaway simulations; 0 = unlimited
	running bool
}

// NewWorld returns a World with the clock at zero and an empty event queue.
func NewWorld() *World {
	return &World{maxStep: 0}
}

// SetStepLimit installs a safety valve: Run panics after n dispatched events.
// Zero disables the limit.
func (w *World) SetStepLimit(n uint64) { w.maxStep = n }

// Now returns the current virtual time.
func (w *World) Now() Time { return w.now }

// Steps returns the number of events dispatched so far.
func (w *World) Steps() uint64 { return w.steps }

// Pending returns the number of live events currently scheduled; events
// cancelled via Timer.Stop are excluded even while they still occupy heap
// slots awaiting compaction.
func (w *World) Pending() int { return len(w.events) - w.dead }

// alloc takes an event from the free list (or the allocator) and fills it.
func (w *World) alloc(t Time, owner, name string, f Firer) *event {
	var ev *event
	if n := len(w.free); n > 0 {
		ev = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		ev = &event{w: w}
	}
	w.seq++
	ev.at = t
	ev.seq = w.seq
	ev.owner = owner
	ev.name = name
	ev.f = f
	ev.dead = false
	return ev
}

// recycle invalidates any outstanding Timer handles on ev and returns it to
// the free list. ev must already be out of the heap.
func (w *World) recycle(ev *event) {
	ev.gen++
	ev.f = nil
	ev.owner, ev.name = "", ""
	w.free = append(w.free, ev)
}

// maybeCompact rebuilds the heap without its dead entries once they out-
// number the live ones, returning the structs to the free list. Rebuilding
// preserves dispatch order exactly: (at, seq) is a total order.
func (w *World) maybeCompact() {
	if w.dead < compactThreshold || 2*w.dead <= len(w.events) {
		return
	}
	live := w.events[:0]
	for _, ev := range w.events {
		if ev.dead {
			ev.index = -1
			w.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(w.events); i++ {
		w.events[i] = nil
	}
	w.events = live
	for i, ev := range w.events {
		ev.index = i
	}
	heap.Init(&w.events)
	w.dead = 0
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (w *World) At(t Time, name string, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < w.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", name, t, w.now))
	}
	return w.schedule(t, "", name, Func(fn))
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero (fires "immediately" but still via the queue, preserving
// run-to-completion semantics of the current event).
func (w *World) After(d Time, name string, fn func()) Timer {
	return w.At(w.now+max(d, 0), name, fn)
}

// Defer schedules fn at the current instant, after all callbacks already
// queued for this instant.
func (w *World) Defer(name string, fn func()) Timer {
	return w.At(w.now, name, fn)
}

// AfterFor is After for an event that runs on owner's behalf, with a body
// the caller keeps: owner and name stay apart, and are joined ("owner:name")
// only if the step limit reports the event.
func (w *World) AfterFor(d Time, owner, name string, f Firer) Timer {
	if f == nil {
		panic("sim: nil event function")
	}
	return w.schedule(w.now+max(d, 0), owner, name, f)
}

// schedule queues f at t, which is not in the past, and returns its handle.
func (w *World) schedule(t Time, owner, name string, f Firer) Timer {
	w.maybeCompact()
	ev := w.alloc(t, owner, name, f)
	heap.Push(&w.events, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (w *World) Step() bool {
	for len(w.events) > 0 {
		ev := heap.Pop(&w.events).(*event)
		if ev.dead {
			w.dead--
			w.recycle(ev)
			continue
		}
		if ev.at < w.now {
			panic("sim: time went backwards")
		}
		w.now = ev.at
		w.steps++
		if w.maxStep > 0 && w.steps > w.maxStep {
			panic(fmt.Sprintf("sim: step limit %d exceeded (last event %q at %v)", w.maxStep, ev.label(), ev.at))
		}
		f := ev.f
		// Recycle before dispatch so an event the body schedules can reuse
		// this one from the free list; the gen bump has already detached
		// the handle.
		w.recycle(ev)
		f.Fire()
		return true
	}
	return false
}

// Run dispatches events until the queue drains.
func (w *World) Run() {
	if w.running {
		panic("sim: reentrant Run")
	}
	w.running = true
	defer func() { w.running = false }()
	for w.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then advances the clock
// to exactly t (even if the queue drained earlier or later events remain).
func (w *World) RunUntil(t Time) {
	if w.running {
		panic("sim: reentrant Run")
	}
	w.running = true
	defer func() { w.running = false }()
	for len(w.events) > 0 {
		// Peek: the heap root is the earliest event. Dead roots are
		// reclaimed here rather than via Step, which would otherwise skip
		// past them and dispatch a live event beyond the boundary.
		root := w.events[0]
		if root.dead {
			heap.Pop(&w.events)
			w.dead--
			w.recycle(root)
			continue
		}
		if root.at > t {
			break
		}
		w.Step()
	}
	if w.now < t {
		w.now = t
	}
}

// RunFor advances the simulation by virtual duration d.
func (w *World) RunFor(d Time) { w.RunUntil(w.now + d) }

// RunUntilLimited is RunUntil with an event budget: it stops after
// dispatching at most maxSteps events even if the time boundary has not
// been reached, reporting the number of events dispatched and whether the
// budget ran out. Unlike SetStepLimit it does not panic, so callers (e.g.
// the systematic fault explorer) can turn a runaway schedule into a
// reported liveness failure instead of a crash. maxSteps == 0 means
// unlimited.
func (w *World) RunUntilLimited(t Time, maxSteps uint64) (steps uint64, hitLimit bool) {
	if w.running {
		panic("sim: reentrant Run")
	}
	w.running = true
	defer func() { w.running = false }()
	for len(w.events) > 0 {
		if maxSteps > 0 && steps >= maxSteps {
			return steps, true
		}
		root := w.events[0]
		if root.dead {
			heap.Pop(&w.events)
			w.dead--
			w.recycle(root)
			continue
		}
		if root.at > t {
			break
		}
		w.Step()
		steps++
	}
	if w.now < t {
		w.now = t
	}
	return steps, false
}

// RunForLimited advances by up to d of virtual time within an event budget.
func (w *World) RunForLimited(d Time, maxSteps uint64) (steps uint64, hitLimit bool) {
	return w.RunUntilLimited(w.now+d, maxSteps)
}
