// Package trace records structured simulation events with virtual
// timestamps. The MAMS experiments mine this log to reconstruct server
// state-transition tables (Table II) and failover stage breakdowns (Fig. 7).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"mams/internal/sim"
)

// Kind classifies a trace event.
type Kind string

// Event kinds emitted by the reproduced systems.
const (
	KindState    Kind = "state"    // a server changed role (active/standby/junior/down)
	KindElection Kind = "election" // election started/won
	KindFailover Kind = "failover" // a failover protocol stage boundary
	KindFault    Kind = "fault"    // injected fault (crash, unplug, lock loss, restart)
	KindClient   Kind = "client"   // client-visible milestone (first failure, reconnect)
	KindJournal  Kind = "journal"  // journal sync milestones
	KindRenew    Kind = "renew"    // junior renewing milestones
	KindCoord    Kind = "coord"    // coordination-service events (session expiry, watch)
	KindCheck    Kind = "check"    // invariant-checker verdicts (internal/check)
	KindHealth   Kind = "health"   // gray-failure detector verdicts (internal/health)
)

// Event is one timestamped record.
type Event struct {
	At   sim.Time
	Kind Kind
	Node string // subject node, "" if not node-specific
	What string // short machine-friendly label, e.g. "become-active"
	Args map[string]string
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.4fs %-9s %-14s %s", e.At.Seconds(), e.Kind, e.Node, e.What)
	// Sorted keys: ranging over the map directly made Dump() output differ
	// run-to-run for identical simulations.
	keys := make([]string, 0, len(e.Args))
	for k := range e.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, e.Args[k])
	}
	return b.String()
}

// Log collects events in emission order (which equals virtual-time order,
// because the simulation is single-threaded).
type Log struct {
	world        *sim.World
	events       []Event
	subs         []func(Event)
	dispatchOnly map[Kind]bool
}

// New returns an empty log bound to the world's clock.
func New(w *sim.World) *Log { return &Log{world: w} }

// DispatchOnly marks a kind as delivered to subscribers but not retained in
// the log. High-volume instrumentation (per-batch journal appends under
// Params.TraceAppends) would otherwise dominate the log's memory on long
// loaded runs whose consumers are purely subscription-based monitors.
func (l *Log) DispatchOnly(k Kind) {
	if l.dispatchOnly == nil {
		l.dispatchOnly = map[Kind]bool{}
	}
	l.dispatchOnly[k] = true
}

// Emit appends an event at the current virtual time. Args are optional
// alternating key/value string pairs.
func (l *Log) Emit(kind Kind, node, what string, args ...string) {
	if l == nil {
		return
	}
	ev := Event{At: l.world.Now(), Kind: kind, Node: node, What: what}
	if len(args) > 0 {
		ev.Args = make(map[string]string, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			ev.Args[args[i]] = args[i+1]
		}
	}
	if !l.dispatchOnly[kind] {
		l.events = append(l.events, ev)
	}
	for _, s := range l.subs {
		s(ev)
	}
}

// Subscribe registers fn to be called synchronously on every future event.
func (l *Log) Subscribe(fn func(Event)) { l.subs = append(l.subs, fn) }

// Events returns the recorded events (shared slice; callers must not modify).
func (l *Log) Events() []Event { return l.events }

// Filter returns events matching the predicate.
func (l *Log) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range l.events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// ByKind returns events of one kind.
func (l *Log) ByKind(k Kind) []Event {
	return l.Filter(func(e Event) bool { return e.Kind == k })
}

// First returns the earliest event of kind k with label what at or after t,
// or nil.
func (l *Log) First(k Kind, what string, t sim.Time) *Event {
	for i := range l.events {
		e := &l.events[i]
		if e.Kind == k && e.What == what && e.At >= t {
			return e
		}
	}
	return nil
}

// Len reports the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Dump renders all events, one per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
