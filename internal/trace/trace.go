// Package trace records one process's protocol history as a single ordered
// stream: point events (a role change, an election won, an injected fault)
// and span edges (the begin and end of a causally linked interval: a
// failover and its stages, a renewal, one journal 2PC round). The MAMS
// experiments mine the point events for the server state-transition table
// (Table II) and the failover stage breakdown (Fig. 7), the invariant
// monitor subscribes to them, and Spans folds the edges into the span tree
// that obs.WriteChromeTrace exports. The clock is the caller's: the world's
// virtual time on the simulator, the process's transport clock on the wire.
package trace

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"mams/internal/obs"
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
	KindBegin    Kind = "begin"    // a span opened (Begin); What is its name
	KindEnd      Kind = "end"      // a span closed (End); What is its name
)

// Event is one timestamped record.
type Event struct {
	At   sim.Time
	Kind Kind
	Node string // subject node, "" if not node-specific
	What string // short machine-friendly label, e.g. "become-active"
	Args map[string]string
	// Span edges only: the span opened or closed, and an opening edge's
	// parent (0 for a root).
	Span, Parent obs.SpanID
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

// Log collects events in emission order, which is time order: a simulated
// world is single-threaded, and a wire process's log is written only on its
// event loop (read it through the transport's Do).
type Log struct {
	now          func() sim.Time
	events       []Event
	subs         []func(Event)
	dispatchOnly map[Kind]bool
	open         map[obs.SpanID]int // open span -> index of its begin edge
	lastSpan     obs.SpanID
}

// New returns an empty log on the given clock.
func New(now func() sim.Time) *Log { return &Log{now: now, open: map[obs.SpanID]int{}} }

// DispatchOnly marks a kind as delivered to subscribers but not retained in
// the log, so per-batch records (KindJournal on a loaded run) do not fill it
// when only subscribing monitors read them. Keeps then reports false for the
// kind, and the per-batch spans guarded by it are not recorded either.
func (l *Log) DispatchOnly(k Kind) {
	if l.dispatchOnly == nil {
		l.dispatchOnly = map[Kind]bool{}
	}
	l.dispatchOnly[k] = true
}

// Wants reports whether an event of kind k would be retained or dispatched.
// A per-batch caller asks first, so that nothing is formatted for a log
// that keeps none of it.
func (l *Log) Wants(k Kind) bool {
	return l != nil && (!l.dispatchOnly[k] || len(l.subs) > 0)
}

// Keeps reports whether an event of kind k would be retained. Span edges are
// retained and never dispatched, so a per-batch span asks Keeps, not Wants.
func (l *Log) Keeps(k Kind) bool { return l != nil && !l.dispatchOnly[k] }

// Emit appends an event at the current time. Args are optional alternating
// key/value string pairs. Nil-safe.
func (l *Log) Emit(kind Kind, node, what string, args ...string) {
	if l == nil {
		return
	}
	ev := Event{At: l.now(), Kind: kind, Node: node, What: what, Args: argMap(args)}
	if !l.dispatchOnly[kind] {
		l.events = append(l.events, ev)
	}
	for _, s := range l.subs {
		s(ev)
	}
}

// Begin opens a span and records its begin edge. parent may be 0 (a root).
// Span edges are retained, not dispatched: subscribers see point events
// only. Nil-safe: a nil log returns 0.
func (l *Log) Begin(name, node string, parent obs.SpanID, args ...string) obs.SpanID {
	if l == nil {
		return 0
	}
	l.lastSpan++
	l.open[l.lastSpan] = len(l.events)
	l.events = append(l.events, Event{At: l.now(), Kind: KindBegin, Node: node, What: name,
		Args: argMap(args), Span: l.lastSpan, Parent: parent})
	return l.lastSpan
}

// End closes an open span and records its end edge, whose args Spans folds
// into the span's. Ending 0, an unknown or an already-closed span is a
// no-op. Nil-safe.
func (l *Log) End(id obs.SpanID, args ...string) {
	if l == nil {
		return
	}
	i, ok := l.open[id]
	if !ok {
		return
	}
	delete(l.open, id)
	begin := l.events[i]
	l.events = append(l.events, Event{At: l.now(), Kind: KindEnd, Node: begin.Node, What: begin.What,
		Args: argMap(args), Span: id})
}

func argMap(args []string) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		m[args[i]] = args[i+1]
	}
	return m
}

// Subscribe registers fn to be called synchronously on every future point
// event.
func (l *Log) Subscribe(fn func(Event)) { l.subs = append(l.subs, fn) }

// Events returns the recorded events, point events and span edges in
// emission order (shared slice; callers must not modify).
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Spans folds the span edges into spans, in begin order. A span still open
// has Done == false; a closed one carries its begin args and its end args.
func (l *Log) Spans() []obs.Span {
	var spans []obs.Span
	for _, e := range l.Events() {
		switch e.Kind {
		case KindBegin:
			spans = append(spans, obs.Span{ID: e.Span, Parent: e.Parent, Name: e.What, Node: e.Node,
				Start: e.At, Args: maps.Clone(e.Args)})
		case KindEnd:
			sp := &spans[e.Span-1] // Begin numbers spans 1, 2, … in edge order
			sp.End, sp.Done = e.At, true
			if sp.Args == nil {
				sp.Args = maps.Clone(e.Args)
			} else {
				maps.Copy(sp.Args, e.Args)
			}
		}
	}
	return spans
}

// Dump renders every point event, one per line; span edges are left out
// (Spans and obs.WriteChromeTrace render those).
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.events {
		if e.Kind == KindBegin || e.Kind == KindEnd {
			continue
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
