package obs

import (
	"strconv"

	"mams/internal/sim"
)

// SpanID names one span. 0 is "no span" (a root has Parent 0; nil-tracer
// Begin returns 0 and every operation on id 0 is a no-op).
type SpanID uint64

// Span is one causally-linked interval of protocol work: an election, a
// failover stage, a renewal catch-up, one journal 2PC round. Spans carry a
// parent link, so the failover breakdown of Fig. 7 is a query over the span
// tree instead of ad-hoc event mining.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string // e.g. "failover", "election", "stage-reflush"
	Node   string // subject node
	Start  sim.Time
	End    sim.Time
	Args   map[string]string
	Done   bool // false: still open (crashed mid-span, or run ended)
}

// Duration is End-Start for completed spans, 0 otherwise.
func (s Span) Duration() sim.Time {
	if !s.Done {
		return 0
	}
	return s.End - s.Start
}

// Arg returns one argument value ("" when absent).
func (s Span) Arg(k string) string { return s.Args[k] }

// DefaultMaxSpans bounds tracer retention; per-batch 2PC spans on a very
// long loaded run must not grow without bound. Overflowing Begins are
// counted and dropped.
const DefaultMaxSpans = 1 << 20

// Tracer mints spans on a virtual clock and retains the span tree for
// querying and export. Single-threaded, like everything on a World.
type Tracer struct {
	world *sim.World
	spans []Span
	open  map[SpanID]int // id -> index in spans
	next  SpanID
	// MaxSpans caps retention (0 = DefaultMaxSpans); Dropped counts spans
	// rejected by the cap.
	MaxSpans int
	Dropped  int
}

// NewTracer builds a tracer on the world's clock.
func NewTracer(w *sim.World) *Tracer {
	return &Tracer{world: w, open: map[SpanID]int{}}
}

// Begin opens a span. parent may be 0 (root). args are alternating
// key/value pairs. Nil-safe: returns 0 on a nil tracer.
func (t *Tracer) Begin(name, node string, parent SpanID, args ...string) SpanID {
	if t == nil {
		return 0
	}
	max := t.MaxSpans
	if max <= 0 {
		max = DefaultMaxSpans
	}
	if len(t.spans) >= max {
		t.Dropped++
		return 0
	}
	t.next++
	id := t.next
	sp := Span{ID: id, Parent: parent, Name: name, Node: node, Start: t.world.Now()}
	if len(args) > 0 {
		sp.Args = make(map[string]string, len(args)/2)
		for i := 0; i+1 < len(args); i += 2 {
			sp.Args[args[i]] = args[i+1]
		}
	}
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, sp)
	return id
}

// End closes a span, folding extra args into it. Ending an unknown or
// already-closed id is a no-op. Nil-safe.
func (t *Tracer) End(id SpanID, args ...string) {
	if t == nil || id == 0 {
		return
	}
	idx, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	sp := &t.spans[idx]
	sp.End = t.world.Now()
	sp.Done = true
	for i := 0; i+1 < len(args); i += 2 {
		if sp.Args == nil {
			sp.Args = make(map[string]string, len(args)/2)
		}
		sp.Args[args[i]] = args[i+1]
	}
}

// Spans returns every recorded span in begin order (shared slice; callers
// must not modify). Open spans have Done == false.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// EarliestStart returns the completed-or-open span of the given name with
// the smallest Start at or after at.
func (t *Tracer) EarliestStart(name string, at sim.Time) (Span, bool) {
	var best Span
	found := false
	for _, sp := range t.Spans() {
		if sp.Name != name || sp.Start < at {
			continue
		}
		if !found || sp.Start < best.Start {
			best, found = sp, true
		}
	}
	return best, found
}

// EarliestEnd returns the completed span of the given name with the
// smallest End at or after at, optionally filtered by one arg (argKey == ""
// matches all spans).
func (t *Tracer) EarliestEnd(name string, at sim.Time, argKey, argVal string) (Span, bool) {
	var best Span
	found := false
	for _, sp := range t.Spans() {
		if sp.Name != name || !sp.Done || sp.End < at {
			continue
		}
		if argKey != "" && sp.Args[argKey] != argVal {
			continue
		}
		if !found || sp.End < best.End {
			best, found = sp, true
		}
	}
	return best, found
}

// Children returns the completed children of a span, in begin order.
func (t *Tracer) Children(parent SpanID) []Span {
	var out []Span
	for _, sp := range t.Spans() {
		if sp.Parent == parent && sp.Done {
			out = append(out, sp)
		}
	}
	return out
}

func itoa(id SpanID) string { return strconv.FormatUint(uint64(id), 10) }
