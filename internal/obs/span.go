package obs

import (
	"strconv"

	"mams/internal/sim"
)

// SpanID names one span. 0 is "no span": a root has Parent 0, and
// trace.Log's Begin on a nil log returns 0, which every End ignores.
type SpanID uint64

// Span is one causally-linked interval of protocol work: an election, a
// failover stage, a renewal catch-up, one journal 2PC round. trace.Log
// records a span as a begin and an end edge in its event stream and folds
// the pair into a Span (trace.Log.Spans); the parent link survives, so the
// exported Chrome trace nests each failover's stages under it.
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

func itoa(id SpanID) string { return strconv.FormatUint(uint64(id), 10) }
