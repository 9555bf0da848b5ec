package trace

import (
	"slices"
	"strings"
	"testing"

	"mams/internal/sim"
)

func TestEmitRecordsTimeAndArgs(t *testing.T) {
	w := sim.NewWorld()
	l := New(w.Now)
	w.At(3*sim.Second, "emit", func() {
		l.Emit(KindState, "node1", "become-active", "epoch", "2")
	})
	w.Run()
	evs := l.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	e := evs[0]
	if e.At != 3*sim.Second || e.Kind != KindState || e.Node != "node1" || e.What != "become-active" {
		t.Fatalf("event = %+v", e)
	}
	if e.Args["epoch"] != "2" {
		t.Fatalf("args = %v", e.Args)
	}
}

func TestEmitOddArgsIgnoresTail(t *testing.T) {
	l := New(sim.NewWorld().Now)
	l.Emit(KindFault, "n", "x", "key") // dangling key
	if len(l.Events()[0].Args) != 0 {
		t.Fatalf("args = %v", l.Events()[0].Args)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(KindFault, "n", "x") // must not panic
	if l.Events() != nil || l.Wants(KindState) {
		t.Fatalf("nil log must be inert")
	}
}

func TestNilLogSpansAreInert(t *testing.T) {
	var l *Log
	id := l.Begin("failover", "n", 0)
	l.End(id, "outcome", "won")
	if id != 0 || l.Spans() != nil {
		t.Fatalf("nil log spans must be inert: id=%d", id)
	}
}

func TestSubscribeSeesFutureEvents(t *testing.T) {
	l := New(sim.NewWorld().Now)
	var seen []Event
	l.Subscribe(func(e Event) { seen = append(seen, e) })
	l.Emit(KindClient, "c", "reconnected")
	if len(seen) != 1 || seen[0].What != "reconnected" {
		t.Fatalf("seen = %+v", seen)
	}
}

func TestDumpAndString(t *testing.T) {
	l := New(sim.NewWorld().Now)
	l.Emit(KindRenew, "j1", "image-loaded", "sn", "42")
	out := l.Dump()
	for _, want := range []string{"renew", "j1", "image-loaded", "sn=42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q: %s", want, out)
		}
	}
	if len(l.Events()) != 1 {
		t.Fatalf("events = %d", len(l.Events()))
	}
}

func TestDispatchOnlyStillReachesSubscribers(t *testing.T) {
	l := New(sim.NewWorld().Now)
	l.DispatchOnly(KindJournal)
	var seen []Event
	l.Subscribe(func(e Event) { seen = append(seen, e) })
	l.Emit(KindJournal, "a", "append", "sn", "1")
	l.Emit(KindState, "a", "become-active")
	if len(seen) != 2 {
		t.Fatalf("subscriber saw %d events, want 2 (dispatch-only must still dispatch)", len(seen))
	}
	if seen[0].What != "append" || seen[1].What != "become-active" {
		t.Fatalf("seen = %+v", seen)
	}
	// Only the retained kind lands in the log itself.
	if evs := l.Events(); len(evs) != 1 || evs[0].Kind != KindState {
		t.Fatalf("retained events = %+v", evs)
	}
}

func TestWantsFollowsRetentionAndSubscribers(t *testing.T) {
	l := New(sim.NewWorld().Now)
	l.DispatchOnly(KindJournal)
	if l.Wants(KindJournal) || !l.Wants(KindState) {
		t.Fatal("a dispatch-only kind with no subscriber is wanted by nobody; a retained kind is")
	}
	l.Subscribe(func(Event) {})
	if !l.Wants(KindJournal) {
		t.Fatal("a subscriber wants every kind")
	}
}

func TestKeepsIgnoresSubscribers(t *testing.T) {
	var nilLog *Log
	l := New(sim.NewWorld().Now)
	l.DispatchOnly(KindJournal)
	l.Subscribe(func(Event) {})
	if nilLog.Keeps(KindState) || l.Keeps(KindJournal) || !l.Keeps(KindState) {
		t.Fatal("Keeps must follow retention alone: a subscriber sees no span edge")
	}
}

func TestSpanLifecycle(t *testing.T) {
	w := sim.NewWorld()
	l := New(w.Now)
	run := func(d sim.Time) { w.After(d, "t", func() {}); w.Run() }

	root := l.Begin("failover", "n1", 0, "epoch", "2")
	run(10 * sim.Millisecond)
	el := l.Begin("election", "n1", root)
	run(5 * sim.Millisecond)
	l.End(el, "outcome", "won")
	run(20 * sim.Millisecond)
	l.End(root, "outcome", "switch-done")

	spans := l.Spans()
	if len(spans) != 2 || spans[0].ID != root || spans[1].ID != el {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Parent != 0 || spans[1].Parent != root {
		t.Fatalf("parent links lost in the fold: %+v", spans)
	}
	if spans[0].Arg("epoch") != "2" || spans[0].Arg("outcome") != "switch-done" {
		t.Fatalf("root args = %v (begin and end args must merge)", spans[0].Args)
	}
	if d := spans[1].Duration(); d != 5*sim.Millisecond {
		t.Fatalf("election duration = %v", d)
	}
	if d := spans[0].Duration(); d != 35*sim.Millisecond {
		t.Fatalf("failover duration = %v", d)
	}
	// The edges sit in the one stream, in order; an end edge names its span.
	var kinds []Kind
	for _, e := range l.Events() {
		kinds = append(kinds, e.Kind)
	}
	if want := []Kind{KindBegin, KindBegin, KindEnd, KindEnd}; !slices.Equal(kinds, want) {
		t.Fatalf("edge kinds = %v, want %v", kinds, want)
	}
	if end := l.Events()[3]; end.Span != root || end.What != "failover" || end.Node != "n1" {
		t.Fatalf("end edge = %+v", end)
	}
}

func TestSpanOpenAndDoubleEnd(t *testing.T) {
	l := New(sim.NewWorld().Now)
	open := l.Begin("renew", "n2", 0)
	closed := l.Begin("renew-catchup", "n2", open)
	l.End(closed)
	l.End(closed, "outcome", "again") // already closed
	l.End(0)                          // no span
	l.End(999)                        // never begun
	if n := len(l.Events()); n != 3 {
		t.Fatalf("events = %d, want 3 edges (two begins, one end)", n)
	}
	spans := l.Spans()
	if spans[0].Done || spans[0].Duration() != 0 {
		t.Fatalf("an open span folds to Done == false: %+v", spans[0])
	}
	if !spans[1].Done || spans[1].Arg("outcome") != "" {
		t.Fatalf("a second End must not touch a closed span: %+v", spans[1])
	}
}

func TestSpanEdgesStayOutOfDumpAndSubscribers(t *testing.T) {
	l := New(sim.NewWorld().Now)
	seen := 0
	l.Subscribe(func(Event) { seen++ })
	l.Emit(KindElection, "a", "election-start")
	l.End(l.Begin("election", "a", 0), "outcome", "won")
	l.Emit(KindElection, "a", "election-won")
	if seen != 2 {
		t.Fatalf("subscriber saw %d events, want the 2 point events", seen)
	}
	want := "      0.0000s election  a              election-start\n" +
		"      0.0000s election  a              election-won\n"
	if got := l.Dump(); got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
}

func TestStringSortsArgs(t *testing.T) {
	e := Event{Kind: KindJournal, Node: "n", What: "batch",
		Args: map[string]string{"z": "1", "a": "2", "m": "3"}}
	s := e.String()
	if !strings.Contains(s, "a=2 m=3 z=1") {
		t.Fatalf("args not sorted: %s", s)
	}
}
