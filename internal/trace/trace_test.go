package trace

import (
	"strings"
	"testing"

	"mams/internal/sim"
)

func TestEmitRecordsTimeAndArgs(t *testing.T) {
	w := sim.NewWorld()
	l := New(w)
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
	l := New(sim.NewWorld())
	l.Emit(KindFault, "n", "x", "key") // dangling key
	if len(l.Events()[0].Args) != 0 {
		t.Fatalf("args = %v", l.Events()[0].Args)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(KindFault, "n", "x") // must not panic
}

func TestFilterAndByKind(t *testing.T) {
	l := New(sim.NewWorld())
	l.Emit(KindState, "a", "x")
	l.Emit(KindFault, "b", "y")
	l.Emit(KindState, "c", "z")
	if got := len(l.ByKind(KindState)); got != 2 {
		t.Fatalf("ByKind = %d", got)
	}
	got := l.Filter(func(e Event) bool { return e.Node == "b" })
	if len(got) != 1 || got[0].What != "y" {
		t.Fatalf("Filter = %+v", got)
	}
}

func TestFirstRespectsTimeBound(t *testing.T) {
	w := sim.NewWorld()
	l := New(w)
	w.At(sim.Second, "e1", func() { l.Emit(KindElection, "a", "election-start") })
	w.At(5*sim.Second, "e2", func() { l.Emit(KindElection, "b", "election-start") })
	w.Run()
	e := l.First(KindElection, "election-start", 2*sim.Second)
	if e == nil || e.Node != "b" {
		t.Fatalf("First = %+v", e)
	}
	if l.First(KindElection, "election-start", 10*sim.Second) != nil {
		t.Fatal("First past the end should be nil")
	}
}

func TestSubscribeSeesFutureEvents(t *testing.T) {
	l := New(sim.NewWorld())
	var seen []Event
	l.Subscribe(func(e Event) { seen = append(seen, e) })
	l.Emit(KindClient, "c", "reconnected")
	if len(seen) != 1 || seen[0].What != "reconnected" {
		t.Fatalf("seen = %+v", seen)
	}
}

func TestDumpAndString(t *testing.T) {
	l := New(sim.NewWorld())
	l.Emit(KindRenew, "j1", "image-loaded", "sn", "42")
	out := l.Dump()
	for _, want := range []string{"renew", "j1", "image-loaded", "sn=42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q: %s", want, out)
		}
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestDispatchOnlyStillReachesSubscribers(t *testing.T) {
	l := New(sim.NewWorld())
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
	if l.Len() != 1 || l.Events()[0].Kind != KindState {
		t.Fatalf("retained events = %+v", l.Events())
	}
	// And the query API agrees: First never finds a dispatch-only event.
	if l.First(KindJournal, "append", 0) != nil {
		t.Fatal("First found a dispatch-only event")
	}
	if l.First(KindState, "become-active", 0) == nil {
		t.Fatal("First missed the retained event")
	}
}

func TestFirstPastLastEvent(t *testing.T) {
	w := sim.NewWorld()
	l := New(w)
	w.At(sim.Second, "e", func() { l.Emit(KindFailover, "a", "switch-done") })
	w.Run()
	// A bound strictly past the final event's timestamp matches nothing.
	if got := l.First(KindFailover, "switch-done", sim.Second+1); got != nil {
		t.Fatalf("First past the last event = %+v, want nil", got)
	}
	// The bound is inclusive: exactly the last event's time still matches.
	if l.First(KindFailover, "switch-done", sim.Second) == nil {
		t.Fatal("First at the last event's exact time should match")
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
