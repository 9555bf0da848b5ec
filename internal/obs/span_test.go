package obs

import (
	"testing"

	"mams/internal/sim"
)

func TestSpanLifecycleAndQueries(t *testing.T) {
	w := sim.NewWorld()
	tr := NewTracer(w)

	root := tr.Begin("failover", "n1", 0, "epoch", "2")
	w.After(10*sim.Millisecond, "t", func() {})
	w.Run()
	el := tr.Begin("election", "n1", root)
	w.After(5*sim.Millisecond, "t", func() {})
	w.Run()
	tr.End(el, "outcome", "won")
	w.After(20*sim.Millisecond, "t", func() {})
	w.Run()
	tr.End(root, "outcome", "switch-done")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("election parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[0].Arg("epoch") != "2" || spans[0].Arg("outcome") != "switch-done" {
		t.Fatalf("root args = %v", spans[0].Args)
	}
	if d := spans[1].Duration(); d != 5*sim.Millisecond {
		t.Fatalf("election duration = %v", d)
	}

	if sp, ok := tr.EarliestStart("election", 0); !ok || sp.ID != el {
		t.Fatalf("EarliestStart election: %v %v", sp, ok)
	}
	if _, ok := tr.EarliestStart("election", 11*sim.Millisecond); ok {
		t.Fatalf("EarliestStart after the only start must miss")
	}
	if sp, ok := tr.EarliestEnd("election", 0, "outcome", "won"); !ok || sp.ID != el {
		t.Fatalf("EarliestEnd won: %v %v", sp, ok)
	}
	if _, ok := tr.EarliestEnd("election", 0, "outcome", "lost"); ok {
		t.Fatalf("arg filter must exclude the won election")
	}
	kids := tr.Children(root)
	if len(kids) != 1 || kids[0].ID != el {
		t.Fatalf("children = %v", kids)
	}
}

func TestSpanOpenAndDoubleEnd(t *testing.T) {
	w := sim.NewWorld()
	tr := NewTracer(w)
	id := tr.Begin("renew", "n2", 0)
	if sp := tr.Spans()[0]; sp.Done {
		t.Fatalf("span must be open before End")
	}
	tr.End(id)
	tr.End(id) // no-op
	tr.End(999)
	if !tr.Spans()[0].Done || len(tr.Spans()) != 1 {
		t.Fatalf("double/unknown End corrupted spans: %v", tr.Spans())
	}
}

func TestSpanCap(t *testing.T) {
	w := sim.NewWorld()
	tr := NewTracer(w)
	tr.MaxSpans = 2
	a := tr.Begin("a", "n", 0)
	b := tr.Begin("b", "n", 0)
	c := tr.Begin("c", "n", 0)
	if c != 0 || tr.Dropped != 1 || tr.Len() != 2 {
		t.Fatalf("cap: id=%d dropped=%d len=%d", c, tr.Dropped, tr.Len())
	}
	tr.End(a)
	tr.End(b)
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", "n", 0)
	tr.End(id)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer must be inert")
	}
	if _, ok := tr.EarliestStart("x", 0); ok {
		t.Fatalf("nil tracer query must miss")
	}
}
