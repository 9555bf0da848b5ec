package simnet

import (
	"strings"
	"testing"

	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/transport"
)

type recorder struct {
	node *Node
	msgs []any
	// echo makes the recorder answer RPCs with the request payload.
	echo bool
	// delayReply, when > 0, defers RPC replies by that much virtual time.
	delayReply sim.Time
}

func (r *recorder) HandleMessage(from transport.NodeID, msg any) { r.msgs = append(r.msgs, msg) }

func (r *recorder) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	r.msgs = append(r.msgs, req)
	if !r.echo {
		return
	}
	if r.delayReply > 0 {
		r.node.After(r.delayReply, "reply", func() { reply(req) })
		return
	}
	reply(req)
}

func newNet(latency sim.Time) (*sim.World, *Network) {
	w := sim.NewWorld()
	n := New(w, rng.New(1), LatencyModel{Base: latency}, nil)
	return w, n
}

func addRec(n *Network, id transport.NodeID) (*Node, *recorder) {
	r := &recorder{echo: true}
	nd := n.AddNode(id, r)
	r.node = nd
	return nd, r
}

func TestOnewayDelivery(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	a.Send("b", "hello")
	w.Run()
	if len(rb.msgs) != 1 || rb.msgs[0] != "hello" {
		t.Fatalf("msgs = %v", rb.msgs)
	}
	if w.Now() != sim.Millisecond {
		t.Fatalf("delivery time = %v", w.Now())
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, n := newNet(0)
	addRec(n, "a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	addRec(n, "a")
}

func TestSendToUnknownNodeDropped(t *testing.T) {
	w, n := newNet(0)
	a, _ := addRec(n, "a")
	a.Send("ghost", "x")
	w.Run()
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Dropped)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	addRec(n, "b")
	var got any
	a.Call("b", "ping", sim.Second, func(resp any, err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		got = resp
	})
	w.Run()
	if got != "ping" {
		t.Fatalf("resp = %v", got)
	}
	if w.Now() != 2*sim.Millisecond {
		t.Fatalf("round trip took %v", w.Now())
	}
}

func TestRPCTimeout(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	rb.echo = false // b never replies
	var gotErr error
	called := 0
	a.Call("b", "ping", 50*sim.Millisecond, func(resp any, err error) {
		called++
		gotErr = err
	})
	w.Run()
	if called != 1 {
		t.Fatalf("callback ran %d times", called)
	}
	if gotErr != transport.ErrTimeout {
		t.Fatalf("err = %v", gotErr)
	}
	if w.Now() != 50*sim.Millisecond {
		t.Fatalf("timeout fired at %v", w.Now())
	}
}

func TestLateResponseAfterTimeoutIgnored(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	rb.delayReply = 100 * sim.Millisecond
	calls := 0
	a.Call("b", "ping", 10*sim.Millisecond, func(resp any, err error) {
		calls++
		if err != transport.ErrTimeout {
			t.Errorf("err = %v", err)
		}
	})
	w.Run()
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
}

func TestCrashDropsInFlightAndTimers(t *testing.T) {
	w, n := newNet(10 * sim.Millisecond)
	a, _ := addRec(n, "a")
	b, rb := addRec(n, "b")
	a.Send("b", "x")
	fired := false
	b.After(20*sim.Millisecond, "t", func() { fired = true })
	w.After(5*sim.Millisecond, "crash", func() { b.Crash() })
	w.Run()
	if len(rb.msgs) != 0 {
		t.Fatalf("crashed node received %v", rb.msgs)
	}
	if fired {
		t.Fatal("timer fired on crashed node")
	}
}

func TestCrashDropsPendingRPCCallback(t *testing.T) {
	w, n := newNet(10 * sim.Millisecond)
	a, _ := addRec(n, "a")
	addRec(n, "b")
	called := false
	a.Call("b", "ping", sim.Second, func(resp any, err error) { called = true })
	w.After(sim.Millisecond, "crash-a", func() { a.Crash() })
	w.Run()
	if called {
		t.Fatal("callback ran on crashed caller")
	}
}

func TestRestartInvalidatesOldTimers(t *testing.T) {
	w, n := newNet(0)
	b, _ := addRec(n, "b")
	fired := false
	b.After(20*sim.Millisecond, "old", func() { fired = true })
	w.After(5*sim.Millisecond, "cycle", func() {
		b.Crash()
		b.Restart()
	})
	newFired := false
	w.After(6*sim.Millisecond, "arm-new", func() {
		b.After(sim.Millisecond, "new", func() { newFired = true })
	})
	w.Run()
	if fired {
		t.Fatal("pre-crash timer survived restart")
	}
	if !newFired {
		t.Fatal("post-restart timer did not fire")
	}
	if !b.Up() {
		t.Fatal("node should be up after restart")
	}
}

func TestUnplugBlocksBothDirections(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, ra := addRec(n, "a")
	b, rb := addRec(n, "b")
	b.Unplug()
	a.Send("b", "in")
	b.Send("a", "out")
	w.Run()
	if len(rb.msgs) != 0 || len(ra.msgs) != 0 {
		t.Fatalf("unplugged traffic leaked: a=%v b=%v", ra.msgs, rb.msgs)
	}
	if !b.Unplugged() {
		t.Fatal("Unplugged() = false")
	}
}

func TestUnpluggedNodeTimersStillRun(t *testing.T) {
	w, n := newNet(0)
	b, _ := addRec(n, "b")
	b.Unplug()
	fired := false
	b.After(sim.Millisecond, "t", func() { fired = true })
	w.Run()
	if !fired {
		t.Fatal("unplug must not stop the local process")
	}
}

func TestReplugRestoresDelivery(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	b, rb := addRec(n, "b")
	b.Unplug()
	w.After(10*sim.Millisecond, "replug", func() { b.Replug() })
	w.After(20*sim.Millisecond, "send", func() { a.Send("b", "late") })
	w.Run()
	if len(rb.msgs) != 1 {
		t.Fatalf("msgs = %v", rb.msgs)
	}
}

func TestUnplugAtDeliveryTimeDropsInFlight(t *testing.T) {
	w, n := newNet(10 * sim.Millisecond)
	a, _ := addRec(n, "a")
	b, rb := addRec(n, "b")
	a.Send("b", "x")
	w.After(5*sim.Millisecond, "unplug", func() { b.Unplug() })
	w.Run()
	if len(rb.msgs) != 0 {
		t.Fatalf("in-flight message delivered through unplugged NIC: %v", rb.msgs)
	}
}

func TestDirectionalCut(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, ra := addRec(n, "a")
	b, rb := addRec(n, "b")
	n.Cut("a", "b")
	a.Send("b", "blocked")
	b.Send("a", "allowed")
	w.Run()
	if len(rb.msgs) != 0 {
		t.Fatalf("cut direction delivered: %v", rb.msgs)
	}
	if len(ra.msgs) != 1 {
		t.Fatalf("reverse direction blocked: %v", ra.msgs)
	}
}

func TestHealRestoresLink(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	n.CutBoth("a", "b")
	n.HealBoth("a", "b")
	a.Send("b", "x")
	w.Run()
	if len(rb.msgs) != 1 {
		t.Fatalf("healed link did not deliver: %v", rb.msgs)
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	w, n := newNet(0)
	a, _ := addRec(n, "a")
	bad := &doubleReplier{}
	n.AddNode("b", bad)
	a.Call("b", "x", sim.Second, func(any, error) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double reply")
		}
	}()
	w.Run()
}

type doubleReplier struct{}

func (d *doubleReplier) HandleMessage(transport.NodeID, any) {}
func (d *doubleReplier) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	reply(1)
	reply(2)
}

func TestRequestToNonRPCNodeTimesOut(t *testing.T) {
	w, n := newNet(0)
	a, _ := addRec(n, "a")
	n.AddNode("plain", plainHandler{})
	var gotErr error
	a.Call("plain", "x", 10*sim.Millisecond, func(resp any, err error) { gotErr = err })
	w.Run()
	if gotErr != transport.ErrTimeout {
		t.Fatalf("err = %v", gotErr)
	}
}

type plainHandler struct{}

func (plainHandler) HandleMessage(transport.NodeID, any) {}

func TestLatencySpreadDeterministic(t *testing.T) {
	run := func() sim.Time {
		w := sim.NewWorld()
		n := New(w, rng.New(99), LatencyModel{Base: sim.Millisecond, Spread: 0.5}, nil)
		a, _ := addRec(n, "a")
		addRec(n, "b")
		for i := 0; i < 50; i++ {
			a.Send("b", i)
		}
		w.Run()
		return w.Now()
	}
	if run() != run() {
		t.Fatal("same seed produced different delivery schedule")
	}
}

func TestPerLinkFIFODelivery(t *testing.T) {
	// With heavy latency jitter, messages on one link must still arrive in
	// send order (TCP-like).
	w := sim.NewWorld()
	n := New(w, rng.New(7), LatencyModel{Base: sim.Millisecond, Spread: 1.5}, nil)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	for i := 0; i < 200; i++ {
		a.Send("b", i)
	}
	w.Run()
	if len(rb.msgs) != 200 {
		t.Fatalf("delivered %d/200", len(rb.msgs))
	}
	for i, m := range rb.msgs {
		if m != i {
			t.Fatalf("reordered at %d: got %v", i, m)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	addRec(n, "b")
	a.Send("b", 1)
	a.Send("b", 2)
	w.Run()
	if n.Sent != 2 || n.Delivered != 2 {
		t.Fatalf("Sent=%d Delivered=%d", n.Sent, n.Delivered)
	}
}

func TestCallFromCrashedNodeIsNoop(t *testing.T) {
	w, n := newNet(0)
	a, _ := addRec(n, "a")
	addRec(n, "b")
	a.Crash()
	a.Call("b", "x", sim.Second, func(any, error) { t.Error("callback from dead node") })
	w.Run()
}

func TestReplyAfterServerCrashDropped(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	b, rb := addRec(n, "b")
	rb.delayReply = 20 * sim.Millisecond
	var gotErr error
	a.Call("b", "x", sim.Second, func(resp any, err error) { gotErr = err })
	// Crash b after it received the request but before its delayed reply.
	w.After(10*sim.Millisecond, "crash", func() { b.Crash() })
	w.Run()
	if gotErr != transport.ErrTimeout {
		t.Fatalf("err = %v, want timeout (reply from crashed server must drop)", gotErr)
	}
}

// TestLostCallFailsAtDeadline: however a request or its response is lost,
// the caller hears nothing until its deadline, and then exactly one
// ErrTimeout.
func TestLostCallFailsAtDeadline(t *testing.T) {
	cases := []struct {
		name string
		to   transport.NodeID
		prep func(n *Network, a, b *Node)
	}{
		{"dest crashed at send", "b", func(n *Network, a, b *Node) { b.Crash() }},
		{"dest unplugged at send", "b", func(n *Network, a, b *Node) { b.Unplug() }},
		{"dest unknown", "ghost", func(*Network, *Node, *Node) {}},
		{"dest not a server", "plain", func(*Network, *Node, *Node) {}},
		{"link cut at delivery", "b", func(n *Network, a, b *Node) { n.Cut(a.ID(), b.ID()) }},
		{"full loss", "b", func(n *Network, a, b *Node) { n.SetLoss(1.0) }},
		{"reply lost", "b", func(n *Network, a, b *Node) { n.Cut(b.ID(), a.ID()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, n := newNet(sim.Millisecond)
			a, _ := addRec(n, "a")
			b, _ := addRec(n, "b")
			n.AddNode("plain", plainHandler{})
			tc.prep(n, a, b)
			var errs []error
			var at sim.Time
			a.Call(tc.to, "ping", 10*sim.Millisecond, func(resp any, err error) {
				errs = append(errs, err)
				at = w.Now()
			})
			w.Run()
			if len(errs) != 1 || errs[0] != transport.ErrTimeout || at != 10*sim.Millisecond {
				t.Fatalf("callback got %v at %v, want one ErrTimeout at 10ms", errs, at)
			}
			if a.PendingCalls() != 0 {
				t.Fatalf("pending calls leaked: %d", a.PendingCalls())
			}
		})
	}
}

// TestStepLimitNamesNodeAndEvent: an event's node and name are joined only
// when the step limit reports it, and a runaway simulation's panic names
// both — for a node timer, a delivery and an RPC deadline.
func TestStepLimitNamesNodeAndEvent(t *testing.T) {
	for _, tc := range []struct {
		want  string
		start func(a *Node)
	}{
		{`"a:tick"`, func(a *Node) { a.After(sim.Millisecond, "tick", func() {}) }},
		{`"b:deliver"`, func(a *Node) { a.Send("b", "x") }},
		{`"a:rpc-timeout"`, func(a *Node) { a.Call("b", "x", sim.Microsecond, func(any, error) {}) }},
	} {
		w, n := newNet(sim.Millisecond)
		a, _ := addRec(n, "a")
		addRec(n, "b")
		w.SetStepLimit(1)
		w.After(0, "first", func() {}) // the one step allowed
		tc.start(a)
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			w.Run()
			return ""
		}()
		if !strings.Contains(msg, "step limit") || !strings.Contains(msg, tc.want) {
			t.Errorf("step-limit panic %q does not name %s", msg, tc.want)
		}
	}
}
