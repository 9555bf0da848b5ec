package simnet

import (
	"testing"

	"mams/internal/race"
	"mams/internal/sim"
	"mams/internal/transport"
)

// counter counts one-way messages and answers each request with its own
// payload, so neither side boxes anything per message.
type counter struct{ msgs int }

func (c *counter) HandleMessage(transport.NodeID, any) { c.msgs++ }
func (c *counter) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	reply(req)
}

// allocPair is two nodes on a 1 ms network, a calling b.
func allocPair() (*sim.World, *Node, *counter) {
	w, n := newNet(sim.Millisecond)
	a := n.AddNode("a", nil)
	cb := &counter{}
	n.AddNode("b", cb)
	return w, a, cb
}

// TestSendAllocBudget pins a warm one-way send and its delivery at zero
// allocations: the delivery record and the kernel event are reused, and the
// event needs no name built for it.
func TestSendAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	w, a, cb := allocPair()
	var msg any = "hello"
	send := func() {
		a.Send("b", msg)
		w.Run()
	}
	send()
	got := testing.AllocsPerRun(1000, send)
	if cb.msgs != 1002 {
		t.Fatalf("%d of 1002 messages delivered", cb.msgs)
	}
	if got > 0 {
		t.Errorf("%.2f allocs per warm send and delivery, budget 0", got)
	}
}

// TestCallAllocBudget pins a warm timed Call round trip at two allocations:
// the caller's callback and the callee's reply func. The pending entry, its
// deadline, both deliveries and the reply slot are reused.
func TestCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2
	w, a, _ := allocPair()
	var req any = "ping"
	answered := 0
	call := func() {
		a.Call("b", req, sim.Second, func(resp any, err error) {
			if err == nil && resp == req {
				answered++
			}
		})
		w.Run()
	}
	for range 64 { // grow the pending map, heap and free lists
		call()
	}
	got := testing.AllocsPerRun(1000, call)
	t.Logf("%.2f allocs per round trip", got)
	if answered != 1065 {
		t.Fatalf("%d of 1065 calls answered", answered)
	}
	if got > budget {
		t.Errorf("%.2f allocs per warm timed round trip, budget %d", got, budget)
	}
}

// TestAfterAllocBudget pins what an After costs from arming to firing: its
// handle, which is also the event's body, and the caller's closure — the
// wire plane's budget.
func TestAfterAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2
	w, a, _ := allocPair()
	fired := 0
	after := func() {
		a.After(sim.Millisecond, "t", func() { fired++ })
		w.Run()
	}
	after()
	got := testing.AllocsPerRun(1000, after)
	t.Logf("%.2f allocs per After", got)
	if fired != 1002 {
		t.Fatalf("%d of 1002 timers fired", fired)
	}
	if got > budget {
		t.Errorf("%.2f allocs from After to firing, budget %d", got, budget)
	}
}

// BenchmarkSimnetCall is a warm timed Call round trip on the simulator: two
// deliveries, a deadline armed and stopped, and the reply.
func BenchmarkSimnetCall(b *testing.B) {
	w, a, _ := allocPair()
	var req any = "ping"
	cb := func(any, error) {}
	b.ReportAllocs()
	for range b.N {
		a.Call("b", req, sim.Second, cb)
		w.Run()
	}
}
