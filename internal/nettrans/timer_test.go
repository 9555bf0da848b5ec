package nettrans

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/transport"
)

// solo boots one Transport with nothing listening on it yet.
func solo(t *testing.T) *Transport {
	t.Helper()
	tr, err := New(Config{Addr: "127.0.0.1:0", Book: NewAddrBook()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// waitFor polls cond on tr's loop until it holds or five seconds pass.
func waitFor(t *testing.T, tr *Transport, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := false
		tr.Do(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimerHeapOrder arms 200 timers with random delays from one callback
// and stops a random third of them: exactly the others fire, by deadline
// and, among equal deadlines, in arming order, and the heap ends empty.
func TestTimerHeapOrder(t *testing.T) {
	tr := solo(t)
	nd := tr.Listen("a", nil)
	rnd := rand.New(rand.NewSource(7))
	const n = 200
	deadline := make([]sim.Time, n)
	stopped := make([]bool, n)
	var fired []int
	tr.Do(func() {
		timers := make([]transport.Timer, n)
		for i := range timers {
			i := i
			timers[i] = nd.After(sim.Time(rnd.Intn(8))*sim.Millisecond, "t", func() { fired = append(fired, i) })
			deadline[i] = timers[i].(*timer).at
		}
		for _, i := range rnd.Perm(n)[:n/3] {
			stopped[i] = true
			if !timers[i].Stop() {
				t.Errorf("timer %d: Stop of a pending timer returned false", i)
			}
		}
	})
	var want []int
	for i := 0; i < n; i++ {
		if !stopped[i] {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(x, y int) bool { return deadline[want[x]] < deadline[want[y]] })
	waitFor(t, tr, func() bool { return len(fired) >= len(want) && len(tr.timers) == 0 })
	tr.Do(func() {
		if len(fired) != len(want) {
			t.Fatalf("%d timers fired, want %d", len(fired), len(want))
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("firing %d was timer %d, want %d\n got %v\nwant %v", k, fired[k], want[k], fired, want)
			}
		}
	})

	// Equal deadlines to the nanosecond fall back on arming order, also
	// after removals from the middle.
	var h timerHeap
	all := make([]*timer, 50)
	for i := range all {
		all[i] = &timer{at: sim.Second, seq: uint64(i)}
		heap.Push(&h, all[i])
	}
	for _, i := range rnd.Perm(len(all))[:20] {
		heap.Remove(&h, all[i].index)
		all[i] = nil
	}
	for _, tm := range all {
		if tm == nil {
			continue
		}
		if got := heap.Pop(&h).(*timer); got != tm {
			t.Fatalf("tied deadlines: popped seq %d, want %d", got.seq, tm.seq)
		}
	}
}

// hole accepts requests and never answers them.
type hole struct{}

func (hole) HandleMessage(transport.NodeID, any)            {}
func (hole) HandleRequest(transport.NodeID, any, func(any)) {}

// TestCrashDropsOnlyItsTimers: two nodes share one transport and one heap.
// Crashing one takes its timers and timed calls out of the heap; the
// other's still fire. x arms first with the same delays, so by the time y's
// call has timed out, anything of x's left in the heap would have run.
func TestCrashDropsOnlyItsTimers(t *testing.T) {
	tr := solo(t)
	x, y := tr.Listen("x", nil), tr.Listen("y", nil)
	tr.Listen("hole", hole{})
	type outcome struct{ timer, call int }
	var got map[transport.NodeID]*outcome
	var xTimer transport.Timer
	tr.Do(func() {
		got = map[transport.NodeID]*outcome{"x": {}, "y": {}}
		for _, nd := range []transport.Node{x, y} {
			o := got[nd.ID()]
			tm := nd.After(10*sim.Millisecond, "t", func() { o.timer++ })
			nd.Call("hole", "probe", 20*sim.Millisecond, func(_ any, err error) {
				if err == transport.ErrTimeout {
					o.call++
				}
			})
			if nd == x {
				xTimer = tm
			}
		}
		x.Crash()
		if xTimer.Pending() {
			t.Error("crashed node's timer still Pending")
		}
		for _, tm := range tr.timers {
			if tm.nd == x.(*Node) {
				t.Fatal("crashed node's deadline still in the heap")
			}
		}
	})
	waitFor(t, tr, func() bool { return got["y"].timer == 1 && got["y"].call == 1 })
	tr.Do(func() {
		if *got["x"] != (outcome{}) {
			t.Errorf("crashed node: %d timers and %d call time-outs ran", got["x"].timer, got["x"].call)
		}
		if *got["y"] != (outcome{1, 1}) {
			t.Errorf("live node: %d timers and %d call time-outs ran, want 1 and 1", got["y"].timer, got["y"].call)
		}
		if n := y.PendingCalls(); n != 0 {
			t.Errorf("live node: %d calls pending", n)
		}
		if len(tr.timers) != 0 {
			t.Errorf("%d timers left in the heap", len(tr.timers))
		}
	})
}

// TestStopAfterDeadlineInsideCallback: a timer whose deadline passes while
// the loop is busy has not fired yet, so Stop still wins and it never runs.
// A later sentinel timer marks the point by which it would have.
func TestStopAfterDeadlineInsideCallback(t *testing.T) {
	tr := solo(t)
	nd := tr.Listen("a", nil)
	fired, sentinel := false, false
	tr.Do(func() {
		tm := nd.After(sim.Millisecond, "t", func() { fired = true })
		time.Sleep(5 * time.Millisecond)
		if !tm.Stop() {
			t.Error("Stop after the deadline, before the loop got to it, returned false")
		}
		nd.After(sim.Millisecond, "sentinel", func() { sentinel = true })
	})
	waitFor(t, tr, func() bool { return sentinel })
	tr.Do(func() {
		if fired {
			t.Error("stopped timer fired")
		}
	})
}

// holder passes every request's reply to the test, which sends it later on
// the holder's loop.
type holder struct{ replies chan func() }

func (holder) HandleMessage(transport.NodeID, any) {}
func (h holder) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	h.replies <- func() { reply(req) }
}

// TestLateResponseAfterEntryReuse: call A times out, call B reuses A's
// pending entry, and then A's response arrives, ahead of B's on the same
// connection. A's callback runs once, with ErrTimeout; B's runs once, with
// B's response.
func TestLateResponseAfterEntryReuse(t *testing.T) {
	book := NewAddrBook()
	boot := func(id transport.NodeID, h transport.Handler) (*Transport, transport.Node) {
		tr, err := New(Config{Addr: "127.0.0.1:0", Book: book})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		book.Set(id, tr.Addr())
		return tr, tr.Listen(id, h)
	}
	h := holder{replies: make(chan func(), 2)}
	a, caller := boot("caller", nil)
	b, _ := boot("held", h)

	var gotA, gotB []any
	call := func(reqID uint64, timeout sim.Time, got *[]any) (pc *netPending) {
		a.Do(func() {
			caller.Call("held", mams.ClientOp{ReqID: reqID}, timeout, func(resp any, err error) {
				if err != nil {
					*got = append(*got, err)
					return
				}
				*got = append(*got, resp)
			})
			pc = caller.(*Node).pending[a.nextCall]
		})
		return pc
	}
	entryA := call(1, 20*sim.Millisecond, &gotA)
	replyA := <-h.replies
	waitFor(t, a, func() bool { return len(gotA) > 0 })
	entryB := call(2, 5*sim.Second, &gotB)
	if entryB != entryA {
		t.Fatal("call B did not reuse timed-out call A's pending entry")
	}
	replyB := <-h.replies
	b.Do(replyA)
	b.Do(replyB)
	waitFor(t, a, func() bool { return len(gotB) > 0 })
	if len(gotA) != 1 || gotA[0] != transport.ErrTimeout {
		t.Errorf("call A's callback got %v, want one ErrTimeout", gotA)
	}
	if len(gotB) != 1 || gotB[0] != (mams.ClientOp{ReqID: 2}) {
		t.Errorf("call B's callback got %v, want one echo of request 2", gotB)
	}
}
