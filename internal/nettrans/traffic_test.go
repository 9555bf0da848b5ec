package nettrans_test

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/nettrans"
	"mams/internal/race"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// spawn starts a Transport on loopback hosting one node.
func spawn(tb testing.TB, book *nettrans.AddrBook, id transport.NodeID, h transport.Handler) (*nettrans.Transport, transport.Node) {
	tb.Helper()
	tr, err := nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: book})
	if err != nil {
		tb.Fatalf("nettrans.New: %v", err)
	}
	book.Set(id, tr.Addr())
	return tr, tr.Listen(id, h)
}

// statEcho answers every request with a stat-sized reply, like the
// benchmark's nettrans layer fixture.
type statEcho struct{ reply mams.OpReply }

func (statEcho) HandleMessage(transport.NodeID, any) {}
func (e statEcho) HandleRequest(_ transport.NodeID, _ any, reply func(any)) {
	reply(e.reply)
}

var (
	statReq   = mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/bench/d00/f0000000"}
	statReply = mams.OpReply{Info: &namespace.Info{Path: "/bench/d00/f0000000", Name: "f0000000", Size: 1024, Perm: 0o644}}
)

// echoPair boots a caller process and a statEcho process.
func echoPair(tb testing.TB) (a *nettrans.Transport, caller transport.Node) {
	book := nettrans.NewAddrBook()
	a, caller = spawn(tb, book, "caller", nil)
	b, _ := spawn(tb, book, "echo", statEcho{statReply})
	tb.Cleanup(func() { a.Close(); b.Close() })
	return a, caller
}

// roundTrips makes n echo calls from the caller's loop, window in flight,
// each next call issued from the previous one's callback, and returns how
// many failed.
func roundTrips(a *nettrans.Transport, caller transport.Node, n, window int) (failed int) {
	finished := make(chan struct{})
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		issued++
		caller.Call("echo", statReq, 5*sim.Second, func(resp any, err error) {
			if _, ok := resp.(mams.OpReply); err != nil || !ok {
				failed++
			}
			completed++
			if issued < n {
				issue()
			} else if completed == n {
				close(finished)
			}
		})
	}
	a.Do(func() {
		for i := 0; i < window && i < n; i++ {
			issue()
		}
	})
	<-finished
	return failed
}

// BenchmarkCallRoundTrip is the layer's own number: a stat-sized Call and
// its reply between two Transports over loopback TCP, one in flight (the
// unloaded round trip) and 64 (what wire_stat keeps on the client's one
// connection).
func BenchmarkCallRoundTrip(b *testing.B) {
	for _, window := range []int{1, 64} {
		b.Run("window="+strconv.Itoa(window), func(b *testing.B) {
			a, caller := echoPair(b)
			roundTrips(a, caller, 256, window) // dial and warm the buffers
			b.ReportAllocs()
			b.ResetTimer()
			if failed := roundTrips(a, caller, b.N, window); failed > 0 {
				b.Fatalf("%d of %d calls failed", failed, b.N)
			}
		})
	}
}

// TestCallAllocBudget pins what a warm Call round trip allocates in the
// whole process — caller loop, both writers, both readers, the frame codec
// on either side. It was 580 with a gob encoder and decoder built per
// frame, 32 with one gob stream per connection direction, 24 with the
// call's deadline inside its pending entry, 15 with internal/wire's
// stateless frame codec and node ids reused per connection, 11 with frames
// queued to the loop as values, one reply closure per request and pending
// entries reused, and is 10 with reply slots reused in place of a replied
// flag per request. What is left: the test's callback, the request boxed,
// and the reply, its Info and two strings decoded, on the caller's side;
// the request and its path decoded, the reply closure and the boxed reply,
// on the echo's.
func TestCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 11
	a, caller := echoPair(t)
	roundTrips(a, caller, 256, 64)
	const perRun = 200
	for _, window := range []int{1, 64} {
		got := testing.AllocsPerRun(5, func() {
			if failed := roundTrips(a, caller, perRun, window); failed > 0 {
				t.Errorf("%d of %d calls failed", failed, perRun)
			}
		}) / perRun
		t.Logf("window %d: %.1f allocs per call", window, got)
		if got > budget {
			t.Errorf("window %d: %.1f allocs per warm Call round trip, budget %d", window, got, budget)
		}
	}
}

// TestAfterAllocBudget pins what an After costs from arming to firing: its
// timer and the caller's closure. The deadline heap and its one runtime
// timer add nothing per timer.
func TestAfterAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2
	book := nettrans.NewAddrBook()
	tr, nd := spawn(t, book, "a", nil)
	defer tr.Close()
	const perRun = 1000
	run := func() {
		done := make(chan struct{})
		fired := 0
		tr.Do(func() {
			for i := 0; i < perRun; i++ {
				nd.After(sim.Time(i%8)*100*sim.Microsecond, "t", func() {
					if fired++; fired == perRun {
						close(done)
					}
				})
			}
		})
		<-done
	}
	run() // the runtime timer, heap and queue capacity
	// slack covers what a run costs once, not per timer: the Do bridge, the
	// done channel, and the runtime timer's few wake-ups.
	const slack = 16
	got := testing.AllocsPerRun(5, run)
	t.Logf("%.0f allocs for %d Afters", got, perRun)
	if got > budget*perRun+slack {
		t.Errorf("%.0f allocs for %d Afters, budget %d each plus %d", got, perRun, budget, slack)
	}
}

// reverser holds requests until it has `hold` of them, then answers the
// whole set newest first.
type reverser struct {
	hold    int
	replies []func()
}

func (*reverser) HandleMessage(transport.NodeID, any) {}
func (r *reverser) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	r.replies = append(r.replies, func() { reply(req) })
	if len(r.replies) == r.hold {
		for i := len(r.replies) - 1; i >= 0; i-- {
			r.replies[i]()
		}
		r.replies = r.replies[:0]
	}
}

// TestRepliesKeepHandlerOrder: answers travel through the arrival
// connection's one writer, so the caller sees them in the order the handler
// gave them — here the reverse of the request order, five sets running.
func TestRepliesKeepHandlerOrder(t *testing.T) {
	defer transporttest.LeakCheck(t)()
	const hold, sets = 64, 5
	book := nettrans.NewAddrBook()
	a, caller := spawn(t, book, "caller", nil)
	defer a.Close()
	b, _ := spawn(t, book, "echo", &reverser{hold: hold})
	defer b.Close()

	for set := 0; set < sets; set++ {
		var got []uint64
		done := make(chan struct{})
		a.Do(func() {
			for i := 0; i < hold; i++ {
				caller.Call("echo", mams.ClientOp{ReqID: uint64(i)}, 5*sim.Second, func(resp any, err error) {
					if err != nil {
						t.Errorf("set %d: %v", set, err)
					}
					op, _ := resp.(mams.ClientOp)
					got = append(got, op.ReqID)
					if len(got) == hold {
						close(done)
					}
				})
			}
		})
		<-done
		for i, id := range got {
			if want := uint64(hold - 1 - i); id != want {
				t.Fatalf("set %d: reply %d is for request %d, want %d (order %v)", set, i, id, want, got)
			}
		}
	}
}

// TestCloseUnderTraffic closes one of three chattering Transports from
// outside, 240 times over, then the other two. Every Close must return:
// a callback still on the loop when Close starts used to be able to dial a
// connection that nothing would ever shut, and a Do queued behind it was
// never released.
func TestCloseUnderTraffic(t *testing.T) {
	defer transporttest.LeakCheck(t)()
	iterations := 240
	if testing.Short() {
		iterations = 30
	}
	ids := []transport.NodeID{"n0", "n1", "n2"}
	var calls atomic.Int64
	for it := 0; it < iterations; it++ {
		book := nettrans.NewAddrBook()
		trs := make([]*nettrans.Transport, len(ids))
		nodes := make([]transport.Node, len(ids))
		for i, id := range ids {
			trs[i], nodes[i] = spawn(t, book, id, statEcho{statReply})
		}
		// Every node keeps four call chains going, alternating between the
		// other two with a one-way message to the one not called, until a
		// call fails.
		for i, tr := range trs {
			self := nodes[i]
			peers := []transport.NodeID{ids[(i+1)%3], ids[(i+2)%3]}
			var chain func(k int)
			chain = func(k int) {
				self.Send(peers[(k+1)%2], statReq)
				self.Call(peers[k%2], statReq, sim.Second, func(_ any, err error) {
					if err == nil {
						calls.Add(1)
						chain(k + 1)
					}
				})
			}
			tr.Do(func() {
				for k := 0; k < 4; k++ {
					chain(k)
				}
			})
		}
		// Let the kill land anywhere from the first dials to steady traffic.
		time.Sleep(time.Duration(it%8) * 500 * time.Microsecond)

		victim := it % len(trs)
		released := make(chan bool)
		go func() {
			ok := true
			for ok {
				ok = trs[victim].Do(func() {})
			}
			released <- true
		}()
		closeWithin(t, trs[victim], it, "victim")
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Do on the closed transport never returned\n%s", it, allStacks())
		}
		for i, tr := range trs {
			if i != victim {
				closeWithin(t, tr, it, "survivor")
			}
		}
	}
	if calls.Load() == 0 {
		t.Error("no call ever completed: the transports were closed idle, not under traffic")
	}
	t.Logf("%d calls completed across %d teardowns", calls.Load(), iterations)
}

func closeWithin(t *testing.T, tr *nettrans.Transport, it int, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { tr.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("iteration %d: Close of the %s hung\n%s", it, what, allStacks())
	}
}

func allStacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}
