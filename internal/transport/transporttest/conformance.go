package transporttest

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/wire"
)

// Ping / Pong are the conformance suite's wire payloads (registered with
// internal/wire so they survive the real transport's framing).
type Ping struct{ N int }
type Pong struct{ N int }

func init() {
	wire.Register(func(r *wire.Reader) Ping { return Ping{N: int(r.Varint())} })
	wire.Register(func(r *wire.Reader) Pong { return Pong{N: int(r.Varint())} })
}

func (Ping) WireTag() uint8               { return wire.TagTestbeds }
func (m Ping) MarshalWire(w *wire.Writer) { w.Varint(int64(m.N)) }
func (Pong) WireTag() uint8               { return wire.TagTestbeds + 1 }
func (m Pong) MarshalWire(w *wire.Writer) { w.Varint(int64(m.N)) }

// Plane abstracts one transport implementation under conformance test.
// Nodes may live on separate executors (the real plane hosts each node in
// its own Transport, like separate processes), so every interaction with a
// node goes through Do against that node.
type Plane interface {
	// Listen registers a node with the given handler.
	Listen(id transport.NodeID, h transport.Handler) transport.Node
	// Do runs fn on the executor that owns n and waits for it to finish.
	Do(n transport.Node, fn func())
	// Step lets roughly d of the plane's clock elapse (virtual time on the
	// sim plane, wall time on the real plane).
	Step(d sim.Time)
	// Close tears the whole plane down.
	Close()
}

// waitUntil steps the plane until cond (evaluated on n's executor) holds.
func waitUntil(p Plane, n transport.Node, budget sim.Time, cond func() bool) bool {
	const step = 2 * sim.Millisecond
	for elapsed := sim.Time(0); ; elapsed += step {
		ok := false
		p.Do(n, func() { ok = cond() })
		if ok {
			return true
		}
		if elapsed >= budget {
			return false
		}
		p.Step(step)
	}
}

// echoHandler answers every Ping{N} with Pong{N}.
type echoHandler struct{}

func (echoHandler) HandleMessage(transport.NodeID, any) {}
func (echoHandler) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	reply(Pong{N: req.(Ping).N})
}

// blackholeHandler accepts requests and never replies.
type blackholeHandler struct{ got int }

func (b *blackholeHandler) HandleMessage(transport.NodeID, any)            {}
func (b *blackholeHandler) HandleRequest(transport.NodeID, any, func(any)) { b.got++ }

// onewayOnlyHandler does not implement RequestHandler at all.
type onewayOnlyHandler struct{ msgs int }

func (o *onewayOnlyHandler) HandleMessage(transport.NodeID, any) { o.msgs++ }

// doubleReplier answers each Ping, and calls a reply func a second time:
// request 1's own at once, and, while handling request 2, request 1's
// again before answering request 2. caught counts the second calls that
// panicked.
type doubleReplier struct {
	first  func(any)
	caught int
}

func (d *doubleReplier) HandleMessage(transport.NodeID, any) {}
func (d *doubleReplier) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	n := req.(Ping).N
	if n == 1 {
		reply(Pong{N: n})
		d.first = reply
		d.replyPanics(reply, n)
		return
	}
	d.replyPanics(d.first, 1) // on a plane that reuses request 1's state, 2 holds it now
	reply(Pong{N: n})
}

func (d *doubleReplier) replyPanics(reply func(any), n int) {
	defer func() {
		if recover() != nil {
			d.caught++
		}
	}()
	reply(Pong{N: n})
}

// holder keeps each request's answer, to be given when the test says.
type holder struct{ answers []func() }

func (h *holder) HandleMessage(transport.NodeID, any) {}
func (h *holder) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	h.answers = append(h.answers, func() { reply(Pong{N: req.(Ping).N}) })
}

// RunConformance exercises the behavioral contract both transport planes
// must satisfy (see the package comment of internal/transport). mk builds a
// fresh plane per subtest; the suite closes it.
func RunConformance(t *testing.T, mk func(t *testing.T) Plane) {
	t.Run("CallTimeout", func(t *testing.T) {
		p := mk(t)
		defer p.Close()
		bh := &blackholeHandler{}
		a := p.Listen("a", nil)
		b := p.Listen("b", bh)
		var calls int
		var gotErr error
		p.Do(a, func() {
			a.Call("b", Ping{N: 1}, 50*sim.Millisecond, func(resp any, err error) {
				calls++
				gotErr = err
			})
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return calls > 0 }) {
			t.Fatal("timeout callback never fired")
		}
		p.Do(a, func() {
			if gotErr != transport.ErrTimeout {
				t.Errorf("err = %v, want transport.ErrTimeout", gotErr)
			}
			if calls != 1 {
				t.Errorf("callback ran %d times, want exactly once", calls)
			}
			if n := a.PendingCalls(); n != 0 {
				t.Errorf("PendingCalls = %d after timeout, want 0", n)
			}
		})
		// The request must actually have reached the (non-replying) server.
		if !waitUntil(p, b, 5*sim.Second, func() bool { return bh.got == 1 }) {
			t.Error("blackhole server never saw the request")
		}
	})

	t.Run("CallNeedsADeadline", func(t *testing.T) {
		// A Call without a positive timeout is a wiring bug: it panics in
		// the caller and leaves nothing pending.
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		p.Listen("b", echoHandler{})
		for _, timeout := range []sim.Time{0, -1} {
			panicked, ran := false, false
			p.Do(a, func() {
				defer func() { panicked = recover() != nil }()
				a.Call("b", Ping{N: 2}, timeout, func(any, error) { ran = true })
			})
			if !panicked {
				t.Errorf("Call with timeout %v did not panic", timeout)
			}
			p.Step(20 * sim.Millisecond) // room for a stray callback
			p.Do(a, func() {
				if ran {
					t.Errorf("Call with timeout %v ran its callback", timeout)
				}
				if n := a.PendingCalls(); n != 0 {
					t.Errorf("Call with timeout %v: PendingCalls = %d, want 0", timeout, n)
				}
			})
		}
	})

	t.Run("TimedCallToDownDestination", func(t *testing.T) {
		// A request to a crashed node, an unknown id or a node that serves
		// no RPCs is lost in silence: its call fails once, with ErrTimeout,
		// at its deadline and not before.
		const timeout = 40 * sim.Millisecond
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		dead := p.Listen("dead", echoHandler{})
		p.Listen("oneway", &onewayOnlyHandler{})
		p.Do(dead, func() { dead.Crash() })
		for _, to := range []transport.NodeID{"dead", "never-existed", "oneway"} {
			var errs []error
			var issued, failed sim.Time
			p.Do(a, func() {
				issued = a.Now()
				a.Call(to, Ping{N: 2}, timeout, func(resp any, err error) {
					errs = append(errs, err)
					failed = a.Now()
				})
			})
			if !waitUntil(p, a, 5*sim.Second, func() bool { return len(errs) > 0 }) {
				t.Fatalf("Call(%q): callback never fired", to)
			}
			p.Step(20 * sim.Millisecond) // room for a second callback
			p.Do(a, func() {
				if len(errs) != 1 || errs[0] != transport.ErrTimeout {
					t.Errorf("Call(%q): callback got %v, want one ErrTimeout", to, errs)
				}
				if failed-issued < timeout {
					t.Errorf("Call(%q) failed after %v, before its %v deadline", to, failed-issued, timeout)
				}
				if n := a.PendingCalls(); n != 0 {
					t.Errorf("Call(%q): PendingCalls = %d, want 0", to, n)
				}
			})
		}
	})

	t.Run("SendToDeadPeer", func(t *testing.T) {
		// Sends to dead, unknown, or crashed peers vanish silently and the
		// sender stays fully functional.
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		b := p.Listen("b", echoHandler{})
		p.Do(b, func() { b.Crash() })
		p.Do(a, func() {
			a.Send("b", Ping{N: 3})
			a.Send("never-existed", Ping{N: 4})
		})
		var calls int
		var gotErr error
		p.Do(a, func() {
			a.Call("b", Ping{N: 5}, 40*sim.Millisecond, func(resp any, err error) {
				calls++
				gotErr = err
			})
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return calls > 0 }) {
			t.Fatal("call to crashed peer never resolved")
		}
		p.Do(a, func() {
			if gotErr != transport.ErrTimeout {
				t.Errorf("call to crashed peer: err = %v, want transport.ErrTimeout", gotErr)
			}
		})
		// Restart the peer; the link must work again (connection reuse must
		// not pin a dead path).
		p.Do(b, b.Restart)
		var resp any
		p.Do(a, func() {
			a.Call("b", Ping{N: 6}, sim.Second, func(r any, err error) {
				if err == nil {
					resp = r
				}
			})
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return resp != nil }) {
			t.Fatal("call after peer restart never completed")
		}
		p.Do(a, func() {
			if pong, ok := resp.(Pong); !ok || pong.N != 6 {
				t.Errorf("resp = %#v, want Pong{6}", resp)
			}
		})
	})

	t.Run("TimerOrdering", func(t *testing.T) {
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		var fired []string
		p.Do(a, func() {
			// Armed out of deadline order on purpose.
			a.After(60*sim.Millisecond, "late", func() { fired = append(fired, "late") })
			a.After(10*sim.Millisecond, "early", func() { fired = append(fired, "early") })
			a.After(35*sim.Millisecond, "mid", func() { fired = append(fired, "mid") })
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return len(fired) == 3 }) {
			t.Fatal("timers never all fired")
		}
		p.Do(a, func() {
			want := []string{"early", "mid", "late"}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("fire order %v, want %v", fired, want)
				}
			}
		})
	})

	// The rest of the timer contract (deadline order is TimerOrdering's):
	// After(d) never fires before d, also below the millisecond the real
	// plane's runtime cannot resolve, and After(0) is still a timer — it
	// runs after the callback that armed it has returned. There is no upper
	// bound to pin: an idle Go process fires a sub-millisecond timer up to
	// ≈ 1 ms late (see package nettrans), a loaded host later still.
	t.Run("TimerNeverEarlyAndZeroIsDeferred", func(t *testing.T) {
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		delays := []sim.Time{0, 100 * sim.Microsecond, 700 * sim.Microsecond, 3 * sim.Millisecond, 20 * sim.Millisecond}
		took := make([]sim.Time, len(delays))
		fired := 0
		armingReturned, zeroRanInline := false, false
		p.Do(a, func() {
			armed := a.Now()
			for i, d := range delays {
				i, d := i, d
				a.After(d, "contract", func() {
					took[i] = a.Now() - armed
					if d == 0 && !armingReturned {
						zeroRanInline = true
					}
					fired++
				})
			}
			armingReturned = true
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return fired == len(delays) }) {
			t.Fatal("timers never all fired")
		}
		p.Do(a, func() {
			if zeroRanInline {
				t.Error("After(0) ran before the arming callback returned")
			}
			for i, d := range delays {
				if took[i] < d {
					t.Errorf("After(%v) fired after %v", d, took[i])
				}
			}
		})
	})

	t.Run("TimerStopAndPending", func(t *testing.T) {
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		var fired bool
		var tm transport.Timer
		p.Do(a, func() {
			tm = a.After(30*sim.Millisecond, "doomed", func() { fired = true })
			if !tm.Pending() {
				t.Error("freshly armed timer not Pending")
			}
			if !tm.Stop() {
				t.Error("Stop() of a pending timer returned false")
			}
			if tm.Pending() {
				t.Error("stopped timer still Pending")
			}
			if tm.Stop() {
				t.Error("second Stop() returned true")
			}
		})
		p.Step(80 * sim.Millisecond)
		p.Do(a, func() {
			if fired {
				t.Error("stopped timer fired anyway")
			}
		})
		// A timer that fires transitions Pending→false and Stop→false.
		var fired2 bool
		var tm2 transport.Timer
		p.Do(a, func() {
			tm2 = a.After(5*sim.Millisecond, "quick", func() { fired2 = true })
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return fired2 }) {
			t.Fatal("timer never fired")
		}
		p.Do(a, func() {
			if tm2.Pending() {
				t.Error("fired timer still Pending")
			}
			if tm2.Stop() {
				t.Error("Stop() after firing returned true")
			}
		})
	})

	t.Run("CrashDropsTimersAndCalls", func(t *testing.T) {
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		p.Listen("b", &blackholeHandler{})
		var timerFired, cbRan bool
		p.Do(a, func() {
			a.After(20*sim.Millisecond, "dead-timer", func() { timerFired = true })
			a.Call("b", Ping{N: 7}, 30*sim.Millisecond, func(any, error) { cbRan = true })
			a.Crash()
			if n := a.PendingCalls(); n != 0 {
				t.Errorf("PendingCalls = %d after crash, want 0", n)
			}
		})
		p.Step(100 * sim.Millisecond)
		p.Do(a, func() {
			if timerFired {
				t.Error("timer armed before crash fired after it")
			}
			if cbRan {
				t.Error("call callback ran after the caller crashed")
			}
		})
	})

	t.Run("DoubleReplyPanics", func(t *testing.T) {
		// Answering one request twice is a handler bug, and it panics: at
		// once, and also once the request after it has taken over whatever
		// the plane kept for the first. Neither stale call reaches a caller.
		p := mk(t)
		defer p.Close()
		dh := &doubleReplier{}
		a := p.Listen("a", nil)
		b := p.Listen("b", dh)
		got := map[int]int{} // Pong.N → replies; -1 counts errors
		for n := 1; n <= 2; n++ {
			p.Do(a, func() {
				a.Call("b", Ping{N: n}, 5*sim.Second, func(resp any, err error) {
					if pong, ok := resp.(Pong); ok && err == nil {
						got[pong.N]++
					} else {
						got[-1]++
					}
				})
			})
			if !waitUntil(p, a, 5*sim.Second, func() bool { return got[n] > 0 }) {
				t.Fatalf("request %d never answered", n)
			}
		}
		p.Step(20 * sim.Millisecond) // room for a stray extra reply to land
		p.Do(a, func() {
			if len(got) != 2 || got[1] != 1 || got[2] != 1 {
				t.Errorf("replies by request %v, want exactly one each for 1 and 2", got)
			}
		})
		p.Do(b, func() {
			if dh.caught != 2 {
				t.Errorf("%d of 2 second replies panicked", dh.caught)
			}
		})
	})

	t.Run("LateResponseAfterEntryReuse", func(t *testing.T) {
		// Call 1 times out, and call 2 may take over whatever the plane
		// kept for it. Call 1's response then arrives, ahead of call 2's:
		// it is dropped, and each callback runs once with its own result.
		p := mk(t)
		defer p.Close()
		h := &holder{}
		a := p.Listen("a", nil)
		b := p.Listen("b", h)
		var got [3][]any // by request
		call := func(n int, timeout sim.Time) {
			p.Do(a, func() {
				a.Call("b", Ping{N: n}, timeout, func(resp any, err error) {
					if err != nil {
						got[n] = append(got[n], err)
						return
					}
					got[n] = append(got[n], resp)
				})
			})
			if !waitUntil(p, b, 5*sim.Second, func() bool { return len(h.answers) == n }) {
				t.Fatalf("request %d never arrived", n)
			}
		}
		call(1, 20*sim.Millisecond)
		if !waitUntil(p, a, 5*sim.Second, func() bool { return len(got[1]) > 0 }) {
			t.Fatal("call 1 never timed out")
		}
		call(2, 5*sim.Second)
		p.Do(b, func() {
			h.answers[0]()
			h.answers[1]()
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return len(got[2]) > 0 }) {
			t.Fatal("call 2 never answered")
		}
		p.Step(20 * sim.Millisecond) // room for a stray extra callback
		p.Do(a, func() {
			if len(got[1]) != 1 || got[1][0] != transport.ErrTimeout {
				t.Errorf("call 1's callback got %v, want one ErrTimeout", got[1])
			}
			if len(got[2]) != 1 || got[2][0] != (Pong{N: 2}) {
				t.Errorf("call 2's callback got %v, want one Pong{2}", got[2])
			}
			if n := a.PendingCalls(); n != 0 {
				t.Errorf("PendingCalls = %d, want 0", n)
			}
		})
	})

	t.Run("StopAfterFireSparesLaterTimer", func(t *testing.T) {
		// A timer's callback arms a later one, which may take over what
		// the plane kept for the first. Stopping the fired timer's handle
		// then reports false and leaves the later timer to fire.
		p := mk(t)
		defer p.Close()
		a := p.Listen("a", nil)
		var first, later transport.Timer
		laterFired := false
		p.Do(a, func() {
			first = a.After(sim.Millisecond, "first", func() {
				later = a.After(30*sim.Millisecond, "later", func() { laterFired = true })
			})
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return later != nil }) {
			t.Fatal("first timer never fired")
		}
		p.Do(a, func() {
			if first.Stop() {
				t.Error("Stop() of a fired timer returned true")
			}
			if first.Pending() {
				t.Error("fired timer still Pending")
			}
			if !later.Pending() {
				t.Error("the fired timer's Stop cancelled the later one")
			}
		})
		if !waitUntil(p, a, 5*sim.Second, func() bool { return laterFired }) {
			t.Fatal("later timer never fired")
		}
	})

	t.Run("ConcurrentCalls", func(t *testing.T) {
		// Many goroutines issue calls through the executor bridge; every
		// call completes exactly once with the right payload and nothing
		// races (run under -race). Completion counters are only touched on
		// each client's executor; the main goroutine drives plane time.
		const workers, per = 8, 24
		p := mk(t)
		defer p.Close()
		clients := make([]transport.Node, workers)
		good := make([]int, workers)
		bad := make([]int, workers)
		for i := range clients {
			clients[i] = p.Listen(transport.NodeID(fmt.Sprintf("client-%d", i)), nil)
		}
		p.Listen("echo", echoHandler{})
		issued := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				for i := 0; i < per; i++ {
					n := w*per + i
					p.Do(clients[w], func() {
						clients[w].Call("echo", Ping{N: n}, 10*sim.Second, func(r any, err error) {
							if pong, isPong := r.(Pong); err == nil && isPong && pong.N == n {
								good[w]++
							} else {
								bad[w]++
							}
						})
					})
				}
				issued <- struct{}{}
			}()
		}
		for w := 0; w < workers; w++ {
			<-issued
		}
		for w := 0; w < workers; w++ {
			w := w
			if !waitUntil(p, clients[w], 20*sim.Second, func() bool { return good[w]+bad[w] == per }) {
				t.Fatalf("worker %d: only %d/%d calls completed", w, good[w]+bad[w], per)
			}
			p.Do(clients[w], func() {
				if bad[w] != 0 {
					t.Errorf("worker %d: %d failed or mismatched responses", w, bad[w])
				}
				if n := clients[w].PendingCalls(); n != 0 {
					t.Errorf("worker %d: PendingCalls = %d, want 0", w, n)
				}
			})
		}
	})
}

// LeakCheck snapshots the goroutine count; the returned func (run from
// t.Cleanup after the plane or cluster is torn down) retries until the
// count settles back to the baseline, then fails the test if it never does
// — the no-new-dependency stand-in for goleak.
func LeakCheck(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after teardown\n%s", before, now, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
