package nettrans

import (
	"net"
	"testing"
	"time"

	"mams/internal/mams"
	"mams/internal/race"
	"mams/internal/sim"
	"mams/internal/transport"
)

// refuseMsg is a request payload boxed once, so that sending it allocates
// nothing of its own.
var refuseMsg any = mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}

// deadPeer boots a caller whose address book maps "dead" to a loopback
// address whose listener has been closed: every dial to it is refused.
func deadPeer(t *testing.T) (a *Transport, caller transport.Node, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()
	book := NewAddrBook()
	book.Set("dead", addr)
	a, err = New(Config{Addr: "127.0.0.1:0", Book: book})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, a.Listen("caller", echoHandler{}), addr
}

// openWindow sends one message to dead and waits for its dial to fail. It
// returns the instant the address stops being refused.
func openWindow(t *testing.T, a *Transport, caller transport.Node, addr string) sim.Time {
	t.Helper()
	a.Do(func() { caller.Send("dead", refuseMsg) })
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		var retryAt sim.Time
		a.Do(func() {
			if c := a.conns[addr]; c != nil {
				c.mu.Lock()
				retryAt = c.retryAt
				c.mu.Unlock()
			}
		})
		if retryAt != 0 {
			return retryAt
		}
		if time.Now().After(deadline) {
			t.Fatal("the dial to a closed listener never failed")
		}
	}
}

// inWindow opens the window and runs fn on the loop inside it. What fn
// sees counts only if the loop clock is still inside the window when fn
// returns; if it is not, inWindow reopens the window and runs fn again, a
// few times over before it gives up. So fn records, and the test checks
// the last record once inWindow has returned.
func inWindow(t *testing.T, a *Transport, caller transport.Node, addr string, fn func()) {
	t.Helper()
	for try := 0; try < 5; try++ {
		retryAt := openWindow(t, a, caller, addr)
		inside := false
		a.Do(func() {
			if a.Now() >= retryAt {
				return
			}
			fn()
			inside = a.Now() < retryAt
		})
		if inside {
			return
		}
		t.Logf("try %d: the window closed before the sends were made; reopening it", try)
	}
	t.Fatalf("never made the sends inside a %v window", refuseWindow)
}

// TestRefusedAddressDialsOncePerWindow: once a dial has failed, sends to
// its address neither dial nor queue for refuseWindow. Each one-way
// message is dropped on the spot (Dropped counts it before Send returns),
// and the failed connection stays in the reuse map as the tombstone.
func TestRefusedAddressDialsOncePerWindow(t *testing.T) {
	a, caller, addr := deadPeer(t)
	const n = 100
	var opened, dials, dropped, late uint64
	var replaced bool
	inWindow(t, a, caller, addr, func() {
		tomb, before := a.conns[addr], a.Dials
		opened, dropped, late = before, 0, 0
		for i := 0; i < n; i++ {
			was := a.Dropped
			caller.Send("dead", refuseMsg)
			dropped += a.Dropped - was
		}
		dials, replaced = a.Dials-before, a.conns[addr] != tomb
	})
	a.Do(func() { late = a.Dials - opened })
	if opened == 0 {
		t.Error("the window opened without a dial")
	}
	if dials != 0 || late != 0 {
		t.Errorf("%d sends inside the window dialed %d times (%d by now)", n, dials, late)
	}
	if dropped != n {
		t.Errorf("%d of %d one-way messages counted Dropped before Send returned", dropped, n)
	}
	if replaced {
		t.Error("a send inside the window replaced the tombstone")
	}
}

// TestRefusedCallFailsAsItsTimeoutSays: inside the window of a refused
// dial, a Call fails with ErrRefused at once, long before its time-out
// (the refusal proves that nothing listens there), and does not dial.
func TestRefusedCallFailsAsItsTimeoutSays(t *testing.T) {
	a, caller, addr := deadPeer(t)
	const timeout = 10 * sim.Second
	type outcome struct {
		err error
		at  sim.Time
	}
	var done chan outcome
	var issued sim.Time
	var dials uint64
	inWindow(t, a, caller, addr, func() {
		ch := make(chan outcome, 1)
		done, issued, dials = ch, a.Now(), a.Dials
		caller.Call("dead", refuseMsg, timeout, func(_ any, err error) { ch <- outcome{err, a.Now()} })
	})
	o := <-done
	if o.err != transport.ErrRefused {
		t.Errorf("err = %v, want ErrRefused", o.err)
	}
	if o.at-issued >= timeout/2 {
		t.Errorf("the call failed after %v, not at once", o.at-issued)
	}
	var after uint64
	a.Do(func() { after = a.Dials })
	if after != dials {
		t.Errorf("the refused call dialed %d times", after-dials)
	}
}

// TestUnreachableCallKeepsItsDeadline: a dial that fails other than by a
// refusal (here an address no dial can reach: its port is out of range)
// proves nothing about the peer. Its window still holds frames back from
// dialing, but a Call fails with ErrTimeout at its deadline.
func TestUnreachableCallKeepsItsDeadline(t *testing.T) {
	book := NewAddrBook()
	book.Set("nowhere", "127.0.0.1:99999")
	a, err := New(Config{Addr: "127.0.0.1:0", Book: book})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	caller := a.Listen("caller", echoHandler{})
	const timeout = 150 * sim.Millisecond
	type outcome struct {
		err error
		at  sim.Time
	}
	done := make(chan outcome, 1)
	var issued sim.Time
	a.Do(func() {
		issued = a.Now()
		caller.Call("nowhere", refuseMsg, timeout, func(_ any, err error) { done <- outcome{err, a.Now()} })
	})
	o := <-done
	if o.err != transport.ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", o.err)
	}
	if o.at-issued < timeout {
		t.Errorf("the call failed after %v, before its %v deadline", o.at-issued, timeout)
	}
	var refused, tomb bool
	a.Do(func() {
		if c := a.conns["127.0.0.1:99999"]; c != nil {
			c.mu.Lock()
			tomb, refused = c.retryAt != 0, c.refused
			c.mu.Unlock()
		}
	})
	if tomb && refused {
		t.Error("a dial that failed without a refusal marked its address refused")
	}
}

// TestRefusedAddressRedialsAfterWindow: once a listener is back on the
// address and the window has passed, the next send dials and arrives.
func TestRefusedAddressRedialsAfterWindow(t *testing.T) {
	a, caller, addr := deadPeer(t)
	retryAt := openWindow(t, a, caller, addr)
	b, err := New(Config{Addr: addr, Book: NewAddrBook()})
	if err != nil {
		t.Fatalf("listen again on %s: %v", addr, err)
	}
	t.Cleanup(b.Close)
	b.Listen("dead", echoHandler{})
	if d := time.Duration(retryAt - a.Now()); d > 0 {
		time.Sleep(d)
	}
	var dials uint64
	a.Do(func() { dials = a.Dials })
	done := make(chan error, 1)
	a.Do(func() {
		caller.Call("dead", refuseMsg, 5*sim.Second, func(_ any, err error) { done <- err })
	})
	if err := <-done; err != nil {
		t.Fatalf("call after the window: %v", err)
	}
	var after uint64
	a.Do(func() { after = a.Dials })
	if after != dials+1 {
		t.Errorf("the first send after the window dialed %d times, want 1", after-dials)
	}
}

// TestRefusedCallAllocBudget pins what a frame to a refused address costs
// the transport: nothing. A timed Call there takes a reused pending entry
// and fails with ErrRefused through a frame queued on the loop; a one-way
// message is counted and dropped. Neither makes a connection, a goroutine
// or a closure. The tombstone's retry instant is moved an hour out, so the
// window outlasts the measurement.
func TestRefusedCallAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 0
	a, caller, addr := deadPeer(t)
	openWindow(t, a, caller, addr)
	a.Do(func() {
		c := a.conns[addr]
		c.mu.Lock()
		c.retryAt = a.Now() + 3600*sim.Second
		c.mu.Unlock()
	})
	const perRun = 1000
	var done chan struct{}
	failed := 0
	cb := func(_ any, err error) {
		if err != transport.ErrRefused {
			t.Errorf("refused call: err = %v, want ErrRefused", err)
		}
		if failed++; failed == perRun {
			close(done)
		}
	}
	var dials uint64
	run := func() {
		done, failed = make(chan struct{}), 0
		a.Do(func() {
			for i := 0; i < perRun; i++ {
				caller.Call("dead", refuseMsg, sim.Millisecond, cb)
				caller.Send("dead", refuseMsg)
			}
		})
		<-done
	}
	a.Do(func() { dials = a.Dials })
	run() // the pending map, the deadline heap and the free list
	// slack covers what a run costs once, not per frame: the Do bridge,
	// the done channel, and the runtime timer's few wake-ups.
	const slack = 16
	got := testing.AllocsPerRun(5, run)
	t.Logf("%.0f allocs for %d refused calls and %d refused messages", got, perRun, perRun)
	if got > budget*2*perRun+slack {
		t.Errorf("%.0f allocs for %d refused frames, budget %d each plus %d", got, 2*perRun, budget, slack)
	}
	var after uint64
	a.Do(func() { after = a.Dials })
	if after != dials {
		t.Errorf("the refused frames dialed %d times", after-dials)
	}
}
