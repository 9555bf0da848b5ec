package simnet

import (
	"testing"

	"mams/internal/sim"
)

func TestSlowdownStretchesLocalTimers(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	b, _ := addRec(n, "b")
	a.SetSlowdown(2)
	var aAt, bAt sim.Time
	a.After(100*sim.Millisecond, "t", func() { aAt = w.Now() })
	b.After(100*sim.Millisecond, "t", func() { bAt = w.Now() })
	w.Run()
	if aAt != 200*sim.Millisecond {
		t.Fatalf("slowed timer fired at %v, want 200ms", aAt)
	}
	if bAt != 100*sim.Millisecond {
		t.Fatalf("healthy timer fired at %v, want 100ms", bAt)
	}
	a.SetSlowdown(1)
	if a.Slowdown() != 1 {
		t.Fatalf("Slowdown() = %v after reset", a.Slowdown())
	}
	a.After(100*sim.Millisecond, "t", func() { aAt = w.Now() })
	w.Run()
	if aAt != 300*sim.Millisecond {
		t.Fatalf("reset timer fired at %v, want 300ms", aAt)
	}
}

func TestClockSkewScalesTimersAndTimeouts(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	fast, _ := addRec(n, "fast")
	slow, _ := addRec(n, "slow")
	fast.SetClockSkew(1.0)  // local clock runs 2x true rate
	slow.SetClockSkew(-0.5) // local clock runs at half rate
	var fastAt, slowAt, timeoutAt sim.Time
	fast.After(100*sim.Millisecond, "t", func() { fastAt = w.Now() })
	slow.After(100*sim.Millisecond, "t", func() { slowAt = w.Now() })
	// An RPC to a node that serves no RPCs: the deadline is local too, so
	// the fast clock gives up early in true time.
	fast.Call("nosuch", "ping", 100*sim.Millisecond, func(any, error) { timeoutAt = w.Now() })
	w.Run()
	if fastAt != 50*sim.Millisecond {
		t.Fatalf("fast-clock timer fired at %v, want 50ms", fastAt)
	}
	if slowAt != 200*sim.Millisecond {
		t.Fatalf("slow-clock timer fired at %v, want 200ms", slowAt)
	}
	if timeoutAt != 50*sim.Millisecond {
		t.Fatalf("fast-clock RPC timeout fired at %v, want 50ms", timeoutAt)
	}
}

func TestLocalNowContinuousAcrossSkewChanges(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	w.After(100*sim.Millisecond, "skew", func() { a.SetClockSkew(1.0) })
	var local sim.Time
	w.After(200*sim.Millisecond, "read", func() { local = a.LocalNow() })
	w.Run()
	// 100ms honest + 100ms at double rate = 300ms local, no jump at the
	// rate change.
	if local != 300*sim.Millisecond {
		t.Fatalf("LocalNow = %v, want 300ms", local)
	}
	if a.ClockSkew() != 1.0 {
		t.Fatalf("ClockSkew() = %v", a.ClockSkew())
	}
}

// A reply dropped by a flap cut must surface exactly one timeout error, at
// the call's deadline: not zero (leaked pending entry) and not two.
func TestFlapDropsInflightReplyTimeoutOnce(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	rb.delayReply = 300 * sim.Millisecond
	// Reply direction flaps: first cut within [75,125]ms lasting [1.5,2.5]s,
	// so a reply sent at ~501ms is always dropped at delivery time.
	stop := n.Flap("b", "a", 100*sim.Millisecond, 2*sim.Second)
	calls, errs := 0, 0
	var cbAt sim.Time
	w.After(200*sim.Millisecond, "call", func() {
		a.Call("b", "ping", 3*sim.Second, func(resp any, err error) {
			calls++
			if err != nil {
				errs++
			}
			cbAt = w.Now()
		})
	})
	w.RunFor(10 * sim.Second)
	stop()
	w.RunFor(10 * sim.Second)
	if got := a.PendingCalls(); got != 0 {
		t.Fatalf("leaked %d pending calls", got)
	}
	if calls != 1 || errs != 1 {
		t.Fatalf("callback fired %d times (%d errors), want exactly one error", calls, errs)
	}
	if cbAt != 3200*sim.Millisecond {
		t.Fatalf("timeout fired at %v, want 3.2s (armed at 200ms)", cbAt)
	}
}

// A reply that lands in the replug window between two cuts must complete
// exactly once — and the armed timeout must not fire a second callback.
func TestFlapReplyInReplugWindowCompletesOnce(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	rb.delayReply = 300 * sim.Millisecond
	// First flap: cut from [75,125]ms for ~10s.
	stop1 := n.Flap("b", "a", 100*sim.Millisecond, 10*sim.Second)
	var stop2 func()
	w.After(400*sim.Millisecond, "swap-flap", func() {
		// Replug between cuts: healing stop ends cut #1; the next flap's
		// first cut comes no earlier than 400+150=550ms.
		stop1()
		stop2 = n.Flap("b", "a", 200*sim.Millisecond, 10*sim.Second)
	})
	calls, errs := 0, 0
	var cbAt sim.Time
	w.After(200*sim.Millisecond, "call", func() {
		a.Call("b", "ping", 3*sim.Second, func(resp any, err error) {
			calls++
			if err != nil {
				errs++
			}
			cbAt = w.Now()
		})
	})
	w.RunFor(20 * sim.Second)
	stop2()
	w.RunFor(20 * sim.Second)
	if calls != 1 || errs != 0 {
		t.Fatalf("callback fired %d times (%d errors), want exactly one success", calls, errs)
	}
	if cbAt != 502*sim.Millisecond {
		t.Fatalf("reply delivered at %v, want 502ms (in the replug window)", cbAt)
	}
	if got := a.PendingCalls(); got != 0 {
		t.Fatalf("leaked %d pending calls", got)
	}
}

func TestFlapStopIsIdempotentAndHeals(t *testing.T) {
	w, n := newNet(sim.Millisecond)
	a, _ := addRec(n, "a")
	_, rb := addRec(n, "b")
	stop := n.Flap("a", "b", 10*sim.Millisecond, 10*sim.Millisecond)
	w.RunFor(100 * sim.Millisecond)
	stop()
	stop()
	a.Send("b", "after-stop")
	w.RunFor(sim.Second)
	if len(rb.msgs) != 1 || rb.msgs[0] != "after-stop" {
		t.Fatalf("post-stop delivery failed: %v", rb.msgs)
	}
	if w.Pending() != 0 {
		t.Fatalf("flap left %d events armed after stop", w.Pending())
	}
}
