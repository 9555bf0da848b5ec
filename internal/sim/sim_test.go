package sim

import (
	"testing"
	"time"

	"mams/internal/race"
)

func TestTimeConversions(t *testing.T) {
	if Second.Duration() != time.Second {
		t.Fatalf("Second.Duration() = %v", Second.Duration())
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds() = %v, want 2.5", got)
	}
	if got := FromDuration(3 * time.Second); got != 3*Second {
		t.Fatalf("FromDuration = %v", got)
	}
	if (90 * Second).String() != "1m30s" {
		t.Fatalf("String() = %q", (90 * Second).String())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	w := NewWorld()
	var order []int
	w.At(30*Millisecond, "c", func() { order = append(order, 3) })
	w.At(10*Millisecond, "a", func() { order = append(order, 1) })
	w.At(20*Millisecond, "b", func() { order = append(order, 2) })
	w.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if w.Now() != 30*Millisecond {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestTiesBreakBySequence(t *testing.T) {
	w := NewWorld()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		w.At(Second, "tie", func() { order = append(order, i) })
	}
	w.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	w := NewWorld()
	var fired Time
	w.At(Second, "outer", func() {
		w.After(500*Millisecond, "inner", func() { fired = w.Now() })
	})
	w.Run()
	if fired != 1500*Millisecond {
		t.Fatalf("inner fired at %v", fired)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	w := NewWorld()
	fired := false
	w.After(-5*Second, "neg", func() { fired = true })
	w.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if w.Now() != 0 {
		t.Fatalf("clock moved to %v", w.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	w := NewWorld()
	w.At(Second, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		w.At(0, "past", func() {})
	})
	w.Run()
}

func TestTimerStop(t *testing.T) {
	w := NewWorld()
	fired := false
	tm := w.At(Second, "x", func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report not pending")
	}
	w.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	w := NewWorld()
	tm := w.At(0, "x", func() {})
	w.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	w := NewWorld()
	count := 0
	w.At(Second, "a", func() { count++ })
	w.At(3*Second, "b", func() { count++ })
	w.RunUntil(2 * Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if w.Now() != 2*Second {
		t.Fatalf("Now = %v, want 2s", w.Now())
	}
	w.RunFor(2 * Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if w.Now() != 4*Second {
		t.Fatalf("Now = %v, want 4s", w.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	w := NewWorld()
	fired := false
	w.At(Second, "edge", func() { fired = true })
	w.RunUntil(Second)
	if !fired {
		t.Fatal("event exactly at boundary should fire")
	}
}

func TestDeferRunsAtSameInstantAfterQueued(t *testing.T) {
	w := NewWorld()
	var order []string
	w.At(Second, "first", func() {
		w.Defer("deferred", func() { order = append(order, "deferred") })
		order = append(order, "first")
	})
	w.At(Second, "second", func() { order = append(order, "second") })
	w.Run()
	want := []string{"first", "second", "deferred"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestStepLimitPanics(t *testing.T) {
	w := NewWorld()
	w.SetStepLimit(10)
	var loop func()
	loop = func() { w.After(Millisecond, "loop", loop) }
	loop()
	defer func() {
		if recover() == nil {
			t.Error("expected step-limit panic")
		}
	}()
	w.Run()
}

func TestStepsAndPendingCounters(t *testing.T) {
	w := NewWorld()
	w.At(0, "a", func() {})
	w.At(0, "b", func() {})
	if w.Pending() != 2 {
		t.Fatalf("Pending = %d", w.Pending())
	}
	w.Run()
	if w.Steps() != 2 {
		t.Fatalf("Steps = %d", w.Steps())
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending after run = %d", w.Pending())
	}
}

func TestNilEventFuncPanics(t *testing.T) {
	w := NewWorld()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil fn")
		}
	}()
	w.At(0, "nil", nil)
}

func TestStoppedTimersAreCompacted(t *testing.T) {
	w := NewWorld()
	// Arm a wide batch of timers and cancel most of them: the dead entries
	// must not linger in the heap once they outnumber the live ones.
	var live []Timer
	for i := 0; i < 1000; i++ {
		tm := w.At(Time(i)*Millisecond+Minute, "churn", func() {})
		if i%10 == 0 {
			live = append(live, tm)
		} else {
			tm.Stop()
		}
	}
	if got := w.Pending(); got != len(live) {
		t.Fatalf("Pending = %d, want %d live", got, len(live))
	}
	// Compaction bounds the heap to roughly twice the live count (dead
	// entries can accumulate to at most half the heap before a schedule
	// sweeps them); without it all 900 cancelled events would linger.
	w.At(Minute, "tick", func() {})
	if got, bound := len(w.events), 2*(len(live)+1)+compactThreshold; got > bound {
		t.Fatalf("heap still holds %d entries after compaction, want <= %d", got, bound)
	}
	for _, tm := range live {
		if !tm.Pending() {
			t.Fatal("compaction dropped a live timer")
		}
	}
	w.Run()
	if w.Pending() != 0 || len(w.events) != 0 {
		t.Fatalf("queue not drained: pending=%d len=%d", w.Pending(), len(w.events))
	}
}

func TestPendingExcludesStoppedTimers(t *testing.T) {
	w := NewWorld()
	a := w.At(Second, "a", func() {})
	w.At(2*Second, "b", func() {})
	if w.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", w.Pending())
	}
	// Regression: Stop used to leave the dead event counted until popped.
	if !a.Stop() {
		t.Fatal("Stop reported not pending")
	}
	if w.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", w.Pending())
	}
	w.Run()
	if w.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", w.Pending())
	}
}

func TestRecycledEventDetachesOldHandle(t *testing.T) {
	w := NewWorld()
	old := w.At(0, "first", func() {})
	w.Run() // fires and recycles the event struct
	// The next schedule reuses the struct from the free list; the stale
	// handle must not be able to cancel or observe it.
	fired := false
	fresh := w.At(Second, "second", func() { fired = true })
	if old.ev != fresh.ev {
		t.Skip("free list did not reuse the struct; nothing to check")
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Stop() {
		t.Fatal("stale handle cancelled the new event")
	}
	w.Run()
	if !fired {
		t.Fatal("new event did not fire")
	}
}

// TestAfterStopAllocBudget locks in the free-list fast path: steady-state
// schedule/cancel cycles allocate nothing, neither the event nor its Timer
// handle, which is a value (regression guard for the per-schedule event
// and handle allocations and the Stop leak).
func TestAfterStopAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	w := NewWorld()
	fn := func() {}
	// Warm up: populate the free list via compaction.
	for i := 0; i < 4096; i++ {
		w.After(Second, "warm", fn).Stop()
	}
	avg := testing.AllocsPerRun(10000, func() {
		w.After(Second, "churn", fn).Stop()
	})
	if avg > 0 {
		t.Fatalf("After+Stop allocates %.2f objects/op, budget 0", avg)
	}
}
