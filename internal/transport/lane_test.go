package transport_test

import (
	"testing"

	"mams/internal/sim"
	"mams/internal/transport"
)

// TestLaneQueuesWork pins the lane rule: work starts at max(free, now) and
// the returned wait runs to its end, never negative.
func TestLaneQueuesWork(t *testing.T) {
	var l transport.Lane
	for i, c := range []struct{ now, cost, wait sim.Time }{
		{10, 5, 5}, // idle: starts now
		{12, 5, 8}, // busy until 15: runs 15..20
		{12, 0, 8}, // a zero cost still waits for the queue
		{30, 0, 0}, // idle again
		{30, 4, 4},
	} {
		if got := l.Add(c.now, c.cost); got != c.wait {
			t.Fatalf("step %d: Add(%d, %d) = %d, want %d", i, c.now, c.cost, got, c.wait)
		}
	}
}
