package simnet_test

import (
	"testing"

	"mams/internal/sim"
	"mams/internal/transport/transporttest"
)

// TestConformance pins the sim plane to the cross-transport behavioral
// contract (the same suite runs against nettrans in internal/nettrans).
func TestConformance(t *testing.T) {
	transporttest.RunConformance(t, transporttest.NewSimPlane)
}

// TestAfterRearmOrdering covers the sim-specific timer surface the
// interface can't: node timers returned by After are kernel events
// underneath (stopping one takes it out of the world's pending count), and
// re-arming one the way protocol loops do (Stop, then After) re-orders it
// against timers armed after it.
func TestAfterRearmOrdering(t *testing.T) {
	sp := transporttest.NewSim(7, 1_000_000, 0, 0, nil)
	nd := sp.Net.AddNode("n", nil)
	var fired []string
	tm := nd.After(10*sim.Millisecond, "a", func() { fired = append(fired, "a") })
	nd.After(20*sim.Millisecond, "b", func() { fired = append(fired, "b") })
	if got := sp.World.Pending(); got != 2 {
		t.Fatalf("world holds %d pending events for 2 node timers", got)
	}
	// Push "a" past "b": it must now fire second despite being armed first.
	if !tm.Stop() {
		t.Fatal("pending timer did not stop")
	}
	if got := sp.World.Pending(); got != 1 {
		t.Fatalf("world holds %d pending events after Stop, want 1", got)
	}
	nd.After(30*sim.Millisecond, "a", func() { fired = append(fired, "a") })
	sp.World.RunFor(50 * sim.Millisecond)
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "a" {
		t.Fatalf("fire order %v, want [b a]", fired)
	}
}
