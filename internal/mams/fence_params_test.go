package mams

import (
	"testing"

	"mams/internal/sim"
)

// The self-fence budget and check cadence derive from the coordination
// session parameters (they were hardcoded to the 2s/5s defaults, which
// silently mis-fenced any deployment with a different session timeout).
func TestFenceParamsDerivedFromSession(t *testing.T) {
	cases := []struct{ hb, st, budget, every sim.Time }{
		// Defaults (2s heartbeat, 5s session): 1s of margin beyond two
		// heartbeats → 2.25s budget, 125ms cadence.
		{2 * sim.Second, 5 * sim.Second, 2250 * sim.Millisecond, 125 * sim.Millisecond},
		// Tight session, no margin: budget collapses to one heartbeat and
		// the cadence clamps to the 5ms floor.
		{sim.Second, 2 * sim.Second, sim.Second, 5 * sim.Millisecond},
		// Session shorter than two heartbeats must not go negative.
		{2 * sim.Second, 3 * sim.Second, 2 * sim.Second, 5 * sim.Millisecond},
		// Wide margin: cadence clamps at the legacy 250ms ceiling.
		{sim.Second, 10 * sim.Second, 3 * sim.Second, 250 * sim.Millisecond},
	}
	for _, c := range cases {
		s := &Server{cfg: Config{Layout: Layout{CoordHeartbeat: c.hb, CoordSessionTimeout: c.st}}}
		budget, every := s.fenceParams()
		if budget != c.budget || every != c.every {
			t.Errorf("fenceParams(hb=%v st=%v) = (%v, %v), want (%v, %v)",
				c.hb, c.st, budget, every, c.budget, c.every)
		}
		// The budget must undercut the session timeout: the active fences
		// itself before the ensemble expires its session and lets a
		// successor rise.
		if c.budget >= c.st {
			t.Errorf("budget %v >= session timeout %v (hb=%v)", c.budget, c.st, c.hb)
		}
	}
}
