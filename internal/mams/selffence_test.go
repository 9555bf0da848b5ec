package mams_test

import (
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// TestSelfFenceDropsReplicationState unplugs a loaded active the instant it
// seals a batch, on the wire plane's failure-detector timing (300 ms
// heartbeat, 1.2 s session). The self-fence budget (300 + 600/4 = 450 ms) is
// shorter than the batch's 510 ms ack timer, so the timer fires after the
// node stopped being active. Leaving active duty must drop the in-flight
// batch and its timers: a fenced node that still ran the ack time-out would
// fence laggards (holding the fence or demoting members of its successor's
// group), and one that still ran the pool-write retry would keep writing
// batches into an sn space it no longer owns.
func TestSelfFenceDropsReplicationState(t *testing.T) {
	p := mams.DefaultParams()
	p.TraceAppends = true
	env, c := build(t, 41, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2, Params: p,
		CoordHeartbeat: 300 * sim.Millisecond, CoordSessionTimeout: 1200 * sim.Millisecond})
	drv := workload.NewDriver(env, c.AsSystem(), 4, nil)
	drv.Setup(4)
	stop := drv.Continuous(createOnlyMix(), 8)
	env.RunFor(2 * sim.Second)

	active := c.ActiveOf(0)
	id := string(active.Node().ID())
	unplugged, fenced := false, false
	var after []string // commit-path events from this node after its self-fence
	env.Trace.Subscribe(func(e trace.Event) {
		if e.Node != id {
			return
		}
		switch {
		case e.What == "append" && !unplugged:
			unplugged = true
			env.World.Defer("unplug-active", active.Node().Unplug)
		case e.What == "self-fence":
			fenced = true
		case fenced && (e.What == "demote-member" || e.What == "fence-held" || e.What == "ssp-put-retry"):
			after = append(after, e.What)
		}
	})
	env.RunFor(3 * sim.Second)
	stop()
	if !fenced {
		t.Fatalf("active never fenced itself; role %v", active.Role())
	}
	if len(after) > 0 {
		t.Errorf("fenced node kept running its commit path after leaving active duty: %v", after)
	}
}
