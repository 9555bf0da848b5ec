package check

import (
	"fmt"

	"mams/internal/cluster"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/transport"
)

// Inject applies one member-level fault (unplug, slow, skew, flap or
// brownout, each as its FaultKind documents) to group[a.Target] through the
// simulator's node, env.Net.Node, and returns a heal that undoes exactly that
// fault; a second heal is harmless. It is the one place a letter's magnitude
// becomes an effect. pool finds a member's co-located storage pool; only a
// brownout calls it. Crash and the global Drop are the runner's own. An
// out-of-range target panics: schedules are checked against the group size
// where they are read (Artifact.Validate), so one here is a wiring bug.
func Inject(env *cluster.Env, group []transport.NodeID, pool func(transport.NodeID) *ssp.PoolNode, a Action) (heal func()) {
	id := group[a.Target]
	nd := env.Net.Node(id)
	switch a.Kind {
	case Unplug:
		nd.Unplug()
		return nd.Replug
	case Slow:
		nd.SetSlowdown(float64(a.Mag))
		return func() { nd.SetSlowdown(1) }
	case Skew:
		nd.SetClockSkew(float64(a.Mag) / 1000)
		return func() { nd.SetClockSkew(0) }
	case Flap:
		down := sim.Time(a.Mag) * 100 * sim.Millisecond
		var stops []func()
		for _, peer := range group {
			if peer != id {
				stops = append(stops, env.Net.Flap(id, peer, sim.Second, down))
			}
		}
		return func() {
			for _, stop := range stops {
				stop()
			}
		}
	case Brownout:
		p := pool(id)
		p.SetBrownout(ssp.Brownout{SlowFactor: float64(a.Mag), FailEvery: 3})
		return func() { p.SetBrownout(ssp.Brownout{}) }
	}
	panic(fmt.Sprintf("check: %s is not a member-level fault", a.Kind))
}
