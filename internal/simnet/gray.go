// Gray-failure primitives: faults that degrade a process or link without
// killing it. Unlike Crash/Unplug/Cut, nothing here is detectable as
// "down" — the node keeps answering, just late, or with a clock that lies.
//
//   - SetSlowdown: every local timer (handler CPU cost, retry loops,
//     heartbeats) takes factor× longer in true virtual time. Models a
//     degraded CPU or a disk that turned into molasses.
//   - SetClockSkew: the node's local clock runs at (1+drift)× true rate.
//     Local durations — After delays and Call timeout arming — elapse in
//     d/(1+drift) true time, so a fast clock (drift > 0) fires timeouts
//     early and a slow clock fires them late. LocalNow exposes the skewed
//     clock for protocol code that timestamps lease activity.
//   - Network.Flap: a one-directional link cycles between connected and cut
//     on a seeded on/off schedule with ±25% phase jitter.
//
// Slowdown and skew survive Crash/Restart on purpose: they model bad
// hardware, not process state.
package simnet

import (
	"strconv"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// ftoa renders a float compactly for trace-event args.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SetSlowdown stretches every local timer on this node by factor (CPU cost,
// heartbeat arming, retry loops — anything scheduled via Node.After).
// factor <= 1 restores full speed. Call/RPC *timeout* deadlines are not
// stretched: the node's watchdog hardware still fires on time, it is the
// work that lags.
func (nd *Node) SetSlowdown(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	nd.slowdown = factor
	shown := factor
	if shown == 0 {
		shown = 1
	}
	nd.net.obsNodeGauge("mams_node_slowdown_factor", "Local timer stretch factor per node (1 = healthy).", nd.id).Set(shown)
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "slowdown", "factor", ftoa(shown))
	}
}

// Slowdown returns the current stretch factor (1 when healthy).
func (nd *Node) Slowdown() float64 {
	if nd.slowdown <= 1 {
		return 1
	}
	return nd.slowdown
}

// SetClockSkew sets the node's clock drift rate: the local clock advances
// (1+drift) local seconds per true second. drift = 0 restores an honest
// clock. The local clock never jumps — LocalNow is continuous across
// SetClockSkew calls; only its rate changes.
func (nd *Node) SetClockSkew(drift float64) {
	if drift <= -1 {
		panic("simnet: clock skew drift must be > -1 (the clock cannot run backwards)")
	}
	nd.localBase = nd.LocalNow()
	nd.skewSince = nd.net.world.Now()
	nd.drift = drift
	nd.net.obsNodeGauge("mams_node_clock_drift", "Clock drift rate per node (0 = honest; local rate is 1+drift).", nd.id).Set(drift)
	if nd.net.log != nil {
		nd.net.log.Emit(trace.KindFault, string(nd.id), "clock-skew", "drift", ftoa(drift))
	}
}

// ClockSkew returns the current drift rate (0 when honest).
func (nd *Node) ClockSkew() float64 { return nd.drift }

// LocalNow returns the node's local clock reading: true virtual time as this
// node perceives it under its configured skew. With no skew ever applied it
// equals World().Now().
func (nd *Node) LocalNow() sim.Time {
	now := nd.net.world.Now()
	if nd.drift == 0 {
		return now + (nd.localBase - nd.skewSince)
	}
	return nd.localBase + sim.Time(float64(now-nd.skewSince)*(1+nd.drift))
}

// stretchTimer converts a locally-requested delay into true virtual time:
// slowdown stretches it (degraded node fires late), then skew rescales it
// (a fast clock's d local units elapse in d/(1+drift) true units).
func (nd *Node) stretchTimer(d sim.Time) sim.Time {
	if d <= 0 {
		return d
	}
	if nd.slowdown > 1 {
		d = sim.Time(float64(d) * nd.slowdown)
	}
	if nd.drift != 0 {
		d = sim.Time(float64(d) / (1 + nd.drift))
	}
	return d
}

// stretchTimeout converts a locally-requested RPC deadline into true virtual
// time. Only skew applies: deadlines are measured on the local clock but the
// watchdog that fires them is not CPU-bound.
func (nd *Node) stretchTimeout(t sim.Time) sim.Time {
	if t <= 0 || nd.drift == 0 {
		return t
	}
	return sim.Time(float64(t) / (1 + nd.drift))
}

// obsNodeGauge returns a per-node gauge, nil-safe when observability is off.
func (n *Network) obsNodeGauge(name, help string, id transport.NodeID) *obs.Gauge {
	if n.reg == nil {
		return nil
	}
	return n.reg.Gauge(name, help, "node", string(id))
}

// Flap starts a one-directional on/off cycle on the a→b link: connected for
// ~up, cut for ~down, repeating with ±25% seeded jitter per phase so flap
// edges do not phase-lock with protocol timers. The link starts (and is
// left) in whatever state Cut/Heal last put it; the first transition — to
// cut — happens after the first up phase. The returned stop function ends
// the cycle and heals the link; it is idempotent.
func (n *Network) Flap(a, b transport.NodeID, up, down sim.Time) (stop func()) {
	if up <= 0 || down <= 0 {
		panic("simnet: Flap phases must be positive")
	}
	stopped := false
	jitter := func(d sim.Time) sim.Time {
		return sim.Time(float64(d) * n.rng.Uniform(0.75, 1.25))
	}
	var phase func(cutNow bool)
	phase = func(cutNow bool) {
		if stopped {
			return
		}
		var dur sim.Time
		if cutNow {
			n.Cut(a, b)
			dur = jitter(down)
		} else {
			n.Heal(a, b)
			dur = jitter(up)
		}
		if n.reg != nil {
			n.reg.Counter("mams_net_flap_transitions_total",
				"Flap on/off transitions per directed link.",
				"src", string(a), "dst", string(b)).Inc()
		}
		if n.log != nil {
			what := "flap-up"
			if cutNow {
				what = "flap-down"
			}
			n.log.Emit(trace.KindFault, string(a), what, "dst", string(b))
		}
		n.world.After(dur, "flap:"+string(a)+">"+string(b), func() { phase(!cutNow) })
	}
	// Arm the first down-transition without emitting a synthetic "flap-up"
	// for the link's current (untouched) state.
	n.world.After(jitter(up), "flap:"+string(a)+">"+string(b), func() { phase(true) })
	return func() {
		if stopped {
			return
		}
		stopped = true
		n.Heal(a, b)
	}
}
