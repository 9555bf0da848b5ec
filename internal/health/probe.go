// Package health turns obs telemetry into per-node gray-failure verdicts.
//
// PR 7's gray primitives (slowdown, clock skew, link flap, pool brownout)
// degrade a node without ever emitting a crisp "down" event; nothing in the
// protocol layer notices until invariants are at risk. This package is the
// production-style answer: an active prober that gives every node a cheap,
// uniformly-shaped workload to be measured by, and a detector that scores
// nodes from scraped time series only — latency-SLO burn against a
// peer-relative baseline, rate anomalies, offset-slope clock estimation —
// and emits Verdict transitions as trace events and mams_health_* metrics.
//
// The detector deliberately never reads the injection machinery's truth
// gauges (mams_node_slowdown_factor, mams_node_clock_drift,
// mams_ssp_brownout_factor, mams_ssp_brownout_failures_total,
// mams_net_flap_transitions_total): those exist for experiment audits. Every
// signal used here is a behavioral measurement a real deployment could take.
package health

import (
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// ProbeReq is the active health probe. Servers answer it after ProbeCost of
// local CPU (via Node.After), so a slowed-down node's probes come back
// visibly late — RPC reply paths that cost no local timer would hide
// slowdown entirely (gray.go stretches timers, not message latency).
type ProbeReq struct{}

// ProbeResp carries the responder's local clock reading; the prober turns it
// into an offset series whose slope is the responder's clock drift.
type ProbeResp struct {
	LocalNow sim.Time
}

// ProbeCost is the modeled CPU cost of answering one probe. Large enough
// that a slowdown factor dominates the network jitter in the probe RTT,
// small enough to be negligible load.
const ProbeCost = 1 * sim.Millisecond

// Probe metric names (the detector's inputs).
const (
	MetricProbeRTT      = "mams_health_probe_seconds"
	MetricProbeOffset   = "mams_health_probe_local_offset_seconds"
	MetricProbeFailures = "mams_health_probe_failures_total"
)

// probeRTTBounds resolve a 2.5× p99 shift around the ~1.5 ms healthy RTT:
// factor-1.5 buckets from 0.5 ms to ~100 ms.
func probeRTTBounds() []float64 { return obs.ExpBuckets(0.0005, 1.5, 14) }

// Prober runs on its own (healthy) monitoring node and probes every target
// on a fixed cadence. Per target it maintains, in the host network's
// registry: an RTT histogram, a local-clock offset gauge, and a failure
// counter.
type Prober struct {
	host    *simnet.Node
	targets []transport.NodeID
	every   sim.Time
	timeout sim.Time

	rtt      map[transport.NodeID]*obs.Histogram
	offset   map[transport.NodeID]*obs.Gauge
	failures map[transport.NodeID]*obs.Counter

	started bool
}

// NewProber builds a prober on host probing targets every `every` (default
// 500 ms). The host should be a dedicated monitoring node so that injected
// faults on cluster members never skew the prober's own timers.
func NewProber(host *simnet.Node, targets []transport.NodeID, every sim.Time) *Prober {
	if every <= 0 {
		every = 500 * sim.Millisecond
	}
	p := &Prober{
		host:     host,
		targets:  append([]transport.NodeID(nil), targets...),
		every:    every,
		timeout:  2 * sim.Second,
		rtt:      map[transport.NodeID]*obs.Histogram{},
		offset:   map[transport.NodeID]*obs.Gauge{},
		failures: map[transport.NodeID]*obs.Counter{},
	}
	reg := host.Net().Obs()
	for _, t := range p.targets {
		node := string(t)
		p.rtt[t] = reg.Histogram(MetricProbeRTT,
			"Health probe round-trip time per probed node.", probeRTTBounds(), "node", node)
		p.offset[t] = reg.Gauge(MetricProbeOffset,
			"Probed node's local clock minus true time at probe receipt; the slope of this series is the node's clock drift rate.",
			"node", node)
		p.failures[t] = reg.Counter(MetricProbeFailures,
			"Health probes that timed out or errored per probed node.", "node", node)
	}
	return p
}

// Start arms the probe loop. Idempotent.
func (p *Prober) Start() {
	if p == nil || p.started {
		return
	}
	p.started = true
	var tick func()
	tick = func() {
		p.probeAll()
		p.host.After(p.every, "health-probe-tick", tick)
	}
	p.host.After(p.every, "health-probe-tick", tick)
}

func (p *Prober) probeAll() {
	w := p.host.World()
	for _, t := range p.targets {
		t := t
		sent := w.Now()
		p.host.Call(t, ProbeReq{}, p.timeout, func(resp any, err error) {
			if err != nil {
				p.failures[t].Inc()
				return
			}
			pr, ok := resp.(ProbeResp)
			if !ok {
				p.failures[t].Inc()
				return
			}
			now := w.Now()
			p.rtt[t].Observe((now - sent).Seconds())
			p.offset[t].Set((pr.LocalNow - now).Seconds())
		})
	}
}
