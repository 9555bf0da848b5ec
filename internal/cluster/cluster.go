// Package cluster assembles complete simulated deployments of the six
// metadata-service designs the paper evaluates: CFS with the MAMS policy,
// vanilla HDFS, HDFS BackupNode, Facebook AvatarNode, Hadoop HA (QJM), and
// Boom-FS. It also provides the shared environment (virtual time, network,
// tracing) and fault-injection helpers used by every experiment.
package cluster

import (
	"fmt"

	"mams/internal/obs"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/trace"
	"mams/internal/transport"
)

// Env is one simulated world: clock, network, tracing, seeded randomness.
type Env struct {
	World *sim.World
	Net   *simnet.Network
	Trace *trace.Log
	RNG   *rng.RNG
	Obs   *obs.Registry
	Spans *obs.Tracer

	// Sampler is the time-series telemetry pipeline (nil until
	// StartTelemetry).
	Sampler *obs.Sampler
}

// NewEnv builds an environment modeling the paper's testbed LAN: 20-node
// GbE cluster, ~0.2 ms one-way latency with mild jitter.
func NewEnv(seed uint64) *Env {
	w := sim.NewWorld()
	w.SetStepLimit(500_000_000)
	tr := trace.New(w)
	r := rng.New(seed)
	net := simnet.New(w, r, simnet.LatencyModel{Base: 200 * sim.Microsecond, Spread: 0.25}, tr)
	reg := obs.NewRegistry()
	spans := obs.NewTracer(w)
	net.SetObs(reg, spans)
	return &Env{World: w, Net: net, Trace: tr, RNG: r, Obs: reg, Spans: spans}
}

// StartTelemetry starts the periodic sampler scraping this environment's
// registry into ring-buffered time series (idempotent; returns the existing
// sampler on repeat calls). Per-node and per-link series appear as the
// instrumentation creates children; memory stays bounded by the sampler's
// ring capacity and the registry's child limit.
func (e *Env) StartTelemetry() *obs.Sampler {
	if e.Sampler == nil {
		e.Sampler = obs.NewSampler(e.World, e.Obs, obs.SamplerConfig{})
		e.Sampler.Start()
	}
	return e.Sampler
}

// RunFor advances virtual time.
func (e *Env) RunFor(d sim.Time) { e.World.RunFor(d) }

// Now returns the current virtual time.
func (e *Env) Now() sim.Time { return e.World.Now() }

// NodeID builds a namespaced node id.
func NodeID(parts ...any) transport.NodeID {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprint(p)
	}
	return transport.NodeID(s)
}
