package health

import (
	"testing"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
)

// rig is a synthetic telemetry plane: a world, a registry, a running
// sampler and a detector over four nodes — no cluster, so each test feeds
// exactly the series shape it wants to classify.
type rig struct {
	w     *sim.World
	reg   *obs.Registry
	s     *obs.Sampler
	d     *Detector
	nodes []string
}

func newRig(t *testing.T) *rig {
	t.Helper()
	w := sim.NewWorld()
	reg := obs.NewRegistry()
	s := obs.NewSampler(w, reg, obs.SamplerConfig{})
	s.Start()
	r := &rig{w: w, reg: reg, s: s, nodes: []string{"n0", "n1", "n2", "n3"}}
	r.d = NewDetector(w, s, reg, trace.New(w), r.nodes)
	r.d.Start()
	return r
}

// every runs fn each period until the world stops advancing.
func (r *rig) every(period sim.Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		r.w.After(period, "feed", tick)
	}
	r.w.After(period, "feed", tick)
}

// feedProbes emits healthy probe RTTs for every node each 250ms, with a
// per-node override returning the RTT to observe (seconds).
func (r *rig) feedProbes(rtt func(node string, now sim.Time) float64) {
	hists := map[string]*obs.Histogram{}
	offsets := map[string]*obs.Gauge{}
	for _, n := range r.nodes {
		hists[n] = r.reg.Histogram(MetricProbeRTT, "t", probeRTTBounds(), "node", n)
		offsets[n] = r.reg.Gauge(MetricProbeOffset, "t", "node", n)
	}
	r.every(250*sim.Millisecond, func() {
		for _, n := range r.nodes {
			hists[n].Observe(rtt(n, r.w.Now()))
			offsets[n].Set(-0.0002)
		}
	})
}

const healthyRTT = 0.0014

// wantOnly asserts exactly one confirmed verdict — (node, kind) — exists:
// every synthetic test doubles as a false-positive pin for the other nodes.
func wantOnly(t *testing.T, d *Detector, node string, kind Kind) Verdict {
	t.Helper()
	var hit *Verdict
	for _, v := range d.Verdicts() {
		v := v
		if v.Node == node && v.Kind == kind && hit == nil {
			hit = &v
			continue
		}
		t.Errorf("unexpected verdict %+v", v)
	}
	if hit == nil {
		t.Fatalf("no %s verdict on %s; got %+v", kind, node, d.Verdicts())
	}
	return *hit
}

func TestDetectorSlowVerdictAndClear(t *testing.T) {
	r := newRig(t)
	const faultAt, healAt = 10 * sim.Second, 16 * sim.Second
	r.feedProbes(func(n string, now sim.Time) float64 {
		if n == "n1" && now >= faultAt && now < healAt {
			return 8 * healthyRTT // a 8x slowdown's probe shape
		}
		return healthyRTT
	})
	r.w.RunFor(30 * sim.Second)
	v := wantOnly(t, r.d, "n1", Slow)
	if v.ConfirmedAt < faultAt || v.ConfirmedAt > faultAt+6*sim.Second {
		t.Errorf("confirmed at %v, want within 6s of injection at %v", v.ConfirmedAt, faultAt)
	}
	if v.FirstSuspectAt > v.ConfirmedAt || v.FirstSuspectAt < faultAt {
		t.Errorf("suspect at %v outside [%v, %v]", v.FirstSuspectAt, faultAt, v.ConfirmedAt)
	}
	if kind, _ := r.d.State("n1"); kind != "" {
		t.Errorf("n1 still %q after heal + window drain", kind)
	}
}

func TestDetectorSkewVerdict(t *testing.T) {
	r := newRig(t)
	const drift = 0.15
	hists := map[string]*obs.Histogram{}
	for _, n := range r.nodes {
		hists[n] = r.reg.Histogram(MetricProbeRTT, "t", probeRTTBounds(), "node", n)
	}
	off := r.reg.Gauge(MetricProbeOffset, "t", "node", "n2")
	start := 8 * sim.Second
	r.every(250*sim.Millisecond, func() {
		for _, n := range r.nodes {
			hists[n].Observe(healthyRTT)
		}
		if now := r.w.Now(); now >= start {
			off.Set(drift * (now - start).Seconds())
		}
	})
	r.w.RunFor(20 * sim.Second)
	wantOnly(t, r.d, "n2", Skew)
}

// A flapping (or dead) endpoint drops traffic on links to several distinct
// peers; the peers each see only their one link to it. The detector must
// blame the common endpoint whichever direction the drops were counted in.
func TestDetectorFlapBlamesCommonEndpoint(t *testing.T) {
	for _, dir := range []string{"outbound", "inbound"} {
		t.Run(dir, func(t *testing.T) {
			r := newRig(t)
			r.feedProbes(func(string, sim.Time) float64 { return healthyRTT })
			var drops []*obs.Counter
			for _, peer := range []string{"n0", "n2", "n3"} {
				src, dst := "n1", peer
				if dir == "inbound" {
					src, dst = peer, "n1"
				}
				drops = append(drops, r.reg.Counter("mams_net_messages_dropped_total", "t",
					"src", src, "dst", dst))
			}
			r.every(200*sim.Millisecond, func() {
				if now := r.w.Now(); now >= 8*sim.Second && now < 14*sim.Second {
					for _, c := range drops {
						c.Inc()
					}
				}
			})
			r.w.RunFor(24 * sim.Second)
			wantOnly(t, r.d, "n1", Flap)
			if kind, _ := r.d.State("n1"); kind != "" {
				t.Errorf("n1 still %q after drops stopped", kind)
			}
		})
	}
}

// With a single dropping link neither endpoint stands out, so the sender is
// blamed (the injection convention flaps outbound links).
func TestDetectorSingleLinkBlamesSender(t *testing.T) {
	r := newRig(t)
	r.feedProbes(func(string, sim.Time) float64 { return healthyRTT })
	c := r.reg.Counter("mams_net_messages_dropped_total", "t", "src", "n0", "dst", "n1")
	r.every(200*sim.Millisecond, func() {
		if r.w.Now() >= 8*sim.Second {
			c.Inc()
		}
	})
	r.w.RunFor(16 * sim.Second)
	wantOnly(t, r.d, "n0", Flap)
}

func TestDetectorBrownoutFromErrorsAndServeLatency(t *testing.T) {
	r := newRig(t)
	r.feedProbes(func(string, sim.Time) float64 { return healthyRTT })
	serve := map[string]*obs.Histogram{}
	for _, n := range r.nodes {
		serve[n] = r.reg.Histogram("mams_ssp_pool_serve_seconds", "t",
			obs.ExpBuckets(0.0005, 2, 14), "node", n)
	}
	errs := r.reg.Counter("mams_ssp_pool_errors_total", "t", "node", "n3")
	r.every(250*sim.Millisecond, func() {
		now := r.w.Now()
		for _, n := range r.nodes {
			d := 0.002
			if n == "n3" && now >= 8*sim.Second {
				d = 0.024 // 12x browned-out data path; probes stay healthy
			}
			serve[n].Observe(d)
		}
		if now >= 8*sim.Second {
			errs.Inc()
		}
	})
	r.w.RunFor(16 * sim.Second)
	wantOnly(t, r.d, "n3", Brownout)
}

// The zero-false-positive pin: a healthy, balanced plane must never page.
func TestDetectorQuietOnHealthySeries(t *testing.T) {
	r := newRig(t)
	r.feedProbes(func(string, sim.Time) float64 { return healthyRTT })
	serve := map[string]*obs.Histogram{}
	for _, n := range r.nodes {
		serve[n] = r.reg.Histogram("mams_ssp_pool_serve_seconds", "t",
			obs.ExpBuckets(0.0005, 2, 14), "node", n)
	}
	r.every(250*sim.Millisecond, func() {
		for _, n := range r.nodes {
			serve[n].Observe(0.002)
		}
	})
	r.w.RunFor(60 * sim.Second)
	if vs := r.d.Verdicts(); len(vs) != 0 {
		t.Fatalf("healthy plane produced verdicts: %+v", vs)
	}
	for _, n := range r.nodes {
		if kind, _ := r.d.State(n); kind != "" {
			t.Errorf("%s suspected %q on healthy series", n, kind)
		}
	}
}

// The detector's output metrics are themselves scraped series.
func TestDetectorEmitsHealthMetrics(t *testing.T) {
	r := newRig(t)
	const faultAt = 8 * sim.Second
	r.feedProbes(func(n string, now sim.Time) float64 {
		if n == "n0" && now >= faultAt {
			return 8 * healthyRTT
		}
		return healthyRTT
	})
	r.w.RunFor(20 * sim.Second)
	wantOnly(t, r.d, "n0", Slow)
	ts := r.s.Series("mams_health_state", "node", "n0")
	if ts == nil {
		t.Fatal("mams_health_state{node=n0} was never scraped")
	}
	if p, ok := ts.Last(); !ok || p.V != 2 {
		t.Errorf("mams_health_state{node=n0} = %+v, want 2 (confirmed)", p)
	}
	cs := r.s.Series("mams_health_confirms_total", "node", "n0", "kind", "slow")
	if cs == nil {
		t.Fatal("mams_health_confirms_total{node=n0,kind=slow} missing")
	}
	if p, ok := cs.Last(); !ok || p.V < 1 {
		t.Errorf("confirms counter = %+v, want >= 1", p)
	}
}
