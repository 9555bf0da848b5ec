package health

import (
	"math"
	"sort"
	"strconv"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
)

// Kind is the detector's fault classification, matching the gray alphabet of
// internal/check (s, f, k, b).
type Kind string

// Verdict kinds.
const (
	Slow     Kind = "slow"
	Skew     Kind = "skew"
	Flap     Kind = "flap"
	Brownout Kind = "brownout"
)

// Verdict is one confirmed health transition: the node first looked suspect
// at FirstSuspectAt and the suspicion survived enough consecutive
// evaluations to confirm at ConfirmedAt.
type Verdict struct {
	Node           string
	Kind           Kind
	FirstSuspectAt sim.Time
	ConfirmedAt    sim.Time
}

// The detector's fixed scoring policy.
const (
	// evalEvery is the evaluation cadence.
	evalEvery = sim.Second
	// evalWindow is the trailing window every signal is computed over. It
	// covers several probe intervals.
	evalWindow = 5 * sim.Second
	// confirmEvals is how many consecutive suspect evaluations confirm a
	// verdict: transient blips (an election, one slow scrape) must not page.
	confirmEvals = 3
	// slowFactor is the latency-SLO burn threshold: a node is slow when its
	// windowed probe p99 is ≥ slowFactor × the peer-median windowed p99.
	// The same ratio is used peer-relatively for pool serve latency
	// (brownout).
	slowFactor = 2.5
	// slowFloor is an absolute p99 floor in seconds (the probe CPU cost):
	// with every peer fast, tiny ratios over microsecond medians must not
	// trip.
	slowFloor = 0.001
	// driftMin is the minimum |clock-drift| (seconds per second) the
	// offset-slope estimator flags as skew.
	driftMin = 0.05
	// minProbes is the minimum windowed probe count required to judge RTT
	// quantiles.
	minProbes = 4
)

// nodeState tracks one node's suspicion streak.
type nodeState struct {
	kind      Kind
	streak    int
	first     sim.Time
	confirmed bool
}

// Detector scores every monitored node from scraped series each evaluation
// tick and drives the ok → suspect → confirmed state machine. It runs on
// the world's clock directly (the monitoring plane is not a simulated node)
// and is fully deterministic: nodes are evaluated in the order given, every
// signal is a pure function of the sampler's rings.
type Detector struct {
	world *sim.World
	s     *obs.Sampler
	log   *trace.Log
	nodes []string

	state    map[string]*nodeState
	verdicts []Verdict

	stateGauge map[string]*obs.Gauge
	suspects   *obsKindCounters
	confirms   *obsKindCounters

	started bool
}

// obsKindCounters caches per-(node, kind) counters.
type obsKindCounters struct {
	reg  *obs.Registry
	name string
	help string
	m    map[string]*obs.Counter
}

func (c *obsKindCounters) inc(node string, k Kind) {
	key := node + "|" + string(k)
	ctr, ok := c.m[key]
	if !ok {
		ctr = c.reg.Counter(c.name, c.help, "node", node, "kind", string(k))
		c.m[key] = ctr
	}
	ctr.Inc()
}

// NewDetector builds a detector over the sampler's series for the given
// nodes. reg receives the mams_health_* output metrics (it is normally the
// same registry the sampler scrapes, so health state is itself a series);
// log receives KindHealth transition events. Both may be nil.
func NewDetector(w *sim.World, s *obs.Sampler, reg *obs.Registry, log *trace.Log, nodes []string) *Detector {
	d := &Detector{
		world:      w,
		s:          s,
		log:        log,
		nodes:      append([]string(nil), nodes...),
		state:      map[string]*nodeState{},
		stateGauge: map[string]*obs.Gauge{},
		suspects: &obsKindCounters{reg: reg, m: map[string]*obs.Counter{},
			name: "mams_health_suspects_total",
			help: "Suspicion streaks opened per node and fault kind."},
		confirms: &obsKindCounters{reg: reg, m: map[string]*obs.Counter{},
			name: "mams_health_confirms_total",
			help: "Confirmed gray-failure verdicts per node and fault kind."},
	}
	for _, n := range d.nodes {
		d.state[n] = &nodeState{}
		d.stateGauge[n] = reg.Gauge("mams_health_state",
			"Detector state per node: 0 ok, 1 suspect, 2 confirmed.", "node", n)
	}
	return d
}

// Start arms the evaluation loop. Idempotent.
func (d *Detector) Start() {
	if d == nil || d.started {
		return
	}
	d.started = true
	var tick func()
	tick = func() {
		d.Eval()
		d.world.After(evalEvery, "health-eval", tick)
	}
	d.world.After(evalEvery, "health-eval", tick)
}

// Verdicts returns every confirmed verdict so far, in confirmation order.
func (d *Detector) Verdicts() []Verdict {
	if d == nil {
		return nil
	}
	return d.verdicts
}

// State returns a node's current suspected kind ("" = healthy) and whether
// the suspicion has been confirmed.
func (d *Detector) State(node string) (Kind, bool) {
	if d == nil {
		return "", false
	}
	st := d.state[node]
	if st == nil {
		return "", false
	}
	return st.kind, st.confirmed
}

// Eval runs one evaluation pass over all nodes right now.
func (d *Detector) Eval() {
	if d == nil || d.s == nil {
		return
	}
	sig := evalSignals{
		probeP99: d.windowP99(MetricProbeRTT),
		poolP99:  d.windowP99("mams_ssp_pool_serve_seconds"),
	}
	sig.probeMed = median(values(sig.probeP99, d.nodes))
	sig.poolMed = median(values(sig.poolP99, d.nodes))
	sig.dropPeers, sig.dropSrc = d.dropSignals()
	for _, n := range d.nodes {
		d.transition(n, d.classify(n, sig))
	}
}

// evalSignals is one evaluation tick's shared window computations.
type evalSignals struct {
	probeP99, poolP99 map[string]float64
	probeMed, poolMed float64
	// dropPeers maps each node to the distinct counterpart endpoints of
	// links that dropped messages inside the window; dropSrc marks nodes
	// that were the sender on at least one such link.
	dropPeers map[string]map[string]bool
	dropSrc   map[string]bool
}

// dropSignals mines the per-link drop counters for the window's dropping
// links, indexed by endpoint. Only set membership and sizes are consumed
// downstream, so map iteration order never leaks into the result.
func (d *Detector) dropSignals() (peers map[string]map[string]bool, srcs map[string]bool) {
	peers, srcs = map[string]map[string]bool{}, map[string]bool{}
	add := func(a, b string) {
		if peers[a] == nil {
			peers[a] = map[string]bool{}
		}
		peers[a][b] = true
	}
	for _, ts := range d.s.SeriesOf("mams_net_messages_dropped_total") {
		if delta, ok := ts.Delta(evalWindow); !ok || delta <= 0 {
			continue
		}
		src, dst := ts.Label("src"), ts.Label("dst")
		add(src, dst)
		add(dst, src)
		srcs[src] = true
	}
	return peers, srcs
}

// flapSuspect attributes the window's dropping links to a culprit node. A
// single gray endpoint (flaky NIC, fenced process) shows up on links to
// several distinct peers, while each of those healthy peers sees only its
// one link to the culprit — so blame common endpoints first:
//
//   - a node on dropping links to ≥ 2 distinct peers is suspect;
//   - a node on exactly one dropping link is cleared when its counterpart
//     is such a common endpoint, and otherwise blamed only if it was the
//     sender (the injection convention: outbound flap).
func flapSuspect(n string, sig evalSignals) bool {
	ps := sig.dropPeers[n]
	if len(ps) >= 2 {
		return true
	}
	if len(ps) == 1 {
		for c := range ps { // exactly one element
			if len(sig.dropPeers[c]) >= 2 {
				return false
			}
		}
		return sig.dropSrc[n]
	}
	return false
}

// windowP99 computes each node's windowed p99 for one histogram family,
// skipping nodes with too few windowed observations to judge.
func (d *Detector) windowP99(family string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range d.nodes {
		hs := d.s.Hist(family, "node", n)
		if hs == nil {
			continue
		}
		if cnt, ok := hs.WindowCount(evalWindow); !ok || cnt < minProbes {
			continue
		}
		if v, ok := hs.WindowQuantile(0.99, evalWindow); ok {
			out[n] = v
		}
	}
	return out
}

// classify returns the node's suspected fault kind ("" = healthy). One kind
// per node, in checking order:
//
//  1. skew — the offset-series slope estimates drift directly and is
//     unaffected by the other faults;
//  2. flap — the node is the attributed culprit of the window's message
//     drops (see flapSuspect). Exact in this simulation: a healthy loaded
//     run drops nothing, so any drop means a faulted link or endpoint;
//  3. slow — probe-RTT SLO burn vs the peer median. Checked before brownout
//     because a slowed host also stretches its pool serve times (pool costs
//     run on the host's timers): slow explains both signals, brownout only
//     one;
//  4. brownout — pool data ops erroring, or pool serve p99 burning while the
//     node's probe RTT is normal (the paper's slow-but-up shape).
func (d *Detector) classify(n string, sig evalSignals) Kind {
	w := evalWindow

	if ts := d.s.Series(MetricProbeOffset, "node", n); ts != nil {
		if slope, ok := ts.Rate(w); ok && math.Abs(slope) >= driftMin {
			return Skew
		}
	}

	if flapSuspect(n, sig) {
		return Flap
	}

	rtt, rttOK := sig.probeP99[n]
	slow := rttOK && sig.probeMed > 0 &&
		rtt >= slowFactor*sig.probeMed && rtt >= slowFloor
	if slow {
		return Slow
	}

	if ts := d.s.Series("mams_ssp_pool_errors_total", "node", n); ts != nil {
		if delta, ok := ts.Delta(w); ok && delta > 0 {
			return Brownout
		}
	}
	if v, ok := sig.poolP99[n]; ok && sig.poolMed > 0 && v >= slowFactor*sig.poolMed {
		// Serve latency burns but probes are healthy: data path only.
		if !rttOK || rtt < slowFactor*sig.probeMed {
			return Brownout
		}
	}
	return ""
}

// transition advances one node's suspect/confirm state machine.
func (d *Detector) transition(n string, k Kind) {
	st := d.state[n]
	now := d.world.Now()
	if k == "" {
		if st.kind != "" {
			if d.log != nil {
				d.log.Emit(trace.KindHealth, n, "health-clear", "kind", string(st.kind))
			}
			*st = nodeState{}
			d.stateGauge[n].Set(0)
		}
		return
	}
	if st.kind != k {
		*st = nodeState{kind: k, first: now}
		d.suspects.inc(n, k)
		d.stateGauge[n].Set(1)
		if d.log != nil {
			d.log.Emit(trace.KindHealth, n, "health-suspect", "kind", string(k))
		}
	}
	st.streak++
	if !st.confirmed && st.streak >= confirmEvals {
		st.confirmed = true
		v := Verdict{Node: n, Kind: k, FirstSuspectAt: st.first, ConfirmedAt: now}
		d.verdicts = append(d.verdicts, v)
		d.confirms.inc(n, k)
		d.stateGauge[n].Set(2)
		if d.log != nil {
			d.log.Emit(trace.KindHealth, n, "health-confirm", "kind", string(k),
				"suspectedAt", strconv.FormatFloat(st.first.Seconds(), 'g', -1, 64))
		}
	}
}

// median of a non-empty slice (0 when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// values extracts map values in the given key order (determinism: never
// range over the map).
func values(m map[string]float64, keys []string) []float64 {
	out := make([]float64, 0, len(m))
	for _, k := range keys {
		if v, ok := m[k]; ok {
			out = append(out, v)
		}
	}
	return out
}
