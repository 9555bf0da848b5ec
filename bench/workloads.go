package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mams/internal/mams"
	"mams/internal/nettrans/testutil"
)

// The four workloads. Each one's `why` is in BENCHMARK.json and README.md.
var wireSpecs = map[string]wireSpec{
	"wire_create":   {name: "wire_create", mix: mixCreate, preload: 0},
	"wire_stat":     {name: "wire_stat", mix: mixStat, preload: 20000},
	"wire_failover": {name: "wire_failover", mix: mixPaper},
}

var workloadNames = []string{"wire_create", "wire_stat", "wire_failover", "sim_paper"}

// config is what the command line chose.
type config struct {
	seed    uint64
	seconds float64
	smoke   bool // seconds-long shapes for `go test`; numbers mean nothing
}

// metric is one named measurement. clock says what it was taken on: "wall"
// (this host's clock), "virtual" (the simulator's modelled clock) or
// "count".
type metric struct {
	name  string
	unit  string
	clock string
	value float64
}

// result is one run's output: its metrics and its output checks.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // failed output checks; empty means correct
	notes     []string // what the medians were taken over, for the reader
	metrics   []metric
}

func (r *result) add(name, unit, clock string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, clock, value})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// shapeFor lays `seconds` of measuring out over slices and rounds. The
// saturated workloads spend three rounds' worth on the failover coda and the
// rest on half-second slices; wire_failover is rounds only.
func shapeFor(name string, cfg config) wireShape {
	if cfg.smoke {
		sh := wireShape{warm: 200 * time.Millisecond, slices: 1, slice: 500 * time.Millisecond,
			rounds: 1, killAt: 400 * time.Millisecond, roundLen: 2600 * time.Millisecond}
		if name == "wire_failover" {
			sh.slices = 0
		}
		return sh
	}
	sh := wireShape{warm: 3 * time.Second, killAt: 800 * time.Millisecond, roundLen: 3 * time.Second}
	total := time.Duration(cfg.seconds * float64(time.Second))
	if name == "wire_failover" {
		sh.rounds = max(1, int(total/sh.roundLen))
		return sh
	}
	sh.rounds = 3
	sh.slice = 500 * time.Millisecond
	sh.slices = max(1, int((total-3*sh.roundLen)/sh.slice))
	return sh
}

// undisturbed reduces the throughputs of a run's slices (or the simulator's
// segments) to one figure: their 90th percentile. This host is a shared
// 2-vCPU VM whose neighbours take anything from nothing to half of it for
// seconds to minutes at a time; that only ever slows a slice down, so the upper end of the slices is
// what the code can do and the median is what the neighbours left. A slice
// is at least a quarter of a second — thousands of ops and a GC cycle or
// more — so a fast slice is not a lucky one.
func undisturbed(rates []float64) float64 { return quantile(rates, 0.9) }

// runWorkload runs one workload untraced and returns its end-to-end
// metrics. began is when the run started, for setup_s.
func runWorkload(name string, cfg config, began time.Time) (*result, error) {
	if name == "sim_paper" {
		return runSim(cfg, began)
	}
	return runWire(wireSpecFor(name, cfg), shapeFor(name, cfg), cfg.seed, began)
}

// wireSpecFor returns a wire workload's inputs, with a tenth of the preload
// in smoke runs.
func wireSpecFor(name string, cfg config) wireSpec {
	spec := wireSpecs[name]
	if cfg.smoke {
		spec.preload /= 10
	}
	return spec
}

// auditSaturated folds a saturated phase's output checks into the result:
// every op of the given logs counts as attempted, an unanswered or refused
// one as failed, and the replicas must hold exactly the preload plus the
// acked creates.
func auditSaturated(res *result, c *testutil.Cluster, spec wireSpec, logs ...[]opRec) {
	creates := 0
	for _, recs := range logs {
		for _, r := range recs {
			res.attempted++
			if !r.acked() {
				res.failed++
			} else if r.kind == mams.OpCreate {
				creates++
			}
		}
	}
	if err := checkReplicas(c, spec.preload+creates); err != nil {
		res.problem("%s: %v", spec.name, err)
	}
}

// runWire measures a wire workload: the saturated closed loop on one
// cluster (ops_per_s, allocs_per_op), then failover rounds of the same op
// mix at openRate on fresh clusters (p50_ms, downtime_ms).
func runWire(spec wireSpec, sh wireShape, seed uint64, began time.Time) (*result, error) {
	res := &result{workload: spec.name}
	var setup time.Duration
	opsPerS, allocs := math.NaN(), math.NaN()

	if sh.slices > 0 {
		c, dirs, pool, err := bootCluster(seed, spec.preload)
		if err != nil {
			return nil, err
		}
		g := newLoadgen(c, spec.mix, seed, "s", dirs, pool, nil, 0)
		sat := runSaturated(c, g, sh, spec.name)
		setup = sat.before.at.Sub(began)
		auditSaturated(res, c, spec, sat.all)
		c.Close()
		opsPerS = undisturbed(sat.rates)
		res.note("host steal %.1f %% of the slices' CPU time", stealPct(sat.before, sat.after))
		res.note("slice ops/s %.0f", sat.rates)
		allocs = float64(sat.after.mallocs-sat.before.mallocs) / float64(sat.acked)
	}

	steady := map[mams.OpKind][]float64{}
	var downtimes, setups []float64
	var onTime, roundAcked int
	var roundMallocs uint64
	var roundLoad time.Duration
	for r := range sh.rounds {
		rr, err := runRound(spec, sh, seed, r, nil, 0, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		setup += rr.setup
		setups = append(setups, rr.setup.Seconds())
		auditRound(res, r, rr)
		for _, e := range spec.mix {
			steady[e.kind] = append(steady[e.kind], rr.steady(e.kind)...)
		}
		downtimes = append(downtimes, ms(rr.downtime()))
		onTime += rr.onTime()
		roundAcked += rr.ackedInWindow()
		roundMallocs += rr.after.mallocs - rr.before.mallocs
		roundLoad += rr.load
	}
	res.note("round set-up s %.3f, downtime ms %.0f", setups, downtimes)
	if sh.slices == 0 {
		// No saturated phase. Throughput is the open loop's goodput over the
		// rounds, outage included: an op counts if it was answered within
		// lateAfter of its due instant (everything is answered eventually,
		// so the plain rate would always read openRate). Allocations are
		// taken over the whole rounds too: the second before the kill alone
		// repeats three times worse.
		opsPerS = float64(onTime) / roundLoad.Seconds()
		allocs = float64(roundMallocs) / float64(roundAcked)
	}
	// The mix's median latency is the share-weighted mean of the per-kind
	// medians — the plain median for a one-kind mix. The pooled median of a
	// two-mode mix sits in the gap between reads and writes and jumps about.
	p50 := 0.0
	for _, e := range spec.mix {
		p50 += float64(e.tenths) / 10 * median(steady[e.kind])
	}

	res.add("ops_per_s", "1/s", "wall", opsPerS)
	res.add("p50_ms", "ms", "wall", p50)
	res.add("downtime_ms", "ms", "wall", mean(downtimes))
	res.add("allocs_per_op", "count", "count", allocs)
	res.add("setup_s", "s", "wall", setup.Seconds())
	return res, nil
}

// auditRound folds one round's output checks into the result.
func auditRound(res *result, r int, rr roundResult) {
	res.attempted += len(rr.recs)
	for _, rec := range rr.recs {
		if !rec.acked() {
			res.failed++
		}
	}
	res.failed += rr.lost
	if rr.lost > 0 {
		res.problem("round %d: %d acknowledged mutations are not visible on the new active", r, rr.lost)
	}
	if !rr.moved {
		res.problem("round %d: the active did not move after the kill", r)
	}
	if rr.firstAck == 0 {
		res.problem("round %d: no op due after the kill was ever acknowledged", r)
	}
}

// runSim repeats one seeded simulator run until cfg.seconds of wall time
// have been measured. The virtual metrics are the same in every repeat —
// that is the output check — and the wall metrics are medians over them.
func runSim(cfg config, began time.Time) (*result, error) {
	res := &result{workload: "sim_paper"}
	sh, minRepeats := simFull, 2
	if cfg.smoke {
		sh, minRepeats = simSmoke, 1
	}
	var first simRepeat
	var rates, allocs []float64
	var measured, steal time.Duration
	var setups []float64
	for n := 0; n < minRepeats || (!cfg.smoke && measured.Seconds() < cfg.seconds); n++ {
		rep, err := runSimRepeat(cfg.seed, sh, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", n, err)
		}
		if n == 0 {
			first = rep
			setups = append(setups, rep.wallStart.Sub(began).Seconds())
		} else {
			setups = append(setups, rep.setup.Seconds())
			if rep.virtFingerprt != first.virtFingerprt {
				res.problem("repeat %d of seed %d is not deterministic: %s, first was %s",
					n, cfg.seed, rep.virtFingerprt, first.virtFingerprt)
			}
		}
		res.attempted += rep.completed
		res.failed += rep.failed
		measured += rep.wall
		steal += rep.steal
		rates = append(rates, rep.rates...)
		allocs = append(allocs, float64(rep.mallocs)/float64(rep.completed))
	}
	res.note("%d steady segments, ops/s quartiles %.0f %.0f %.0f", len(rates), quantile(rates, 0.25), median(rates), quantile(rates, 0.75))
	res.note("host steal %.1f %% of the repeats' CPU time", 100*steal.Seconds()/(measured.Seconds()*float64(runtime.NumCPU())))
	res.add("ops_per_s", "1/s", "wall", undisturbed(rates))
	res.add("p50_ms", "ms", "virtual", first.virtP50.Milliseconds())
	res.add("downtime_ms", "ms", "virtual", first.virtDowntime.Milliseconds())
	res.add("allocs_per_op", "count", "count", median(allocs))
	// How many repeats fit into cfg.seconds depends on how fast they run, so
	// set-up is the median repeat's, not the sum.
	res.add("setup_s", "s", "wall", median(setups))
	return res, nil
}
