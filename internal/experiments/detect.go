package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mams/internal/cluster"
	"mams/internal/health"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/workload"
)

// DetectResult scores the health detector against ground-truth gray-fault
// schedules: `mamsbench -exp detect`. Every cell injects one known fault
// (or none — the controls), lets the detector judge from telemetry alone,
// and compares verdicts to the injection schedule.
type DetectResult struct {
	Detail *Table // one row per cell: truth vs verdict, time-to-detect
	Score  *Table // per fault kind: precision / recall / FP rate / median TTD

	// Cells is the raw per-cell outcome (JSON artifact for -bench-out).
	Cells []DetectCell
	// Findings are one-line verdict narratives for misses and mistakes.
	Findings []string

	// Recall is hits / faulted cells over the whole sweep; ControlFPs
	// counts confirmed verdicts inside the fault-free control cells. CI
	// gates on both.
	Recall     float64
	ControlFPs int
}

// Failed gates CI: the sweep must reach 90% recall and the fault-free
// controls must stay verdict-free.
func (r DetectResult) Failed() bool { return r.Recall < 0.9 || r.ControlFPs > 0 }

// DetectCell is one scored trial.
type DetectCell struct {
	Fault   string  // injected kind ("" = fault-free control)
	Mag     int     // injected magnitude
	Target  string  // "active" / "standby" role of the faulted member
	Node    string  // faulted node id
	Verdict string  // earliest confirmed kind on the faulted node
	TTDs    float64 // ConfirmedAt - injectAt, seconds (<0 = never)
	FPs     int     // confirmed verdicts on non-faulted nodes (or pre-fault)
	Cleared bool    // detector back to healthy on the faulted node post-heal
	Stable  bool    // cluster reached steady state before the trial
}

// detectFaults is the gray alphabet swept, with a weak and a strong
// magnitude each (the same units the systematic checker's schedules use:
// slowdown factor, drift ms/s, flap down-phase x100ms, brownout factor).
var detectFaults = []struct {
	kind health.Kind
	mags [2]int
}{
	{health.Slow, [2]int{4, 8}},
	{health.Skew, [2]int{150, 400}},
	{health.Flap, [2]int{5, 10}},
	{health.Brownout, [2]int{4, 12}},
}

// detectSpec is one cell's injection plan.
type detectSpec struct {
	kind   health.Kind // "" = control
	mag    int
	target int // group-member index; 0 boots active
}

// detectGrid builds the sweep: every (kind, magnitude, target role) cell
// plus two fault-free controls that pin the zero-false-positive line.
func detectGrid() []detectSpec {
	var grid []detectSpec
	for _, f := range detectFaults {
		for _, mag := range f.mags {
			for target := 0; target <= 1; target++ {
				grid = append(grid, detectSpec{kind: f.kind, mag: mag, target: target})
			}
		}
	}
	grid = append(grid, detectSpec{}, detectSpec{}) // controls
	return grid
}

// Detect runs the detector-scoring experiment: `mamsbench -exp detect`.
//
// Each cell boots a fresh 1A3S cluster with the monitoring plane attached,
// drives a continuous workload, injects one gray fault from the PR 7
// alphabet at a known time, heals it, and scores the detector's verdicts
// against that ground truth: did it confirm the right kind on the right
// node, how long after injection, and did it page about anyone innocent.
// The same injection recipes as the systematic checker are used, so the
// detector is judged on exactly the faults the invariant sweep exercises.
func Detect(opts Options) DetectResult {
	opts.Defaults()
	grid := detectGrid()
	cells := make([]DetectCell, len(grid))
	forEachCell(opts, len(grid), func(i int) {
		cells[i] = detectTrial(opts.Seed*1000+uint64(i)+1, grid[i])
	})

	res := DetectResult{Cells: cells}
	detail := &Table{
		ID:    "Detect A",
		Title: "Health verdicts vs ground-truth fault schedules (1A3S)",
		Note: "Fault injected at t=10s on one member, healed at t=22s, run ends t=30s.\n" +
			"ttd = confirmation delay after injection; fp = confirmed verdicts on\n" +
			"non-faulted nodes (controls: any verdict); cleared = detector back to\n" +
			"healthy on the faulted node after heal.",
		Header: []string{"fault", "mag", "target", "verdict", "ttd(s)", "fp", "cleared"},
	}
	type kindAgg struct {
		cells, hits, missed, misclass, fps int
		ttds                               []float64
	}
	agg := map[health.Kind]*kindAgg{}
	for _, f := range detectFaults {
		agg[f.kind] = &kindAgg{}
	}
	predicted := map[health.Kind]int{} // earliest verdicts claiming each kind
	totalFaulted, totalHits := 0, 0
	for _, c := range cells {
		verdict, ttd, cleared := c.Verdict, "-", fmt.Sprint(c.Cleared)
		if verdict == "" {
			verdict = "-"
		} else {
			predicted[health.Kind(c.Verdict)]++
		}
		if c.TTDs >= 0 && c.Verdict != "" {
			ttd = fmt.Sprintf("%.1f", c.TTDs)
		}
		if c.Fault == "" {
			res.ControlFPs += c.FPs
			detail.AddRow("control", "-", "-", verdict, ttd, fmt.Sprint(c.FPs), "-")
			if c.FPs > 0 {
				res.Findings = append(res.Findings,
					fmt.Sprintf("control: %d false-positive verdict(s) on a fault-free cluster", c.FPs))
			}
			continue
		}
		detail.AddRow(c.Fault, fmt.Sprint(c.Mag), c.Target, verdict, ttd, fmt.Sprint(c.FPs), cleared)
		a := agg[health.Kind(c.Fault)]
		a.cells++
		a.fps += c.FPs
		totalFaulted++
		switch {
		case !c.Stable:
			a.missed++
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s x%d on %s: cluster never stabilized", c.Fault, c.Mag, c.Target))
		case c.Verdict == c.Fault:
			a.hits++
			a.ttds = append(a.ttds, c.TTDs)
			totalHits++
		case c.Verdict == "":
			a.missed++
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s x%d on %s (%s): no verdict before run end", c.Fault, c.Mag, c.Target, c.Node))
		default:
			a.misclass++
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s x%d on %s (%s): misclassified as %s", c.Fault, c.Mag, c.Target, c.Node, c.Verdict))
		}
		if c.FPs > 0 {
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s x%d on %s: %d verdict(s) on non-faulted nodes", c.Fault, c.Mag, c.Target, c.FPs))
		}
	}
	res.Detail = detail
	if totalFaulted > 0 {
		res.Recall = float64(totalHits) / float64(totalFaulted)
	}

	score := &Table{
		ID:    "Detect B",
		Title: "Detector scorecard per fault kind",
		Note: "precision = correct verdicts of the kind / all verdicts claiming the kind\n" +
			"(across the whole sweep); recall = hits / injected cells; fp = verdicts on\n" +
			"non-faulted nodes in the kind's cells; ttd = median confirmation delay.\n" +
			"CI gate: overall recall >= 0.9 and zero verdicts in the control cells.",
		Header: []string{"fault", "cells", "hit", "miss", "misclass", "precision", "recall", "fp", "ttd med(s)"},
	}
	for _, f := range detectFaults {
		a := agg[f.kind]
		prec := "-"
		if p := predicted[f.kind]; p > 0 {
			prec = fmt.Sprintf("%.2f", float64(a.hits)/float64(p))
		}
		score.AddRow(string(f.kind), fmt.Sprint(a.cells), fmt.Sprint(a.hits),
			fmt.Sprint(a.missed), fmt.Sprint(a.misclass), prec,
			fmt.Sprintf("%.2f", float64(a.hits)/float64(max(a.cells, 1))),
			fmt.Sprint(a.fps), medianTTD(a.ttds))
	}
	res.Score = score
	res.Findings = append(res.Findings, fmt.Sprintf(
		"overall: recall %.2f over %d faulted cells, %d control false positive(s)",
		res.Recall, totalFaulted, res.ControlFPs))
	return res
}

// detectTrial runs one cell: build, monitor, load, inject, heal, score.
func detectTrial(seed uint64, spec detectSpec) DetectCell {
	const (
		faultAt  = 10 * sim.Second
		faultFor = 12 * sim.Second
		runEnd   = 30 * sim.Second
	)
	env := cluster.NewEnv(seed)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	out := DetectCell{Fault: string(spec.kind), Mag: spec.mag, TTDs: -1}
	if spec.kind != "" {
		out.Target = [2]string{"active", "standby"}[spec.target]
		out.Node = string(c.GroupIDs[0][spec.target])
	}
	if !c.AwaitStable(60 * sim.Second) {
		return out
	}
	out.Stable = true
	det := c.StartHealth()
	drv := workload.NewDriver(env, c.AsSystem(), 8, nil)
	drv.Setup(8)
	stop := drv.Continuous(workload.CreateMkdir(), 8)
	start := env.Now()

	injectAt := sim.Time(-1)
	var stopFlaps []func()
	if spec.kind != "" {
		srv := c.Groups[0][spec.target]
		env.World.At(start+faultAt, "detect-inject", func() {
			injectAt = env.Now()
			switch spec.kind {
			case health.Slow:
				srv.Node().SetSlowdown(float64(spec.mag))
			case health.Skew:
				srv.Node().SetClockSkew(float64(spec.mag) / 1000)
			case health.Flap:
				down := sim.Time(spec.mag) * 100 * sim.Millisecond
				for i, id := range c.GroupIDs[0] {
					if i == spec.target {
						continue
					}
					stopFlaps = append(stopFlaps,
						env.Net.Flap(c.GroupIDs[0][spec.target], id, sim.Second, down))
				}
			case health.Brownout:
				srv.Pool().SetBrownout(ssp.Brownout{SlowFactor: float64(spec.mag), FailEvery: 3})
			}
		})
		env.World.At(start+faultAt+faultFor, "detect-heal", func() {
			srv.Node().SetSlowdown(1)
			srv.Node().SetClockSkew(0)
			srv.Pool().SetBrownout(ssp.Brownout{})
			for _, f := range stopFlaps {
				f()
			}
			stopFlaps = nil
		})
	}
	env.RunFor(runEnd)
	stop()
	env.RunFor(2 * sim.Second)

	// Score: the earliest confirmed verdict per node, walked in member
	// order (never over a map) for determinism.
	earliest := map[string]health.Verdict{}
	for _, v := range det.Verdicts() {
		if _, ok := earliest[v.Node]; !ok {
			earliest[v.Node] = v
		}
	}
	for _, id := range c.GroupIDs[0] {
		n := string(id)
		v, ok := earliest[n]
		if !ok {
			continue
		}
		if n == out.Node && injectAt >= 0 && v.ConfirmedAt >= injectAt {
			out.Verdict = string(v.Kind)
			out.TTDs = (v.ConfirmedAt - injectAt).Seconds()
		} else {
			// A verdict on a healthy node — or on the target before the
			// fault even landed — is a false positive.
			out.FPs++
		}
	}
	if out.Node != "" {
		kind, _ := det.State(out.Node)
		out.Cleared = kind == ""
	}
	return out
}

// medianTTD renders the median of the hit cells' detection delays.
func medianTTD(ttds []float64) string {
	if len(ttds) == 0 {
		return "-"
	}
	s := append([]float64(nil), ttds...)
	sort.Float64s(s)
	mid := len(s) / 2
	v := s[mid]
	if len(s)%2 == 0 {
		v = (s[mid-1] + s[mid]) / 2
	}
	return fmt.Sprintf("%.1f", v)
}

// String renders the full detect report.
func (r DetectResult) String() string {
	var b strings.Builder
	b.WriteString(r.Detail.String())
	b.WriteByte('\n')
	b.WriteString(r.Score.String())
	b.WriteString("\nFindings:\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	return b.String()
}
