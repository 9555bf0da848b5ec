package experiments

import (
	"fmt"
	"strings"

	"mams/internal/check"
	"mams/internal/cluster"
	"mams/internal/metrics"
	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// GrayResult carries the gray-failure study: invariant-audited MAMS runs
// under the full gray alphabet, and a cross-system degradation comparison
// ("who degraded and when") under the gray faults every design can suffer.
type GrayResult struct {
	Audit   *Table // MAMS schedules through the invariant monitor
	Degrade *Table // per-system throughput under slowdown / skew / flap
	// Timelines holds, per audited schedule, the notable protocol events
	// (injections, elections, fences, catch-up stalls) in virtual-time order.
	Timelines map[string][]string
	// Findings are the one-line degradation verdicts for the comparison runs.
	Findings []string
	// Checked retains the raw audited results (gates CI: MAMS must stay
	// violation-free under every schedule here).
	Checked  []check.Result
	mamsLost bool // a MAMS comparison trial lost acked ops
}

// Failed reports whether any audited MAMS run violated an invariant, or
// the MAMS comparison trials lost acked operations.
func (r GrayResult) Failed() bool {
	for _, c := range r.Checked {
		if c.Failed() {
			return true
		}
	}
	return r.mamsLost
}

// graySchedules are the representative single- and two-fault gray schedules
// the audit runs: one per alphabet letter against the boot active, plus the
// two schedules that exposed the pre-fix failover wedge and durable-loss
// bugs (kept here so the experiment re-proves the fixes on every run).
var graySchedules = []string{
	"s0x6@1",        // active runs 6x slow (degraded disk / GC storms)
	"k0x500@1",      // active clock drifts +500ms/s
	"f0x6@2",        // active's links flap (1s up, 600ms down)
	"b0x8@1",        // active's pool node browns out (8x slow, 1-in-3 fail)
	"s0x6@1,d@2",    // slow active, then a global 2s message blackout
	"d@1,s0x6@1",    // blackout first, slowdown lands mid-recovery
	"s1x6@1,f2x4@2", // gray faults on two different standbys at once
}

// grayNotable selects the trace events worth a timeline line: injections,
// elections, failover milestones, and the specific state transitions gray
// faults provoke (fences, demotions, catch-up stalls).
func grayNotable(e trace.Event) bool {
	switch e.Kind {
	case trace.KindCheck:
		return strings.HasPrefix(e.What, "inject-")
	case trace.KindElection:
		return e.What == "election-start" || e.What == "election-won"
	case trace.KindFailover:
		switch e.What {
		case "active-lost-lock", "upgrade-start", "switch-done", "catchup-gap":
			return true
		}
		return false
	case trace.KindState:
		switch e.What {
		case "become-active", "self-fence", "fence-held", "demote-member",
			"stale-demote-ignored", "session-expired":
			return true
		}
		return false
	}
	return false
}

const grayTimelineCap = 16

// Gray runs the gray-failure experiment: `mamsbench -exp gray`.
//
// Part one audits MAMS under the gray fault alphabet {slow, flap, skew,
// brownout} via the systematic checker — the same invariant monitor the
// exhaustive sweep uses — and mines each run's trace for "who degraded and
// when". Part two subjects MAMS and the four baseline designs to identical
// gray faults on their serving node and reports throughput before, during
// and after, because gray failures (unlike crashes) are where fail-stop
// failure detectors mis-judge: a slow active holds its lock and its lease,
// so the paper's self-fence budget — not the coordination timeout — bounds
// the degraded window.
func Gray(opts Options) GrayResult {
	opts.Defaults()
	res := GrayResult{Timelines: map[string][]string{}}

	// ---- Part 1: audited MAMS gray schedules ----
	audit := &Table{
		ID:    "Gray A",
		Title: "MAMS under gray-fault schedules (invariant-audited)",
		Note: "Schedules in the checker's alphabet: s=slowdown f=link-flap k=clock-skew\n" +
			"b=pool-brownout c=crash u=unplug d=drop, targetxmagnitude@step. Every run\n" +
			"replays deterministically via `mamscheck replay`. \"healed\" = back to one\n" +
			"active + all-hot standbys within the heal budget; any violation fails CI.",
		Header: []string{"schedule", "healed", "acked ops", "violations"},
	}
	res.Checked = make([]check.Result, len(graySchedules))
	timelines := make([][]string, len(graySchedules))
	forEachCell(opts, len(graySchedules), func(i int) {
		sched, err := check.DecodeSchedule(graySchedules[i])
		if err != nil {
			panic(fmt.Sprintf("gray schedule %q: %v", graySchedules[i], err))
		}
		cfg := check.Config{
			Seed: opts.Seed*100 + uint64(i),
			OnEnv: func(env *cluster.Env) {
				env.Trace.Subscribe(func(e trace.Event) {
					if !grayNotable(e) || len(timelines[i]) > grayTimelineCap {
						return
					}
					if len(timelines[i]) == grayTimelineCap {
						timelines[i] = append(timelines[i], "...")
						return
					}
					timelines[i] = append(timelines[i], fmt.Sprintf(
						"%8.3fs  %-9s %-14s %s", e.At.Seconds(), e.Kind, e.Node, e.What))
				})
			},
		}
		res.Checked[i] = check.RunSchedule(cfg, sched)
	})
	for i, r := range res.Checked {
		viol := "none"
		if r.Failed() {
			viol = fmt.Sprintf("%d (first: %s)", len(r.Violations), r.FirstInvariant())
		}
		audit.AddRow(graySchedules[i], fmt.Sprint(r.Healed), fmt.Sprint(r.Ops), viol)
		res.Timelines[graySchedules[i]] = timelines[i]
	}
	res.Audit = audit

	// ---- Part 2: cross-system degradation comparison ----
	degrade := &Table{
		ID:    "Gray B",
		Title: "Throughput under gray faults on the serving node (ops/s)",
		Note: "Fault applied at t=5s for 20s, then healed; run ends at t=40s. \"during\" is\n" +
			"the worst 1s bucket inside the fault window; \"recover\" is seconds after heal\n" +
			"until throughput regains 70% of the pre-fault rate (0 = never degraded below\n" +
			"that line; - = not regained before the run ended). \"durable\" re-stats a\n" +
			"sample of acked creations after heal — the cross-system form of the checker's\n" +
			"durable invariant (losses on MAMS fail the run; on baselines they are findings).",
		Header: []string{"system", "fault", "pre", "during(min)", "post", "recover(s)", "durable"},
	}
	systems := []systemBuilder{
		{"HDFS", func(env *cluster.Env) cluster.System {
			return cluster.BuildHDFS(env, cluster.BaselineSpec{})
		}},
		{"BackupNode", func(env *cluster.Env) cluster.System {
			return cluster.BuildBackupNode(env, cluster.BaselineSpec{})
		}},
		{"Hadoop Avatar", func(env *cluster.Env) cluster.System {
			return cluster.BuildAvatar(env, cluster.BaselineSpec{})
		}},
		{"Hadoop HA", func(env *cluster.Env) cluster.System {
			return cluster.BuildHadoopHA(env, cluster.BaselineSpec{})
		}},
		{"MAMS-1A3S", func(env *cluster.Env) cluster.System {
			return cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3}).AsSystem()
		}},
	}
	// Each fault is a checker action on the serving node (member 0); the
	// trial injects it at a fixed time, so its step is unused.
	faults := []struct{ label, action string }{
		{"slow x6", "s0x6@0"}, {"skew +500ms/s", "k0x500@0"}, {"flap 1s/600ms", "f0x6@0"},
	}
	cells := make([]grayCell, len(systems)*len(faults))
	forEachCell(opts, len(cells), func(i int) {
		sys := systems[i/len(faults)]
		f := faults[i%len(faults)]
		sched, err := check.DecodeSchedule(f.action)
		if err != nil {
			panic(fmt.Sprintf("gray fault %q: %v", f.action, err))
		}
		cells[i] = grayTrial(opts.Seed*1000+uint64(i)+1, sys, f.label, sched[0])
	})
	for _, c := range cells {
		degrade.AddRow(c.row...)
		if c.finding != "" {
			res.Findings = append(res.Findings, c.finding)
		}
		if c.lost > 0 && strings.HasPrefix(c.row[0], "MAMS") {
			res.mamsLost = true
		}
	}
	res.Degrade = degrade
	return res
}

// grayCell is one system x fault comparison outcome.
type grayCell struct {
	row     []string
	finding string
	lost    int // acked creations missing at the post-heal durability audit
}

// grayTrial builds one system fresh, applies one gray fault to the serving
// node at t=5s for 20s, heals, and mines the throughput series for the
// degradation verdict.
func grayTrial(seed uint64, b systemBuilder, fault string, a check.Action) (c grayCell) {
	const (
		faultAt  = 5 * sim.Second
		faultFor = 20 * sim.Second
		runEnd   = 40 * sim.Second
	)
	env := cluster.NewEnv(seed)
	sys := b.build(env)
	c.row = []string{b.name, fault, "-", "-", "-", "-", "-"}
	if !sys.AwaitReady(60 * sim.Second) {
		return c
	}
	series := metrics.NewSeries(0, sim.Second)
	var acked []string
	drv := workload.NewDriver(env, sys, 8, func(r fsclientResult) {
		if r.Err == nil {
			series.Add(r.End)
			acked = append(acked, r.Path)
		}
	})
	drv.Setup(8)
	start := env.Now()
	stop := drv.Continuous(workload.CreateMkdir(), 8)

	group := sys.GroupIDs()[0]
	var heal func()
	env.World.At(start+faultAt, "gray-inject", func() {
		heal = check.Inject(env, group, nil, a) // no brownout here: no pool needed
	})
	env.World.At(start+faultAt+faultFor, "gray-heal", func() { heal() })
	if a.Kind == check.Flap && len(group) < 2 {
		c.row[3], c.row[4] = "n/a", "n/a"
		c.finding = fmt.Sprintf("%s under %s: n/a (single metadata node, no peer links to flap)",
			b.name, fault)
		stop()
		return c
	}
	env.RunFor(runEnd)
	stop()
	env.RunFor(2 * sim.Second)

	// Post-heal durability audit: re-stat a bounded sample of the acked
	// creations (the checker's durable invariant, portable to any System).
	sampled, lost := grayAuditDurable(env, sys, acked)

	// Pre-fault baseline skips the first ramp-up second.
	pre := avgRate(series, start+sim.Second, start+faultAt)
	during := series.MinRateIn(start+faultAt, start+faultAt+faultFor)
	post := avgRate(series, start+faultAt+faultFor+5*sim.Second, start+runEnd)
	healT := start + faultAt + faultFor
	recov := "-"
	degraded := during < 0.7*pre
	if !degraded {
		recov = "0"
	} else {
		for t := healT; t < start+runEnd; t += sim.Second {
			if series.MinRateIn(t, t+sim.Second) >= 0.7*pre {
				recov = fmt.Sprintf("%.0f", (t - healT).Seconds())
				break
			}
		}
	}
	c.lost = lost
	durable := "ok"
	if lost > 0 {
		durable = fmt.Sprintf("%d/%d lost", lost, sampled)
	}
	c.row = []string{b.name, fault, f1(pre), f1(during), f1(post), recov, durable}
	if degraded {
		verdict := fmt.Sprintf("degraded %.0f%% at t=%.0fs", 100*(1-during/max1(pre)), faultAt.Seconds())
		if recov == "-" {
			verdict += ", not recovered by run end"
		} else {
			verdict += fmt.Sprintf(", recovered %ss after heal", recov)
		}
		c.finding = fmt.Sprintf("%s under %s: %s (%.0f -> %.0f -> %.0f ops/s)",
			b.name, fault, verdict, pre, during, post)
	} else {
		c.finding = fmt.Sprintf("%s under %s: rode through (worst bucket %.0f vs %.0f ops/s pre-fault)",
			b.name, fault, during, pre)
	}
	if lost > 0 {
		c.finding += fmt.Sprintf("; DURABILITY: %d of %d sampled acked creations missing after heal",
			lost, sampled)
	}
	return c
}

// grayAuditDurable re-stats a bounded, evenly-strided sample of the acked
// creation paths against the healed system and reports how many are gone.
func grayAuditDurable(env *cluster.Env, sys cluster.System, acked []string) (sampled, lost int) {
	const maxStats = 256
	stride := 1
	if len(acked) > maxStats {
		stride = len(acked) / maxStats
	}
	cli := sys.NewClient(nil)
	unanswered := 0
	for i := 0; i < len(acked); i += stride {
		sampled++
		unanswered++
		cli.Stat(acked[i], func(_ *namespace.Info, err error) {
			unanswered--
			if err != nil {
				lost++
			}
		})
	}
	env.RunFor(15 * sim.Second)
	lost += unanswered // a stat the healed system never answered is a loss too
	return sampled, lost
}

// avgRate averages the 1s-bucket rates over [from, to).
func avgRate(s *metrics.Series, from, to sim.Time) float64 {
	n, sum := 0, 0.0
	for t := from; t < to; t += sim.Second {
		sum += s.MinRateIn(t, t+sim.Second)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// String renders the full gray report.
func (r GrayResult) String() string {
	var b strings.Builder
	b.WriteString(r.Audit.String())
	b.WriteString("\nWho degraded, and when:\n")
	for _, s := range graySchedules {
		tl := r.Timelines[s]
		if len(tl) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", s)
		for _, line := range tl {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	b.WriteByte('\n')
	b.WriteString(r.Degrade.String())
	b.WriteString("\nFindings:\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	return b.String()
}
