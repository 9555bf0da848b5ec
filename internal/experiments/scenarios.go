package experiments

import (
	"fmt"
	"strings"
	"sync"

	"mams/internal/check"
	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/metrics"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// TestKind identifies the three §IV.C fault scenarios.
type TestKind string

// The paper's three error-generation methods.
const (
	TestA TestKind = "A" // modifying the global view to make the active lose the lock
	TestB TestKind = "B" // taking out / plugging back network wires
	TestC TestKind = "C" // shutting down and restarting processes
)

// scenarioEvent schedules one fault action.
type scenarioEvent struct {
	at   sim.Time
	name string
	do   func(c *cluster.MAMSCluster)
}

// scenarioFor builds the fault schedule for one test, aligned with the
// paper's Figure 8 (operations disturbed around 60, 120 and 180 seconds).
func scenarioFor(kind TestKind) []scenarioEvent {
	switch kind {
	case TestA:
		ev := func(at sim.Time) scenarioEvent {
			return scenarioEvent{at: at, name: "break-lock", do: func(c *cluster.MAMSCluster) { c.BreakLock(0) }}
		}
		return []scenarioEvent{ev(60 * sim.Second), ev(120 * sim.Second), ev(180 * sim.Second)}
	case TestB:
		// plug sets two group-0 members' cables in or out.
		plug := func(in bool, a, b int) func(c *cluster.MAMSCluster) {
			return func(c *cluster.MAMSCluster) {
				for _, m := range []int{a, b} {
					if nd := c.Env.Net.Node(c.GroupIDs[0][m]); in {
						nd.Replug()
					} else {
						nd.Unplug()
					}
				}
			}
		}
		return []scenarioEvent{
			{60 * sim.Second, "unplug-m2-m3", plug(false, 2, 3)},
			{100 * sim.Second, "replug-m2-m3", plug(true, 2, 3)},
			{140 * sim.Second, "unplug-m0-m1", plug(false, 0, 1)},
			{180 * sim.Second, "replug-m0-m1", plug(true, 0, 1)},
		}
	default: // TestC
		return []scenarioEvent{
			{60 * sim.Second, "shutdown-m0", func(c *cluster.MAMSCluster) { c.Groups[0][0].Shutdown() }},
			{90 * sim.Second, "restart-m0", func(c *cluster.MAMSCluster) { c.Groups[0][0].Restart() }},
			{120 * sim.Second, "shutdown-m1-m2", func(c *cluster.MAMSCluster) {
				c.Groups[0][1].Shutdown()
				c.Groups[0][2].Shutdown()
			}},
			{160 * sim.Second, "restart-m1-m2", func(c *cluster.MAMSCluster) {
				c.Groups[0][1].Restart()
				c.Groups[0][2].Restart()
			}},
		}
	}
}

// ScenarioResult carries one fault scenario's outcomes.
type ScenarioResult struct {
	Kind TestKind
	// States is the deduplicated sequence of member role vectors
	// (Table II rows).
	States [][]string
	// Series is requests/sec in 1-second buckets over the run (Fig. 8).
	Series *metrics.Series
	// Events is the fault schedule actually applied.
	Events []string
	// Completed/Failed count client operations.
	Completed, Failed int
	// InvariantViolations holds any protocol-invariant breaches the
	// internal/check monitor observed during the run (empty on a clean run).
	InvariantViolations []check.Violation
}

// scenarioMemo caches scenario runs within a process: Table II and
// Figure 8 mine different aspects of the same three deterministic runs, so
// re-simulating them would only burn time. Keyed by (kind, seed, clients).
// The mutex covers concurrent cells from the parallel runner; two workers
// racing on the same key would compute the same deterministic value, so
// last-store-wins is exact.
var (
	scenarioMu   sync.Mutex
	scenarioMemo = map[string]ScenarioResult{}
)

// RunScenario executes one §IV.C test: 1A3S group, continuous create+mkdir
// load for 240 s with faults injected per the schedule. Results are
// memoized per (kind, options) — runs are deterministic, so the cache is
// exact.
func RunScenario(kind TestKind, opts Options) ScenarioResult {
	opts.Defaults()
	memoKey := fmt.Sprintf("%s/%d/%d", kind, opts.Seed, opts.Clients)
	scenarioMu.Lock()
	res, ok := scenarioMemo[memoKey]
	scenarioMu.Unlock()
	if ok {
		return res
	}
	res = runScenarioFresh(kind, opts)
	scenarioMu.Lock()
	scenarioMemo[memoKey] = res
	scenarioMu.Unlock()
	return res
}

// runScenarios fans the fault scenarios out across the worker pool; each
// cell owns a full 240 s simulated run.
func runScenarios(kinds []TestKind, opts Options) map[TestKind]ScenarioResult {
	results := make([]ScenarioResult, len(kinds))
	forEachCell(opts, len(kinds), func(i int) {
		results[i] = RunScenario(kinds[i], opts)
	})
	out := make(map[TestKind]ScenarioResult, len(kinds))
	for i, k := range kinds {
		out[k] = results[i]
	}
	return out
}

func runScenarioFresh(kind TestKind, opts Options) ScenarioResult {
	env := cluster.NewEnv(opts.Seed*100 + uint64(kind[0]))
	p := mams.DefaultParams()
	p.TraceAppends = true // feed the monitor's sn-monotone invariant
	env.Trace.DispatchOnly(trace.KindJournal)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3, Params: p})
	mon := check.Attach(env, c)
	c.AwaitStable(30 * sim.Second)

	res := ScenarioResult{Kind: kind, Series: metrics.NewSeries(0, sim.Second)}
	col := &metrics.Collector{}
	drv := workload.NewDriver(env, c.AsSystem(), 8, func(r fsclientResult) {
		col.Observe(r)
		if r.Err == nil {
			res.Series.Add(r.End)
		}
	})
	drv.Setup(8)

	start := env.Now()
	for _, ev := range scenarioFor(kind) {
		ev := ev
		env.World.At(start+ev.at, "scenario-"+ev.name, func() { ev.do(c) })
		res.Events = append(res.Events, fmt.Sprintf("%v %s", ev.at, ev.name))
	}
	concurrency := opts.Clients / 12
	if concurrency < 4 {
		concurrency = 4
	}
	if concurrency > 16 {
		concurrency = 16
	}
	stop := drv.Continuous(workload.CreateMkdir(), concurrency)

	var lastVec string
	record := func() {
		roles := c.ObservedRoles(0)
		key := strings.Join(roles, " ")
		if key != lastVec {
			lastVec = key
			res.States = append(res.States, roles)
		}
	}
	record()
	for env.Now() < start+240*sim.Second {
		env.RunFor(100 * sim.Millisecond)
		record()
		mon.Sample()
	}
	stop()
	res.Completed = drv.Completed()
	res.Failed = drv.Failed()
	res.InvariantViolations = mon.Violations()
	return res
}

// TableIIResult aggregates the three scenarios' state-transition sequences.
type TableIIResult struct {
	Table     *Table
	Scenarios map[TestKind]ScenarioResult
}

// TableII reproduces "Test scenarios and server state transition".
func TableII(opts Options) TableIIResult {
	opts.Defaults()
	res := TableIIResult{Scenarios: map[TestKind]ScenarioResult{}}
	t := &Table{
		ID:    "Table II",
		Title: "Server state transitions under the three §IV.C fault scenarios (1A3S)",
		Note: "A=active S=standby J=junior -=fault. Paper shape: lock loss re-elects and the old\n" +
			"active re-registers as standby; unplugged nodes degrade to junior in the view and\n" +
			"renew after replug; restarted processes rejoin as juniors and renew to standby.",
		Header: []string{"state", "Test A (lose lock)", "Test B (unplug wires)", "Test C (restart procs)"},
	}
	res.Scenarios = runScenarios([]TestKind{TestA, TestB, TestC}, opts)
	maxRows := 0
	for _, sc := range res.Scenarios {
		if len(sc.States) > maxRows {
			maxRows = len(sc.States)
		}
	}
	cell := func(k TestKind, i int) string {
		sc := res.Scenarios[k]
		if i >= len(sc.States) {
			return ""
		}
		return strings.Join(sc.States[i], " ")
	}
	for i := 0; i < maxRows && i < 16; i++ {
		t.AddRow(fmt.Sprint(i+1), cell(TestA, i), cell(TestB, i), cell(TestC, i))
	}
	res.Table = t
	return res
}

// Figure8Result carries the three requests/sec time series.
type Figure8Result struct {
	Table     *Table
	Scenarios map[TestKind]ScenarioResult
}

// Figure8 reproduces "Failover ability of metadata operations": average
// requests per second over a 240 s run with faults injected around 60 s,
// 120 s and 180 s for each test scenario.
func Figure8(opts Options) Figure8Result {
	opts.Defaults()
	res := Figure8Result{Scenarios: map[TestKind]ScenarioResult{}}
	t := &Table{
		ID:    "Figure 8",
		Title: "Requests/sec over time under fault injection (5 s buckets shown)",
		Note: "Paper shape: throughput collapses to ~0 for the ~6 s failover window after each\n" +
			"fault, briefly overshoots on client retries, then returns to the pre-fault level.",
		Header: []string{"t (s)", "Test A", "Test B", "Test C"},
	}
	res.Scenarios = runScenarios([]TestKind{TestA, TestB, TestC}, opts)
	// Render 5-second aggregates for compactness.
	for t5 := 0; t5 < 48; t5++ {
		row := []string{fmt.Sprint(t5 * 5)}
		for _, k := range []TestKind{TestA, TestB, TestC} {
			s := res.Scenarios[k].Series
			sum := 0.0
			for i := 0; i < 5; i++ {
				sum += s.Rate(t5*5 + i)
			}
			row = append(row, f1(sum/5))
		}
		t.AddRow(row...)
	}
	res.Table = t
	return res
}
