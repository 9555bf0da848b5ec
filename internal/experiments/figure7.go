package experiments

import (
	"fmt"

	"mams/internal/cluster"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
)

// Figure7Trial breaks one MAMS failover into its stages.
type Figure7Trial struct {
	Total        sim.Time // failover time exclusive of the session timeout
	Election     sim.Time
	Switching    sim.Time
	Reconnection sim.Time
	Detection    sim.Time // the excluded session-timeout portion
}

// Figure7Result carries the per-trial stage breakdown plus the aggregated
// observability data: the registries of every successful trial merged in
// trial order, and the span tree of the first successful trial (one full
// causal failover trace, exportable as a Chrome trace via obs).
type Figure7Result struct {
	Table    *Table
	Trials   []Figure7Trial
	Registry *obs.Registry
	Spans    []obs.Span
}

// Figure7 reproduces "The proportion of failover time at each stage in
// MAMS": active election, active-standby switching and client reconnection,
// excluding the (default 5 s) session timeout. Stage boundaries are the
// election and failover events of the run's trace log; the same log's span
// edges give the first trial's span tree for the Chrome trace.
func Figure7(opts Options) Figure7Result {
	opts.Defaults()
	res := Figure7Result{}
	t := &Table{
		ID:    "Figure 7",
		Title: "MAMS failover-time breakdown per stage (session timeout excluded)",
		Note: "Paper shape: election < 100 ms (event trigger + Paxos consensus); switching\n" +
			"stable at 250-350 ms; the remainder — and its growth — is client reconnection.",
		Header: []string{"trial", "excl-timeout (ms)", "election (ms)", "switching (ms)", "reconnect (ms)",
			"election %", "switching %", "reconnect %"},
	}

	sb := systemBuilder{"MAMS-1A3S", func(env *cluster.Env) cluster.System {
		return cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3}).AsSystem()
	}}
	// One cell per trial; stage mining happens inside the cell so workers
	// retire the trace and collector before handing back a compact result.
	base := opts.Seed*10000 + 700
	trials := make([]Figure7Trial, opts.Trials)
	ok := make([]bool, opts.Trials)
	regs := make([]*obs.Registry, opts.Trials)
	spans := make([][]obs.Span, opts.Trials)
	forEachCell(opts, opts.Trials, func(trial int) {
		mttr, env, faultAt, col := mttrTrial(base+uint64(trial)+1, sb, 30*sim.Second, opts)
		if mttr == 0 || col == nil {
			return
		}
		tr := stagesFromTrace(env.Trace, faultAt)
		// First client success after the switch completes.
		if tr.switchDone > 0 {
			for _, r := range col.Results {
				if r.Err == nil && r.End >= tr.switchDone {
					if tr.firstSuccess == 0 || r.End < tr.firstSuccess {
						tr.firstSuccess = r.End
					}
				}
			}
		}
		if tr.electionStart == 0 || tr.electionWon == 0 || tr.switchDone == 0 || tr.firstSuccess == 0 {
			return
		}
		ft := Figure7Trial{
			Detection:    tr.electionStart - faultAt,
			Election:     tr.electionWon - tr.electionStart,
			Switching:    tr.switchDone - tr.electionWon,
			Reconnection: tr.firstSuccess - tr.switchDone,
		}
		ft.Total = ft.Election + ft.Switching + ft.Reconnection
		trials[trial], ok[trial] = ft, true
		regs[trial], spans[trial] = env.Obs, env.Trace.Spans()
	})
	for trial := 0; trial < opts.Trials; trial++ {
		if !ok[trial] {
			continue
		}
		// Aggregate observability in trial order (not completion order) so
		// the merged registry is deterministic at any parallelism.
		if res.Registry == nil {
			res.Registry = obs.NewRegistry()
		}
		if err := res.Registry.Merge(regs[trial]); err != nil {
			panic(fmt.Sprintf("figure7: registry merge: %v", err))
		}
		if res.Spans == nil {
			res.Spans = spans[trial]
		}
		ft := trials[trial]
		res.Trials = append(res.Trials, ft)
		tot := ft.Total.Milliseconds()
		t.AddRow(fmt.Sprint(trial+1),
			fmt.Sprintf("%.0f", tot),
			fmt.Sprintf("%.0f", ft.Election.Milliseconds()),
			fmt.Sprintf("%.0f", ft.Switching.Milliseconds()),
			fmt.Sprintf("%.0f", ft.Reconnection.Milliseconds()),
			pct(ft.Election.Milliseconds(), tot),
			pct(ft.Switching.Milliseconds(), tot),
			pct(ft.Reconnection.Milliseconds(), tot))
	}
	res.Table = t
	return res
}

func pct(part, total float64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*part/total)
}

type failoverStamps struct {
	electionStart sim.Time
	electionWon   sim.Time
	switchDone    sim.Time
	firstSuccess  sim.Time
}

// stagesFromTrace reads the failover stage boundaries from the trace: the
// first election started after the fault, the first won, and the first
// switch completed.
func stagesFromTrace(tr *trace.Log, faultAt sim.Time) failoverStamps {
	var out failoverStamps
	for _, e := range tr.Events() {
		if e.At < faultAt {
			continue
		}
		switch {
		case e.Kind == trace.KindElection && e.What == "election-start" && out.electionStart == 0:
			out.electionStart = e.At
		case e.Kind == trace.KindElection && e.What == "election-won" && out.electionWon == 0:
			out.electionWon = e.At
		case e.Kind == trace.KindFailover && e.What == "switch-done" && out.switchDone == 0:
			out.switchDone = e.At
		}
	}
	return out
}
