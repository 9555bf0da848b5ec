package experiments

import (
	"testing"

	"mams/internal/mams"
	"mams/internal/sim"
)

// quick returns fast options for CI-grade runs.
func quick() Options {
	return Options{Seed: 7, Ops: 4000, Trials: 1, Clients: 96, DataServers: 4}
}

func TestFigure5Shape(t *testing.T) {
	res := Figure5(quick())
	t.Log("\n" + res.Table.String())
	hdfs := func(op mams.OpKind) float64 { return res.Tput[op]["HDFS"] }
	cfs := func(op mams.OpKind, cfg string) float64 { return res.Tput[op][cfg] }

	for _, op := range []mams.OpKind{mams.OpCreate, mams.OpStat, mams.OpMkdir, mams.OpDelete, mams.OpRename} {
		for _, sys := range res.Systems {
			if res.Tput[op][sys] <= 0 {
				t.Fatalf("%v on %s produced no throughput", op, sys)
			}
		}
	}
	// Create and getfileinfo scale with the three actives.
	if cfs(mams.OpCreate, "MAMS-3A3S") <= hdfs(mams.OpCreate) {
		t.Errorf("create: CFS (%.0f) should beat HDFS (%.0f)",
			cfs(mams.OpCreate, "MAMS-3A3S"), hdfs(mams.OpCreate))
	}
	if cfs(mams.OpStat, "MAMS-3A3S") <= hdfs(mams.OpStat) {
		t.Errorf("getfileinfo: CFS (%.0f) should beat HDFS (%.0f)",
			cfs(mams.OpStat, "MAMS-3A3S"), hdfs(mams.OpStat))
	}
	// Rename is a distributed transaction: CFS below HDFS.
	if cfs(mams.OpRename, "MAMS-3A3S") >= hdfs(mams.OpRename) {
		t.Errorf("rename: CFS (%.0f) should trail HDFS (%.0f)",
			cfs(mams.OpRename, "MAMS-3A3S"), hdfs(mams.OpRename))
	}
	// Adding standbys costs a few percent on writes; getfileinfo is immune.
	r1 := cfs(mams.OpRename, "MAMS-3A3S")
	r4 := cfs(mams.OpRename, "MAMS-3A12S")
	if r4 >= r1 {
		t.Errorf("rename with 4 standbys (%.0f) should trail 1 standby (%.0f)", r4, r1)
	}
	if drop := (r1 - r4) / r1; drop > 0.35 {
		t.Errorf("per-standby overhead too big: %.1f%% over 3 added standbys", 100*drop)
	}
	s1 := cfs(mams.OpStat, "MAMS-3A3S")
	s4 := cfs(mams.OpStat, "MAMS-3A12S")
	if s4 < 0.9*s1 {
		t.Errorf("getfileinfo should be standby-insensitive: %.0f vs %.0f", s4, s1)
	}
}

func TestFigure6Shape(t *testing.T) {
	res := Figure6(quick())
	t.Log("\n" + res.Table.String())
	get := func(name string) float64 { return res.Tput[name] }
	for name, v := range res.Tput {
		if v <= 0 {
			t.Fatalf("%s produced no throughput", name)
		}
	}
	// Paper ordering: HDFS >= BackupNode > CFS > {Avatar, HA}.
	if get("HDFS") < get("BackupNode") {
		t.Errorf("HDFS (%.0f) should be >= BackupNode (%.0f)", get("HDFS"), get("BackupNode"))
	}
	cfs := get("CFS (MAMS-1A3S)")
	if cfs >= get("HDFS") {
		t.Errorf("CFS (%.0f) should trail HDFS (%.0f)", cfs, get("HDFS"))
	}
	if cfs <= get("Hadoop Avatar") {
		t.Errorf("CFS (%.0f) should beat Avatar (%.0f)", cfs, get("Hadoop Avatar"))
	}
	if cfs <= get("Hadoop HA") {
		t.Errorf("CFS (%.0f) should beat Hadoop HA (%.0f)", cfs, get("Hadoop HA"))
	}
}

func TestTableIShape(t *testing.T) {
	opts := quick()
	res := TableI(opts, []int64{16, 256})
	t.Log("\n" + res.Table.String())
	small, big := res.MTTR[16], res.MTTR[256]
	for _, sys := range res.Cols {
		if small[sys] <= 0 || big[sys] <= 0 {
			t.Fatalf("%s missing MTTR", sys)
		}
	}
	// MAMS flat in the paper's band.
	for _, size := range []int64{16, 256} {
		v := res.MTTR[size]["MAMS-1A3S"]
		if v < 4 || v > 9 {
			t.Errorf("MAMS MTTR at %dMB = %.2fs, want ~5.4-6.8s", size, v)
		}
	}
	// BackupNode grows with size; others flat-ish.
	if big["BackupNode"] < 3*small["BackupNode"] {
		t.Errorf("BackupNode MTTR should grow with size: %.2f -> %.2f", small["BackupNode"], big["BackupNode"])
	}
	for _, sys := range []string{"Hadoop Avatar", "Hadoop HA"} {
		ratio := big[sys] / small[sys]
		if ratio > 1.6 || ratio < 0.6 {
			t.Errorf("%s should be size-insensitive: %.2f -> %.2f", sys, small[sys], big[sys])
		}
	}
	// Ordering at 256MB: MAMS < HA < Avatar < BackupNode.
	if !(big["MAMS-1A3S"] < big["Hadoop HA"] && big["Hadoop HA"] < big["Hadoop Avatar"] &&
		big["Hadoop Avatar"] < big["BackupNode"]) {
		t.Errorf("256MB ordering violated: %v", big)
	}
}

func TestFigure7Shape(t *testing.T) {
	opts := quick()
	opts.Trials = 3
	res := Figure7(opts)
	t.Log("\n" + res.Table.String())
	if len(res.Trials) == 0 {
		t.Fatal("no failover trials captured")
	}
	for i, tr := range res.Trials {
		// Election under 100 ms (the paper's headline).
		if tr.Election.Milliseconds() > 100 {
			t.Errorf("trial %d: election took %.0f ms, want < 100", i, tr.Election.Milliseconds())
		}
		// Switching in the 150-500 ms band (paper: 250-350 ms).
		if tr.Switching.Milliseconds() < 100 || tr.Switching.Milliseconds() > 600 {
			t.Errorf("trial %d: switching took %.0f ms", i, tr.Switching.Milliseconds())
		}
		// Detection (excluded) is dominated by the 5 s session timeout.
		if tr.Detection.Seconds() < 2.5 || tr.Detection.Seconds() > 6.5 {
			t.Errorf("trial %d: detection = %.2fs", i, tr.Detection.Seconds())
		}
		if tr.Reconnection < 0 {
			t.Errorf("trial %d: negative reconnection", i)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	res := TableII(quick())
	t.Log("\n" + res.Table.String())
	for _, k := range []TestKind{TestA, TestB, TestC} {
		sc := res.Scenarios[k]
		// The always-on protocol invariants (internal/check) must hold through
		// every fault scenario, not just the systematic explorer's scopes.
		for _, v := range sc.InvariantViolations {
			t.Errorf("test %s invariant violation: %v", k, v)
		}
		if len(sc.States) < 3 {
			t.Fatalf("test %s recorded only %d states", k, len(sc.States))
		}
		first := sc.States[0]
		if first[0] != "A" {
			t.Fatalf("test %s initial state = %v", k, first)
		}
		// Exactly one active in every recorded state.
		for _, st := range sc.States {
			actives := 0
			for _, r := range st {
				if r == "A" {
					actives++
				}
			}
			if actives > 1 {
				t.Fatalf("test %s state %v has %d actives", k, st, actives)
			}
		}
		// The final state must be fully healed: one active, rest standby.
		last := sc.States[len(sc.States)-1]
		actives, standbys := 0, 0
		for _, r := range last {
			switch r {
			case "A":
				actives++
			case "S":
				standbys++
			}
		}
		if actives != 1 || standbys != len(last)-1 {
			t.Errorf("test %s did not heal: final state %v", k, last)
		}
	}
	// Test A: the deposed active re-registers as a standby, so after the
	// first fault some state has the original member 0 as S with another A.
	found := false
	for _, st := range res.Scenarios[TestA].States {
		if st[0] == "S" {
			for _, r := range st[1:] {
				if r == "A" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("test A never showed the old active as standby: %v", res.Scenarios[TestA].States)
	}
}

func TestFigure8Shape(t *testing.T) {
	res := Figure8(quick())
	t.Log("\n" + res.Table.String())
	for _, k := range []TestKind{TestA, TestB, TestC} {
		sc := res.Scenarios[k]
		s := sc.Series
		// Healthy throughput before the first fault.
		pre := 0.0
		for i := 20; i < 55; i++ {
			pre += s.Rate(i)
		}
		pre /= 35
		if pre < 100 {
			t.Fatalf("test %s pre-fault throughput = %.0f ops/s", k, pre)
		}
		// A fault that takes out the active must crater throughput within
		// the failover window. Test B's 60 s fault only unplugs standbys
		// (the active keeps serving through a brief commit stall), so its
		// crater comes from the 140 s fault instead.
		craterFrom, craterTo := 60*sim.Second, 75*sim.Second
		if k == TestB {
			craterFrom, craterTo = 140*sim.Second, 155*sim.Second
			dip := s.MinRateIn(60*sim.Second, 70*sim.Second)
			if dip > pre*0.8 {
				t.Errorf("test B: no commit stall after standby unplug (min %.0f vs pre %.0f)", dip, pre)
			}
		}
		min := s.MinRateIn(craterFrom, craterTo)
		if min > pre/4 {
			t.Errorf("test %s: no visible outage in [%v,%v) (min %.0f vs pre %.0f)", k, craterFrom, craterTo, min, pre)
		}
		// ...and the last 30 s must be back near the pre-fault level.
		post := 0.0
		for i := 210; i < 240; i++ {
			post += s.Rate(i)
		}
		post /= 30
		if post < pre*0.6 {
			t.Errorf("test %s: throughput never recovered (%.0f vs %.0f)", k, post, pre)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	res := Figure9(quick())
	t.Log("\n" + res.Table.String())
	cfs, boom := "CFS (MAMS-3A9S)", "Boom-FS"
	if res.Failure[cfs] == 0 || res.Failure[boom] == 0 {
		t.Fatal("missing runtimes")
	}
	// Failure runs are slower than normal runs.
	if res.Failure[cfs] <= res.Normal[cfs] {
		t.Errorf("CFS failure run (%v) should exceed normal (%v)", res.Failure[cfs], res.Normal[cfs])
	}
	// CFS beats Boom-FS under failure (paper: 28.13% map, 9.76% reduce).
	if res.Failure[cfs] >= res.Failure[boom] {
		t.Errorf("CFS failure run (%v) should beat Boom-FS (%v)", res.Failure[cfs], res.Failure[boom])
	}
	if res.MapImprovementPct <= 0 {
		t.Errorf("map improvement = %.2f%%, want > 0", res.MapImprovementPct)
	}
}
