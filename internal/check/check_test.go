package check

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mams/internal/sim"
)

func TestEnumerateCounts(t *testing.T) {
	// Universe: 6 steps × (crash×4 + unplug×4 + drop×1) = 54 actions.
	sc := Scope{Members: 4, Steps: 6, MaxFaults: 2}
	if got := len(sc.Universe()); got != 54 {
		t.Fatalf("universe size = %d, want 54", got)
	}
	// Pairs: C(54,2)=1431 minus 135 sharing a (kind,target) → 1296;
	// plus 54 singles plus the empty schedule = 1351.
	if got := len(Enumerate(sc)); got != 1351 {
		t.Fatalf("≤2-fault schedules = %d, want 1351", got)
	}
	sc.MaxFaults = 1
	if got := len(Enumerate(sc)); got != 55 {
		t.Fatalf("≤1-fault schedules = %d, want 55", got)
	}
	sc.MaxFaults = 0
	if got := len(Enumerate(sc)); got != 1 {
		t.Fatalf("0-fault schedules = %d, want 1", got)
	}
}

func TestScheduleEncodeRoundTrip(t *testing.T) {
	cases := []struct {
		in   Schedule
		want string
	}{
		{Schedule{}, "-"},
		{Schedule{{Step: 2, Kind: Crash, Target: 0}}, "c0@2"},
		// Canonicalization: sorted by step, drop target zeroed.
		{Schedule{
			{Step: 5, Kind: Drop, Target: 3},
			{Step: 2, Kind: Crash, Target: 0},
			{Step: 4, Kind: Unplug, Target: 1},
		}, "c0@2,u1@4,d@5"},
	}
	for _, c := range cases {
		enc := c.in.Encode()
		if enc != c.want {
			t.Fatalf("Encode(%v) = %q, want %q", c.in, enc, c.want)
		}
		back, err := DecodeSchedule(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		if back.Encode() != c.want {
			t.Fatalf("round trip %q → %q", c.want, back.Encode())
		}
	}
	for _, bad := range []string{"x0@1", "c@1", "c0@", "c0", "c-1@2", "c0@-2"} {
		if _, err := DecodeSchedule(bad); err == nil {
			t.Fatalf("Decode(%q) accepted", bad)
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	sched, err := DecodeSchedule("c0@1,d@3")
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact{
		Seed: 42, Backups: 3, Steps: 4, StepEvery: 2 * sim.Second,
		Load: 2, Schedule: sched, Bug: "dup-sn", SyncSSP: true,
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != a.Seed || back.Backups != a.Backups || back.Steps != a.Steps ||
		back.StepEvery != a.StepEvery || back.Load != a.Load || back.Bug != a.Bug ||
		back.SyncSSP != a.SyncSSP || back.Schedule.Encode() != a.Schedule.Encode() {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
	}
	if _, err := ReadArtifact(bytes.NewBufferString("not an artifact\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	// A fault aimed at a member the group does not have fails to load,
	// instead of being skipped at injection time; a drop has no target.
	for schedule, ok := range map[string]bool{"c3@1": false, "c1@1,d@2": true} {
		_, err := ReadArtifact(strings.NewReader(artifactHeader + "\nbackups=1\nschedule=" + schedule + "\n"))
		if (err == nil) != ok {
			t.Fatalf("schedule %s on a 2-member group: err %v", schedule, err)
		}
	}
}

// smallCfg keeps individual runs ~1 s wall so the systematic tests stay
// within ordinary `go test` budgets on one core.
func smallCfg(seed uint64) Config {
	return Config{Seed: seed, Backups: 3, Steps: 4, StepEvery: 2 * sim.Second, Load: 2}
}

func TestEmptyScheduleClean(t *testing.T) {
	r := RunSchedule(smallCfg(1), nil)
	if r.Failed() {
		t.Fatalf("fault-free run violated invariants:\n%v", r.Violations)
	}
	if !r.Healed {
		t.Fatal("fault-free run did not report healed")
	}
	if r.Ops == 0 {
		t.Fatal("workload acked no operations")
	}
}

func TestCrashActiveClean(t *testing.T) {
	sched, _ := DecodeSchedule("c0@1")
	r := RunSchedule(smallCfg(2), sched)
	if r.Failed() {
		t.Fatalf("crash-active schedule violated invariants:\n%v", r.Violations)
	}
	if !r.Healed {
		t.Fatal("cluster did not heal after active crash")
	}
}

// TestPlantedBugCaughtAndShrunk is the explorer's end-to-end acceptance
// check: with duplicate-sn suppression deliberately disabled (Bug
// "dup-sn"), crashing the active forces a failover whose step-4 tail
// re-flush re-applies batches the standbys already hold — the monitor must
// flag sn-monotone, and Shrink must reduce the trigger to a single action.
func TestPlantedBugCaughtAndShrunk(t *testing.T) {
	cfg := smallCfg(3)
	cfg.Bug = "dup-sn"
	sched, _ := DecodeSchedule("c0@1,u2@3")
	r := RunSchedule(cfg, sched)
	if !r.Failed() {
		t.Fatal("planted dup-sn regression not caught")
	}
	if r.FirstInvariant() != "sn-monotone" {
		t.Fatalf("first violation %q, want sn-monotone:\n%v", r.FirstInvariant(), r.Violations)
	}
	min, minR := Shrink(cfg, sched, nil)
	if !minR.Failed() || minR.FirstInvariant() != "sn-monotone" {
		t.Fatalf("shrunk schedule %s no longer reproduces", min.Encode())
	}
	if len(min) != 1 {
		t.Fatalf("shrunk to %d actions (%s), want 1", len(min), min.Encode())
	}
	// The same schedule with the bug knob off must be clean — the violation
	// is the planted regression, not the fault schedule.
	clean := cfg
	clean.Bug = ""
	if cr := RunSchedule(clean, min); cr.Failed() {
		t.Fatalf("minimal schedule fails even without the planted bug:\n%v", cr.Violations)
	}
}

// TestRegressionFixtureReplays pins the committed minimal reproducer: the
// artifact in testdata must still trip the monitor when replayed.
func TestRegressionFixtureReplays(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "dup-sn-minimal.artifact"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := ReadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	r := Replay(a)
	if !r.Failed() || r.FirstInvariant() != "sn-monotone" {
		t.Fatalf("fixture no longer reproduces: failed=%v first=%q",
			r.Failed(), r.FirstInvariant())
	}
}

// TestHealStallRegression replays the schedule with which the systematic
// explorer surfaced two real protocol bugs (a standby crash plus a loss
// burst fences every standby; the sole-owner commit backstop then wedged on
// ssp.Put's flat 120 s call timeout, and renewal's final sync promoted
// members without the active's uncommitted journal tail, so the group never
// healed). The schedule must now run clean and heal.
func TestHealStallRegression(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "heal-stall.artifact"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := ReadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	r := Replay(a)
	if r.Failed() {
		t.Fatalf("heal-stall schedule regressed:\n%v", r.Violations)
	}
	if !r.Healed {
		t.Fatal("heal-stall schedule did not heal")
	}
}

func TestExploreSingleFaultScope(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration sweep in -short mode")
	}
	// Crash-only single-fault scope over a 3-member group: 7 runs.
	rep := Explore(smallCfg(4), Scope{
		Members: 3, Steps: 2, MaxFaults: 1, Kinds: []FaultKind{Crash},
	}, 2, nil)
	if rep.Explored != 7 {
		t.Fatalf("explored %d schedules, want 7", rep.Explored)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("systematic sweep found violations: %s", rep.Summary())
	}
}
