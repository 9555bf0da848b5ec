package mams_test

import (
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// registrationCap is failover.go's registrationWait: the registration
// window's cap.
const registrationCap = 120 * sim.Millisecond

// awaitNewActive runs the world until a server other than old is active.
func awaitNewActive(t *testing.T, env *cluster.Env, c *cluster.MAMSCluster, old *mams.Server) *mams.Server {
	t.Helper()
	deadline := env.Now() + 20*sim.Second
	for env.Now() < deadline {
		env.RunFor(10 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			return a
		}
	}
	t.Fatalf("no failover; roles=%v\n%s", c.RolesOf(0), lastTrace(env.Trace, 40))
	return nil
}

// registrationStage returns node's completed stage-registration span that
// started at or after from.
func registrationStage(t *testing.T, env *cluster.Env, node string, from sim.Time) obs.Span {
	t.Helper()
	for _, sp := range env.Spans.Spans() {
		if sp.Name == "stage-registration" && sp.Node == node && sp.Start >= from && sp.Done {
			return sp
		}
	}
	t.Fatalf("%s has no completed stage-registration span after %v", node, from)
	return obs.Span{}
}

// eventIndex is the position in the trace of the first event at or after
// from that match accepts, or -1.
func eventIndex(tr *trace.Log, from sim.Time, match func(trace.Event) bool) int {
	for i, e := range tr.Events() {
		if e.At >= from && match(e) {
			return i
		}
	}
	return -1
}

func TestRegistrationWindowEndsOnLastLiveMember(t *testing.T) {
	// 1A2S under load with group commit: the active crashes, and the
	// survivor's Register reaches the new active while it is still
	// upgrading. The window ends as soon as the survivor has registered at
	// the new active's position, well inside the cap, and the survivor is
	// classified before the buffered ops run (a drained op that seals a
	// batch would put it behind), so it stays a standby once post-failover
	// batches commit. The seeds cover a survivor that registered in step
	// with the new active, and one that registered a batch ahead of it
	// (the dead active's unconfirmed prepare) or behind it; the last two
	// count only once they ack the step-4 re-flush.
	for _, tc := range []struct {
		name string
		seed uint64
	}{{"in-step", 41}, {"registered-ahead", 42}, {"registered-behind", 44}} {
		t.Run(tc.name, func(t *testing.T) { survivorRegistersInWindow(t, tc.seed) })
	}
}

func survivorRegistersInWindow(t *testing.T, seed uint64) {
	p := mams.DefaultParams()
	p.GroupCommit = true
	env, c := build(t, seed, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2, Params: p})
	drv := workload.NewDriver(env, c.AsSystem(), 16, nil)
	drv.Setup(4)
	stop := drv.Continuous(workload.Mix{mams.OpCreate: 0.6, mams.OpStat: 0.3, mams.OpMkdir: 0.1}, 8)
	defer stop()
	env.RunFor(3 * sim.Second)

	old := c.ActiveOf(0)
	crashAt := env.Now()
	old.Shutdown()
	next := awaitNewActive(t, env, c, old)
	me := string(next.Node().ID())
	var survivor *mams.Server
	for _, s := range c.Groups[0] {
		if s != old && s != next {
			survivor = s
		}
	}
	peer := string(survivor.Node().ID())

	stage := registrationStage(t, env, me, crashAt)
	if got := stage.Arg("outcome"); got != "all-registered" {
		t.Errorf("stage-registration outcome %q, want all-registered", got)
	}
	if d := stage.Duration(); d >= registrationCap {
		t.Errorf("stage-registration took %v, want under the %v cap", d, registrationCap)
	}
	reg := eventIndex(env.Trace, crashAt, func(e trace.Event) bool {
		return e.Node == me && e.What == "register" && e.Args["member"] == peer
	})
	active := eventIndex(env.Trace, crashAt, func(e trace.Event) bool {
		return e.Node == me && e.What == "become-active"
	})
	if reg < 0 || active < 0 || reg > active {
		t.Fatalf("survivor's register at trace index %d, become-active at %d: want the register first\n%s",
			reg, active, lastTrace(env.Trace, 60))
	}
	if as := env.Trace.Events()[reg].Args["as"]; as != "standby" {
		t.Errorf("survivor registered as %s, want standby", as)
	}

	// Run until the new active has sealed a batch of its own, then let
	// the commit settle everywhere.
	activeSN := next.LastSN()
	for deadline := env.Now() + 10*sim.Second; next.LastSN() == activeSN && env.Now() < deadline; {
		env.RunFor(10 * sim.Millisecond)
	}
	if next.LastSN() == activeSN {
		t.Fatal("the new active never sealed a batch")
	}
	env.RunFor(500 * sim.Millisecond)
	if r := next.View().RoleOf(peer); r != mams.RoleStandby || survivor.Role() != mams.RoleStandby {
		t.Fatalf("after the first post-failover batch: survivor is %v in the view, %v locally; want standby\n%s",
			r, survivor.Role(), lastTrace(env.Trace, 60))
	}
}

func TestRegistrationWindowCapsOnUnpluggedStandby(t *testing.T) {
	// Test B at the crash: one standby is unplugged the instant the active
	// dies. The view still lists it as a standby, it never registers, and
	// the window ends at its cap.
	env, c := build(t, 42, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	old := c.ActiveOf(0)
	standbys := c.StandbysOf(0)
	crashAt := env.Now()
	env.World.Defer("crash-and-unplug", func() {
		old.Shutdown()
		env.Net.Node(standbys[0].Node().ID()).Unplug()
	})
	next := awaitNewActive(t, env, c, old)
	if next != standbys[1] {
		t.Fatalf("new active %s, want the plugged standby %s", next.Node().ID(), standbys[1].Node().ID())
	}
	stage := registrationStage(t, env, string(next.Node().ID()), crashAt)
	if got := stage.Arg("outcome"); got != "cap" {
		t.Errorf("stage-registration outcome %q, want cap", got)
	}
	if d := stage.Duration(); d != registrationCap {
		t.Errorf("stage-registration took %v, want exactly %v", d, registrationCap)
	}
}

func TestAbortedUpgradeHoldsNoRegistrations(t *testing.T) {
	// A junior whose upgrade aborts (step 1 finds a standby in the view)
	// must not carry the registrations it received into its next upgrade.
	// Stage it: restart one standby, and once the active has recorded it
	// as a junior (before it can renew), crash the active and unplug the
	// other standby, so no one takes the lock and the view still lists
	// that standby.
	env, c := build(t, 43, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/ab", done) }); err != nil {
		t.Fatal(err)
	}
	old := c.ActiveOf(0)
	standbys := c.StandbysOf(0)
	junior, standby := standbys[0], standbys[1]
	junior.Shutdown()
	env.RunFor(sim.Second)
	junior.Restart()
	for deadline := env.Now() + 10*sim.Second; old.View().RoleOf(string(junior.Node().ID())) != mams.RoleJunior; {
		if env.Now() > deadline {
			t.Fatalf("the active never recorded the restarted member as a junior\n%s", lastTrace(env.Trace, 30))
		}
		env.RunFor(sim.Millisecond)
	}
	env.World.Defer("crash-and-unplug", func() {
		old.Shutdown()
		env.Net.Node(standby.Node().ID()).Unplug()
	})
	env.RunFor(8 * sim.Second)
	if junior.Role() != mams.RoleJunior {
		t.Fatalf("restarted member is %v, want junior\n%s", junior.Role(), lastTrace(env.Trace, 60))
	}

	from := env.Now()
	env.World.Defer("junior-upgrade", func() {
		junior.UpgradeForTest()
		junior.HandleMessage(standby.Node().ID(), mams.Register{From: standby.Node().ID(), LastSN: standby.LastSN()})
		if n := junior.HeldRegistrationsForTest(); n != 1 {
			t.Errorf("upgrading junior holds %d registrations, want 1", n)
		}
	})
	env.RunFor(sim.Second)
	if eventIndex(env.Trace, from, func(e trace.Event) bool {
		return e.Node == string(junior.Node().ID()) && e.What == "upgrade-abort-junior"
	}) < 0 {
		t.Fatalf("the junior's upgrade did not abort\n%s", lastTrace(env.Trace, 30))
	}
	if n := junior.HeldRegistrationsForTest(); n != 0 {
		t.Fatalf("after the aborted upgrade the junior holds %d registrations, want 0", n)
	}
}
