package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/check"
	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/trace"
)

// TestRestartAtEveryPhaseBoundary crashes one member inside each phase that
// keeps state of its own (an election, the Fig. 4 registration window, a
// junior's image fetch and catch-up, a participant's prepared transaction),
// restarts it, and holds the group to the paper's rule for a restarted
// server: it comes back a junior, renews to a hot standby, and the group
// audits consistent with no invariant violation.
func TestRestartAtEveryPhaseBoundary(t *testing.T) {
	type row struct {
		name   string
		groups int
		// early names an event the victim must not emit before its crash:
		// it would mean the phase had already ended.
		early string
		// setup runs on the stable cluster and returns the event that marks
		// the crash point, checked on each trace event. kick starts the
		// phase (nil when setup already did).
		setup func(env *cluster.Env, c *cluster.MAMSCluster) (at func(trace.Event) bool, kick func())
		// poll, when set, finds the victim by looking at the servers instead
		// of the trace.
		poll func(c *cluster.MAMSCluster) *mams.Server
	}
	crashActive := func(c *cluster.MAMSCluster) func() { return func() { c.ActiveOf(0).Shutdown() } }
	rejoin := func(env *cluster.Env, c *cluster.MAMSCluster, image bool) func() {
		return func() {
			sb := c.StandbysOf(0)[0]
			sb.Shutdown()
			env.RunFor(sim.Second)
			writeFiles(t, env, c, "/late", 40)
			if image {
				env.World.Defer("checkpoint", func() { c.ActiveOf(0).Checkpoint(nil) })
				env.RunFor(sim.Second)
			}
			env.World.Defer("restart", sb.Restart)
		}
	}
	rows := []row{
		{name: "elector-before-lock", groups: 1, early: "election-won",
			setup: func(env *cluster.Env, c *cluster.MAMSCluster) (func(trace.Event) bool, func()) {
				return func(e trace.Event) bool { return e.What == "election-start" }, crashActive(c)
			}},
		{name: "registration-window", groups: 1, early: "become-active",
			setup: func(env *cluster.Env, c *cluster.MAMSCluster) (func(trace.Event) bool, func()) {
				return func(e trace.Event) bool { return e.What == "view-flipped" }, crashActive(c)
			}},
		{name: "junior-image-fetch", groups: 1, early: "image-loaded",
			setup: func(env *cluster.Env, c *cluster.MAMSCluster) (func(trace.Event) bool, func()) {
				return func(e trace.Event) bool { return e.What == "image-fetch" }, rejoin(env, c, true)
			}},
		{name: "junior-catch-up", groups: 1, early: "promoted-standby",
			setup: func(env *cluster.Env, c *cluster.MAMSCluster) (func(trace.Event) bool, func()) {
				return func(e trace.Event) bool { return e.What == "renewing" }, rejoin(env, c, false)
			}},
		{name: "prepared-transaction", groups: 2,
			setup: func(env *cluster.Env, c *cluster.MAMSCluster) (func(trace.Event) bool, func()) {
				cli := c.NewClient(nil)
				return nil, func() { env.World.Defer("mkdir", func() { cli.Mkdir("/spread", func(error) {}) }) }
			},
			poll: func(c *cluster.MAMSCluster) *mams.Server {
				for g := range c.Groups {
					if a := c.ActiveOf(g); a != nil && a.PreparedTxnsForTest() > 0 {
						return a
					}
				}
				return nil
			}},
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			env := cluster.NewEnv(uint64(300 + i))
			p := mams.DefaultParams()
			p.TraceAppends = true // the monitor's sn-monotone invariant
			env.Trace.DispatchOnly(trace.KindJournal)
			c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: r.groups, BackupsPerGroup: 2, Params: p})
			mon := check.Attach(env, c)
			if !c.AwaitStable(30 * sim.Second) {
				t.Fatal("cluster never stabilized")
			}
			writeFiles(t, env, c, "/early", 40)

			byID := map[string]*mams.Server{}
			for _, members := range c.Groups {
				for _, s := range members {
					byID[string(s.Node().ID())] = s
				}
			}
			var victim *mams.Server
			var crashedAt sim.Time
			at, kick := r.setup(env, c)
			env.Trace.Subscribe(func(e trace.Event) {
				if victim != nil && e.Node == string(victim.Node().ID()) && e.What == r.early && crashedAt == 0 {
					t.Errorf("%s emitted %s before its crash", e.Node, e.What)
				}
				if e.What == "crash" && victim != nil && e.Node == string(victim.Node().ID()) && crashedAt == 0 {
					crashedAt = e.At
				}
				if victim == nil && at != nil && at(e) {
					victim = byID[e.Node]
					// The crash lands right after the event, still inside
					// the phase it marks.
					env.World.Defer("crash-victim", victim.Shutdown)
				}
			})
			kick()
			for end := env.Now() + 30*sim.Second; victim == nil && env.Now() < end; {
				env.RunFor(sim.Millisecond)
				if r.poll != nil {
					if victim = r.poll(c); victim != nil {
						victim.Shutdown()
					}
				}
			}
			if victim == nil {
				t.Fatal("the crash point was never reached")
			}
			env.RunFor(2 * sim.Second)
			if victim.Node().Up() {
				t.Fatalf("%s was not crashed", victim.Node().ID())
			}
			c.HealAll()
			if victim.Role() != mams.RoleJunior {
				t.Fatalf("restarted %s is %v, want junior", victim.Node().ID(), victim.Role())
			}
			healed := false
			for end := env.Now() + 120*sim.Second; !healed && env.Now() < end; {
				env.RunFor(sim.Second)
				mon.Sample()
				healed = mon.HealedNow()
			}
			if !healed {
				t.Fatalf("never healed: roles %v", c.RolesOf(0))
			}
			t.Logf("%s crashed at %v, group healed by %v", victim.Node().ID(), crashedAt, env.Now())
			if victim.Role() != mams.RoleStandby {
				t.Fatalf("restarted %s is %v, want a renewed standby", victim.Node().ID(), victim.Role())
			}
			mon.CheckConverged()
			for _, rep := range c.Verify() {
				if !rep.Consistent {
					t.Errorf("%v", rep)
				}
			}
			for _, v := range mon.Violations() {
				t.Errorf("invariant violation: %v", v)
			}
		})
	}
}

// writeFiles commits n creates under dir through a fresh client.
func writeFiles(t *testing.T, env *cluster.Env, c *cluster.MAMSCluster, dir string, n int) {
	t.Helper()
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir(dir, done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%s/f%d", dir, i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(path, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
}
