package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/coord"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

type anyInfo = namespace.Info

func build(t *testing.T, seed uint64, spec cluster.MAMSSpec) (*cluster.Env, *cluster.MAMSCluster) {
	t.Helper()
	env := cluster.NewEnv(seed)
	c := cluster.BuildMAMS(env, spec)
	if !c.AwaitStable(30 * sim.Second) {
		for g := range c.Groups {
			t.Logf("group %d roles: %v", g, c.RolesOf(g))
		}
		t.Fatal("cluster never stabilized")
	}
	return env, c
}

// doOp runs one client operation to completion in virtual time.
func doOp(t *testing.T, env *cluster.Env, run func(done func(error))) error {
	t.Helper()
	var opErr error
	finished := false
	env.World.Defer("test-op", func() {
		run(func(err error) { opErr, finished = err, true })
	})
	deadline := env.Now() + 120*sim.Second
	for !finished && env.Now() < deadline {
		env.RunFor(50 * sim.Millisecond)
	}
	if !finished {
		t.Fatal("operation never completed")
	}
	return opErr
}

func TestBootstrapOneActiveRestStandby(t *testing.T) {
	_, c := build(t, 1, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	roles := c.RolesOf(0)
	if roles[0] != "A" {
		t.Fatalf("roles = %v", roles)
	}
	for _, r := range roles[1:] {
		if r != "S" {
			t.Fatalf("roles = %v", roles)
		}
	}
}

func TestBasicOpsAndReplication(t *testing.T) {
	env, c := build(t, 2, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	cli := c.NewClient(nil)

	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/data", done) }); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/data/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 100, done) }); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	if err := doOp(t, env, func(done func(error)) {
		cli.Stat("/data/f3", func(info *anyInfo, err error) {
			if err == nil && (info == nil || info.Size != 100) {
				err = fmt.Errorf("bad info %+v", info)
			}
			done(err)
		})
	}); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := doOp(t, env, func(done func(error)) { cli.Rename("/data/f0", "/data/g0", done) }); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := doOp(t, env, func(done func(error)) { cli.Delete("/data/f1", done) }); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// Quiesce and verify the hot standbys converged to the active's state.
	env.RunFor(5 * sim.Second)
	active := c.ActiveOf(0)
	if active == nil {
		t.Fatal("no active")
	}
	want := active.Tree().Digest()
	for _, s := range c.StandbysOf(0) {
		if got := s.Tree().Digest(); got != want {
			t.Fatalf("standby %s diverged: %x vs %x (sn %d vs %d)",
				s.Node().ID(), got, want, s.LastSN(), active.LastSN())
		}
	}
	if active.Tree().Files() != 9 {
		t.Fatalf("files = %d", active.Tree().Files())
	}
}

func TestFailoverOnActiveCrash(t *testing.T) {
	env, c := build(t, 3, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	old := c.ActiveOf(0)
	crashAt := env.Now()
	old.Shutdown()

	// A new active must emerge within session timeout + ~2 s.
	deadline := env.Now() + 20*sim.Second
	var newActive *mams.Server
	for env.Now() < deadline {
		env.RunFor(100 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			newActive = a
			break
		}
	}
	if newActive == nil {
		t.Fatalf("no failover; roles=%v trace:\n%s", c.RolesOf(0), lastTrace(env.Trace, 30))
	}
	took := env.Now() - crashAt
	if took > 9*sim.Second {
		t.Fatalf("failover took %v", took)
	}
	// Client keeps working against the new active.
	if err := doOp(t, env, func(done func(error)) { cli.Create("/d/after-failover", 1, done) }); err != nil {
		t.Fatalf("post-failover create: %v", err)
	}
	if !newActive.Tree().Exists("/d/after-failover") {
		t.Fatal("new active missing post-failover file")
	}
	// Pre-crash acknowledged data survived.
	for i := 0; i < 5; i++ {
		if !newActive.Tree().Exists(fmt.Sprintf("/d/f%d", i)) {
			t.Fatalf("acknowledged file f%d lost in failover", i)
		}
	}
}

func TestExactlyOneActiveAlways(t *testing.T) {
	env, c := build(t, 4, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/x", done) })

	// Repeatedly crash the active; at every sampled instant there must
	// never be two actives.
	for round := 0; round < 3; round++ {
		a := c.ActiveOf(0)
		if a == nil {
			t.Fatalf("round %d: no active; roles=%v", round, c.RolesOf(0))
		}
		a.Shutdown()
		for i := 0; i < 150; i++ {
			env.RunFor(100 * sim.Millisecond)
			actives := 0
			for _, s := range c.Groups[0] {
				if s.Node().Up() && s.Role() == mams.RoleActive {
					actives++
				}
			}
			if actives > 1 {
				t.Fatalf("round %d: %d simultaneous actives", round, actives)
			}
		}
		if c.ActiveOf(0) == nil {
			t.Fatalf("round %d: service never recovered; roles=%v", round, c.RolesOf(0))
		}
		a.Restart()
		env.RunFor(10 * sim.Second)
	}
}

func TestRestartedActiveRejoinsAsJuniorThenRenews(t *testing.T) {
	env, c := build(t, 5, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/r", done) })
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/r/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	old := c.ActiveOf(0)
	old.Shutdown()
	env.RunFor(10 * sim.Second)
	newActive := c.ActiveOf(0)
	if newActive == nil || newActive == old {
		t.Fatalf("no failover; roles=%v", c.RolesOf(0))
	}
	// Write more while the old active is down.
	for i := 20; i < 30; i++ {
		p := fmt.Sprintf("/r/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	old.Restart()
	env.RunFor(3 * sim.Second)
	if old.Role() != mams.RoleJunior && old.Role() != mams.RoleStandby {
		t.Fatalf("restarted node role = %v", old.Role())
	}
	// The renewing protocol must bring it back to hot standby.
	deadline := env.Now() + 60*sim.Second
	for env.Now() < deadline && old.Role() != mams.RoleStandby {
		env.RunFor(500 * sim.Millisecond)
	}
	if old.Role() != mams.RoleStandby {
		t.Fatalf("junior never renewed; role=%v sn=%d activeSN=%d\n%s",
			old.Role(), old.LastSN(), newActive.LastSN(), lastTrace(env.Trace, 40))
	}
	env.RunFor(5 * sim.Second)
	if old.Tree().Digest() != newActive.Tree().Digest() {
		t.Fatalf("renewed standby diverged (sn %d vs %d)", old.LastSN(), newActive.LastSN())
	}
}

func TestUnplugTwoBackupsTestBStyle(t *testing.T) {
	env, c := build(t, 6, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/b", done) })

	standbys := c.StandbysOf(0)
	if len(standbys) < 3 {
		t.Fatalf("standbys = %d", len(standbys))
	}
	s1, s2 := standbys[0], standbys[1]
	s1.Node().Unplug()
	s2.Node().Unplug()

	// Keep writing so the active notices missing acks and demotes them.
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/b/f%d", i)
		_ = doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) })
	}
	env.RunFor(10 * sim.Second)
	// The unplugged nodes cannot hear their own demotion, but the active's
	// global view must have degraded them (Table II Test B state 3: J J).
	active := c.ActiveOf(0)
	if active == nil {
		t.Fatal("active lost")
	}
	v := active.View()
	r1, r2 := v.RoleOf(string(s1.Node().ID())), v.RoleOf(string(s2.Node().ID()))
	if r1 == mams.RoleStandby || r2 == mams.RoleStandby {
		t.Fatalf("view still lists unplugged nodes as standby: %v %v\n%s", r1, r2, lastTrace(env.Trace, 30))
	}

	// Plug back: sessions are gone, nodes re-join as juniors, then renew.
	s1.Node().Replug()
	s2.Node().Replug()
	deadline := env.Now() + 90*sim.Second
	renewed := func(s *mams.Server) bool {
		return s.Role() == mams.RoleStandby && s.LastSN() == active.LastSN()
	}
	for env.Now() < deadline {
		env.RunFor(sim.Second)
		if renewed(s1) && renewed(s2) {
			break
		}
	}
	if !renewed(s1) || !renewed(s2) {
		t.Fatalf("replugged nodes never renewed: %v/%d %v/%d active=%d\n%s",
			s1.Role(), s1.LastSN(), s2.Role(), s2.LastSN(), active.LastSN(), lastTrace(env.Trace, 40))
	}
	active = c.ActiveOf(0)
	env.RunFor(5 * sim.Second)
	if s1.Tree().Digest() != active.Tree().Digest() {
		t.Fatalf("renewed standby 1 diverged: s1 sn=%d files=%d dirs=%d | active sn=%d files=%d dirs=%d\n%s",
			s1.LastSN(), s1.Tree().Files(), s1.Tree().Dirs(),
			active.LastSN(), active.Tree().Files(), active.Tree().Dirs(),
			lastTrace(env.Trace, 200))
	}
	if s2.Tree().Digest() != active.Tree().Digest() {
		t.Fatal("renewed standby 2 diverged")
	}
}

func TestLockLossTestAStyle(t *testing.T) {
	env, c := build(t, 7, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/a", done) })
	old := c.ActiveOf(0)

	// Delete the group lock through an out-of-band coordination client
	// (the paper's Test A: "modifying the global view to make the active
	// lose the lock").
	breaker := newCoordHost(env, c)
	if err := doOp(t, env, func(done func(error)) {
		breaker.client.Delete("/mams/g0/lock", -1, done)
	}); err != nil {
		t.Fatalf("lock delete: %v", err)
	}

	deadline := env.Now() + 15*sim.Second
	var newActive *mams.Server
	for env.Now() < deadline {
		env.RunFor(100 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			newActive = a
			break
		}
	}
	if newActive == nil {
		t.Fatalf("no election after lock loss; roles=%v\n%s", c.RolesOf(0), lastTrace(env.Trace, 40))
	}
	// The deposed active must come back as a standby (Table II Test A
	// state 4) since it lost nothing.
	deadline = env.Now() + 15*sim.Second
	for env.Now() < deadline && old.Role() != mams.RoleStandby {
		env.RunFor(200 * sim.Millisecond)
	}
	if old.Role() != mams.RoleStandby {
		t.Fatalf("old active role = %v\n%s", old.Role(), lastTrace(env.Trace, 40))
	}
	// Service works.
	if err := doOp(t, env, func(done func(error)) { cli.Create("/a/post", 1, done) }); err != nil {
		t.Fatalf("post-election create: %v", err)
	}
}

func TestJuniorTakeoverWhenNoStandbys(t *testing.T) {
	env, c := build(t, 8, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/jt", done) })
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/jt/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	// Force a checkpoint so the SSP holds an image + journals.
	active := c.ActiveOf(0)
	_ = doOp(t, env, func(done func(error)) { active.Checkpoint(done) })

	// Crash both standbys, then restart them so they re-join as juniors.
	sb := c.StandbysOf(0)
	for _, s := range sb {
		s.Shutdown()
	}
	env.RunFor(8 * sim.Second)
	for _, s := range sb {
		s.Restart()
	}
	env.RunFor(2 * sim.Second)
	// Now crash the active before renewing completes standbys... the
	// juniors may renew quickly; force the scenario by crashing the
	// active immediately.
	active.Shutdown()

	deadline := env.Now() + 40*sim.Second
	var newActive *mams.Server
	for env.Now() < deadline {
		env.RunFor(200 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != active {
			newActive = a
			break
		}
	}
	if newActive == nil {
		t.Fatalf("no junior takeover; roles=%v\n%s", c.RolesOf(0), lastTrace(env.Trace, 50))
	}
	// The acknowledged namespace must be recovered from the pool.
	for i := 0; i < 10; i++ {
		if !newActive.Tree().Exists(fmt.Sprintf("/jt/f%d", i)) {
			t.Fatalf("file f%d lost in junior takeover (sn=%d)", i, newActive.LastSN())
		}
	}
	if err := doOp(t, env, func(done func(error)) { cli.Create("/jt/post", 1, done) }); err != nil {
		t.Fatalf("post-takeover create: %v", err)
	}
}

func TestMultiGroupOperations(t *testing.T) {
	env, c := build(t, 9, cluster.MAMSSpec{Groups: 3, BackupsPerGroup: 1})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/mg", done) }); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	// The directory skeleton must exist in every group.
	env.RunFor(3 * sim.Second)
	for g := 0; g < 3; g++ {
		if !c.ActiveOf(g).Tree().Exists("/mg") {
			t.Fatalf("group %d missing replicated dir", g)
		}
	}
	// Files land in their home groups.
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/mg/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 10, done) }); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	total := 0
	for g := 0; g < 3; g++ {
		total += c.ActiveOf(g).Tree().Files()
	}
	if total != 30 {
		t.Fatalf("total files across groups = %d", total)
	}
	// Stat works for every file (routing agrees with placement).
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/mg/f%d", i)
		if err := doOp(t, env, func(done func(error)) {
			cli.Stat(p, func(info *anyInfo, err error) { done(err) })
		}); err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
	}
	// Cross-group rename.
	if err := doOp(t, env, func(done func(error)) { cli.Rename("/mg/f0", "/mg/renamed", done) }); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := doOp(t, env, func(done func(error)) {
		cli.Stat("/mg/renamed", func(info *anyInfo, err error) { done(err) })
	}); err != nil {
		t.Fatalf("stat renamed: %v", err)
	}
	var wantErr error
	_ = doOp(t, env, func(done func(error)) {
		cli.Stat("/mg/f0", func(info *anyInfo, err error) { wantErr = err; done(nil) })
	})
	if wantErr == nil {
		t.Fatal("old name still resolves after rename")
	}
	// Delete across groups.
	if err := doOp(t, env, func(done func(error)) { cli.Delete("/mg/f5", done) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func TestDynamicStandbyAddition(t *testing.T) {
	// "By renewing, more new backup nodes can also be added in the
	// replica group at runtime."
	env, c := build(t, 10, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/dyn", done) })
	for i := 0; i < 10; i++ {
		_ = doOp(t, env, func(done func(error)) { cli.Create(fmt.Sprintf("/dyn/f%d", i), 1, done) })
	}
	newbie := c.AddBackup(0)
	deadline := env.Now() + 60*sim.Second
	for env.Now() < deadline && newbie.Role() != mams.RoleStandby {
		env.RunFor(sim.Second)
	}
	if newbie.Role() != mams.RoleStandby {
		t.Fatalf("dynamically added backup never became standby: %v\n%s",
			newbie.Role(), lastTrace(env.Trace, 40))
	}
	env.RunFor(5 * sim.Second)
	if newbie.Tree().Digest() != c.ActiveOf(0).Tree().Digest() {
		t.Fatal("new standby diverged")
	}
}

// ---- helpers ----

// coordHost gives tests an out-of-band coordination client.
type coordHost struct {
	node   transport.Node
	client *coord.Client
}

func (h *coordHost) HandleMessage(from transport.NodeID, msg any) {
	h.client.MaybeHandle(from, msg)
}

func newCoordHost(env *cluster.Env, c *cluster.MAMSCluster) *coordHost {
	h := &coordHost{}
	h.node = env.Net.Listen("test-breaker", h)
	h.client = coord.NewClient(h.node, coord.ClientConfig{Servers: c.Coord.IDs}, nil)
	started := false
	env.World.Defer("breaker-start", func() {
		h.client.Start(func(err error) { started = err == nil })
	})
	env.RunFor(5 * sim.Second)
	if !started {
		panic("breaker client failed to start")
	}
	return h
}

func lastTrace(tr *trace.Log, n int) string {
	evs := tr.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	out := ""
	for _, e := range evs {
		out += e.String() + "\n"
	}
	return out
}

func TestRenewingRunsInBackgroundWithoutStallingService(t *testing.T) {
	// §III.D: "All above operations are performed in the background which
	// does not affect active service." Renewal of a far-behind junior must
	// not crater client throughput.
	env, c := build(t, 17, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	col := newCollector()
	drv := newDriverForTest(env, c, col)
	stop := drv.Continuous(createOnlyMix(), 8)

	env.RunFor(10 * sim.Second)
	victim := c.StandbysOf(0)[0]
	victim.Shutdown()
	env.RunFor(20 * sim.Second) // junior falls ~20s of load behind
	victim.Restart()

	// Steady-state throughput before the restart.
	pre := col.Throughput(5*sim.Second, 25*sim.Second)
	renewStart := env.Now()
	deadline := env.Now() + 90*sim.Second
	for env.Now() < deadline && victim.Role() != mams.RoleStandby {
		env.RunFor(sim.Second)
	}
	if victim.Role() != mams.RoleStandby {
		t.Fatalf("junior never renewed; role=%v", victim.Role())
	}
	during := col.Throughput(renewStart, env.Now())
	stop()
	if during < pre*0.7 {
		t.Fatalf("renewal stalled service: %.0f ops/s during vs %.0f before", during, pre)
	}
	t.Logf("throughput before=%.0f during-renewal=%.0f ops/s", pre, during)
}
