package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/transport/transporttest"
	"mams/internal/workload"
)

// TestClusterTeardownGoroutines pins the sim plane's zero-goroutine
// property: assembling and running a full MAMS cluster must leave nothing
// running behind — the same leak check the wire plane's cluster failover
// test makes after closing its transports.
func TestClusterTeardownGoroutines(t *testing.T) {
	defer transporttest.LeakCheck(t)()
	env := cluster.NewEnv(11)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("cluster never stabilized")
	}
}

func TestNewEnvDeterministic(t *testing.T) {
	run := func() sim.Time {
		env := cluster.NewEnv(9)
		c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
		c.AwaitStable(30 * sim.Second)
		return env.Now()
	}
	if run() != run() {
		t.Fatal("same seed produced different stabilization time")
	}
}

func TestAllSystemsImplementSystemAndServe(t *testing.T) {
	builders := map[string]func(env *cluster.Env) cluster.System{
		"hdfs":       func(env *cluster.Env) cluster.System { return cluster.BuildHDFS(env, cluster.BaselineSpec{}) },
		"backupnode": func(env *cluster.Env) cluster.System { return cluster.BuildBackupNode(env, cluster.BaselineSpec{}) },
		"avatar":     func(env *cluster.Env) cluster.System { return cluster.BuildAvatar(env, cluster.BaselineSpec{}) },
		"hadoopha":   func(env *cluster.Env) cluster.System { return cluster.BuildHadoopHA(env, cluster.BaselineSpec{}) },
		"boomfs":     func(env *cluster.Env) cluster.System { return cluster.BuildBoomFS(env, cluster.BaselineSpec{}) },
		"mams": func(env *cluster.Env) cluster.System {
			return cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1}).AsSystem()
		},
	}
	seed := uint64(70)
	for name, build := range builders {
		seed++
		env := cluster.NewEnv(seed)
		sys := build(env)
		if sys.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
		if !sys.AwaitReady(60 * sim.Second) {
			t.Fatalf("%s never became ready", name)
		}
		if !sys.PrimaryUp() {
			t.Fatalf("%s: no primary after ready", name)
		}
		if len(sys.GroupIDs()) == 0 || sys.Partitioner() == nil {
			t.Fatalf("%s: topology incomplete", name)
		}
		cli := sys.NewClient(nil)
		okd := false
		env.World.Defer("probe", func() {
			cli.Mkdir("/probe", func(err error) { okd = err == nil })
		})
		env.RunFor(5 * sim.Second)
		if !okd {
			t.Fatalf("%s: probe mkdir failed", name)
		}
	}
}

// TestMAMSSpecDefaultsTimerOnly: a simulated deployment that names no
// params runs the calibrated timer-only commit path the paper tables were
// tuned against, whatever the wire layout (mams.NewLayout) ships.
func TestMAMSSpecDefaultsTimerOnly(t *testing.T) {
	c := cluster.BuildMAMS(cluster.NewEnv(79), cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1})
	if p := c.Spec.Params; p != mams.DefaultParams() || p.GroupCommit || p.AsyncAck {
		t.Fatalf("default spec params %+v, want mams.DefaultParams (timer-only)", p)
	}
}

func TestMAMSSystemLabel(t *testing.T) {
	env := cluster.NewEnv(80)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 3, BackupsPerGroup: 3})
	if got := c.AsSystem().Name(); got != "MAMS-3A9S" {
		t.Fatalf("label = %q", got)
	}
}

// The pool "is built on existing active or backup servers" (§III.A): a
// group's journal lands on its own members' pool nodes and on no other
// group's.
func TestPoolNodesAreMDSNodes(t *testing.T) {
	env := cluster.NewEnv(81)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 2, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	cli := c.NewClient(nil)
	env.World.Defer("load", func() {
		for i := 0; i < 32; i++ {
			cli.Create(fmt.Sprintf("/f%d", i), 1, func(error) {})
		}
	})
	env.RunFor(5 * sim.Second)
	for g, members := range c.Groups {
		own := ssp.Key{Group: fmt.Sprintf("g%d", g), Kind: ssp.KindJournal, Seq: 1}
		other := ssp.Key{Group: fmt.Sprintf("g%d", 1-g), Kind: ssp.KindJournal, Seq: 1}
		holders := 0
		for _, s := range members {
			if s.Pool().Has(other) {
				t.Fatalf("%s holds group %d's journal", s.Node().ID(), 1-g)
			}
			if s.Pool().Has(own) {
				holders++
			}
		}
		if holders == 0 {
			t.Fatalf("group %d's first journal batch is on none of its members", g)
		}
	}
}

func TestBreakLockTriggersReelection(t *testing.T) {
	env := cluster.NewEnv(82)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	old := c.ActiveOf(0)
	c.PrepareFaultInjector()
	env.World.Defer("break", func() { c.BreakLock(0) })
	deadline := env.Now() + 20*sim.Second
	for env.Now() < deadline {
		env.RunFor(200 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			return
		}
	}
	t.Fatal("no re-election after lock break")
}

func TestBreakLockFromScheduledEvent(t *testing.T) {
	// BreakLock must be safe when first invoked from inside the event
	// loop (no eager injector preparation).
	env := cluster.NewEnv(83)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	old := c.ActiveOf(0)
	env.World.After(sim.Second, "break", func() { c.BreakLock(0) })
	deadline := env.Now() + 25*sim.Second
	for env.Now() < deadline {
		env.RunFor(200 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			return
		}
	}
	t.Fatal("no re-election after in-event lock break")
}

func TestObservedRolesNeverShowTwoActives(t *testing.T) {
	env := cluster.NewEnv(84)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	active := c.ActiveOf(0)
	env.Net.Node(active.Node().ID()).Unplug()
	check := func() {
		roles := c.ObservedRoles(0)
		actives := 0
		for _, r := range roles {
			if r == "A" {
				actives++
			}
		}
		if actives > 1 {
			t.Fatalf("observed two actives: %v", roles)
		}
	}
	for i := 0; i < 100; i++ {
		env.RunFor(200 * sim.Millisecond)
		check()
	}
	// Replug: the stale claimant must not surface as a second A either.
	env.Net.Node(active.Node().ID()).Replug()
	for i := 0; i < 50; i++ {
		env.RunFor(200 * sim.Millisecond)
		check()
	}
}

func TestVirtualImageBytesPropagate(t *testing.T) {
	env := cluster.NewEnv(85)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{
		Groups: 1, BackupsPerGroup: 1, VirtualImageBytes: 64 << 20,
	})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	var done bool
	env.World.Defer("ckpt", func() {
		c.ActiveOf(0).Checkpoint(func(err error) { done = err == nil })
	})
	// A 64 MB image at ~90 MB/s disk + replication should take ~1 s; if the
	// virtual size were ignored it would complete in microseconds.
	env.RunFor(200 * sim.Millisecond)
	if done {
		t.Fatal("virtual image size ignored (checkpoint too fast)")
	}
	env.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("checkpoint never completed")
	}
	_ = mams.RoleActive
}

func TestVerifyGroupHealthy(t *testing.T) {
	env := cluster.NewEnv(86)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 2, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	for _, rep := range c.Verify() {
		if !rep.Consistent {
			t.Fatalf("healthy cluster flagged: %s", rep)
		}
		if rep.ActiveID == "" || rep.Standbys != 2 {
			t.Fatalf("unexpected census: %s", rep)
		}
	}
}

func TestVerifyGroupDetectsOutage(t *testing.T) {
	env := cluster.NewEnv(87)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	c.ActiveOf(0).Shutdown()
	env.RunFor(sim.Second) // inside the detection window: no active yet
	rep := c.VerifyGroup(0)
	if rep.Consistent {
		t.Fatalf("outage not flagged: %s", rep)
	}
	// After failover it heals again.
	env.RunFor(15 * sim.Second)
	rep = c.VerifyGroup(0)
	if !rep.Consistent {
		t.Fatalf("post-failover still flagged: %s", rep)
	}
	if rep.Down != 1 {
		t.Fatalf("down census = %d", rep.Down)
	}
}

func TestVerifyGroupAfterChurnConverges(t *testing.T) {
	env := cluster.NewEnv(88)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	drv := workload.NewDriver(env, c.AsSystem(), 4, nil)
	drv.Setup(4)
	stop := drv.Continuous(workload.CreateMkdir(), 8)
	env.RunFor(5 * sim.Second)
	victim := c.StandbysOf(0)[0]
	victim.Shutdown()
	env.RunFor(10 * sim.Second)
	victim.Restart()
	deadline := env.Now() + 90*sim.Second
	for env.Now() < deadline {
		env.RunFor(2 * sim.Second)
		if rep := c.VerifyGroup(0); rep.Consistent && rep.Standbys == 3 {
			stop()
			return
		}
	}
	stop()
	t.Fatalf("never converged: %s", c.VerifyGroup(0))
}

// TestSeededRunsDumpIdentically pins determinism end to end: two runs with
// the same seed — sampler and health detector attached — must produce
// byte-identical trace dumps and byte-identical exporter output (Prometheus
// text, the timestamped series dump, and the Chrome trace with metric
// tracks). This is the guarantee that makes golden-file comparisons and
// seed-reported bugs reproducible.
func TestSeededRunsDumpIdentically(t *testing.T) {
	run := func() (dump, prom, series, spans string) {
		env := cluster.NewEnv(31)
		c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
		sys := c.AsSystem()
		if !sys.AwaitReady(60 * sim.Second) {
			t.Fatal("system never became ready")
		}
		c.StartHealth()
		sys.CrashPrimary()
		env.RunFor(30 * sim.Second)
		var pb, sb, cb bytes.Buffer
		if err := obs.WritePrometheus(&pb, env.Obs); err != nil {
			t.Fatalf("prometheus export: %v", err)
		}
		if err := obs.WritePrometheusSeries(&sb, env.Sampler); err != nil {
			t.Fatalf("series export: %v", err)
		}
		if err := obs.WriteChromeTraceWithMetrics(&cb, env.Spans.Spans(), env.Sampler); err != nil {
			t.Fatalf("chrome trace export: %v", err)
		}
		return env.Trace.Dump(), pb.String(), sb.String(), cb.String()
	}
	d1, p1, q1, s1 := run()
	d2, p2, q2, s2 := run()
	if d1 == "" || p1 == "" || q1 == "" || s1 == "" {
		t.Fatal("empty dump or export")
	}
	if d1 != d2 {
		t.Error("trace dumps differ between identically-seeded runs")
	}
	if p1 != p2 {
		t.Error("prometheus exports differ between identically-seeded runs")
	}
	if q1 != q2 {
		t.Error("series exports differ between identically-seeded runs")
	}
	if s1 != s2 {
		t.Error("chrome trace exports differ between identically-seeded runs")
	}
}

// TestLoneSurvivorRecoversWritesAfterFailover pins write liveness in the
// smallest HA deployment: one active plus one standby. When the active
// crashes, the surviving standby takes over with zero replication peers and
// its dead peer still listed in the shared-pool membership — the view marks
// that peer RoleDown, pool placement must skip it, and the sole-owner
// commit backstop must land on the local pool copy. Before placement
// consulted the view, every post-failover mutation wedged behind a
// never-succeeding pool write and the group froze forever while reporting
// a completed failover.
func TestLoneSurvivorRecoversWritesAfterFailover(t *testing.T) {
	env := cluster.NewEnv(17)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1})
	sys := c.AsSystem()
	if !sys.AwaitReady(60 * sim.Second) {
		t.Fatal("system never became ready")
	}
	var results []fsclient.Result
	drv := workload.NewDriver(env, sys, 8, func(r fsclient.Result) {
		results = append(results, r)
	})
	drv.Setup(2)
	stop := drv.Continuous(workload.CreateMkdir(), 8)
	env.RunFor(2 * sim.Second)
	faultAt := env.Now()
	sys.CrashPrimary()
	env.RunFor(15 * sim.Second) // session timeout (5s) + failover + slack
	stop()
	env.RunFor(500 * sim.Millisecond)

	okPost, firstOK := 0, sim.Time(0)
	for _, r := range results {
		if r.Err == nil && r.End > faultAt {
			okPost++
			if firstOK == 0 || r.End < firstOK {
				firstOK = r.End
			}
		}
	}
	if okPost == 0 {
		t.Fatal("no mutation was ever acked after the failover")
	}
	// Recovery must ride the session-timeout detection band, not a pool
	// RPC timeout (10s) stacked on top of it (>= 15s when placement ignores
	// the view).
	if rec := firstOK - faultAt; rec > 12*sim.Second {
		t.Fatalf("first post-fault ack took %v, want within the failover band", rec)
	}
	// The survivor serves alone: its journal keeps committing, so the
	// steady post-failover ack stream must be substantial, not a one-off
	// duplicate-detection fluke.
	if okPost < 100 {
		t.Fatalf("only %d acks after failover, want a steady stream", okPost)
	}
}

// TestTwoMembersDroppedAtOnceDumpIdentically: when two standbys of a seeded
// 1A3S group drop off the network at the same virtual instant, both
// coordination sessions expire in the same scan and the ensemble orders
// their expiries itself. Every run of the seed must still produce one trace
// dump; map iteration order must not pick the order.
func TestTwoMembersDroppedAtOnceDumpIdentically(t *testing.T) {
	run := func() string {
		env := cluster.NewEnv(43)
		c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
		if !c.AwaitStable(60 * sim.Second) {
			t.Fatal("cluster never stabilized")
		}
		drv := workload.NewDriver(env, c.AsSystem(), 4, nil)
		drv.Setup(4)
		stop := drv.Continuous(workload.CreateMkdir(), 4)
		env.RunFor(2 * sim.Second)
		env.Net.Node(c.GroupIDs[0][2]).Unplug()
		env.Net.Node(c.GroupIDs[0][3]).Unplug()
		env.RunFor(15 * sim.Second)
		stop()
		return env.Trace.Dump()
	}
	dumps := map[string]int{}
	for i := 0; i < 12; i++ {
		dumps[run()]++
	}
	if len(dumps) != 1 {
		var split []int
		for _, n := range dumps {
			split = append(split, n)
		}
		t.Fatalf("12 runs of one seed gave %d different trace dumps (split %v)", len(dumps), split)
	}
}
