package baselines_test

import (
	"testing"

	"mams/internal/baselines"
	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/metrics"
	"mams/internal/sim"
	"mams/internal/workload"
)

// measureMTTR runs a continuous create stream, kills the primary, and
// returns the client-observed recovery gap.
func measureMTTR(t *testing.T, env *cluster.Env, sys cluster.System, horizon sim.Time) sim.Time {
	t.Helper()
	if !sys.AwaitReady(60 * sim.Second) {
		t.Fatalf("%s never became ready", sys.Name())
	}
	col := &metrics.Collector{}
	drv := workload.NewDriver(env, sys, 4, col.Observe)
	drv.Setup(4)
	stop := drv.Continuous(workload.Mix{mams.OpCreate: 1}, 8)
	env.RunFor(5 * sim.Second)
	faultAt := env.Now()
	sys.CrashPrimary()
	env.RunFor(horizon)
	stop()
	env.RunFor(2 * sim.Second)
	mttr, ok := col.MTTR(faultAt)
	if !ok {
		t.Fatalf("%s: no recovery observed within %v (completed=%d failed=%d)",
			sys.Name(), horizon, drv.Completed(), drv.Failed())
	}
	return mttr
}

// throughput measures a short single-op run.
func throughput(t *testing.T, env *cluster.Env, sys cluster.System, kind mams.OpKind, n int) float64 {
	t.Helper()
	if !sys.AwaitReady(60 * sim.Second) {
		t.Fatalf("%s never became ready", sys.Name())
	}
	drv := workload.NewDriver(env, sys, 8, nil)
	drv.Setup(8)
	if kind == mams.OpStat || kind == mams.OpDelete || kind == mams.OpRename {
		drv.Preload(n, 16)
	}
	elapsed := drv.RunOps(kind, n, 16)
	if drv.Failed() > n/100 {
		t.Fatalf("%s: %d/%d ops failed", sys.Name(), drv.Failed(), n)
	}
	return float64(n) / elapsed.Seconds()
}

func TestHDFSServesAllOps(t *testing.T) {
	env := cluster.NewEnv(21)
	sys := cluster.BuildHDFS(env, cluster.BaselineSpec{})
	tput := throughput(t, env, sys, mams.OpCreate, 3000)
	if tput < 1000 {
		t.Fatalf("create throughput = %.0f ops/s", tput)
	}
}

func TestHDFSHasNoFailover(t *testing.T) {
	env := cluster.NewEnv(22)
	sys := cluster.BuildHDFS(env, cluster.BaselineSpec{})
	col := &metrics.Collector{}
	drv := workload.NewDriver(env, sys, 2, col.Observe)
	drv.Setup(2)
	stop := drv.Continuous(workload.Mix{mams.OpCreate: 1}, 4)
	env.RunFor(3 * sim.Second)
	faultAt := env.Now()
	sys.CrashPrimary()
	env.RunFor(30 * sim.Second)
	stop()
	if _, ok := col.MTTR(faultAt); ok {
		t.Fatal("vanilla HDFS recovered from a NameNode crash?!")
	}
}

func TestBackupNodeReplicatesAndFailsOver(t *testing.T) {
	env := cluster.NewEnv(23)
	sys := cluster.BuildBackupNode(env, cluster.BaselineSpec{DataServers: 4})
	mttr := measureMTTR(t, env, sys, 40*sim.Second)
	// Tiny namespace: the fixed part dominates (paper: ~0.57 s + client
	// reconnection).
	if mttr > 5*sim.Second {
		t.Fatalf("BackupNode MTTR = %v, want < 5s for a tiny namespace", mttr)
	}
	if !sys.Servers[1].IsActive() {
		t.Fatal("backup did not take over")
	}
	// The backup replayed the stream: the acknowledged files must exist.
	if sys.Servers[1].LastSN() == 0 {
		t.Fatal("backup never ingested the journal stream")
	}
}

func TestBackupNodeMTTRGrowsWithImageSize(t *testing.T) {
	mttrFor := func(seed uint64, imageMB int64) sim.Time {
		env := cluster.NewEnv(seed)
		sys := cluster.BuildBackupNode(env, cluster.BaselineSpec{
			DataServers:       4,
			VirtualImageBytes: imageMB << 20,
		})
		return measureMTTR(t, env, sys, 120*sim.Second)
	}
	small := mttrFor(24, 16)
	big := mttrFor(25, 256)
	if big < 4*small {
		t.Fatalf("MTTR not size-dependent: 16MB=%v 256MB=%v", small, big)
	}
	// 256 MB at ~0.139 s/MB ≈ 36 s.
	if big < 25*sim.Second || big > 60*sim.Second {
		t.Fatalf("256MB MTTR = %v, want ~36s", big)
	}
}

func TestAvatarFailoverFlat(t *testing.T) {
	env := cluster.NewEnv(26)
	sys := cluster.BuildAvatar(env, cluster.BaselineSpec{DataServers: 4})
	mttr := measureMTTR(t, env, sys, 90*sim.Second)
	// Paper Table I: 27.4–33.2 s regardless of image size.
	if mttr < 24*sim.Second || mttr > 38*sim.Second {
		t.Fatalf("Avatar MTTR = %v, want ~30s", mttr)
	}
	if !sys.Servers[1].IsActive() {
		t.Fatal("standby avatar did not take over")
	}
}

func TestAvatarStandbyIsHot(t *testing.T) {
	env := cluster.NewEnv(27)
	sys := cluster.BuildAvatar(env, cluster.BaselineSpec{})
	if !sys.AwaitReady(30 * sim.Second) {
		t.Fatal("not ready")
	}
	drv := workload.NewDriver(env, sys, 2, nil)
	drv.Setup(2)
	drv.Preload(500, 8)
	active, standby := sys.Servers[0], sys.Servers[1]
	if !active.IsActive() {
		t.Fatal("unexpected roles")
	}
	// The load has stopped and every acked batch is on the filer. The
	// standby tails the filer, so one tail period (plus the read's round
	// trip) later it holds the active's whole journal.
	env.RunFor(baselines.DefaultAvatarParams().TailEvery + 10*sim.Millisecond)
	if active.LastSN() == 0 || standby.LastSN() != active.LastSN() || standby.Files() != active.Files() {
		t.Fatalf("standby at sn %d with %d files, active at sn %d with %d files",
			standby.LastSN(), standby.Files(), active.LastSN(), active.Files())
	}
}

func TestHadoopHAFailover(t *testing.T) {
	env := cluster.NewEnv(28)
	sys := cluster.BuildHadoopHA(env, cluster.BaselineSpec{DataServers: 4})
	mttr := measureMTTR(t, env, sys, 60*sim.Second)
	// Paper Table I: 15.4–19.2 s regardless of image size.
	if mttr < 12*sim.Second || mttr > 24*sim.Second {
		t.Fatalf("Hadoop HA MTTR = %v, want ~17s", mttr)
	}
	if !sys.Servers[1].IsActive() {
		t.Fatal("standby NameNode did not take over")
	}
}

func TestHadoopHAQuorumDurability(t *testing.T) {
	env := cluster.NewEnv(29)
	sys := cluster.BuildHadoopHA(env, cluster.BaselineSpec{})
	if !sys.AwaitReady(30 * sim.Second) {
		t.Fatal("not ready")
	}
	// Kill one journal node: writes must still commit (quorum 3/4).
	sys.Stores[0].Node().Crash()
	drv := workload.NewDriver(env, sys, 2, nil)
	drv.Setup(2)
	elapsed := drv.RunOps(mams.OpCreate, 500, 8)
	if drv.Failed() > 0 {
		t.Fatalf("%d ops failed with one JN down", drv.Failed())
	}
	_ = elapsed
	// Kill a second: 2/4 is below quorum; no further batch may become
	// durable.
	sys.Stores[1].Node().Crash()
	env.RunFor(sim.Second)
	nn0 := sys.Servers[0].(*baselines.SharedLogNode)
	before := nn0.CommittedSN()
	cli := sys.NewClient(nil)
	env.World.Defer("stall-probe", func() { cli.Create("/bench/stall-probe", 1, func(error) {}) })
	env.RunFor(20 * sim.Second)
	if nn0.CommittedSN() != before {
		t.Fatalf("batch committed without a JN quorum: %d -> %d", before, nn0.CommittedSN())
	}
}

func TestBoomFSCommitsThroughPaxos(t *testing.T) {
	env := cluster.NewEnv(30)
	sys := cluster.BuildBoomFS(env, cluster.BaselineSpec{})
	tput := throughput(t, env, sys, mams.OpCreate, 2000)
	if tput < 500 {
		t.Fatalf("boom create throughput = %.0f ops/s", tput)
	}
	env.RunFor(5 * sim.Second)
	// All replicas applied the same log prefix.
	leader := sys.Active()
	if leader == nil {
		t.Fatal("no leader")
	}
	for _, r := range sys.Servers {
		if r == leader {
			continue
		}
		if r.LastSN() < leader.LastSN()-2 {
			t.Fatalf("replica lagging: %d vs %d", r.LastSN(), leader.LastSN())
		}
		if r.Files() == 0 {
			t.Fatal("replica never applied any state")
		}
	}
}

func TestBoomFSFailover(t *testing.T) {
	env := cluster.NewEnv(31)
	sys := cluster.BuildBoomFS(env, cluster.BaselineSpec{})
	old := sys.Active()
	mttr := measureMTTR(t, env, sys, 60*sim.Second)
	// Detection (~5-6 s) + election + centralized repair (7 s) + client.
	if mttr < 9*sim.Second || mttr > 25*sim.Second {
		t.Fatalf("Boom-FS MTTR = %v, want ~13-16s", mttr)
	}
	newLeader := sys.Active()
	if newLeader == nil || newLeader == old {
		t.Fatal("no new leader")
	}
}

func TestMTTROrderingMatchesPaper(t *testing.T) {
	// The paper's headline: MAMS < Hadoop HA < Hadoop Avatar, and
	// BackupNode in between depending on size. Verify the ordering at a
	// mid-size image (128 MB: BackupNode ≈ 18 s).
	run := func(build func(env *cluster.Env) cluster.System, seed uint64, horizon sim.Time) sim.Time {
		env := cluster.NewEnv(seed)
		return measureMTTR(t, env, build(env), horizon)
	}
	mamsMTTR := run(func(env *cluster.Env) cluster.System {
		c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
		return c.AsSystem()
	}, 32, 40*sim.Second)
	haMTTR := run(func(env *cluster.Env) cluster.System {
		return cluster.BuildHadoopHA(env, cluster.BaselineSpec{DataServers: 4})
	}, 33, 60*sim.Second)
	avatarMTTR := run(func(env *cluster.Env) cluster.System {
		return cluster.BuildAvatar(env, cluster.BaselineSpec{DataServers: 4})
	}, 34, 90*sim.Second)

	if !(mamsMTTR < haMTTR && haMTTR < avatarMTTR) {
		t.Fatalf("MTTR ordering violated: MAMS=%v HA=%v Avatar=%v", mamsMTTR, haMTTR, avatarMTTR)
	}
	// MAMS lands in the paper's 5.4–6.8 s band (dominated by the 5 s
	// session timeout).
	if mamsMTTR < 4*sim.Second || mamsMTTR > 9*sim.Second {
		t.Fatalf("MAMS MTTR = %v, want ~5.4-6.8s", mamsMTTR)
	}
}
