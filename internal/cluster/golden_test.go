package cluster_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/metrics"
	"mams/internal/sim"
	"mams/internal/workload"
)

// TestBaselinesMatchGolden pins each baseline's behaviour across commits.
// One seeded run per design (setup, a create+stat stream, CrashPrimary,
// then a recovery horizon) must reproduce the recorded op counts, the MTTR
// to the nanosecond, the messages sent and delivered, every metadata
// server's journal position and file count, and an FNV-64 of the whole
// trace dump. A refactor of the baselines
// that changes any message, timer or reply order shows here; the paper
// tables print only three decimals and would hide it.
func TestBaselinesMatchGolden(t *testing.T) {
	type build func(*cluster.Env, cluster.BaselineSpec) cluster.System
	cases := []struct {
		name    string
		build   build
		horizon sim.Time
		want    string
	}{
		{"hdfs", func(e *cluster.Env, s cluster.BaselineSpec) cluster.System { return cluster.BuildHDFS(e, s) },
			10 * sim.Second,
			"ops=14785/0 mttr=-1 msgs=29660/29596 sn=1502 files=10482 trace=277529f857fca4c6"},
		{"backupnode", func(e *cluster.Env, s cluster.BaselineSpec) cluster.System { return cluster.BuildBackupNode(e, s) },
			10 * sim.Second,
			"ops=54940/0 mttr=1701112567 msgs=115652/111481 sn=1504 files=10452 sn=5655 files=38244 trace=49614322f40b17b6"},
		{"avatar", func(e *cluster.Env, s cluster.BaselineSpec) cluster.System { return cluster.BuildAvatar(e, s) },
			40 * sim.Second,
			"ops=38807/0 mttr=28302367683 msgs=97274/97188 sn=1501 files=5930 sn=7302 files=27258 trace=2d894d8e4e919b62"},
		{"hadoopha", func(e *cluster.Env, s cluster.BaselineSpec) cluster.System { return cluster.BuildHadoopHA(e, s) },
			30 * sim.Second,
			"ops=78109/0 mttr=14305446010 msgs=234852/234796 sn=1503 files=9256 sn=9348 files=54717 trace=4dc9c2835d23ff65"},
		{"boomfs", func(e *cluster.Env, s cluster.BaselineSpec) cluster.System { return cluster.BuildBoomFS(e, s) },
			30 * sim.Second,
			"ops=89653/0 mttr=16205290018 msgs=224765/210381 sn=1503 files=11386 sn=8401 files=62943 sn=8401 files=62943 trace=0d6b13506c7bbcb2"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := cluster.NewEnv(uint64(400 + i))
			sys := tc.build(env, cluster.BaselineSpec{DataServers: 4, VirtualImageBytes: 4 << 20})
			if !sys.AwaitReady(60 * sim.Second) {
				t.Fatal("never became ready")
			}
			col := &metrics.Collector{}
			drv := workload.NewDriver(env, sys, 4, col.Observe)
			drv.Setup(4)
			stop := drv.Continuous(workload.Mix{mams.OpCreate: 0.7, mams.OpStat: 0.3}, 8)
			env.RunFor(3 * sim.Second)
			faultAt := env.Now()
			sys.CrashPrimary()
			env.RunFor(tc.horizon)
			stop()
			env.RunFor(2 * sim.Second)

			mttr, ok := col.MTTR(faultAt)
			if !ok {
				mttr = -1
			}
			got := fmt.Sprintf("ops=%d/%d mttr=%d msgs=%d/%d", drv.Completed(), drv.Failed(), int64(mttr),
				env.Net.Sent, env.Net.Delivered)
			for _, s := range cluster.BaselineServers(sys) {
				got += fmt.Sprintf(" sn=%d files=%d", s.LastSN(), s.Files())
			}
			h := fnv.New64a()
			h.Write([]byte(env.Trace.Dump()))
			got += fmt.Sprintf(" trace=%016x", h.Sum64())
			if got != tc.want {
				t.Errorf("golden mismatch\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}
