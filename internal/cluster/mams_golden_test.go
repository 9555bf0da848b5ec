package cluster_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/metrics"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// TestMAMSMatchesGolden pins MAMS behaviour across commits, the way
// TestBaselinesMatchGolden pins the baselines. Each case is one seeded run:
// setup, a continuous workload, a fault, a recovery horizon and a drain. It
// must reproduce the recorded op counts, the MTTR to the nanosecond, the
// messages sent and delivered, every server's role, journal position, file
// count and namespace digest, and an FNV-64 of the whole trace dump (with
// per-batch journal appends traced). A change to the commit path that moves
// any seal, ack, reply or timer shows here.
func TestMAMSMatchesGolden(t *testing.T) {
	// crash kills group 0's active and returns the fault instant.
	crash := func(r goldenRun) sim.Time {
		at := r.env.Now()
		r.c.AsSystem().CrashPrimary()
		return at
	}
	params := func(edit func(*mams.Params)) mams.Params {
		p := mams.DefaultParams()
		p.TraceAppends = true
		edit(&p)
		return p
	}
	paperMix := workload.Mix{mams.OpCreate: 0.6, mams.OpStat: 0.3, mams.OpMkdir: 0.1}
	cases := []struct {
		name    string
		spec    cluster.MAMSSpec
		mix     workload.Mix
		fault   func(goldenRun) sim.Time
		horizon sim.Time
		want    string
	}{
		{"timer-crash", cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2,
			Params: params(func(*mams.Params) {})},
			paperMix, crash, 10 * sim.Second,
			"ops=32390/0 mttr=4798394811 msgs=90195/90153 g0-mds0=-/1042/7080/b15957393eac4a31 g0-mds1=S/2870/19527/d931dd8437bb816f g0-mds2=A/2870/19527/d931dd8437bb816f trace=31273290950b9f1c"},
		{"group-crash", cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2,
			Params: params(func(p *mams.Params) { p.GroupCommit = true })},
			paperMix, crash, 10 * sim.Second,
			"ops=69359/0 mttr=4800562873 msgs=287304/287266 g0-mds0=-/6333/14898/e5ca5ead309b6412 g0-mds1=S/18203/41685/c193699114a7bcd0 g0-mds2=A/18203/41685/c193699114a7bcd0 trace=1efa3dc070da9141"},
		{"async-crash", cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2,
			Params: params(func(p *mams.Params) { p.GroupCommit, p.AsyncAck = true, true })},
			paperMix, crash, 10 * sim.Second,
			"ops=109527/0 mttr=4801131689 msgs=395677/395629 g0-mds0=-/7803/25031/59fe0eaff30c0e49 g0-mds1=S/21577/65721/4b77ffd587e78331 g0-mds2=A/21577/65721/4b77ffd587e78331 trace=ca529bcde408bd7c"},
		{"syncssp-crash", cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2,
			Params: params(func(p *mams.Params) { p.SyncSSP = true })},
			paperMix, crash, 10 * sim.Second,
			"ops=29551/0 mttr=4803835681 msgs=82425/82384 g0-mds0=-/957/6489/32ba566ed09e045d g0-mds1=A/2611/17683/b3153bcd54641be8 g0-mds2=S/2611/17683/b3153bcd54641be8 trace=ed21674d4174e74e"},
		{"txn-migrate-crash", cluster.MAMSSpec{Groups: 2, BackupsPerGroup: 2,
			Params: params(func(*mams.Params) {})},
			workload.Mix{mams.OpCreate: 0.5, mams.OpMkdir: 0.2, mams.OpRename: 0.2, mams.OpStat: 0.1},
			migrateAndCrashSource, 15 * sim.Second,
			"ops=10298/17 mttr=2316312 msgs=65255/65096 g0-mds0=-/1088/2429/98eb203ce025c8b4 g0-mds1=S/1331/2223/49644e14d04c1579 g0-mds2=A/1331/2223/49644e14d04c1579 g1-mds0=A/1302/2877/93b223fb418cba1a g1-mds1=S/1302/2877/93b223fb418cba1a g1-mds2=S/1302/2877/93b223fb418cba1a trace=38be8d173788acfa"},
		{"breaklock-selffence", cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2,
			CoordHeartbeat: 300 * sim.Millisecond, CoordSessionTimeout: 1200 * sim.Millisecond,
			Params: params(func(*mams.Params) {})},
			paperMix, breakLockThenUnplug, 8 * sim.Second,
			"ops=51797/0 mttr=601847 msgs=154481/154439 g0-mds0=S/4663/31106/c7367ef4cfdcdc4c g0-mds1=A/4663/31106/c7367ef4cfdcdc4c g0-mds2=S/4663/31106/c7367ef4cfdcdc4c trace=242de3eda1c496bc"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := cluster.NewEnv(uint64(500 + i))
			c := cluster.BuildMAMS(env, tc.spec)
			if !c.AwaitStable(30 * sim.Second) {
				t.Fatal("never stabilised")
			}
			col := &metrics.Collector{}
			drv := workload.NewDriver(env, c.AsSystem(), 4, col.Observe)
			drv.Setup(4)
			stop := drv.Continuous(tc.mix, 8)
			env.RunFor(3 * sim.Second)
			faultAt := tc.fault(goldenRun{env, c})
			env.RunFor(tc.horizon)
			stop()
			env.RunFor(2 * sim.Second)

			mttr, ok := col.MTTR(faultAt)
			if !ok {
				mttr = -1
			}
			got := fmt.Sprintf("ops=%d/%d mttr=%d msgs=%d/%d", drv.Completed(), drv.Failed(), int64(mttr),
				env.Net.Sent, env.Net.Delivered)
			for _, members := range c.Groups {
				for _, s := range members {
					role := "-"
					if s.Node().Up() {
						role = s.Role().Short()
					}
					got += fmt.Sprintf(" %s=%s/%d/%d/%016x", s.Node().ID(), role, s.LastSN(),
						s.Tree().Files(), s.Tree().Digest())
				}
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

// goldenRun is one golden case's running deployment, handed to its fault.
type goldenRun struct {
	env *cluster.Env
	c   *cluster.MAMSCluster
}

// migrateAndCrashSource moves slot 0 to the other group and crashes the
// source group's active the instant it installs the freeze; the fault
// instant is that crash.
func migrateAndCrashSource(r goldenRun) sim.Time {
	env, c := r.env, r.c
	mg := c.StartMigrator()
	from := c.Part.Map().Group(0)
	var crashedAt sim.Time
	fired := false
	env.Trace.Subscribe(func(e trace.Event) {
		if e.What != "shard-freeze" || fired {
			return
		}
		fired = true
		env.World.Defer("golden-crash-source", func() {
			crashedAt = env.Now()
			c.ActiveOf(from).Shutdown()
		})
	})
	env.World.Defer("golden-move", func() {
		mg.MoveSlot(0, 1-from, func(mams.MoveStats, error) {})
	})
	for !fired && env.Now() < 60*sim.Second {
		env.RunFor(10 * sim.Millisecond)
	}
	env.RunFor(10 * sim.Millisecond)
	return crashedAt
}

// breakLockThenUnplug is Test A (the active's coordination session is
// force-expired) followed, once a successor serves, by unplugging that
// successor until it fences itself. The fault instant is the lock break.
func breakLockThenUnplug(r goldenRun) sim.Time {
	env, c := r.env, r.c
	c.PrepareFaultInjector()
	at := env.Now()
	old := c.ActiveOf(0)
	env.World.Defer("golden-break-lock", func() { c.BreakLock(0) })
	for env.Now() < at+20*sim.Second {
		env.RunFor(50 * sim.Millisecond)
		if a := c.ActiveOf(0); a != nil && a != old {
			break
		}
	}
	env.RunFor(sim.Second)
	if a := c.ActiveOf(0); a != nil {
		env.Net.Node(a.Node().ID()).Unplug()
		env.RunFor(3 * sim.Second)
		env.Net.Node(a.Node().ID()).Replug()
	}
	return at
}
