package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/partition"
	"mams/internal/sim"
)

// TestCrossGroupTxnDuringFailover: distributed mkdir/rename transactions
// span replica groups; when a participant group's active dies mid-stream,
// coordinators retry against its successor and clients see no errors.
func TestCrossGroupTxnDuringFailover(t *testing.T) {
	env, c := build(t, 13, cluster.MAMSSpec{Groups: 3, BackupsPerGroup: 2})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/t", done) }); err != nil {
		t.Fatal(err)
	}

	// Kill group 1's active, then immediately push global transactions
	// (mkdir fans out to every group, including the failing one).
	c.ActiveOf(1).Shutdown()
	okCount := 0
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/t/dir%02d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Mkdir(p, done) }); err == nil {
			okCount++
		}
	}
	if okCount < 6 {
		t.Fatalf("only %d/8 cross-group mkdirs survived the failover window", okCount)
	}
	// After the dust settles, the directory skeleton must be consistent in
	// every group for the dirs that succeeded.
	env.RunFor(15 * sim.Second)
	for g := 0; g < 3; g++ {
		a := c.ActiveOf(g)
		if a == nil {
			t.Fatalf("group %d has no active", g)
		}
		if !a.Tree().Exists("/t") {
			t.Fatalf("group %d missing the base dir", g)
		}
	}
}

// TestTxnAbortRollsBackParticipants: an aborted cross-group op must leave
// every group's view of the paths it touched exactly as it was before.
func TestTxnAbortRollsBackParticipants(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		setup   func(cli *fsclient.Client, part *partition.Partitioner) []func(done func(error))
		op      func(cli *fsclient.Client, done func(error))
		touched []string
	}{{
		// The destination exists, so the rename is refused after the
		// source's home has journaled its delete.
		name: "rename onto existing destination",
		seed: 14,
		setup: func(cli *fsclient.Client, _ *partition.Partitioner) []func(done func(error)) {
			return []func(done func(error)){
				func(done func(error)) { cli.Mkdir("/ab", done) },
				func(done func(error)) { cli.Create("/ab/src", 1, done) },
				func(done func(error)) { cli.Create("/ab/dst", 1, done) },
			}
		},
		op:      func(cli *fsclient.Client, done func(error)) { cli.Rename("/ab/src", "/ab/dst", done) },
		touched: []string{"/ab", "/ab/src", "/ab/dst"},
	}, {
		// The only file in /d lives on a participant, so the coordinator
		// and the third group delete /d before that participant votes no.
		name: "delete non-empty directory",
		seed: 21,
		setup: func(cli *fsclient.Client, part *partition.Partitioner) []func(done func(error)) {
			lead := part.HomeGroup("/d")
			f := "/d/f0"
			for i := 1; part.HomeGroup(f) == lead; i++ {
				f = fmt.Sprintf("/d/f%d", i)
			}
			return []func(done func(error)){
				func(done func(error)) { cli.Mkdir("/d", done) },
				func(done func(error)) { cli.Create(f, 1, done) },
			}
		},
		op:      func(cli *fsclient.Client, done func(error)) { cli.Delete("/d", done) },
		touched: []string{"/d"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, c := build(t, tc.seed, cluster.MAMSSpec{Groups: 3, BackupsPerGroup: 1})
			cli := c.NewClient(nil)
			for _, step := range tc.setup(cli, c.Part) {
				if err := doOp(t, env, step); err != nil {
					t.Fatal(err)
				}
			}
			stats := func() []string {
				var out []string
				for g := 0; g < 3; g++ {
					for _, p := range tc.touched {
						info, err := c.ActiveOf(g).Tree().Stat(p)
						out = append(out, fmt.Sprintf("group %d %s: err=%v dir=%v size=%d perm=%o",
							g, p, err, info.Dir, info.Size, info.Perm))
					}
				}
				return out
			}
			before := stats()
			if err := doOp(t, env, func(done func(error)) { tc.op(cli, done) }); err == nil {
				t.Fatal("doomed op succeeded")
			}
			env.RunFor(5 * sim.Second)
			after := stats()
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("after abort %s, want %s", after[i], before[i])
				}
			}
		})
	}
}

// TestRenewInterruptedByActiveFailure: kill the active while it is renewing
// a junior; the successor must pick the renewal up and finish it. A large
// virtual image makes the checkpoint transfer slow enough (seconds) that
// the crash reliably lands mid-renewal.
func TestRenewInterruptedByActiveFailure(t *testing.T) {
	env, c := build(t, 15, cluster.MAMSSpec{
		Groups: 1, BackupsPerGroup: 3, VirtualImageBytes: 256 << 20,
	})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/ri", done) })
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/ri/f%02d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint in the pool makes image-based renewal the chosen path.
	if err := doOp(t, env, func(done func(error)) { c.ActiveOf(0).Checkpoint(done) }); err != nil {
		t.Fatal(err)
	}
	// Make a junior with a real gap: crash a standby, write, restart it.
	victim := c.StandbysOf(0)[0]
	victim.Shutdown()
	for i := 30; i < 330; i++ {
		p := fmt.Sprintf("/ri/f%03d", i)
		_ = doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) })
	}
	victim.Restart()
	env.RunFor(2500 * sim.Millisecond) // first renew scan fired; image fetch under way

	// Kill the active mid-renewal (the 256 MB image fetch takes seconds).
	oldActive := c.ActiveOf(0)
	if victim.Role() != mams.RoleJunior {
		t.Fatalf("victim renewed too early for an interruption test: %v", victim.Role())
	}
	oldActive.Shutdown()

	// The successor must both serve and eventually renew the junior.
	deadline := env.Now() + 120*sim.Second
	for env.Now() < deadline {
		env.RunFor(sim.Second)
		a := c.ActiveOf(0)
		if a == nil || a == oldActive {
			continue
		}
		if victim.Role() == mams.RoleStandby && victim.LastSN() == a.LastSN() {
			break
		}
	}
	a := c.ActiveOf(0)
	if a == nil {
		t.Fatal("no active after interruption")
	}
	if victim.Role() != mams.RoleStandby {
		t.Fatalf("junior never renewed after active died mid-renewal: %v sn=%d activeSN=%d",
			victim.Role(), victim.LastSN(), a.LastSN())
	}
	env.RunFor(5 * sim.Second)
	if victim.Tree().Digest() != a.Tree().Digest() {
		t.Fatal("renewed standby diverged")
	}
}

// TestRetryCacheSuppressesDuplicateEffects: the same logical create retried
// against the same active applies once.
func TestRetryCacheSuppressesDuplicateEffects(t *testing.T) {
	env, c := build(t, 16, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1})
	// Lossy network forces client retries with the same ReqID.
	env.Net.SetLoss(0.15)
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/rc", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/rc/f%02d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	env.Net.SetLoss(0)
	// Lossy heartbeats may have cost the active its lease; wait for the
	// group to settle before counting.
	deadline := env.Now() + 60*sim.Second
	for env.Now() < deadline && c.ActiveOf(0) == nil {
		env.RunFor(sim.Second)
	}
	env.RunFor(5 * sim.Second)
	a := c.ActiveOf(0)
	if a == nil {
		t.Fatal("no active after loss cleared")
	}
	if got := a.Tree().Files(); got != 20 {
		t.Fatalf("files = %d, want exactly 20 (duplicates applied?)", got)
	}
}

// TestRetryCacheHoldsOnlyMutations: reads are idempotent, so serving them
// leaves nothing behind — the cache grows with mutations, not with traffic.
func TestRetryCacheHoldsOnlyMutations(t *testing.T) {
	env, c := build(t, 17, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 1})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/rc", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/rc/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(p, 1, done) }); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
	}
	a := c.ActiveOf(0)
	if a == nil {
		t.Fatal("no active")
	}
	before := a.RetryCacheLenForTest()
	if before != 6 {
		t.Fatalf("retry cache after 6 mutations holds %d replies", before)
	}
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/rc/f%d", i%6) // f5 does not exist: errors too
		if i%2 == 0 {
			doOp(t, env, func(done func(error)) {
				cli.Stat(p, func(_ *anyInfo, err error) { done(err) })
			})
		} else {
			doOp(t, env, func(done func(error)) {
				cli.List("/rc", func(_ []anyInfo, err error) { done(err) })
			})
		}
	}
	if got := a.RetryCacheLenForTest(); got != before {
		t.Fatalf("retry cache grew from %d to %d over 200 reads", before, got)
	}
}

// TestLeadGroupFollowsPlans: create, stat and list go to the path's home
// group; mkdir, delete and rename go to the lead of their partition plan.
func TestLeadGroupFollowsPlans(t *testing.T) {
	p := partition.New(5)
	for i := 0; i < 50; i++ {
		src, dst := fmt.Sprintf("/d%d/f%d", i%7, i), fmt.Sprintf("/e%d/g%d", i%3, i)
		for _, tc := range []struct {
			kind mams.OpKind
			want int
		}{
			{mams.OpCreate, p.HomeGroup(src)},
			{mams.OpStat, p.HomeGroup(src)},
			{mams.OpList, p.HomeGroup(src)},
			{mams.OpMkdir, p.DirMasterGroup(src)},
			{mams.OpDelete, p.HomeGroup(src)},
			{mams.OpRename, p.HomeGroup(src)},
		} {
			if got := mams.LeadGroup(p, mams.ClientOp{Kind: tc.kind, Path: src, Dest: dst}); got != tc.want {
				t.Fatalf("%v %s: lead %d, want %d", tc.kind, src, got, tc.want)
			}
		}
	}
}
