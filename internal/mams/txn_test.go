package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
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

// TestTxnAbortRollsBackParticipants: a doomed rename (destination exists at
// the coordinator) must not leave partial state anywhere.
func TestTxnAbortRollsBackParticipants(t *testing.T) {
	env, c := build(t, 14, cluster.MAMSSpec{Groups: 3, BackupsPerGroup: 1})
	cli := c.NewClient(nil)
	_ = doOp(t, env, func(done func(error)) { cli.Mkdir("/ab", done) })
	if err := doOp(t, env, func(done func(error)) { cli.Create("/ab/src", 1, done) }); err != nil {
		t.Fatal(err)
	}
	if err := doOp(t, env, func(done func(error)) { cli.Create("/ab/dst", 1, done) }); err != nil {
		t.Fatal(err)
	}
	// Renaming onto an existing destination must fail cleanly.
	err := doOp(t, env, func(done func(error)) { cli.Rename("/ab/src", "/ab/dst", done) })
	if err == nil {
		t.Fatal("rename onto existing destination succeeded")
	}
	env.RunFor(5 * sim.Second)
	// Both files still exist, exactly once, at their home groups.
	found := map[string]int{}
	for g := 0; g < 3; g++ {
		for _, p := range []string{"/ab/src", "/ab/dst"} {
			if c.ActiveOf(g).Tree().Exists(p) {
				found[p]++
			}
		}
	}
	if found["/ab/src"] != 1 || found["/ab/dst"] != 1 {
		t.Fatalf("post-abort placement: %v", found)
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
