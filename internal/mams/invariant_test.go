package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/trace"
)

// journalEvents counts KindJournal events with the given label per node.
func journalEvents(env *cluster.Env, what string) map[string]int {
	out := map[string]int{}
	for _, e := range env.Trace.ByKind(trace.KindJournal) {
		if e.What == what {
			out[e.Node]++
		}
	}
	return out
}

// TestReflushIdempotence re-runs the failover step-4 tail re-flush twice
// against a healthy group and verifies the sn check suppresses every
// duplicate: the standbys report the batches as dups, apply nothing, and
// namespace digests stay byte-identical to the active's.
func TestReflushIdempotence(t *testing.T) {
	p := mams.DefaultParams()
	p.TraceAppends = true
	env, c := build(t, 11, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3, Params: p})
	cli := c.NewClient(nil)

	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		pth := fmt.Sprintf("/d/f%d", i)
		if err := doOp(t, env, func(done func(error)) { cli.Create(pth, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	env.RunFor(5 * sim.Second) // quiesce: all batches committed everywhere

	active := c.ActiveOf(0)
	if active == nil || active.LastSN() < 3 {
		t.Fatalf("need an active with >=3 batches, have %v", active)
	}
	want := active.Tree().Digest()
	appendsBefore := journalEvents(env, "append")
	dupsBefore := journalEvents(env, "append-dup")

	// Re-flush the tail twice; every batch is one the standbys already hold.
	env.World.Defer("reflush-1", active.ReflushTailForTest)
	env.RunFor(2 * sim.Second)
	env.World.Defer("reflush-2", active.ReflushTailForTest)
	env.RunFor(2 * sim.Second)

	appendsAfter := journalEvents(env, "append")
	dupsAfter := journalEvents(env, "append-dup")
	standbys := c.StandbysOf(0)
	if len(standbys) != 3 {
		t.Fatalf("roles changed under re-flush: %v", c.RolesOf(0))
	}
	for _, s := range standbys {
		id := string(s.Node().ID())
		if got := s.Tree().Digest(); got != want {
			t.Fatalf("standby %s diverged after re-flush: %x vs %x", id, got, want)
		}
		if s.LastSN() != active.LastSN() {
			t.Fatalf("standby %s sn moved: %d vs %d", id, s.LastSN(), active.LastSN())
		}
		// Both re-flush rounds must have been observed — and suppressed.
		if dupsAfter[id]-dupsBefore[id] < 2 {
			t.Fatalf("standby %s saw %d dup events, want >=2 (re-flush not delivered?)",
				id, dupsAfter[id]-dupsBefore[id])
		}
		if appendsAfter[id] != appendsBefore[id] {
			t.Fatalf("standby %s applied %d duplicate batches",
				id, appendsAfter[id]-appendsBefore[id])
		}
	}
}

// TestLaggardFencedBeforeAck verifies the fence-before-commit rule: when a
// standby misses a batch, the client ack must not be sent until that standby
// is durably degraded to junior in the global view. Otherwise an active
// crash right after the ack could elect the laggard and lose the operation.
func TestLaggardFencedBeforeAck(t *testing.T) {
	env, c := build(t, 12, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	env.RunFor(sim.Second)

	victim := c.StandbysOf(0)[0]
	victimID := string(victim.Node().ID())
	env.World.Defer("unplug-victim", func() { env.Net.Node(victim.Node().ID()).Unplug() })
	env.RunFor(100 * sim.Millisecond)

	// The create must still commit (the other standby acks), but only after
	// the unplugged laggard is fenced out of the view.
	if err := doOp(t, env, func(done func(error)) { cli.Create("/d/fenced", 1, done) }); err != nil {
		t.Fatalf("create during laggard fence: %v", err)
	}
	active := c.ActiveOf(0)
	if active == nil {
		t.Fatal("no active")
	}
	if got := active.View().RoleOf(victimID); got != mams.RoleJunior {
		t.Fatalf("op acked while laggard %s still %v in the view", victimID, got)
	}
	if !active.Tree().Exists("/d/fenced") {
		t.Fatal("acked create missing on active")
	}
}
