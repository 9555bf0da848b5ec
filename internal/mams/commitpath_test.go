package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/trace"
)

// TestSealBatchSSPRetryBackstop exercises the pool-write retry loop in the
// seal path: with SyncSSP the commit requires the journal batch durable in
// the shared storage pool, so a failing Put must hold the batch pending and
// retry every 100 ms until the pool heals, then advance the commit.
func TestSealBatchSSPRetryBackstop(t *testing.T) {
	p := mams.DefaultParams()
	p.GroupCommit = true
	p.SyncSSP = true
	env, c := build(t, 21, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2, Params: p})
	cli := c.NewClient(nil)
	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	env.RunFor(sim.Second)

	active := c.ActiveOf(0)
	if active == nil {
		t.Fatal("no active")
	}
	env.World.Defer("break-ssp", active.BreakSSPForTest)

	var opDone bool
	var opErr error
	env.World.Defer("create", func() {
		cli.Create("/d/backstop", 1, func(err error) { opDone, opErr = true, err })
	})
	// Several retry periods pass with the pool unreachable: the op must not
	// ack (SyncSSP gates the commit on the pool write) and the batch must
	// stay pending rather than being dropped after the first failure.
	env.RunFor(450 * sim.Millisecond)
	if opDone {
		t.Fatalf("op acked while SyncSSP pool writes were failing (err=%v)", opErr)
	}
	if active.PendingReplForTest() == 0 {
		t.Fatal("no batch pending: seal path dropped the batch instead of retrying")
	}

	// Heal the pool; the next 100 ms retry must land the write and release
	// the commit.
	env.World.Defer("restore-ssp", active.RestoreSSPForTest)
	env.RunFor(2 * sim.Second)
	if !opDone {
		t.Fatal("op never committed after the pool healed: retry loop stopped")
	}
	if opErr != nil {
		t.Fatalf("op failed after the pool healed: %v", opErr)
	}
	if got := active.PendingReplForTest(); got != 0 {
		t.Fatalf("%d batches still pending after the pool healed", got)
	}
	if !active.Tree().Exists("/d/backstop") {
		t.Fatal("committed create missing on active")
	}
}

// TestReflushIdempotencePipelined re-runs the failover tail re-flush against
// a group running adaptive group commit with a tight pipelined window, so
// the standbys took the original batches through their pending queue several
// at a time. Both re-flush rounds must be dup-suppressed without moving any
// replica.
func TestReflushIdempotencePipelined(t *testing.T) {
	p := mams.DefaultParams()
	p.TraceAppends = true
	p.GroupCommit = true
	p.BatchMaxRecords = 2
	p.MaxInflightBatches = 2
	env, c := build(t, 22, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3, Params: p})
	cli := c.NewClient(nil)

	if err := doOp(t, env, func(done func(error)) { cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	// Fire the creates concurrently: with 2-record batches and a 2-batch
	// window the burst seals several batches back-to-back, so the standbys
	// exercise the pipelined pending queue rather than one batch at a time.
	var failed []error
	env.World.Defer("burst", func() {
		for i := 0; i < 12; i++ {
			pth := fmt.Sprintf("/d/f%d", i)
			cli.Create(pth, 1, func(err error) {
				if err != nil {
					failed = append(failed, err)
				}
			})
		}
	})
	env.RunFor(5 * sim.Second) // quiesce: all batches committed everywhere
	if len(failed) > 0 {
		t.Fatalf("burst errors: %v", failed)
	}

	active := c.ActiveOf(0)
	if active == nil || active.LastSN() < 4 {
		t.Fatalf("need an active with >=4 batches for a pipelined tail, have %v", active)
	}
	want := active.Tree().Digest()
	appendsBefore := journalEvents(env, "append")
	dupsBefore := journalEvents(env, "append-dup")

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

// TestDispatchOnlyJournalKeepsNoBatchSpans runs batches on a log that only
// dispatches KindJournal, to one subscriber: the subscriber sees the
// per-batch appends, and the log holds no journal-2pc span, since span
// edges are never dispatched and so nothing could read them.
func TestDispatchOnlyJournalKeepsNoBatchSpans(t *testing.T) {
	env := cluster.NewEnv(23)
	env.Trace.DispatchOnly(trace.KindJournal)
	appends := 0
	env.Trace.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KindJournal && e.What == "append" {
			appends++
		}
	})
	p := mams.DefaultParams()
	p.TraceAppends = true
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2, Params: p})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("cluster never stabilized")
	}
	cli := c.NewClient(nil)
	for i := 0; i < 20; i++ {
		if err := doOp(t, env, func(done func(error)) { cli.Create(fmt.Sprintf("/f%d", i), 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	if appends < 20 {
		t.Fatalf("the subscriber saw %d appends for 20 committed creates", appends)
	}
	for _, sp := range env.Trace.Spans() {
		if sp.Name == "journal-2pc" {
			t.Fatalf("a dispatch-only journal log retained span %+v", sp)
		}
	}
}
