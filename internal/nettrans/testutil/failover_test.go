package testutil

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mams/internal/namespace"
	"mams/internal/obs"
	"mams/internal/trace"
	"mams/internal/transport/transporttest"
)

// TestWireClusterFailover is the wire-plane integration test: a full MAMS
// group (1 active + 2 standbys, co-located SSP pool) plus a 3-server
// coordination ensemble, every process on its own TCP listener on
// loopback. It drives the namespace through fsclient, kills the active's
// process (listener, connections, loop — everything), and asserts that
// failover completes on proof of death (the killed address refuses, so a
// survivor takes over within half the session time-out and exactly one
// session ends on refused probes) and that no acknowledged operation is
// lost — the paper's core reliability claim, exercised over a real network
// stack. The survivor's own trace log must tell its takeover in Fig. 4's
// order (checkTakeoverLog).
func TestWireClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("wire-plane failover takes several wall-clock seconds")
	}
	defer transporttest.LeakCheck(t)()

	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	if !c.AwaitStable(20 * time.Second) {
		t.Fatal("cluster never reached 1 active + 2 standbys")
	}

	// Smoke the basic op set over TCP.
	if err := c.Mkdir("/dir"); err != nil {
		t.Fatalf("mkdir /dir: %v", err)
	}
	if err := c.Create("/dir/seed", 1024); err != nil {
		t.Fatalf("create /dir/seed: %v", err)
	}
	if info, err := c.Stat("/dir/seed"); err != nil || info == nil {
		t.Fatalf("stat /dir/seed: info=%v err=%v", info, err)
	}
	if err := c.Create("/dir/doomed", 1); err != nil {
		t.Fatalf("create /dir/doomed: %v", err)
	}
	if err := c.Delete("/dir/doomed"); err != nil {
		t.Fatalf("delete /dir/doomed: %v", err)
	}
	if _, err := c.Stat("/dir/doomed"); err == nil {
		t.Fatal("stat /dir/doomed succeeded after delete")
	}

	// Background writer: sequential creates, recording every acked path.
	// The fsclient retries across the failover, so creates in flight when
	// the active dies should eventually land on the new active.
	var (
		mu    sync.Mutex
		acked []string
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := fmt.Sprintf("/dir/w%d", i)
			if err := c.Create(path, 1); err == nil {
				mu.Lock()
				acked = append(acked, path)
				mu.Unlock()
			}
		}
	}()

	// Let some acks accumulate, then kill the active process outright.
	time.Sleep(500 * time.Millisecond)
	killAt := time.Now()
	before := c.KillActive()
	if before < 0 {
		t.Fatal("no active to kill")
	}

	// The writer's create in flight at the kill waits out its time-out, so
	// an open loop of stats, one every 5 ms from the kill on, is what finds
	// the dead address refused, as new ops do under the benchmark's open
	// loop. A survivor must take over on that proof, well before the 1.2 s
	// session time-out would end the dead active's session.
	tookOver, statsDone := make(chan time.Duration, 1), make(chan struct{})
	go func() {
		defer close(statsDone)
		for len(tookOver) == 0 {
			c.ClientProc.Tr.Do(func() { c.Client.Stat("/dir/seed", func(*namespace.Info, error) {}) })
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		for time.Since(killAt) < 5*time.Second {
			if now := c.Active(); now >= 0 && now != before {
				tookOver <- time.Since(killAt)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		tookOver <- 0
	}()
	<-statsDone
	takeover := <-tookOver
	if takeover == 0 {
		t.Fatal("no survivor became active within 5 s of the kill")
	}
	t.Logf("a survivor reported active %v after the kill", takeover)
	if limit := time.Duration(coordSessionTimeout) / 2; takeover > limit {
		t.Errorf("a survivor reported active %v after the kill, want within %v (half the session time-out)", takeover, limit)
	}

	if !c.AwaitStable(30 * time.Second) {
		t.Fatal("no failover: group never restabilized after killing the active")
	}
	after := c.Active()
	if after == before || after < 0 {
		t.Fatalf("active did not move: before=%d after=%d", before, after)
	}

	var events []trace.Event
	var spans []obs.Span
	c.MDS[after].Tr.Do(func() {
		events, spans = slices.Clone(c.Logs[after].Events()), c.Logs[after].Spans()
	})
	checkTakeoverLog(t, events, spans)

	// Exactly one session, the dead active's, ended on proof of death.
	if n := c.RefusedExpiries(); n != 1 {
		t.Errorf("coord leaders ended %v sessions on refused probes, want 1", n)
	}

	// Writes must work against the new active.
	if err := c.Create("/dir/post-failover", 1); err != nil {
		t.Fatalf("create after failover: %v", err)
	}

	close(stop)
	<-done

	// Durability audit: every acknowledged create must still be visible.
	mu.Lock()
	audit := append([]string(nil), acked...)
	mu.Unlock()
	if len(audit) == 0 {
		t.Fatal("writer acked nothing before the kill; test proves nothing")
	}
	lost := 0
	for _, path := range audit {
		if _, err := c.Stat(path); err != nil {
			lost++
			t.Errorf("acked op lost: %s missing after failover: %v", path, err)
		}
	}
	t.Logf("audited %d acked creates, %d lost (active %d -> %d)", len(audit), lost, before, after)
}

// checkTakeoverLog holds a new active's log to the failover it ran: the
// moments Fig. 7 splits a failover at come in order (election, then the
// switch's steps), and a failover span that ended switch-done encloses the
// six stage spans of Fig. 4's upgrade, in order and without overlap.
func checkTakeoverLog(t *testing.T, events []trace.Event, spans []obs.Span) {
	t.Helper()
	last := map[string]trace.Event{}
	for _, e := range events {
		if e.Kind == trace.KindElection || e.Kind == trace.KindFailover {
			last[e.What] = e
		}
	}
	moments := []string{"election-start", "election-won", "cached-committed", "view-flipped", "switch-done"}
	for i, m := range moments {
		e, ok := last[m]
		if !ok {
			t.Errorf("the survivor's log has no %s", m)
		} else if i > 0 && e.At < last[moments[i-1]].At {
			t.Errorf("%s at %v comes before %s at %v", m, e.At, moments[i-1], last[moments[i-1]].At)
		}
	}

	var failover obs.Span
	for _, sp := range spans {
		if sp.Name == "failover" && sp.Arg("outcome") == "switch-done" {
			failover = sp
		}
	}
	if failover.ID == 0 {
		t.Fatal("the survivor's log has no failover span that ended switch-done")
	}
	var stages []string
	from := failover.Start
	for _, sp := range spans {
		if sp.Parent != failover.ID || !strings.HasPrefix(sp.Name, "stage-") {
			continue
		}
		stages = append(stages, sp.Name)
		if !sp.Done || sp.Start < from || sp.End > failover.End {
			t.Errorf("%s [%v, %v] is not inside failover [%v, %v] after the stage before it",
				sp.Name, sp.Start, sp.End, failover.Start, failover.End)
		}
		from = sp.End
	}
	want := []string{"stage-view-check", "stage-commit-cached", "stage-view-flip",
		"stage-reflush", "stage-registration", "stage-become-active"}
	if !slices.Equal(stages, want) {
		t.Errorf("failover stages = %v, want %v", stages, want)
	}
}
