package testutil

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mams/internal/namespace"
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
// stack.
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
