package testutil

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestWireLogBoundedByFailovers holds a wire metadata server's log to
// protocol moments: what the active and its standbys retain after 200
// creates and 200 stats does not change over 2 000 more of each, so no
// per-op or per-batch record is kept. A deployment whose servers have no log (cmd/mamsd's)
// serves and fails over all the same.
func TestWireLogBoundedByFailovers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two wire clusters")
	}
	c, files := statCluster(t)
	retained := func() (n []int) {
		for i, p := range c.MDS {
			p.Tr.Do(func() { n = append(n, len(c.Logs[i].Events())) })
		}
		return n
	}
	made := 0
	serve := func(n int) {
		t.Helper()
		fresh := make([]string, n)
		for i := range fresh {
			fresh[i] = fmt.Sprintf("/w/n%05d", made)
			made++
		}
		if failed := newOpLoop(c, true, fresh).run(t, n); failed > 0 {
			t.Fatalf("%d of %d creates failed", failed, n)
		}
		if failed := newOpLoop(c, false, files).run(t, n); failed > 0 {
			t.Fatalf("%d of %d stats failed", failed, n)
		}
	}
	serve(200)
	before := retained()
	if a := c.Active(); before[a] == 0 {
		t.Fatal("the active's log retains nothing, not even its boot")
	}
	serve(2000)
	if after := retained(); !slices.Equal(after, before) {
		t.Errorf("the members' logs went from %v to %v events over 4 000 ops", before, after)
	}

	bare, err := newCluster(ClusterConfig{}, false)
	if err != nil {
		t.Fatalf("newCluster: %v", err)
	}
	defer bare.Close()
	if !bare.AwaitStable(20 * time.Second) {
		t.Fatal("a cluster without logs never stabilized")
	}
	if err := bare.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if bare.KillActive() < 0 {
		t.Fatal("no active to kill")
	}
	if !bare.AwaitStable(30 * time.Second) {
		t.Fatal("a cluster without logs never failed over")
	}
	if err := bare.Create("/d/f", 1); err != nil {
		t.Fatalf("create after failover: %v", err)
	}
	if _, err := bare.Stat("/d/f"); err != nil {
		t.Fatalf("stat after failover: %v", err)
	}
}
