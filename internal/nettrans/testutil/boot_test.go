package testutil

import (
	"testing"
	"time"

	"mams/internal/transport/transporttest"
)

// TestClusterBootIsPrompt pins the boot sequence: NewCluster holds the
// metadata servers back until the coord ensemble has a leader, so none of
// them spends its first second in mams.Server.Start's flat retry sleep, and
// every teardown returns (Transport.Close under the servers' own traffic).
func TestClusterBootIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("20 wire-plane boots take several wall-clock seconds")
	}
	defer transporttest.LeakCheck(t)()
	const limit = 800 * time.Millisecond
	var slowest time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		c, err := NewCluster(ClusterConfig{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("boot %d: NewCluster: %v", i, err)
		}
		stable := c.AwaitStable(limit)
		took := time.Since(start)
		c.Close()
		if !stable {
			t.Fatalf("boot %d: not 1 active + 2 standbys after %v", i, took)
		}
		if took > limit {
			t.Errorf("boot %d took %v, limit %v", i, took, limit)
		}
		slowest = max(slowest, took)
	}
	t.Logf("slowest of 20 boots: %v", slowest)
}
