package mams_test

import (
	"fmt"
	"testing"

	"mams/internal/check"
	"mams/internal/cluster"
	"mams/internal/mams"
	"mams/internal/metrics"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// TestChaosInvariants runs randomized fault sequences against a loaded
// 1A3S group across several seeds, with the internal/check invariant set
// attached throughout:
//
//  1. never two simultaneous reachable actives (sampled continuously),
//  2. journal sn stays strictly monotone per node, duplicates suppressed,
//  3. the group heals (one active, standbys renewed) once faults stop,
//  4. surviving replicas converge to identical namespace digests,
//  5. every operation acknowledged before the final fault window survives.
//
// The random walk complements the bounded systematic explorer in
// internal/check: it reaches deeper fault counts (8 actions) than the
// exhaustive scope can afford, at the price of coverage guarantees.
func TestChaosInvariants(t *testing.T) {
	for seed := uint64(100); seed < 104; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed uint64) {
	env := cluster.NewEnv(seed)
	p := mams.DefaultParams()
	p.TraceAppends = true // feed the monitor's sn-monotone invariant
	// The monitor consumes append events via subscription; don't retain the
	// ~10^5 per-batch events this loaded run generates in the log itself.
	env.Trace.DispatchOnly(trace.KindJournal)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3, Params: p})
	mon := check.Attach(env, c)
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("not stable")
	}
	col := &metrics.Collector{}
	drv := workload.NewDriver(env, c.AsSystem(), 4, col.Observe)
	drv.Setup(4)
	stop := drv.Continuous(workload.CreateMkdir(), 8)

	r := rng.New(seed * 77)
	members := c.Groups[0]
	down := map[int]bool{}
	unplugged := map[int]bool{}

	// 8 random fault/heal actions, 10 s apart.
	for step := 0; step < 8; step++ {
		m := r.Intn(len(members))
		switch r.Intn(4) {
		case 0:
			if !down[m] && !unplugged[m] {
				members[m].Shutdown()
				down[m] = true
			}
		case 1:
			if down[m] {
				members[m].Restart()
				down[m] = false
			}
		case 2:
			if !down[m] && !unplugged[m] {
				env.Net.Node(members[m].Node().ID()).Unplug()
				unplugged[m] = true
			}
		case 3:
			if unplugged[m] {
				env.Net.Node(members[m].Node().ID()).Replug()
				unplugged[m] = false
			}
		}
		for i := 0; i < 100; i++ {
			env.RunFor(100 * sim.Millisecond)
			mon.Sample()
		}
	}
	// Heal everything and let the system converge.
	c.HealAll()
	lastFault := env.Now()
	healed := false
	deadline := env.Now() + 120*sim.Second
	for env.Now() < deadline {
		env.RunFor(sim.Second)
		mon.Sample()
		if mon.HealedNow() {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatalf("group never healed; roles=%v", c.RolesOf(0))
	}
	stop()
	env.RunFor(10 * sim.Second)

	mon.CheckConverged()
	// Durability: the random walk can (unlike the systematic scope) briefly
	// leave no standby with the full tail, so only audit operations acked
	// comfortably before the final fault window.
	checked := mon.CheckDurable(col.Results, lastFault-10*sim.Second)
	if checked == 0 {
		t.Fatal("no acknowledged operations to check")
	}
	if vs := mon.Violations(); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("invariant violation: %v", v)
		}
		t.FailNow()
	}
	t.Logf("seed %d: healed, %d acknowledged ops verified, %d total ops (%d failed)",
		seed, checked, drv.Completed(), drv.Failed())
}
