package cluster_test

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/namespace"
	"mams/internal/race"
	"mams/internal/sim"
)

// simWindow is how many operations simOpLoop keeps in flight, as the
// sim_paper benchmark workload's driver does.
const simWindow = 32

// simOpLoop keeps simWindow creates or stats in flight through one client
// of a simulated cluster, each next one issued from the previous one's
// callback. Its callbacks are made once, so what an operation allocates is
// the system's and the simulator's.
type simOpLoop struct {
	env    *cluster.Env
	client *fsclient.Client
	create bool
	paths  []string

	n, issued, completed, failed int
	onStat                       func(*namespace.Info, error)
	onAck                        func(error)
}

func newSimOpLoop(env *cluster.Env, client *fsclient.Client, create bool) *simOpLoop {
	l := &simOpLoop{env: env, client: client, create: create}
	l.onStat = func(info *namespace.Info, err error) { l.complete(err == nil && info != nil) }
	l.onAck = func(err error) { l.complete(err == nil) }
	return l
}

func (l *simOpLoop) issue() {
	p := l.paths[l.issued%len(l.paths)]
	l.issued++
	if l.create {
		l.client.Create(p, 1, l.onAck)
	} else {
		l.client.Stat(p, l.onStat)
	}
}

func (l *simOpLoop) complete(ok bool) {
	if !ok {
		l.failed++
	}
	l.completed++
	if l.issued < l.n {
		l.issue()
	}
}

// run makes n operations on paths and returns how many failed.
func (l *simOpLoop) run(tb testing.TB, paths []string, n int) int {
	tb.Helper()
	l.paths, l.n, l.issued, l.completed, l.failed = paths, n, 0, 0, 0
	for l.issued < simWindow && l.issued < n {
		l.issue()
	}
	for deadline := l.env.Now() + sim.Minute; l.completed < n; {
		if l.env.Now() >= deadline {
			tb.Fatalf("%d of %d operations outstanding after a virtual minute", n-l.completed, n)
		}
		l.env.RunFor(sim.Millisecond)
	}
	return l.failed
}

// TestSimOpAllocBudget pins what a create of a fresh file and a stat
// allocate on a warm simulated 1A2S cluster, 32 in flight: the client, the
// active and both standbys, the coordination service and the simulator
// together, with the heartbeats and leases that run meanwhile. A message
// in flight, a call's pending entry and deadline, and a kernel event cost
// the simulator nothing; a request's reply func and a node timer's handle
// are what is left of it. A stat is 5: the client boxes its request; the
// active makes the reply func, the dispatch timer's handle, the Info, and
// boxes the reply. A create is ≈ 8.7: the same less the Info, the file's
// inode on each of the three replicas, and ≈ 1.7 for its share of the
// batch. They were ≈ 25.4 and 19.0 while every event built a name and a
// closure and returned its handle on the heap, every message and call had
// a closure of its own, and every request a replied flag, and ≈ 9.7 and
// 6.0 while each charged op waited in a closure of its own.
func TestSimOpAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const perRun, runs = 2000, 3
	env := cluster.NewEnv(3)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("cluster never stabilized")
	}
	client := c.NewClient(nil)
	var mkdirErr error
	client.Mkdir("/w", func(err error) { mkdirErr = err })
	env.RunFor(sim.Second)
	if mkdirErr != nil {
		t.Fatal(mkdirErr)
	}
	// Every run creates fresh files: one run warms the cluster first, and
	// AllocsPerRun makes one more before the measured ones.
	paths := make([]string, (runs+2)*perRun)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/n%06d", i)
	}
	for _, tc := range []struct {
		name   string
		create bool
		budget float64
	}{
		{"create", true, 10},
		{"stat", false, 6},
	} {
		l := newSimOpLoop(env, client, tc.create)
		next := 0
		run := func() {
			p := paths[:perRun] // created by the create case's first run
			if tc.create {
				p, next = paths[next:next+perRun], next+perRun
			}
			if failed := l.run(t, p, perRun); failed > 0 {
				t.Errorf("%s: %d of %d operations failed", tc.name, failed, perRun)
			}
		}
		run()
		got := testing.AllocsPerRun(runs, run) / perRun
		t.Logf("%.2f allocs per %s", got, tc.name)
		if got > tc.budget {
			t.Errorf("%.2f allocs per warm %s, budget %.0f", got, tc.name, tc.budget)
		}
	}
}
