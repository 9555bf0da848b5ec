package testutil

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"mams/internal/namespace"
	"mams/internal/race"
)

// window is how many operations the loops below keep in flight on the
// client's one connection, as the repo benchmark's wire workloads do.
const window = 64

// opLoop keeps window operations in flight through the cluster's client,
// each next one issued from the previous one's callback. Its callbacks are
// made once, so the loop itself allocates nothing per operation: what an
// operation costs in allocations is the system's.
type opLoop struct {
	c      *Cluster
	create bool     // Create each path (fresh ones); otherwise Stat them
	paths  []string // the operations' paths, taken in turn

	n, issued, completed, failed int
	done                         chan struct{}
	onStat                       func(*namespace.Info, error)
	onAck                        func(error)
}

func newOpLoop(c *Cluster, create bool, paths []string) *opLoop {
	l := &opLoop{c: c, create: create, paths: paths}
	l.onStat = func(info *namespace.Info, err error) { l.complete(err == nil && info != nil) }
	l.onAck = func(err error) { l.complete(err == nil) }
	return l
}

// issue starts the next operation. Client loop only.
func (l *opLoop) issue() {
	p := l.paths[l.issued%len(l.paths)]
	l.issued++
	if l.create {
		l.c.Client.Create(p, 1, l.onAck)
	} else {
		l.c.Client.Stat(p, l.onStat)
	}
}

func (l *opLoop) complete(ok bool) {
	if !ok {
		l.failed++
	}
	l.completed++
	if l.issued < l.n {
		l.issue()
	} else if l.completed == l.n {
		close(l.done)
	}
}

// run makes n operations and returns how many failed.
func (l *opLoop) run(tb testing.TB, n int) int {
	tb.Helper()
	l.n, l.issued, l.completed, l.failed = n, 0, 0, 0
	l.done = make(chan struct{})
	l.c.ClientProc.Tr.Do(func() {
		for l.issued < window && l.issued < n {
			l.issue()
		}
	})
	select {
	case <-l.done:
	case <-time.After(time.Minute):
		tb.Fatalf("%d of %d operations outstanding after a minute", n-l.completed, n)
	}
	return l.failed
}

// statCluster boots a cluster, waits for it to be stable and creates the
// files the stat loops read, one per slot of the window, under /w.
func statCluster(tb testing.TB) (*Cluster, []string) {
	tb.Helper()
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		tb.Fatalf("NewCluster: %v", err)
	}
	tb.Cleanup(c.Close)
	if !c.AwaitStable(20 * time.Second) {
		tb.Fatal("wire cluster never stabilized")
	}
	if err := c.Mkdir("/w"); err != nil {
		tb.Fatal(err)
	}
	files := make([]string, window)
	for i := range files {
		files[i] = fmt.Sprintf("/w/f%02d", i)
		if err := c.Create(files[i], 1); err != nil {
			tb.Fatal(err)
		}
	}
	return c, files
}

// TestWireStatAllocBudget pins what a stat allocates across the whole
// process (client, transport, active and its standbys, coord) on a warm
// loopback cluster, 64 in flight. The client boxes its request and decodes
// the reply, its Info and block list; the active decodes the request and
// its path, makes the reply closure, and boxes the reply and its Info: 9.
// It was 21 before frames reached the loop without a closure, pending
// entries and client call state were reused, the active stopped copying the
// block list, the reply stopped carrying the path, and the reply closure
// lost its replied flag.
func TestWireStatAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("boots a wire-plane cluster")
	}
	const budget, perRun = 10, 2000
	c, files := statCluster(t)
	l := newOpLoop(c, false, files)
	l.run(t, perRun) // dial, and grow the buffers, queues and free lists
	got := testing.AllocsPerRun(3, func() {
		if failed := l.run(t, perRun); failed > 0 {
			t.Errorf("%d of %d stats failed", failed, perRun)
		}
	}) / perRun
	t.Logf("%.2f allocs per stat", got)
	if got > budget {
		t.Errorf("%.2f allocs per warm stat, budget %d", got, budget)
	}
}

// TestWireCreateAllocBudget pins what a create of a fresh file allocates
// across the whole process on a warm loopback cluster, 64 in flight. The
// client boxes its request and decodes the reply; the active decodes the
// request and its path, makes the reply closure and boxes the reply; each
// of the three replicas makes the file's inode (its one block inside it),
// and each standby decodes the record's path: 11. About one more is the
// create's share of its batch: the records slice, the batch frames and
// their decoding on each standby, the pool write and the commit notice. It
// was 17-18 before block ids moved into the inode, commit waits became
// values, per-batch slices were reused and replies lost their flag.
func TestWireCreateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("boots a wire-plane cluster")
	}
	const budget, perRun, runs = 13, 2000, 3
	c, _ := statCluster(t)
	// Every run creates fresh files: AllocsPerRun makes one warm-up run
	// before the measured ones, and one more warms the cluster first.
	paths := make([]string, (runs+2)*perRun)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/n%06d", i)
	}
	l := newOpLoop(c, true, paths)
	next := 0
	run := func() {
		l.paths = paths[next : next+perRun]
		next += perRun
		if failed := l.run(t, perRun); failed > 0 {
			t.Errorf("%d of %d creates failed", failed, perRun)
		}
	}
	run()
	got := testing.AllocsPerRun(runs, run) / perRun
	t.Logf("%.2f allocs per create", got)
	if got > budget {
		t.Errorf("%.2f allocs per warm create, budget %d", got, budget)
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// createSeq numbers the files BenchmarkWireOp/create makes, so that no
// run repeats a path.
var createSeq int

// BenchmarkWireOp is the wire plane's per-op cost with tracing off: stats
// of existing files and creates of fresh ones through fsclient on one
// loopback cluster in this process, 64 in flight. Besides ns/op and
// allocs/op it reports cpu-us/op, the process's user and system CPU time
// per operation, every process of the deployment included.
func BenchmarkWireOp(b *testing.B) {
	c, files := statCluster(b)
	for _, name := range []string{"stat", "create"} {
		b.Run(name, func(b *testing.B) {
			paths := files
			if name == "create" {
				paths = make([]string, b.N+window)
				for i := range paths {
					createSeq++
					paths[i] = fmt.Sprintf("/w/c%08d", createSeq)
				}
			}
			l := newOpLoop(c, name == "create", paths)
			l.run(b, window) // warm: connections, buffers, free lists
			if l.create {
				l.paths = paths[window:]
			}
			b.ReportAllocs()
			cpu := cpuTime(b)
			b.ResetTimer()
			failed := l.run(b, b.N)
			b.StopTimer()
			b.ReportMetric(float64((cpuTime(b)-cpu).Microseconds())/float64(b.N), "cpu-us/op")
			if failed > 0 {
				b.Fatalf("%d of %d operations failed", failed, b.N)
			}
		})
	}
}
