package testutil

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/transport/transporttest"
)

// scriptOp is one step of the differential script.
type scriptOp struct {
	kind      mams.OpKind
	path, dst string
	size      int64
}

func (o scriptOp) String() string {
	return strings.TrimSpace(fmt.Sprintf("%v %s %s", o.kind, o.path, o.dst))
}

// genScript draws a seeded sequence of sequential ops. It keeps a rough
// model of the namespace only to aim: at entries that exist (hits, duplicate
// creates, deletes of non-empty directories) and at ones that do not. What
// each op *should* answer is never computed here — the two planes answer,
// and the test compares them.
func genScript(seed uint64, n int) []scriptOp {
	r := rng.New(seed)
	dirs := []string{"/"}
	var files []string
	join := func(dir, name string) string {
		if dir == "/" {
			return "/" + name
		}
		return dir + "/" + name
	}
	pick := func(s []string) string { return s[r.Intn(len(s))] }
	fileOr := func(fallback string) string {
		if len(files) == 0 {
			return fallback
		}
		return pick(files)
	}
	drop := func(s []string, v string) []string {
		for i := range s {
			if s[i] == v {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	var ops []scriptOp
	for i := 0; len(ops) < n; i++ {
		fresh := join(pick(dirs), fmt.Sprintf("n%d", i))
		switch r.Intn(14) {
		case 0, 1:
			ops = append(ops, scriptOp{kind: mams.OpMkdir, path: fresh})
			dirs = append(dirs, fresh)
		case 2, 3, 4:
			ops = append(ops, scriptOp{kind: mams.OpCreate, path: fresh, size: int64(r.Intn(3))<<26 + int64(r.Intn(4096))})
			files = append(files, fresh)
		case 5: // duplicate create, or a create under a missing parent
			ops = append(ops, scriptOp{kind: mams.OpCreate, path: fileOr("/missing/child"), size: 1})
		case 6:
			ops = append(ops, scriptOp{kind: mams.OpMkdir, path: pick(dirs)}) // exists (or "/")
		case 7: // stat hit: file or directory
			ops = append(ops, scriptOp{kind: mams.OpStat, path: pick(append(files, dirs...))})
		case 8:
			ops = append(ops, scriptOp{kind: mams.OpStat, path: fresh}) // miss
		case 9:
			ops = append(ops, scriptOp{kind: mams.OpList, path: pick(dirs)})
		case 10: // list of a file or of nothing
			ops = append(ops, scriptOp{kind: mams.OpList, path: fileOr(fresh)})
		case 11: // delete a file, a directory (empty or not), or nothing
			victim := pick(append(append([]string{fresh}, files...), dirs...))
			ops = append(ops, scriptOp{kind: mams.OpDelete, path: victim})
			files = drop(files, victim) // a refused directory delete stays in dirs: it still exists
		case 12: // move a file
			src := fileOr(fresh)
			ops = append(ops, scriptOp{kind: mams.OpRename, path: src, dst: fresh})
			if len(files) > 0 {
				files = append(drop(files, src), fresh)
			}
		case 13: // rename onto an existing entry, or a directory with its subtree
			if r.Bool(0.5) {
				ops = append(ops, scriptOp{kind: mams.OpRename, path: fileOr(fresh), dst: pick(dirs)})
				break
			}
			src := pick(dirs)
			ops = append(ops, scriptOp{kind: mams.OpRename, path: src, dst: fresh})
			if src == "/" || strings.HasPrefix(fresh, src+"/") {
				break // refused by both planes
			}
			move := func(s []string) {
				for i, p := range s {
					if p == src || strings.HasPrefix(p, src+"/") {
						s[i] = fresh + p[len(src):]
					}
				}
			}
			move(dirs)
			move(files)
		}
	}
	return ops
}

// issue starts op on cl (on cl's executor) and hands done the outcome in a
// form that is comparable across planes: error text, and for reads the
// fields that do not depend on the plane's clock (MTime is virtual on one
// plane and wall time on the other).
func issue(cl *fsclient.Client, op scriptOp, done func(string)) {
	fail := func(err error) string { return "err=" + err.Error() }
	ack := func(err error) {
		if err != nil {
			done(fail(err))
			return
		}
		done("ok")
	}
	switch op.kind {
	case mams.OpMkdir:
		cl.Mkdir(op.path, ack)
	case mams.OpCreate:
		cl.Create(op.path, op.size, ack)
	case mams.OpDelete:
		cl.Delete(op.path, ack)
	case mams.OpRename:
		cl.Rename(op.path, op.dst, ack)
	case mams.OpStat:
		cl.Stat(op.path, func(info *namespace.Info, err error) {
			if err != nil {
				done(fail(err))
				return
			}
			done(fmt.Sprintf("path=%q name=%q dir=%v size=%d blocks=%d", info.Path, info.Name, info.Dir, info.Size, len(info.Blocks)))
		})
	case mams.OpList:
		cl.List(op.path, func(infos []namespace.Info, err error) {
			if err != nil {
				done(fail(err))
				return
			}
			var b strings.Builder
			for _, in := range infos {
				fmt.Fprintf(&b, "%q dir=%v size=%d; ", in.Name, in.Dir, in.Size)
			}
			done(b.String())
		})
	}
}

func listing(t *namespace.Tree) []string {
	var out []string
	t.WalkFiles(func(in namespace.Info) bool {
		out = append(out, fmt.Sprintf("%s %d", in.Path, in.Size))
		return true
	})
	sort.Strings(out)
	return out
}

// runOnSim drives the script through the deterministic plane with the
// calibrated cost model and returns the per-op outcomes and the active's
// final file listing.
func runOnSim(t *testing.T, script []scriptOp) (outcomes, files []string) {
	env := cluster.NewEnv(1)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	if !c.AwaitStable(60 * sim.Second) {
		t.Fatal("sim cluster never stabilized")
	}
	cl := c.NewClient(nil)
	for _, op := range script {
		out, answered := "", false
		issue(cl, op, func(s string) { out, answered = s, true })
		for deadline := env.Now() + 30*sim.Second; !answered && env.Now() < deadline; {
			env.RunFor(sim.Millisecond)
		}
		if !answered {
			t.Fatalf("sim: %v never answered", op)
		}
		outcomes = append(outcomes, out)
	}
	env.RunFor(2 * sim.Second) // drain: the last CommitNotice reaches the standbys
	active := c.ActiveOf(0)
	for _, s := range c.Groups[0] {
		if s.LastSN() != active.LastSN() || s.Tree().Digest() != active.Tree().Digest() {
			t.Errorf("sim: %s at sn %d digest %#x, active at sn %d digest %#x",
				s.Node().ID(), s.LastSN(), s.Tree().Digest(), active.LastSN(), active.Tree().Digest())
		}
	}
	return outcomes, listing(active.Tree())
}

// runOnWire drives the same script over loopback TCP with the zero cost
// model.
func runOnWire(t *testing.T, script []scriptOp) (outcomes, files []string) {
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if !c.AwaitStable(20 * time.Second) {
		t.Fatal("wire cluster never stabilized")
	}
	for _, op := range script {
		done := make(chan string, 1)
		c.ClientProc.Tr.Do(func() { issue(c.Client, op, func(s string) { done <- s }) })
		select {
		case out := <-done:
			outcomes = append(outcomes, out)
		case <-time.After(30 * time.Second):
			t.Fatalf("wire: %v never answered", op)
		}
	}
	// Drain: poll until every replica reports the active's sn and digest.
	type state struct {
		sn     uint64
		digest uint64
	}
	sample := func() (states []state, files []string) {
		a := c.Active()
		for i, p := range c.MDS {
			p.Tr.Do(func() {
				tree := c.Servers[i].Tree()
				states = append(states, state{c.Servers[i].LastSN(), tree.Digest()})
				if i == a {
					files = listing(tree)
				}
			})
		}
		return states, files
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		states, files := sample()
		agree := true
		for _, s := range states {
			agree = agree && s == states[0]
		}
		if agree {
			return outcomes, files
		}
		if time.Now().After(deadline) {
			t.Errorf("wire: replicas never converged: %+v", states)
			return outcomes, files
		}
	}
}

// TestPlanesAgree is the differential plane test (ROADMAP 4a): one seeded
// script of sequential ops must read the same through the simulator, which
// charges the calibrated 2015 cost model, and through loopback TCP, which
// charges nothing and runs charged work inline. A cost model may change
// *when* things happen, never *what* happens.
func TestPlanesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a wire-plane cluster")
	}
	defer transporttest.LeakCheck(t)()
	// Stat replies carry no path and the client restores it from the
	// request: the script ends on stats of the root and of a nested file,
	// whose answers are also checked against the paths asked for.
	script := append(genScript(24, 240),
		scriptOp{kind: mams.OpMkdir, path: "/agree"},
		scriptOp{kind: mams.OpMkdir, path: "/agree/d"},
		scriptOp{kind: mams.OpCreate, path: "/agree/d/f", size: 1},
		scriptOp{kind: mams.OpStat, path: "/"},
		scriptOp{kind: mams.OpStat, path: "/agree/d/f"})
	kinds := map[mams.OpKind]int{}
	for _, op := range script {
		kinds[op.kind]++
	}
	simOut, simFiles := runOnSim(t, script)
	wireOut, wireFiles := runOnWire(t, script)

	oks, errs := 0, 0
	for i, op := range script {
		if simOut[i] != wireOut[i] {
			t.Errorf("op %d %v:\n  sim:  %s\n  wire: %s", i, op, simOut[i], wireOut[i])
		}
		if strings.HasPrefix(simOut[i], "err=") {
			errs++
		} else {
			oks++
		}
	}
	if oks < len(script)/3 || errs < len(script)/10 {
		t.Errorf("script exercises little: %d ok, %d refused, kinds %v", oks, errs, kinds)
	}
	for i, want := range []string{
		`path="/" name="" dir=true size=0 blocks=0`,
		`path="/agree/d/f" name="f" dir=false size=1 blocks=1`,
	} {
		if got := wireOut[len(script)-2+i]; got != want {
			t.Errorf("wire: %v answered %s, want %s", script[len(script)-2+i], got, want)
		}
	}
	if len(simFiles) == 0 || strings.Join(simFiles, "\n") != strings.Join(wireFiles, "\n") {
		t.Errorf("final listings differ (or are empty):\n  sim:  %v\n  wire: %v", simFiles, wireFiles)
	}
	t.Logf("%d ops (%v): %d ok, %d refused, %d files at the end", len(script), kinds, oks, errs, len(simFiles))
}

// TestWireStatIsNotTimerBound pins the point of the zero cost model: an
// unloaded stat no longer waits for a 45 µs timer that an idle process fires
// a whole millisecond late (≥ 1.06 ms a call at the parent commit, by
// construction). The bound is far above a loopback round trip and well
// below the timer.
func TestWireStatIsNotTimerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a wire-plane cluster")
	}
	c, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if !c.AwaitStable(20 * time.Second) {
		t.Fatal("wire cluster never stabilized")
	}
	if err := c.Create("/f", 1); err != nil {
		t.Fatal(err)
	}
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		if _, err := c.Stat("/f"); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	median := took[len(took)/2]
	t.Logf("200 sequential stats: median %v, p90 %v", median, took[len(took)*9/10])
	if median >= 600*time.Microsecond {
		t.Fatalf("median unloaded stat took %v, want < 600µs: something on the read path arms a timer", median)
	}
}
