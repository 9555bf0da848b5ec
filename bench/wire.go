package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/nettrans"
	"mams/internal/nettrans/testutil"
	"mams/internal/obs"
	"mams/internal/rng"
)

const (
	window    = 64  // closed-loop ops in flight on the one client connection
	benchDirs = 64  // directories the load spreads over
	openRate  = 500 // ops/s of the open loop, ≈ 6 % of create capacity on this host
	// heartbeat is testutil's default CoordHeartbeat. Where in this period a
	// kill falls moves the downtime by hundreds of ms, so the kill offsets
	// of one run's rounds are spread evenly over one period.
	heartbeat = 300 * time.Millisecond
	// lateAfter is the open loop's latency limit: an op answered later than
	// this after its due instant is not goodput (wire_failover's ops_per_s)
	// and counts into fsclient.late_share.
	lateAfter = 50 * time.Millisecond
	// settle is how long a cluster may take to boot, drain or catch up
	// before the run is declared broken.
	settle = 30 * time.Second
	// bootFloor is the least time a cluster is given to boot. The group is
	// stable 50 ms after NewCluster in half of all boots and 350 ms after it
	// in the other half — a race between the standbys' registration and the
	// active's first view, whatever the seed — and without a floor that coin
	// is tossed into setup_s once per cluster.
	bootFloor = 400 * time.Millisecond
)

// mixEntry is one op kind's share of a workload, in tenths.
type mixEntry struct {
	kind   mams.OpKind
	tenths int
}

var (
	mixCreate = []mixEntry{{mams.OpCreate, 10}}
	mixStat   = []mixEntry{{mams.OpStat, 10}}
	// mixPaper is workload.MixedPaper (Fig. 6).
	mixPaper = []mixEntry{{mams.OpCreate, 4}, {mams.OpMkdir, 2}, {mams.OpStat, 4}}
)

// wireSpec names a wire workload's inputs.
type wireSpec struct {
	name    string
	mix     []mixEntry
	preload int // files on the saturated cluster; the rounds always preload roundPreload
}

const roundPreload = 256

// wireShape is how a run's measuring time is laid out.
type wireShape struct {
	warm     time.Duration // closed loop runs this long before the first slice
	slices   int
	slice    time.Duration
	rounds   int
	killAt   time.Duration // round 0's kill, after its load starts
	roundLen time.Duration
}

type poolFile struct {
	path string
	size int64
}

// opRec is one generated operation. due is when it was due to be sent (its
// issue time in a closed loop); both instants count from loadgen.t0.
type opRec struct {
	kind   mams.OpKind
	path   string // mutations only: what the durability audit stats
	due    time.Duration
	done   time.Duration // 0 while outstanding
	failed bool
}

func (r opRec) acked() bool            { return r.done != 0 && !r.failed }
func (r opRec) latency() time.Duration { return r.done - r.due }

// loadgen drives the cluster's one fsclient from that client's own event
// loop: a closed loop issues the next op from the previous op's callback, an
// open loop has due ops posted to it. Everything except the atomics is
// owned by the client loop.
type loadgen struct {
	c      *testutil.Cluster
	mix    []mixEntry
	rnd    *rng.RNG
	dirs   []string
	pool   []poolFile
	salt   string
	tr     *tracer
	parent obs.SpanID
	t0     time.Time

	recs    []opRec
	block   []mams.OpKind // kinds still to deal from the current block
	seq     int
	stopped bool

	acked    atomic.Int64
	inflight atomic.Int64
	// killAt is when the active's process was killed, qualifyFrom when the
	// kill had completed: the first acked op due at or after qualifyFrom
	// marks the end of the outage (firstAck). All ns since t0, 0 = not yet.
	killAt      atomic.Int64
	qualifyFrom atomic.Int64
	firstAck    atomic.Int64
	takeoverAt  atomic.Int64
}

func newLoadgen(c *testutil.Cluster, mix []mixEntry, seed uint64, tag string, dirs []string, pool []poolFile, tr *tracer, parent obs.SpanID) *loadgen {
	rnd := rng.New(seed).Split("loadgen:" + tag)
	order := append([]string(nil), dirs...)
	rnd.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &loadgen{
		c: c, mix: mix, rnd: rnd, dirs: order, pool: pool,
		salt: fmt.Sprintf("%x%s", seed, tag), tr: tr, parent: parent,
	}
}

// pick deals kinds out in blocks of ten, each kind exactly its share of
// every block, in seeded order. Independent draws would let the share of
// writes wander by a percent or two between seeds, and a write allocates
// three times what a read does.
func (g *loadgen) pick() mams.OpKind {
	if len(g.block) == 0 {
		for _, e := range g.mix {
			for range e.tenths {
				g.block = append(g.block, e.kind)
			}
		}
		g.rnd.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return kind
}

// issue sends one op due at the given instant; next (may be nil) runs from
// the op's callback unless the generator was stopped. Client loop only.
func (g *loadgen) issue(due time.Duration, next func()) {
	kind := g.pick()
	idx := len(g.recs)
	g.recs = append(g.recs, opRec{kind: kind, due: due})
	span := g.tr.begin("fsclient."+kind.String(), "client0", g.parent)
	g.inflight.Add(1)
	fin := func(ok bool) {
		now := time.Since(g.t0)
		rec := &g.recs[idx]
		rec.done, rec.failed = now, !ok
		g.tr.end(span)
		if ok {
			g.acked.Add(1)
			if q := g.qualifyFrom.Load(); q != 0 && int64(due) >= q {
				g.firstAck.CompareAndSwap(0, int64(now))
			}
		}
		g.inflight.Add(-1)
		if next != nil && !g.stopped {
			next()
		}
	}
	g.seq++
	dir := g.dirs[g.seq%len(g.dirs)]
	switch kind {
	case mams.OpCreate:
		path := fmt.Sprintf("%s/f%s-%07d", dir, g.salt, g.seq)
		g.recs[idx].path = path
		g.c.Client.Create(path, 1024, func(err error) { fin(err == nil) })
	case mams.OpMkdir:
		path := fmt.Sprintf("%s/s%s-%07d", dir, g.salt, g.seq)
		g.recs[idx].path = path
		g.c.Client.Mkdir(path, func(err error) { fin(err == nil) })
	case mams.OpStat:
		pf := g.pool[g.rnd.Intn(len(g.pool))]
		g.c.Client.Stat(pf.path, func(info *namespace.Info, err error) {
			fin(err == nil && info != nil && info.Size == pf.size)
		})
	default:
		panic("bench: op kind not in any workload: " + kind.String())
	}
}

func (g *loadgen) issueClosed() { g.issue(time.Since(g.t0), g.issueClosed) }

// drain stops a closed loop and waits for every outstanding op, then hands
// the op log over. An op still outstanding after settle stays in the log
// with done == 0 and is counted as failed by the callers.
func (g *loadgen) drain() []opRec {
	g.c.ClientProc.Tr.Do(func() { g.stopped = true })
	deadline := time.Now().Add(settle)
	for g.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var recs []opRec
	g.c.ClientProc.Tr.Do(func() { recs, g.recs = g.recs, nil })
	return recs
}

// runBatch runs n set-up or audit ops on tr's event loop, window at a time,
// each issued from the previous one's callback, and returns how many
// reported !ok.
func runBatch(tr *nettrans.Transport, n int, op func(i int, done func(ok bool))) (int, error) {
	if n == 0 {
		return 0, nil
	}
	finished := make(chan int, 1)
	issued, completed, bad := 0, 0, 0
	var next func()
	next = func() {
		if issued == n {
			return
		}
		i := issued
		issued++
		op(i, func(ok bool) {
			completed++
			if !ok {
				bad++
			}
			if completed == n {
				finished <- bad
				return
			}
			next()
		})
	}
	if !tr.Do(func() {
		for w := 0; w < window && w < n; w++ {
			next()
		}
	}) {
		return 0, errors.New("client transport is closed")
	}
	select {
	case bad := <-finished:
		return bad, nil
	case <-time.After(2 * settle):
		return 0, fmt.Errorf("batch of %d ops did not finish in %v", n, 2*settle)
	}
}

// bootCluster starts a 1A+2S group with its 3 coord servers on loopback,
// waits for it to be stable, and makes the directories and preloaded files.
// Synchronous testutil helpers are fine here: set-up is not timed per op.
func bootCluster(seed uint64, preload int) (*testutil.Cluster, []string, []poolFile, error) {
	bootStart := time.Now()
	c, err := testutil.NewCluster(testutil.ClusterConfig{Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*testutil.Cluster, []string, []poolFile, error) {
		c.Close()
		return nil, nil, nil, err
	}
	if !c.AwaitStable(settle) {
		return fail(errors.New("cluster never reached 1 active + 2 standbys"))
	}
	sleepUntil(bootStart.Add(bootFloor))
	if err := c.Mkdir("/bench"); err != nil {
		return fail(fmt.Errorf("mkdir /bench: %w", err))
	}
	dirs := make([]string, benchDirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/bench/d%02d", i)
	}
	bad, err := runBatch(c.ClientProc.Tr, len(dirs), func(i int, done func(bool)) {
		c.Client.Mkdir(dirs[i], func(err error) { done(err == nil) })
	})
	if err != nil || bad > 0 {
		return fail(fmt.Errorf("mkdir of %d directories: %d failed, %v", len(dirs), bad, err))
	}
	pool := make([]poolFile, preload)
	for i := range pool {
		pool[i] = poolFile{path: fmt.Sprintf("%s/p%06d", dirs[i%len(dirs)], i), size: int64(1 + i%4093)}
	}
	bad, err = runBatch(c.ClientProc.Tr, len(pool), func(i int, done func(bool)) {
		c.Client.Create(pool[i].path, pool[i].size, func(err error) { done(err == nil) })
	})
	if err != nil || bad > 0 {
		return fail(fmt.Errorf("preload of %d files: %d failed, %v", len(pool), bad, err))
	}
	return c, dirs, pool, nil
}

// clusterSnap is the cluster's own counters, read on each process's event
// loop at the same boundaries as procSnap.
type clusterSnap struct {
	sent, dropped []uint64 // per transport: coord…, mds…, client
	lastSN        []uint64 // per group member; 0 for a killed one
}

func snapCluster(c *testutil.Cluster) clusterSnap {
	var s clusterSnap
	read := func(tr *nettrans.Transport) {
		var sent, dropped uint64
		tr.Do(func() { sent, dropped = tr.Sent, tr.Dropped })
		s.sent = append(s.sent, sent)
		s.dropped = append(s.dropped, dropped)
	}
	for _, p := range c.Coord {
		read(p.Tr)
	}
	for i, p := range c.MDS {
		read(p.Tr)
		var sn uint64
		p.Tr.Do(func() { sn = c.Servers[i].LastSN() })
		s.lastSN = append(s.lastSN, sn)
	}
	read(c.ClientProc.Tr)
	return s
}

func sum(xs []uint64) (total uint64) {
	for _, x := range xs {
		total += x
	}
	return total
}

// lagSN is how far the slowest standby is behind the active.
func (s clusterSnap) lagSN(active int) float64 {
	lag := uint64(0)
	for i, sn := range s.lastSN {
		if i != active && s.lastSN[active] > sn {
			lag = max(lag, s.lastSN[active]-sn)
		}
	}
	return float64(lag)
}

// satResult is what the saturated closed-loop phase measured.
type satResult struct {
	rates         []float64 // acked ops/s, one per slice
	acked         int64     // acks counted between the first and last slice boundary
	lagSN         []float64 // standby lag at each slice end
	before, after procSnap
	cBefore       clusterSnap
	cAfter        clusterSnap
	active        int
	inSlices      []opRec // ops issued and answered inside the slices
	all           []opRec
}

// runSaturated keeps `window` ops in flight on the client's connection:
// warm-up, then sh.slices slices whose boundaries are read from outside
// with one atomic load each. It returns after the loop has drained.
func runSaturated(c *testutil.Cluster, g *loadgen, sh wireShape, name string) satResult {
	res := satResult{active: c.Active()}
	root := g.tr.begin(name+".saturated", "bench", g.parent)
	g.parent = root
	g.t0 = time.Now()
	c.ClientProc.Tr.Do(func() {
		for range window {
			g.issueClosed()
		}
	})
	sleepUntil(g.t0.Add(sh.warm))

	res.cBefore = snapCluster(c)
	res.before = snapProc()
	start := time.Now()
	firstN := g.acked.Load()
	prevT, prevN := start, firstN
	for i := range sh.slices {
		sp := g.tr.begin("slice", "bench", root, "i", fmt.Sprint(i))
		sleepUntil(start.Add(time.Duration(i+1) * sh.slice))
		// The lag sample takes milliseconds on busy loops; it goes before
		// the boundary is read so that the last boundary and the closing
		// process snapshot are the same instant.
		res.lagSN = append(res.lagSN, snapCluster(c).lagSN(res.active))
		now, n := time.Now(), g.acked.Load()
		g.tr.end(sp)
		res.rates = append(res.rates, float64(n-prevN)/now.Sub(prevT).Seconds())
		prevT, prevN = now, n
	}
	res.acked = prevN - firstN
	res.after = snapProc()
	res.cAfter = snapCluster(c)

	res.all = g.drain()
	g.tr.end(root)
	from, to := start.Sub(g.t0), res.after.at.Sub(g.t0)
	for _, r := range res.all {
		if r.due >= from && r.done != 0 && r.done <= to {
			res.inSlices = append(res.inSlices, r)
		}
	}
	return res
}

// checkReplicas is wire_create's output check, run after the loop drained:
// the active holds exactly the preloaded files plus every acked create, and
// once the standbys have caught up all three trees have one digest.
func checkReplicas(c *testutil.Cluster, wantFiles int) error {
	deadline := time.Now().Add(settle)
	for {
		s := snapCluster(c)
		if s.lagSN(c.Active()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standbys still behind after %v: sn %v", settle, s.lastSN)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var files []int
	var digests []uint64
	for i, p := range c.MDS {
		p.Tr.Do(func() {
			files = append(files, c.Servers[i].Tree().Files())
			digests = append(digests, c.Servers[i].Tree().Digest())
		})
	}
	if got := files[c.Active()]; got != wantFiles {
		return fmt.Errorf("active holds %d files, want %d (preload + acked creates)", got, wantFiles)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			return fmt.Errorf("replica digests differ after drain: %x", digests)
		}
	}
	return nil
}

// roundResult is one failover round: a fresh cluster, an open loop at
// openRate, the active's process killed part-way.
type roundResult struct {
	setup      time.Duration
	load       time.Duration // length of the load window
	before     procSnap      // around the load window
	after      procSnap
	recs       []opRec
	killAt     time.Duration
	firstAck   time.Duration // first ack of an op due after the kill completed; 0 = never
	takeoverAt time.Duration // a survivor reports active; 0 unless polled
	maxLate    time.Duration
	lost       int // acked mutations the new active cannot stat
	moved      bool
}

func (r roundResult) downtime() time.Duration { return r.firstAck - r.killAt }

// onTime counts ops answered within lateAfter of their due instant and
// before the load window closed.
func (r roundResult) onTime() int {
	n := 0
	for _, rec := range r.recs {
		if rec.acked() && rec.done <= r.load && rec.latency() <= lateAfter {
			n++
		}
	}
	return n
}

// ackedInWindow counts ops acknowledged before the load window closed.
func (r roundResult) ackedInWindow() int {
	n := 0
	for _, rec := range r.recs {
		if rec.acked() && rec.done <= r.load {
			n++
		}
	}
	return n
}

// steady returns the latencies of the round's unloaded steady state: ops
// due after the connections are warm and at least 20 ms before the kill.
func (r roundResult) steady(kind mams.OpKind) []float64 {
	var out []float64
	for _, rec := range r.recs {
		if rec.kind == kind && rec.acked() &&
			rec.due >= 100*time.Millisecond && rec.due <= r.killAt-20*time.Millisecond {
			out = append(out, ms(rec.latency()))
		}
	}
	return out
}

// runRound boots a fresh cluster and runs one open-loop failover round on
// it. The calling goroutine is the pacer: it posts every op that has come
// due to the client's loop and sleeps until the next is due. Latency is
// timed from the due instant, so a stall is charged to every op it delays.
// pollTakeover adds a 5 ms role poll of the survivors after the kill.
func runRound(spec wireSpec, sh wireShape, seed uint64, r int, tr *tracer, parent obs.SpanID, pollTakeover bool) (roundResult, error) {
	var res roundResult
	setupStart := time.Now()
	c, dirs, pool, err := bootCluster(seed+uint64(r+1)*7919, roundPreload)
	if err != nil {
		return res, err
	}
	defer c.Close()
	victim := c.Active()
	span := tr.begin(spec.name+".round", "bench", parent, "r", fmt.Sprint(r))
	defer tr.end(span)
	g := newLoadgen(c, spec.mix, seed, fmt.Sprintf("r%d", r), dirs, pool, tr, span)
	res.setup = time.Since(setupStart)

	killAfter := sh.killAt + time.Duration(r)*heartbeat/time.Duration(sh.rounds)
	res.before = snapProc()
	g.t0 = time.Now()
	killed := make(chan struct{})
	killer := time.AfterFunc(killAfter, func() {
		defer close(killed)
		ks := tr.begin("kill", "bench", span)
		g.killAt.Store(int64(time.Since(g.t0)))
		c.MDS[victim].Tr.Close()
		g.qualifyFrom.Store(int64(time.Since(g.t0)))
		tr.end(ks)
		if !pollTakeover {
			return
		}
		ts := tr.begin("mams.takeover", "bench", span)
		defer tr.end(ts)
		for deadline := time.Now().Add(settle); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if c.Active() >= 0 {
				g.takeoverAt.Store(int64(time.Since(g.t0)))
				return
			}
		}
	})

	const period = time.Second / openRate
	posted := 0
	for {
		now := time.Since(g.t0)
		// The window stays open until service is back, so that a slow
		// failover is measured instead of cut off.
		if now >= sh.roundLen && (g.firstAck.Load() != 0 || now >= sh.roundLen+settle) {
			break
		}
		if due := int(now/period) + 1; due > posted {
			res.maxLate = max(res.maxLate, now-time.Duration(posted)*period)
			from := posted
			c.ClientProc.Tr.Do(func() {
				for i := from; i < due; i++ {
					g.issue(time.Duration(i)*period, nil)
				}
			})
			posted = due
		}
		sleepUntil(g.t0.Add(time.Duration(posted) * period))
	}
	res.load = time.Since(g.t0)
	res.after = snapProc()
	if killer.Stop() {
		return res, fmt.Errorf("round %d ended before its kill at %v", r, killAfter)
	}
	<-killed

	res.recs = g.drain()
	res.killAt = time.Duration(g.killAt.Load())
	res.firstAck = time.Duration(g.firstAck.Load())
	res.takeoverAt = time.Duration(g.takeoverAt.Load())
	now := c.Active()
	res.moved = now >= 0 && now != victim

	// Durability audit: every acknowledged mutation must be visible on the
	// new active.
	var written []string
	for _, rec := range res.recs {
		if rec.kind.Mutating() && rec.acked() {
			written = append(written, rec.path)
		}
	}
	res.lost, err = runBatch(c.ClientProc.Tr, len(written), func(i int, done func(bool)) {
		c.Client.Stat(written[i], func(info *namespace.Info, err error) { done(err == nil && info != nil) })
	})
	return res, err
}
