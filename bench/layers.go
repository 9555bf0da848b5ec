package main

import (
	"errors"
	"fmt"
	"time"

	"mams/internal/coord"
	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/nettrans"
	"mams/internal/obs"
	"mams/internal/partition"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/transport"
	"mams/internal/wire"
)

// The layer micro-suite: fixed inputs, one layer at a time, single-threaded,
// built from the packages' public constructors only. Each timing runs for
// `budget` and gets one span. The batch size (64 records) is what a
// saturated wire_create seals; the namespace is the 100k files a long
// wire_create run leaves behind.
const (
	batchRecs  = 64
	imageFiles = 100_000
	objectSize = 4 << 10
)

type layerSuite struct {
	res    *result
	tr     *tracer
	parent obs.SpanID
	budget time.Duration
}

// timeLoop calls chunk until the budget is spent and returns ns per unit of
// work; chunk returns how many units it did.
func (s *layerSuite) timeLoop(name string, chunk func() int) float64 {
	sp := s.tr.begin(name, "layers", s.parent)
	defer s.tr.end(sp)
	units := 0
	start := time.Now()
	for time.Since(start) < s.budget {
		units += chunk()
	}
	return float64(time.Since(start)) / float64(units)
}

// timeEach is timeLoop for calls long enough to time one by one; it returns
// the median call in ms.
func (s *layerSuite) timeEach(name string, call func()) float64 {
	sp := s.tr.begin(name, "layers", s.parent)
	defer s.tr.end(sp)
	var each []float64
	for start := time.Now(); time.Since(start) < s.budget || len(each) < 3; {
		t := time.Now()
		call()
		each = append(each, ms(time.Since(t)))
	}
	return median(each)
}

func benchPath(i int) string { return fmt.Sprintf("/bench/d%02d/f%07d", i%benchDirs, i) }

func createRecords(from, n int) []journal.Record {
	recs := make([]journal.Record, n)
	for i := range recs {
		recs[i] = journal.Record{Op: journal.OpCreate, Path: benchPath(from + i), Size: 1024, Perm: 0o644, MTime: int64(from + i)}
	}
	return recs
}

// newTree returns a tree holding the benchmark's directories and n files.
func newTree(n int) (*namespace.Tree, error) {
	t := namespace.New()
	if err := t.MkdirAll("/bench", 0o755, 0); err != nil {
		return nil, err
	}
	for d := range benchDirs {
		if err := t.Mkdir(fmt.Sprintf("/bench/d%02d", d), 0o755, 0); err != nil {
			return nil, err
		}
	}
	for i := range n {
		if err := t.Create(benchPath(i), 1024, 0o644, int64(i), int64(i+1)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runLayers runs the whole suite into s.res.
func (s *layerSuite) runLayers(seed uint64) error {
	for _, part := range []func(uint64) error{s.codecLayers, s.namespaceLayers, s.nettransLayers, s.sspLayers, s.coordLayers} {
		if err := part(seed); err != nil {
			return err
		}
	}
	return nil
}

// codecLayers times internal/wire and internal/journal on one sealed batch
// of create records.
func (s *layerSuite) codecLayers(uint64) error {
	recs := createRecords(0, batchRecs)

	var buf []byte
	ns := s.timeLoop("wire.encode", func() int {
		w := wire.NewWriter(64 + 48*len(recs))
		for _, r := range recs {
			w.Uvarint(r.TxID)
			w.U8(uint8(r.Op))
			w.String(r.Path)
			w.String(r.Dest)
			w.Varint(r.Size)
			w.U16(r.Perm)
			w.Varint(r.MTime)
		}
		buf = w.Bytes()
		return len(recs)
	})
	s.res.add("wire.encode_ns_per_rec", "ns", "wall", ns)
	var decodeErr error
	ns = s.timeLoop("wire.decode", func() int {
		r := wire.NewReader(buf)
		for range recs {
			r.Uvarint()
			r.U8()
			_ = r.String()
			_ = r.String()
			r.Varint()
			r.U16()
			r.Varint()
		}
		if err := r.Finish(); err != nil {
			decodeErr = err
		}
		return len(recs)
	})
	if decodeErr != nil {
		return fmt.Errorf("wire decode of its own encoding: %w", decodeErr)
	}
	s.res.add("wire.decode_ns_per_rec", "ns", "wall", ns)

	builder := journal.NewBuilder(1, 0, 0)
	var batch journal.Batch
	ns = s.timeLoop("journal.add_seal", func() int {
		for _, r := range recs {
			builder.Add(r)
		}
		batch = builder.Seal()
		return len(recs)
	})
	s.res.add("journal.add_seal_ns_per_rec", "ns", "wall", ns)
	ns = s.timeLoop("journal.encode", func() int {
		buf = batch.Encode()
		return len(batch.Records)
	})
	s.res.add("journal.encode_ns_per_rec", "ns", "wall", ns)
	s.res.add("journal.bytes_per_rec", "B", "count", float64(len(buf))/float64(len(batch.Records)))
	ns = s.timeLoop("journal.decode", func() int {
		got, err := journal.DecodeBatch(buf)
		if err != nil || len(got.Records) != len(batch.Records) {
			decodeErr = fmt.Errorf("journal decode of its own encoding: %d records, %v", len(got.Records), err)
		}
		return len(batch.Records)
	})
	if decodeErr != nil {
		return decodeErr
	}
	s.res.add("journal.decode_ns_per_rec", "ns", "wall", ns)

	// Append is timed over a bounded log: 256 consecutive batches, then
	// Reset, so memory stays flat however fast Append gets.
	chain := make([]journal.Batch, 256)
	builder = journal.NewBuilder(1, 0, 0)
	for i := range chain {
		for _, r := range recs {
			builder.Add(r)
		}
		chain[i] = builder.Seal()
	}
	log := journal.NewLog()
	var appendErr error
	ns = s.timeLoop("journal.append", func() int {
		log.Reset()
		for _, b := range chain {
			if err := log.Append(b); err != nil {
				appendErr = err
			}
		}
		return len(chain)
	})
	if appendErr != nil {
		return fmt.Errorf("journal append: %w", appendErr)
	}
	s.res.add("journal.append_ns_per_batch", "ns", "wall", ns)
	return nil
}

// namespaceLayers times internal/namespace on a 100k-file tree, and
// internal/partition's routing of the same paths.
func (s *layerSuite) namespaceLayers(seed uint64) error {
	big, err := newTree(imageFiles)
	if err != nil {
		return err
	}
	rnd := rng.New(seed).Split("layers")
	const chunk = 10_000
	known := make([]string, chunk)
	for i := range known {
		known[i] = benchPath(rnd.Intn(imageFiles))
	}
	fresh := createRecords(imageFiles, chunk)

	var layerErr error
	ns := s.timeLoop("namespace.create", func() int {
		t, err := newTree(chunk)
		if err != nil {
			layerErr = err
		}
		_ = t
		return chunk
	})
	s.res.add("namespace.create_ns", "ns", "wall", ns)
	ns = s.timeLoop("namespace.stat", func() int {
		for _, p := range known {
			if _, err := big.Stat(p); err != nil {
				layerErr = err
			}
		}
		return len(known)
	})
	s.res.add("namespace.stat_ns", "ns", "wall", ns)
	ns = s.timeLoop("namespace.validate", func() int {
		for _, r := range fresh {
			if err := big.Validate(r); err != nil {
				layerErr = err
			}
		}
		return len(fresh)
	})
	s.res.add("namespace.validate_ns", "ns", "wall", ns)

	builder := journal.NewBuilder(1, 0, 0)
	var batches []journal.Batch
	for from := 0; from < chunk; from += batchRecs {
		for _, r := range createRecords(from, batchRecs) {
			builder.Add(r)
		}
		batches = append(batches, builder.Seal())
	}
	ns = s.timeLoop("namespace.apply", func() int {
		t, err := newTree(0)
		if err != nil {
			layerErr = err
			return 1
		}
		for _, b := range batches {
			if err := t.ApplyBatch(b); err != nil {
				layerErr = err
			}
		}
		return len(batches) * batchRecs
	})
	s.res.add("namespace.apply_ns_per_rec", "ns", "wall", ns)

	var image []byte
	s.res.add("namespace.image_save_ms", "ms", "wall", s.timeEach("namespace.image_save", func() { image = big.SaveImage() }))
	s.res.add("namespace.image_load_ms", "ms", "wall", s.timeEach("namespace.image_load", func() {
		if t, err := namespace.LoadImage(image); err != nil {
			layerErr = err
		} else if t.Files() != imageFiles {
			layerErr = fmt.Errorf("image of %d files loaded with %d", imageFiles, t.Files())
		}
	}))

	part := partition.NewSharded(1, partition.DefaultSlotsPerGroup, 0)
	ns = s.timeLoop("partition.home_group", func() int {
		for _, p := range known {
			if part.HomeGroup(p) != 0 {
				layerErr = errors.New("one-group partitioner routed away from group 0")
			}
		}
		return len(known)
	})
	s.res.add("partition.home_group_ns", "ns", "wall", ns)
	return layerErr
}

// ---- loopback fixtures ----

// loopback is a set of nettrans processes on 127.0.0.1 sharing one address
// book.
type loopback struct {
	book *nettrans.AddrBook
	trs  []*nettrans.Transport
}

func (l *loopback) spawn(id transport.NodeID) (*nettrans.Transport, error) {
	if l.book == nil {
		l.book = nettrans.NewAddrBook()
	}
	tr, err := nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: l.book})
	if err != nil {
		return nil, err
	}
	l.book.Set(id, tr.Addr())
	l.trs = append(l.trs, tr)
	return tr, nil
}

func (l *loopback) close() {
	for _, tr := range l.trs {
		tr.Close()
	}
}

// chained is what chain measured.
type chained struct {
	lat     []float64 // µs per call
	elapsed time.Duration
	failed  int
}

// chain keeps `window` calls of op in flight on tr's event loop, each next
// call made from the previous one's callback, until the budget is spent.
func chain(tr *nettrans.Transport, window int, budget time.Duration, op func(done func(ok bool))) chained {
	var res chained
	finished := make(chan struct{})
	var t0 time.Time
	outstanding := 0
	var issue func()
	issue = func() {
		start := time.Now()
		outstanding++
		op(func(ok bool) {
			now := time.Now()
			res.lat = append(res.lat, us(now.Sub(start)))
			if !ok {
				res.failed++
			}
			outstanding--
			if now.Sub(t0) < budget {
				issue()
			} else if outstanding == 0 {
				res.elapsed = now.Sub(t0)
				close(finished)
			}
		})
	}
	tr.Do(func() {
		t0 = time.Now()
		for range window {
			issue()
		}
	})
	<-finished
	return res
}

type echoHost struct{ reply mams.OpReply }

func (echoHost) HandleMessage(transport.NodeID, any) {}
func (e echoHost) HandleRequest(_ transport.NodeID, _ any, reply func(any)) {
	reply(e.reply)
}

type silentHost struct{}

func (silentHost) HandleMessage(transport.NodeID, any) {}

// nettransLayers times internal/nettrans alone: two processes, one echoing
// a stat-sized reply to a stat-sized request.
func (s *layerSuite) nettransLayers(uint64) error {
	var lb loopback
	defer lb.close()
	a, err := lb.spawn("caller")
	if err != nil {
		return err
	}
	b, err := lb.spawn("echo")
	if err != nil {
		return err
	}
	var caller transport.Node
	a.Do(func() { caller = a.Listen("caller", silentHost{}) })
	b.Do(func() {
		b.Listen("echo", echoHost{mams.OpReply{Info: &namespace.Info{Path: benchPath(0), Name: "f0000000", Size: 1024, Perm: 0o644}}})
	})
	req := mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: benchPath(0)}
	call := func(done func(bool)) {
		caller.Call("echo", req, sim.Second, func(resp any, err error) {
			_, isReply := resp.(mams.OpReply)
			done(err == nil && isReply)
		})
	}

	sp := s.tr.begin("nettrans.call", "layers", s.parent, "window", "1")
	one := chain(a, 1, s.budget, call)
	s.tr.end(sp)
	sp = s.tr.begin("nettrans.call", "layers", s.parent, "window", fmt.Sprint(window))
	before := snapProc()
	many := chain(a, window, s.budget, call)
	after := snapProc()
	s.tr.end(sp)
	if one.failed+many.failed > 0 {
		return fmt.Errorf("nettrans echo: %d calls failed", one.failed+many.failed)
	}
	s.res.add("nettrans.rtt_us", "us", "wall", median(one.lat))
	s.res.add("nettrans.calls_per_s", "1/s", "wall", float64(len(many.lat))/many.elapsed.Seconds())
	s.res.add("nettrans.allocs_per_call", "count", "count", float64(after.mallocs-before.mallocs)/float64(len(many.lat)))

	sp = s.tr.begin("nettrans.post", "layers", s.parent)
	var posts []float64
	for start := time.Now(); time.Since(start) < s.budget; {
		t := time.Now()
		a.Do(func() {})
		posts = append(posts, us(time.Since(t)))
	}
	s.tr.end(sp)
	s.res.add("nettrans.post_us", "us", "wall", median(posts))

	// How late a 50 µs After fires: this lag is in every unloaded stat,
	// which waits out ReadSvc on such a timer.
	const ask = 50 * time.Microsecond
	sp = s.tr.begin("nettrans.timer", "layers", s.parent)
	timers := chain(a, 1, s.budget, func(done func(bool)) {
		caller.After(sim.Time(ask), "bench-lag", func() { done(true) })
	})
	s.tr.end(sp)
	s.res.add("nettrans.timer_lag_us", "us", "wall", median(timers.lat)-us(ask))
	return nil
}

// poolHost is a process that only serves its pool node.
type poolHost struct{ pool *ssp.PoolNode }

func (*poolHost) HandleMessage(transport.NodeID, any) {}
func (h *poolHost) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	if !h.pool.MaybeHandleRequest(from, req, reply) {
		reply(nil)
	}
}

// sspLayers times internal/ssp as a metadata server uses it: a 3-node pool,
// the writer co-located with one node, two replicas per object.
func (s *layerSuite) sspLayers(uint64) error {
	var lb loopback
	defer lb.close()
	ids := []transport.NodeID{"pool0", "pool1", "pool2"}
	var writer *nettrans.Transport
	var client *ssp.Client
	for i, id := range ids {
		tr, err := lb.spawn(id)
		if err != nil {
			return err
		}
		tr.Do(func() {
			h := &poolHost{}
			node := tr.Listen(id, h)
			h.pool = ssp.NewPoolNode(node, ssp.DefaultParams())
			if i == 0 {
				writer, client = tr, ssp.NewClient(node, ids, h.pool, 2)
			}
		})
	}
	data := make([]byte, objectSize)
	// Puts cycle over a fixed key set so the pool stays small; gets read
	// back only keys that were put.
	const keys = 256
	key := func(n int) ssp.Key { return ssp.Key{Group: "bench", Kind: ssp.KindJournal, Seq: uint64(n%keys + 1)} }

	n := 0
	sp := s.tr.begin("ssp.put", "layers", s.parent)
	puts := chain(writer, 1, s.budget, func(done func(bool)) {
		client.Put(key(n), data, int64(len(data)), func(err error) { done(err == nil) })
		n++
	})
	s.tr.end(sp)
	stored := min(keys, len(puts.lat))
	sp = s.tr.begin("ssp.get", "layers", s.parent)
	gets := chain(writer, 1, s.budget, func(done func(bool)) {
		client.Get(key(n%stored), func(got []byte, _ int64, err error) { done(err == nil && len(got) == len(data)) })
		n++
	})
	s.tr.end(sp)
	if puts.failed+gets.failed > 0 {
		return fmt.Errorf("ssp: %d puts and %d gets failed", puts.failed, gets.failed)
	}
	s.res.add("ssp.put_us", "us", "wall", median(puts.lat))
	s.res.add("ssp.get_us", "us", "wall", median(gets.lat))
	return nil
}

// coordHost is a process that only runs a coordination client.
type coordHost struct{ cli *coord.Client }

func (h *coordHost) HandleMessage(from transport.NodeID, msg any) { h.cli.MaybeHandle(from, msg) }

// coordLayers times internal/coord: SetData through a 3-server ensemble,
// the write a takeover makes to publish the new view.
func (s *layerSuite) coordLayers(uint64) error {
	var lb loopback
	defer lb.close()
	ids := []transport.NodeID{"coord0", "coord1", "coord2"}
	for i, id := range ids {
		tr, err := lb.spawn(id)
		if err != nil {
			return err
		}
		tr.Do(func() {
			coord.NewServer(tr, coord.ServerConfig{ID: id, Ensemble: ids, Bootstrap: i == 0}, nil).Start()
		})
	}
	tr, err := lb.spawn("coord-client")
	if err != nil {
		return err
	}
	host := &coordHost{}
	ready := make(chan error, 1)
	data := make([]byte, 256)
	tr.Do(func() {
		node := tr.Listen("coord-client", host)
		host.cli = coord.NewClient(node, coord.ClientConfig{
			Servers: ids, SessionTimeout: 1200 * sim.Millisecond, HeartbeatEvery: sim.Time(heartbeat),
		}, nil)
		// The ensemble elects its leader after it boots, and a client that
		// finds none gives up within milliseconds: retry like mams.Server.
		var start func()
		start = func() {
			host.cli.Start(func(err error) {
				if err != nil {
					node.After(100*sim.Millisecond, "bench-coord-retry", start)
					return
				}
				host.cli.Create("/bench", data, func(_ string, err error) { ready <- err })
			})
		}
		start()
	})
	select {
	case err := <-ready:
		if err != nil {
			return fmt.Errorf("coord session: %w", err)
		}
	case <-time.After(settle):
		return errors.New("coord ensemble never served a session")
	}

	sp := s.tr.begin("coord.setdata", "layers", s.parent)
	sets := chain(tr, 1, s.budget, func(done func(bool)) {
		host.cli.SetData("/bench", data, -1, func(_ int64, err error) { done(err == nil) })
	})
	s.tr.end(sp)
	if sets.failed > 0 {
		return fmt.Errorf("coord: %d of %d SetData calls failed", sets.failed, len(sets.lat))
	}
	s.res.add("coord.setdata_us", "us", "wall", median(sets.lat))
	return nil
}
