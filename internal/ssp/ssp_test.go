package ssp

import (
	"errors"
	"fmt"
	"testing"

	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// poolHost is a process hosting one pool node and one client.
type poolHost struct {
	node   transport.Node
	pool   *PoolNode
	client *Client
}

func (h *poolHost) HandleMessage(from transport.NodeID, msg any) {}
func (h *poolHost) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	if h.pool.MaybeHandleRequest(from, req, reply) {
		return
	}
	reply(nil)
}

type sspEnv struct {
	sp    *transporttest.Sim
	hosts []*poolHost
	ids   []transport.NodeID
}

func newSSPEnv(t *testing.T, n, replica int) *sspEnv {
	t.Helper()
	sp := transporttest.NewSim(1, 1_000_000, 200*sim.Microsecond, 0, nil)
	env := &sspEnv{sp: sp}
	for i := 0; i < n; i++ {
		env.ids = append(env.ids, transport.NodeID(fmt.Sprintf("pool%d", i)))
	}
	for i := 0; i < n; i++ {
		h := &poolHost{}
		h.node = sp.Net.Listen(env.ids[i], h)
		h.pool = NewPoolNode(h.node, DefaultParams())
		env.hosts = append(env.hosts, h)
	}
	for _, h := range env.hosts {
		h.client = NewClient(h.node, env.ids, h.pool, replica)
	}
	return env
}

func TestPutReplicatesToRequestedCopies(t *testing.T) {
	e := newSSPEnv(t, 4, 3)
	key := Key{Group: "g1", Kind: KindJournal, Seq: 1}
	var putErr error
	done := false
	e.hosts[0].client.Put(key, []byte("batch"), 5, func(err error) { putErr, done = err, true })
	e.sp.World.Run()
	if !done || putErr != nil {
		t.Fatalf("put done=%v err=%v", done, putErr)
	}
	copies := 0
	for _, h := range e.hosts {
		if h.pool.Has(key) {
			copies++
		}
	}
	if copies != 3 {
		t.Fatalf("copies = %d, want 3", copies)
	}
	// The writer's own node must hold one (local-first policy).
	if !e.hosts[0].pool.Has(key) {
		t.Fatal("local pool node missing the object")
	}
}

func TestGetPrefersLocal(t *testing.T) {
	e := newSSPEnv(t, 3, 3)
	key := Key{Group: "g", Kind: KindImage, Seq: 10}
	e.hosts[0].client.Put(key, []byte("img"), 1000, func(error) {})
	e.sp.World.Run()
	start := e.sp.World.Now()
	var gotLocal, gotRemote sim.Time
	e.hosts[0].client.Get(key, func(data []byte, size int64, err error) {
		if err != nil || string(data) != "img" || size != 1000 {
			t.Errorf("local get: %v %q %d", err, data, size)
		}
		gotLocal = e.sp.World.Now() - start
	})
	e.sp.World.Run()
	// A node without a local copy must still read it (remote), slower.
	var missHost *poolHost
	for _, h := range e.hosts {
		if !h.pool.Has(key) {
			missHost = h
		}
	}
	if missHost == nil {
		t.Skip("replication covered every node")
	}
	start = e.sp.World.Now()
	missHost.client.Get(key, func(data []byte, size int64, err error) {
		if err != nil || string(data) != "img" {
			t.Errorf("remote get: %v %q", err, data)
		}
		gotRemote = e.sp.World.Now() - start
	})
	e.sp.World.Run()
	if gotRemote <= gotLocal {
		t.Fatalf("remote read (%v) should cost more than local (%v)", gotRemote, gotLocal)
	}
}

func TestLogicalSizeDrivesCost(t *testing.T) {
	e := newSSPEnv(t, 2, 1)
	small := Key{Group: "g", Kind: KindImage, Seq: 1}
	big := Key{Group: "g", Kind: KindImage, Seq: 2}
	e.hosts[0].client.Put(small, []byte("x"), 1<<20, func(error) {})
	e.sp.World.Run()
	e.hosts[0].client.Put(big, []byte("x"), 512<<20, func(error) {})
	e.sp.World.Run()

	read := func(k Key) sim.Time {
		start := e.sp.World.Now()
		var took sim.Time
		e.hosts[0].client.Get(k, func([]byte, int64, error) { took = e.sp.World.Now() - start })
		e.sp.World.Run()
		return took
	}
	tSmall, tBig := read(small), read(big)
	if tBig < 50*tSmall {
		t.Fatalf("512MB read (%v) should dwarf 1MB read (%v)", tBig, tSmall)
	}
	// 512 MB at ~110 MB/s ≈ 4.7 s.
	if tBig < 3*sim.Second || tBig > 8*sim.Second {
		t.Fatalf("512MB local read took %v, want ~4.7s", tBig)
	}
}

func TestGetMissingObject(t *testing.T) {
	e := newSSPEnv(t, 3, 2)
	var gotErr error
	done := false
	e.hosts[0].client.Get(Key{Group: "g", Kind: KindImage, Seq: 99}, func(d []byte, s int64, err error) {
		gotErr, done = err, true
	})
	e.sp.World.Run()
	if !done || !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
}

func TestGetFallsBackWhenLocalReplicaAbsent(t *testing.T) {
	e := newSSPEnv(t, 4, 1) // single copy
	key := Key{Group: "g", Kind: KindJournal, Seq: 7}
	e.hosts[1].client.Put(key, []byte("only-on-1"), 10, func(error) {})
	e.sp.World.Run()
	var got string
	e.hosts[2].client.Get(key, func(d []byte, s int64, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = string(d)
	})
	e.sp.World.Run()
	if got != "only-on-1" {
		t.Fatalf("got %q", got)
	}
}

func TestGetSkipsCrashedReplica(t *testing.T) {
	e := newSSPEnv(t, 3, 3)
	key := Key{Group: "g", Kind: KindJournal, Seq: 3}
	e.hosts[0].client.Put(key, []byte("v"), 10, func(error) {})
	e.sp.World.Run()
	// Reader without local copy? All three have copies here; crash one
	// remote and read from a survivor through fallback ordering.
	e.hosts[0].node.Crash()
	var got string
	var gotErr error
	e.hosts[1].client.Get(key, func(d []byte, s int64, err error) { got, gotErr = string(d), err })
	e.sp.World.RunFor(300 * sim.Second)
	if gotErr != nil || got != "v" {
		t.Fatalf("got %q err=%v", got, gotErr)
	}
}

func TestListMergesGroupKeysSorted(t *testing.T) {
	e := newSSPEnv(t, 3, 1) // one copy each → views differ per node
	put := func(host int, k Key) {
		e.hosts[host].client.Put(k, nil, 10, func(error) {})
		e.sp.World.Run()
	}
	put(0, Key{Group: "g", Kind: KindJournal, Seq: 2})
	put(1, Key{Group: "g", Kind: KindJournal, Seq: 1})
	put(2, Key{Group: "g", Kind: KindImage, Seq: 1})
	put(0, Key{Group: "other", Kind: KindJournal, Seq: 9})

	var keys []Key
	e.hosts[2].client.List("g", func(ks []Key, sizes map[Key]int64, err error) {
		if err != nil {
			t.Errorf("list: %v", err)
		}
		keys = ks
	})
	e.sp.World.Run()
	if len(keys) != 3 {
		t.Fatalf("keys = %+v", keys)
	}
	if keys[0].Kind != KindImage || keys[1].Seq != 1 || keys[2].Seq != 2 {
		t.Fatalf("order = %+v", keys)
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	e := newSSPEnv(t, 3, 3)
	key := Key{Group: "g", Kind: KindImage, Seq: 1}
	e.hosts[0].client.Put(key, []byte("x"), 10, func(error) {})
	e.sp.World.Run()
	e.hosts[0].client.Delete(key)
	e.sp.World.Run()
	for i, h := range e.hosts {
		if h.pool.Has(key) {
			t.Fatalf("pool %d still has object", i)
		}
	}
}

func TestReplicaClamping(t *testing.T) {
	e := newSSPEnv(t, 2, 10) // asks for 10 copies, only 2 nodes
	key := Key{Group: "g", Kind: KindJournal, Seq: 1}
	var err error
	e.hosts[0].client.Put(key, nil, 1, func(e2 error) { err = e2 })
	e.sp.World.Run()
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if e.hosts[0].pool.ObjectCount() != 1 || e.hosts[1].pool.ObjectCount() != 1 {
		t.Fatal("clamped replication incomplete")
	}
}

func TestWriteCostScalesWithLogicalSize(t *testing.T) {
	e := newSSPEnv(t, 1, 1)
	timeFor := func(size int64) sim.Time {
		start := e.sp.World.Now()
		var took sim.Time
		e.hosts[0].client.Put(Key{Group: "t", Kind: KindImage, Seq: uint64(size)}, nil, size,
			func(error) { took = e.sp.World.Now() - start })
		e.sp.World.Run()
		return took
	}
	small, big := timeFor(1<<20), timeFor(256<<20)
	if big < 20*small {
		t.Fatalf("write cost not size-dependent: small=%v big=%v", small, big)
	}
}

func TestListWithAllPoolNodesDown(t *testing.T) {
	e := newSSPEnv(t, 3, 2)
	key := Key{Group: "g", Kind: KindJournal, Seq: 1}
	e.hosts[0].client.Put(key, nil, 1, func(error) {})
	e.sp.World.Run()
	for _, h := range e.hosts[1:] {
		h.node.Crash()
	}
	// The surviving host still lists (its own view merges in).
	var err error
	var n int
	e.hosts[0].client.List("g", func(ks []Key, _ map[Key]int64, e2 error) { err, n = e2, len(ks) })
	e.sp.World.RunFor(10 * sim.Second)
	if err != nil || n != 1 {
		t.Fatalf("list with peers down: err=%v n=%d", err, n)
	}
}

func TestPutOverwriteReplacesObject(t *testing.T) {
	e := newSSPEnv(t, 2, 2)
	key := Key{Group: "g", Kind: KindImage, Seq: 5}
	e.hosts[0].client.Put(key, []byte("v1"), 2, func(error) {})
	e.sp.World.Run()
	e.hosts[0].client.Put(key, []byte("v2"), 2, func(error) {})
	e.sp.World.Run()
	var got string
	e.hosts[1].client.Get(key, func(d []byte, _ int64, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = string(d)
	})
	e.sp.World.Run()
	if got != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestGetAfterWriterCrashServedByReplica(t *testing.T) {
	e := newSSPEnv(t, 3, 2)
	key := Key{Group: "g", Kind: KindJournal, Seq: 9}
	e.hosts[0].client.Put(key, []byte("survives"), 8, func(error) {})
	e.sp.World.Run()
	e.hosts[0].node.Crash()
	var got string
	// Find a host that did NOT get a replica and read through fallback.
	reader := e.hosts[1]
	if reader.pool.Has(key) {
		reader = e.hosts[2]
	}
	reader.client.Get(key, func(d []byte, _ int64, err error) {
		if err == nil {
			got = string(d)
		}
	})
	// The first fallback target may be the crashed writer, whose RPC only
	// times out after the (generous, image-sized) client deadline.
	e.sp.World.RunFor(300 * sim.Second)
	if got != "survives" && !e.hosts[1].pool.Has(key) && !e.hosts[2].pool.Has(key) {
		t.Skip("both replicas landed on the crashed writer")
	}
	if got != "survives" {
		t.Fatalf("replica read failed, got %q", got)
	}
}

// TestPutAvoidsSuspectMembers pins the view-driven placement hint: members
// the avoid predicate marks down are skipped at Put time, so a surviving
// writer places all copies on live nodes instead of wedging on a dead
// peer's RPC timeout. With every remote suspect, the local copy alone
// satisfies the put (lone-survivor degraded mode).
func TestPutAvoidsSuspectMembers(t *testing.T) {
	e := newSSPEnv(t, 3, 2)
	down := map[transport.NodeID]bool{e.ids[1]: true}
	e.hosts[0].client.SetAvoid(func(id transport.NodeID) bool { return down[id] })
	e.sp.World.Defer("crash", func() { e.hosts[1].node.Crash() })

	key := Key{Group: "g1", Kind: KindJournal, Seq: 1}
	var putErr error
	done := false
	var doneAt sim.Time
	e.hosts[0].client.Put(key, []byte("batch"), 5, func(err error) {
		putErr, done, doneAt = err, true, e.sp.World.Now()
	})
	e.sp.World.Run()
	if !done || putErr != nil {
		t.Fatalf("put done=%v err=%v, want success around the dead member", done, putErr)
	}
	if doneAt > sim.Second {
		t.Fatalf("put finished at %v, want promptly (no timeout on the dead member)", doneAt)
	}
	if e.hosts[1].pool.Has(key) {
		t.Fatal("avoided member received a copy")
	}
	if !e.hosts[0].pool.Has(key) || !e.hosts[2].pool.Has(key) {
		t.Fatal("live members missing copies")
	}

	// All remotes suspect: the local replica alone absorbs the write.
	down[e.ids[2]] = true
	key2 := Key{Group: "g1", Kind: KindJournal, Seq: 2}
	done, putErr = false, nil
	e.hosts[0].client.Put(key2, []byte("batch2"), 5, func(err error) { putErr, done = err, true })
	e.sp.World.Run()
	if !done || putErr != nil {
		t.Fatalf("lone-survivor put done=%v err=%v", done, putErr)
	}
	if !e.hosts[0].pool.Has(key2) {
		t.Fatal("local copy missing in lone-survivor mode")
	}
}

func TestZeroParamsAreFree(t *testing.T) {
	var zero Params
	for _, size := range []int64{0, 4 << 10, 1 << 30} {
		if w, r, x := zero.writeCost(size), zero.readCost(size), zero.transferCost(size); w != 0 || r != 0 || x != 0 {
			t.Fatalf("zero Params charge %v / %v / %v for %d bytes, want 0", w, r, x, size)
		}
	}
	if got := (Brownout{SlowFactor: 8}).stretch(0); got != 0 {
		t.Fatalf("stretch(0) = %v", got)
	}
	// The calibration is untouched: 300 µs + 4 KiB at 90 MB/s.
	want := 300*sim.Microsecond + 45511*sim.Nanosecond
	if got := DefaultParams().writeCost(4 << 10); got != want {
		t.Fatalf("calibrated 4 KiB write = %v, want %v", got, want)
	}
	if got := DefaultParams().transferCost(117e6); got != sim.Second {
		t.Fatalf("calibrated 117 MB transfer = %v, want 1s", got)
	}
}

// A pool built from the zero Params serves stores and fetches inside the
// request handler — no timer between request and reply — while LocalGet
// still defers its callback until after it has returned.
func TestZeroParamsPoolServesInline(t *testing.T) {
	sp := transporttest.NewSim(1, 1_000_000, 200*sim.Microsecond, 0, nil)
	h := &poolHost{}
	h.node = sp.Net.Listen("pool0", h)
	h.pool = NewPoolNode(h.node, Params{})
	key := Key{Group: "g", Kind: KindJournal, Seq: 1}

	replies := 0
	h.pool.MaybeHandleRequest("peer", storeReq{Key: key, Data: []byte("batch"), Size: 5}, func(any) { replies++ })
	h.pool.MaybeHandleRequest("peer", fetchReq{Key: key}, func(resp any) {
		if fr := resp.(fetchResp); string(fr.Data) != "batch" || fr.Err != "" {
			t.Errorf("fetch = %+v", fr)
		}
		replies++
	})
	if replies != 2 {
		t.Fatalf("%d of 2 replies ran before the handler returned", replies)
	}

	returned, ran := false, false
	h.pool.LocalGet(key, func(data []byte, _ int64, err error) {
		if !returned || err != nil || string(data) != "batch" {
			t.Errorf("LocalGet callback: returned=%v data=%q err=%v", returned, data, err)
		}
		ran = true
	})
	returned = true
	sp.World.Run()
	if !ran {
		t.Fatal("LocalGet callback never ran")
	}
}
