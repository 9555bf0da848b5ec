package mams

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// standby is a scripted replication target: it answers each AppendBatch at
// once (instant) or holds the reply until the test releases it.
type standby struct {
	node    transport.Node
	instant bool
	held    map[uint64]func(any) // sn → reply
	notices []uint64             // CommitNotice watermarks received
}

func (sb *standby) HandleMessage(_ transport.NodeID, msg any) {
	if n, ok := msg.(CommitNotice); ok {
		sb.notices = append(sb.notices, n.Through)
	}
}

func (sb *standby) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	ab := req.(AppendBatch)
	if sb.instant {
		reply(AppendAck{From: sb.node.ID(), SN: ab.Batch.SN, OK: true})
		return
	}
	sb.held[ab.Batch.SN] = reply
}

// ack releases the held reply for batch sn.
func (sb *standby) ack(sn uint64, ok bool) {
	sb.held[sn](AppendAck{From: sb.node.ID(), SN: sn, OK: ok})
	delete(sb.held, sn)
}

// rig drives one commitPipeline over the sim plane with scripted standbys,
// a fake pool and a fake fence — no coordination service, no cluster.
type rig struct {
	t        testing.TB
	sim      *transporttest.Sim
	active   transport.Node
	cpu      transport.Lane
	p        *commitPipeline
	standbys []*standby
	puts     map[uint64]func(error) // held pool writes by sn
	putCalls int
	fenced   []transport.NodeID
	fences   []func()
}

type nopHandler struct{}

func (nopHandler) HandleMessage(transport.NodeID, any) {}

// newRig opens a pipeline with n standbys. Pool writes and fences are held
// until the test lands them, unless instant (every write lands, every
// standby acks, at once).
func newRig(t testing.TB, params Params, n int, instant bool) *rig {
	r := &rig{t: t, sim: transporttest.NewSim(1, 0, 0, 0, nil), puts: map[uint64]func(error){}}
	r.active = r.sim.Net.Listen("active", nopHandler{})
	var ids []transport.NodeID
	for i := 0; i < n; i++ {
		sb := &standby{instant: instant, held: map[uint64]func(any){}}
		sb.node = r.sim.Net.Listen(transport.NodeID(fmt.Sprintf("s%d", i)), sb)
		r.standbys = append(r.standbys, sb)
		ids = append(ids, sb.node.ID())
	}
	r.p = newCommitPipeline(pipeWorld{
		node:   r.active,
		tree:   namespace.New(),
		log:    journal.NewLog(),
		cpu:    &r.cpu,
		lastTx: new(uint64),
		put: func(sn uint64, _ []byte, done func(error)) {
			r.putCalls++
			if instant {
				done(nil)
				return
			}
			r.puts[sn] = done
		},
		fence: func(id transport.NodeID, done func()) {
			r.fenced = append(r.fenced, id)
			r.fences = append(r.fences, done)
		},
		targets: func() []transport.NodeID { return ids },
		// A client ack's reply gets the wait's error.
		ack: func(op opAck, _ uint64, err error) { op.reply(err) },
	}, params, 1)
	return r
}

// reply counts how often an awaited reply ran, and what it saw.
type reply struct {
	calls int
	err   error
	// durable is the commit watermark when the reply ran.
	durable uint64
}

// create journals one file create and awaits it as a client ack.
func (r *rig) create(path string) (uint64, *reply) {
	sn, err := r.p.journal(journal.Record{Op: journal.OpCreate, Path: path, Perm: 0o644})
	if err != nil {
		r.t.Fatalf("journal %s: %v", path, err)
	}
	rep := &reply{}
	r.p.awaitOp(sn, opAck{reply: func(err any) {
		rep.calls++
		rep.err, _ = err.(error)
		rep.durable = r.p.committedSN
	}})
	r.run(0) // deliver what the seal sent
	return sn, rep
}

func (r *rig) run(d sim.Time) { r.sim.RunFor(d) }

func (r *rig) sealed() uint64 { return r.p.log.LastSN() }

// ackAll releases every standby's held reply for batch sn.
func (r *rig) ackAll(sn uint64) {
	for _, sb := range r.standbys {
		sb.ack(sn, true)
	}
	r.run(0)
}

// land completes the held pool write of batch sn.
func (r *rig) land(sn uint64) {
	done := r.puts[sn]
	delete(r.puts, sn)
	done(nil)
}

// zeroCost is the protocol with no modelled hardware: charges run inline.
func zeroCost(edit func(*Params)) Params {
	p := DefaultParams()
	p.CostModel = CostModel{}
	edit(&p)
	return p
}

func TestPipelineTimerPolicySealsOnlyOnBatchEvery(t *testing.T) {
	r := newRig(t, zeroCost(func(*Params) {}), 2, false)
	for i := 0; i < 3; i++ {
		r.create("/f" + strconv.Itoa(i))
	}
	r.run(r.p.params.BatchEvery - sim.Microsecond)
	if r.sealed() != 0 {
		t.Fatalf("sealed sn %d before BatchEvery", r.sealed())
	}
	r.run(sim.Microsecond)
	if r.sealed() != 1 {
		t.Fatalf("sealed sn %d at BatchEvery, want 1", r.sealed())
	}
	if b, _ := r.p.log.Get(1); len(b.Records) != 3 {
		t.Fatalf("batch 1 holds %d records, want all 3", len(b.Records))
	}
	// Nothing waits on a window: the next records seal on the next tick even
	// with batch 1 still unacknowledged.
	r.create("/g")
	r.run(r.p.params.BatchEvery)
	if r.sealed() != 2 || len(r.p.pending) != 2 {
		t.Fatalf("sealed %d with %d pending, want 2 and 2", r.sealed(), len(r.p.pending))
	}
}

func TestPipelineGroupPolicy(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) {
		p.GroupCommit = true
		p.BatchMaxRecords = 3
		p.MaxInflightBatches = 2
	}), 1, false)
	// Idle: the first record seals at once.
	r.create("/a")
	if r.sealed() != 1 {
		t.Fatalf("idle pipeline did not seal at once (sn %d)", r.sealed())
	}
	// One batch in flight: records wait until the builder is full.
	r.create("/b")
	r.create("/c")
	if r.sealed() != 1 {
		t.Fatalf("sealed a short batch with a batch in flight (sn %d)", r.sealed())
	}
	r.create("/d")
	if r.sealed() != 2 {
		t.Fatalf("full builder with a free slot did not seal (sn %d)", r.sealed())
	}
	// Window full: even a full builder is held, past the fallback timer.
	for _, f := range []string{"/e", "/f", "/g"} {
		r.create(f)
	}
	r.run(2 * r.p.params.BatchEvery)
	if r.sealed() != 2 || r.p.builder.Pending() != 3 {
		t.Fatalf("sealed %d with %d pending records; the full window must hold them", r.sealed(), r.p.builder.Pending())
	}
	// A commit frees a slot and re-seals what accumulated.
	r.land(1)
	r.ackAll(1)
	if r.p.committedSN != 1 || r.sealed() != 3 {
		t.Fatalf("committed %d sealed %d, want 1 and 3 (re-seal on commit)", r.p.committedSN, r.sealed())
	}
}

func TestPipelineCommitsInSNOrder(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) { p.GroupCommit = true; p.BatchMaxRecords = 1 }), 2, false)
	_, first := r.create("/a")
	_, second := r.create("/b")
	if r.sealed() != 2 {
		t.Fatalf("sealed %d, want 2 batches in flight", r.sealed())
	}
	r.land(1)
	r.land(2)
	r.ackAll(2)
	if r.p.committedSN != 0 || second.calls != 0 {
		t.Fatalf("batch 2 committed before batch 1 (committed %d, reply ran %d times)", r.p.committedSN, second.calls)
	}
	r.ackAll(1)
	if r.p.committedSN != 2 || first.calls != 1 || second.calls != 1 {
		t.Fatalf("committed %d, replies %d/%d; want 2, 1/1", r.p.committedSN, first.calls, second.calls)
	}
	if first.durable != 1 || second.durable != 2 {
		t.Fatalf("replies ran at watermarks %d/%d, want 1/2 (in sn order)", first.durable, second.durable)
	}
	for _, sb := range r.standbys {
		if n := len(sb.notices); n == 0 || sb.notices[n-1] != 2 {
			t.Fatalf("standby %s heard watermarks %v, want a final 2", sb.node.ID(), sb.notices)
		}
	}
}

func TestPipelineAsyncAckRepliesAtSeal(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) { p.AsyncAck = true }), 1, false)
	if !r.p.group {
		t.Fatal("AsyncAck did not imply group commit")
	}
	sn, rep := r.create("/a")
	vote := &reply{}
	r.p.await(sn, func(err error) { vote.calls++ })
	if rep.calls != 1 || rep.err != nil {
		t.Fatalf("client reply ran %d times (err %v) at seal, want once", rep.calls, rep.err)
	}
	if rep.durable != 0 {
		t.Fatalf("seal-time reply carried watermark %d, want 0 (nothing committed)", rep.durable)
	}
	if vote.calls != 0 {
		t.Fatal("a durability await ran at seal")
	}
	r.land(sn)
	r.ackAll(sn)
	if vote.calls != 1 || rep.calls != 1 {
		t.Fatalf("after commit: vote ran %d times, client reply %d; want 1 and 1", vote.calls, rep.calls)
	}
}

func TestPipelineLoneActiveWaitsForPool(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) { p.GroupCommit = true }), 0, false)
	sn, rep := r.create("/a")
	r.run(sim.Second)
	if rep.calls != 0 || r.p.committedSN != 0 {
		t.Fatal("a batch no standby holds committed before its pool write landed")
	}
	r.land(sn)
	if rep.calls != 1 || r.p.committedSN != sn {
		t.Fatalf("pool write landed but committed %d, reply ran %d times", r.p.committedSN, rep.calls)
	}
}

func TestPipelineHeldFenceWaitsForPoolWatermark(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) { p.GroupCommit = true; p.BatchMaxRecords = 1 }), 2, false)
	r.create("/a")
	r.ackAll(1) // commits on standby acks; its pool write is still in flight
	if r.p.committedSN != 1 || r.p.poolDurableSN != 0 {
		t.Fatalf("committed %d pool-durable %d, want 1 and 0", r.p.committedSN, r.p.poolDurableSN)
	}
	_, rep := r.create("/b")
	r.standbys[0].ack(2, false) // a gap: fence s0
	r.standbys[1].ack(2, true)
	r.run(0)
	if len(r.fenced) != 0 {
		t.Fatalf("fenced %v while batch 1 lived only in standby caches", r.fenced)
	}
	r.land(2)
	if len(r.fenced) != 0 {
		t.Fatal("fence released by a pool write above the watermark gap")
	}
	r.land(1)
	if len(r.fenced) != 1 || r.fenced[0] != "s0" {
		t.Fatalf("fenced %v once the pool watermark reached the commit, want [s0]", r.fenced)
	}
	if rep.calls != 0 {
		t.Fatal("batch 2 acked before its laggard's demotion was durable")
	}
	r.fences[0]()
	if rep.calls != 1 || r.p.committedSN != 2 {
		t.Fatalf("committed %d, reply ran %d times after the fence landed", r.p.committedSN, rep.calls)
	}
}

func TestPipelineAbandonFailsEachWaiterOnce(t *testing.T) {
	r := newRig(t, zeroCost(func(p *Params) { p.GroupCommit = true; p.BatchMaxRecords = 8 }), 2, false)
	_, inflight := r.create("/a") // sealed, replicating
	_, open := r.create("/b")     // still in the builder
	barrier := &reply{}
	r.p.await(r.p.barrier(), func(err error) { barrier.calls++; barrier.err = err })
	r.standbys[0].ack(1, false) // fence pending on s0
	r.standbys[1].ack(1, true)
	r.run(0)
	if r.putCalls != 1 {
		t.Fatalf("%d pool writes, want 1", r.putCalls)
	}
	gone := errors.New("gone")
	r.p.abandon("abandoned-test", gone)
	for name, rep := range map[string]*reply{"in-flight": inflight, "open": open, "barrier": barrier} {
		if rep.calls != 1 || rep.err != gone {
			t.Errorf("%s waiter ran %d times with %v, want once with the tenure's error", name, rep.calls, rep.err)
		}
	}
	// Everything the tenure armed is now inert: the fence completing, the
	// pool write landing, more acks, the ack timer and the batch timer.
	notices := len(r.standbys[0].notices) + len(r.standbys[1].notices)
	for _, f := range r.fences {
		f()
	}
	r.land(1)
	r.p.onAppendAck(AppendAck{From: "s0", SN: 1, OK: true})
	r.run(10 * sim.Second)
	if r.p.committedSN != 0 || len(r.p.pending) != 1 {
		t.Fatalf("abandoned tenure committed %d (pending %d)", r.p.committedSN, len(r.p.pending))
	}
	if inflight.calls != 1 || open.calls != 1 || barrier.calls != 1 {
		t.Fatal("a waiter ran again after abandonment")
	}
	if got := len(r.standbys[0].notices) + len(r.standbys[1].notices); got != notices {
		t.Fatal("abandoned tenure sent a commit notice")
	}
	if r.putCalls != 1 || len(r.fenced) != 1 || r.sealed() != 1 {
		t.Fatalf("abandoned tenure kept working: %d puts, fenced %v, sealed %d", r.putCalls, r.fenced, r.sealed())
	}
}

// A create's ack, an error reply held to its barrier (as failOpAtBarrier
// holds one) and a vote, waiting on one sn, fire in that order at commit
// and on abandonment, under either ack policy: an AsyncAck create's ack
// fires at seal, before the other two are even registered. The commit
// charges the dispatch thread CommitAckCost for each wait it releases.
func TestPipelineWaitersFireInOrder(t *testing.T) {
	for _, async := range []bool{false, true} {
		for _, abandon := range []bool{false, true} {
			name := fmt.Sprintf("async=%v/abandon=%v", async, abandon)
			r := newRig(t, zeroCost(func(p *Params) {
				p.GroupCommit = true
				p.AsyncAck = async
				p.CommitAckCost = sim.Millisecond
			}), 1, false)
			var fired []string
			sn, err := r.p.journal(journal.Record{Op: journal.OpCreate, Path: "/a", Perm: 0o644})
			if err != nil {
				t.Fatal(err)
			}
			r.p.awaitOp(sn, opAck{reply: func(any) { fired = append(fired, "create") }})
			r.p.await(r.p.barrier(), func(error) { fired = append(fired, "barrier") })
			r.p.await(sn, func(error) { fired = append(fired, "vote") })
			r.run(0)
			if r.sealed() != sn {
				t.Fatalf("%s: batch %d not sealed", name, sn)
			}
			before := r.cpu.Add(r.active.Now(), 0)
			if abandon {
				r.p.abandon("abandoned-test", errors.New("gone"))
			} else {
				r.land(sn)
				r.ackAll(sn)
			}
			if got := fmt.Sprint(fired); got != "[create barrier vote]" {
				t.Errorf("%s: fired %s, want [create barrier vote]", name, got)
			}
			atCommit := 3 // the waiters still waiting when the batch commits
			if async {
				atCommit = 2
			}
			if abandon {
				atCommit = 0
			}
			if charged := r.cpu.Add(r.active.Now(), 0) - before; charged != sim.Time(atCommit)*sim.Millisecond {
				t.Errorf("%s: commit charged %v, want %d acks' worth", name, charged, atCommit)
			}
		}
	}
}

// BenchmarkPipelineCreate times dispatch → seal → commit for one create,
// with instant standby acks and pool writes and no modelled cost, under
// each seal policy: the layer the wire benchmark cannot reach from outside.
func BenchmarkPipelineCreate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		group bool
	}{{"timer", false}, {"group", true}} {
		b.Run(bc.name, func(b *testing.B) {
			r := newRig(b, zeroCost(func(p *Params) { p.GroupCommit = bc.group }), 2, true)
			paths := make([]string, b.N)
			for i := range paths {
				paths[i] = "/f" + strconv.Itoa(i)
			}
			const window = 64
			acked := 0
			done := opAck{reply: func(err any) {
				if err == nil {
					acked++
				}
			}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn, err := r.p.journal(journal.Record{Op: journal.OpCreate, Path: paths[i], Perm: 0o644})
				if err != nil {
					b.Fatal(err)
				}
				r.p.awaitOp(sn, done)
				if (i+1)%window == 0 || i == b.N-1 {
					for acked < i+1 {
						r.run(r.p.params.BatchEvery)
					}
				}
			}
		})
	}
}
