package mams

import (
	"fmt"
	"slices"
	"sort"

	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// commitPipeline is one active tenure's commit path (§III.B, §IV). Mutations
// enter it as journal records (journal); its seal policy closes them into
// sn-numbered batches; each batch replicates to the standbys while it is
// written to the shared storage pool in the background, and batches commit
// strictly in sn order. Replies wait on it (await). becomeActiveNow builds
// one per tenure and leaveActive abandons it. Every callback it arms first
// checks that the pipeline is still open, so an abandoned tenure cannot act.
//
// The policy is decided once, at construction. Timer-only sealing, which the
// paper describes and every calibrated experiment runs, seals whatever the
// builder holds every BatchEvery, never waits on a window, and charges
// replication to the dispatch thread. Adaptive group commit (GroupCommit,
// which AsyncAck implies) seals at once when nothing is in flight, when the
// builder reaches BatchMaxRecords with a free slot among MaxInflightBatches,
// or when a commit frees a slot, with BatchEvery as the idle fallback. Its
// journal write runs on its own lane, and only a mutation's in-memory share
// (DispatchFrac) stays on the dispatch thread.
type commitPipeline struct {
	pipeWorld
	params Params

	group     bool     // adaptive group commit; else timer-only sealing
	window    int      // sealed batches that may replicate at once
	ackAtSeal bool     // client mutations ack at seal (AsyncAck)
	ackCost   sim.Time // dispatch-thread cost per reply released at commit

	builder *journal.Builder

	pending     map[uint64]*replState
	committedSN uint64
	// poolDurableSN is the contiguous prefix of sealed batches whose
	// backstop pool writes have landed; poolPutOK holds out-of-order
	// completions above it. A batch that committed on standby acks may
	// exist only in standby caches until its pool write lands — demoting
	// those standbys in that window would destroy every surviving copy, so
	// fences queue in heldFences while poolDurableSN < committedSN.
	poolDurableSN uint64
	poolPutOK     map[uint64]bool
	heldFences    []heldFence
	// waiters fire when their batch commits; sealWaiters when it seals
	// (AsyncAck client replies). spare is a fired sn's slice, cleared, which
	// the next sn to get a waiter reuses.
	waiters     map[uint64][]waiter
	sealWaiters map[uint64][]waiter
	spare       []waiter
	batchTimer  transport.Timer
	batchArmed  bool
	journalLane transport.Lane // the journal writer under group commit
	// cachedTargets memoizes targets until the view or the renew target
	// changes (retarget); it is read on every seal and commit.
	cachedTargets   []transport.NodeID
	cachedTargetsOK bool
	closed          bool
}

// pipeWorld is everything outside the pipeline that it acts on, passed as
// values so that a test can drive a pipeline without coordination or a
// cluster.
type pipeWorld struct {
	node transport.Node
	tree *namespace.Tree
	log  *journal.Log
	cpu  *transport.Lane // the op-dispatch thread
	// lastTx is the server's transaction high-water mark; each seal
	// advances it.
	lastTx *uint64
	// put writes batch sn's encoding to the shared storage pool.
	put func(sn uint64, enc []byte, done func(error))
	// fence durably demotes a member that missed a batch, then runs done.
	fence func(id transport.NodeID, done func())
	// targets lists, sorted, the members every batch must reach.
	targets func() []transport.NodeID
	// ack answers a client mutation's wait on batch sn: with nil once the
	// batch commits (or seals, under AsyncAck), or with the tenure's error.
	ack func(op opAck, sn uint64, err error)
	tr  *trace.Log // the server's log; nil records nothing
	obs commitObs
}

// commitObs are the seal and commit instruments. A server registers them
// once; each tenure's pipeline reports into them.
type commitObs struct {
	sealed, committed          *obs.Counter
	batchRecords, sealToCommit *obs.Histogram
	inflight, watermarkLag     *obs.Gauge
}

// replState tracks one in-flight replicated batch.
type replState struct {
	batch    journal.Batch
	targets  []transport.NodeID // sorted; needed starts as all of them
	needed   []transport.NodeID // distinct targets whose ack is still owed
	timer    transport.Timer
	sealedAt sim.Time // seal instant, for the seal-to-commit histogram
	// sspPending: SyncSSP mode, pool write not yet durable.
	sspPending bool
	// span covers this batch's replication round from seal to commit (or
	// abandonment when the tenure ends mid-round).
	span obs.SpanID
	// fencing counts laggard demotions still being written to the
	// coordination service. The batch must not commit (and the client must
	// not be acked) until every laggard is durably marked junior: otherwise
	// an active crash in that window lets the stale member — which never
	// stored this batch — win the next election and silently lose an
	// acknowledged operation.
	fencing int
	// acked counts standbys that positively acknowledged the batch, and
	// sspDone records completion of the (normally asynchronous) pool write.
	// A batch held by no standby — the group degraded to a lone active —
	// only commits once the pool copy is durable; otherwise the ack would
	// make the active the sole owner of an acknowledged operation.
	acked   int
	sspDone bool
}

// waiter is one wait on a batch: a client mutation's ack, answered through
// pipeWorld.ack, or any other wait (a transaction vote, a migration ack, an
// error reply held to its barrier), which is a func. Acks are values so that
// a create waits without a closure of its own.
type waiter struct {
	done func(error)
	op   opAck
}

// opAck is what answering a client mutation needs of its request.
type opAck struct {
	reqID uint64
	kind  OpKind
	reply func(any)
}

// fire answers w for batch sn.
func (p *commitPipeline) fire(w waiter, sn uint64, err error) {
	if w.done != nil {
		w.done(err)
		return
	}
	p.ack(w.op, sn, err)
}

// heldFence is a laggard demotion deferred until the pool-durability
// watermark catches up to the commit watermark (see fenceLaggard).
type heldFence struct {
	rs *replState
	id transport.NodeID
}

// newCommitPipeline opens a tenure at epoch on top of everything w's log
// holds.
func newCommitPipeline(w pipeWorld, params Params, epoch uint64) *commitPipeline {
	p := &commitPipeline{
		pipeWorld: w,
		params:    params,
		window:    1 << 30,
		builder:   journal.NewBuilder(epoch, w.log.LastSN(), *w.lastTx),
		pending:   map[uint64]*replState{},
		// Everything up to here is in the log (and, for batches inherited
		// from a takeover, in the demoted members' logs) — only batches
		// sealed from now on can be cache-only, so the pool watermark starts
		// clean.
		committedSN:   w.log.LastSN(),
		poolDurableSN: w.log.LastSN(),
		poolPutOK:     map[uint64]bool{},
		waiters:       map[uint64][]waiter{},
		sealWaiters:   map[uint64][]waiter{},
	}
	if params.GroupCommit || params.AsyncAck {
		p.group = true
		p.window = params.MaxInflightBatches
		p.ackAtSeal = params.AsyncAck
		p.ackCost = params.CommitAckCost
	}
	return p
}

// emit records a point event of this server's.
func (p *commitPipeline) emit(kind trace.Kind, what string, args ...string) {
	p.tr.Emit(kind, string(p.node.ID()), what, args...)
}

// dispatchCost is an op's service time on the dispatch thread.
func (p *commitPipeline) dispatchCost(kind OpKind) sim.Time {
	svc := p.params.SvcFor(kind)
	if p.group && kind.Mutating() {
		svc = sim.Time(float64(svc) * p.params.DispatchFrac)
	}
	return svc
}

// journal validates rec against the namespace, adds it to the open batch and
// applies it. It returns the sn of the batch the record rides in, or the
// validation error, in which case nothing was journaled. The record is only
// handed to the seal policy by the next await or flush.
func (p *commitPipeline) journal(rec journal.Record) (uint64, error) {
	if err := p.tree.Validate(rec); err != nil {
		return 0, err
	}
	rec.TxID = p.builder.Add(rec)
	if err := p.tree.Apply(rec); err != nil {
		// Unreachable given Validate; surface loudly if not.
		p.emit(trace.KindJournal, "apply-after-validate-failed", "err", err.Error())
	}
	return p.log.LastSN() + 1, nil
}

// barrier is the sn whose commit covers everything the namespace shows now:
// the last sealed batch, or the open one while it holds records.
func (p *commitPipeline) barrier() uint64 {
	b := p.log.LastSN()
	if p.builder.Pending() > 0 {
		b++
	}
	return b
}

// await runs done once batch sn commits (at once if it has), with nil, or
// with the tenure's error if the pipeline is abandoned first; then it
// flushes. Votes and migration acks are durability promises.
func (p *commitPipeline) await(sn uint64, done func(error)) {
	p.wait(sn, waiter{done: done})
}

// awaitOp is await for a client mutation's ack, answered through
// pipeWorld.ack. It runs at seal instead when the policy acks at seal.
func (p *commitPipeline) awaitOp(sn uint64, op opAck) {
	p.wait(sn, waiter{op: op})
}

func (p *commitPipeline) wait(sn uint64, w waiter) {
	switch {
	case sn <= p.committedSN:
		p.fire(w, sn, nil)
	case w.done == nil && p.ackAtSeal:
		// The reply carries the durability watermark the client compares its
		// sn against.
		p.add(p.sealWaiters, sn, w)
	default:
		p.add(p.waiters, sn, w)
	}
	p.flush()
}

// add appends w to sn's waiters in m; the first waiter of an sn takes the
// spare slice.
func (p *commitPipeline) add(m map[uint64][]waiter, sn uint64, w waiter) {
	ws, ok := m[sn]
	if !ok {
		ws, p.spare = p.spare, nil
	}
	m[sn] = append(ws, w)
}

// release drops sn's fired waiters from m and keeps their slice, cleared,
// as the spare.
func (p *commitPipeline) release(m map[uint64][]waiter, sn uint64) {
	ws := m[sn]
	delete(m, sn)
	clear(ws)
	p.spare = ws[:0]
}

// flush hands the records journaled so far to the seal policy: seal now, or
// leave them to the next commit or the BatchEvery timer.
func (p *commitPipeline) flush() {
	if p.closed || p.builder.Pending() == 0 {
		return
	}
	if p.group && (len(p.pending) == 0 ||
		(p.builder.Pending() >= p.params.BatchMaxRecords && len(p.pending) < p.window)) {
		p.sealBatch()
		return
	}
	p.armBatchTimer()
}

// armBatchTimer arms the seal timer if it is not already pending. It is
// armed lazily — only while records wait in the builder — so an idle active
// schedules no timer events at all.
func (p *commitPipeline) armBatchTimer() {
	if p.batchArmed || p.closed {
		return
	}
	p.batchArmed = true
	p.batchTimer = p.node.After(p.params.BatchEvery, "mds-batch", func() {
		p.batchArmed = false
		if p.closed {
			return
		}
		p.sealBatch()
		if p.builder.Pending() > 0 {
			// The pipelined window was full: keep the fallback armed.
			p.armBatchTimer()
		}
	})
}

func (p *commitPipeline) sealBatch() {
	if p.closed || p.builder.Pending() == 0 {
		return
	}
	if len(p.pending) >= p.window {
		// Pipelined window full: the seal hook in tryAdvanceCommit (or the
		// fallback timer) retries once a slot frees up.
		p.armBatchTimer()
		return
	}
	batch := p.builder.Seal()
	*p.lastTx = batch.LastTx()
	if err := p.log.Append(batch); err != nil {
		p.emit(trace.KindJournal, "active-append-error", "err", err.Error())
		return
	}
	if p.params.TraceAppends {
		p.emit(trace.KindJournal, "append", "sn", fmt.Sprint(batch.SN))
	}
	p.obs.sealed.Inc()
	p.obs.batchRecords.Observe(float64(len(batch.Records)))
	targets := p.replTargets()
	now := p.node.Now()
	recs, standbys := sim.Time(len(batch.Records)), sim.Time(len(targets))
	var launchDelay sim.Time
	if p.group {
		// The journal write runs on its own lane: sequential flush + encode
		// per record + replication fan-out, overlapped with op dispatch.
		launchDelay = p.journalLane.Add(now, p.params.JournalFlushPerBatch+
			recs*p.params.JournalPerRecord+standbys*p.params.ReplPerBatchPerStandby)
	} else {
		// Replication and pool serialization CPU go to the dispatch thread.
		p.cpu.Add(now, standbys*(p.params.ReplPerBatchPerStandby+recs*p.params.ReplPerRecordPerStandby)+
			recs*p.params.SSPPerRecordCPU)
	}

	rs := &replState{batch: batch, targets: targets, needed: slices.Compact(slices.Clone(targets)), sealedAt: now}
	if p.tr.Wants(trace.KindJournal) { // per batch: formatted only for a log that keeps it
		rs.span = p.tr.Begin("journal-2pc", string(p.node.ID()), 0,
			"sn", fmt.Sprint(batch.SN), "standbys", fmt.Sprint(len(targets)))
	}
	p.pending[batch.SN] = rs
	p.obs.inflight.Set(float64(len(p.pending)))
	p.obs.watermarkLag.Set(float64(batch.SN - p.committedSN))
	if p.ackAtSeal {
		for _, w := range p.sealWaiters[batch.SN] {
			p.fire(w, batch.SN, nil)
		}
		p.release(p.sealWaiters, batch.SN)
	}
	transport.Charge(p.node, launchDelay, "mds-journal-flush", func() { p.launch(rs) })
}

// ackTimeout bounds how long the active waits for a standby's batch ack
// before degrading it to junior (§III.B).
const ackTimeout = 500 * sim.Millisecond

// launch sends a sealed batch on its way: to the pool, asynchronously by
// default (§IV: "written back to journals in an asynchronous way") or as
// part of the commit requirement under SyncSSP, and to every target.
func (p *commitPipeline) launch(rs *replState) {
	sn := rs.batch.SN
	if p.closed || p.pending[sn] != rs {
		return // committed or abandoned while the journal lane was busy
	}
	rs.sspPending = p.params.SyncSSP
	p.putToPool(rs, rs.batch.Encode())
	if len(rs.targets) == 0 {
		p.tryAdvanceCommit()
		return
	}
	// Boxed once for every target.
	var msg any = AppendBatch{From: p.node.ID(), Epoch: rs.batch.Epoch, Batch: rs.batch, CommitThrough: p.committedSN}
	for _, t := range rs.targets {
		p.node.Call(t, msg, ackTimeout, func(resp any, err error) {
			// A timeout is handled by the ack-timeout path, which demotes
			// the laggard.
			if ack, ok := resp.(AppendAck); ok && err == nil {
				p.onAppendAck(ack)
			}
		})
	}
	rs.timer = p.node.After(ackTimeout+10*sim.Millisecond, "mds-ack-timeout", func() {
		p.onAckTimeout(sn)
	})
}

// putToPool writes rs's batch to the pool, retrying every 100 ms until it
// lands. A failed pool write is not durability: this write is the backstop
// for batches no standby holds (the whole point of SyncSSP mode), and the
// fence watermark waits on it even after the batch commits on standby acks.
// An abandoned tenure stops retrying: a successor owns the sn space, and a
// zombie retry landing late would overwrite its batch in the pool.
func (p *commitPipeline) putToPool(rs *replState, enc []byte) {
	if p.closed {
		return
	}
	sn := rs.batch.SN
	p.put(sn, enc, func(err error) {
		if p.closed {
			return
		}
		if err != nil {
			if sn <= p.poolDurableSN {
				return
			}
			p.emit(trace.KindJournal, "ssp-put-retry", "sn", fmt.Sprint(sn), "err", err.Error())
			p.node.After(100*sim.Millisecond, "mams-ssp-retry", func() { p.putToPool(rs, enc) })
			return
		}
		// Advance the watermark even for batches that already committed on
		// standby acks: held fences wait on it.
		p.notePoolDurable(sn)
		if p.pending[sn] != rs {
			return // already committed via standby acks
		}
		if p.tr.Wants(trace.KindJournal) {
			p.emit(trace.KindJournal, "ssp-put-ok", "sn", fmt.Sprint(sn))
		}
		rs.sspDone = true
		rs.sspPending = false
		p.tryAdvanceCommit()
	})
}

func (p *commitPipeline) onAppendAck(ack AppendAck) {
	if p.closed {
		return
	}
	rs, ok := p.pending[ack.SN]
	if !ok {
		return
	}
	if !ack.OK {
		// The member has a gap: degrade it to junior (§III.C "degrades
		// them to the junior state when necessary"), and hold the commit
		// until the demotion is durable in the coordination service.
		p.fenceLaggard(rs, ack.From)
	} else {
		rs.acked++
	}
	rs.drop(ack.From)
	if len(rs.needed) == 0 {
		if rs.timer != nil {
			rs.timer.Stop()
		}
		p.tryAdvanceCommit()
	}
}

// drop removes id from the targets whose ack rs still waits for.
func (rs *replState) drop(id transport.NodeID) {
	if i := slices.Index(rs.needed, id); i >= 0 {
		rs.needed = slices.Delete(rs.needed, i, i+1)
	}
}

// tryAdvanceCommit commits fully acked batches in strict sn order, waking
// the replies waiting on each.
func (p *commitPipeline) tryAdvanceCommit() {
	if p.closed {
		return
	}
	advanced := false
	for {
		next := p.committedSN + 1
		rs, ok := p.pending[next]
		if !ok || len(rs.needed) > 0 || rs.sspPending || rs.fencing > 0 {
			break
		}
		if rs.acked == 0 && !rs.sspDone {
			// Every replica that should hold this batch was fenced out (or
			// none existed): hold the ack until the pool write lands, so a
			// crash of this lone active cannot lose an acknowledged op. The
			// pool-write callback re-polls the pipeline.
			break
		}
		if rs.timer != nil {
			rs.timer.Stop()
		}
		delete(p.pending, next)
		p.committedSN = next
		p.obs.committed.Inc()
		now := p.node.Now()
		p.obs.sealToCommit.Observe((now - rs.sealedAt).Seconds())
		p.tr.End(rs.span, "outcome", "committed")
		advanced = true
		if n := len(p.waiters[next]); n > 0 {
			// Group commit charges the dispatch thread for processing the
			// commit completions and sending the replies.
			p.cpu.Add(now, sim.Time(n)*p.ackCost)
		}
		for _, w := range p.waiters[next] {
			p.fire(w, next, nil)
		}
		p.release(p.waiters, next)
	}
	if advanced {
		p.obs.inflight.Set(float64(len(p.pending)))
		p.obs.watermarkLag.Set(float64(p.log.LastSN() - p.committedSN))
		// Tell standbys they may apply (piggybacked normally; the
		// explicit notice keeps the tail moving when load pauses).
		p.resendCommitWatermark()
		// Group commit: a finished replication round frees a pipeline
		// slot — seal whatever accumulated while it was in flight.
		if p.group && p.builder.Pending() > 0 && len(p.pending) < p.window {
			p.sealBatch()
		}
	}
}

// resendCommitWatermark advertises the commit watermark to every target.
// Besides following each commit, the sanity loop re-sends it: the
// per-commit CommitNotice is a single one-way send, and on a flapping link
// the last notice before load pauses can vanish, leaving a standby holding
// the tail batch cached but never committed — its digest then diverges from
// the active's for as long as the system stays idle. Duplicate notices are
// harmless (applyCommitted is idempotent).
func (p *commitPipeline) resendCommitWatermark() {
	if p.committedSN == 0 {
		return
	}
	for _, t := range p.replTargets() {
		p.node.Send(t, CommitNotice{Epoch: p.builder.Epoch(), Through: p.committedSN})
	}
}

func (p *commitPipeline) onAckTimeout(sn uint64) {
	rs, ok := p.pending[sn]
	if p.closed || !ok {
		return
	}
	// Fence in member order: each fence is a coordination write, and their
	// order is part of a seeded run.
	for _, t := range rs.targets {
		if slices.Contains(rs.needed, t) {
			p.fenceLaggard(rs, t)
			rs.drop(t)
		}
	}
	p.tryAdvanceCommit()
}

// fenceLaggard demotes a member that missed rs's batch and blocks rs's
// commit until the demotion is durable. Releasing the fence re-polls the
// commit pipeline.
func (p *commitPipeline) fenceLaggard(rs *replState, id transport.NodeID) {
	rs.fencing++
	if p.poolDurableSN < p.committedSN {
		// A batch that committed on this member's ack may still live only
		// in standby caches (the backstop pool write is in flight), and
		// demotion destroys the member's cache. Hold the fence until the
		// pool watermark catches up; commits for the fenced batch stay
		// blocked behind rs.fencing either way.
		p.heldFences = append(p.heldFences, heldFence{rs: rs, id: id})
		p.emit(trace.KindState, "fence-held", "member", string(id),
			"pooldurable", fmt.Sprint(p.poolDurableSN),
			"committed", fmt.Sprint(p.committedSN))
		return
	}
	p.fenceNow(rs, id)
}

func (p *commitPipeline) fenceNow(rs *replState, id transport.NodeID) {
	p.fence(id, func() {
		if p.closed {
			return
		}
		rs.fencing--
		p.tryAdvanceCommit()
	})
}

// notePoolDurable records a landed pool write and advances the contiguous
// watermark, releasing the held fences once it reaches the commit.
func (p *commitPipeline) notePoolDurable(sn uint64) {
	if sn <= p.poolDurableSN {
		return
	}
	p.poolPutOK[sn] = true
	for p.poolPutOK[p.poolDurableSN+1] {
		delete(p.poolPutOK, p.poolDurableSN+1)
		p.poolDurableSN++
	}
	if p.poolDurableSN < p.committedSN || len(p.heldFences) == 0 {
		return
	}
	held := p.heldFences
	p.heldFences = nil
	for _, h := range held {
		p.fenceNow(h.rs, h.id)
	}
}

// replTargets is targets, memoized until retarget.
func (p *commitPipeline) replTargets() []transport.NodeID {
	if !p.cachedTargetsOK {
		p.cachedTargets, p.cachedTargetsOK = p.targets(), true
	}
	return p.cachedTargets
}

// retarget drops the memoized replication targets; the next seal or commit
// recomputes them.
func (p *commitPipeline) retarget() { p.cachedTargetsOK = false }

// dirty reports whether the namespace shows records this tenure never
// committed: applied but unsealed, or sealed but not fully replicated (a
// successor may hold a different batch under the same sn). A deposed active
// in that state cannot be a valid prefix of the new timeline.
func (p *commitPipeline) dirty() bool {
	return p.builder.Pending() > 0 || p.committedSN < p.log.LastSN()
}

// abandon ends the tenure: nothing the pipeline armed acts again, each
// in-flight batch's span ends with outcome, and every waiting reply fails
// with err — in sn order, since each is a send and the order of sends is part
// of a seeded run. A nil err means the process crashed: its timers died with
// it, and there is no one left to answer.
func (p *commitPipeline) abandon(outcome string, err error) {
	p.closed = true
	for _, rs := range p.pending {
		p.tr.End(rs.span, "outcome", outcome)
	}
	if err == nil {
		return
	}
	if p.batchTimer != nil {
		p.batchTimer.Stop()
	}
	for _, rs := range p.pending {
		if rs.timer != nil {
			rs.timer.Stop()
		}
	}
	for _, m := range []map[uint64][]waiter{p.waiters, p.sealWaiters} {
		sns := make([]uint64, 0, len(m))
		for sn := range m {
			sns = append(sns, sn)
		}
		sort.Slice(sns, func(i, j int) bool { return sns[i] < sns[j] })
		for _, sn := range sns {
			for _, w := range m[sn] {
				p.fire(w, sn, err)
			}
			delete(m, sn)
		}
	}
}
