package mams

import (
	"fmt"

	"mams/internal/journal"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// txnState tracks one coordinated distributed transaction.
type txnState struct {
	id        uint64
	op        ClientOp
	reply     func(any)
	needVotes map[int]bool // group index → vote outstanding
	prepared  map[int]bool // groups that voted OK
	undo      []journal.Record
	failed    bool
	failErr   string
	localDone bool
	timer     transport.Timer
	finished  bool
}

// LeadGroup is the group a client op is sent to, and for mkdir, delete and
// rename the group that coordinates it: the lead of the op's partition
// plan. Clients route by it and servers reject (StaleMap) what it does not
// send them, so both sides decide with this one function.
func LeadGroup(p *partition.Partitioner, op ClientOp) int {
	switch op.Kind {
	case OpMkdir:
		return p.MkdirPlan(op.Path)[0]
	case OpDelete:
		return p.DeletePlan(op.Path)[0]
	case OpRename:
		return p.RenamePlan(op.Path, op.Dest)[0]
	default:
		return p.HomeGroup(op.Path)
	}
}

// executeStructuralOp handles mkdir/delete/rename, which the partitioning
// scheme may spread over several replica groups (the paper's "distributed
// transactions in the CFS", Fig. 5). The plan lists the groups the op
// touches, lead first, and each gets one record: directory ops update the
// replicated skeleton in every group; file ops touch the home groups and
// journal a Noop, standing for parent-directory bookkeeping, on the
// dir-master groups.
func (s *Server) executeStructuralOp(op ClientOp, reply func(any)) {
	now := int64(s.node.Now())
	part := s.cfg.Partitioner
	var rec journal.Record
	switch op.Kind {
	case OpMkdir:
		rec = journal.Record{Op: journal.OpMkdir, Path: op.Path, Perm: 0o755, MTime: now}
	case OpDelete:
		rec = journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
	case OpRename:
		rec = journal.Record{Op: journal.OpRename, Path: op.Path, Dest: op.Dest, MTime: now}
	default:
		s.finishOp(op, OpReply{Err: "mams: not a structural op"}, reply)
		return
	}
	var groups []int
	recs := map[int]journal.Record{}
	info, err := s.tree.Stat(op.Path)
	switch {
	case op.Kind == OpMkdir || err == nil && info.Dir:
		groups = part.MkdirPlan(op.Path)
		for _, g := range groups {
			recs[g] = rec
		}
	case op.Kind == OpDelete:
		groups = part.DeletePlan(op.Path)
		recs[groups[0]] = rec
	default:
		groups = part.RenamePlan(op.Path, op.Dest)
		if srcHome, dstHome := part.HomeGroup(op.Path), part.HomeGroup(op.Dest); srcHome == dstHome {
			recs[srcHome] = rec
		} else {
			// The file entry migrates between home groups.
			recs[srcHome] = journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
			recs[dstHome] = journal.Record{Op: journal.OpCreate, Path: op.Dest, Size: info.Size, Perm: 0o644, MTime: now}
		}
	}
	for _, g := range groups {
		if _, ok := recs[g]; !ok {
			recs[g] = journal.Record{Op: journal.OpNoop, Path: op.Path, MTime: now}
		}
	}

	myGroup := s.groupIdx
	localRec, involvesMe := recs[myGroup]
	if len(groups) == 1 {
		if !involvesMe {
			// The client routed to the wrong group; tell it to re-plan.
			s.finishOp(op, OpReply{Err: "mams: wrong coordinator group"}, reply)
			return
		}
		s.applyAndJournal(op, localRec, reply)
		return
	}

	// Distributed transaction: we coordinate (the client routes to the
	// plan's lead group). Journal our own record before any transaction
	// state exists, so a record that fails validation never enters the
	// journal and can never count as our vote. State-dependent failures wait
	// for the observed state to commit (see failOpAtBarrier): "exists" from
	// an uncommitted create is a durability claim the client will rely on.
	var localSN uint64
	var undo []journal.Record
	if involvesMe {
		inv := s.tree.Inverse(localRec)
		sn, err := s.pipe.journal(localRec)
		if err != nil {
			s.failOpAtBarrier(op, err.Error(), reply)
			return
		}
		localSN = sn
		undo = []journal.Record{inv}
	}
	s.txnSeq++
	txn := &txnState{
		id:        s.txnSeq<<16 | uint64(s.groupIdx),
		op:        op,
		reply:     reply,
		needVotes: map[int]bool{},
		prepared:  map[int]bool{},
		undo:      undo,
	}
	// Coordinator-side 2PC bookkeeping cost.
	s.cpu.Add(s.node.Now(), s.cfg.Params.TxnOverhead)
	s.emit(trace.KindJournal, "txn-start", "op", op.Kind.String(), "groups", fmt.Sprint(len(groups)))

	// The local commit counts as our own vote.
	if involvesMe {
		s.awaitLocalVote(txn, localSN)
	} else {
		txn.localDone = true
	}
	for _, g := range groups {
		if g == myGroup {
			continue
		}
		txn.needVotes[g] = true
		s.sendPrepare(txn, g, []journal.Record{recs[g]}, 0)
	}
	txn.timer = s.node.After(2*sim.Second, "mams-txn-timeout", func() {
		s.txnTimeout(txn)
	})
	s.maybeFinishTxn(txn)
}

// awaitLocalVote marks localDone when batch sn, which holds the
// coordinator's own record, commits — never at seal: 2PC correctness needs
// the record durable before the coordinator can count our own vote.
func (s *Server) awaitLocalVote(txn *txnState, sn uint64) {
	s.pipe.await(sn, func(err error) {
		if err != nil {
			txn.failed = true
			txn.failErr = err.Error()
		}
		txn.localDone = true
		s.maybeFinishTxn(txn)
	})
}

// sendPrepare resolves the target group's active and ships the prepare.
func (s *Server) sendPrepare(txn *txnState, group int, recs []journal.Record, attempt int) {
	if attempt > 3 || txn.finished {
		if !txn.finished {
			txn.failed = true
			txn.failErr = "mams: participant unreachable"
			delete(txn.needVotes, group)
			s.maybeFinishTxn(txn)
		}
		return
	}
	ResolveActive(s.node, s.cfg.Groups, group, attempt, "", func(active transport.NodeID) {
		if active == "" {
			s.node.After(300*sim.Millisecond, "mams-txn-retry", func() {
				s.sendPrepare(txn, group, recs, attempt+1)
			})
			return
		}
		s.node.Call(active, TxnPrepare{TxnID: txn.id, From: s.cfg.ID, Records: recs},
			sim.Second, func(resp any, err error) {
				if txn.finished {
					return
				}
				if err != nil {
					s.sendPrepare(txn, group, recs, attempt+1)
					return
				}
				vote, ok := resp.(TxnVote)
				if !ok {
					s.sendPrepare(txn, group, recs, attempt+1)
					return
				}
				delete(txn.needVotes, group)
				if vote.OK {
					txn.prepared[group] = true
				} else {
					txn.failed = true
					txn.failErr = vote.Err
				}
				s.maybeFinishTxn(txn)
			})
	})
}

// ResolveActive asks one member of a group which node is its active, and
// passes the answer to cb ("" when there is none). pick chooses the member,
// round-robin: members[pick % len(members)], or the next one when that is
// refused, a member whose address refused the caller's last call; the
// question names refused so that the member can report it (WhoIsActive).
func ResolveActive(node transport.Node, groups [][]transport.NodeID, group, pick int, refused transport.NodeID, cb func(transport.NodeID)) {
	if group < 0 || group >= len(groups) || len(groups[group]) == 0 {
		cb("")
		return
	}
	members := groups[group]
	if refused != "" && members[pick%len(members)] == refused {
		pick++
	}
	node.Call(members[pick%len(members)], WhoIsActive{Refused: refused}, 300*sim.Millisecond, func(resp any, err error) {
		if ai, ok := resp.(ActiveIs); ok && err == nil {
			cb(ai.Active)
			return
		}
		cb("")
	})
}

// maybeFinishTxn completes the transaction once the local batch committed
// and every participant voted.
func (s *Server) maybeFinishTxn(txn *txnState) {
	if txn.finished || !txn.localDone || len(txn.needVotes) > 0 {
		return
	}
	txn.finished = true
	if txn.timer != nil {
		txn.timer.Stop()
	}
	if txn.failed {
		// Compensate locally and on every prepared participant.
		s.compensate(txn.undo)
		for g := range s.cfg.Groups {
			if !txn.prepared[g] {
				continue
			}
			ResolveActive(s.node, s.cfg.Groups, g, 0, "", func(active transport.NodeID) {
				if active != "" {
					s.node.Send(active, TxnAbort{TxnID: txn.id})
				}
			})
		}
		errStr := txn.failErr
		if errStr == "" {
			errStr = "mams: transaction aborted"
		}
		s.finishOp(txn.op, OpReply{Err: errStr}, txn.reply)
		return
	}
	s.finishOp(txn.op, OpReply{}, txn.reply)
}

// compensate journals undo records newest first and flushes them. An undo
// that no longer validates was already rolled back, or lost a race with a
// client op.
func (s *Server) compensate(undo []journal.Record) {
	if s.pipe == nil {
		return
	}
	for i := len(undo) - 1; i >= 0; i-- {
		if undo[i].Op != journal.OpNoop {
			s.pipe.journal(undo[i])
		}
	}
	s.pipe.flush()
}

func (s *Server) txnTimeout(txn *txnState) {
	if txn.finished {
		return
	}
	txn.failed = true
	if txn.failErr == "" {
		txn.failErr = "mams: transaction timeout"
	}
	txn.needVotes = map[int]bool{}
	txn.localDone = true
	s.maybeFinishTxn(txn)
}

// ---- participant side ----

// preparedTxn remembers a participant-side transaction so duplicates ack
// idempotently and aborts can compensate.
type preparedTxn struct {
	undo []journal.Record
	ok   bool
}

// onTxnPrepare validates, applies and journals the participant's share,
// voting OK once the records are in the pipeline.
func (s *Server) onTxnPrepare(from transport.NodeID, m TxnPrepare, reply func(any)) {
	if s.pipe == nil {
		reply(TxnVote{TxnID: m.TxnID, From: s.cfg.ID, OK: false, Err: "mams: not active"})
		return
	}
	if prev, dup := s.preparedTxns[m.TxnID]; dup {
		reply(TxnVote{TxnID: m.TxnID, From: s.cfg.ID, OK: prev.ok})
		return
	}
	// Queue through the participant's CPU like any other operation, plus
	// the 2PC bookkeeping overhead.
	svc := s.cfg.Params.TxnOverhead
	for _, r := range m.Records {
		switch r.Op {
		case journal.OpMkdir:
			svc += s.cfg.Params.MkdirSvc
		case journal.OpDelete:
			svc += s.cfg.Params.DeleteSvc
		case journal.OpRename, journal.OpCreate:
			svc += s.cfg.Params.RenameSvc
		default:
			// Noop records stand for real parent-directory bookkeeping on
			// the dir-master group.
			svc += s.cfg.Params.DeleteSvc
		}
	}
	transport.Charge(s.node, s.cpu.Add(s.node.Now(), svc), "mams-txn-prepare", func() {
		if s.pipe == nil {
			reply(TxnVote{TxnID: m.TxnID, From: s.cfg.ID, OK: false, Err: "mams: not active"})
			return
		}
		vote := TxnVote{TxnID: m.TxnID, From: s.cfg.ID, OK: true}
		var undo []journal.Record
		for _, r := range m.Records {
			if err := s.tree.Validate(r); err != nil {
				vote.OK, vote.Err = false, err.Error()
				break
			}
			if s.touchesFrozenSlot(r.Op, r.Path, r.Dest) {
				// A cross-group rename/delete must not smuggle a file
				// mutation onto a slot frozen mid-migration; vote no and
				// let the coordinator abort (the client retries later).
				s.obsFrozenRej.Inc()
				vote.OK, vote.Err = false, "mams: slot migrating"
				break
			}
			undo = append(undo, s.tree.Inverse(r))
			s.pipe.journal(r)
		}
		// Records journaled before a refusal (Noop bookkeeping) still ride
		// the next batch.
		s.pipe.flush()
		s.preparedTxns[m.TxnID] = &preparedTxn{undo: undo, ok: vote.OK}
		reply(vote)
	})
}

// onTxnAbort compensates a prepared transaction.
func (s *Server) onTxnAbort(m TxnAbort) {
	pt, ok := s.preparedTxns[m.TxnID]
	if !ok || !pt.ok {
		return
	}
	delete(s.preparedTxns, m.TxnID)
	s.compensate(pt.undo)
}
