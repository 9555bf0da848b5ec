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
	undoLocal journal.Record
	failed    bool
	failErr   string
	localDone bool
	timer     transport.Timer
	finished  bool
}

// executeStructuralOp handles mkdir/delete/rename, which the partitioning
// scheme may spread over several replica groups (the paper's "distributed
// transactions in the CFS", Fig. 5).
func (s *Server) executeStructuralOp(op ClientOp, reply func(any)) {
	now := int64(s.node.Now())
	part := s.cfg.Partitioner

	var class partition.OpClass
	var groups []int
	recsByGrp := map[int]journal.Record{}
	undoByGrp := map[int]journal.Record{}

	switch op.Kind {
	case OpMkdir:
		class, groups = part.MkdirPlan(op.Path)
		rec := journal.Record{Op: journal.OpMkdir, Path: op.Path, Perm: 0o755, MTime: now}
		undo := journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
		for _, g := range groups {
			recsByGrp[g] = rec
			undoByGrp[g] = undo
		}
	case OpDelete:
		if info, err := s.tree.Stat(op.Path); err == nil && info.Dir {
			// Directory delete updates the replicated skeleton everywhere.
			class, groups = part.MkdirPlan(op.Path)
			rec := journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
			undo := journal.Record{Op: journal.OpMkdir, Path: op.Path, Perm: info.Perm, MTime: info.MTime}
			for _, g := range groups {
				recsByGrp[g] = rec
				undoByGrp[g] = undo
			}
		} else {
			class, groups = part.DeletePlan(op.Path)
			rec := journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
			size, perm := int64(0), uint16(0o644)
			if err == nil {
				size, perm = info.Size, info.Perm
			}
			undo := journal.Record{Op: journal.OpCreate, Path: op.Path, Size: size, Perm: perm, MTime: now}
			recsByGrp[groups[0]] = rec
			undoByGrp[groups[0]] = undo
			for _, g := range groups[1:] {
				// Parent-directory bookkeeping on the dir-master group.
				recsByGrp[g] = journal.Record{Op: journal.OpNoop, Path: op.Path, MTime: now}
				undoByGrp[g] = journal.Record{Op: journal.OpNoop, Path: op.Path, MTime: now}
			}
		}
	case OpRename:
		if info, err := s.tree.Stat(op.Path); err == nil && info.Dir {
			class, groups = part.MkdirPlan(op.Path) // skeleton-wide
			rec := journal.Record{Op: journal.OpRename, Path: op.Path, Dest: op.Dest, MTime: now}
			undo := journal.Record{Op: journal.OpRename, Path: op.Dest, Dest: op.Path, MTime: now}
			for _, g := range groups {
				recsByGrp[g] = rec
				undoByGrp[g] = undo
			}
		} else {
			class, groups = part.RenamePlan(op.Path, op.Dest)
			srcHome := part.HomeGroup(op.Path)
			dstHome := part.HomeGroup(op.Dest)
			size := int64(0)
			if err == nil {
				size = info.Size
			}
			if srcHome == dstHome {
				rec := journal.Record{Op: journal.OpRename, Path: op.Path, Dest: op.Dest, MTime: now}
				undo := journal.Record{Op: journal.OpRename, Path: op.Dest, Dest: op.Path, MTime: now}
				recsByGrp[srcHome] = rec
				undoByGrp[srcHome] = undo
			} else {
				// The file entry migrates between home groups.
				recsByGrp[srcHome] = journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
				undoByGrp[srcHome] = journal.Record{Op: journal.OpCreate, Path: op.Path, Size: size, Perm: 0o644, MTime: now}
				recsByGrp[dstHome] = journal.Record{Op: journal.OpCreate, Path: op.Dest, Size: size, Perm: 0o644, MTime: now}
				undoByGrp[dstHome] = journal.Record{Op: journal.OpDelete, Path: op.Dest, MTime: now}
			}
			for _, g := range groups {
				if _, ok := recsByGrp[g]; !ok {
					recsByGrp[g] = journal.Record{Op: journal.OpNoop, Path: op.Path, MTime: now}
					undoByGrp[g] = journal.Record{Op: journal.OpNoop, Path: op.Path, MTime: now}
				}
			}
		}
	default:
		s.finishOp(op, OpReply{Err: "mams: not a structural op"}, reply)
		return
	}

	myGroup := s.groupIdx
	localRec, involvesMe := recsByGrp[myGroup]
	if class == partition.ClassLocal || (len(groups) == 1 && groups[0] == myGroup) {
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
	if involvesMe {
		sn, err := s.pipe.journal(localRec)
		if err != nil {
			s.failOpAtBarrier(op, err.Error(), reply)
			return
		}
		localSN = sn
	}
	s.txnSeq++
	txn := &txnState{
		id:        s.txnSeq<<16 | uint64(s.groupIdx),
		op:        op,
		reply:     reply,
		needVotes: map[int]bool{},
		prepared:  map[int]bool{},
		undoLocal: undoByGrp[myGroup],
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
		s.sendPrepare(txn, g, []journal.Record{recsByGrp[g]}, 0)
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
	s.pipe.await(sn, false, func(err error) {
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
	resolveGroupActive(s.node, s.cfg.Groups, group, attempt, func(active transport.NodeID) {
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

// resolveGroupActive finds a group's active by asking one of its members
// WhoIsActive, round-robin by attempt; cb gets "" when there is no answer.
func resolveGroupActive(node transport.Node, groups [][]transport.NodeID, group, attempt int, cb func(transport.NodeID)) {
	if group < 0 || group >= len(groups) || len(groups[group]) == 0 {
		cb("")
		return
	}
	members := groups[group]
	target := members[attempt%len(members)]
	node.Call(target, WhoIsActive{}, 300*sim.Millisecond, func(resp any, err error) {
		if err != nil {
			cb("")
			return
		}
		if ai, ok := resp.(ActiveIs); ok && ai.Active != "" {
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
		s.compensateLocal(txn)
		for g := range txn.prepared {
			g := g
			resolveGroupActive(s.node, s.cfg.Groups, g, 0, func(active transport.NodeID) {
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

// compensateLocal journals the undo of the coordinator's own record. An
// undo that no longer validates was already rolled back, or lost a race
// with a client op.
func (s *Server) compensateLocal(txn *txnState) {
	if s.pipe == nil {
		return
	}
	if txn.undoLocal.Op != journal.OpNoop {
		s.pipe.journal(txn.undoLocal)
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
			s.pipe.journal(r)
			if r.Op != journal.OpNoop {
				undo = append(undo, invertRecord(r))
			}
		}
		// Records journaled before a refusal (Noop bookkeeping) still ride
		// the next batch.
		s.pipe.flush()
		s.preparedTxns[m.TxnID] = &preparedTxn{undo: undo, ok: vote.OK}
		reply(vote)
	})
}

// invertRecord builds the compensating record for an applied record.
func invertRecord(r journal.Record) journal.Record {
	switch r.Op {
	case journal.OpMkdir, journal.OpCreate:
		return journal.Record{Op: journal.OpDelete, Path: r.Path, MTime: r.MTime}
	case journal.OpDelete:
		return journal.Record{Op: journal.OpCreate, Path: r.Path, Size: r.Size, Perm: r.Perm, MTime: r.MTime}
	case journal.OpRename:
		return journal.Record{Op: journal.OpRename, Path: r.Dest, Dest: r.Path, MTime: r.MTime}
	default:
		return journal.Record{Op: journal.OpNoop, Path: r.Path}
	}
}

// onTxnAbort compensates a prepared transaction.
func (s *Server) onTxnAbort(m TxnAbort) {
	pt, ok := s.preparedTxns[m.TxnID]
	if !ok || !pt.ok {
		return
	}
	delete(s.preparedTxns, m.TxnID)
	if s.pipe == nil {
		return
	}
	for i := len(pt.undo) - 1; i >= 0; i-- {
		s.pipe.journal(pt.undo[i]) // an undo that no longer validates was rolled back already
	}
	s.pipe.flush()
}
