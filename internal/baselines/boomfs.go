package baselines

import (
	"mams/internal/journal"
	"mams/internal/paxos"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/trace"
	"mams/internal/transport"
)

// Boom-FS's calibration: the metadata state machine replicated over a
// globally-consistent Paxos-ordered log ("a total ordering over events
// affecting replicated state"), with centralized repair decisions on
// failover.
const (
	// boomPaxosTick drives retransmission.
	boomPaxosTick = 50 * sim.Millisecond
	// boomPingEvery / boomPingMisses detect leader failure.
	boomPingEvery  = sim.Second
	boomPingMisses = 5
	// boomRepairFixed is the centralized repair-coordination cost the paper
	// charges Boom-FS for on failover ("the operation performance ... is
	// affected for centralizing repair action decisions and state
	// transition, which leads to additional failover time").
	boomRepairFixed = 7 * sim.Second
)

// boomBatch is the Paxos-replicated unit (a journal batch).
type boomBatch struct {
	B journal.Batch
}

type boomPing struct{}
type boomPong struct {
	Leader bool
}

// BoomFS is one Boom-FS metadata replica. Its nsCore leader field is the
// best guess of the leader, which a follower pings and redirects clients to.
type BoomFS struct {
	nsCore
	peers    []transport.NodeID
	rank     int // position in peers (takeover stagger)
	replica  *paxos.Replica
	misses   int
	attempts int // failed election attempts (backoff)
}

// NewBoomFS registers one replica; peers lists every replica including id.
// The first peer bootstraps leadership.
func NewBoomFS(net *simnet.Network, id transport.NodeID, peers []transport.NodeID, tr *trace.Log) *BoomFS {
	b := &BoomFS{peers: peers}
	for i, p := range peers {
		if p == id {
			b.rank = i
		}
	}
	b.register(net, id, b, tr, roleStandby)
	b.lostLead = b.preempted
	strPeers := make([]string, len(peers))
	for i, p := range peers {
		strPeers[i] = string(p)
	}
	send := func(to string, m paxos.Msg) { b.node.Send(transport.NodeID(to), m) }
	b.replica = paxos.New(paxos.Config{Self: string(id), Peers: strPeers}, send, b.onPaxosApply)
	return b
}

// Start boots ticking and (for the first peer) leadership.
func (b *BoomFS) Start() {
	if b.rank == 0 {
		b.role = roleRecovering
		b.node.After(0, "boom-lead", func() { b.replica.TryLead() })
		b.awaitLeadership()
	} else {
		b.leader = b.peers[0]
		b.armPing()
	}
	b.armTick()
}

func (b *BoomFS) armTick() {
	b.node.After(boomPaxosTick+sim.Time(b.rank)*7*sim.Millisecond, "boom-tick", func() {
		b.replica.Tick()
		b.armTick()
	})
}

func (b *BoomFS) armPing() {
	b.node.After(boomPingEvery, "boom-ping", func() {
		if b.role != roleStandby {
			return
		}
		b.node.Call(b.leader, boomPing{}, boomPingEvery, func(resp any, err error) {
			if b.role != roleStandby {
				return
			}
			if err != nil {
				b.misses++
				if b.misses >= boomPingMisses+b.rank {
					// Staggered takeover: the lowest-rank survivor moves
					// first; higher ranks only if it also fails.
					b.startTakeover()
					return
				}
			} else {
				b.misses = 0
				if pong, ok := resp.(boomPong); ok && !pong.Leader {
					b.rotateLeaderGuess()
				}
			}
		})
		b.armPing()
	})
}

// rotateLeaderGuess moves to the next peer, never guessing ourselves.
func (b *BoomFS) rotateLeaderGuess() {
	idx := 0
	for i, p := range b.peers {
		if p == b.leader {
			idx = i
		}
	}
	for i := 1; i <= len(b.peers); i++ {
		cand := b.peers[(idx+i)%len(b.peers)]
		if cand != b.node.ID() {
			b.leader = cand
			return
		}
	}
}

// startTakeover runs the Boom-FS failover: win the Paxos log, drain
// recovery, run the centralized repair decision, then serve.
func (b *BoomFS) startTakeover() {
	b.role = roleRecovering
	b.emit("boom-takeover-start", "sn", "")
	b.replica.TryLead()
	b.awaitLeadership()
}

// awaitLeadership polls until the replica leads with an empty recovery
// pipeline, then pays the repair cost and serves. Contenders first check
// whether a peer already claims leadership, and back off with a
// rank-staggered delay so elections cannot duel forever.
func (b *BoomFS) awaitLeadership() {
	delay := 100*sim.Millisecond + sim.Time(b.rank)*137*sim.Millisecond +
		sim.Time(b.attempts)*90*sim.Millisecond
	if delay > 2*sim.Second {
		delay = 2 * sim.Second
	}
	b.node.After(delay, "boom-await-lead", func() {
		if b.role != roleRecovering {
			return
		}
		if b.replica.Leading() {
			b.attempts = 0
			if b.replica.Outstanding() > 0 {
				b.awaitLeadership()
				return
			}
			// Centralized repair decision phase.
			b.node.After(boomRepairFixed, "boom-repair", func() {
				if b.role != roleRecovering {
					return
				}
				if !b.replica.Leading() {
					b.awaitLeadership() // preempted mid-repair
					return
				}
				b.role = roleActive
				b.builder = journal.NewBuilder(1, b.log.LastSN(), b.lastTx)
				b.emit("boom-leader")
				b.armBatch()
			})
			return
		}
		// Not leading: first check whether someone else already claims the
		// log before contending again.
		pendingChecks := 0
		leaderFound := false
		finish := func() {
			pendingChecks--
			if pendingChecks > 0 || b.role != roleRecovering {
				return
			}
			if leaderFound {
				return // adopted follower role in the check callback
			}
			if !b.replica.Leading() && !b.replica.Electing() {
				b.attempts++
				b.replica.TryLead()
			}
			b.awaitLeadership()
		}
		for _, p := range b.peers {
			if p == b.node.ID() {
				continue
			}
			pendingChecks++
			peer := p
			b.node.Call(peer, boomPing{}, 200*sim.Millisecond, func(resp any, err error) {
				if err == nil && b.role == roleRecovering {
					if pong, ok := resp.(boomPong); ok && pong.Leader {
						leaderFound = true
						b.role = roleStandby
						b.leader = peer
						b.misses = 0
						b.armPing()
					}
				}
				finish()
			})
		}
		if pendingChecks == 0 {
			pendingChecks = 1
			finish()
		}
	})
}

// armBatch proposes each sealed batch to the Paxos log. Replication costs
// the leader CPU per standby, per batch and per record, like any
// state-replication design.
func (b *BoomFS) armBatch() {
	standbys := sim.Time(len(b.peers) - 1)
	b.armSeal(standbys*b.params.ReplPerRecordPerStandby, func(batch journal.Batch) {
		b.cpu.Add(b.node.Now(), standbys*b.params.ReplPerBatchPerStandby)
		b.replica.Propose(&boomBatch{B: batch})
	})
}

// preempted steps a leader down once a higher ballot has taken the log,
// and sends it back to contend.
func (b *BoomFS) preempted() bool {
	if b.replica.Leading() {
		return false
	}
	b.failAll()
	b.role = roleRecovering
	b.awaitLeadership()
	return true
}

// onPaxosApply delivers a chosen batch in total order.
func (b *BoomFS) onPaxosApply(slot uint64, v any) {
	bb, ok := v.(*boomBatch)
	if !ok {
		return // paxos.Noop
	}
	batch := bb.B
	if batch.SN <= b.log.LastSN() {
		// Our own sealed batch (the leader applied it at execute time) or
		// a duplicate from recovery: release the waiting clients.
		if b.role == roleActive {
			b.commit(batch.SN)
		}
		return
	}
	// A gap (a lost leader's log) is skipped; unreachable with 3 replicas.
	if err := b.applyNext(batch); err != nil {
		b.emit("boom-replay-divergence", "err", err.Error())
	}
}

// HandleMessage implements transport.Handler.
func (b *BoomFS) HandleMessage(from transport.NodeID, msg any) {
	if m, ok := msg.(paxos.Msg); ok {
		b.replica.Deliver(string(from), m)
	}
}

// HandleRequest implements transport.RequestHandler.
func (b *BoomFS) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	if _, ok := req.(boomPing); ok {
		// A leader-elect mid-repair also claims leadership so contenders
		// stand down while the centralized repair runs.
		claimed := b.role == roleActive || (b.role == roleRecovering && b.replica.Leading())
		reply(boomPong{Leader: claimed})
		return
	}
	b.nsCore.HandleRequest(from, req, reply)
}
