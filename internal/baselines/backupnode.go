package baselines

import (
	"fmt"

	"mams/internal/blockmap"
	"mams/internal/journal"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/trace"
	"mams/internal/transport"
)

// The BackupNode pair's calibration. Table I shows MTTR(image MB) ≈
// 0.57 s + 0.139 s/MB. The backup detects the dead stream quickly
// (sub-second) and the size term comes from digesting ~6,990 block entries
// per image MB (the paper's "7 million files at about 1 GB") at ~20 µs each.
const (
	// bnPingEvery / bnPingMisses implement the backup's primary-liveness
	// probe.
	bnPingEvery  = 200 * sim.Millisecond
	bnPingMisses = 2
	// bnRestartFixed is the fixed part of the takeover (role switch, RPC
	// server restart, safemode entry).
	bnRestartFixed = 200 * sim.Millisecond
	// bnJournalPerRecordCPU is the primary's CPU cost to push one edit into
	// the asynchronous backup stream (cheapest of all designs: "the
	// BackupNode incurred less time but it does not guarantee metadata
	// consistency").
	bnJournalPerRecordCPU = 4 * sim.Microsecond
	// bnPerBlockProcess is the backup's CPU cost to digest one block entry
	// from the re-collected reports — the term that makes BackupNode's MTTR
	// grow with namespace size (Table I).
	bnPerBlockProcess = 20 * sim.Microsecond
)

// bnStream carries journal batches from primary to backup. It is
// fire-and-forget: the primary never waits, which is why BackupNode has
// the lowest overhead in Figure 6 but "does not guarantee metadata
// consistency".
type bnStream struct {
	Batch journal.Batch
}

type bnPing struct{}
type bnPong struct{}

// BackupNode is one member of the primary/backup pair.
type BackupNode struct {
	nsCore
	peer transport.NodeID
	dns  []transport.NodeID

	disk      transport.Lane
	misses    int
	reports   int
	reportsIn int
	digest    transport.Lane // block-report digestion on the recovering node
}

// NewBackupNode registers one pair member. Exactly one should start as
// primary.
func NewBackupNode(net *simnet.Network, id, peer transport.NodeID, primary bool,
	dns []transport.NodeID, tr *trace.Log) *BackupNode {
	b := &BackupNode{peer: peer, dns: dns}
	r := roleStandby
	if primary {
		r = roleActive
	}
	b.register(net, id, b, tr, r)
	return b
}

// Start begins the member's duties: the primary seals batches, the backup
// probes the primary.
func (b *BackupNode) Start() {
	if b.role == roleActive {
		b.armBatch()
		return
	}
	b.armPing()
}

func (b *BackupNode) armBatch() {
	b.armSeal(bnJournalPerRecordCPU, func(batch journal.Batch) {
		b.node.After(b.disk.Add(b.node.Now(), fsyncCost), "bn-fsync", func() {
			b.commit(batch.SN)
		})
		// Asynchronous journal stream to the backup — no ack, no
		// consistency guarantee.
		b.node.Send(b.peer, bnStream{Batch: batch})
	})
}

func (b *BackupNode) armPing() {
	b.node.After(bnPingEvery, "bn-ping", func() {
		if b.role != roleStandby {
			return
		}
		b.node.Call(b.peer, bnPing{}, bnPingEvery, func(resp any, err error) {
			if b.role != roleStandby {
				return
			}
			if err != nil {
				b.misses++
				if b.misses >= bnPingMisses {
					b.startTakeover()
					return
				}
			} else {
				b.misses = 0
			}
		})
		b.armPing()
	})
}

// startTakeover runs the BackupNode recovery path: finish replaying the
// stream (already in memory), restart as primary, and — the expensive part
// — re-collect block locations from every data server before serving.
func (b *BackupNode) startTakeover() {
	b.role = roleRecovering
	b.emit("bn-takeover-start", "sn", fmt.Sprint(b.log.LastSN()))
	b.node.After(bnRestartFixed, "bn-restart", func() {
		if len(b.dns) == 0 {
			b.finishTakeover()
			return
		}
		b.reports, b.reportsIn = len(b.dns), 0
		for _, dn := range b.dns {
			b.node.Call(dn, blockmap.FullReportRequest{}, 3600*sim.Second,
				func(resp any, err error) {
					if b.role != roleRecovering {
						return
					}
					b.reportsIn++
					now := b.node.Now()
					if err == nil {
						rep := resp.(blockmap.FullReport)
						blocks := int64(len(rep.Blocks)) + rep.VirtualBlocks
						b.digest.Add(now, sim.Time(blocks)*bnPerBlockProcess)
					}
					if b.reportsIn == b.reports {
						// After, not Charge: a zero wait still yields to the
						// event queue.
						b.node.After(b.digest.Add(now, 0), "bn-digest", b.finishTakeover)
					}
				})
		}
	})
}

func (b *BackupNode) finishTakeover() {
	if b.role != roleRecovering {
		return
	}
	b.role = roleActive
	b.emit("bn-takeover-done")
	b.armBatch()
}

// HandleMessage implements transport.Handler.
func (b *BackupNode) HandleMessage(from transport.NodeID, msg any) {
	// Best-effort replay; gaps are silently ignored (the design's
	// documented weakness). Block reports are not tracked here: the backup
	// must re-collect them on takeover.
	if m, ok := msg.(bnStream); ok && b.role == roleStandby {
		_ = b.applyNext(m.Batch)
	}
}

// HandleRequest implements transport.RequestHandler.
func (b *BackupNode) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	if _, ok := req.(bnPing); ok {
		reply(bnPong{})
		return
	}
	b.nsCore.HandleRequest(from, req, reply)
}
