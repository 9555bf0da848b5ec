package mams

import "mams/internal/sim"

// CostModel is the modelled hardware: what each piece of work costs on the
// machine being imitated. The plane supplies it. The simulator runs the
// calibration below (DefaultParams: the paper's testbed, 4-core Xeon X3320,
// GbE, §IV), so the reproduced tables and figures land in the same regime.
// The wire plane runs the zero CostModel: on real hardware work costs what
// it costs, and a zero charge runs inline without arming a timer
// (transport.Charge).
type CostModel struct {
	// Per-operation CPU service time on the active (single dispatch
	// thread model; saturation throughput per server ≈ 1/ServiceTime).
	ReadSvc   sim.Time
	CreateSvc sim.Time
	MkdirSvc  sim.Time
	DeleteSvc sim.Time
	RenameSvc sim.Time

	// Replication cost charged to the active per batch per standby, plus
	// a per-record component. These produce the paper's few-percent
	// per-standby overhead (Fig. 5).
	ReplPerBatchPerStandby  sim.Time
	ReplPerRecordPerStandby sim.Time

	// StandbyApplyPerRecord is the standby's CPU cost to apply a record.
	StandbyApplyPerRecord sim.Time

	// SSPPerRecordCPU is the active's cost to serialize a record into the
	// shared storage pool write path (cheap: local-first sequential
	// writes, the SSP's design goal).
	SSPPerRecordCPU sim.Time

	// TxnOverhead is the fixed extra CPU per distributed-transaction
	// participant (2PC bookkeeping), making mkdir/delete/rename the
	// slower "distributed transactions in the CFS" of Fig. 5.
	TxnOverhead sim.Time

	// DispatchFrac is the share of a mutating op's service time spent on
	// in-memory dispatch under GroupCommit; the remaining journal-sync
	// share moves to the journal lane and amortizes across the batch.
	DispatchFrac float64

	// JournalFlushPerBatch / JournalPerRecord are the journal lane's
	// per-seal (sequential write + sync) and per-record encode costs.
	JournalFlushPerBatch sim.Time
	JournalPerRecord     sim.Time

	// CommitAckCost is the dispatch-thread cost per op to process a commit
	// completion and send the reply in GroupCommit sync-ack mode (AsyncAck
	// replies at seal and skips it).
	CommitAckCost sim.Time

	SwitchCommitCost sim.Time // committing cached journals on the elected standby
	SwitchStateCost  sim.Time // bookkeeping to flip into serving mode
	RenewBatchApply  sim.Time // junior CPU per journal batch applied
}

// Params is the commit policy a deployment or experiment chooses — seal
// timer, group commit and its window, ack point, pool durability — plus the
// CostModel of the plane it runs on, embedded so p.CreateSvc still reads.
// The protocol's fixed timing (ack time-out, election jitter, registration
// window, renewing cadence) is constant at its use site.
type Params struct {
	CostModel

	// Journal batching: modifications are aggregated and written back
	// asynchronously (§IV).
	BatchEvery      sim.Time
	BatchMaxRecords int

	// GroupCommit switches the active's commit path from timer-only sealing
	// to adaptive group commit with a pipelined journal: a batch seals as
	// soon as the pipeline has room (immediately when nothing is in flight,
	// on each commit advance otherwise, or when the builder reaches
	// BatchMaxRecords), and the journal write runs on its own lane so only
	// the in-memory dispatch share of a mutating op stays on the op-service
	// thread (commitPipeline).
	GroupCommit bool

	// MaxInflightBatches bounds the pipelined replication window under
	// GroupCommit: that many sealed batches may be replicating concurrently
	// while commit advancement stays strictly in sn order.
	MaxInflightBatches int

	// AsyncAck (implies GroupCommit) acknowledges mutations at seal time
	// instead of at commit: the reply carries the batch sn plus the group's
	// durability watermark (committedSN), and clients learn durability when
	// a later watermark from the same epoch covers their sn.
	AsyncAck bool

	// TraceAppends emits a KindJournal "append"/"append-dup" trace event at
	// every journal append site (active seal, standby commit, renew apply,
	// SSP replay). The invariant monitor in internal/check consumes these to
	// assert per-node sn monotonicity; off by default to keep the trace log
	// small in throughput experiments.
	TraceAppends bool

	// SkipDupSuppression is a deliberate regression knob for internal/check:
	// it makes a standby re-apply duplicate batches during the failover
	// re-flush instead of suppressing them by sn. Never set outside checker
	// self-tests — it exists so the explorer's "catches a planted bug and
	// shrinks it" acceptance test has a bug to catch.
	SkipDupSuppression bool

	// SyncSSP makes batch commit additionally wait for the shared storage
	// pool write to be durable. This implements the paper's future-work
	// direction ("data recovery at any point with less data loss"): with
	// it on, acknowledged operations survive even the loss of the entire
	// replica group, at a latency/throughput cost the ablation benchmarks
	// quantify.
	SyncSSP bool
}

// DefaultParams returns the calibration used throughout the experiments:
// the protocol defaults with the paper-testbed CostModel.
func DefaultParams() Params {
	return Params{
		CostModel: CostModel{
			ReadSvc:   45 * sim.Microsecond,
			CreateSvc: 75 * sim.Microsecond,
			MkdirSvc:  95 * sim.Microsecond,
			DeleteSvc: 90 * sim.Microsecond,
			RenameSvc: 120 * sim.Microsecond,

			ReplPerBatchPerStandby:  20 * sim.Microsecond,
			ReplPerRecordPerStandby: 5 * sim.Microsecond,
			StandbyApplyPerRecord:   8 * sim.Microsecond,
			SSPPerRecordCPU:         6 * sim.Microsecond,
			TxnOverhead:             80 * sim.Microsecond,

			DispatchFrac:         0.10,
			JournalFlushPerBatch: 30 * sim.Microsecond,
			JournalPerRecord:     4 * sim.Microsecond,
			CommitAckCost:        6 * sim.Microsecond,

			SwitchCommitCost: 90 * sim.Millisecond,
			SwitchStateCost:  60 * sim.Millisecond,
			RenewBatchApply:  200 * sim.Microsecond,
		},

		BatchEvery:         2 * sim.Millisecond,
		BatchMaxRecords:    512,
		MaxInflightBatches: 4,
	}
}

// SvcFor returns the active's service time for an operation kind.
func (c CostModel) SvcFor(kind OpKind) sim.Time {
	switch kind {
	case OpStat, OpList:
		return c.ReadSvc
	case OpCreate:
		return c.CreateSvc
	case OpMkdir:
		return c.MkdirSvc
	case OpDelete:
		return c.DeleteSvc
	case OpRename:
		return c.RenameSvc
	default:
		return c.ReadSvc
	}
}
