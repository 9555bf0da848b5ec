package mams

import (
	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/partition"
	"mams/internal/transport"
)

// OpKind is a client-visible metadata operation.
type OpKind uint8

// Client operations (the five the paper benchmarks, plus list).
const (
	OpCreate OpKind = iota + 1
	OpMkdir
	OpDelete
	OpRename
	OpStat // "getfileinfo" in the paper
	OpList
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpDelete:
		return "delete"
	case OpRename:
		return "rename"
	case OpStat:
		return "getfileinfo"
	case OpList:
		return "list"
	default:
		return "op?"
	}
}

// Mutating reports whether the operation writes the namespace.
func (k OpKind) Mutating() bool {
	switch k {
	case OpCreate, OpMkdir, OpDelete, OpRename:
		return true
	}
	return false
}

// record is the journal record kind a mutation writes (OpNoop for a read).
func (k OpKind) record() journal.OpKind {
	switch k {
	case OpCreate:
		return journal.OpCreate
	case OpMkdir:
		return journal.OpMkdir
	case OpDelete:
		return journal.OpDelete
	case OpRename:
		return journal.OpRename
	}
	return journal.OpNoop
}

// ClientOp is the client→active RPC request.
type ClientOp struct {
	ReqID uint64
	Kind  OpKind
	Path  string
	Dest  string // rename destination
	Size  int64  // create file size
	// MapEpoch is the shard-map epoch the client routed with. A server
	// seeing an epoch newer than its own re-reads the shardmap znode.
	MapEpoch uint64
}

// OpReply answers a ClientOp.
type OpReply struct {
	Err       string
	NotActive bool             // receiver is not the active for this group
	Hint      transport.NodeID // best guess at the real active (may be empty)
	Info      *namespace.Info
	Infos     []namespace.Info

	// SN is the journal batch carrying this mutation (0 for reads and
	// failed ops) and Epoch the issuing active's view epoch.
	SN    uint64
	Epoch uint64
	// DurableSN is the group's durability watermark (highest committed sn)
	// at reply time. A sync-acked mutation always satisfies SN <= DurableSN;
	// an AsyncAck mutation is known durable only once some reply from the
	// same epoch reports DurableSN >= SN.
	DurableSN uint64

	// StaleMap rejects an op routed with an outdated shard map; Map carries
	// the receiver's installed map (immutable — safe to adopt directly) so
	// the client refreshes its cache without a central lookup.
	StaleMap bool
	Map      *partition.Map
	// SlotMoving rejects a mutation on a slot frozen mid-migration; the op
	// was not executed and the client should back off and retry.
	SlotMoving bool
}

// AppendBatch replicates a sealed journal batch from the active to its
// standbys (and, during final renewing sync, to a catching-up junior).
//
// The "modified two-phase commit" of §III.A is pipelined: the batch itself
// is the prepare for sn, and CommitThrough commits everything at or below
// it (normally sn-1). FlushOnly batches are the failover protocol's step-4
// re-flush — receivers deduplicate them by sn.
type AppendBatch struct {
	From          transport.NodeID
	Epoch         uint64
	Batch         journal.Batch
	CommitThrough uint64
	FlushOnly     bool
}

// AppendAck answers AppendBatch.
type AppendAck struct {
	From   transport.NodeID
	SN     uint64
	OK     bool // false: receiver has a gap and must be demoted to junior
	LastSN uint64
}

// Register is sent by every group member to a freshly upgraded active
// (Fig. 4 step 5); the active compares LastSN to assign standby or junior.
type Register struct {
	From   transport.NodeID
	LastSN uint64
}

// RegisterAck tells the member which role the new active assigned it.
type RegisterAck struct {
	Role  Role
	Epoch uint64
}

// RenewStart begins the renewing protocol on a junior (§III.D).
type RenewStart struct {
	From     transport.NodeID
	Epoch    uint64
	ActiveSN uint64
	// Latest checkpoint image available in the SSP (zero ImageSN = none).
	ImageSN   uint64
	ImageSize int64
}

// RenewJournalReq asks the active for up to renewJournalChunk journal
// batches after FromSN (used when the SSP lacks them, or for the final
// synchronization stage).
type RenewJournalReq struct {
	From   transport.NodeID
	FromSN uint64
}

// RenewJournalResp carries a run of batches plus the active's current sn.
// NeedImage signals that the requested range was truncated by a checkpoint
// and the junior must load the image identified by ImageSN first.
type RenewJournalResp struct {
	Batches   []journal.Batch
	ActiveSN  uint64
	NeedImage bool
	ImageSN   uint64
	ImageSize int64
}

// RenewProgress reports the junior's replay position to the active.
type RenewProgress struct {
	From transport.NodeID
	SN   uint64
}

// Promote tells a renewed junior it is now a standby (the active has
// already updated the global view). LastTx lets the promoted node continue
// transaction-id assignment correctly if it is later elected.
type Promote struct {
	Epoch  uint64
	LastTx uint64
}

// Demote tells a member the active has marked it junior (e.g., it missed a
// batch and acked with a gap).
type Demote struct {
	Epoch uint64
}

// TxnPrepare starts a cross-group distributed transaction (mkdir / delete /
// rename touching several namespace partitions). Participants apply the
// records immediately and vote; the coordinator aborts with compensating
// undo records if any participant refuses.
type TxnPrepare struct {
	TxnID   uint64
	From    transport.NodeID
	Records []journal.Record
}

// TxnVote answers TxnPrepare.
type TxnVote struct {
	TxnID uint64
	From  transport.NodeID
	OK    bool
	Err   string
}

// TxnAbort rolls back a prepared transaction on a participant.
type TxnAbort struct {
	TxnID uint64
}
