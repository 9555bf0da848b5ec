// Package journal defines the metadata edit log shared between an active
// metadata server, its standbys and the shared storage pool (SSP).
//
// Following the paper (§III.A), the active aggregates metadata modifications
// into batches before writing them back asynchronously. Each batch carries a
// monotonically increasing serial number sn and the first transaction id it
// contains — the paper's <sn, transactionid> pair — plus the active's
// election epoch, which implements the duplicate/stale-journal filtering of
// failover step 4 (Fig. 4) and IO fencing.
package journal

import (
	"errors"
	"fmt"

	"mams/internal/wire"
)

// OpKind identifies a namespace mutation.
type OpKind uint8

// The metadata operations evaluated in the paper.
const (
	OpNoop OpKind = iota
	OpCreate
	OpMkdir
	OpDelete
	OpRename
)

func (k OpKind) String() string {
	switch k {
	case OpNoop:
		return "noop"
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpDelete:
		return "delete"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Record is a single logged mutation.
type Record struct {
	TxID  uint64
	Op    OpKind
	Path  string
	Dest  string // rename destination; empty otherwise
	Size  int64  // file size at create; 0 otherwise
	Perm  uint16
	MTime int64 // virtual-time nanoseconds
}

// Batch is the unit of journal synchronization: a sealed group of records
// identified by (SN, FirstTx) and fenced by the writer's epoch.
type Batch struct {
	SN      uint64
	Epoch   uint64
	FirstTx uint64
	Records []Record
}

// LastTx returns the highest transaction id in the batch, or FirstTx-1 for
// an empty batch.
func (b *Batch) LastTx() uint64 {
	if len(b.Records) == 0 {
		return b.FirstTx - 1
	}
	return b.Records[len(b.Records)-1].TxID
}

// Encode serializes the batch.
func (b *Batch) Encode() []byte {
	w := wire.NewWriter(64 + 48*len(b.Records))
	b.MarshalTo(w)
	return w.Bytes()
}

// MarshalTo appends the batch to w: the one record layout, shared by pool
// objects and the frames that replicate batches.
func (b *Batch) MarshalTo(w *wire.Writer) {
	w.Uvarint(b.SN)
	w.Uvarint(b.Epoch)
	w.Uvarint(b.FirstTx)
	w.Uvarint(uint64(len(b.Records)))
	for i := range b.Records {
		b.Records[i].MarshalTo(w)
	}
}

// MarshalTo appends one record to w.
func (rec *Record) MarshalTo(w *wire.Writer) {
	w.Uvarint(rec.TxID)
	w.U8(uint8(rec.Op))
	w.String(rec.Path)
	w.String(rec.Dest)
	w.Varint(rec.Size)
	w.U16(rec.Perm)
	w.Varint(rec.MTime)
}

// MinRecordLen is the fewest bytes a record encodes to: the per-element
// minimum to check a record count against (wire.Reader.Count).
const MinRecordLen = 8

// ReadRecord reads a record written by Record.MarshalTo; errors stick in r.
func ReadRecord(r *wire.Reader) Record {
	return Record{
		TxID:  r.Uvarint(),
		Op:    OpKind(r.U8()),
		Path:  r.String(),
		Dest:  r.String(),
		Size:  r.Varint(),
		Perm:  r.U16(),
		MTime: r.Varint(),
	}
}

// EncodedLen returns len(b.Encode()) without encoding or allocating.
func (b *Batch) EncodedLen() int {
	n := wire.UvarintLen(b.SN) + wire.UvarintLen(b.Epoch) + wire.UvarintLen(b.FirstTx) +
		wire.UvarintLen(uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		n += wire.UvarintLen(r.TxID) + 1 + wire.StringLen(r.Path) + wire.StringLen(r.Dest) +
			wire.VarintLen(r.Size) + 2 + wire.VarintLen(r.MTime)
	}
	return n
}

// DecodeBatch parses a batch produced by Encode.
func DecodeBatch(buf []byte) (Batch, error) {
	r := wire.NewReader(buf)
	b := ReadBatch(r)
	if err := r.Finish(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// MinBatchLen is the fewest bytes a batch encodes to.
const MinBatchLen = 4

// ReadBatch reads a batch written by MarshalTo; errors stick in r. A batch
// without records reads with nil Records.
func ReadBatch(r *wire.Reader) Batch {
	b := Batch{SN: r.Uvarint(), Epoch: r.Uvarint(), FirstTx: r.Uvarint()}
	if n := r.Count(MinRecordLen); n > 0 {
		b.Records = make([]Record, n)
		for i := range b.Records {
			b.Records[i] = ReadRecord(r)
		}
	}
	return b
}

// Journal errors.
var (
	// ErrGap reports an append whose SN is not exactly lastSN+1.
	ErrGap = errors.New("journal: sn gap")
	// ErrStale reports a batch from an older epoch or with an already-seen
	// SN; per Fig. 4 step 4 such batches are ignored, not applied twice.
	ErrStale = errors.New("journal: stale or duplicate batch")
)

// Log is an ordered sequence of batches held by one server (or the SSP).
// It enforces the paper's commit rule: a batch is accepted only when its SN
// is exactly lastSN+1 and its epoch is not older than the highest seen.
type Log struct {
	batches []Batch
	baseSN  uint64 // SN of batches[0]; logs may be truncated at a checkpoint
	lastSN  uint64
	epoch   uint64
	bytes   int64
}

// NewLog returns an empty log whose next expected SN is 1.
func NewLog() *Log { return &Log{} }

// LastSN returns the highest committed serial number (0 if empty).
func (l *Log) LastSN() uint64 { return l.lastSN }

// Epoch returns the highest writer epoch observed.
func (l *Log) Epoch() uint64 { return l.epoch }

// Bytes returns the total encoded size of retained batches.
func (l *Log) Bytes() int64 { return l.bytes }

// Len returns the number of retained batches.
func (l *Log) Len() int { return len(l.batches) }

// Append commits the batch if it is the next in sequence.
//
// Returns ErrStale for duplicates/old epochs (caller ignores them: that is
// how re-flushed journals after failover are deduplicated) and ErrGap when
// the server has missed batches and must be demoted to junior for renewing.
func (l *Log) Append(b Batch) error {
	if b.Epoch < l.epoch {
		return ErrStale
	}
	if b.SN <= l.lastSN {
		return ErrStale
	}
	if b.SN != l.lastSN+1 {
		return ErrGap
	}
	if len(l.batches) == 0 {
		l.baseSN = b.SN
	}
	l.batches = append(l.batches, b)
	l.lastSN = b.SN
	if b.Epoch > l.epoch {
		l.epoch = b.Epoch
	}
	l.bytes += int64(b.EncodedLen())
	return nil
}

// Since returns all retained batches with SN > sn, in order.
func (l *Log) Since(sn uint64) []Batch {
	var out []Batch
	for _, b := range l.batches {
		if b.SN > sn {
			out = append(out, b)
		}
	}
	return out
}

// Get returns the batch with the given SN, if retained.
func (l *Log) Get(sn uint64) (Batch, bool) {
	if sn < l.baseSN || sn > l.lastSN || len(l.batches) == 0 {
		return Batch{}, false
	}
	b := l.batches[sn-l.baseSN]
	if b.SN != sn {
		return Batch{}, false
	}
	return b, true
}

// TruncateThrough drops batches with SN <= sn (after a checkpoint image has
// made them redundant). The next expected SN is unchanged.
func (l *Log) TruncateThrough(sn uint64) {
	i := 0
	for i < len(l.batches) && l.batches[i].SN <= sn {
		l.bytes -= int64(l.batches[i].EncodedLen())
		i++
	}
	l.batches = append([]Batch(nil), l.batches[i:]...)
	if len(l.batches) > 0 {
		l.baseSN = l.batches[0].SN
	} else {
		l.baseSN = 0
	}
}

// Reset discards all state (a junior restarting from scratch).
func (l *Log) Reset() {
	*l = Log{}
}

// ResetTo discards state and primes the log so the next accepted SN is
// sn+1 — used after a junior loads a checkpoint image taken at sn.
func (l *Log) ResetTo(sn, epoch uint64) {
	*l = Log{lastSN: sn, epoch: epoch}
}

// Builder assigns serial numbers and transaction ids on the active server
// and aggregates records into batches (the paper's asynchronous write-back
// aggregation).
type Builder struct {
	epoch   uint64
	nextSN  uint64
	nextTx  uint64
	pending []Record
}

// NewBuilder starts numbering after the given committed position.
func NewBuilder(epoch, lastSN, lastTx uint64) *Builder {
	return &Builder{epoch: epoch, nextSN: lastSN + 1, nextTx: lastTx + 1}
}

// Epoch returns the builder's writer epoch.
func (bd *Builder) Epoch() uint64 { return bd.epoch }

// Pending returns the number of records not yet sealed.
func (bd *Builder) Pending() int { return len(bd.pending) }

// Add appends a record, assigning it the next transaction id, and returns
// the assigned id.
func (bd *Builder) Add(rec Record) uint64 {
	rec.TxID = bd.nextTx
	bd.nextTx++
	bd.pending = append(bd.pending, rec)
	return rec.TxID
}

// Seal closes the pending records into a batch with the next SN. Sealing
// with no pending records returns an empty batch (still SN-numbered), which
// callers normally avoid. The batch's Records are clipped to their length,
// so a sealed batch carries no append slack; the next batch starts with room
// for as many records as this one held.
func (bd *Builder) Seal() Batch {
	n := len(bd.pending)
	b := Batch{
		SN:      bd.nextSN,
		Epoch:   bd.epoch,
		FirstTx: bd.nextTx - uint64(n),
		Records: bd.pending[:n:n],
	}
	bd.nextSN++
	bd.pending = make([]Record, 0, n)
	return b
}
