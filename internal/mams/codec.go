package mams

import (
	"errors"

	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/partition"
	"mams/internal/transport"
	"mams/internal/wire"
)

// Wire codecs for the messages the real transport (internal/nettrans)
// carries. Each type writes its fields in declaration order; its reader
// takes them back in the same order. The sim plane never encodes.

const (
	tagClientOp = wire.TagMAMS + iota
	tagOpReply
	tagAppendBatch
	tagAppendAck
	tagCommitNotice
	tagRegister
	tagRegisterAck
	tagRenewStart
	tagRenewJournalReq
	tagRenewJournalResp
	tagRenewProgress
	tagPromote
	tagDemote
	tagTxnPrepare
	tagTxnVote
	tagTxnAbort
	tagWhoIsActive
	tagActiveIs
	tagMigrateFreeze
	tagMigrateFreezeAck
	tagMigrateRead
	tagMigrateEntries
	tagMigratePurge
	tagMigrateIngest
	tagMigrateAck
	tagLoadReport
	tagLoadStats
)

func init() {
	wire.Register(readClientOp)
	wire.Register(readOpReply)
	wire.Register(readAppendBatch)
	wire.Register(readAppendAck)
	wire.Register(readCommitNotice)
	wire.Register(readRegister)
	wire.Register(readRegisterAck)
	wire.Register(readRenewStart)
	wire.Register(readRenewJournalReq)
	wire.Register(readRenewJournalResp)
	wire.Register(readRenewProgress)
	wire.Register(readPromote)
	wire.Register(readDemote)
	wire.Register(readTxnPrepare)
	wire.Register(readTxnVote)
	wire.Register(readTxnAbort)
	wire.Register(readWhoIsActive)
	wire.Register(readActiveIs)
	wire.Register(readMigrateFreeze)
	wire.Register(readMigrateFreezeAck)
	wire.Register(readMigrateRead)
	wire.Register(readMigrateEntries)
	wire.Register(readMigratePurge)
	wire.Register(readMigrateIngest)
	wire.Register(readMigrateAck)
	wire.Register(readLoadReport)
	wire.Register(readLoadStats)
}

func readNode(r *wire.Reader) transport.NodeID { return transport.NodeID(r.String()) }

func writeUvarints(w *wire.Writer, vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

func readUvarints(r *wire.Reader) []uint64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uvarint()
	}
	return vs
}

func (ClientOp) WireTag() uint8 { return tagClientOp }

func (m ClientOp) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.ReqID)
	w.U8(uint8(m.Kind))
	w.String(m.Path)
	w.String(m.Dest)
	w.Varint(m.Size)
	w.Uvarint(m.MapEpoch)
}

func readClientOp(r *wire.Reader) ClientOp {
	return ClientOp{ReqID: r.Uvarint(), Kind: OpKind(r.U8()), Path: r.String(), Dest: r.String(), Size: r.Varint(), MapEpoch: r.Uvarint()}
}

// minInfoLen is the fewest bytes writeInfo emits.
const minInfoLen = 8

func writeInfo(w *wire.Writer, in *namespace.Info) {
	w.String(in.Path)
	w.String(in.Name)
	w.Bool(in.Dir)
	w.Varint(in.Size)
	w.U16(in.Perm)
	w.Varint(in.MTime)
	writeUvarints(w, in.Blocks)
}

func readInfo(r *wire.Reader) namespace.Info {
	return namespace.Info{Path: r.String(), Name: r.String(), Dir: r.Bool(), Size: r.Varint(), Perm: r.U16(), MTime: r.Varint(), Blocks: readUvarints(r)}
}

func (OpReply) WireTag() uint8 { return tagOpReply }

func (m OpReply) MarshalWire(w *wire.Writer) {
	w.String(m.Err)
	w.Bool(m.NotActive)
	w.String(string(m.Hint))
	w.Bool(m.Info != nil)
	if m.Info != nil {
		writeInfo(w, m.Info)
	}
	w.Uvarint(uint64(len(m.Infos)))
	for i := range m.Infos {
		writeInfo(w, &m.Infos[i])
	}
	w.Uvarint(m.SN)
	w.Uvarint(m.Epoch)
	w.Uvarint(m.DurableSN)
	w.Bool(m.StaleMap)
	w.Bool(m.Map != nil)
	if m.Map != nil {
		w.Blob(m.Map.Encode())
	}
	w.Bool(m.SlotMoving)
}

func readOpReply(r *wire.Reader) OpReply {
	m := OpReply{Err: r.String(), NotActive: r.Bool(), Hint: readNode(r)}
	if r.Bool() {
		in := readInfo(r)
		m.Info = &in
	}
	if n := r.Count(minInfoLen); n > 0 {
		m.Infos = make([]namespace.Info, n)
		for i := range m.Infos {
			m.Infos[i] = readInfo(r)
		}
	}
	m.SN, m.Epoch, m.DurableSN = r.Uvarint(), r.Uvarint(), r.Uvarint()
	m.StaleMap = r.Bool()
	if r.Bool() {
		m.Map = readMap(r)
	}
	m.SlotMoving = r.Bool()
	return m
}

var errNonCanonicalMap = errors.New("mams: shard map not in its canonical encoding")

// readMap decodes a shard map carried in its canonical znode encoding. A
// blob that decodes but is not what Encode writes is rejected, so the
// frame's encoding stays canonical.
func readMap(r *wire.Reader) *partition.Map {
	b := r.Blob()
	if r.Err() != nil {
		return nil
	}
	m, err := partition.DecodeMap(b)
	if err == nil && string(m.Encode()) != string(b) {
		err = errNonCanonicalMap
	}
	if err != nil {
		r.Fail(err)
		return nil
	}
	return m
}

func (AppendBatch) WireTag() uint8 { return tagAppendBatch }

func (m AppendBatch) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.Epoch)
	m.Batch.MarshalTo(w)
	w.Uvarint(m.CommitThrough)
	w.Bool(m.FlushOnly)
}

func readAppendBatch(r *wire.Reader) AppendBatch {
	return AppendBatch{From: readNode(r), Epoch: r.Uvarint(), Batch: journal.ReadBatch(r), CommitThrough: r.Uvarint(), FlushOnly: r.Bool()}
}

func (AppendAck) WireTag() uint8 { return tagAppendAck }

func (m AppendAck) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.SN)
	w.Bool(m.OK)
	w.Uvarint(m.LastSN)
}

func readAppendAck(r *wire.Reader) AppendAck {
	return AppendAck{From: readNode(r), SN: r.Uvarint(), OK: r.Bool(), LastSN: r.Uvarint()}
}

func (CommitNotice) WireTag() uint8 { return tagCommitNotice }

func (m CommitNotice) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Epoch)
	w.Uvarint(m.Through)
}

func readCommitNotice(r *wire.Reader) CommitNotice {
	return CommitNotice{Epoch: r.Uvarint(), Through: r.Uvarint()}
}

func (Register) WireTag() uint8 { return tagRegister }

func (m Register) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.LastSN)
}

func readRegister(r *wire.Reader) Register {
	return Register{From: readNode(r), LastSN: r.Uvarint()}
}

func (RegisterAck) WireTag() uint8 { return tagRegisterAck }

func (m RegisterAck) MarshalWire(w *wire.Writer) {
	w.U8(uint8(m.Role))
	w.Uvarint(m.Epoch)
}

func readRegisterAck(r *wire.Reader) RegisterAck {
	return RegisterAck{Role: Role(r.U8()), Epoch: r.Uvarint()}
}

func (RenewStart) WireTag() uint8 { return tagRenewStart }

func (m RenewStart) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.Epoch)
	w.Uvarint(m.ActiveSN)
	w.Uvarint(m.ImageSN)
	w.Varint(m.ImageSize)
}

func readRenewStart(r *wire.Reader) RenewStart {
	return RenewStart{From: readNode(r), Epoch: r.Uvarint(), ActiveSN: r.Uvarint(), ImageSN: r.Uvarint(), ImageSize: r.Varint()}
}

func (RenewJournalReq) WireTag() uint8 { return tagRenewJournalReq }

func (m RenewJournalReq) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.FromSN)
}

func readRenewJournalReq(r *wire.Reader) RenewJournalReq {
	return RenewJournalReq{From: readNode(r), FromSN: r.Uvarint()}
}

func (RenewJournalResp) WireTag() uint8 { return tagRenewJournalResp }

func (m RenewJournalResp) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.Batches)))
	for i := range m.Batches {
		m.Batches[i].MarshalTo(w)
	}
	w.Uvarint(m.ActiveSN)
	w.Bool(m.NeedImage)
	w.Uvarint(m.ImageSN)
	w.Varint(m.ImageSize)
}

func readRenewJournalResp(r *wire.Reader) RenewJournalResp {
	var m RenewJournalResp
	if n := r.Count(journal.MinBatchLen); n > 0 {
		m.Batches = make([]journal.Batch, n)
		for i := range m.Batches {
			m.Batches[i] = journal.ReadBatch(r)
		}
	}
	m.ActiveSN, m.NeedImage, m.ImageSN, m.ImageSize = r.Uvarint(), r.Bool(), r.Uvarint(), r.Varint()
	return m
}

func (RenewProgress) WireTag() uint8 { return tagRenewProgress }

func (m RenewProgress) MarshalWire(w *wire.Writer) {
	w.String(string(m.From))
	w.Uvarint(m.SN)
}

func readRenewProgress(r *wire.Reader) RenewProgress {
	return RenewProgress{From: readNode(r), SN: r.Uvarint()}
}

func (Promote) WireTag() uint8 { return tagPromote }

func (m Promote) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Epoch)
	w.Uvarint(m.LastTx)
}

func readPromote(r *wire.Reader) Promote {
	return Promote{Epoch: r.Uvarint(), LastTx: r.Uvarint()}
}

func (Demote) WireTag() uint8 { return tagDemote }

func (m Demote) MarshalWire(w *wire.Writer) { w.Uvarint(m.Epoch) }

func readDemote(r *wire.Reader) Demote { return Demote{Epoch: r.Uvarint()} }

func (TxnPrepare) WireTag() uint8 { return tagTxnPrepare }

func (m TxnPrepare) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.TxnID)
	w.String(string(m.From))
	w.Uvarint(uint64(len(m.Records)))
	for i := range m.Records {
		m.Records[i].MarshalTo(w)
	}
}

func readTxnPrepare(r *wire.Reader) TxnPrepare {
	m := TxnPrepare{TxnID: r.Uvarint(), From: readNode(r)}
	if n := r.Count(journal.MinRecordLen); n > 0 {
		m.Records = make([]journal.Record, n)
		for i := range m.Records {
			m.Records[i] = journal.ReadRecord(r)
		}
	}
	return m
}

func (TxnVote) WireTag() uint8 { return tagTxnVote }

func (m TxnVote) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.TxnID)
	w.String(string(m.From))
	w.Bool(m.OK)
	w.String(m.Err)
}

func readTxnVote(r *wire.Reader) TxnVote {
	return TxnVote{TxnID: r.Uvarint(), From: readNode(r), OK: r.Bool(), Err: r.String()}
}

func (TxnAbort) WireTag() uint8 { return tagTxnAbort }

func (m TxnAbort) MarshalWire(w *wire.Writer) { w.Uvarint(m.TxnID) }

func readTxnAbort(r *wire.Reader) TxnAbort { return TxnAbort{TxnID: r.Uvarint()} }

func (WhoIsActive) WireTag() uint8 { return tagWhoIsActive }

func (m WhoIsActive) MarshalWire(w *wire.Writer) { w.String(string(m.Refused)) }

func readWhoIsActive(r *wire.Reader) WhoIsActive { return WhoIsActive{Refused: readNode(r)} }

func (ActiveIs) WireTag() uint8 { return tagActiveIs }

func (m ActiveIs) MarshalWire(w *wire.Writer) {
	w.String(string(m.Active))
	w.Uvarint(m.Epoch)
}

func readActiveIs(r *wire.Reader) ActiveIs {
	return ActiveIs{Active: readNode(r), Epoch: r.Uvarint()}
}

func (MigrateFreeze) WireTag() uint8 { return tagMigrateFreeze }

func (m MigrateFreeze) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.ID)
	w.Varint(int64(m.Slot))
}

func readMigrateFreeze(r *wire.Reader) MigrateFreeze {
	return MigrateFreeze{ID: r.Uvarint(), Slot: int(r.Varint())}
}

func (MigrateFreezeAck) WireTag() uint8 { return tagMigrateFreezeAck }

func (m MigrateFreezeAck) MarshalWire(w *wire.Writer) {
	w.Bool(m.OK)
	w.Uvarint(m.Barrier)
	w.String(m.Err)
}

func readMigrateFreezeAck(r *wire.Reader) MigrateFreezeAck {
	return MigrateFreezeAck{OK: r.Bool(), Barrier: r.Uvarint(), Err: r.String()}
}

func (MigrateRead) WireTag() uint8 { return tagMigrateRead }

func (m MigrateRead) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.ID)
	w.Varint(int64(m.Slot))
}

func readMigrateRead(r *wire.Reader) MigrateRead {
	return MigrateRead{ID: r.Uvarint(), Slot: int(r.Varint())}
}

func writeMigEntries(w *wire.Writer, es []MigEntry) {
	w.Uvarint(uint64(len(es)))
	for _, e := range es {
		w.String(e.Path)
		w.Varint(e.Size)
		w.U16(e.Perm)
		w.Varint(e.MTime)
	}
}

func readMigEntries(r *wire.Reader) []MigEntry {
	n := r.Count(5) // the fewest bytes an entry takes
	if n == 0 {
		return nil
	}
	es := make([]MigEntry, n)
	for i := range es {
		es[i] = MigEntry{Path: r.String(), Size: r.Varint(), Perm: r.U16(), MTime: r.Varint()}
	}
	return es
}

func (MigrateEntries) WireTag() uint8 { return tagMigrateEntries }

func (m MigrateEntries) MarshalWire(w *wire.Writer) {
	w.Bool(m.OK)
	w.Bool(m.NotDrained)
	writeMigEntries(w, m.Entries)
	w.String(m.Err)
}

func readMigrateEntries(r *wire.Reader) MigrateEntries {
	return MigrateEntries{OK: r.Bool(), NotDrained: r.Bool(), Entries: readMigEntries(r), Err: r.String()}
}

func (MigratePurge) WireTag() uint8 { return tagMigratePurge }

func (m MigratePurge) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.ID)
	w.Varint(int64(m.Slot))
}

func readMigratePurge(r *wire.Reader) MigratePurge {
	return MigratePurge{ID: r.Uvarint(), Slot: int(r.Varint())}
}

func (MigrateIngest) WireTag() uint8 { return tagMigrateIngest }

func (m MigrateIngest) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.ID)
	w.Varint(int64(m.Slot))
	writeMigEntries(w, m.Entries)
}

func readMigrateIngest(r *wire.Reader) MigrateIngest {
	return MigrateIngest{ID: r.Uvarint(), Slot: int(r.Varint()), Entries: readMigEntries(r)}
}

func (MigrateAck) WireTag() uint8 { return tagMigrateAck }

func (m MigrateAck) MarshalWire(w *wire.Writer) {
	w.Bool(m.OK)
	w.Varint(int64(m.Applied))
	w.String(m.Err)
}

func readMigrateAck(r *wire.Reader) MigrateAck {
	return MigrateAck{OK: r.Bool(), Applied: int(r.Varint()), Err: r.String()}
}

func (LoadReport) WireTag() uint8 { return tagLoadReport }

func (m LoadReport) MarshalWire(w *wire.Writer) { w.Bool(m.Reset) }

func readLoadReport(r *wire.Reader) LoadReport { return LoadReport{Reset: r.Bool()} }

func (LoadStats) WireTag() uint8 { return tagLoadStats }

func (m LoadStats) MarshalWire(w *wire.Writer) {
	w.Bool(m.OK)
	w.Varint(int64(m.Group))
	w.Uvarint(m.Total)
	writeUvarints(w, m.Slots)
}

func readLoadStats(r *wire.Reader) LoadStats {
	return LoadStats{OK: r.Bool(), Group: int(r.Varint()), Total: r.Uvarint(), Slots: readUvarints(r)}
}
