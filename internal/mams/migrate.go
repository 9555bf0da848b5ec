package mams

// Live partition migration: the sharded-namespace layer on top of the MAMS
// replica groups.
//
// Placement is governed by an epoch-versioned partition.Map stored in a
// single coordination-service znode (/mams/shardmap). Servers watch the
// znode and install newer maps; clients cache a map per process and learn
// of newer epochs from StaleMap routing rejections — there is no central
// lookup on the hot path.
//
// A migration moves one slot's file entries between groups with a
// freeze-copy-flip protocol driven by a Migrator (an out-of-band process
// holding its own coordination session):
//
//  1. freeze — CAS the migration record {ID, Slot, From, To} into the
//     shardmap znode. Every member of From learns of it via watch or — the
//     failover-critical path — by reading the znode during upgrade, so the
//     freeze survives active failover. A frozen active rejects mutations on
//     the slot (retryable SlotMoving) but keeps serving reads, and
//     remembers the journal barrier (its LastSN at freeze time).
//  2. copy — once the barrier commits, the Migrator reads the slot's file
//     entries from the From active in one shot. The To active first purges
//     leftover slot entries from any earlier aborted attempt, then ingests
//     the copy through its normal journal pipeline (acked at commit), so
//     the pair is idempotent under retries and failovers.
//  3. flip — CAS the slot's new owner into the map (epoch+1) and clear the
//     migration record. From's active purges the moved entries when it
//     installs the flipped map (journaled deletes, replayed by standbys).
//
// Safety: an acknowledged entry is never lost or double-homed. Mutations
// committed before the freeze are covered by the barrier and thus by the
// copy; mutations during the freeze are rejected; after the flip the source
// rejects the slot with StaleMap before touching its tree. A new active of
// From reads the shardmap before serving (upgrade step), so no post-copy
// window exists in which an unfrozen active could accept a slot mutation.

import (
	"encoding/json"
	"fmt"

	"mams/internal/coord"
	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/obs"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// ShardMapPath is the global shard-map znode. Absent znode means "every
// server uses its built-in epoch-0 uniform map" — the static-hashing
// baseline needs no coordination state at all.
const ShardMapPath = "/mams/shardmap"

// MigrationRec is the in-flight migration stored inside the shardmap znode.
// Its presence IS the freeze: any current or future active of From must
// reject mutations on Slot while the record stands.
type MigrationRec struct {
	ID   uint64 `json:"id"`
	Slot int    `json:"slot"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// shardStateWire is the znode payload: the encoded map plus the optional
// in-flight migration record.
type shardStateWire struct {
	Map []byte        `json:"map"`
	Mig *MigrationRec `json:"mig,omitempty"`
}

func encodeShardState(m *partition.Map, rec *MigrationRec) []byte {
	b, err := json.Marshal(shardStateWire{Map: m.Encode(), Mig: rec})
	if err != nil {
		panic("mams: encode shard state: " + err.Error())
	}
	return b
}

func decodeShardState(data []byte) (*partition.Map, *MigrationRec, error) {
	var w shardStateWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, nil, err
	}
	m, err := partition.DecodeMap(w.Map)
	if err != nil {
		return nil, nil, err
	}
	return m, w.Mig, nil
}

// ---- migration messages ----

// MigrateFreeze nudges the From active to install the freeze and report its
// journal barrier. Idempotent; the znode record is the source of truth and
// the active re-reads it when the ID is unknown.
type MigrateFreeze struct {
	ID   uint64
	Slot int
}

// MigrateFreezeAck answers MigrateFreeze.
type MigrateFreezeAck struct {
	OK      bool
	Barrier uint64 // LastSN at freeze install; copy is valid once committed
	Err     string
}

// MigrateRead asks the frozen From active for the slot's file entries.
type MigrateRead struct {
	ID   uint64
	Slot int
}

// MigEntry is one migrated file entry.
type MigEntry struct {
	Path  string
	Size  int64
	Perm  uint16
	MTime int64
}

// MigrateEntries answers MigrateRead. NotDrained asks the Migrator to retry
// once the freeze barrier has committed.
type MigrateEntries struct {
	OK         bool
	NotDrained bool
	Entries    []MigEntry
	Err        string
}

// MigratePurge tells the To active to delete any leftover slot entries from
// an earlier aborted attempt before ingesting. Replied at commit.
type MigratePurge struct {
	ID   uint64
	Slot int
}

// MigrateIngest ships the copied entries to the To active, which journals
// them through its normal pipeline. Replied at commit.
type MigrateIngest struct {
	ID      uint64
	Slot    int
	Entries []MigEntry
}

// MigrateAck answers MigratePurge and MigrateIngest.
type MigrateAck struct {
	OK      bool
	Applied int
	Err     string
}

// LoadReport asks a group's active for its per-slot operation counts since
// the last reset — the load signal behind the balancer policy.
type LoadReport struct {
	Reset bool
}

// LoadStats answers LoadReport.
type LoadStats struct {
	OK    bool
	Group int
	Total uint64
	Slots []uint64 // per-slot executed ops (copy; safe to retain)
}

// ---- server-side sharding state ----

// registerShardObs creates the sharding instruments (called from NewServer).
func (s *Server) registerShardObs(reg *obs.Registry, me string) {
	s.obsStaleMap = reg.Counter("mams_shard_stale_replies_total",
		"Client ops rejected with a StaleMap routing reply (client cache refresh).", "node", me)
	s.obsFrozenRej = reg.Counter("mams_shard_frozen_rejects_total",
		"Mutations rejected because their slot is frozen mid-migration.", "node", me)
	s.obsMigIn = reg.Counter("mams_shard_entries_migrated_in_total",
		"File entries ingested by this node as a migration destination.", "node", me)
	s.obsPurged = reg.Counter("mams_shard_entries_purged_total",
		"File entries purged after their slot moved to another group.", "node", me)
	s.obsSlotOps = reg.Counter("mams_shard_slot_ops_total",
		"Slot-homed operations executed (the balancer's load signal).", "node", me)
}

// armShardWatch installs the shardmap watch and adopts the current state.
// The GetData watch also fires on later creation when the znode does not
// exist yet, so the static-hashing baseline arms exactly one watch and
// never hears from it again.
func (s *Server) armShardWatch() {
	if s.cfg.Partitioner == nil {
		return
	}
	s.coordCli.GetData(ShardMapPath, true, func(data []byte, ver int64, err error) {
		if err != nil || len(data) == 0 {
			return
		}
		if m, rec, derr := decodeShardState(data); derr == nil {
			s.installShardState(m, rec)
		}
	})
}

// refreshShardMap re-reads the shardmap once (no watch) and calls done
// regardless of outcome. The upgrade path uses it so a new active knows the
// current map — and, critically, any standing freeze — before serving.
func (s *Server) refreshShardMap(done func()) {
	if s.cfg.Partitioner == nil {
		if done != nil {
			done()
		}
		return
	}
	s.coordCli.GetData(ShardMapPath, false, func(data []byte, ver int64, err error) {
		if err == nil && len(data) > 0 {
			if m, rec, derr := decodeShardState(data); derr == nil {
				s.installShardState(m, rec)
			}
		}
		if done != nil {
			done()
		}
	})
}

// installShardState adopts a shard map and migration record read from the
// znode. Safe to call repeatedly; newer epochs win.
func (s *Server) installShardState(m *partition.Map, rec *MigrationRec) {
	if s.cfg.Partitioner == nil {
		return
	}
	installed := s.cfg.Partitioner.Install(m)
	prevRec := s.migRec
	s.migRec = rec
	if rec == nil {
		s.freezeBarrierOK = false
	} else if (prevRec == nil || prevRec.ID != rec.ID) && rec.From == s.groupIdx {
		s.freezeBarrierOK = false
		s.noteFreezeIfActive()
	}
	if installed {
		s.emit(trace.KindState, "shard-map-install", "epoch", fmt.Sprint(m.Epoch()))
		if s.pipe != nil {
			s.purgeForeignFiles()
		}
	}
}

// noteFreezeIfActive computes the freeze barrier on the From active: every
// record already in the journal or pending in the builder must commit
// before the copy may be taken. New actives recompute it in
// becomeActiveNow, where committedSN == LastSN makes the barrier trivially
// drained.
func (s *Server) noteFreezeIfActive() {
	if s.pipe == nil || s.migRec == nil || s.migRec.From != s.groupIdx {
		return
	}
	if s.freezeBarrierOK {
		return
	}
	b := s.pipe.barrier()
	s.freezeBarrier = b
	s.freezeBarrierOK = true
	s.emit(trace.KindState, "shard-freeze", "slot", fmt.Sprint(s.migRec.Slot), "barrier", fmt.Sprint(b))
}

// touchesFrozenSlot reports whether a file mutation lands on the slot
// frozen mid-migration. Client ops and transaction prepares both ask: a
// cross-group rename or delete must not smuggle a mutation past the freeze.
// Directory ops ride the replicated skeleton, not slot data.
func (s *Server) touchesFrozenSlot(kind journal.OpKind, path, dest string) bool {
	if s.migRec == nil || s.migRec.From != s.groupIdx {
		return false
	}
	fs, p := s.migRec.Slot, s.cfg.Partitioner
	switch kind {
	case journal.OpCreate:
		return p.HomeSlot(path) == fs
	case journal.OpDelete:
		if info, err := s.tree.Stat(path); err == nil && info.Dir {
			return false
		}
		return p.HomeSlot(path) == fs
	case journal.OpRename:
		if info, err := s.tree.Stat(path); err == nil && info.Dir {
			return false
		}
		return p.HomeSlot(path) == fs || p.HomeSlot(dest) == fs
	}
	return false
}

// checkRouting rejects ops that belong to another group per this server's
// installed map, handing the client the map snapshot so it can refresh its
// cache and re-route (shard maps are immutable, so sharing the pointer
// through the simulated network is safe).
func (s *Server) checkRouting(op ClientOp) (OpReply, bool) {
	if s.cfg.Partitioner == nil || len(s.cfg.Groups) <= 1 || op.Kind == OpList {
		return OpReply{}, false
	}
	if op.MapEpoch > s.cfg.Partitioner.Epoch() {
		// The client routed with a newer map than ours: catch up (async; the
		// current map still decides this op — worst case the client retries).
		s.refreshShardMap(nil)
	}
	if LeadGroup(s.cfg.Partitioner, op) == s.groupIdx {
		return OpReply{}, false
	}
	s.obsStaleMap.Inc()
	return OpReply{StaleMap: true, Map: s.cfg.Partitioner.Map()}, true
}

// noteSlotOp feeds the per-slot load counters (the balancer's signal).
func (s *Server) noteSlotOp(op ClientOp) {
	if s.cfg.Partitioner == nil {
		return
	}
	switch op.Kind {
	case OpCreate, OpStat, OpDelete, OpRename:
	default:
		return
	}
	slots := s.cfg.Partitioner.Map().Slots()
	if len(s.slotOps) != slots {
		s.slotOps = make([]uint64, slots)
	}
	s.slotOps[s.cfg.Partitioner.HomeSlot(op.Path)]++
	s.obsSlotOps.Inc()
}

// purgeForeignFiles journals deletes for every file entry whose home group
// (per the installed map) is no longer this group — the source side of a
// completed flip. Deletes replicate through the normal batch pipeline, so
// standbys converge without special casing. Epoch 0 never purges: the
// uniform map routes exactly like static hashing, so nothing is foreign.
func (s *Server) purgeForeignFiles() {
	if s.pipe == nil || s.cfg.Partitioner == nil || s.cfg.Partitioner.Epoch() == 0 {
		return
	}
	p := s.cfg.Partitioner
	found, deleted, _ := s.deleteFiles(func(path string) bool { return p.HomeGroup(path) != s.groupIdx })
	if found == 0 {
		return
	}
	s.obsPurged.Add(float64(deleted))
	s.emit(trace.KindState, "shard-purge", "entries", fmt.Sprint(found))
	s.pipe.flush()
}

// deleteFiles journals a delete for every file entry doomed selects. It
// returns how many entries it found and how many it deleted, the last
// delete riding in batch sn.
func (s *Server) deleteFiles(doomed func(path string) bool) (found, deleted int, sn uint64) {
	var paths []string
	s.tree.WalkFiles(func(info namespace.Info) bool {
		if doomed(info.Path) {
			paths = append(paths, info.Path)
		}
		return true
	})
	now := int64(s.node.Now())
	for _, path := range paths {
		if n, err := s.pipe.journal(journal.Record{Op: journal.OpDelete, Path: path, MTime: now}); err == nil {
			sn = n
			deleted++
		}
	}
	return len(paths), deleted, sn
}

// migrationDest reports whether this server is the active of migration
// id's destination group, answering the Migrator when it is not.
func (s *Server) migrationDest(id uint64, reply func(any)) bool {
	if s.pipe == nil {
		reply(MigrateAck{Err: "mams: not active"})
		return false
	}
	if s.migRec == nil || s.migRec.ID != id || s.migRec.To != s.groupIdx {
		s.refreshShardMap(nil)
		reply(MigrateAck{Err: "mams: migration unknown"})
		return false
	}
	return true
}

// ackAtCommit answers a migration purge or ingest that journaled applied
// entries once their batch sn commits: the ack is a durability promise.
func (s *Server) ackAtCommit(sn uint64, applied int, reply func(any)) {
	if applied == 0 {
		reply(MigrateAck{OK: true})
		return
	}
	s.pipe.await(sn, func(err error) {
		if err != nil {
			reply(MigrateAck{Err: err.Error()})
			return
		}
		reply(MigrateAck{OK: true, Applied: applied})
	})
}

// onMigrateFreeze handles the Migrator's freeze nudge on the From active.
func (s *Server) onMigrateFreeze(m MigrateFreeze, reply func(any)) {
	if s.pipe == nil {
		reply(MigrateFreezeAck{Err: "mams: not active"})
		return
	}
	if s.migRec == nil || s.migRec.ID != m.ID {
		// The znode write may not have reached us yet: re-read and let the
		// Migrator retry.
		s.refreshShardMap(nil)
		reply(MigrateFreezeAck{Err: "mams: migration unknown"})
		return
	}
	s.noteFreezeIfActive()
	if !s.freezeBarrierOK {
		reply(MigrateFreezeAck{Err: "mams: not the source group"})
		return
	}
	reply(MigrateFreezeAck{OK: true, Barrier: s.freezeBarrier})
}

// onMigrateRead serves the copy once the freeze barrier has committed.
func (s *Server) onMigrateRead(m MigrateRead, reply func(any)) {
	if s.pipe == nil || s.migRec == nil || s.migRec.ID != m.ID || !s.freezeBarrierOK {
		reply(MigrateEntries{Err: "mams: not the frozen source"})
		return
	}
	if s.pipe.committedSN < s.freezeBarrier {
		reply(MigrateEntries{NotDrained: true})
		return
	}
	p := s.cfg.Partitioner
	var entries []MigEntry
	s.tree.WalkFiles(func(info namespace.Info) bool {
		if p.HomeSlot(info.Path) == m.Slot {
			entries = append(entries, MigEntry{Path: info.Path, Size: info.Size, Perm: info.Perm, MTime: info.MTime})
		}
		return true
	})
	s.emit(trace.KindState, "shard-copy-out", "slot", fmt.Sprint(m.Slot), "entries", fmt.Sprint(len(entries)))
	reply(MigrateEntries{OK: true, Entries: entries})
}

// onMigratePurge deletes leftover slot entries on the To active before an
// ingest attempt — the idempotence half of purge-then-ingest: however many
// times an attempt died after partial ingest, the next attempt starts from
// a clean slot.
func (s *Server) onMigratePurge(m MigratePurge, reply func(any)) {
	if !s.migrationDest(m.ID, reply) {
		return
	}
	p := s.cfg.Partitioner
	_, applied, sn := s.deleteFiles(func(path string) bool { return p.HomeSlot(path) == m.Slot })
	s.ackAtCommit(sn, applied, reply)
}

// onMigrateIngest journals the copied entries on the To active and acks at
// commit.
func (s *Server) onMigrateIngest(m MigrateIngest, reply func(any)) {
	if !s.migrationDest(m.ID, reply) {
		return
	}
	var sn uint64
	applied := 0
	for _, e := range m.Entries {
		rec := journal.Record{Op: journal.OpCreate, Path: e.Path, Size: e.Size, Perm: e.Perm, MTime: e.MTime}
		// ErrExists can only mean a duplicate of this very entry (the slot
		// was purged at the top of the attempt); skip it.
		if n, err := s.pipe.journal(rec); err == nil {
			sn = n
			applied++
			s.obsMigIn.Inc()
		}
	}
	s.emit(trace.KindState, "shard-ingest", "slot", fmt.Sprint(m.Slot), "entries", fmt.Sprint(applied))
	s.ackAtCommit(sn, applied, reply)
}

// onLoadReport serves the balancer's load poll.
func (s *Server) onLoadReport(m LoadReport, reply func(any)) {
	if s.role != RoleActive {
		reply(LoadStats{})
		return
	}
	st := LoadStats{OK: true, Group: s.groupIdx, Slots: append([]uint64(nil), s.slotOps...)}
	for _, n := range st.Slots {
		st.Total += n
	}
	if m.Reset {
		for i := range s.slotOps {
			s.slotOps[i] = 0
		}
	}
	reply(st)
}

// ShardEpoch exposes the installed map epoch (tests, invariant checks).
func (s *Server) ShardEpoch() uint64 { return s.cfg.Partitioner.Epoch() }

// ShardPartitioner exposes the server's routing view (invariant checks).
func (s *Server) ShardPartitioner() *partition.Partitioner { return s.cfg.Partitioner }

// ---- the Migrator ----

// MoveStats reports one completed migration.
type MoveStats struct {
	Slot, From, To int
	Entries        int
	// Pause is freeze-CAS to flip-CAS: how long the slot rejected mutations.
	Pause sim.Time
}

// MigratorStats aggregates across migrations (rebalance cost reporting).
type MigratorStats struct {
	Migrations   int
	MovedEntries int
	TotalPause   sim.Time
}

// Migrator drives live migrations against the shardmap znode. It is an
// out-of-band process with its own coordination session (like a cluster
// operator), so it survives any metadata-server failover and can resume a
// half-done migration from the durable record alone.
type Migrator struct {
	node transport.Node
	cli  *coord.Client
	id   transport.NodeID
	// layout's Partitioner is the coordinator's own clone, seeding its view
	// of the map shape.
	layout Layout
	tr     *trace.Log

	busy     bool
	balOn    bool
	round    int
	lastMove map[int]int // slot → balancer round of its last move

	stats MigratorStats

	obsMigrations *obs.Counter
	obsMoved      *obs.Counter
	obsPause      *obs.Histogram
}

// NewMigrator registers the coordinator process id on the network. It
// reads the layout's ensemble, groups and shard map, and keeps the
// coordination client's default session timing.
func NewMigrator(net transport.Transport, id transport.NodeID, layout Layout, tr *trace.Log) *Migrator {
	if layout.Partitioner != nil {
		layout.Partitioner = layout.Partitioner.Clone()
	}
	mg := &Migrator{id: id, layout: layout, tr: tr, lastMove: map[int]int{}}
	mg.node = net.Listen(id, mg)
	mg.cli = coord.NewClient(mg.node, coord.ClientConfig{Servers: layout.Coord}, nil)
	reg, me := net.Obs(), string(id)
	mg.obsMigrations = reg.Counter("mams_shard_migrations_total",
		"Completed live slot migrations.", "node", me)
	mg.obsMoved = reg.Counter("mams_shard_moved_entries_total",
		"File entries moved between groups by live migration.", "node", me)
	mg.obsPause = reg.Histogram("mams_shard_migration_pause_seconds",
		"Freeze-to-flip duration per migration (mutations on the slot retry).",
		obs.ExpBuckets(0.01, 2, 12), "node", me)
	return mg
}

// HandleMessage implements transport.Handler.
func (mg *Migrator) HandleMessage(from transport.NodeID, msg any) {
	mg.cli.MaybeHandle(from, msg)
}

// Node exposes the coordinator's process.
func (mg *Migrator) Node() transport.Node { return mg.node }

// Stats returns the running totals.
func (mg *Migrator) Stats() MigratorStats { return mg.stats }

// Busy reports whether a migration is currently being driven.
func (mg *Migrator) Busy() bool { return mg.busy }

// Start opens the coordination session.
func (mg *Migrator) Start(cb func(err error)) {
	mg.cli.Start(cb)
}

func (mg *Migrator) emit(what string, args ...string) {
	if mg.tr != nil {
		mg.tr.Emit(trace.KindState, string(mg.id), what, args...)
	}
}

// readState fetches (creating if absent) the shardmap znode.
func (mg *Migrator) readState(cb func(m *partition.Map, rec *MigrationRec, ver int64, err error)) {
	mg.cli.GetData(ShardMapPath, false, func(data []byte, ver int64, err error) {
		if err == coord.ErrNoNode {
			if mg.layout.Partitioner == nil {
				cb(nil, nil, 0, fmt.Errorf("mams: no shardmap and no seed partitioner"))
				return
			}
			seed := encodeShardState(mg.layout.Partitioner.Map(), nil)
			mg.cli.Create(ShardMapPath, seed, func(_ string, cerr error) {
				if cerr != nil && cerr != coord.ErrNodeExists {
					cb(nil, nil, 0, cerr)
					return
				}
				mg.readState(cb)
			})
			return
		}
		if err != nil {
			cb(nil, nil, 0, err)
			return
		}
		m, rec, derr := decodeShardState(data)
		if derr != nil {
			cb(nil, nil, 0, derr)
			return
		}
		if mg.layout.Partitioner != nil {
			mg.layout.Partitioner.Install(m)
		}
		cb(m, rec, ver, derr)
	})
}

// migrateAttempts bounds each protocol phase's retry loop; at 250 ms per
// retry this rides out a full failover (~5-10 s) with margin.
const migrateAttempts = 80

// callActive retries an RPC against a group's current active until ok
// accepts the response or attempts run out. A refusal (not active, unknown
// migration, not drained) heals with time, so every one is retried.
func (mg *Migrator) callActive(group int, req any, attempt int, ok func(resp any) bool, cb func(err error)) {
	if attempt >= migrateAttempts {
		cb(fmt.Errorf("mams: migration phase exhausted retries"))
		return
	}
	again := func() {
		mg.node.After(250*sim.Millisecond, "migrate-retry", func() {
			mg.callActive(group, req, attempt+1, ok, cb)
		})
	}
	ResolveActive(mg.node, mg.layout.Groups, group, attempt, "", func(active transport.NodeID) {
		if active == "" {
			again()
			return
		}
		mg.node.Call(active, req, sim.Second, func(resp any, err error) {
			if err != nil || !ok(resp) {
				again()
				return
			}
			cb(nil)
		})
	})
}

// MoveSlot migrates one slot to group to. Exactly one migration runs at a
// time; a pending record for the same (slot, to) is resumed, anything else
// fails fast. cb runs when the flip has been committed to the znode.
func (mg *Migrator) MoveSlot(slot, to int, cb func(MoveStats, error)) {
	if mg.busy {
		cb(MoveStats{}, fmt.Errorf("mams: migration already in flight"))
		return
	}
	mg.busy = true
	done := func(st MoveStats, err error) {
		mg.busy = false
		cb(st, err)
	}
	mg.readState(func(m *partition.Map, rec *MigrationRec, ver int64, err error) {
		if err != nil {
			done(MoveStats{}, err)
			return
		}
		if rec != nil {
			if rec.Slot != slot || rec.To != to {
				done(MoveStats{}, fmt.Errorf("mams: migration of slot %d already pending", rec.Slot))
				return
			}
			mg.runMigration(rec, mg.node.Now(), done)
			return
		}
		from := m.Group(slot)
		if from == to {
			done(MoveStats{Slot: slot, From: from, To: to}, nil)
			return
		}
		nrec := &MigrationRec{ID: (m.Epoch()+1)<<20 | uint64(slot), Slot: slot, From: from, To: to}
		mg.emit("migrate-freeze", "slot", fmt.Sprint(slot), "from", fmt.Sprint(from), "to", fmt.Sprint(to))
		mg.cli.SetData(ShardMapPath, encodeShardState(m, nrec), ver, func(_ int64, serr error) {
			if serr == coord.ErrBadVersion {
				mg.busy = false
				mg.MoveSlot(slot, to, cb) // lost a race; replan on fresh state
				return
			}
			if serr != nil {
				done(MoveStats{}, serr)
				return
			}
			mg.runMigration(nrec, mg.node.Now(), done)
		})
	})
}

// ResumePending re-drives a migration left in the znode by an interrupted
// coordinator (crash-recovery; also the idempotence entry point tests use).
// Reports done=false when there was nothing to resume.
func (mg *Migrator) ResumePending(cb func(resumed bool, st MoveStats, err error)) {
	if mg.busy {
		cb(false, MoveStats{}, fmt.Errorf("mams: migration already in flight"))
		return
	}
	mg.busy = true
	mg.readState(func(m *partition.Map, rec *MigrationRec, ver int64, err error) {
		if err != nil || rec == nil {
			mg.busy = false
			cb(false, MoveStats{}, err)
			return
		}
		mg.runMigration(rec, mg.node.Now(), func(st MoveStats, err error) {
			mg.busy = false
			cb(true, st, err)
		})
	})
}

// runMigration drives freeze-ack → copy → purge+ingest → flip for the
// record standing in the znode.
func (mg *Migrator) runMigration(rec *MigrationRec, freezeStart sim.Time, done func(MoveStats, error)) {
	st := MoveStats{Slot: rec.Slot, From: rec.From, To: rec.To}
	fail := func(err error) {
		// Leave the record standing: the freeze stays safe (mutations on the
		// slot keep retrying) and ResumePending can finish the job.
		done(st, err)
	}

	// Phase 1: freeze ack from the current From active.
	mg.callActive(rec.From, MigrateFreeze{ID: rec.ID, Slot: rec.Slot}, 0, func(resp any) bool {
		ack, ok := resp.(MigrateFreezeAck)
		return ok && ack.OK
	}, func(err error) {
		if err != nil {
			fail(err)
			return
		}
		mg.emit("migrate-copy", "slot", fmt.Sprint(rec.Slot))
		mg.copyPhase(rec, st, freezeStart, done)
	})
}

// copyPhase reads the slot from the frozen source, then hands the entries
// to the ingest phase. The read replies the full entry set in one shot, so
// a mid-copy failover simply re-reads from the successor (which re-froze
// from the znode during its upgrade).
func (mg *Migrator) copyPhase(rec *MigrationRec, st MoveStats, freezeStart sim.Time, done func(MoveStats, error)) {
	var entries []MigEntry
	mg.callActive(rec.From, MigrateRead{ID: rec.ID, Slot: rec.Slot}, 0, func(resp any) bool {
		me, ok := resp.(MigrateEntries)
		entries = me.Entries // the last answer, which is the accepted one
		return ok && me.OK
	}, func(err error) {
		if err != nil {
			done(st, err)
			return
		}
		st.Entries = len(entries)
		mg.ingestPhase(rec, st, entries, 0, freezeStart, done)
	})
}

// ingestPhase purges then ingests on the destination. Any failure restarts
// the pair (purge makes partial ingests harmless), bounded by attempts.
func (mg *Migrator) ingestPhase(rec *MigrationRec, st MoveStats, entries []MigEntry, attempt int, freezeStart sim.Time, done func(MoveStats, error)) {
	if attempt >= 8 {
		done(st, fmt.Errorf("mams: ingest exhausted retries"))
		return
	}
	retry := func() {
		mg.node.After(500*sim.Millisecond, "migrate-ingest-retry", func() {
			mg.ingestPhase(rec, st, entries, attempt+1, freezeStart, done)
		})
	}
	mg.callActive(rec.To, MigratePurge{ID: rec.ID, Slot: rec.Slot}, 0, migrateAcked, func(err error) {
		if err != nil {
			retry()
			return
		}
		mg.emit("migrate-ingest", "slot", fmt.Sprint(rec.Slot), "entries", fmt.Sprint(len(entries)))
		mg.callActive(rec.To, MigrateIngest{ID: rec.ID, Slot: rec.Slot, Entries: entries}, 0, migrateAcked, func(err error) {
			if err != nil {
				retry()
				return
			}
			mg.flipPhase(rec, st, freezeStart, done)
		})
	})
}

// migrateAcked accepts an OK answer to MigratePurge or MigrateIngest.
func migrateAcked(resp any) bool {
	ack, ok := resp.(MigrateAck)
	return ok && ack.OK
}

// flipPhase CASes the new owner into the map and clears the record.
func (mg *Migrator) flipPhase(rec *MigrationRec, st MoveStats, freezeStart sim.Time, done func(MoveStats, error)) {
	mg.readState(func(m *partition.Map, cur *MigrationRec, ver int64, err error) {
		if err != nil {
			done(st, err)
			return
		}
		if cur == nil || cur.ID != rec.ID {
			// Someone else completed (or aborted) it; trust the znode.
			if m.Group(rec.Slot) == rec.To {
				mg.finishMove(st, freezeStart, done)
				return
			}
			done(st, fmt.Errorf("mams: migration record vanished before flip"))
			return
		}
		flipped, merr := m.Move(rec.Slot, rec.To)
		if merr != nil {
			done(st, merr)
			return
		}
		mg.cli.SetData(ShardMapPath, encodeShardState(flipped, nil), ver, func(_ int64, serr error) {
			if serr == coord.ErrBadVersion {
				mg.flipPhase(rec, st, freezeStart, done)
				return
			}
			if serr != nil {
				done(st, serr)
				return
			}
			if mg.layout.Partitioner != nil {
				mg.layout.Partitioner.Install(flipped)
			}
			mg.emit("migrate-flip", "slot", fmt.Sprint(rec.Slot), "epoch", fmt.Sprint(flipped.Epoch()))
			mg.finishMove(st, freezeStart, done)
		})
	})
}

func (mg *Migrator) finishMove(st MoveStats, freezeStart sim.Time, done func(MoveStats, error)) {
	st.Pause = mg.node.Now() - freezeStart
	mg.stats.Migrations++
	mg.stats.MovedEntries += st.Entries
	mg.stats.TotalPause += st.Pause
	mg.obsMigrations.Inc()
	mg.obsMoved.Add(float64(st.Entries))
	mg.obsPause.Observe(st.Pause.Seconds())
	done(st, nil)
}

// ---- load-driven balancing ----

// The load-driven migration policy.
const (
	// balanceEvery is the load-poll cadence.
	balanceEvery = 250 * sim.Millisecond
	// balanceMinOps ignores rounds whose hottest group executed fewer ops.
	balanceMinOps = 50
	// balanceRatio triggers a move when hottest/coldest exceeds it.
	balanceRatio = 3
	// balanceCooldown skips slots moved within this many rounds.
	balanceCooldown = 4
)

// StartBalancer begins periodic load polling and hot-slot migration. The
// policy: find the hottest and coldest groups by executed ops in the window;
// when the imbalance exceeds balanceRatio, either isolate a dominant hot slot
// (move the hottest *other* slot off its group, giving the hotspot a
// dedicated group) or move the hottest slot to the coldest group.
func (mg *Migrator) StartBalancer() {
	if mg.balOn {
		return
	}
	mg.balOn = true
	var loop func()
	loop = func() {
		if !mg.balOn {
			return
		}
		mg.balanceOnce(func() {
			mg.node.After(balanceEvery, "balancer-round", loop)
		})
	}
	mg.node.After(balanceEvery, "balancer-round", loop)
}

// StopBalancer halts the polling loop (in-flight migrations finish).
func (mg *Migrator) StopBalancer() { mg.balOn = false }

// balanceOnce polls every group and performs at most one migration.
func (mg *Migrator) balanceOnce(next func()) {
	mg.round++
	if mg.busy {
		next()
		return
	}
	groups := len(mg.layout.Groups)
	stats := make([]LoadStats, groups)
	remaining := groups
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		slot, to, ok := mg.pickMove(stats)
		if !ok {
			next()
			return
		}
		mg.MoveSlot(slot, to, func(st MoveStats, err error) {
			if err != nil {
				mg.emit("balancer-move-failed", "slot", fmt.Sprint(slot), "err", err.Error())
			} else {
				mg.lastMove[slot] = mg.round
			}
			next()
		})
	}
	for g := 0; g < groups; g++ {
		g := g
		ResolveActive(mg.node, mg.layout.Groups, g, 0, "", func(active transport.NodeID) {
			if active == "" {
				finish()
				return
			}
			mg.node.Call(active, LoadReport{Reset: true}, 500*sim.Millisecond, func(resp any, err error) {
				if err == nil {
					if ls, ok := resp.(LoadStats); ok {
						stats[g] = ls
					}
				}
				finish()
			})
		})
	}
}

// pickMove applies the balancing policy to one round of load stats.
func (mg *Migrator) pickMove(stats []LoadStats) (slot, to int, ok bool) {
	if mg.layout.Partitioner == nil {
		return 0, 0, false
	}
	hot, cold := -1, -1
	for g := range stats {
		if !stats[g].OK {
			continue
		}
		if hot < 0 || stats[g].Total > stats[hot].Total {
			hot = g
		}
		if cold < 0 || stats[g].Total < stats[cold].Total {
			cold = g
		}
	}
	if hot < 0 || cold < 0 || hot == cold {
		return 0, 0, false
	}
	if stats[hot].Total < balanceMinOps ||
		float64(stats[hot].Total) < balanceRatio*float64(stats[cold].Total+1) {
		return 0, 0, false
	}
	owned := mg.layout.Partitioner.Map().SlotsOf(hot)
	if len(owned) == 0 {
		return 0, 0, false
	}
	count := func(s int) uint64 {
		if s < len(stats[hot].Slots) {
			return stats[hot].Slots[s]
		}
		return 0
	}
	// Hottest and second-hottest owned slots.
	first, second := -1, -1
	for _, s := range owned {
		if first < 0 || count(s) > count(first) {
			first, second = s, first
		} else if second < 0 || count(s) > count(second) {
			second = s
		}
	}
	pick := first
	if len(owned) > 1 && count(first)*2 >= stats[hot].Total && second >= 0 && count(second) > 0 {
		// A single slot dominates the group: isolating it beats moving it
		// (it would overload any destination just the same). Shed the
		// hottest co-resident slot instead.
		pick = second
	}
	if r, moved := mg.lastMove[pick]; moved && mg.round-r <= balanceCooldown {
		return 0, 0, false
	}
	return pick, cold, true
}
