package mams

import (
	"fmt"
	"sort"

	"mams/internal/blockmap"
	"mams/internal/coord"
	"mams/internal/health"
	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/trace"
	"mams/internal/transport"
)

// WhoIsActive asks any group member for the current active (used by
// clients to reconnect after failover and by cross-group transaction
// coordinators).
type WhoIsActive struct{}

// ActiveIs answers WhoIsActive.
type ActiveIs struct {
	Active transport.NodeID
	Epoch  uint64
}

// Config assembles one metadata server: its place in the shared Layout.
type Config struct {
	ID transport.NodeID
	// Junior boots the server as a junior joining (or rejoining) a running
	// group instead of in its bootstrap role.
	Junior bool
	Layout
}

// znode paths for a group.
func viewPath(group string) string      { return "/mams/" + group + "/view" }
func lockPath(group string) string      { return "/mams/" + group + "/lock" }
func aliveDir(group string) string      { return "/mams/" + group + "/alive" }
func alivePath(group, id string) string { return aliveDir(group) + "/" + id }

// replState tracks one in-flight replicated batch on the active.
type replState struct {
	batch      journal.Batch
	needed     map[transport.NodeID]bool
	timer      transport.Timer
	sealedAt   sim.Time // seal instant, for the seal-to-commit histogram
	sspPending bool     // SyncSSP mode: pool write not yet durable
	// span covers this batch's replication round from seal to commit (or
	// abandonment when the active is deposed mid-round).
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

// heldFence is a laggard demotion deferred until the pool-durability
// watermark catches up to the commit watermark (see fenceLaggard).
type heldFence struct {
	rs *replState
	id transport.NodeID
}

type queuedOp struct {
	from  transport.NodeID
	op    ClientOp
	reply func(any)
}

// Server is one CFS metadata server governed by the MAMS policy.
type Server struct {
	cfg  Config
	node transport.Node

	// This server's place in cfg.Layout, worked out once from its ID: the
	// group's name and index, its members (also its pool nodes), and the
	// role it boots in (junior once restarted).
	group    string
	groupIdx int
	members  []transport.NodeID
	bootRole Role

	coordCli *coord.Client
	pool     *ssp.PoolNode
	sspc     *ssp.Client
	blocks   *blockmap.Manager

	tree    *namespace.Tree
	log     *journal.Log
	lastTx  uint64
	builder *journal.Builder

	role      Role
	upgrading bool
	view      View
	viewVer   int64

	// Active-side replication.
	pendingRepl map[uint64]*replState
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
	waiters       map[uint64][]func(err error)
	// sealWaiters fire when their batch seals (AsyncAck replies); waiters
	// fire when it commits.
	sealWaiters map[uint64][]func(err error)
	batchTimer  transport.Timer
	batchArmed  bool
	fenceLoopOn bool
	// journalLane is the journal writer under GroupCommit: sequential batch
	// writes run here instead of on the op-dispatch lane (cpu).
	journalLane transport.Lane
	// replCache memoizes replTargets per adopted view (invalidated on view
	// changes and renew-target transitions).
	replCache   []transport.NodeID
	replCacheOK bool

	// Standby-side pipeline: prepared (uncommitted) batches in sn order.
	// Depth is bounded by the active's in-flight window plus re-flush
	// duplicates; batches apply only when the active declares them
	// committed (CommitThrough / CommitNotice) or during upgrade step 2.
	pendingQueue []journal.Batch

	// Election state.
	electing     sim.Time // when the trigger fired (0 = not electing)
	upgradeQueue []queuedOp

	// Renewing.
	renewTarget   transport.NodeID // junior currently receiving live batches
	renewSession  transport.NodeID // junior currently in a renewing session
	renewActive   transport.NodeID // (junior side) the active renewing us
	renewing      bool             // this server (as junior) is renewing
	renewLastSeen map[transport.NodeID]uint64
	renewScanOn   bool

	// Distributed transactions.
	txnSeq       uint64
	txnPending   map[uint64]*txnState
	preparedTxns map[uint64]*preparedTxn

	// Sharded namespace & live migration (migrate.go). migRec mirrors the
	// migration record standing in the shardmap znode; while it names this
	// group as the source, mutations on the frozen slot are rejected and
	// the copy may be taken once committedSN reaches freezeBarrier. slotOps
	// counts executed ops per slot — the balancer's load signal.
	migRec          *MigrationRec
	freezeBarrier   uint64
	freezeBarrierOK bool
	slotOps         []uint64

	// Modeling.
	cpu                  transport.Lane // the single op-dispatch thread
	virtualOverheadBytes int64
	lastImageSN          uint64
	lastImageSize        int64

	registerAcked bool
	sanityOn      bool

	retryCache map[uint64]OpReply // mutation replies by ReqID (finishOp)
	tr         *trace.Log
	rnd        func() float64 // uniform [0,1) for election jitter
	stopped    bool

	// Observability. All instruments are nil-safe no-ops when the network
	// carries no registry, so unit tests need no setup.
	spans            *obs.Tracer
	obsSealed        *obs.Counter
	obsCommitted     *obs.Counter
	obsReflushed     *obs.Counter
	obsDups          *obs.Counter
	obsBuffered      *obs.Gauge
	obsBatchRecords  *obs.Histogram
	obsSealToCommit  *obs.Histogram
	obsInflight      *obs.Gauge
	obsWatermarkLag  *obs.Gauge
	obsElectStarted  *obs.Counter
	obsElectWon      *obs.Counter
	obsElectLost     *obs.Counter
	obsStaleMap      *obs.Counter
	obsFrozenRej     *obs.Counter
	obsMigIn         *obs.Counter
	obsPurged        *obs.Counter
	obsSlotOps       *obs.Counter
	failoverSpan     obs.SpanID
	electionSpan     obs.SpanID
	stageSpan        obs.SpanID
	renewSpan        obs.SpanID
	renewFetchSpan   obs.SpanID
	renewCatchupSpan obs.SpanID
}

// NewServer builds a server and registers its process on the network.
func NewServer(net transport.Transport, cfg Config, tr *trace.Log, rnd func() float64) *Server {
	g, m := cfg.Locate(cfg.ID)
	if g < 0 {
		panic(fmt.Sprintf("mams: %s is not in any group of the layout", cfg.ID))
	}
	boot := RoleStandby
	switch {
	case cfg.Junior:
		boot = RoleJunior
	case m == 0:
		boot = RoleActive
	}
	// Each server owns its routing view: shard-map installs must not leak
	// into the shared seed partitioner or into other servers mid-event.
	if cfg.Partitioner != nil {
		cfg.Partitioner = cfg.Partitioner.Clone()
	}
	s := &Server{
		cfg:           cfg,
		group:         fmt.Sprintf("g%d", g),
		groupIdx:      g,
		members:       cfg.Groups[g],
		bootRole:      boot,
		tree:          namespace.New(),
		log:           journal.NewLog(),
		view:          NewView(),
		viewVer:       -1,
		pendingRepl:   map[uint64]*replState{},
		waiters:       map[uint64][]func(error){},
		sealWaiters:   map[uint64][]func(error){},
		renewLastSeen: map[transport.NodeID]uint64{},
		txnPending:    map[uint64]*txnState{},
		retryCache:    map[uint64]OpReply{},
		tr:            tr,
		rnd:           rnd,
	}
	s.node = net.Listen(cfg.ID, s)
	reg, me := net.Obs(), string(cfg.ID)
	s.spans = net.Tracer()
	s.obsSealed = reg.Counter("mams_journal_batches_sealed_total",
		"Journal batches sealed and sent for replication by an active.", "node", me)
	s.obsCommitted = reg.Counter("mams_journal_batches_committed_total",
		"Journal batches fully replicated and committed by an active.", "node", me)
	s.obsReflushed = reg.Counter("mams_journal_batches_reflushed_total",
		"Tail batches re-flushed to group members during failover (Fig. 4 step 4).", "node", me)
	s.obsDups = reg.Counter("mams_journal_dup_suppressed_total",
		"Duplicate batches suppressed by serial number on a standby.", "node", me)
	s.obsBuffered = reg.Gauge("mams_failover_buffered_requests",
		"Client operations buffered while this node upgrades to active (peak via max).", "node", me)
	s.obsBatchRecords = reg.Histogram("mams_journal_batch_records",
		"Records per sealed journal batch (adaptive group commit sizes batches by load).",
		obs.ExpBuckets(1, 2, 11), "node", me)
	s.obsSealToCommit = reg.Histogram("mams_journal_seal_to_commit_seconds",
		"Latency from batch seal to in-order commit on the active.",
		obs.ExpBuckets(0.0002, 2, 12), "node", me)
	s.obsInflight = reg.Gauge("mams_journal_inflight_batches",
		"Sealed batches currently replicating in the pipelined window (peak via max).", "node", me)
	s.obsWatermarkLag = reg.Gauge("mams_journal_watermark_lag_batches",
		"Sealed-but-uncommitted batches: LastSN minus the durability watermark (peak via max).",
		"node", me)
	s.obsElectStarted = reg.Counter("mams_elections_started_total",
		"Election attempts triggered by a missing lock or active.", "node", me)
	s.obsElectWon = reg.Counter("mams_elections_won_total",
		"Elections this node won (acquired the distributed lock).", "node", me)
	s.obsElectLost = reg.Counter("mams_elections_lost_total",
		"Elections this node lost to a faster peer.", "node", me)
	s.registerShardObs(reg, me)
	s.pool = ssp.NewPoolNode(s.node, cfg.SSPParams)
	s.sspc = s.newPoolClient()
	s.blocks = blockmap.NewManager()
	s.coordCli = coord.NewClient(s.node, coord.ClientConfig{
		Servers:        cfg.Coord,
		SessionTimeout: cfg.CoordSessionTimeout,
		HeartbeatEvery: cfg.CoordHeartbeat,
	}, s.onCoordEvent)
	return s
}

// newPoolClient builds the client for this group's shared storage pool.
// Placement consults the group view: a takeover records the deposed active
// as RoleDown, and without this hint a lone survivor wedges its sole-owner
// commit backstop on the dead peer's put timeout — there is no second pool
// member to fail over to in a two-node group. Only an explicit RoleDown
// avoids a member; juniors are live pool members, and absent entries
// (bootstrap window) keep the default full-rotation placement.
func (s *Server) newPoolClient() *ssp.Client {
	c := ssp.NewClient(s.node, s.members, s.pool, s.cfg.Params.SSPReplicas)
	c.SetAvoid(func(id transport.NodeID) bool {
		r, ok := s.view.States[string(id)]
		return ok && r == RoleDown
	})
	return c
}

// Node exposes the simulated process (fault injection).
func (s *Server) Node() transport.Node { return s.node }

// Role returns the server's current role.
func (s *Server) Role() Role { return s.role }

// Tree exposes the namespace for verification in tests and experiments.
func (s *Server) Tree() *namespace.Tree { return s.tree }

// LastSN returns the last committed serial number.
func (s *Server) LastSN() uint64 { return s.log.LastSN() }

// View returns a copy of this server's cached global view.
func (s *Server) View() View { return s.view.Clone() }

// Pool exposes the co-located SSP node.
func (s *Server) Pool() *ssp.PoolNode { return s.pool }

// SetVirtualOverheadBytes adds modeled bytes to checkpoint images,
// representing namespace content not materialized in memory (lets the
// experiments reach the paper's 16 MB–1 GB image scale cheaply).
func (s *Server) SetVirtualOverheadBytes(n int64) { s.virtualOverheadBytes = n }

// imageBytes is the logical checkpoint size.
func (s *Server) imageBytes() int64 {
	return s.tree.EstimatedImageBytes() + s.virtualOverheadBytes
}

func (s *Server) emit(kind trace.Kind, what string, args ...string) {
	if s.tr != nil {
		s.tr.Emit(kind, string(s.cfg.ID), what, args...)
	}
}

// emitAppend reports a journal append for the invariant monitor
// (internal/check asserts per-node sn strict monotonicity from these).
func (s *Server) emitAppend(sn uint64) {
	if s.cfg.Params.TraceAppends {
		s.emit(trace.KindJournal, "append", "sn", fmt.Sprint(sn))
	}
}

// emitDup reports a duplicate batch suppressed by its serial number.
func (s *Server) emitDup(sn uint64) {
	s.obsDups.Inc()
	if s.cfg.Params.TraceAppends {
		s.emit(trace.KindJournal, "append-dup", "sn", fmt.Sprint(sn))
	}
}

// Start boots the server with its configured initial role.
func (s *Server) Start() {
	s.stopped = false
	s.coordCli.Start(func(err error) {
		if err != nil {
			// Coordination unreachable; retry from scratch.
			s.node.After(sim.Second, "mams-restart-coord", s.Start)
			return
		}
		s.bootstrapZnodes()
	})
}

// Shutdown crashes the process (the harness restarts it via Restart).
func (s *Server) Shutdown() {
	s.node.Crash()
}

// Restart brings a crashed server back as a junior with empty state — the
// paper's "server which restarts after a failure".
func (s *Server) Restart() {
	s.node.Restart()
	s.endReplSpans("abandoned-restart")
	s.endRenewSpans("restart")
	s.endElectionSpans("restart")
	s.tree = namespace.New()
	s.log = journal.NewLog()
	s.lastTx = 0
	s.builder = nil
	s.role = RoleJunior
	s.bootRole = RoleJunior
	s.upgrading = false
	s.view = NewView()
	s.viewVer = -1
	s.pendingRepl = map[uint64]*replState{}
	s.waiters = map[uint64][]func(error){}
	s.sealWaiters = map[uint64][]func(error){}
	s.pendingQueue = nil
	s.batchArmed = false
	s.fenceLoopOn = false
	s.journalLane = transport.Lane{}
	s.invalidateReplTargets()
	s.electing = 0
	s.upgradeQueue = nil
	s.renewTarget = ""
	s.renewSession = ""
	s.renewActive = ""
	s.renewing = false
	s.renewLastSeen = map[transport.NodeID]uint64{}
	s.renewScanOn = false
	s.txnPending = map[uint64]*txnState{}
	s.preparedTxns = map[uint64]*preparedTxn{}
	s.sanityOn = false
	s.cpu = transport.Lane{}
	s.retryCache = map[uint64]OpReply{}
	s.resetShardState()
	s.blocks.Reset()
	s.coordCli.Restart(func(err error) {
		if err != nil {
			s.node.After(sim.Second, "mams-restart-coord", func() { s.Restart() })
			return
		}
		s.bootstrapZnodes()
	})
}

// bootstrapZnodes ensures the group's persistent znodes exist, registers
// this server's liveness, then enters its role.
func (s *Server) bootstrapZnodes() {
	mk := func(path string, next func()) {
		s.coordCli.Create(path, nil, func(_ string, err error) {
			if err != nil && err != coord.ErrNodeExists {
				s.node.After(sim.Second, "mams-bootstrap-retry", s.bootstrapZnodes)
				return
			}
			next()
		})
	}
	mk("/mams", func() {
		mk("/mams/"+s.group, func() {
			mk(aliveDir(s.group), func() {
				s.coordCli.CreateEphemeral(alivePath(s.group, string(s.cfg.ID)), nil,
					func(_ string, err error) {
						if err != nil && err != coord.ErrNodeExists {
							s.node.After(sim.Second, "mams-alive-retry", s.bootstrapZnodes)
							return
						}
						s.armShardWatch()
						s.armSanityLoop()
						s.enterRole()
					})
			})
		})
	})
}

// armSanityLoop periodically re-arms the lock/liveness watchers and
// re-checks for a missing active. Watch notifications travel as one-way
// messages; on a lossy network one can vanish, and without this safety net
// a group where every member missed the event would never elect.
func (s *Server) armSanityLoop() {
	if s.sanityOn {
		return
	}
	s.sanityOn = true
	jitter := sim.Time(float64(2*sim.Second) * s.rnd())
	var loop func()
	loop = func() {
		if s.stopped {
			s.sanityOn = false
			return
		}
		if s.role != RoleActive && !s.upgrading {
			s.armLockAliveWatches()
			s.reconcileRoleWithView()
		} else if s.role == RoleActive {
			s.resendCommitWatermark()
		}
		s.node.After(5*sim.Second, "mams-sanity", loop)
	}
	s.node.After(5*sim.Second+jitter, "mams-sanity", loop)
}

func (s *Server) enterRole() {
	switch s.bootRole {
	case RoleActive:
		s.bootstrapAsActive()
	case RoleStandby:
		s.joinAsStandby()
	default:
		s.joinAsJunior()
	}
}

// bootstrapAsActive is the cold-start path for the group's first active:
// grab the lock, publish the initial view, start serving.
func (s *Server) bootstrapAsActive() {
	s.coordCli.CreateEphemeral(lockPath(s.group), []byte(s.cfg.ID), func(_ string, err error) {
		if err == coord.ErrNodeExists {
			// Someone beat us to it; fall back to standby.
			s.bootRole = RoleStandby
			s.joinAsStandby()
			return
		}
		if err != nil {
			s.node.After(sim.Second, "mams-lock-retry", s.bootstrapAsActive)
			return
		}
		v := NewView()
		v.Epoch = 1
		v.Active = string(s.cfg.ID)
		for _, m := range s.members {
			if m == s.cfg.ID {
				v.States[string(m)] = RoleActive
			} else {
				v.States[string(m)] = RoleStandby
			}
		}
		s.coordCli.Create(viewPath(s.group), v.Encode(), func(_ string, err error) {
			if err != nil && err != coord.ErrNodeExists {
				s.node.After(sim.Second, "mams-view-retry", s.bootstrapAsActive)
				return
			}
			s.refreshView(func() {
				s.refreshShardMap(func() {
					s.becomeActiveNow(1)
				})
			})
		})
	})
}

// becomeActiveNow finalizes active duty at the given epoch.
func (s *Server) becomeActiveNow(epoch uint64) {
	s.role = RoleActive
	s.upgrading = false
	s.builder = journal.NewBuilder(epoch, s.log.LastSN(), s.lastTx)
	s.committedSN = s.log.LastSN()
	// Everything up to here is in our log (and, for batches inherited from
	// a takeover, in the demoted members' logs) — only batches we seal from
	// now on can be cache-only, so the pool watermark starts clean.
	s.poolDurableSN = s.committedSN
	s.poolPutOK = make(map[uint64]bool)
	s.heldFences = nil
	s.invalidateReplTargets()
	s.emit(trace.KindState, "become-active", "epoch", fmt.Sprint(epoch), "sn", fmt.Sprint(s.log.LastSN()))
	// The batch timer arms lazily on the first record after a seal; the
	// self-fence check runs on its own loop so an idle active still fences.
	s.armFenceLoop()
	s.armRenewScan()
	s.armWatches()
	// Sharding: purge slots that moved away under a prior active (journaled
	// deletes) and recompute the freeze barrier if a standing migration
	// names this group as its source — every activation path re-read the
	// shardmap znode before calling here, so the freeze survives failover.
	s.purgeForeignFiles()
	s.noteFreezeIfActive()
	// Serve anything buffered during the upgrade.
	q := s.upgradeQueue
	s.upgradeQueue = nil
	s.obsBuffered.Set(0)
	for _, qo := range q {
		s.handleClientOp(qo.from, qo.op, qo.reply)
	}
}

// joinAsStandby waits for the group view to show this node as a standby.
func (s *Server) joinAsStandby() {
	s.coordCli.GetData(viewPath(s.group), true, func(data []byte, ver int64, err error) {
		if err == coord.ErrNoNode {
			s.emit(trace.KindState, "standby-wait-view")
			return // watch fires on creation
		}
		if err != nil {
			s.emit(trace.KindState, "standby-view-err", "err", err.Error())
			s.node.After(sim.Second, "mams-standby-retry", s.joinAsStandby)
			return
		}
		v, derr := DecodeView(data)
		if derr != nil {
			return
		}
		s.view, s.viewVer = v, ver
		s.role = RoleStandby
		s.log.ResetTo(s.log.LastSN(), v.Epoch)
		s.emit(trace.KindState, "become-standby", "epoch", fmt.Sprint(v.Epoch))
		s.armWatches()
	})
}

// joinAsJunior registers this node in the view as a junior and waits for
// the renewing protocol.
func (s *Server) joinAsJunior() {
	s.role = RoleJunior
	s.emit(trace.KindState, "become-junior")
	s.casView(func(v *View) bool {
		if v.States[string(s.cfg.ID)] == RoleJunior {
			return false
		}
		v.States[string(s.cfg.ID)] = RoleJunior
		return true
	}, func(err error) {
		s.armWatches()
	})
}

// refreshView re-reads the group view (no watch) and invokes done.
func (s *Server) refreshView(done func()) {
	s.coordCli.GetData(viewPath(s.group), false, func(data []byte, ver int64, err error) {
		if err == nil {
			if v, derr := DecodeView(data); derr == nil {
				s.adoptView(v, ver)
			}
		}
		if done != nil {
			done()
		}
	})
}

// casView applies mutate to the freshest view under compare-and-set,
// retrying on conflicts. mutate returns false to abandon the update.
func (s *Server) casView(mutate func(v *View) bool, done func(err error)) {
	s.coordCli.GetData(viewPath(s.group), false, func(data []byte, ver int64, err error) {
		if err != nil {
			done(err)
			return
		}
		v, derr := DecodeView(data)
		if derr != nil {
			done(derr)
			return
		}
		work := v.Clone()
		if !mutate(&work) {
			s.adoptView(v, ver)
			done(nil)
			return
		}
		s.coordCli.SetData(viewPath(s.group), work.Encode(), ver, func(newVer int64, serr error) {
			if serr == coord.ErrBadVersion {
				s.casView(mutate, done) // lost a race; retry on fresh state
				return
			}
			if serr != nil {
				done(serr)
				return
			}
			s.adoptView(work, newVer)
			done(nil)
		})
	})
}

// adoptView installs a newer view locally and reacts to role changes
// decided elsewhere (demotion, new active, ...).
func (s *Server) adoptView(v View, ver int64) {
	if ver <= s.viewVer && v.Epoch <= s.view.Epoch {
		if ver >= 0 && ver > s.viewVer {
			s.viewVer = ver
		}
		return
	}
	prev := s.view
	s.view, s.viewVer = v, ver
	s.invalidateReplTargets()

	me := string(s.cfg.ID)
	switch {
	case v.Active == me && s.role != RoleActive && !s.upgrading:
		// The view says we are active but we are not: this only happens
		// for the bootstrap active; elections set the role explicitly.
	case v.Active != me && s.role == RoleActive:
		// We were deposed (e.g., Test A: the active lost the lock).
		s.stepDown(v)
	case v.States[me] == RoleJunior && s.role == RoleStandby:
		s.role = RoleJunior
		s.pendingQueue = nil
		s.emit(trace.KindState, "demoted-junior", "epoch", fmt.Sprint(v.Epoch))
	case v.States[me] == RoleStandby && s.role == RoleJunior &&
		!s.renewing && v.Active != "" && v.Active != me:
		// The view believes we are a standby but we demoted locally (a
		// reordered watch push, or a takeover view that arrived after our
		// registration). The renew scan only heals view-juniors, so this
		// split never converges on its own: re-register and let the active
		// re-classify us by sn.
		s.sendRegister(transport.NodeID(v.Active), 0)
	}
	// A new active appeared: every member registers (Fig. 4 step 5).
	if v.Active != "" && v.Active != prev.Active && v.Active != me && s.role != RoleActive {
		s.sendRegister(transport.NodeID(v.Active), 0)
	}
	// Keep the lock/liveness watchers armed regardless of how we learned
	// about this view (the coordination service deduplicates one-shot
	// watch registrations per session, so this is idempotent).
	s.armLockAliveWatches()
}

// reconcileRoleWithView is the periodic backstop for role/view splits when
// the healing watch push itself was lost: a local junior the view lists as
// standby re-registers so the active can re-classify it by sn (adoptView
// handles the push-delivered case).
func (s *Server) reconcileRoleWithView() {
	me := string(s.cfg.ID)
	if s.role == RoleJunior && !s.renewing &&
		s.view.States[me] == RoleStandby && s.view.Active != "" && s.view.Active != me {
		s.sendRegister(transport.NodeID(s.view.Active), 0)
	}
}

// armLockAliveWatches (re-)installs the lock watcher and the watcher on
// the active's liveness node.
func (s *Server) armLockAliveWatches() {
	s.coordCli.Exists(lockPath(s.group), true, func(exists bool, err error) {
		if err == nil && !exists && s.role != RoleActive && !s.upgrading {
			s.onLockGone()
		}
	})
	if s.view.Active != "" && s.view.Active != string(s.cfg.ID) {
		s.coordCli.Exists(alivePath(s.group, s.view.Active), true, func(bool, error) {})
	}
}

// effectiveSN is the sn this node could commit up to (including cached
// uncommitted batches, which it would apply during upgrade).
func (s *Server) effectiveSN() uint64 {
	if n := len(s.pendingQueue); n > 0 {
		return s.pendingQueue[n-1].SN
	}
	return s.log.LastSN()
}

// deposedDirty reports whether a deposed active's namespace can NOT be a
// valid prefix of the new timeline: it applied records that never sealed,
// or sealed batches that never finished replication (the new active may
// hold a different batch under the same sn).
func (s *Server) deposedDirty() bool {
	if s.builder != nil && s.builder.Pending() > 0 {
		return true
	}
	return s.committedSN < s.log.LastSN()
}

// hardResetToJunior discards all namespace state; the renewing protocol
// rebuilds it from the shared storage pool ("the active ... will be
// directly degraded to the junior state").
func (s *Server) hardResetToJunior() {
	s.emit(trace.KindState, "hard-reset-junior", "sn", fmt.Sprint(s.log.LastSN()))
	s.endRenewSpans("hard-reset")
	s.tree = namespace.New()
	s.log = journal.NewLog()
	s.lastTx = 0
	s.committedSN = 0
	s.pendingQueue = nil
	s.renewing = false
	s.role = RoleJunior
}

// endReplSpans closes the 2PC span of every still-pending batch when this
// node stops being active (the round will never commit here). End is
// idempotent and span updates are keyed by id, so map iteration order does
// not affect the retained span data.
func (s *Server) endReplSpans(outcome string) {
	for _, rs := range s.pendingRepl {
		s.spans.End(rs.span, "outcome", outcome)
	}
}

// endRenewSpans closes the junior-side renewing spans (root plus any open
// image-fetch/catch-up child) when the session ends for any reason.
func (s *Server) endRenewSpans(outcome string) {
	s.spans.End(s.renewFetchSpan, "outcome", outcome)
	s.spans.End(s.renewCatchupSpan, "outcome", outcome)
	s.spans.End(s.renewSpan, "outcome", outcome)
	s.renewFetchSpan, s.renewCatchupSpan, s.renewSpan = 0, 0, 0
}

// endElectionSpans closes the failover/election/stage spans when an election
// or upgrade terminates without this node becoming active.
func (s *Server) endElectionSpans(outcome string) {
	s.spans.End(s.stageSpan, "outcome", outcome)
	s.spans.End(s.electionSpan, "outcome", outcome)
	s.spans.End(s.failoverSpan, "outcome", outcome)
	s.stageSpan, s.electionSpan, s.failoverSpan = 0, 0, 0
}

// failAllWaiters fails every commit- and seal-pending client reply (the
// node stopped being active; clients retry against the successor).
func (s *Server) failAllWaiters(err error) {
	for sn, ws := range s.waiters {
		for _, w := range ws {
			w(err)
		}
		delete(s.waiters, sn)
	}
	for sn, ws := range s.sealWaiters {
		for _, w := range ws {
			w(err)
		}
		delete(s.sealWaiters, sn)
	}
}

// stopBatchTimer cancels a pending lazy batch timer.
func (s *Server) stopBatchTimer() {
	if s.batchTimer != nil {
		s.batchTimer.Stop()
	}
	s.batchArmed = false
}

// invalidateReplTargets drops the memoized replication target list; the
// next seal rebuilds it from the current view and renew target.
func (s *Server) invalidateReplTargets() {
	s.replCacheOK = false
	s.replCache = nil
}

// stepDown turns a deposed active into the role the view assigns it. If
// its state cannot be a valid prefix of the new timeline it resets to
// junior instead and relies on renewing.
func (s *Server) stepDown(v View) {
	s.emit(trace.KindState, "step-down", "epoch", fmt.Sprint(v.Epoch))
	s.endReplSpans("abandoned-step-down")
	s.freezeBarrierOK = false // the next active of this group recomputes
	dirty := s.deposedDirty()
	s.stopBatchTimer()
	s.builder = nil
	s.renewScanOn = false
	s.renewTarget = ""
	s.renewSession = ""
	s.invalidateReplTargets()
	// Fail all waiting client replies; clients retry against the new
	// active (the paper's duplicate-message handling absorbs retries).
	s.failAllWaiters(fmt.Errorf("mams: deposed"))
	for _, rs := range s.pendingRepl {
		if rs.timer != nil {
			rs.timer.Stop()
		}
	}
	s.pendingRepl = map[uint64]*replState{}
	if dirty {
		s.hardResetToJunior()
	} else {
		role := v.States[string(s.cfg.ID)]
		if role == RoleActive {
			role = RoleStandby
		}
		s.role = role
	}
	// Register with the new active so it can classify us by sn (a reset
	// node registers sn 0 and is assigned junior).
	if v.Active != "" {
		s.sendRegister(transport.NodeID(v.Active), 0)
	}
}

// sendRegister announces this member to the active, retrying until a
// RegisterAck arrives (the active may still be mid-upgrade when the first
// attempt lands).
func (s *Server) sendRegister(to transport.NodeID, attempt int) {
	if attempt > 20 || s.stopped || s.role == RoleActive || s.upgrading {
		return
	}
	if string(to) != s.view.Active {
		return // the view moved on; a fresh registration will follow it
	}
	s.registerAcked = false
	s.node.Send(to, Register{From: s.cfg.ID, LastSN: s.effectiveSN()})
	s.node.After(300*sim.Millisecond, "mams-register-retry", func() {
		if !s.registerAcked {
			s.sendRegister(to, attempt+1)
		}
	})
}

// onCoordEvent receives watch events and session-expiry notices.
func (s *Server) onCoordEvent(ev coord.WatchEvent) {
	if s.stopped {
		return
	}
	switch ev.Type {
	case coord.EventSessionExpired:
		s.onSessionExpired()
	case coord.EventDeleted:
		if ev.Path == lockPath(s.group) {
			s.onLockGone()
			return
		}
		if ev.Path == alivePath(s.group, s.view.Active) {
			s.onLockGone()
			return
		}
		s.rearmWatchFor(ev.Path)
	case coord.EventDataChanged, coord.EventCreated:
		if ev.Path == viewPath(s.group) {
			s.onViewChanged()
			return
		}
		if ev.Path == ShardMapPath {
			s.armShardWatch() // re-read and re-arm
			return
		}
		s.rearmWatchFor(ev.Path)
	}
}

// onSessionExpired: our coordination session died (network cable pulled
// long enough, GC pause, ...). Whatever we were, we are a junior now: our
// ephemerals (lock, alive) are gone and peers have moved on.
func (s *Server) onSessionExpired() {
	s.emit(trace.KindState, "session-expired")
	s.endReplSpans("abandoned-session-expired")
	s.endRenewSpans("session-expired")
	s.endElectionSpans("session-expired")
	wasActive := s.role == RoleActive
	if wasActive {
		dirty := s.deposedDirty()
		s.stopBatchTimer()
		s.builder = nil
		s.failAllWaiters(fmt.Errorf("mams: session expired"))
		if dirty {
			s.hardResetToJunior()
		}
	}
	s.role = RoleJunior
	s.pendingQueue = nil
	s.renewing = false
	s.renewScanOn = false
	s.freezeBarrierOK = false
	s.coordCli.Restart(func(err error) {
		if err != nil {
			s.node.After(sim.Second, "mams-session-retry", s.onSessionExpired)
			return
		}
		s.coordCli.CreateEphemeral(alivePath(s.group, string(s.cfg.ID)), nil, func(string, error) {
			s.joinAsJunior()
		})
	})
}

// armWatches installs the three watchers of §III.C: the view (self state),
// the lock, and the active's liveness node.
func (s *Server) armWatches() {
	s.coordCli.GetData(viewPath(s.group), true, func(data []byte, ver int64, err error) {
		if err == nil {
			if v, derr := DecodeView(data); derr == nil {
				s.adoptView(v, ver)
			}
		}
	})
	s.armLockAliveWatches()
}

// rearmWatchFor re-installs a one-shot watch after an uninteresting event.
func (s *Server) rearmWatchFor(path string) {
	switch path {
	case lockPath(s.group):
		s.coordCli.Exists(path, true, func(bool, error) {})
	case viewPath(s.group):
		s.onViewChanged()
	}
}

// onViewChanged re-reads the view and re-arms its watch.
func (s *Server) onViewChanged() {
	s.coordCli.GetData(viewPath(s.group), true, func(data []byte, ver int64, err error) {
		if err != nil {
			return
		}
		if v, derr := DecodeView(data); derr == nil {
			s.adoptView(v, ver)
		}
	})
}

// ---- message dispatch ----

// HandleMessage implements transport.Handler.
func (s *Server) HandleMessage(from transport.NodeID, msg any) {
	if s.coordCli.MaybeHandle(from, msg) {
		return
	}
	switch m := msg.(type) {
	case AppendBatch:
		// The failover re-flush (Fig. 4 step 4) and the renewing final sync
		// send their tails one-way rather than as RPCs; without this case
		// they were silently discarded, so a standby that had lost its
		// cached tail never received the re-flush it needed. The ack goes
		// back one-way too so the active's LastSN bookkeeping still updates.
		s.onAppendBatch(from, m, func(resp any) {
			if ack, ok := resp.(AppendAck); ok {
				s.node.Send(from, ack)
			}
		})
	case AppendAck:
		s.onAppendAck(m)
	case CommitNotice:
		s.onCommitNotice(m)
	case Register:
		s.onRegister(m)
	case RegisterAck:
		s.onRegisterAck(m)
	case Promote:
		s.onPromote(m)
	case Demote:
		s.onDemote(m)
	case RenewStart:
		s.onRenewStart(m)
	case RenewProgress:
		s.onRenewProgress(m)
	case TxnVote:
		s.onTxnVote(m)
	case TxnAbort:
		s.onTxnAbort(m)
	case blockmap.IncrementalReport:
		s.blocks.ApplyIncremental(m)
	}
}

// HandleRequest implements transport.RequestHandler.
func (s *Server) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	if s.pool.MaybeHandleRequest(from, req, reply) {
		return
	}
	switch m := req.(type) {
	case ClientOp:
		s.handleClientOp(from, m, reply)
	case WhoIsActive:
		reply(ActiveIs{Active: transport.NodeID(s.view.Active), Epoch: s.view.Epoch})
	case AppendBatch:
		s.onAppendBatch(from, m, reply)
	case RenewJournalReq:
		s.onRenewJournalReq(m, reply)
	case TxnPrepare:
		s.onTxnPrepare(from, m, reply)
	case MigrateFreeze:
		s.onMigrateFreeze(m, reply)
	case MigrateRead:
		s.onMigrateRead(m, reply)
	case MigratePurge:
		s.onMigratePurge(m, reply)
	case MigrateIngest:
		s.onMigrateIngest(m, reply)
	case LoadReport:
		s.onLoadReport(m, reply)
	case health.ProbeReq:
		// Answer after a modeled slice of local CPU: a slowed-down node's
		// probes come back visibly late, which is the detector's slowdown
		// signal. The response carries the local clock for drift
		// estimation.
		s.node.After(health.ProbeCost, "health-probe", func() {
			reply(health.ProbeResp{LocalNow: s.node.LocalNow()})
		})
	default:
		reply(nil)
	}
}

// ---- client operations on the active ----

func (s *Server) handleClientOp(from transport.NodeID, op ClientOp, reply func(any)) {
	if s.upgrading {
		// Fig. 4 step 3: accept and buffer, commit after the upgrade.
		s.upgradeQueue = append(s.upgradeQueue, queuedOp{from: from, op: op, reply: reply})
		s.obsBuffered.Set(float64(len(s.upgradeQueue)))
		return
	}
	if s.role != RoleActive {
		reply(OpReply{NotActive: true, Hint: transport.NodeID(s.view.Active)})
		return
	}
	if cached, dup := s.retryCache[op.ReqID]; dup {
		reply(cached)
		return
	}
	// Misrouted ops (stale client shard map) bounce before paying the CPU
	// queue; executeOp re-checks post-queue, which is the authoritative
	// decision because the map can change while the op waits.
	if rep, stale := s.checkRouting(op); stale {
		reply(rep)
		return
	}
	// CPU queue: ops are serviced sequentially. Under GroupCommit only the
	// in-memory dispatch share of a mutating op runs here; the journal-sync
	// share that dominates the legacy service time amortizes across the
	// batch on the journal lane.
	svc := s.cfg.Params.SvcFor(op.Kind)
	if s.cfg.Params.GroupCommit && op.Kind.Mutating() {
		svc = s.cfg.Params.dispatchSvc(svc)
	}
	transport.Charge(s.node, s.cpu.Add(s.node.Now(), svc), "mds-op", func() {
		s.executeOp(op, reply)
	})
}

// finishOp replies and, for a mutation, remembers the reply so that a
// retried request is answered without applying it twice. Reads are
// idempotent: a retried read is simply served again, and caching every
// read's reply would hold one OpReply per read ever served for the life of
// the process.
func (s *Server) finishOp(op ClientOp, rep OpReply, reply func(any)) {
	if op.Kind.Mutating() {
		s.retryCache[op.ReqID] = rep
	}
	reply(rep)
}

// failOpAtBarrier replies a state-dependent application error (exists /
// not-found) only once the state the validation observed is committed. The
// active's tree includes sealed-but-uncommitted and even unsealed records;
// answering "exists" from that state is a durability claim the client is
// entitled to rely on (§IV.C treats exists/not-found on a retry as proof
// the original mutation took effect), so the answer must not outlive the
// batch it was derived from. If that batch dies with our activeness, the
// client is redirected to retry against the successor's recovered state.
func (s *Server) failOpAtBarrier(op ClientOp, errStr string, reply func(any)) {
	barrier := s.log.LastSN()
	if s.builder != nil && s.builder.Pending() > 0 {
		barrier++ // unsealed records ride in the next batch
	}
	if barrier <= s.committedSN {
		s.finishOp(op, OpReply{Err: errStr}, reply)
		return
	}
	s.waiters[barrier] = append(s.waiters[barrier], func(err error) {
		if err != nil {
			reply(OpReply{NotActive: true, Hint: transport.NodeID(s.view.Active)})
			return
		}
		s.finishOp(op, OpReply{Err: errStr}, reply)
	})
}

// executeOp runs an operation after its queueing delay.
func (s *Server) executeOp(op ClientOp, reply func(any)) {
	if s.role != RoleActive || s.builder == nil {
		reply(OpReply{NotActive: true, Hint: transport.NodeID(s.view.Active)})
		return
	}
	if rep, stale := s.checkRouting(op); stale {
		reply(rep)
		return
	}
	if op.Kind.Mutating() && s.opTouchesFrozenSlot(op) {
		// Mid-migration freeze: not executed, not cached — the client backs
		// off and retries until the flip lands.
		s.obsFrozenRej.Inc()
		reply(OpReply{SlotMoving: true})
		return
	}
	s.noteSlotOp(op)
	now := int64(s.node.Now())
	switch op.Kind {
	case OpStat:
		info, err := s.tree.Stat(op.Path)
		if err != nil {
			s.finishOp(op, OpReply{Err: err.Error()}, reply)
			return
		}
		s.finishOp(op, OpReply{Info: &info}, reply)
	case OpList:
		infos, err := s.tree.List(op.Path)
		if err != nil {
			s.finishOp(op, OpReply{Err: err.Error()}, reply)
			return
		}
		s.finishOp(op, OpReply{Infos: infos}, reply)
	case OpCreate:
		rec := journal.Record{Op: journal.OpCreate, Path: op.Path, Size: op.Size, Perm: 0o644, MTime: now}
		s.applyAndJournal(op, []journal.Record{rec}, reply)
	case OpMkdir, OpDelete, OpRename:
		s.executeStructuralOp(op, reply)
	default:
		s.finishOp(op, OpReply{Err: "mams: unknown op"}, reply)
	}
}

// applyAndJournal validates and applies records locally, then replies once
// the containing batch has been replicated to the standbys. The dry-run
// validation keeps every record that reaches the journal replayable.
func (s *Server) applyAndJournal(op ClientOp, recs []journal.Record, reply func(any)) {
	for i := range recs {
		if err := s.tree.Validate(recs[i]); err != nil {
			s.failOpAtBarrier(op, err.Error(), reply)
			return
		}
		tx := s.builder.Add(recs[i])
		recs[i].TxID = tx
		if err := s.tree.Apply(recs[i]); err != nil {
			// Unreachable given Validate; surface loudly if not.
			s.emit(trace.KindJournal, "apply-after-validate-failed", "err", err.Error())
			s.finishOp(op, OpReply{Err: err.Error()}, reply)
			return
		}
	}
	// The records will ride in the next sealed batch.
	sn := s.log.LastSN() + 1
	done := func(err error) {
		if err != nil {
			reply(OpReply{Err: err.Error(), NotActive: true, Hint: transport.NodeID(s.view.Active)})
			return
		}
		s.finishOp(op, OpReply{SN: sn, Epoch: s.view.Epoch, DurableSN: s.committedSN}, reply)
	}
	if s.cfg.Params.AsyncAck && s.cfg.Params.GroupCommit {
		// Ack at seal: the reply's DurableSN is the watermark the client
		// compares its SN against to learn durability.
		s.sealWaiters[sn] = append(s.sealWaiters[sn], done)
	} else {
		s.waiters[sn] = append(s.waiters[sn], done)
	}
	s.recordsPending()
}

// ---- journal batching & replication (active) ----

// recordsPending applies the commit-path seal policy after records entered
// the builder. Legacy (timer-only) mode arms the lazy BatchEvery timer;
// adaptive group commit seals immediately when the pipeline is empty or the
// builder is full and the window has room, and otherwise lets the next
// commit advance (or the timer, as idle/overflow fallback) seal.
func (s *Server) recordsPending() {
	if s.role != RoleActive || s.builder == nil || s.builder.Pending() == 0 {
		return
	}
	p := s.cfg.Params
	if p.GroupCommit &&
		(len(s.pendingRepl) == 0 ||
			(s.builder.Pending() >= p.BatchMaxRecords && len(s.pendingRepl) < p.inflightWindow())) {
		s.sealBatch()
		return
	}
	s.armBatchTimer()
}

// armBatchTimer arms the seal fallback timer if it is not already pending.
// It is armed lazily — only while records wait in the builder — so an idle
// active schedules no timer events at all.
func (s *Server) armBatchTimer() {
	if s.batchArmed || s.role != RoleActive {
		return
	}
	s.batchArmed = true
	s.batchTimer = s.node.After(s.cfg.Params.BatchEvery, "mds-batch", func() {
		s.batchArmed = false
		if s.role != RoleActive {
			return
		}
		s.sealBatch()
		if s.builder != nil && s.builder.Pending() > 0 {
			// The pipelined window was full: keep the fallback armed.
			s.armBatchTimer()
		}
	})
}

// armFenceLoop runs the active's self-fence check on its own periodic loop
// (it used to piggyback on the always-armed batch timer): if we have been
// out of contact with the coordination service for close to the session
// timeout, our lock and liveness node may already be gone and a new active
// may be rising — stop serving before we can conflict.
func (s *Server) armFenceLoop() {
	if s.fenceLoopOn {
		return
	}
	s.fenceLoopOn = true
	_, every := s.fenceParams()
	var loop func()
	loop = func() {
		if s.stopped || s.role != RoleActive {
			s.fenceLoopOn = false
			return
		}
		if s.leaseLapsed() {
			s.fenceLoopOn = false
			s.emit(trace.KindState, "self-fence")
			s.onSessionExpired()
			return
		}
		s.node.After(every, "mams-fence-check", loop)
	}
	s.node.After(every, "mams-fence-check", loop)
}

// fenceParams derives the self-fence lease budget and check cadence from
// the coordination session parameters (they used to be hardcoded, which
// silently broke deployments with a shorter session timeout): the slack
// between one heartbeat and session expiry is the window in which we must
// notice lost contact, so the budget spends a quarter of it on top of one
// heartbeat interval and the check loop samples it at an eighth.
func (s *Server) fenceParams() (budget, every sim.Time) {
	hb := s.cfg.CoordHeartbeat
	margin := s.cfg.CoordSessionTimeout - 2*hb
	if margin < 0 {
		margin = 0
	}
	budget = hb + margin/4
	every = margin / 8
	if every < 5*sim.Millisecond {
		every = 5 * sim.Millisecond
	}
	if every > 250*sim.Millisecond {
		every = 250 * sim.Millisecond
	}
	return budget, every
}

// leaseLapsed reports whether the active's coordination lease expired: no
// successful ensemble contact within the derived budget, which guarantees
// we fence before any successor can be elected.
func (s *Server) leaseLapsed() bool {
	if s.role != RoleActive {
		return false
	}
	budget, _ := s.fenceParams()
	// Measured on the local clock — LastContact is stamped with LocalNow,
	// and a real server has no other clock to compare it against.
	return s.node.LocalNow()-s.coordCli.LastContact() > budget
}

// replTargets are the members that must ack every batch: the standbys in
// the current view plus a junior in final renewing sync. The set is
// memoized per adopted view (it is on the per-seal hot path) and
// invalidated whenever the view or the renew target changes.
func (s *Server) replTargets() []transport.NodeID {
	if s.replCacheOK {
		return s.replCache
	}
	var out []transport.NodeID
	for _, id := range s.view.Standbys() {
		if id != string(s.cfg.ID) {
			out = append(out, transport.NodeID(id))
		}
	}
	if s.renewTarget != "" {
		out = append(out, s.renewTarget)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.replCache, s.replCacheOK = out, true
	return out
}

// resendCommitWatermark re-advertises the commit watermark to the hot
// standbys. The per-commit CommitNotice is a single one-way send; on a
// flapping link the last notice before load pauses can vanish, leaving the
// standby holding the tail batch cached but never committed — its tree
// digest then diverges from the active's for as long as the system stays
// idle. Re-sending from the sanity loop makes the watermark converging:
// once links heal, every standby commits the cached tail within one loop
// period. Duplicate notices are harmless (applyCommitted is idempotent).
func (s *Server) resendCommitWatermark() {
	if s.committedSN == 0 {
		return
	}
	for _, t := range s.replTargets() {
		s.node.Send(t, CommitNotice{Epoch: s.view.Epoch, Through: s.committedSN})
	}
}

func (s *Server) sealBatch() {
	if s.role != RoleActive || s.builder == nil || s.builder.Pending() == 0 {
		return
	}
	p := s.cfg.Params
	if len(s.pendingRepl) >= p.inflightWindow() {
		// Pipelined window full: the seal hook in tryAdvanceCommit (or the
		// fallback timer) retries once a slot frees up.
		s.armBatchTimer()
		return
	}
	batch := s.builder.Seal()
	s.lastTx = batch.LastTx()
	if err := s.log.Append(batch); err != nil {
		s.emit(trace.KindJournal, "active-append-error", "err", err.Error())
		return
	}
	s.emitAppend(batch.SN)
	s.obsSealed.Inc()
	s.obsBatchRecords.Observe(float64(len(batch.Records)))
	targets := s.replTargets()
	now := s.node.Now()
	var launchDelay sim.Time
	if p.GroupCommit {
		// The journal write runs on its own lane: sequential flush + encode
		// per record + replication fan-out, overlapped with op dispatch.
		cost := p.JournalFlushPerBatch +
			sim.Time(len(batch.Records))*p.JournalPerRecord +
			sim.Time(len(targets))*p.ReplPerBatchPerStandby
		launchDelay = s.journalLane.Add(now, cost)
	} else {
		// Legacy path: replication + SSP serialization CPU charged to the
		// single dispatch thread.
		cost := sim.Time(len(targets)) * (p.ReplPerBatchPerStandby +
			sim.Time(len(batch.Records))*p.ReplPerRecordPerStandby)
		cost += sim.Time(len(batch.Records)) * p.SSPPerRecordCPU
		s.cpu.Add(now, cost)
	}

	rs := &replState{batch: batch, needed: map[transport.NodeID]bool{}, sealedAt: now}
	rs.span = s.spans.Begin("journal-2pc", string(s.cfg.ID), 0,
		"sn", fmt.Sprint(batch.SN), "standbys", fmt.Sprint(len(targets)))
	for _, t := range targets {
		rs.needed[t] = true
	}
	s.pendingRepl[batch.SN] = rs
	s.obsInflight.Set(float64(len(s.pendingRepl)))
	s.obsWatermarkLag.Set(float64(batch.SN - s.committedSN))
	sn := batch.SN
	if p.AsyncAck && p.GroupCommit {
		// Async acks: reply at seal. The reply body (built in applyAndJournal)
		// carries this sn plus the current durability watermark.
		for _, w := range s.sealWaiters[sn] {
			w(nil)
		}
		delete(s.sealWaiters, sn)
	}

	launch := func() {
		if cur, ok := s.pendingRepl[sn]; !ok || cur != rs || s.role != RoleActive {
			return // committed, stepped down, or reset while flushing
		}
		// Persist into the shared storage pool: asynchronously by default
		// (§IV: "written back to journals in an asynchronous way"), or as
		// part of the commit requirement in SyncSSP mode.
		enc := batch.Encode()
		rs.sspPending = p.SyncSSP
		var put func()
		put = func() {
			if s.stopped || s.role != RoleActive {
				// Deposed: a successor owns the sn space now, and a zombie
				// retry landing late would overwrite its batch in the pool.
				return
			}
			s.sspc.Put(ssp.Key{Group: s.group, Kind: ssp.KindJournal, Seq: sn}, enc, int64(len(enc)), func(err error) {
				if err != nil {
					// A failed pool write is not durability: this write is
					// the backstop for batches no standby holds (the whole
					// point of SyncSSP mode), and the fence watermark waits
					// on it even after the batch commits on standby acks.
					// Retry while we are the active and the watermark still
					// needs this sn.
					if s.stopped || s.role != RoleActive || sn <= s.poolDurableSN {
						return
					}
					s.emit(trace.KindJournal, "ssp-put-retry", "sn", fmt.Sprint(sn), "err", err.Error())
					s.node.After(100*sim.Millisecond, "mams-ssp-retry", put)
					return
				}
				// Advance the watermark even for batches that already
				// committed on standby acks: held fences wait on it.
				s.notePoolDurable(sn)
				cur, ok := s.pendingRepl[sn]
				if !ok || cur != rs {
					return // already committed via standby acks, or we stepped down
				}
				s.emit(trace.KindJournal, "ssp-put-ok", "sn", fmt.Sprint(sn))
				rs.sspDone = true
				rs.sspPending = false
				s.tryAdvanceCommit()
			})
		}
		put()

		if len(targets) == 0 {
			s.tryAdvanceCommit()
			return
		}
		msg := AppendBatch{From: s.cfg.ID, Epoch: batch.Epoch, Batch: batch, CommitThrough: s.committedSN}
		for _, t := range targets {
			s.node.Call(t, msg, p.AckTimeout, func(resp any, err error) {
				// A timeout is handled by the ack-timeout path, which demotes
				// the laggard.
				if ack, ok := resp.(AppendAck); ok && err == nil {
					s.onAppendAck(ack)
				}
			})
		}
		rs.timer = s.node.After(p.AckTimeout+10*sim.Millisecond, "mds-ack-timeout", func() {
			s.onAckTimeout(sn)
		})
	}
	transport.Charge(s.node, launchDelay, "mds-journal-flush", launch)
}

func (s *Server) onAppendAck(ack AppendAck) {
	if s.role != RoleActive {
		return
	}
	rs, ok := s.pendingRepl[ack.SN]
	if !ok {
		return
	}
	if !ack.OK {
		// The member has a gap: degrade it to junior (§III.C "degrades
		// them to the junior state when necessary"), and hold the commit
		// until the demotion is durable in the coordination service.
		s.fenceLaggard(rs, ack.From)
	} else {
		rs.acked++
	}
	delete(rs.needed, ack.From)
	if len(rs.needed) == 0 {
		if rs.timer != nil {
			rs.timer.Stop()
		}
		s.tryAdvanceCommit()
	}
}

// tryAdvanceCommit commits fully acked batches in strict sn order, waking
// the client replies waiting on each.
func (s *Server) tryAdvanceCommit() {
	advanced := false
	for {
		next := s.committedSN + 1
		rs, ok := s.pendingRepl[next]
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
		delete(s.pendingRepl, next)
		s.committedSN = next
		s.obsCommitted.Inc()
		now := s.node.Now()
		s.obsSealToCommit.Observe((now - rs.sealedAt).Seconds())
		s.spans.End(rs.span, "outcome", "committed")
		advanced = true
		if n := len(s.waiters[next]); n > 0 && s.cfg.Params.GroupCommit {
			// Sync-ack group commit: charge the dispatch thread for
			// processing the commit completions and sending the replies.
			s.cpu.Add(now, sim.Time(n)*s.cfg.Params.CommitAckCost)
		}
		for _, w := range s.waiters[next] {
			w(nil)
		}
		delete(s.waiters, next)
	}
	if advanced {
		s.obsInflight.Set(float64(len(s.pendingRepl)))
		s.obsWatermarkLag.Set(float64(s.log.LastSN() - s.committedSN))
		// Tell standbys they may apply (piggybacked normally; the
		// explicit notice keeps the tail moving when load pauses).
		for _, t := range s.replTargets() {
			s.node.Send(t, CommitNotice{Epoch: s.view.Epoch, Through: s.committedSN})
		}
		// Adaptive group commit: a finished replication round frees a
		// pipeline slot — seal whatever accumulated while it was in flight.
		if s.cfg.Params.GroupCommit && s.role == RoleActive &&
			s.builder != nil && s.builder.Pending() > 0 &&
			len(s.pendingRepl) < s.cfg.Params.inflightWindow() {
			s.sealBatch()
		}
	}
}

func (s *Server) onAckTimeout(sn uint64) {
	rs, ok := s.pendingRepl[sn]
	if !ok {
		return
	}
	for t := range rs.needed {
		s.fenceLaggard(rs, t)
		delete(rs.needed, t)
	}
	s.tryAdvanceCommit()
}

// fenceLaggard demotes a member that missed rs's batch and blocks rs's
// commit until the demotion is durable. Releasing the fence re-polls the
// commit pipeline.
func (s *Server) fenceLaggard(rs *replState, id transport.NodeID) {
	rs.fencing++
	if s.poolDurableSN < s.committedSN {
		// A batch that committed on this member's ack may still live only
		// in standby caches (the backstop pool write is in flight), and
		// demotion destroys the member's cache. Hold the fence until the
		// pool watermark catches up; commits for the fenced batch stay
		// blocked behind rs.fencing either way.
		s.heldFences = append(s.heldFences, heldFence{rs: rs, id: id})
		s.emit(trace.KindState, "fence-held", "member", string(id),
			"pooldurable", fmt.Sprint(s.poolDurableSN),
			"committed", fmt.Sprint(s.committedSN))
		return
	}
	s.fenceNow(rs, id)
}

func (s *Server) fenceNow(rs *replState, id transport.NodeID) {
	s.demoteMember(id, func() {
		rs.fencing--
		s.tryAdvanceCommit()
	})
}

// notePoolDurable records a landed pool write and advances the contiguous
// watermark, releasing any fences waiting on it.
func (s *Server) notePoolDurable(sn uint64) {
	if s.role != RoleActive || sn <= s.poolDurableSN {
		return
	}
	s.poolPutOK[sn] = true
	for s.poolPutOK[s.poolDurableSN+1] {
		delete(s.poolPutOK, s.poolDurableSN+1)
		s.poolDurableSN++
	}
	s.releaseHeldFences()
}

func (s *Server) releaseHeldFences() {
	if s.poolDurableSN < s.committedSN || len(s.heldFences) == 0 {
		return
	}
	held := s.heldFences
	s.heldFences = nil
	for _, h := range held {
		s.fenceNow(h.rs, h.id)
	}
}

// demoteMember marks a group member junior in the view and notifies it.
// done (optional) runs once the demotion is durable in the coordination
// service — or provably unnecessary (the member is already junior there, or
// this server stopped being active, which voids its pending commits anyway).
// Callers that must fence a laggard out of the next election before acking a
// client pass done; fire-and-forget callers pass nil.
func (s *Server) demoteMember(id transport.NodeID, done func()) {
	if string(id) == s.view.Active {
		if done != nil {
			done()
		}
		return
	}
	// The local-view fast path is only safe without a durability obligation:
	// the cached view may be stale.
	if done == nil && s.view.States[string(id)] == RoleJunior {
		return
	}
	s.emit(trace.KindState, "demote-member", "member", string(id))
	if s.renewTarget == id {
		s.renewTarget = ""
		s.invalidateReplTargets()
	}
	s.casView(func(v *View) bool {
		if v.States[string(id)] == RoleJunior || v.Active == string(id) {
			return false
		}
		v.States[string(id)] = RoleJunior
		return true
	}, func(err error) {
		if err != nil {
			// Coordination hiccup: the demotion is not durable. Keep trying
			// while we are still the active — the commit (and the client
			// ack) stays blocked behind the fence until this lands. Once we
			// stop being active our pending replication state is discarded,
			// so the fence no longer guards anything.
			if s.role == RoleActive && !s.stopped {
				s.node.After(100*sim.Millisecond, "mams-demote-retry", func() {
					s.demoteMember(id, done)
				})
			} else if done != nil {
				done()
			}
			return
		}
		s.node.Send(id, Demote{Epoch: s.view.Epoch})
		if done != nil {
			done()
		}
	})
}

// Checkpoint saves the namespace image to the pool now.
func (s *Server) Checkpoint(cb func(err error)) {
	img := s.tree.SaveImage()
	sn := s.committedSN
	size := s.imageBytes()
	s.lastImageSN, s.lastImageSize = sn, size
	s.sspc.Put(ssp.Key{Group: s.group, Kind: ssp.KindImage, Seq: sn}, img, size, func(err error) {
		if cb != nil {
			cb(err)
		}
	})
}

// ---- standby-side replication ----

// CommitNotice tells standbys everything at or below Through is committed.
type CommitNotice struct {
	Epoch   uint64
	Through uint64
}

func (s *Server) onAppendBatch(from transport.NodeID, m AppendBatch, reply func(any)) {
	if s.role != RoleStandby && !(s.role == RoleJunior && s.renewing) {
		reply(AppendAck{From: s.cfg.ID, SN: m.Batch.SN, OK: false, LastSN: s.log.LastSN()})
		return
	}
	// IO fencing: refuse journals from anyone but the current view's
	// active (Fig. 4 step 2: "operations from the previous active will be
	// refused by all nodes").
	if s.view.Active != "" && string(from) != s.view.Active {
		if m.Epoch < s.view.Epoch {
			reply(AppendAck{From: s.cfg.ID, SN: m.Batch.SN, OK: false, LastSN: s.log.LastSN()})
			return
		}
	}
	// A newer epoch supersedes any cached-but-uncommitted prepares that
	// overlap its sn range: the new active re-issues those sns with its own
	// (authoritative) contents, so stale tail entries must not commit.
	for n := len(s.pendingQueue); n > 0; n = len(s.pendingQueue) {
		last := s.pendingQueue[n-1]
		if last.Epoch < m.Epoch && last.SN >= m.Batch.SN {
			s.pendingQueue = s.pendingQueue[:n-1]
			continue
		}
		break
	}
	// Commit what the active declared committed.
	s.applyCommitted(m.CommitThrough)

	sn := m.Batch.SN
	expected := s.log.LastSN() + 1
	if n := len(s.pendingQueue); n > 0 {
		expected = s.pendingQueue[n-1].SN + 1
	}
	switch {
	case sn < expected:
		// Duplicate (failover step 4 re-flush): "Only if sn from the
		// active is larger than the current maximum serial number, the
		// standby applies journals."
		if s.cfg.Params.SkipDupSuppression {
			// Planted regression for internal/check self-tests: re-apply
			// the duplicate instead of suppressing it. The monitor sees a
			// non-monotone append and flags it.
			_ = s.tree.ApplyBatch(m.Batch)
			s.emitAppend(sn)
		} else {
			s.emitDup(sn)
		}
		reply(AppendAck{From: s.cfg.ID, SN: sn, OK: true, LastSN: s.effectiveSN()})
	case sn == expected:
		// Charge standby CPU for the records it will apply.
		s.cpu.Add(s.node.Now(), sim.Time(len(m.Batch.Records))*s.cfg.Params.StandbyApplyPerRecord)
		// Pipelined prepares: cache in sn order; only an explicit
		// CommitThrough/CommitNotice (or failover step 2) commits them.
		s.pendingQueue = append(s.pendingQueue, m.Batch)
		reply(AppendAck{From: s.cfg.ID, SN: sn, OK: true, LastSN: s.effectiveSN()})
	default:
		// Gap: we missed batches; we cannot stay hot.
		reply(AppendAck{From: s.cfg.ID, SN: sn, OK: false, LastSN: s.log.LastSN()})
	}
}

// applyCommitted commits cached batches the active declared committed, in
// sn order.
func (s *Server) applyCommitted(through uint64) {
	for len(s.pendingQueue) > 0 && s.pendingQueue[0].SN <= through {
		s.commitQueuedHead()
	}
}

// commitAllQueued commits every cached batch (failover protocol step 2:
// the elected standby "commits all cached journals").
func (s *Server) commitAllQueued() {
	for len(s.pendingQueue) > 0 {
		s.commitQueuedHead()
	}
}

func (s *Server) commitQueuedHead() {
	b := &s.pendingQueue[0]
	s.pendingQueue = s.pendingQueue[1:]
	if b.SN <= s.log.LastSN() {
		return
	}
	if err := s.tree.ApplyBatch(*b); err != nil {
		// Deterministic replay cannot fail unless our state diverged from
		// the timeline; discard everything and recover through renewing.
		s.emit(trace.KindJournal, "replay-divergence", "err", err.Error())
		s.hardResetToJunior()
		s.casView(func(v *View) bool {
			if v.States[string(s.cfg.ID)] == RoleJunior || v.Active == string(s.cfg.ID) {
				return false
			}
			v.States[string(s.cfg.ID)] = RoleJunior
			return true
		}, func(error) {})
		return
	}
	switch err := s.log.Append(*b); {
	case err == nil:
		s.emitAppend(b.SN)
	case err != journal.ErrStale:
		s.emit(trace.KindJournal, "append-error", "err", err.Error())
	}
	s.lastTx = b.LastTx()
}

func (s *Server) onCommitNotice(m CommitNotice) {
	if s.role == RoleStandby || (s.role == RoleJunior && s.renewing) {
		s.applyCommitted(m.Through)
	}
}

func (s *Server) onDemote(m Demote) {
	if m.Epoch < s.view.Epoch {
		// A deposed active's demotion, delayed past its epoch (e.g. by a
		// loss burst): we already re-registered with the successor, which
		// re-classified us by sn. Obeying the stale order would wedge us as
		// a local junior the new active's renew scan cannot see.
		s.emit(trace.KindState, "stale-demote-ignored",
			"epoch", fmt.Sprint(m.Epoch), "current", fmt.Sprint(s.view.Epoch))
		return
	}
	if s.role == RoleStandby {
		s.role = RoleJunior
		s.pendingQueue = nil
		s.emit(trace.KindState, "demoted-junior", "epoch", fmt.Sprint(m.Epoch))
	}
}

func (s *Server) onPromote(m Promote) {
	if s.role == RoleJunior {
		s.role = RoleStandby
		s.renewing = false
		s.endRenewSpans("promoted")
		if m.LastTx > s.lastTx {
			s.lastTx = m.LastTx
		}
		s.emit(trace.KindState, "promoted-standby", "epoch", fmt.Sprint(m.Epoch), "sn", fmt.Sprint(s.log.LastSN()))
	}
}

// onRegister: the (new) active classifies a member by its journal position
// (Fig. 4 step 5).
func (s *Server) onRegister(m Register) {
	if s.role != RoleActive {
		return
	}
	s.renewLastSeen[m.From] = m.LastSN
	var assigned Role
	if m.LastSN == s.log.LastSN() {
		assigned = RoleStandby
	} else {
		assigned = RoleJunior
	}
	s.emit(trace.KindState, "register", "member", string(m.From), "sn", fmt.Sprint(m.LastSN), "as", assigned.String())
	s.casView(func(v *View) bool {
		if v.Active != string(s.cfg.ID) {
			return false
		}
		if v.States[string(m.From)] == assigned {
			return false
		}
		v.States[string(m.From)] = assigned
		return true
	}, func(error) {})
	s.node.Send(m.From, RegisterAck{Role: assigned, Epoch: s.view.Epoch})
}

func (s *Server) onRegisterAck(m RegisterAck) {
	s.registerAcked = true
	if s.role == RoleActive || s.upgrading {
		return
	}
	switch m.Role {
	case RoleStandby:
		if s.role != RoleStandby {
			s.role = RoleStandby
			s.emit(trace.KindState, "become-standby", "epoch", fmt.Sprint(m.Epoch))
		}
	case RoleJunior:
		if s.role != RoleJunior {
			s.role = RoleJunior
			s.pendingQueue = nil
			s.emit(trace.KindState, "demoted-junior", "epoch", fmt.Sprint(m.Epoch))
		}
	}
}
