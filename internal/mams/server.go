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
// coordinators). Refused, when set, names a member whose address refused
// the asker's last call: a member whose view still names it active reports
// it to the coordination service, which checks the proof itself
// (coord.Client.ReportRefused).
type WhoIsActive struct {
	Refused transport.NodeID
}

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
	// reporting is set while a refused-active report is on its way to the
	// coordination service, so a burst of clients' reports sends one.
	reporting bool
	pool      *ssp.PoolNode
	sspc      *ssp.Client
	blocks    *blockmap.Manager

	tree   *namespace.Tree
	log    *journal.Log
	lastTx uint64 // highest transaction id in the log

	role      Role
	upgrading bool
	view      View
	viewVer   int64

	// pipe is the active tenure's commit path; nil unless active.
	pipe        *commitPipeline
	commitObs   commitObs
	fenceLoopOn bool

	// Standby-side pipeline: prepared (uncommitted) batches in sn order.
	// Depth is bounded by the active's in-flight window plus re-flush
	// duplicates; batches apply only when the active declares them
	// committed (CommitThrough / CommitNotice) or during upgrade step 2.
	pendingQueue []journal.Batch

	// Election state.
	electing     sim.Time // when the trigger fired (0 = not electing)
	upgradeQueue []queuedOp
	// Fig. 4 step 5: the Register messages received during this upgrade,
	// classified once the node turns active, and (while the registration
	// window is open) the call that ends it before its cap.
	upgradeRegs   map[transport.NodeID]Register
	regWindowDone func()

	// Renewing.
	renewTarget   transport.NodeID // junior currently receiving live batches
	renewSession  transport.NodeID // junior currently in a renewing session
	renewActive   transport.NodeID // (junior side) the active renewing us
	renewing      bool             // this server (as junior) is renewing
	renewLastSeen map[transport.NodeID]uint64
	renewScanOn   bool

	// Distributed transactions.
	txnSeq       uint64
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
	freeDispatch         []*opDispatch  // records no op is waiting in
	virtualOverheadBytes int64
	lastImageSN          uint64
	lastImageSize        int64

	registerAcked bool
	sanityOn      bool

	retryCache map[uint64]OpReply // mutation replies by ReqID (finishOp)
	tr         *trace.Log
	rnd        func() float64 // uniform [0,1) for election jitter

	// Observability. All instruments are nil-safe no-ops when the network
	// carries no registry, so unit tests need no setup.
	spans            *obs.Tracer
	obsReflushed     *obs.Counter
	obsDups          *obs.Counter
	obsBuffered      *obs.Gauge
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
		renewLastSeen: map[transport.NodeID]uint64{},
		preparedTxns:  map[uint64]*preparedTxn{},
		retryCache:    map[uint64]OpReply{},
		tr:            tr,
		rnd:           rnd,
	}
	s.node = net.Listen(cfg.ID, s)
	reg, me := net.Obs(), string(cfg.ID)
	s.spans = net.Tracer()
	s.commitObs.sealed = reg.Counter("mams_journal_batches_sealed_total",
		"Journal batches sealed and sent for replication by an active.", "node", me)
	s.commitObs.committed = reg.Counter("mams_journal_batches_committed_total",
		"Journal batches fully replicated and committed by an active.", "node", me)
	s.obsReflushed = reg.Counter("mams_journal_batches_reflushed_total",
		"Tail batches re-flushed to group members during failover (Fig. 4 step 4).", "node", me)
	s.obsDups = reg.Counter("mams_journal_dup_suppressed_total",
		"Duplicate batches suppressed by serial number on a standby.", "node", me)
	s.obsBuffered = reg.Gauge("mams_failover_buffered_requests",
		"Client operations buffered while this node upgrades to active (peak via max).", "node", me)
	s.commitObs.batchRecords = reg.Histogram("mams_journal_batch_records",
		"Records per sealed journal batch (adaptive group commit sizes batches by load).",
		obs.ExpBuckets(1, 2, 11), "node", me)
	s.commitObs.sealToCommit = reg.Histogram("mams_journal_seal_to_commit_seconds",
		"Latency from batch seal to in-order commit on the active.",
		obs.ExpBuckets(0.0002, 2, 12), "node", me)
	s.commitObs.inflight = reg.Gauge("mams_journal_inflight_batches",
		"Sealed batches currently replicating in the pipelined window (peak via max).", "node", me)
	s.commitObs.watermarkLag = reg.Gauge("mams_journal_watermark_lag_batches",
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

// sspReplicas is the number of pool nodes holding each journal and image
// object (§III.A's shared storage pool).
const sspReplicas = 2

// newPoolClient builds the client for this group's shared storage pool.
// Placement consults the group view: a takeover records the deposed active
// as RoleDown, and without this hint a lone survivor wedges its sole-owner
// commit backstop on the dead peer's put timeout — there is no second pool
// member to fail over to in a two-node group. Only an explicit RoleDown
// avoids a member; juniors are live pool members, and absent entries
// (bootstrap window) keep the default full-rotation placement.
func (s *Server) newPoolClient() *ssp.Client {
	c := ssp.NewClient(s.node, s.members, s.pool, sspReplicas)
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
	if s.pipe != nil {
		s.pipe.abandon("abandoned-restart", nil)
		s.pipe = nil
	}
	s.endRenewSpans("restart")
	s.endElectionSpans("restart")
	s.tree = namespace.New()
	s.log = journal.NewLog()
	s.lastTx = 0
	s.role = RoleJunior
	s.bootRole = RoleJunior
	s.upgrading = false
	s.view = NewView()
	s.viewVer = -1
	s.pendingQueue = nil
	s.fenceLoopOn = false
	s.electing = 0
	s.upgradeQueue = nil
	s.renewTarget = ""
	s.renewSession = ""
	s.renewActive = ""
	s.renewing = false
	s.renewLastSeen = map[transport.NodeID]uint64{}
	s.renewScanOn = false
	s.preparedTxns = map[uint64]*preparedTxn{}
	s.sanityOn = false
	s.cpu = transport.Lane{}
	s.reporting = false
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
		if s.role != RoleActive && !s.upgrading {
			s.armLockAliveWatches()
			s.reconcileRoleWithView()
		} else if s.pipe != nil {
			s.pipe.resendCommitWatermark()
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
	s.pipe = newCommitPipeline(pipeWorld{
		node:    s.node,
		tree:    s.tree,
		log:     s.log,
		cpu:     &s.cpu,
		lastTx:  &s.lastTx,
		put:     s.putJournal,
		fence:   s.demoteMember,
		targets: s.replTargets,
		ack:     s.answerOp,
		emit:    s.emit,
		obs:     s.commitObs,
		spans:   s.spans,
	}, s.cfg.Params, epoch)
	// Classify the members that registered during the upgrade (Fig. 4
	// step 5) before the buffered ops run: a drained op that seals a batch
	// would leave every standby's registered sn behind ours.
	regs := s.upgradeRegs
	s.upgradeRegs = nil
	for _, m := range s.members {
		if r, ok := regs[m]; ok {
			s.onRegister(r)
		}
	}
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

// hardResetToJunior discards all namespace state; the renewing protocol
// rebuilds it from the shared storage pool ("the active ... will be
// directly degraded to the junior state").
func (s *Server) hardResetToJunior() {
	s.emit(trace.KindState, "hard-reset-junior", "sn", fmt.Sprint(s.log.LastSN()))
	s.endRenewSpans("hard-reset")
	s.tree = namespace.New()
	s.log = journal.NewLog()
	s.lastTx = 0
	s.pendingQueue = nil
	s.renewing = false
	s.role = RoleJunior
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

// invalidateReplTargets tells an active's pipeline that its replication
// targets changed (a new view, or a renew target in final sync).
func (s *Server) invalidateReplTargets() {
	if s.pipe != nil {
		s.pipe.retarget()
	}
}

// leaveActive is the one way out of active duty. It abandons the tenure's
// pipeline — waiting replies fail with err and clients retry against the
// successor — and ends the renewing session and the migration freeze. A
// node holding records the tenure never committed cannot be a prefix of the
// new timeline: it resets to an empty junior, relies on renewing, and
// reports reset.
func (s *Server) leaveActive(outcome string, err error) (reset bool) {
	p := s.pipe
	reset = p.dirty()
	s.pipe = nil
	s.renewScanOn = false
	s.renewTarget = ""
	s.renewSession = ""
	s.freezeBarrierOK = false // the next active of this group recomputes
	p.abandon("abandoned-"+outcome, err)
	if reset {
		s.hardResetToJunior()
	}
	return reset
}

// stepDown turns a deposed active into the role the view assigns it.
func (s *Server) stepDown(v View) {
	s.emit(trace.KindState, "step-down", "epoch", fmt.Sprint(v.Epoch))
	if !s.leaveActive("step-down", fmt.Errorf("mams: deposed")) {
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
	if attempt > 20 || s.role == RoleActive || s.upgrading {
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
	s.endRenewSpans("session-expired")
	s.endElectionSpans("session-expired")
	if s.pipe != nil {
		s.leaveActive("session-expired", fmt.Errorf("mams: session expired"))
	}
	s.role = RoleJunior
	s.pendingQueue = nil
	s.renewing = false
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
	s.onViewChanged()
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
		if s.pipe != nil {
			s.pipe.onAppendAck(m)
		} else if s.upgrading {
			s.noteReflushAck(m)
		}
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
		if m.Refused != "" && m.Refused != s.cfg.ID && m.Refused == transport.NodeID(s.view.Active) {
			s.reportRefused(m.Refused)
		}
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
	// CPU queue: ops are serviced sequentially, for what the commit policy
	// leaves on the dispatch thread. This is transport.Charge written out,
	// so that an op with no wait (the wire plane's zero cost model) runs
	// inline, and one that waits does so in a reused dispatch record.
	if wait := s.cpu.Add(s.node.Now(), s.pipe.dispatchCost(op.Kind)); wait > 0 {
		d := s.dispatchRecord()
		d.op, d.reply = op, reply
		s.node.After(wait, "mds-op", d.fire)
		return
	}
	s.executeOp(op, reply)
}

// opDispatch holds one client op while it waits out its dispatch charge.
// Its fire func is bound once, when the record is made, and the record
// goes back on Server.freeDispatch when it fires, so a charged op costs no
// closure. Each record is armed on its own timer: a slowdown that changes
// between two arms can make them fire out of arming order. A crashed
// node's timers never fire, and its records are left to the GC.
type opDispatch struct {
	s     *Server
	op    ClientOp
	reply func(any)
	fire  func() // d.run
}

// dispatchRecord returns a free dispatch record, making one if none is.
func (s *Server) dispatchRecord() *opDispatch {
	if n := len(s.freeDispatch); n > 0 {
		d := s.freeDispatch[n-1]
		s.freeDispatch = s.freeDispatch[:n-1]
		return d
	}
	d := &opDispatch{s: s}
	d.fire = d.run
	return d
}

// run executes the op once its charge is paid, freeing the record first.
func (d *opDispatch) run() {
	s, op, reply := d.s, d.op, d.reply
	d.op, d.reply = ClientOp{}, nil
	s.freeDispatch = append(s.freeDispatch, d)
	s.executeOp(op, reply)
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
	s.pipe.await(s.pipe.barrier(), func(err error) {
		if err != nil {
			reply(OpReply{NotActive: true, Hint: transport.NodeID(s.view.Active)})
			return
		}
		s.finishOp(op, OpReply{Err: errStr}, reply)
	})
}

// executeOp runs an operation after its queueing delay.
func (s *Server) executeOp(op ClientOp, reply func(any)) {
	if s.pipe == nil {
		reply(OpReply{NotActive: true, Hint: transport.NodeID(s.view.Active)})
		return
	}
	if rep, stale := s.checkRouting(op); stale {
		reply(rep)
		return
	}
	if op.Kind.Mutating() && s.touchesFrozenSlot(op.Kind.record(), op.Path, op.Dest) {
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
		// The client has the path: it fills Path and Name in from its
		// request (fsclient.Stat), so the reply does not carry them.
		info.Path, info.Name = "", ""
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
		s.applyAndJournal(op, rec, reply)
	case OpMkdir, OpDelete, OpRename:
		s.executeStructuralOp(op, reply)
	default:
		s.finishOp(op, OpReply{Err: "mams: unknown op"}, reply)
	}
}

// applyAndJournal journals one mutation and replies once its batch
// commits (or seals, when the policy acks at seal). Validation keeps every
// record that reaches the journal replayable.
func (s *Server) applyAndJournal(op ClientOp, rec journal.Record, reply func(any)) {
	sn, err := s.pipe.journal(rec)
	if err != nil {
		s.failOpAtBarrier(op, err.Error(), reply)
		return
	}
	s.pipe.awaitOp(sn, opAck{reqID: op.ReqID, kind: op.Kind, reply: reply})
}

// answerOp answers a client mutation waiting on batch sn (pipeWorld.ack):
// with the batch and the durability watermark as they stand when the wait
// fires, or with NotActive once the tenure has ended.
func (s *Server) answerOp(op opAck, sn uint64, err error) {
	if err != nil {
		op.reply(OpReply{Err: err.Error(), NotActive: true, Hint: transport.NodeID(s.view.Active)})
		return
	}
	s.finishOp(ClientOp{ReqID: op.reqID, Kind: op.kind}, OpReply{SN: sn, Epoch: s.view.Epoch, DurableSN: s.pipe.committedSN}, op.reply)
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
		if s.role != RoleActive {
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
	budget, _ := s.fenceParams()
	// Measured on the local clock — LastContact is stamped with LocalNow,
	// and a real server has no other clock to compare it against.
	return s.node.LocalNow()-s.coordCli.LastContact() > budget
}

// replTargets are the members that must ack every batch, sorted: the
// standbys in the current view plus a junior in final renewing sync.
func (s *Server) replTargets() []transport.NodeID {
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
	return out
}

// putJournal writes batch sn to the group's shared storage pool.
func (s *Server) putJournal(sn uint64, enc []byte, done func(error)) {
	s.sspc.Put(ssp.Key{Group: s.group, Kind: ssp.KindJournal, Seq: sn}, enc, int64(len(enc)), done)
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
			if s.role == RoleActive {
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
	sn := s.log.LastSN() // every batch a replica holds is committed
	if s.pipe != nil {
		sn = s.pipe.committedSN
	}
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
	// Shift rather than reslice, so the queue keeps its backing array and a
	// standby appends each batch without allocating.
	b := s.pendingQueue[0]
	n := copy(s.pendingQueue, s.pendingQueue[1:])
	s.pendingQueue[n] = journal.Batch{}
	s.pendingQueue = s.pendingQueue[:n]
	if b.SN <= s.log.LastSN() {
		return
	}
	if err := s.applyBatch(b); err != nil {
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
	}
}

// applyBatch replays a committed batch on a replica: the namespace, then
// the journal, then the transaction-id high-water mark. It returns the
// namespace's error, in which case nothing else changed; a batch the journal
// already holds is not an error.
func (s *Server) applyBatch(b journal.Batch) error {
	if err := s.tree.ApplyBatch(b); err != nil {
		return err
	}
	switch err := s.log.Append(b); {
	case err == nil:
		s.emitAppend(b.SN)
	case err != journal.ErrStale:
		s.emit(trace.KindJournal, "append-error", "err", err.Error())
	}
	s.lastTx = b.LastTx()
	return nil
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
	if s.upgrading {
		// Held until this node turns active (becomeActiveNow).
		s.upgradeRegs[m.From] = m
		s.maybeEndRegistration()
		return
	}
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
