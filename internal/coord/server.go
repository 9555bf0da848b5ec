package coord

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"mams/internal/obs"
	"mams/internal/paxos"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/transport"
)

// Wire messages between clients and servers (and server↔server announces).
type clientRequest struct {
	Op Op
}

type clientResponse struct {
	Res       Result
	NotLeader bool
	Redirect  transport.NodeID // best-known leader, may be empty
}

type pingRequest struct {
	Session uint64
}

type announce struct {
	Leader transport.NodeID
}

// poisonRequest force-invalidates every session owned by a client node: the
// ensemble stops honouring its heartbeats, so the session expires naturally
// and the client is told "expired" on its next contact. Fault injection for
// the paper's Test A ("modifying the global view to make the active lose
// the lock").
type poisonRequest struct {
	Node transport.NodeID
}

// refusedReport tells the leader that a call to Node was refused: its
// address had no listener. The leader checks that itself (probeRefused).
type refusedReport struct {
	Node transport.NodeID
}

// livenessProbe is the leader's check of a reported node. No host handles
// it, and a live host answers a request it does not know (with nil), so
// only the transport's verdict on the call matters: an answer means a
// process is there, transport.ErrRefused that none is.
type livenessProbe struct{}

// ServerConfig configures one ensemble member.
type ServerConfig struct {
	ID       transport.NodeID
	Ensemble []transport.NodeID // all members, including ID
	// Bootstrap makes this member seek leadership immediately at start
	// (typically the first member).
	Bootstrap bool
}

// An ensemble member's fixed timing.
const (
	// tickEvery drives Paxos retransmission and the leader watchdog.
	tickEvery = 50 * sim.Millisecond
	// leaderTimeout is how long a follower waits without hearing a leader
	// announce before trying to take over.
	leaderTimeout = 2 * sim.Second
	// sessionCheckEvery caps the leader's session-expiry scan period: a
	// session is expired at the first scan after its time-out has passed.
	sessionCheckEvery = 250 * sim.Millisecond
	// sessionTicks is how many scan periods fit in the shortest live
	// session's time-out. ZooKeeper expires sessions on a tick grid and
	// allows time-outs up to 20 ticks; this inverts that: the scan runs at
	// the tick the shortest time-out implies, so a 5 s session scans every
	// 250 ms and a 1.2 s one every 60 ms.
	sessionTicks = 20
	// refusedProbeGap spaces the leader's two probes of a reported node.
	// It is longer than the wire plane's refusal window (50 ms), so two
	// refusals come from two dials, the second made after the first probe
	// was sent.
	refusedProbeGap = 60 * sim.Millisecond
	// refusedProbes is how many refused probes in a row prove a node's
	// process gone.
	refusedProbes = 2
)

// Server is one coordination-ensemble member: a Paxos replica plus the
// znode state machine, session failure detection and watch delivery.
type Server struct {
	cfg     ServerConfig
	node    transport.Node
	replica *paxos.Replica
	sm      *stateMachine
	log     *trace.Log

	pending     map[uint64]func(any) // ReqID → RPC reply
	lastHeard   map[uint64]sim.Time
	poisoned    map[uint64]bool
	probing     map[uint64]bool // sessions whose owner a probe sequence is checking
	leaderGuess transport.NodeID
	wasLeading  bool
	lastLeadMsg sim.Time
	internalSeq uint64
	idHash      uint64

	// Observability (nil-safe no-ops without a registry on the network).
	obsWatchFires   *obs.Counter
	obsSessExpiries *obs.Counter
	obsRefExpiries  *obs.Counter
	obsLockAcquired *obs.Counter
	obsLockReleased *obs.Counter
}

// NewServer creates an ensemble member and registers it on the network.
// Call Start to begin ticking.
func NewServer(net transport.Transport, cfg ServerConfig, log *trace.Log) *Server {
	s := &Server{
		cfg:       cfg,
		sm:        newStateMachine(),
		log:       log,
		pending:   map[uint64]func(any){},
		lastHeard: map[uint64]sim.Time{},
		poisoned:  map[uint64]bool{},
		probing:   map[uint64]bool{},
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	s.idHash = h.Sum64()
	s.node = net.Listen(cfg.ID, s)
	reg, me := net.Obs(), string(cfg.ID)
	s.obsWatchFires = reg.Counter("mams_coord_watch_fires_total",
		"Watch notifications delivered by this ensemble member while leading.", "node", me)
	s.obsSessExpiries = reg.Counter("mams_coord_session_expiries_total",
		"Client sessions expired by this ensemble member while leading.", "node", me)
	s.obsRefExpiries = reg.Counter("mams_coord_refused_expiries_total",
		"Client sessions this member ended while leading, before their time-out, because the owner's address refused two probes.", "node", me)
	s.obsLockAcquired = reg.Counter("mams_coord_lock_acquired_total",
		"Group lock znodes created (applied on this member).", "node", me)
	s.obsLockReleased = reg.Counter("mams_coord_lock_released_total",
		"Group lock znodes removed, by explicit delete or session expiry (applied on this member).", "node", me)
	peers := make([]string, len(cfg.Ensemble))
	for i, p := range cfg.Ensemble {
		peers[i] = string(p)
	}
	send := func(to string, m paxos.Msg) { s.node.Send(transport.NodeID(to), m) }
	s.replica = paxos.New(paxos.Config{Self: string(cfg.ID), Peers: peers}, send, s.onApply)
	return s
}

// Node exposes the underlying simulated process (for fault injection).
func (s *Server) Node() transport.Node { return s.node }

// Leading reports whether this member currently leads the ensemble.
func (s *Server) Leading() bool { return s.replica.Leading() }

// Start arms the server's periodic timers and, if configured, seeks
// leadership.
func (s *Server) Start() {
	if s.cfg.Bootstrap {
		s.node.After(0, "coord-bootstrap", func() { s.replica.TryLead() })
	}
	s.lastLeadMsg = s.node.Now()
	s.armTick()
	s.armSessionCheck()
}

func (s *Server) armTick() {
	s.node.After(tickEvery, "coord-tick", func() {
		s.tick()
		s.armTick()
	})
}

func (s *Server) armSessionCheck() {
	s.node.After(s.sessionCheckPeriod(), "coord-session-check", func() {
		s.checkSessions()
		s.armSessionCheck()
	})
}

// sessionCheckPeriod is the next scan's delay: the shortest live session
// time-out over sessionTicks, never more than sessionCheckEvery. Only the
// scan's grid follows the time-out; a session still expires only once it
// has been silent for longer than its time-out.
func (s *Server) sessionCheckPeriod() sim.Time {
	every := sessionCheckEvery
	for _, sess := range s.sm.sessions {
		if tick := sim.Time(sess.timeoutNs) / sessionTicks; tick > 0 && tick < every {
			every = tick
		}
	}
	return every
}

func (s *Server) tick() {
	s.replica.Tick()
	now := s.node.Now()
	if s.replica.Leading() {
		if !s.wasLeading {
			// Fresh leader: give every session a full grace period and
			// tell the world.
			for id := range s.sm.sessions {
				s.lastHeard[id] = now
			}
			if s.log != nil {
				s.log.Emit(trace.KindCoord, string(s.cfg.ID), "ensemble-leader")
			}
		}
		s.wasLeading = true
		s.leaderGuess = s.cfg.ID
		s.lastLeadMsg = now
		for _, p := range s.cfg.Ensemble {
			if p != s.cfg.ID {
				s.node.Send(p, announce{Leader: s.cfg.ID})
			}
		}
		return
	}
	s.wasLeading = false
	// Follower watchdog: stagger takeover attempts by ensemble position so
	// members do not duel.
	stagger := sim.Time(0)
	for i, p := range s.cfg.Ensemble {
		if p == s.cfg.ID {
			stagger = sim.Time(i) * 500 * sim.Millisecond
		}
	}
	if now-s.lastLeadMsg > leaderTimeout+stagger && !s.replica.Electing() {
		s.replica.TryLead()
	}
}

// checkSessions expires sessions whose client went silent (leader only).
// Expiries are proposed in session-id order: sessions that time out in the
// same scan must reach the log in the same order on every run of a seed.
func (s *Server) checkSessions() {
	if !s.replica.Leading() {
		return
	}
	now := s.node.Now()
	var expired []uint64
	for id, sess := range s.sm.sessions {
		last, ok := s.lastHeard[id]
		if !ok {
			s.lastHeard[id] = now
			continue
		}
		if now-last > sim.Time(sess.timeoutNs) {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		s.proposeExpiry(id, "session-expire")
	}
}

// proposeExpiry proposes the end of session id, traced as event. Leader
// only.
func (s *Server) proposeExpiry(id uint64, event string) {
	if s.log != nil {
		s.log.Emit(trace.KindCoord, string(s.cfg.ID), event,
			"session", strconv.FormatUint(id, 10), "client", string(s.sm.sessions[id].clientNode))
	}
	s.obsSessExpiries.Inc()
	op := &Op{ReqID: s.nextInternalReq(), Kind: opExpireSession, Session: id}
	s.replica.Propose(op)
	delete(s.lastHeard, id) // avoid re-proposing every scan
}

// probeRefused checks a report that node's address refused a call (leader
// only). The sessions node owns now, and that no probe sequence is already
// checking, are probed as one: if node's address refuses refusedProbes
// probes in a row, refusedProbeGap apart, the sessions are expired at once,
// in session-id order, along the time-out's path. Any other outcome, an
// answer or a probe time-out, leaves them to their time-out: silence is
// never proof.
func (s *Server) probeRefused(node transport.NodeID) {
	var ids []uint64
	for id, sess := range s.sm.sessions {
		if sess.clientNode == node && !s.probing[id] {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.probing[id] = true
	}
	s.probe(node, ids, 0)
}

// probe sends one liveness probe to node, after refused refusals so far.
func (s *Server) probe(node transport.NodeID, ids []uint64, refused int) {
	s.node.Call(node, livenessProbe{}, requestTimeout, func(_ any, err error) {
		if err == transport.ErrRefused && refused+1 < refusedProbes {
			s.node.After(refusedProbeGap, "coord-refused-probe", func() { s.probe(node, ids, refused+1) })
			return
		}
		for _, id := range ids {
			delete(s.probing, id)
		}
		if err != transport.ErrRefused || !s.replica.Leading() {
			return
		}
		for _, id := range ids {
			if s.sm.sessions[id] != nil {
				s.obsRefExpiries.Inc()
				s.proposeExpiry(id, "session-expire-refused")
			}
		}
	})
}

func (s *Server) nextInternalReq() uint64 {
	s.internalSeq++
	return s.idHash&0xFFFFFFFF00000000 | s.internalSeq
}

// onApply executes a committed op on the local state machine and, when this
// server originated the request, answers the waiting client. The leader
// also delivers fired watch events.
func (s *Server) onApply(slot uint64, v any) {
	op, ok := v.(*Op)
	if !ok {
		return // paxos.Noop gap filler
	}
	res, fired := s.sm.apply(op)
	s.countLockTransition(op, res, fired)
	if reply, mine := s.pending[op.ReqID]; mine {
		delete(s.pending, op.ReqID)
		reply(clientResponse{Res: *res})
	}
	if s.replica.Leading() {
		for _, fw := range fired {
			if s.log != nil {
				s.log.Emit(trace.KindCoord, string(s.cfg.ID), "watch-fire",
					"to", string(fw.client), "path", fw.event.Path, "type", fw.event.Type.String())
			}
			s.obsWatchFires.Inc()
			s.node.Send(fw.client, fw.event)
		}
	}
}

// countLockTransition tracks MAMS group lock hand-offs from the znode
// stream: a lock path is created by the winner of an election and removed
// by an explicit delete or by the owner's session expiring (its ephemerals
// die with it — detected via the fired delete events).
func (s *Server) countLockTransition(op *Op, res *Result, fired []firedWatch) {
	switch {
	case op.Kind == opCreate && res.Err == "" && strings.HasSuffix(op.Path, "/lock"):
		s.obsLockAcquired.Inc()
	case op.Kind == opDelete && res.Err == "" && strings.HasSuffix(op.Path, "/lock"):
		s.obsLockReleased.Inc()
	case op.Kind == opExpireSession:
		for _, fw := range fired {
			if fw.event.Type == EventDeleted && strings.HasSuffix(fw.event.Path, "/lock") {
				s.obsLockReleased.Inc()
				break
			}
		}
	}
}

// HandleMessage implements transport.Handler: paxos traffic and announces.
func (s *Server) HandleMessage(from transport.NodeID, msg any) {
	switch m := msg.(type) {
	case paxos.Msg:
		s.replica.Deliver(string(from), m)
	case announce:
		s.leaderGuess = m.Leader
		s.lastLeadMsg = s.node.Now()
	}
}

// HandleRequest implements transport.RequestHandler: client RPCs.
func (s *Server) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	switch m := req.(type) {
	case pingRequest:
		if !s.replica.Leading() {
			reply(clientResponse{NotLeader: true, Redirect: s.leaderGuess})
			return
		}
		if s.sm.sessions[m.Session] == nil || s.poisoned[m.Session] {
			reply(clientResponse{Res: Result{Err: encodeErr(ErrSessionExpired)}})
			return
		}
		s.lastHeard[m.Session] = s.node.Now()
		reply(clientResponse{})
	case refusedReport:
		if !s.replica.Leading() {
			reply(clientResponse{NotLeader: true, Redirect: s.leaderGuess})
			return
		}
		s.probeRefused(m.Node)
		reply(clientResponse{})
	case poisonRequest:
		if !s.replica.Leading() {
			reply(clientResponse{NotLeader: true, Redirect: s.leaderGuess})
			return
		}
		for id, sess := range s.sm.sessions {
			if sess.clientNode == m.Node {
				s.poisoned[id] = true
			}
		}
		reply(clientResponse{})
	case clientRequest:
		if !s.replica.Leading() {
			reply(clientResponse{NotLeader: true, Redirect: s.leaderGuess})
			return
		}
		op := m.Op
		if op.Session != 0 && s.poisoned[op.Session] {
			reply(clientResponse{Res: Result{Err: encodeErr(ErrSessionExpired)}})
			return
		}
		if op.Session != 0 {
			if s.sm.sessions[op.Session] == nil {
				if _, seen := s.sm.applied[op.ReqID]; !seen {
					reply(clientResponse{Res: Result{Err: encodeErr(ErrSessionExpired)}})
					return
				}
			} else {
				s.lastHeard[op.Session] = s.node.Now()
			}
		}
		if cached, dup := s.sm.applied[op.ReqID]; dup {
			reply(clientResponse{Res: *cached})
			return
		}
		s.pending[op.ReqID] = reply
		s.replica.Propose(&op)
	default:
		reply(clientResponse{Res: Result{Err: "coord: bad request"}})
	}
}
