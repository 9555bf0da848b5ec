// Package paxos implements a multi-decree Paxos replicated log.
//
// The paper's MAMS policy relies on Paxos twice: the coordination service
// that stores the global view and the per-group distributed lock is a
// Paxos-replicated ensemble (the prototype used ZooKeeper, whose ZAB
// protocol plays the same role), and the Boom-FS baseline replicates its
// whole metadata state machine through a Paxos-ordered distributed log.
//
// The implementation is transport-agnostic and event-driven: the owner
// delivers incoming messages via Deliver, drives retransmissions via Tick,
// and receives outbound messages through a Transport callback plus ordered
// chosen values through an apply callback. This keeps the package free of
// any dependency on the simulation kernel and directly unit-testable.
package paxos

import (
	"fmt"
	"sort"
)

// Ballot orders proposal rounds. Ballots are totally ordered by (N, ID).
type Ballot struct {
	N  uint64
	ID string
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.ID < o.ID
}

// IsZero reports whether b is the zero ballot.
func (b Ballot) IsZero() bool { return b.N == 0 && b.ID == "" }

func (b Ballot) String() string { return fmt.Sprintf("%d@%s", b.N, b.ID) }

// Noop is the value proposed to fill log gaps discovered during recovery.
type Noop struct{}

// Msg is implemented by every Paxos wire message.
type Msg interface{ isPaxos() }

// Prepare initiates phase 1 for all slots >= FromSlot.
type Prepare struct {
	B        Ballot
	FromSlot uint64
}

// AcceptedVal carries an acceptor's highest accepted (ballot, value) pair
// for one slot.
type AcceptedVal struct {
	B Ballot
	V any
}

// Promise answers Prepare: the acceptor promises to ignore lower ballots
// and reveals everything it has accepted or learned at FromSlot and above.
type Promise struct {
	B        Ballot
	From     string
	Accepted map[uint64]AcceptedVal
	Chosen   map[uint64]any // already-chosen values the candidate may lack
}

// Accept asks acceptors to accept V at Slot under ballot B (phase 2).
type Accept struct {
	B    Ballot
	Slot uint64
	V    any
}

// Accepted acknowledges an Accept.
type Accepted struct {
	B    Ballot
	Slot uint64
	From string
}

// Nack rejects a Prepare or Accept whose ballot is stale; Promised is the
// acceptor's current promise, letting the proposer pick a higher ballot.
type Nack struct {
	B        Ballot // the rejected ballot
	Promised Ballot
}

// Learn disseminates a chosen value to learners.
type Learn struct {
	Slot uint64
	V    any
}

// LearnReq asks a peer for chosen values at slots >= From (anti-entropy:
// lost Learn messages are recovered this way).
type LearnReq struct {
	From uint64
}

// LearnBatch answers LearnReq with a bounded run of chosen values.
type LearnBatch struct {
	Items []Learn
}

func (Prepare) isPaxos()    {}
func (Promise) isPaxos()    {}
func (Accept) isPaxos()     {}
func (Accepted) isPaxos()   {}
func (Nack) isPaxos()       {}
func (Learn) isPaxos()      {}
func (LearnReq) isPaxos()   {}
func (LearnBatch) isPaxos() {}

// Transport sends a message to a peer. Delivery may be delayed, reordered
// or dropped; the protocol tolerates all three.
type Transport func(to string, m Msg)

// Config describes one replica's identity and ensemble.
type Config struct {
	Self  string
	Peers []string // all ensemble members, including Self
}

func (c Config) quorum() int { return len(c.Peers)/2 + 1 }

type proposal struct {
	v     any
	votes map[string]bool
}

// Replica is one Paxos participant: proposer, acceptor and learner in a
// single (non-thread-safe) state machine. The owner serializes calls.
type Replica struct {
	cfg     Config
	send    Transport
	onApply func(slot uint64, v any)

	// Acceptor state.
	promised Ballot
	accepted map[uint64]AcceptedVal

	// Learner state. Proposed values must be comparable (use pointers or
	// id-bearing structs): chosenVals powers duplicate suppression.
	chosen     map[uint64]any
	chosenVals map[any]struct{}
	applyIdx   uint64 // next slot to hand to onApply

	// Proposer state.
	ballot    Ballot
	leading   bool
	electing  bool
	promises  map[string]Promise
	nextSlot  uint64
	proposals map[uint64]*proposal
	backlog   []any // values submitted while not yet leading
	maxSeen   Ballot

	probeIdx int // round-robin cursor for anti-entropy catch-up
}

// New creates a replica. onApply receives chosen values strictly in slot
// order, exactly once per slot (per process lifetime).
func New(cfg Config, t Transport, onApply func(slot uint64, v any)) *Replica {
	if len(cfg.Peers) == 0 {
		panic("paxos: empty ensemble")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
		}
	}
	if !found {
		panic("paxos: Self missing from Peers")
	}
	return &Replica{
		cfg:        cfg,
		send:       t,
		onApply:    onApply,
		accepted:   make(map[uint64]AcceptedVal),
		chosen:     make(map[uint64]any),
		chosenVals: make(map[any]struct{}),
		promises:   make(map[string]Promise),
		proposals:  make(map[uint64]*proposal),
		nextSlot:   1,
		applyIdx:   1,
	}
}

// Leading reports whether this replica currently believes it is the
// distinguished proposer.
func (r *Replica) Leading() bool { return r.leading }

// Electing reports whether a phase-1 round is in flight.
func (r *Replica) Electing() bool { return r.electing }

// AppliedThrough returns the highest slot delivered to onApply.
func (r *Replica) AppliedThrough() uint64 { return r.applyIdx - 1 }

// Chosen returns the chosen value at slot, if known.
func (r *Replica) Chosen(slot uint64) (any, bool) {
	v, ok := r.chosen[slot]
	return v, ok
}

// TryLead starts (or restarts) a phase-1 round with a ballot higher than
// any this replica has seen.
func (r *Replica) TryLead() {
	n := r.maxSeen.N + 1
	if r.promised.N >= n {
		n = r.promised.N + 1
	}
	if r.ballot.N >= n {
		n = r.ballot.N + 1
	}
	r.ballot = Ballot{N: n, ID: r.cfg.Self}
	r.maxSeen = r.ballot
	r.leading = false
	r.electing = true
	r.promises = make(map[string]Promise)
	r.proposals = make(map[uint64]*proposal)
	r.broadcastPrepare()
}

func (r *Replica) broadcastPrepare() {
	msg := Prepare{B: r.ballot, FromSlot: r.applyIdx}
	for _, p := range r.cfg.Peers {
		if p == r.cfg.Self {
			r.Deliver(r.cfg.Self, msg)
			continue
		}
		r.send(p, msg)
	}
}

// Propose submits a client value for eventual commitment. If this replica
// is not leading, the value is queued until it wins an election; callers
// that prefer forwarding to a known leader should do so instead.
func (r *Replica) Propose(v any) {
	if r.leading {
		r.assign(v)
		return
	}
	r.backlog = append(r.backlog, v)
	if !r.electing {
		r.TryLead()
	}
}

// assign gives v the next free slot and launches phase 2 for it.
func (r *Replica) assign(v any) {
	slot := r.nextSlot
	r.nextSlot++
	r.proposals[slot] = &proposal{v: v, votes: map[string]bool{}}
	r.broadcastAccept(slot)
}

func (r *Replica) broadcastAccept(slot uint64) {
	pr, ok := r.proposals[slot]
	if !ok {
		return
	}
	msg := Accept{B: r.ballot, Slot: slot, V: pr.v}
	for _, p := range r.cfg.Peers {
		if p == r.cfg.Self {
			r.Deliver(r.cfg.Self, msg)
			continue
		}
		r.send(p, msg)
	}
}

// Tick retransmits whatever is outstanding (phase-1 prepares or phase-2
// accepts) and runs one round of anti-entropy catch-up. Owners call it on a
// timer; it is idempotent.
func (r *Replica) Tick() {
	// Anti-entropy: ask one peer (round-robin) for chosen values we may
	// have missed. Covers lost Learn messages.
	if len(r.cfg.Peers) > 1 {
		for {
			r.probeIdx = (r.probeIdx + 1) % len(r.cfg.Peers)
			if r.cfg.Peers[r.probeIdx] != r.cfg.Self {
				break
			}
		}
		r.send(r.cfg.Peers[r.probeIdx], LearnReq{From: r.applyIdx})
	}
	switch {
	case r.electing:
		r.broadcastPrepare()
	case !r.leading && len(r.backlog) > 0:
		// We lost an election with values still queued; retry with a
		// higher ballot. Owners should jitter Tick timing to avoid duels.
		r.TryLead()
	case r.leading:
		for _, s := range r.proposalSlots() {
			r.broadcastAccept(s)
		}
	}
}

// proposalSlots lists the in-flight proposals' slots in ascending order.
func (r *Replica) proposalSlots() []uint64 {
	slots := make([]uint64, 0, len(r.proposals))
	for s := range r.proposals {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	return slots
}

// Outstanding reports the number of slots proposed but not yet chosen.
func (r *Replica) Outstanding() int { return len(r.proposals) }

// Deliver processes one incoming message.
func (r *Replica) Deliver(from string, m Msg) {
	switch msg := m.(type) {
	case Prepare:
		r.onPrepare(from, msg)
	case Promise:
		r.onPromise(msg)
	case Accept:
		r.onAccept(from, msg)
	case Accepted:
		r.onAccepted(msg)
	case Nack:
		r.onNack(msg)
	case Learn:
		r.learn(msg.Slot, msg.V)
	case LearnReq:
		r.onLearnReq(from, msg)
	case LearnBatch:
		for _, it := range msg.Items {
			r.learn(it.Slot, it.V)
		}
	default:
		panic(fmt.Sprintf("paxos: unknown message %T", m))
	}
}

func (r *Replica) onPrepare(from string, msg Prepare) {
	if r.maxSeen.Less(msg.B) {
		r.maxSeen = msg.B
	}
	if msg.B.Less(r.promised) {
		r.reply(from, Nack{B: msg.B, Promised: r.promised})
		return
	}
	r.promised = msg.B
	if msg.B != r.ballot {
		// Someone else is taking over with a ballot at least as high.
		r.leading = false
		r.electing = false
	}
	acc := make(map[uint64]AcceptedVal)
	for slot, av := range r.accepted {
		if slot >= msg.FromSlot {
			if _, isChosen := r.chosen[slot]; !isChosen {
				acc[slot] = av
			}
		}
	}
	cho := make(map[uint64]any)
	for slot, v := range r.chosen {
		if slot >= msg.FromSlot {
			cho[slot] = v
		}
	}
	r.reply(from, Promise{B: msg.B, From: r.cfg.Self, Accepted: acc, Chosen: cho})
}

func (r *Replica) onPromise(msg Promise) {
	if !r.electing || msg.B != r.ballot {
		return
	}
	r.promises[msg.From] = msg
	// Adopt any chosen values the promiser knows.
	for slot, v := range msg.Chosen {
		r.learn(slot, v)
	}
	if len(r.promises) < r.cfg.quorum() {
		return
	}
	// Quorum reached: become leader and recover open slots.
	r.electing = false
	r.leading = true
	highest := make(map[uint64]AcceptedVal)
	maxSlot := r.applyIdx - 1
	for s := range r.chosen {
		if s > maxSlot {
			maxSlot = s
		}
	}
	for _, pm := range r.promises {
		for slot, av := range pm.Accepted {
			if slot > maxSlot {
				maxSlot = slot
			}
			cur, ok := highest[slot]
			if !ok || cur.B.Less(av.B) {
				highest[slot] = av
			}
		}
	}
	r.nextSlot = maxSlot + 1
	// Re-propose constrained values; fill holes with no-ops.
	for slot := r.applyIdx; slot <= maxSlot; slot++ {
		if _, done := r.chosen[slot]; done {
			continue
		}
		v := any(Noop{})
		if av, ok := highest[slot]; ok {
			v = av.V
		}
		r.proposals[slot] = &proposal{v: v, votes: map[string]bool{}}
		r.broadcastAccept(slot)
	}
	// Drain values submitted while electing, skipping any that were chosen
	// by a previous leader's recovery in the meantime.
	backlog := r.backlog
	r.backlog = nil
	for _, v := range backlog {
		if _, done := r.chosenVals[v]; done {
			continue
		}
		r.assign(v)
	}
}

func (r *Replica) onAccept(from string, msg Accept) {
	if r.maxSeen.Less(msg.B) {
		r.maxSeen = msg.B
	}
	if msg.B.Less(r.promised) {
		r.reply(from, Nack{B: msg.B, Promised: r.promised})
		return
	}
	r.promised = msg.B
	if msg.B != r.ballot && (r.leading || r.electing) {
		// A higher-ballot proposer is active; stand down.
		if r.ballot.Less(msg.B) {
			r.leading = false
			r.electing = false
		}
	}
	r.accepted[msg.Slot] = AcceptedVal{B: msg.B, V: msg.V}
	r.reply(from, Accepted{B: msg.B, Slot: msg.Slot, From: r.cfg.Self})
}

func (r *Replica) onAccepted(msg Accepted) {
	if !r.leading || msg.B != r.ballot {
		return
	}
	pr, ok := r.proposals[msg.Slot]
	if !ok {
		return
	}
	pr.votes[msg.From] = true
	if len(pr.votes) < r.cfg.quorum() {
		return
	}
	delete(r.proposals, msg.Slot)
	r.learn(msg.Slot, pr.v)
	for _, p := range r.cfg.Peers {
		if p != r.cfg.Self {
			r.send(p, Learn{Slot: msg.Slot, V: pr.v})
		}
	}
}

func (r *Replica) onNack(msg Nack) {
	if r.maxSeen.Less(msg.Promised) {
		r.maxSeen = msg.Promised
	}
	if msg.B != r.ballot {
		return
	}
	// Our ballot lost. Preserve in-flight values in slot order, stand down,
	// and let the owner decide when to retry (values stay in backlog, and
	// are re-proposed in this order).
	if r.leading || r.electing {
		for _, s := range r.proposalSlots() {
			pr := r.proposals[s]
			if _, isNoop := pr.v.(Noop); isNoop {
				continue
			}
			if _, done := r.chosenVals[pr.v]; done {
				continue
			}
			r.backlog = append(r.backlog, pr.v)
		}
		r.proposals = make(map[uint64]*proposal)
		r.leading = false
		r.electing = false
	}
}

// onLearnReq streams a bounded run of chosen values back to a lagging peer.
func (r *Replica) onLearnReq(from string, msg LearnReq) {
	if from == r.cfg.Self {
		return
	}
	const maxItems = 256
	var items []Learn
	for slot := msg.From; len(items) < maxItems; slot++ {
		v, ok := r.chosen[slot]
		if !ok {
			break
		}
		items = append(items, Learn{Slot: slot, V: v})
	}
	if len(items) > 0 {
		r.send(from, LearnBatch{Items: items})
	}
}

// dropFromBacklog removes one queued instance equal to v: the value has been
// chosen (possibly recovered by another leader), so re-proposing it would
// commit it twice. Values must therefore be distinguishable (carry unique
// request ids) for exactly-once semantics; otherwise the state-machine layer
// must deduplicate.
func (r *Replica) dropFromBacklog(v any) {
	for i, b := range r.backlog {
		if b == v {
			r.backlog = append(r.backlog[:i], r.backlog[i+1:]...)
			return
		}
	}
}

// learn records a chosen value and applies any newly contiguous prefix.
func (r *Replica) learn(slot uint64, v any) {
	if _, dup := r.chosen[slot]; dup {
		return
	}
	r.chosen[slot] = v
	r.chosenVals[v] = struct{}{}
	r.dropFromBacklog(v)
	for {
		nv, ok := r.chosen[r.applyIdx]
		if !ok {
			return
		}
		idx := r.applyIdx
		r.applyIdx++
		if r.onApply != nil {
			r.onApply(idx, nv)
		}
	}
}

// reply routes a response, short-circuiting messages to self.
func (r *Replica) reply(to string, m Msg) {
	if to == r.cfg.Self {
		r.Deliver(r.cfg.Self, m)
		return
	}
	r.send(to, m)
}
