// Package baselines implements the four reliable-metadata designs the paper
// compares MAMS against — HDFS BackupNode, Facebook AvatarNode, Hadoop HA
// (quorum journal manager) and Boom-FS — plus vanilla single-server HDFS as
// the unreplicated performance reference. AvatarNode and Hadoop HA are one
// design, the shared-edit-log pair (sharedlog.go), with two parameterisations.
//
// All five serve the same client protocol as the MAMS servers
// (mams.ClientOp / mams.OpReply / mams.WhoIsActive), so the same
// fsclient, workload generators and MTTR measurement drive every system.
// Each design differs exactly where the paper says it differs: what the
// journal durability path costs, how hot the backup is, and what work the
// failover path must do before service resumes.
package baselines

import (
	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/trace"
	"mams/internal/transport"
)

// role is a baseline server's place in its design's failover.
type role uint8

const (
	roleActive     role = iota + 1 // serves clients (primary, leader)
	roleStandby                    // backup, follower
	roleRecovering                 // taking over
	roleDead
)

// nsCore is the single-namespace metadata engine every baseline server
// embeds: inode tree, journal, dispatch CPU, retry cache and commit
// waiters, plus the client protocol and crash handling they all share.
type nsCore struct {
	node    *simnet.Node
	params  mams.Params
	tr      *trace.Log
	role    role
	leader  simnet.NodeID // redirect hint for clients of a non-active server
	tree    *namespace.Tree
	builder *journal.Builder
	log     *journal.Log
	lastTx  uint64
	cpu     transport.Lane // the single-threaded dispatcher
	// committed is the highest durable sn.
	committed uint64
	retry     map[uint64]mams.OpReply
	waiters   map[uint64][]func(committed bool)
	// lostLead, when set, is asked at each seal tick whether the active has
	// lost the right to serve since the last one; it steps the server down
	// and returns true, which stops the seal loop.
	lostLead func() bool
}

// register builds the core for server h, which embeds it, and adds h to the
// network under id. Every design runs the MAMS servers' calibration.
func (c *nsCore) register(net *simnet.Network, id simnet.NodeID, h simnet.Handler,
	tr *trace.Log, r role) {
	c.node = net.AddNode(id, h)
	c.params = mams.DefaultParams()
	c.tr = tr
	c.role = r
	c.tree = namespace.New()
	c.builder = journal.NewBuilder(1, 0, 0)
	c.log = journal.NewLog()
	c.retry = map[uint64]mams.OpReply{}
	c.waiters = map[uint64][]func(bool){}
}

// Node exposes the simulated process.
func (c *nsCore) Node() *simnet.Node { return c.node }

// IsActive reports whether this server serves clients.
func (c *nsCore) IsActive() bool { return c.role == roleActive }

// LastSN exposes the journal position.
func (c *nsCore) LastSN() uint64 { return c.log.LastSN() }

// Files exposes the namespace size for verification.
func (c *nsCore) Files() int { return c.tree.Files() }

// CommittedSN returns the highest durable journal batch.
func (c *nsCore) CommittedSN() uint64 { return c.committed }

func (c *nsCore) emit(what string, args ...string) {
	if c.tr != nil {
		c.tr.Emit(trace.KindFailover, string(c.node.ID()), what, args...)
	}
}

// Crash fails the server: clients waiting on a commit are told to look for
// the new active.
func (c *nsCore) Crash() {
	c.failAll()
	c.node.Crash()
	c.role = roleDead
}

// HandleMessage implements simnet.Handler; designs that exchange one-way
// messages override it.
func (c *nsCore) HandleMessage(from simnet.NodeID, msg any) {}

// HandleRequest implements simnet.RequestHandler: the client protocol.
// Designs with requests of their own answer those first and pass the rest
// here.
func (c *nsCore) HandleRequest(from simnet.NodeID, req any, reply func(any)) {
	switch m := req.(type) {
	case mams.ClientOp:
		if c.role != roleActive {
			reply(mams.OpReply{NotActive: true, Hint: c.leader})
			return
		}
		c.handleOp(m, reply)
	case mams.WhoIsActive:
		if c.role == roleActive {
			reply(mams.ActiveIs{Active: c.node.ID(), Epoch: 1})
			return
		}
		reply(mams.ActiveIs{})
	default:
		reply(nil)
	}
}

// recordFor converts a client mutation into a journal record.
func recordFor(op mams.ClientOp, now int64) journal.Record {
	switch op.Kind {
	case mams.OpCreate:
		return journal.Record{Op: journal.OpCreate, Path: op.Path, Size: op.Size, Perm: 0o644, MTime: now}
	case mams.OpMkdir:
		return journal.Record{Op: journal.OpMkdir, Path: op.Path, Perm: 0o755, MTime: now}
	case mams.OpDelete:
		return journal.Record{Op: journal.OpDelete, Path: op.Path, MTime: now}
	case mams.OpRename:
		return journal.Record{Op: journal.OpRename, Path: op.Path, Dest: op.Dest, MTime: now}
	default:
		return journal.Record{Op: journal.OpNoop}
	}
}

// executeRead serves getfileinfo/list immediately.
func (c *nsCore) executeRead(op mams.ClientOp) mams.OpReply {
	switch op.Kind {
	case mams.OpStat:
		info, err := c.tree.Stat(op.Path)
		if err != nil {
			return mams.OpReply{Err: err.Error()}
		}
		return mams.OpReply{Info: &info}
	case mams.OpList:
		infos, err := c.tree.List(op.Path)
		if err != nil {
			return mams.OpReply{Err: err.Error()}
		}
		return mams.OpReply{Infos: infos}
	default:
		return mams.OpReply{Err: "baselines: not a read"}
	}
}

// applyMutation validates, applies and journals a mutation; the reply is
// deferred until the batch carrying it becomes durable (system-specific).
// It returns the sn whose commit will release the reply, or an immediate
// error reply.
func (c *nsCore) applyMutation(op mams.ClientOp, now int64) (uint64, *mams.OpReply) {
	rec := recordFor(op, now)
	if err := c.tree.Validate(rec); err != nil {
		rep := mams.OpReply{Err: err.Error()}
		return 0, &rep
	}
	rec.TxID = c.builder.Add(rec)
	if err := c.tree.Apply(rec); err != nil {
		rep := mams.OpReply{Err: err.Error()}
		return 0, &rep
	}
	return c.log.LastSN() + 1, nil
}

// commit releases every waiter at or below sn.
func (c *nsCore) commit(sn uint64) {
	if sn > c.committed {
		c.committed = sn
	}
	for s := range c.waiters {
		if s <= sn {
			for _, w := range c.waiters[s] {
				w(true)
			}
			delete(c.waiters, s)
		}
	}
}

// failAll rejects every outstanding waiter (server stepping down/crashing).
func (c *nsCore) failAll() {
	for s, ws := range c.waiters {
		for _, w := range ws {
			w(false)
		}
		delete(c.waiters, s)
	}
}

// armSeal runs the seal loop while the server is active: every BatchEvery
// it seals the pending records into a batch, appends it to the local
// journal, charges perRecord dispatcher CPU for each record and hands the
// batch to ship, the design's durability path.
func (c *nsCore) armSeal(perRecord sim.Time, ship func(journal.Batch)) {
	c.node.After(c.params.BatchEvery, "bl-seal", func() {
		if c.role != roleActive || (c.lostLead != nil && c.lostLead()) {
			return
		}
		if c.builder.Pending() > 0 {
			b := c.builder.Seal()
			c.lastTx = b.LastTx()
			_ = c.log.Append(b) // the builder numbers batches contiguously
			c.cpu.Add(c.node.Now(), sim.Time(len(b.Records))*perRecord)
			ship(b)
		}
		c.armSeal(perRecord, ship)
	})
}

// applyNext applies a batch received from the active when it is the next
// one the local journal expects; any other batch is skipped. It returns the
// namespace's error if the tree rejects the batch.
func (c *nsCore) applyNext(b journal.Batch) error {
	if b.SN != c.log.LastSN()+1 {
		return nil
	}
	if err := c.tree.ApplyBatch(b); err != nil {
		return err
	}
	_ = c.log.Append(b) // contiguous by the check above
	c.lastTx = b.LastTx()
	c.builder = journal.NewBuilder(1, c.log.LastSN(), c.lastTx)
	return nil
}

// handleOp is the common request path: retry-cache check, CPU queueing,
// then a read answers at once and a mutation waits for the commit of the
// batch that carries it.
func (c *nsCore) handleOp(op mams.ClientOp, reply func(any)) {
	if cached, dup := c.retry[op.ReqID]; dup {
		reply(cached)
		return
	}
	// After, not Charge: a zero wait still yields to the event queue.
	c.node.After(c.cpu.Add(c.node.Now(), c.params.SvcFor(op.Kind)), "bl-op", func() {
		now := int64(c.node.Now())
		if !op.Kind.Mutating() {
			rep := c.executeRead(op)
			c.retry[op.ReqID] = rep
			reply(rep)
			return
		}
		sn, errRep := c.applyMutation(op, now)
		if errRep != nil {
			c.retry[op.ReqID] = *errRep
			reply(*errRep)
			return
		}
		c.waiters[sn] = append(c.waiters[sn], func(committed bool) {
			if !committed {
				reply(mams.OpReply{NotActive: true})
				return
			}
			c.retry[op.ReqID] = mams.OpReply{}
			reply(mams.OpReply{})
		})
	})
}
