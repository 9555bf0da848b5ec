// Package baselines implements the four reliable-metadata designs the paper
// compares MAMS against — HDFS BackupNode, Facebook AvatarNode, Hadoop HA
// (quorum journal manager) and Boom-FS — plus vanilla single-server HDFS as
// the unreplicated performance reference.
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
)

// nsCore is the single-namespace metadata engine embedded in every
// baseline server: inode tree, journal builder, CPU queue and retry cache.
type nsCore struct {
	node      *simnet.Node
	params    mams.Params
	tree      *namespace.Tree
	builder   *journal.Builder
	log       *journal.Log
	lastTx    uint64
	busyUntil sim.Time
	committed uint64 // highest durable sn
	retry     map[uint64]mams.OpReply
	waiters   map[uint64][]func(error)
}

func newNSCore(node *simnet.Node, params mams.Params) *nsCore {
	return &nsCore{
		node:    node,
		params:  params,
		tree:    namespace.New(),
		builder: journal.NewBuilder(1, 0, 0),
		log:     journal.NewLog(),
		retry:   map[uint64]mams.OpReply{},
		waiters: map[uint64][]func(error){},
	}
}

// queue charges svc CPU time and runs fn when the (single-threaded)
// dispatcher reaches this request.
func (c *nsCore) queue(svc sim.Time, name string, fn func()) {
	now := c.node.World().Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	c.busyUntil = start + svc
	c.node.After(c.busyUntil-now, name, fn)
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

// wait registers a reply to fire when sn commits.
func (c *nsCore) wait(sn uint64, fn func(error)) {
	c.waiters[sn] = append(c.waiters[sn], fn)
}

// commit releases every waiter at or below sn.
func (c *nsCore) commit(sn uint64) {
	if sn > c.committed {
		c.committed = sn
	}
	for s := range c.waiters {
		if s <= sn {
			for _, w := range c.waiters[s] {
				w(nil)
			}
			delete(c.waiters, s)
		}
	}
}

// failAll rejects every outstanding waiter (server stepping down/crashing).
func (c *nsCore) failAll(err error) {
	for s, ws := range c.waiters {
		for _, w := range ws {
			w(err)
		}
		delete(c.waiters, s)
	}
}

// seal closes the pending records into a batch and appends it locally.
func (c *nsCore) seal() (journal.Batch, bool) {
	if c.builder.Pending() == 0 {
		return journal.Batch{}, false
	}
	b := c.builder.Seal()
	c.lastTx = b.LastTx()
	_ = c.log.Append(b)
	return b, true
}

// handleOp is the common request path: retry-cache check, CPU queueing,
// read vs mutation dispatch. durable is invoked with the sealed... no —
// mutations wait on the system-specific commit path; reads answer
// immediately after the queue delay.
func (c *nsCore) handleOp(op mams.ClientOp, reply func(any), mutate func(op mams.ClientOp, sn uint64)) {
	if cached, dup := c.retry[op.ReqID]; dup {
		reply(cached)
		return
	}
	c.queue(c.params.SvcFor(op.Kind), "bl-op", func() {
		now := int64(c.node.World().Now())
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
		c.wait(sn, func(err error) {
			var rep mams.OpReply
			if err != nil {
				rep = mams.OpReply{Err: err.Error(), NotActive: true}
			} else {
				rep = mams.OpReply{}
				c.retry[op.ReqID] = rep
			}
			reply(rep)
		})
		if mutate != nil {
			mutate(op, sn)
		}
	})
}
