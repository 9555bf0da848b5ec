package baselines

import (
	"path"

	"mams/internal/coord"
	"mams/internal/journal"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/trace"
	"mams/internal/transport"
)

// The shared-edit-log pair: a ZooKeeper-elected active writes every batch
// to a set of shared edit stores and commits it once a majority
// (len(stores)/2+1) holds it; a standby tails the stores and, when the
// active's lock goes, takes the lock, fences, catches up and switches.
// Facebook's AvatarNode is the pair over one NFS filer with no fencing
// stage; Hadoop HA is the pair over a quorum of journal nodes (the paper
// runs four) with an ssh/NFS fencing stage.

// Design names a parameterisation of the pair: the prefix of its trace
// events and its coordination directory.
type Design string

const (
	AvatarNode Design = "avatar" // one NFS filer, no fencing stage
	HadoopHA   Design = "ha"     // a journal-node quorum, with fencing
)

// lockPath is the ephemeral znode the active holds.
func (d Design) lockPath() string {
	if d == HadoopHA {
		return "/hadoop-ha/lock"
	}
	return "/avatar/lock"
}

// SharedLogParams calibrates the pair.
type SharedLogParams struct {
	// StoreWriteCost is one store's disk cost per batch: AvatarNode's NFS
	// round trip plus filer disk (slower than a local fsync, its Figure 6
	// overhead), or one journal node's write.
	StoreWriteCost sim.Time
	// JournalPerRecordCPU is the active's CPU cost to serialize one edit
	// into the store write path (the design's metadata overhead, Fig. 6).
	JournalPerRecordCPU sim.Time
	// TailEvery is the standby's store polling period.
	TailEvery sim.Time
	// FenceCost is the fencing of the old active that precedes catch-up;
	// zero skips the stage.
	FenceCost sim.Time
	// SwitchCost is the fixed work between catch-up and serving: lease
	// recovery, client-side switch and RPC re-registration for AvatarNode
	// (its flat ~30 s MTTR, Table I column 4); catch-up finalization,
	// safemode exit and the DN re-registration wave for Hadoop HA.
	SwitchCost sim.Time
	// AppendTimeout and ReadTimeout bound the active's store writes and the
	// standby's tail reads.
	AppendTimeout sim.Time
	ReadTimeout   sim.Time
}

// DefaultAvatarParams returns AvatarNode's calibration.
func DefaultAvatarParams() SharedLogParams {
	return SharedLogParams{
		StoreWriteCost:      1800 * sim.Microsecond,
		JournalPerRecordCPU: 30 * sim.Microsecond,
		TailEvery:           500 * sim.Millisecond,
		SwitchCost:          23 * sim.Second,
		AppendTimeout:       30 * sim.Second,
		ReadTimeout:         10 * sim.Second,
	}
}

// DefaultHadoopHAParams returns Hadoop HA's calibration. The standby
// re-reads finalized segments every couple of seconds (the HDFS default).
func DefaultHadoopHAParams() SharedLogParams {
	return SharedLogParams{
		StoreWriteCost:      700 * sim.Microsecond,
		JournalPerRecordCPU: 35 * sim.Microsecond,
		TailEvery:           2 * sim.Second,
		FenceCost:           2500 * sim.Millisecond,
		SwitchCost:          7500 * sim.Millisecond,
		AppendTimeout:       10 * sim.Second,
		ReadTimeout:         5 * sim.Second,
	}
}

// Edit-store wire messages.
type storeAppend struct {
	Batch journal.Batch
}
type storeAck struct{}
type storeRead struct {
	FromSN uint64
}
type storeBatches struct {
	Batches []journal.Batch
}

// EditStore is one shared edit store: AvatarNode's filer or one journal
// node. Writes queue on its disk.
type EditStore struct {
	node    *simnet.Node
	cost    sim.Time
	disk    transport.Lane
	batches map[uint64]journal.Batch
	lastSN  uint64
}

// NewEditStore registers a store whose disk takes writeCost per batch.
func NewEditStore(net *simnet.Network, id transport.NodeID, writeCost sim.Time) *EditStore {
	e := &EditStore{cost: writeCost, batches: map[uint64]journal.Batch{}}
	e.node = net.AddNode(id, e)
	return e
}

// Node exposes the store process.
func (e *EditStore) Node() *simnet.Node { return e.node }

// HandleMessage implements transport.Handler.
func (e *EditStore) HandleMessage(from transport.NodeID, msg any) {}

// HandleRequest implements transport.RequestHandler. A read returns the
// contiguous run of batches from FromSN.
func (e *EditStore) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	switch m := req.(type) {
	case storeAppend:
		e.node.After(e.disk.Add(e.node.Now(), e.cost), "store-append", func() {
			e.batches[m.Batch.SN] = m.Batch
			if m.Batch.SN > e.lastSN {
				e.lastSN = m.Batch.SN
			}
			reply(storeAck{})
		})
	case storeRead:
		var out []journal.Batch
		for sn := m.FromSN; sn <= e.lastSN; sn++ {
			b, ok := e.batches[sn]
			if !ok {
				break
			}
			out = append(out, b)
		}
		reply(storeBatches{Batches: out})
	default:
		reply(nil)
	}
}

// SharedLogNode is one metadata server of the pair, with its failover
// controller.
type SharedLogNode struct {
	nsCore
	design   Design
	params   SharedLogParams
	stores   []transport.NodeID
	coordCli *coord.Client
	tailing  bool
}

// NewSharedLogNode registers one server of the pair. Exactly one starts
// active.
func NewSharedLogNode(net *simnet.Network, id transport.NodeID, design Design, stores []transport.NodeID,
	active bool, coordServers []transport.NodeID, params SharedLogParams, tr *trace.Log) *SharedLogNode {
	n := &SharedLogNode{design: design, params: params, stores: stores}
	r := roleStandby
	if active {
		r = roleActive
	}
	n.register(net, id, n, tr, r)
	// The coordination client's default failure detector is the paper's:
	// heartbeat 2 s, session 5 s.
	n.coordCli = coord.NewClient(n.node, coord.ClientConfig{Servers: coordServers}, n.onCoordEvent)
	return n
}

// Start boots the server's coordination session and role duties.
func (n *SharedLogNode) Start() {
	n.coordCli.Start(func(err error) {
		if err != nil {
			n.node.After(sim.Second, "sharedlog-coord-retry", n.Start)
			return
		}
		lock := n.design.lockPath()
		n.coordCli.Create(path.Dir(lock), nil, func(string, error) {
			if n.role == roleActive {
				n.coordCli.CreateEphemeral(lock, []byte(n.node.ID()), func(string, error) {
					n.armBatch()
				})
				return
			}
			n.coordCli.Exists(lock, true, func(bool, error) {})
			n.armTail()
		})
	})
}

func (n *SharedLogNode) onCoordEvent(ev coord.WatchEvent) {
	lock := n.design.lockPath()
	switch ev.Type {
	case coord.EventDeleted:
		if ev.Path == lock && n.role == roleStandby {
			n.takeover()
		}
	case coord.EventSessionExpired:
		if n.role == roleActive {
			// We cannot prove we still own the lock: stop serving.
			n.role = roleDead
			n.failAll()
		}
	case coord.EventCreated, coord.EventDataChanged:
		if ev.Path == lock && n.role == roleStandby {
			n.coordCli.Exists(lock, true, func(bool, error) {})
		}
	}
}

// armBatch writes each sealed batch to every store and commits it once a
// majority has it.
func (n *SharedLogNode) armBatch() {
	n.armSeal(n.params.JournalPerRecordCPU, func(b journal.Batch) {
		acks, committed := 0, false
		for _, s := range n.stores {
			n.node.Call(s, storeAppend{Batch: b}, n.params.AppendTimeout, func(_ any, err error) {
				if err != nil || committed {
					return
				}
				acks++
				if acks >= len(n.stores)/2+1 {
					committed = true
					n.commit(b.SN)
				}
			})
		}
	})
}

func (n *SharedLogNode) armTail() {
	if n.tailing {
		return
	}
	n.tailing = true
	var loop func()
	loop = func() {
		if n.role != roleStandby && n.role != roleRecovering {
			n.tailing = false
			return
		}
		n.tailOnce(0, func() {
			n.node.After(n.params.TailEvery, "sharedlog-tail", loop)
		})
	}
	n.node.After(n.params.TailEvery, "sharedlog-tail", loop)
}

// tailOnce applies the edits past the local journal from store i, moving
// to the next store when one does not answer.
func (n *SharedLogNode) tailOnce(i int, done func()) {
	if i >= len(n.stores) {
		done()
		return
	}
	n.node.Call(n.stores[i], storeRead{FromSN: n.log.LastSN() + 1}, n.params.ReadTimeout,
		func(resp any, err error) {
			if err != nil {
				n.tailOnce(i+1, done)
				return
			}
			if bs, ok := resp.(storeBatches); ok {
				for _, b := range bs.Batches {
					_ = n.applyNext(b) // a batch the tree rejects stays unapplied
				}
			}
			done()
		})
}

// takeover grabs the lock, fences the old active, ingests the edit tail,
// then pays the fixed switching cost before serving.
func (n *SharedLogNode) takeover() {
	lock := n.design.lockPath()
	n.coordCli.CreateEphemeral(lock, []byte(n.node.ID()), func(_ string, err error) {
		if err != nil {
			n.coordCli.Exists(lock, true, func(bool, error) {})
			return
		}
		n.role = roleRecovering
		n.emit(string(n.design) + "-takeover-start")
		// Charge, not After: without a fencing stage, catch-up starts in
		// this event, as AvatarNode's always has.
		transport.Charge(n.node, n.params.FenceCost, "sharedlog-fence", func() {
			n.tailOnce(0, func() {
				n.node.After(n.params.SwitchCost, "sharedlog-switch", func() {
					if n.role != roleRecovering {
						return
					}
					n.role = roleActive
					n.emit(string(n.design) + "-takeover-done")
					n.armBatch()
				})
			})
		})
	})
}

// HandleMessage implements transport.Handler.
func (n *SharedLogNode) HandleMessage(from transport.NodeID, msg any) {
	n.coordCli.MaybeHandle(from, msg)
}
