package cluster

import (
	"fmt"

	"mams/internal/baselines"
	"mams/internal/blockmap"
	"mams/internal/coord"
	"mams/internal/fsclient"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// BaselineSpec sizes a baseline deployment.
type BaselineSpec struct {
	// DataServers to deploy (BackupNode needs them for recollection).
	DataServers int
	// VirtualImageBytes models a pre-existing namespace of this size: the
	// data servers carry the matching block population (~1 block per
	// 150-byte image entry, the paper's "7 million files at about 1 GB").
	VirtualImageBytes int64
}

// virtualBlocksPerDN splits the modeled block population across the DNs.
func (s BaselineSpec) virtualBlocksPerDN() int64 {
	if s.DataServers == 0 || s.VirtualImageBytes == 0 {
		return 0
	}
	return s.VirtualImageBytes / 150 / int64(s.DataServers)
}

// buildDataServers deploys the data servers, reporting blocks to targets.
func buildDataServers(env *Env, name string, spec BaselineSpec, targets []transport.NodeID) {
	for d := 0; d < spec.DataServers; d++ {
		ds := blockmap.NewDataServer(env.Net, NodeID("dn", name, d), targets)
		ds.SetVirtualBlocks(spec.virtualBlocksPerDN())
		ds.Start()
	}
}

// BaselineServer is a baseline metadata server as the harness drives it.
type BaselineServer interface {
	Start()
	Node() *simnet.Node
	IsActive() bool
	Crash()
	LastSN() uint64
	Files() int
}

// BaselineSystem is one deployed baseline design. The designs differ in
// their servers and in two harness behaviours, which are kept as data.
type BaselineSystem struct {
	// Servers are the metadata servers in boot order; Servers[0] boots
	// active.
	Servers []BaselineServer
	// Stores are the shared edit stores of AvatarNode and Hadoop HA.
	Stores []*baselines.EditStore

	env       *Env
	name      string
	part      *partition.Partitioner
	ids       [][]transport.NodeID
	clientSeq int
	// settle is how long AwaitReady runs a design that serves from boot
	// (HDFS, BackupNode); the others poll for an active.
	settle sim.Time
	// crashNodeOnly makes CrashPrimary kill the process without failing
	// its waiting clients over (HDFS: there is nowhere to send them).
	crashNodeOnly bool
}

// newBaselineSystem starts the servers, in order.
func newBaselineSystem(env *Env, name string, servers ...BaselineServer) *BaselineSystem {
	s := &BaselineSystem{Servers: servers, env: env, name: name, part: partition.New(1)}
	ids := make([]transport.NodeID, len(servers))
	for i, v := range servers {
		v.Start()
		ids[i] = v.Node().ID()
	}
	s.ids = [][]transport.NodeID{ids}
	return s
}

// BuildHDFS deploys a vanilla NameNode.
func BuildHDFS(env *Env, spec BaselineSpec) *BaselineSystem {
	nn := baselines.NewHDFS(env.Net, NodeID("hdfs", "nn"))
	s := newBaselineSystem(env, "HDFS", nn)
	s.settle, s.crashNodeOnly = 100*sim.Millisecond, true
	buildDataServers(env, "hdfs", spec, s.ids[0])
	return s
}

// BuildBackupNode deploys the primary/backup pair plus data servers.
func BuildBackupNode(env *Env, spec BaselineSpec) *BaselineSystem {
	pID, bID := NodeID("bn", "primary"), NodeID("bn", "backup")
	var dnIDs []transport.NodeID
	for d := 0; d < spec.DataServers; d++ {
		dnIDs = append(dnIDs, NodeID("dn", "bn", d))
	}
	s := newBaselineSystem(env, "BackupNode",
		baselines.NewBackupNode(env.Net, pID, bID, true, dnIDs, env.Trace),
		baselines.NewBackupNode(env.Net, bID, pID, false, dnIDs, env.Trace))
	s.settle = 100 * sim.Millisecond
	// Data servers report only to the primary: the backup must re-collect
	// on takeover (the design's defining weakness).
	buildDataServers(env, "bn", spec, []transport.NodeID{pID})
	return s
}

// BuildAvatar deploys Facebook's AvatarNode: the shared-edit-log pair over
// one NFS filer.
func BuildAvatar(env *Env, spec BaselineSpec) *BaselineSystem {
	return buildSharedLog(env, spec, "Hadoop Avatar", baselines.AvatarNode,
		baselines.DefaultAvatarParams(), []transport.NodeID{NodeID("avatar", "filer")})
}

// journalNodes is Hadoop HA's journal-node count: "the number of
// JournalNodes was set to 4".
const journalNodes = 4

// BuildHadoopHA deploys Hadoop HA: the shared-edit-log pair over the
// journal nodes with ZKFC failover.
func BuildHadoopHA(env *Env, spec BaselineSpec) *BaselineSystem {
	var ids []transport.NodeID
	for i := 0; i < journalNodes; i++ {
		ids = append(ids, NodeID("ha", "jn", i))
	}
	return buildSharedLog(env, spec, "Hadoop HA", baselines.HadoopHA, baselines.DefaultHadoopHAParams(), ids)
}

// buildSharedLog deploys a coordination ensemble for failure detection,
// the edit stores, and the two servers of the pair.
func buildSharedLog(env *Env, spec BaselineSpec, name string, d baselines.Design,
	params baselines.SharedLogParams, storeIDs []transport.NodeID) *BaselineSystem {
	ensemble := coord.StartEnsemble(env.Net, coordServers, env.Trace)
	var stores []*baselines.EditStore
	for _, id := range storeIDs {
		stores = append(stores, baselines.NewEditStore(env.Net, id, params.StoreWriteCost))
	}
	pair := make([]BaselineServer, 2)
	for i := range pair {
		pair[i] = baselines.NewSharedLogNode(env.Net, NodeID(d, fmt.Sprint("nn", i)), d,
			storeIDs, i == 0, ensemble.IDs, params, env.Trace)
	}
	s := newBaselineSystem(env, name, pair...)
	s.Stores = stores
	// The datanodes "talk to both the active and standby metadata
	// servers", so the standby is hot with respect to block locations.
	buildDataServers(env, string(d), spec, s.ids[0])
	return s
}

// boomReplicas is the number of Boom-FS replicas.
const boomReplicas = 3

// BuildBoomFS deploys boomReplicas Paxos-replicated replicas.
func BuildBoomFS(env *Env, spec BaselineSpec) *BaselineSystem {
	var ids []transport.NodeID
	for i := 0; i < boomReplicas; i++ {
		ids = append(ids, NodeID("boom", fmt.Sprint(i)))
	}
	replicas := make([]BaselineServer, boomReplicas)
	for i, id := range ids {
		replicas[i] = baselines.NewBoomFS(env.Net, id, ids, env.Trace)
	}
	s := newBaselineSystem(env, "Boom-FS", replicas...)
	buildDataServers(env, "boom", spec, ids)
	return s
}

func (s *BaselineSystem) Name() string                        { return s.name }
func (s *BaselineSystem) GroupIDs() [][]transport.NodeID      { return s.ids }
func (s *BaselineSystem) Partitioner() *partition.Partitioner { return s.part }

func (s *BaselineSystem) AwaitReady(d sim.Time) bool {
	if s.settle > 0 {
		s.env.RunFor(s.settle)
		return true
	}
	end := s.env.Now() + d
	for s.env.Now() < end {
		if s.PrimaryUp() {
			return true
		}
		s.env.RunFor(200 * sim.Millisecond)
	}
	return s.PrimaryUp()
}

// Active returns the running server that serves clients, or nil.
func (s *BaselineSystem) Active() BaselineServer {
	for _, v := range s.Servers {
		if v.Node().Up() && v.IsActive() {
			return v
		}
	}
	return nil
}

func (s *BaselineSystem) CrashPrimary() {
	switch a := s.Active(); {
	case a == nil:
	case s.crashNodeOnly:
		a.Node().Crash()
	default:
		a.Crash()
	}
}

func (s *BaselineSystem) PrimaryUp() bool { return s.Active() != nil }

func (s *BaselineSystem) NewClient(onResult func(fsclient.Result)) *fsclient.Client {
	return newSystemClient(s.env, &s.clientSeq, s, onResult)
}

// ---- MAMS adapter ----

// MAMSSystem adapts MAMSCluster to the System interface.
type MAMSSystem struct {
	*MAMSCluster
	label string
}

// AsSystem wraps a MAMS cluster for the uniform experiment driver. The
// label follows the paper's naming (e.g. "MAMS-1A3S").
func (c *MAMSCluster) AsSystem() *MAMSSystem {
	label := fmt.Sprintf("MAMS-%dA%dS", c.Spec.Groups, c.Spec.Groups*c.Spec.BackupsPerGroup)
	return &MAMSSystem{MAMSCluster: c, label: label}
}

func (s *MAMSSystem) Name() string                        { return s.label }
func (s *MAMSSystem) GroupIDs() [][]transport.NodeID      { return s.MAMSCluster.GroupIDs }
func (s *MAMSSystem) Partitioner() *partition.Partitioner { return s.Part }
func (s *MAMSSystem) AwaitReady(d sim.Time) bool          { return s.AwaitStable(d) }
func (s *MAMSSystem) CrashPrimary() {
	if a := s.ActiveOf(0); a != nil {
		a.Shutdown()
	}
}
func (s *MAMSSystem) PrimaryUp() bool { return s.ActiveOf(0) != nil }
