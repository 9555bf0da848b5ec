package baselines

import (
	"mams/internal/journal"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// fsyncCost is a NameNode's local edit-log group-commit latency per batch
// (vanilla HDFS and the BackupNode primary).
const fsyncCost = 800 * sim.Microsecond

// HDFS is the unreplicated single-NameNode reference system: fastest
// metadata path, no reliability mechanism whatsoever (Figures 5 and 6's
// baseline bar).
type HDFS struct {
	nsCore
	disk transport.Lane
}

// NewHDFS registers the NameNode on the network.
func NewHDFS(net *simnet.Network, id simnet.NodeID) *HDFS {
	h := &HDFS{}
	h.register(net, id, h, nil, roleActive)
	return h
}

// Start begins the batch loop. Group commit: one fsync covers the whole
// batch.
func (h *HDFS) Start() {
	h.armSeal(0, func(b journal.Batch) {
		h.node.After(h.disk.Add(h.node.Now(), fsyncCost), "hdfs-fsync", func() {
			h.commit(b.SN)
		})
	})
}
