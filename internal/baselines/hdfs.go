package baselines

import (
	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// HDFSParams models the vanilla NameNode's local durability path.
type HDFSParams struct {
	MDS mams.Params
	// FsyncCost is the local edit-log group-commit latency per batch.
	FsyncCost sim.Time
}

// DefaultHDFSParams returns the calibration used by the experiments.
func DefaultHDFSParams() HDFSParams {
	return HDFSParams{MDS: mams.DefaultParams(), FsyncCost: 800 * sim.Microsecond}
}

// HDFS is the unreplicated single-NameNode reference system: fastest
// metadata path, no reliability mechanism whatsoever (Figures 5 and 6's
// baseline bar).
type HDFS struct {
	nsCore
	params HDFSParams
	disk   transport.Lane
}

// NewHDFS registers the NameNode on the network.
func NewHDFS(net *simnet.Network, id simnet.NodeID, params HDFSParams) *HDFS {
	h := &HDFS{params: params}
	h.register(net, id, h, params.MDS, nil, roleActive)
	return h
}

// Start begins the batch loop. Group commit: one fsync covers the whole
// batch.
func (h *HDFS) Start() {
	h.armSeal(0, func(b journal.Batch) {
		h.node.After(h.disk.Add(h.node.Now(), h.params.FsyncCost), "hdfs-fsync", func() {
			h.commit(b.SN)
		})
	})
}
