// Package blockmap implements the data-server substrate: block location
// reporting. Per the paper (§III.A), "block locations are periodically
// reported to both the active and standby nodes by data servers", which is
// what makes a MAMS standby (and AvatarNode's standby) hot: it already has
// up-to-date file locations and never needs a bulk re-collection.
//
// The HDFS BackupNode baseline lacks this: its backup "needs to recollect
// block locations before taking the place of the primary", which is why its
// MTTR in Table I grows with namespace size. FullReport models exactly that
// recollection, with a cost proportional to the number of (possibly
// virtual) blocks a data server carries.
package blockmap

import (
	"sort"

	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// IncrementalReport tells metadata servers about newly stored blocks.
type IncrementalReport struct {
	From   transport.NodeID
	Blocks []uint64
}

// FullReportRequest asks a data server to scan its disks and send a
// complete block report (the expensive recollection path).
type FullReportRequest struct{}

// FullReport is the response to FullReportRequest.
type FullReport struct {
	From transport.NodeID
	// Blocks are the real block ids held.
	Blocks []uint64
	// VirtualBlocks counts additional modeled blocks not materialized in
	// memory (scaling knob for the paper's multi-million-file namespaces).
	VirtualBlocks int64
}

// A data server's report costs and cadence, as calibrated for the
// experiments.
const (
	// perBlockScan is the disk/CPU time to enumerate one block during a
	// full report (HDFS-era directory scans).
	perBlockScan = 18 * sim.Microsecond
	// reportOverhead is the fixed cost per full report.
	reportOverhead = 40 * sim.Millisecond
	// incrementalEvery is the cadence of incremental reports.
	incrementalEvery = 3 * sim.Second
)

// DataServer is a simulated data node. It pushes incremental reports to
// every metadata server in Targets (actives and standbys) and answers full
// report requests with a size-proportional delay.
type DataServer struct {
	node    *simnet.Node
	targets []transport.NodeID
	blocks  map[uint64]bool
	pending []uint64 // blocks not yet incrementally reported
	virtual int64
}

// NewDataServer registers a data server on the network.
func NewDataServer(net *simnet.Network, id transport.NodeID, targets []transport.NodeID) *DataServer {
	ds := &DataServer{targets: targets, blocks: map[uint64]bool{}}
	ds.node = net.AddNode(id, ds)
	return ds
}

// Node exposes the underlying process for fault injection.
func (ds *DataServer) Node() *simnet.Node { return ds.node }

// SetVirtualBlocks sets the modeled (non-materialized) block count.
func (ds *DataServer) SetVirtualBlocks(n int64) { ds.virtual = n }

// BlockCount returns real + virtual blocks held.
func (ds *DataServer) BlockCount() int64 { return int64(len(ds.blocks)) + ds.virtual }

// Start begins the periodic incremental-report loop.
func (ds *DataServer) Start() {
	ds.armReport()
}

func (ds *DataServer) armReport() {
	ds.node.After(incrementalEvery, "dn-report", func() {
		ds.flushIncremental()
		ds.armReport()
	})
}

func (ds *DataServer) flushIncremental() {
	if len(ds.pending) == 0 {
		return
	}
	blocks := ds.pending
	ds.pending = nil
	for _, t := range ds.targets {
		ds.node.Send(t, IncrementalReport{From: ds.node.ID(), Blocks: blocks})
	}
}

// HandleMessage implements transport.Handler.
func (ds *DataServer) HandleMessage(from transport.NodeID, msg any) {
	switch m := msg.(type) {
	case StoreBlocks:
		for _, b := range m.Blocks {
			if !ds.blocks[b] {
				ds.blocks[b] = true
				ds.pending = append(ds.pending, b)
			}
		}
	}
}

// HandleRequest implements transport.RequestHandler: full report scans.
func (ds *DataServer) HandleRequest(from transport.NodeID, req any, reply func(any)) {
	switch req.(type) {
	case FullReportRequest:
		cost := reportOverhead + sim.Time(ds.BlockCount())*perBlockScan
		ds.node.After(cost, "dn-full-report", func() {
			blocks := make([]uint64, 0, len(ds.blocks))
			for b := range ds.blocks {
				blocks = append(blocks, b)
			}
			sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
			reply(FullReport{From: ds.node.ID(), Blocks: blocks, VirtualBlocks: ds.virtual})
		})
	default:
		reply(nil)
	}
}

// StoreBlocks instructs a data server to persist blocks (sent by the active
// MDS on file creation; the write path itself is out of scope — metadata
// operations are what the paper measures).
type StoreBlocks struct {
	Blocks []uint64
}

// Manager is the per-MDS view of block locations, fed by incremental and
// full reports.
type Manager struct {
	locations map[uint64][]transport.NodeID
	// virtualReported counts blocks acknowledged via full-report
	// VirtualBlocks fields.
	virtualReported int64
	fullReports     int
}

// NewManager returns an empty location map.
func NewManager() *Manager {
	return &Manager{locations: map[uint64][]transport.NodeID{}}
}

// ApplyIncremental merges an incremental report.
func (m *Manager) ApplyIncremental(rep IncrementalReport) {
	for _, b := range rep.Blocks {
		m.add(b, rep.From)
	}
}

// ApplyFull merges a full report.
func (m *Manager) ApplyFull(rep FullReport) {
	for _, b := range rep.Blocks {
		m.add(b, rep.From)
	}
	m.virtualReported += rep.VirtualBlocks
	m.fullReports++
}

func (m *Manager) add(b uint64, from transport.NodeID) {
	for _, n := range m.locations[b] {
		if n == from {
			return
		}
	}
	m.locations[b] = append(m.locations[b], from)
}

// Locations returns the data servers known to hold block b.
func (m *Manager) Locations(b uint64) []transport.NodeID { return m.locations[b] }

// Known returns the number of distinct real blocks with locations.
func (m *Manager) Known() int { return len(m.locations) }

// FullReports returns how many full reports have been merged.
func (m *Manager) FullReports() int { return m.fullReports }
