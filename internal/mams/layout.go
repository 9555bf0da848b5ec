package mams

import (
	"fmt"

	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/transport"
)

// Layout is one deployment (§III.A), shared by every process in it: the
// coordination ensemble, the replica groups by group index — member 0 boots
// active, the rest standby, and every member doubles as its group's shared
// storage pool node — the failure-detector timing, the seed shard map and
// the protocol parameters. A server works out its own place from its ID.
type Layout struct {
	Coord  []transport.NodeID
	Groups [][]transport.NodeID

	CoordHeartbeat      sim.Time
	CoordSessionTimeout sim.Time

	Partitioner *partition.Partitioner
	Params      Params
	SSPParams   ssp.Params
}

// NewLayout is the deployment real hardware runs: the shipped protocol
// timing with a zero CostModel and zero ssp.Params — work costs what it
// costs, and there is no pretend disk — adaptive group commit with
// sync acks, the paper's 2 s / 5 s failure detector, and the uniform shard
// map. The simulator fills its calibrated, timer-only layout from
// cluster.MAMSSpec instead.
func NewLayout(coord []transport.NodeID, groups [][]transport.NodeID) Layout {
	params := DefaultParams()
	params.CostModel = CostModel{}
	params.GroupCommit = true
	return Layout{
		Coord:               coord,
		Groups:              groups,
		CoordHeartbeat:      2 * sim.Second,
		CoordSessionTimeout: 5 * sim.Second,
		Partitioner:         partition.NewSharded(len(groups), partition.DefaultSlotsPerGroup, 0),
		Params:              params,
	}
}

// MemberID names member m of group g, on both planes.
func MemberID(g, m int) transport.NodeID {
	return transport.NodeID(fmt.Sprintf("g%d-mds%d", g, m))
}

// Locate returns the group and member index of id, or -1, -1 when no group
// lists it.
func (l Layout) Locate(id transport.NodeID) (group, member int) {
	for g, members := range l.Groups {
		for m, mid := range members {
			if mid == id {
				return g, m
			}
		}
	}
	return -1, -1
}
