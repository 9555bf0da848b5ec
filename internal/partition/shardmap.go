package partition

import (
	"encoding/json"
	"fmt"
)

// DefaultSlotsPerGroup sets the migration granularity: each group initially
// owns this many slots, so one move rebalances 1/(groups*8) of the file
// namespace. Eight is enough to isolate a hotspot (move every cold slot off
// a hot group) while keeping the map dense and cheap at 512 groups (4096
// slots = one 16 KiB array).
const DefaultSlotsPerGroup = 8

// Map is an epoch-versioned assignment of hash slots to replica groups.
// Maps are immutable once built: Move returns a fresh Map with the epoch
// bumped, so a pointer can be shared freely between simulated nodes —
// exactly what OpReply does when a server hands its map snapshot to a stale
// client.
//
// The initial assignment is slot i → group i%groups with groups*slotsPerGroup
// slots. Because the slot count is a multiple of the group count, the
// composite route hash(path) % slots % groups equals hash(path) % groups:
// a freshly built map reproduces the paper's static hash partitioning
// bit-for-bit, and only live migration makes them diverge.
type Map struct {
	epoch  uint64
	groups int
	assign []int32 // slot → owning group
}

// NewMap builds the epoch-0 uniform map.
func NewMap(groups, slotsPerGroup int) *Map {
	if groups < 1 {
		panic("partition: need at least one group")
	}
	if slotsPerGroup < 1 {
		slotsPerGroup = DefaultSlotsPerGroup
	}
	assign := make([]int32, groups*slotsPerGroup)
	for i := range assign {
		assign[i] = int32(i % groups)
	}
	return &Map{epoch: 0, groups: groups, assign: assign}
}

// Epoch returns the map version; higher epochs supersede lower ones.
func (m *Map) Epoch() uint64 { return m.epoch }

// Slots returns the slot count (fixed for a deployment's lifetime).
func (m *Map) Slots() int { return len(m.assign) }

// Groups returns the group count.
func (m *Map) Groups() int { return m.groups }

// Group returns the group owning slot.
func (m *Map) Group(slot int) int { return int(m.assign[slot]) }

// SlotsOf lists the slots currently assigned to group g, ascending.
func (m *Map) SlotsOf(g int) []int {
	var out []int
	for s, grp := range m.assign {
		if int(grp) == g {
			out = append(out, s)
		}
	}
	return out
}

// Counts returns the number of slots owned by each group.
func (m *Map) Counts() []int {
	out := make([]int, m.groups)
	for _, g := range m.assign {
		out[g]++
	}
	return out
}

// Move reassigns slot to group to, returning a new map at epoch+1.
// Moving a slot to its current owner still bumps the epoch (callers use
// Move as the commit point of a migration and need the fence regardless).
func (m *Map) Move(slot, to int) (*Map, error) {
	if slot < 0 || slot >= len(m.assign) {
		return nil, fmt.Errorf("partition: slot %d out of range [0,%d)", slot, len(m.assign))
	}
	if to < 0 || to >= m.groups {
		return nil, fmt.Errorf("partition: group %d out of range [0,%d)", to, m.groups)
	}
	n := m.clone()
	n.assign[slot] = int32(to)
	return n, nil
}

// clone copies the map with the epoch bumped.
func (m *Map) clone() *Map {
	assign := make([]int32, len(m.assign))
	copy(assign, m.assign)
	return &Map{epoch: m.epoch + 1, groups: m.groups, assign: assign}
}

// mapWire is the JSON shape stored in the coordination-service znode.
type mapWire struct {
	Epoch  uint64  `json:"epoch"`
	Groups int     `json:"groups"`
	Assign []int32 `json:"assign"`
}

// Encode serializes the map for a znode payload.
func (m *Map) Encode() []byte {
	b, err := json.Marshal(mapWire{Epoch: m.epoch, Groups: m.groups, Assign: m.assign})
	if err != nil {
		panic("partition: encode map: " + err.Error())
	}
	return b
}

// DecodeMap parses an Encode payload.
func DecodeMap(data []byte) (*Map, error) {
	var w mapWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Groups < 1 || len(w.Assign) < w.Groups {
		return nil, fmt.Errorf("partition: malformed map (groups=%d slots=%d)", w.Groups, len(w.Assign))
	}
	for _, g := range w.Assign {
		if g < 0 || int(g) >= w.Groups {
			return nil, fmt.Errorf("partition: slot assigned to out-of-range group %d", g)
		}
	}
	return &Map{epoch: w.Epoch, groups: w.Groups, assign: w.Assign}, nil
}
