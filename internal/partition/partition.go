// Package partition implements the hash-based namespace partitioning that
// the Clover File System (the paper's prototype, [28]) uses to spread the
// global namespace over multiple metadata-server replica groups.
//
// The scheme reproduced here:
//
//   - The directory skeleton is replicated in every group, so path
//     resolution is always local.
//   - A file's entry lives in exactly one home group, chosen by hashing the
//     full path.
//   - create and getfileinfo therefore touch a single group and scale with
//     the number of groups, while mkdir, delete and rename are distributed
//     transactions across groups — exactly the split the paper reports in
//     Figure 5.
//
// Placement is indirected through an epoch-versioned shard Map (shardmap.go):
// paths hash to one of a fixed set of slots and slots are assigned to
// groups. The default assignment reproduces plain hash(path)%groups, but
// slots can be moved between groups at runtime (live migration), with the
// epoch acting as the cache-invalidation fence between clients and servers.
package partition

// Strategy selects how file entries map to groups.
type Strategy uint8

// Partitioning strategies. The paper's CFS hashes full paths; the paper's
// conclusion names "exploring other namespace management methods" as future
// work, which BySubtree implements: whole top-level subtrees stick to one
// group (better locality, worse balance under hot directories — the A5
// ablation quantifies the trade).
const (
	ByPath Strategy = iota
	BySubtree
)

// Partitioner maps paths to replica groups through an installable shard
// map. A Partitioner is a per-process cache: each server and each client
// holds its own (via Clone) and swaps in newer maps as it learns of them.
// It is not safe for concurrent use, matching the single-threaded
// event-loop discipline of the simulation.
type Partitioner struct {
	strategy Strategy
	m        *Map
}

// New returns a full-path-hash partitioner over n groups (n >= 1).
func New(n int) *Partitioner {
	return NewWithStrategy(n, ByPath)
}

// NewWithStrategy returns a partitioner with an explicit strategy.
func NewWithStrategy(n int, s Strategy) *Partitioner {
	return NewSharded(n, DefaultSlotsPerGroup, s)
}

// NewSharded returns a partitioner whose initial map has n*slotsPerGroup
// slots assigned round-robin, which routes identically to hash(path)%n.
func NewSharded(n, slotsPerGroup int, s Strategy) *Partitioner {
	if n < 1 {
		panic("partition: need at least one group")
	}
	return &Partitioner{strategy: s, m: NewMap(n, slotsPerGroup)}
}

// topLevel returns the first path component ("/a/b/c" → "/a").
func topLevel(path string) string {
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// Map returns the currently installed shard map (immutable; safe to share).
func (p *Partitioner) Map() *Map { return p.m }

// Epoch returns the installed map's epoch.
func (p *Partitioner) Epoch() uint64 { return p.m.epoch }

// Install adopts m if it is strictly newer than the installed map and
// shape-compatible (same slot and group counts). Returns true if adopted.
func (p *Partitioner) Install(m *Map) bool {
	if m == nil || m.epoch <= p.m.epoch {
		return false
	}
	if m.groups != p.m.groups || len(m.assign) != len(p.m.assign) {
		return false
	}
	p.m = m
	return true
}

// Clone returns an independent Partitioner sharing the (immutable) map.
// Each server and client owns a clone so map installs never bleed between
// processes — the whole point of the stale-epoch invalidation protocol.
func (p *Partitioner) Clone() *Partitioner {
	cp := *p
	return &cp
}

// hashStr is FNV-1a inlined over the string: this is the client and server
// hot path (every routing decision), so it must not allocate. The stdlib
// fnv.New64a()+Write route costs two heap allocations per call.
func hashStr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HomeSlot returns the shard slot owning the file entry for path.
func (p *Partitioner) HomeSlot(path string) int {
	if p.strategy == BySubtree {
		return int(hashStr(topLevel(path)) % uint64(len(p.m.assign)))
	}
	return int(hashStr(path) % uint64(len(p.m.assign)))
}

// HomeGroup returns the group owning the file entry for path.
func (p *Partitioner) HomeGroup(path string) int {
	return int(p.m.assign[p.HomeSlot(path)])
}

// DirMasterGroup returns the group that coordinates directory-entry
// updates for the directory containing path.
func (p *Partitioner) DirMasterGroup(path string) int {
	slot := int(hashStr(parentDir(path)) % uint64(len(p.m.assign)))
	return int(p.m.assign[slot])
}

// parentDir returns the directory component of path.
func parentDir(path string) string {
	for i := len(path) - 1; i > 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}

// The plans below list the groups an operation touches, lead first; one
// group means the operation runs locally there. create and getfileinfo
// need no plan: they run at HomeGroup.

// MkdirPlan: directory creation updates the replicated skeleton in every
// group; the dir-master group coordinates.
func (p *Partitioner) MkdirPlan(path string) []int {
	return p.allGroupsLeadBy(p.DirMasterGroup(path))
}

// DeletePlan: file deletion touches the home group and the dir-master
// group (parent-directory bookkeeping) — a two-phase commit when they
// differ.
func (p *Partitioner) DeletePlan(path string) []int {
	home, master := p.HomeGroup(path), p.DirMasterGroup(path)
	if home == master {
		return []int{home}
	}
	return []int{home, master}
}

// RenamePlan: rename moves a file between home groups and updates both
// parent directories; when any differ it is a distributed transaction led
// by the source home group.
func (p *Partitioner) RenamePlan(src, dst string) []int {
	return dedup([]int{
		p.HomeGroup(src), p.HomeGroup(dst),
		p.DirMasterGroup(src), p.DirMasterGroup(dst),
	})
}

// allGroupsLeadBy lists every group with lead first.
func (p *Partitioner) allGroupsLeadBy(lead int) []int {
	out := make([]int, 0, p.m.groups)
	out = append(out, lead)
	for g := 0; g < p.m.groups; g++ {
		if g != lead {
			out = append(out, g)
		}
	}
	return out
}

func dedup(in []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
