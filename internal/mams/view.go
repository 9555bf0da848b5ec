// Package mams implements the paper's primary contribution: the MAMS
// (multiple actives multiple standbys) reliability policy for metadata
// service.
//
// Metadata servers are divided into replica groups, each with exactly one
// active and one or more backup nodes in standby (hot, journal-synchronized)
// or junior (cold, catching up) state. A global view kept in the
// coordination service, a per-group distributed lock, and watch events
// drive two distributed protocols:
//
//   - the failover protocol (§III.C, Fig. 4): election of a new active from
//     the standbys (Algorithm 1) followed by a six-step upgrade procedure
//     with duplicate-journal suppression by serial number, and
//   - the renewing protocol (§III.D): background recovery of juniors via
//     the shared storage pool (image + journal tail) until they re-enter
//     hot standby.
package mams

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Role is a metadata server's state in its replica group (§III.A).
type Role uint8

// Replica-group roles.
const (
	// RoleDown marks a member currently believed failed.
	RoleDown Role = iota
	// RoleActive serves client requests for the group's namespace
	// partition. Exactly one member is active at any time.
	RoleActive
	// RoleStandby keeps an up-to-date namespace via journal
	// synchronization and can take over immediately (hot standby).
	RoleStandby
	// RoleJunior is a backup that is not synchronized with the active
	// (freshly restarted or newly added); it cannot provide hot standby
	// until renewed.
	RoleJunior
)

func (r Role) String() string {
	switch r {
	case RoleActive:
		return "active"
	case RoleStandby:
		return "standby"
	case RoleJunior:
		return "junior"
	case RoleDown:
		return "down"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Short returns the single-letter form used by the paper's Table II.
func (r Role) Short() string {
	switch r {
	case RoleActive:
		return "A"
	case RoleStandby:
		return "S"
	case RoleJunior:
		return "J"
	default:
		return "-"
	}
}

// View is the replica group's global view, stored as a znode in the
// coordination service and updated with compare-and-set.
type View struct {
	// Epoch increments on every active change; journal batches carry it
	// for IO fencing.
	Epoch uint64 `json:"epoch"`
	// Active is the node id of the current active ("" during transition).
	Active string `json:"active"`
	// States maps member node ids to roles.
	States map[string]Role `json:"states"`
}

// NewView returns an empty view.
func NewView() View {
	return View{States: map[string]Role{}}
}

// Clone deep-copies the view.
func (v View) Clone() View {
	out := View{Epoch: v.Epoch, Active: v.Active, States: make(map[string]Role, len(v.States))}
	for k, r := range v.States {
		out.States[k] = r
	}
	return out
}

// Encode serializes the view for storage in a znode.
func (v View) Encode() []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("mams: view encode: " + err.Error())
	}
	return b
}

// DecodeView parses a stored view.
func DecodeView(data []byte) (View, error) {
	if len(data) == 0 {
		return NewView(), nil
	}
	var v View
	if err := json.Unmarshal(data, &v); err != nil {
		return View{}, fmt.Errorf("mams: view decode: %w", err)
	}
	if v.States == nil {
		v.States = map[string]Role{}
	}
	return v, nil
}

// Standbys returns the ids of members in standby state, sorted.
func (v View) Standbys() []string { return v.inRole(RoleStandby) }

// Juniors returns the ids of members in junior state, sorted.
func (v View) Juniors() []string { return v.inRole(RoleJunior) }

func (v View) inRole(role Role) []string {
	var out []string
	for id, r := range v.States {
		if r == role {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Members returns all known member ids, sorted.
func (v View) Members() []string {
	out := make([]string, 0, len(v.States))
	for id := range v.States {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RoleOf returns the member's role (RoleDown if unknown).
func (v View) RoleOf(id string) Role { return v.States[id] }
