package cluster

import (
	"fmt"
	"strings"

	"mams/internal/mams"
)

// GroupReport is the result of a group-level consistency audit.
type GroupReport struct {
	Group int
	// Consistent is true when exactly one active serves, every standby's
	// namespace digest and journal position match the active's, and the
	// global view agrees with observed roles.
	Consistent bool
	Problems   []string
	// ActiveID is the serving member ("" if none).
	ActiveID string
	// Standbys / Juniors / Down count the member states observed.
	Standbys, Juniors, Down int
}

func (r GroupReport) String() string {
	status := "CONSISTENT"
	if !r.Consistent {
		status = "INCONSISTENT"
	}
	s := fmt.Sprintf("group %d: %s active=%s standbys=%d juniors=%d down=%d",
		r.Group, status, r.ActiveID, r.Standbys, r.Juniors, r.Down)
	if len(r.Problems) > 0 {
		s += "\n  - " + strings.Join(r.Problems, "\n  - ")
	}
	return s
}

// VerifyGroup audits replica group g: role uniqueness, hot-standby state
// equivalence (digest + sn), and view agreement. It is the fsck of the
// metadata service and runs instantaneously (no virtual time consumed).
func (c *MAMSCluster) VerifyGroup(g int) GroupReport {
	rep := GroupReport{Group: g}
	var active *mams.Server
	for _, s := range c.Groups[g] {
		if !s.Node().Up() {
			rep.Down++
			continue
		}
		switch s.Role() {
		case mams.RoleActive:
			if c.unplugged(s) {
				// A stale claimant that cannot serve anyone.
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("%s claims active while unplugged", s.Node().ID()))
				continue
			}
			if active != nil {
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"two reachable actives: %s and %s", active.Node().ID(), s.Node().ID()))
				continue
			}
			active = s
		case mams.RoleStandby:
			rep.Standbys++
		case mams.RoleJunior:
			rep.Juniors++
		}
	}
	if active == nil {
		rep.Problems = append(rep.Problems, "no reachable active")
		rep.Consistent = false
		return rep
	}
	rep.ActiveID = string(active.Node().ID())

	// Hot standbys must mirror the active exactly.
	wantDigest := active.Tree().Digest()
	wantSN := active.LastSN()
	for _, s := range c.Groups[g] {
		if s == active || !s.Node().Up() || c.unplugged(s) || s.Role() != mams.RoleStandby {
			continue
		}
		if s.LastSN() > wantSN {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"standby %s ahead of active: sn %d > %d", s.Node().ID(), s.LastSN(), wantSN))
			continue
		}
		if s.LastSN() == wantSN && s.Tree().Digest() != wantDigest {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"standby %s diverged at sn %d (digest mismatch)", s.Node().ID(), s.LastSN()))
		}
	}

	// The global view must list the serving active.
	view := active.View()
	if view.Active != rep.ActiveID {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"view names active %q but %s serves", view.Active, rep.ActiveID))
	}
	for id, role := range view.States {
		if role == mams.RoleActive && id != rep.ActiveID {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"view marks %s active alongside %s", id, rep.ActiveID))
		}
	}

	rep.Consistent = len(rep.Problems) == 0
	return rep
}

// Verify audits every group and returns one report per group.
func (c *MAMSCluster) Verify() []GroupReport {
	out := make([]GroupReport, 0, len(c.Groups))
	for g := range c.Groups {
		out = append(out, c.VerifyGroup(g))
	}
	return out
}
