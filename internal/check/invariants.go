// Package check provides always-on protocol invariant checking and bounded
// systematic fault-schedule exploration for the MAMS reproduction.
//
// The Monitor hooks the trace/cluster layer and asserts the paper's core
// safety properties at every step or sample point:
//
//   - one-active: at most one *reachable* server per group believes it is
//     the active (IO fencing / self-fencing, §III.B-C);
//   - sn-monotone: each server's journal appends carry strictly increasing
//     serial numbers, with duplicate re-flushes suppressed rather than
//     re-applied (Fig. 4 step 4);
//   - healed: once faults stop, the group returns to one active with every
//     member a hot standby within a budget;
//   - converged: after quiescence all replicas hold byte-identical
//     namespace digests;
//   - durable: every acknowledged mutation exists on the surviving group.
//
// The systematic explorer (explore.go) enumerates fault schedules over a
// small scope instead of drawing them randomly, replays any failure
// deterministically from a compact artifact (schedule.go), and shrinks it
// greedily to a minimal reproducer (shrink.go).
package check

import (
	"fmt"
	"strconv"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/trace"
)

// Violation is one observed invariant breach.
type Violation struct {
	At        sim.Time
	Invariant string // "one-active", "sn-monotone", "healed", "converged", "durable", "placement", "live", "boot"
	Node      string // offending node, "" if group-wide
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%12.4fs %-11s %-10s %s", v.At.Seconds(), v.Invariant, v.Node, v.Detail)
}

// maxViolations bounds the per-run report; a genuinely broken protocol can
// violate an invariant at every sample point.
const maxViolations = 64

// Monitor asserts the invariant set against a running MAMS cluster. Create
// it with Attach before driving load; event-driven invariants (sn
// monotonicity) are checked as trace events are emitted, state invariants
// (single active) at every Sample call, and end-state invariants (healed,
// converged, durable) via the Check* methods.
type Monitor struct {
	env *cluster.Env
	c   *cluster.MAMSCluster

	lastSN map[string]uint64 // per-node journal position floor
	hasSN  map[string]bool

	violations []Violation
	truncated  int
}

// Attach subscribes a new Monitor to the environment's trace log.
// The cluster's servers must run with Params.TraceAppends enabled for the
// sn-monotone invariant to see journal traffic; the other invariants work
// regardless.
func Attach(env *cluster.Env, c *cluster.MAMSCluster) *Monitor {
	m := &Monitor{
		env:    env,
		c:      c,
		lastSN: map[string]uint64{},
		hasSN:  map[string]bool{},
	}
	env.Trace.Subscribe(m.onEvent)
	return m
}

// record stores a violation and mirrors it into the trace log so a replayed
// schedule shows the breach in context.
func (m *Monitor) record(inv, node, detail string) {
	if len(m.violations) >= maxViolations {
		m.truncated++
		return
	}
	m.violations = append(m.violations, Violation{
		At: m.env.Now(), Invariant: inv, Node: node, Detail: detail,
	})
	m.env.Trace.Emit(trace.KindCheck, node, "violation", "invariant", inv, "detail", detail)
}

// onEvent maintains the per-node journal floor and flags non-monotone
// appends. The floor legitimately resets when a node restarts empty, hard
// resets to junior, or rewinds onto a checkpoint image.
func (m *Monitor) onEvent(e trace.Event) {
	switch {
	case e.Kind == trace.KindJournal && e.What == "append":
		sn, err := strconv.ParseUint(e.Args["sn"], 10, 64)
		if err != nil {
			return
		}
		if m.hasSN[e.Node] && sn <= m.lastSN[e.Node] {
			m.record("sn-monotone", e.Node,
				fmt.Sprintf("append sn=%d after sn=%d (duplicate re-applied?)", sn, m.lastSN[e.Node]))
		}
		m.lastSN[e.Node] = sn
		m.hasSN[e.Node] = true
	case e.Kind == trace.KindFault && e.What == "restart":
		delete(m.lastSN, e.Node)
		delete(m.hasSN, e.Node)
	case e.Kind == trace.KindState && e.What == "hard-reset-junior":
		delete(m.lastSN, e.Node)
		delete(m.hasSN, e.Node)
	case e.Kind == trace.KindRenew && e.What == "image-loaded":
		if sn, err := strconv.ParseUint(e.Args["sn"], 10, 64); err == nil {
			m.lastSN[e.Node] = sn
			m.hasSN[e.Node] = true
		}
	}
}

// Sample checks the state invariants at the current instant: at most one
// reachable active per group. Call it periodically while the world runs.
func (m *Monitor) Sample() {
	for g, members := range m.c.Groups {
		actives := 0
		names := ""
		for _, s := range members {
			if s.Node().Up() && !m.env.Net.Node(s.Node().ID()).Unplugged() && s.Role() == mams.RoleActive {
				actives++
				if names != "" {
					names += "+"
				}
				names += string(s.Node().ID())
			}
		}
		if actives > 1 {
			m.record("one-active", names, fmt.Sprintf("group %d has %d reachable actives", g, actives))
		}
	}
}

// HealedNow reports whether every group is fully healed: all members up and
// plugged, exactly one active, everyone else a hot standby within two
// batches of the active's journal position.
func (m *Monitor) HealedNow() bool {
	for _, members := range m.c.Groups {
		actives, standbys := 0, 0
		var activeSN uint64
		for _, s := range members {
			if !s.Node().Up() || m.env.Net.Node(s.Node().ID()).Unplugged() {
				return false
			}
			switch s.Role() {
			case mams.RoleActive:
				actives++
				activeSN = s.LastSN()
			case mams.RoleStandby:
				standbys++
			}
		}
		if actives != 1 || actives+standbys != len(members) {
			return false
		}
		for _, s := range members {
			if s.Role() == mams.RoleStandby && s.LastSN()+2 < activeSN {
				return false
			}
		}
	}
	return true
}

// RequireHealed records a "healed" violation if the cluster is not fully
// healed (call it once the heal budget expires).
func (m *Monitor) RequireHealed() {
	if !m.HealedNow() {
		for g := range m.c.Groups {
			m.record("healed", "", fmt.Sprintf("group %d roles=%v after heal budget", g, m.c.RolesOf(g)))
		}
	}
}

// CheckConverged asserts that, after quiescence, every group has an active
// and all its standbys hold the active's exact namespace digest.
func (m *Monitor) CheckConverged() {
	for g := range m.c.Groups {
		active := m.c.ActiveOf(g)
		if active == nil {
			m.record("converged", "", fmt.Sprintf("group %d has no active after quiescence", g))
			continue
		}
		want := active.Tree().Digest()
		for _, s := range m.c.StandbysOf(g) {
			if got := s.Tree().Digest(); got != want {
				m.record("converged", string(s.Node().ID()),
					fmt.Sprintf("digest %x != active %x (sn %d vs %d)", got, want, s.LastSN(), active.LastSN()))
			}
		}
	}
}

// CheckDurable asserts that every successful mutation acknowledged at or
// before cutoff exists on the current active of group 0. Pass the end of
// the run as cutoff to require full durability (sound for the systematic
// scope, where election always finds a member holding every acked op), or
// an earlier instant to exclude an unsound tail window.
func (m *Monitor) CheckDurable(results []fsclient.Result, cutoff sim.Time) (checked int) {
	active := m.c.ActiveOf(0)
	if active == nil {
		m.record("durable", "", "no active to audit durability against")
		return 0
	}
	for _, r := range results {
		if r.Err != nil || r.End > cutoff {
			continue
		}
		if r.Kind != mams.OpCreate && r.Kind != mams.OpMkdir {
			continue
		}
		checked++
		if !active.Tree().Exists(r.Path) {
			m.record("durable", string(active.Node().ID()),
				fmt.Sprintf("acked %s (at %v, sn %d epoch %d) missing", r.Path, r.End, r.SN, r.Epoch))
		}
	}
	return checked
}

// CheckDurableWatermark is the AsyncAck-mode durability audit. A seal-time
// ack alone promises nothing; the durability contract is the watermark: an
// op acked with (epoch e, sn s) is known durable once any reply from epoch
// e reports DurableSN >= s (commit implies replication to every standby, so
// within the systematic fault scope the op survives any tolerated failure).
// The audit therefore requires Exists only for acked mutations covered by
// the highest watermark observed for their epoch, mirroring what a client
// is entitled to rely on.
func (m *Monitor) CheckDurableWatermark(results []fsclient.Result, cutoff sim.Time) (checked int) {
	active := m.c.ActiveOf(0)
	if active == nil {
		m.record("durable", "", "no active to audit durability against")
		return 0
	}
	wm := map[uint64]uint64{} // epoch → max DurableSN seen in any reply
	for _, r := range results {
		if r.Epoch != 0 && r.DurableSN > wm[r.Epoch] {
			wm[r.Epoch] = r.DurableSN
		}
	}
	for _, r := range results {
		if r.Err != nil || r.End > cutoff {
			continue
		}
		if r.Kind != mams.OpCreate && r.Kind != mams.OpMkdir {
			continue
		}
		if r.SN == 0 || r.SN > wm[r.Epoch] {
			// Not watermark-covered (or a duplicate-outcome reply with no
			// sn): the client was never promised durability for it.
			continue
		}
		checked++
		if !active.Tree().Exists(r.Path) {
			m.record("durable", string(active.Node().ID()),
				fmt.Sprintf("watermark-covered %s (sn %d <= wm %d, epoch %d) missing", r.Path, r.SN, wm[r.Epoch], r.Epoch))
		}
	}
	return checked
}

// CheckPlacement asserts the sharded-namespace migration safety contract:
// every create acked at or before cutoff exists on the active of exactly
// the group the authoritative shard map homes it to — no acked entry is
// lost or double-homed, however many migrations (and failovers during
// migrations) the run contained. The authoritative map is the highest
// epoch installed on any current active. Call it after quiescence: a flip
// whose watch notifications are still in flight would otherwise flag an
// active that has not yet purged its moved-away slot.
func (m *Monitor) CheckPlacement(results []fsclient.Result, cutoff sim.Time) (checked int) {
	var part *partition.Partitioner
	actives := make([]*mams.Server, len(m.c.Groups))
	for g := range m.c.Groups {
		a := m.c.ActiveOf(g)
		if a == nil {
			m.record("placement", "", fmt.Sprintf("group %d has no active to audit placement against", g))
			return 0
		}
		actives[g] = a
		if p := a.ShardPartitioner(); part == nil || p.Epoch() > part.Epoch() {
			part = p
		}
	}
	if part == nil {
		return 0
	}
	for _, r := range results {
		if r.Err != nil || r.End > cutoff || r.Kind != mams.OpCreate {
			continue
		}
		checked++
		home := part.HomeGroup(r.Path)
		for g, a := range actives {
			exists := a.Tree().Exists(r.Path)
			if g == home && !exists {
				m.record("placement", string(a.Node().ID()),
					fmt.Sprintf("acked create %s missing from home group %d (map epoch %d)", r.Path, home, part.Epoch()))
			}
			if g != home && exists {
				m.record("placement", string(a.Node().ID()),
					fmt.Sprintf("acked create %s double-homed on group %d (home %d, map epoch %d)", r.Path, g, home, part.Epoch()))
			}
		}
	}
	return checked
}

// Violations returns everything recorded so far.
func (m *Monitor) Violations() []Violation { return m.violations }

// Truncated reports how many violations were dropped past the cap.
func (m *Monitor) Truncated() int { return m.truncated }
