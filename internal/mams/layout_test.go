package mams

import (
	"reflect"
	"testing"

	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// TestLayout: a server works out its place from its ID alone — group name
// and index, members (which are also its pool nodes, see
// cluster.TestPoolNodesAreMDSNodes) and boot role: member 0 active, the rest
// standby, junior when asked. The layout real hardware runs ships adaptive
// group commit with acks at commit.
func TestLayout(t *testing.T) {
	groups := [][]transport.NodeID{
		{MemberID(0, 0), MemberID(0, 1), MemberID(0, 2)},
		{MemberID(1, 0), MemberID(1, 1), MemberID(1, 2)},
	}
	layout := NewLayout([]transport.NodeID{"coord0"}, groups)
	if p := layout.Params; !p.GroupCommit || p.AsyncAck || p.CostModel != (CostModel{}) {
		t.Fatalf("NewLayout params: GroupCommit %v AsyncAck %v CostModel %+v, want group commit, sync acks, no modelled cost",
			p.GroupCommit, p.AsyncAck, p.CostModel)
	}
	net := transporttest.NewSim(1, 1_000_000, 0, 0, nil).Net
	rnd := func() float64 { return 0 }
	type place struct {
		group    string
		groupIdx int
		members  []transport.NodeID
		bootRole Role
	}
	want := []place{
		{"g0", 0, groups[0], RoleActive}, {"g0", 0, groups[0], RoleStandby}, {"g0", 0, groups[0], RoleStandby},
		{"g1", 1, groups[1], RoleActive}, {"g1", 1, groups[1], RoleStandby}, {"g1", 1, groups[1], RoleStandby},
	}
	var servers []*Server
	for _, members := range groups {
		for _, id := range members {
			servers = append(servers, NewServer(net, Config{ID: id, Layout: layout}, nil, rnd))
		}
	}
	for i, s := range servers {
		got := place{s.group, s.groupIdx, s.members, s.bootRole}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: place %+v, want %+v", s.cfg.ID, got, want[i])
		}
	}

	// A member added at runtime joins as a junior. Every server shares the
	// layout's Groups, so the newcomer enters existing servers' routing
	// table but not their members (cluster.AddBackup relies on both).
	id := MemberID(0, 3)
	groups[0] = append(groups[0], id)
	j := NewServer(net, Config{ID: id, Junior: true, Layout: layout}, nil, rnd)
	if j.bootRole != RoleJunior || j.groupIdx != 0 || len(j.members) != 4 {
		t.Fatalf("runtime member: role %v group %d members %v", j.bootRole, j.groupIdx, j.members)
	}
	if s := servers[1]; len(s.cfg.Groups[0]) != 4 || len(s.members) != 3 {
		t.Fatalf("existing member sees routing %v, members %v", s.cfg.Groups[0], s.members)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("an ID in no group was accepted")
		}
	}()
	NewServer(net, Config{ID: "stray", Layout: layout}, nil, rnd)
}
