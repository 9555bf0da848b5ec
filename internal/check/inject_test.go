package check

import (
	"fmt"
	"testing"

	"mams/internal/cluster"
	"mams/internal/health"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/ssp"
	"mams/internal/trace"
	"mams/internal/transport"
)

// TestInjectHeal: each member-level letter, at a magnitude that is not its
// default, lands on its target with the documented effect and on no other
// member, and its heal, run twice, leaves every member healthy.
func TestInjectHeal(t *testing.T) {
	env := cluster.NewEnv(7)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatalf("group never stabilized: %v", c.RolesOf(0))
	}
	group := c.GroupIDs[0]
	const target = 1
	var flaps [][2]transport.NodeID // directed links the flap cycles have cut
	env.Trace.Subscribe(func(e trace.Event) {
		if e.Kind == trace.KindFault && e.What == "flap-down" {
			flaps = append(flaps, [2]transport.NodeID{transport.NodeID(e.Node), transport.NodeID(e.Args["dst"])})
		}
	})
	sick := func(id transport.NodeID) string {
		nd, b := env.Net.Node(id), c.Pool(id).Brownout()
		if nd.Unplugged() || nd.Slowdown() != 1 || nd.ClockSkew() != 0 || b != (ssp.Brownout{}) {
			return fmt.Sprintf("%s: unplugged %v, slowdown %v, skew %v, brownout %+v",
				id, nd.Unplugged(), nd.Slowdown(), nd.ClockSkew(), b)
		}
		return ""
	}
	reaches := func(from, to transport.NodeID) bool {
		var err error = transport.ErrTimeout
		env.Net.Node(from).Call(to, health.ProbeReq{}, sim.Second, func(_ any, e error) { err = e })
		env.RunFor(2 * sim.Second)
		return err == nil
	}

	for _, tc := range []struct {
		action string
		hit    func(nd *simnet.Node, pool *ssp.PoolNode) bool // nil: the flap, judged by its cuts
	}{
		{"u1@1", func(nd *simnet.Node, _ *ssp.PoolNode) bool { return nd.Unplugged() }},
		{"s1x4@1", func(nd *simnet.Node, _ *ssp.PoolNode) bool { return nd.Slowdown() == 4 }},
		{"k1x500@1", func(nd *simnet.Node, _ *ssp.PoolNode) bool { return nd.ClockSkew() == 0.5 }},
		{"b1x5@1", func(_ *simnet.Node, p *ssp.PoolNode) bool {
			return p.Brownout() == ssp.Brownout{SlowFactor: 5, FailEvery: 3}
		}},
		{"f1x3@1", nil},
	} {
		sched, err := DecodeSchedule(tc.action)
		if err != nil {
			t.Fatal(err)
		}
		a := sched[0]
		if a.Kind.takesMag() && a.Mag == a.Kind.defaultMag() {
			t.Fatalf("%s: test a magnitude other than the default", tc.action)
		}
		flaps = nil
		heal := Inject(env, group, c.Pool, a)
		env.RunFor(3 * sim.Second) // ≥ two flap up phases (~1 s each)
		id := group[target]
		if tc.hit != nil && !tc.hit(env.Net.Node(id), c.Pool(id)) {
			t.Fatalf("%s: no effect on the target: %s", tc.action, sick(id))
		}
		cut := map[transport.NodeID]bool{}
		for _, l := range flaps {
			if l[0] != id || l[1] == id {
				t.Fatalf("%s: cut the link %s→%s", tc.action, l[0], l[1])
			}
			cut[l[1]] = true
		}
		want := 0
		if tc.hit == nil {
			want = len(group) - 1
		}
		if len(cut) != want {
			t.Fatalf("%s: cut the target's links to %v, want %d peers", tc.action, cut, want)
		}
		for i, other := range group {
			if bad := sick(other); i != target && bad != "" {
				t.Fatalf("%s: hit a member it does not target: %s", tc.action, bad)
			}
		}

		heal()
		heal()
		flaps = nil
		for _, other := range group {
			if bad := sick(other); bad != "" {
				t.Fatalf("%s: after heal, %s", tc.action, bad)
			}
			if other != id && (!reaches(id, other) || !reaches(other, id)) {
				t.Fatalf("%s: after heal, %s and %s cannot reach each other", tc.action, id, other)
			}
		}
		if len(flaps) != 0 {
			t.Fatalf("%s: links still flap after heal: %v", tc.action, flaps)
		}
	}
}
