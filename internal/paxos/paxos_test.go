package paxos

import (
	"fmt"
	"testing"

	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// harness runs a Paxos ensemble over the simulated network.
type harness struct {
	world    *sim.World
	net      *simnet.Network
	replicas map[string]*Replica
	applied  map[string][]any
}

type paxosActor struct {
	r *Replica
}

func (a *paxosActor) HandleMessage(from transport.NodeID, msg any) {
	a.r.Deliver(string(from), msg.(Msg))
}

func newHarness(t *testing.T, n int, latency simnet.LatencyModel, seed uint64) *harness {
	t.Helper()
	w := sim.NewWorld()
	w.SetStepLimit(5_000_000)
	net := simnet.New(w, rng.New(seed), latency, nil)
	h := &harness{world: w, net: net, replicas: map[string]*Replica{}, applied: map[string][]any{}}
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("p%d", i)
	}
	for _, id := range peers {
		id := id
		var node *simnet.Node
		send := func(to string, m Msg) { node.Send(transport.NodeID(to), m) }
		r := New(Config{Self: id, Peers: peers}, send, func(slot uint64, v any) {
			h.applied[id] = append(h.applied[id], v)
		})
		node = net.AddNode(transport.NodeID(id), &paxosActor{r: r})
		h.replicas[id] = r
		// Per-replica retransmission ticks with per-node phase offsets so
		// duelling proposers eventually separate.
		var tick func()
		offset := sim.Time(50+10*len(h.replicas)) * sim.Millisecond
		tick = func() {
			r.Tick()
			node.After(offset, "paxos-tick", tick)
		}
		node.After(offset, "paxos-tick", tick)
	}
	return h
}

func (h *harness) checkAgreement(t *testing.T) {
	t.Helper()
	var longest []any
	for _, seq := range h.applied {
		if len(seq) > len(longest) {
			longest = seq
		}
	}
	for id, seq := range h.applied {
		for i, v := range seq {
			if longest[i] != v {
				t.Fatalf("replica %s diverged at slot %d: %v vs %v", id, i+1, v, longest[i])
			}
		}
	}
}

func nonNoop(seq []any) []any {
	var out []any
	for _, v := range seq {
		if _, ok := v.(Noop); !ok {
			out = append(out, v)
		}
	}
	return out
}

func TestSingleProposerCommitsInOrder(t *testing.T) {
	h := newHarness(t, 3, simnet.LatencyModel{Base: sim.Millisecond}, 1)
	r := h.replicas["p0"]
	for i := 0; i < 5; i++ {
		h.world.After(sim.Time(i)*sim.Millisecond, "propose", func() { r.Propose(fmt.Sprintf("v%d", i)) })
	}
	h.world.RunUntil(5 * sim.Second)
	for id, seq := range h.applied {
		vals := nonNoop(seq)
		if len(vals) != 5 {
			t.Fatalf("%s applied %d values: %v", id, len(vals), vals)
		}
	}
	h.checkAgreement(t)
	if !r.Leading() {
		t.Fatal("p0 should be leading")
	}
	if r.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", r.Outstanding())
	}
}

func TestApplyExactlyOncePerSlot(t *testing.T) {
	h := newHarness(t, 3, simnet.LatencyModel{Base: sim.Millisecond, Spread: 0.4}, 2)
	r := h.replicas["p1"]
	for i := 0; i < 20; i++ {
		v := i
		h.world.After(sim.Time(v)*10*sim.Millisecond, "propose", func() { r.Propose(v) })
	}
	h.world.RunUntil(10 * sim.Second)
	seen := map[any]int{}
	for _, v := range nonNoop(h.applied["p1"]) {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %v applied %d times", v, n)
		}
	}
	if len(seen) != 20 {
		t.Fatalf("applied %d distinct values, want 20", len(seen))
	}
}

func TestCompetingProposersConverge(t *testing.T) {
	h := newHarness(t, 5, simnet.LatencyModel{Base: sim.Millisecond, Spread: 0.3}, 3)
	a, b := h.replicas["p0"], h.replicas["p4"]
	h.world.After(0, "a", func() { a.Propose("from-a") })
	h.world.After(100*sim.Microsecond, "b", func() { b.Propose("from-b") })
	h.world.RunUntil(20 * sim.Second)
	h.checkAgreement(t)
	// Both values must eventually commit (retries via backlog).
	all := map[any]bool{}
	for _, v := range nonNoop(h.applied["p2"]) {
		all[v] = true
	}
	if !all["from-a"] || !all["from-b"] {
		t.Fatalf("missing values: %v", all)
	}
}

func TestSurvivesMessageLoss(t *testing.T) {
	h := newHarness(t, 5, simnet.LatencyModel{Base: sim.Millisecond, Spread: 0.3}, 4)
	h.net.SetLoss(0.15)
	r := h.replicas["p0"]
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("v%d", i)
		h.world.After(sim.Time(i)*50*sim.Millisecond, "propose", func() { r.Propose(v) })
	}
	h.world.RunUntil(60 * sim.Second)
	h.checkAgreement(t)
	got := nonNoop(h.applied["p3"])
	if len(got) != 10 {
		t.Fatalf("p3 applied %d/10 values under loss: %v", len(got), got)
	}
}

func TestLeaderCrashRecoversPendingSlots(t *testing.T) {
	h := newHarness(t, 3, simnet.LatencyModel{Base: sim.Millisecond}, 5)
	r0 := h.replicas["p0"]
	h.world.After(0, "lead", func() { r0.TryLead() })
	h.world.After(50*sim.Millisecond, "propose", func() {
		r0.Propose("x")
		r0.Propose("y")
	})
	// Crash the leader after its accepts are out but (possibly) before learns.
	h.world.After(52*sim.Millisecond, "crash", func() { h.net.Node("p0").Crash() })
	// p1 takes over.
	h.world.After(500*sim.Millisecond, "takeover", func() { h.replicas["p1"].Propose("z") })
	h.world.RunUntil(30 * sim.Second)
	vals := nonNoop(h.applied["p2"])
	found := map[any]bool{}
	for _, v := range vals {
		found[v] = true
	}
	if !found["z"] {
		t.Fatalf("new leader's value missing: %v", vals)
	}
	// Agreement between the survivors.
	a1, a2 := h.applied["p1"], h.applied["p2"]
	n := len(a1)
	if len(a2) < n {
		n = len(a2)
	}
	for i := 0; i < n; i++ {
		if a1[i] != a2[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestPartitionedMinorityCannotCommit(t *testing.T) {
	h := newHarness(t, 5, simnet.LatencyModel{Base: sim.Millisecond}, 6)
	// Isolate p0 from everyone.
	for i := 1; i < 5; i++ {
		h.net.CutBoth("p0", transport.NodeID(fmt.Sprintf("p%d", i)))
	}
	h.world.After(0, "propose", func() { h.replicas["p0"].Propose("lonely") })
	h.world.RunUntil(5 * sim.Second)
	if len(h.applied["p0"]) != 0 {
		t.Fatalf("isolated node applied %v", h.applied["p0"])
	}
	// Heal; the value must now commit everywhere.
	for i := 1; i < 5; i++ {
		h.net.HealBoth("p0", transport.NodeID(fmt.Sprintf("p%d", i)))
	}
	h.world.RunFor(20 * sim.Second)
	h.checkAgreement(t)
	vals := nonNoop(h.applied["p2"])
	if len(vals) != 1 || vals[0] != "lonely" {
		t.Fatalf("after heal p2 applied %v", vals)
	}
}

func TestChaosAgreementProperty(t *testing.T) {
	// Randomized churn: proposals from several nodes, loss, and a transient
	// partition. The safety property (applied prefixes agree) must hold for
	// every seed; liveness is checked for the values proposed by survivors.
	for seed := uint64(10); seed < 16; seed++ {
		h := newHarness(t, 5, simnet.LatencyModel{Base: sim.Millisecond, Spread: 0.5}, seed)
		h.net.SetLoss(0.10)
		r := rng.New(seed)
		total := 0
		for i := 0; i < 25; i++ {
			node := fmt.Sprintf("p%d", r.Intn(3)) // proposals from p0..p2
			at := sim.Time(r.Int63n(int64(3 * sim.Second)))
			v := fmt.Sprintf("s%d-v%d", seed, i)
			rep := h.replicas[node]
			h.world.At(at, "propose", func() { rep.Propose(v) })
			total++
		}
		// Transient partition of p3/p4 (a minority, so commits continue).
		h.world.At(sim.Second, "cut", func() {
			h.net.CutBoth("p3", "p0")
			h.net.CutBoth("p3", "p1")
			h.net.CutBoth("p3", "p2")
			h.net.CutBoth("p4", "p0")
			h.net.CutBoth("p4", "p1")
			h.net.CutBoth("p4", "p2")
		})
		h.world.At(2*sim.Second, "heal", func() {
			h.net.HealBoth("p3", "p0")
			h.net.HealBoth("p3", "p1")
			h.net.HealBoth("p3", "p2")
			h.net.HealBoth("p4", "p0")
			h.net.HealBoth("p4", "p1")
			h.net.HealBoth("p4", "p2")
		})
		h.world.RunUntil(120 * sim.Second)
		h.checkAgreement(t)
		got := map[any]bool{}
		for _, v := range nonNoop(h.applied["p0"]) {
			if got[v] {
				t.Fatalf("seed %d: duplicate commit of %v", seed, v)
			}
			got[v] = true
		}
		if len(got) != total {
			t.Fatalf("seed %d: committed %d/%d values", seed, len(got), total)
		}
	}
}

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, "a"}, Ballot{2, "a"}, true},
		{Ballot{2, "a"}, Ballot{1, "a"}, false},
		{Ballot{1, "a"}, Ballot{1, "b"}, true},
		{Ballot{1, "b"}, Ballot{1, "b"}, false},
	}
	for _, c := range cases {
		if c.a.Less(c.b) != c.less {
			t.Fatalf("%v < %v: got %v", c.a, c.b, !c.less)
		}
	}
	if !(Ballot{}).IsZero() || (Ballot{1, "x"}).IsZero() {
		t.Fatal("IsZero broken")
	}
	if (Ballot{3, "n1"}).String() != "3@n1" {
		t.Fatal("String broken")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty ensemble")
		}
	}()
	New(Config{Self: "a"}, nil, nil)
}

func TestConfigSelfMustBeMember(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for self not in peers")
		}
	}()
	New(Config{Self: "x", Peers: []string{"a", "b"}}, nil, nil)
}

func TestChosenLookup(t *testing.T) {
	h := newHarness(t, 3, simnet.LatencyModel{Base: sim.Millisecond}, 7)
	h.world.After(0, "p", func() { h.replicas["p0"].Propose("only") })
	h.world.RunUntil(5 * sim.Second)
	r := h.replicas["p1"]
	if r.AppliedThrough() == 0 {
		t.Fatal("nothing applied")
	}
	if _, ok := r.Chosen(1); !ok {
		t.Fatal("slot 1 not chosen on p1")
	}
	if _, ok := r.Chosen(999); ok {
		t.Fatal("phantom chosen slot")
	}
}

func TestSingleReplicaEnsemble(t *testing.T) {
	// A one-member ensemble is its own quorum: useful degenerate case.
	h := newHarness(t, 1, simnet.LatencyModel{}, 8)
	r := h.replicas["p0"]
	h.world.Defer("p", func() {
		r.Propose("a")
		r.Propose("b")
	})
	h.world.RunUntil(5 * sim.Second)
	got := nonNoop(h.applied["p0"])
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("applied = %v", got)
	}
	if !r.Leading() {
		t.Fatal("sole member should lead")
	}
}

func TestTickIdempotentWhenIdle(t *testing.T) {
	h := newHarness(t, 3, simnet.LatencyModel{Base: sim.Millisecond}, 9)
	h.world.Defer("p", func() { h.replicas["p0"].Propose("x") })
	h.world.RunUntil(5 * sim.Second)
	before := len(h.applied["p1"])
	// Many extra ticks must not re-apply anything.
	for i := 0; i < 20; i++ {
		h.world.Defer("tick", func() {
			for _, r := range h.replicas {
				r.Tick()
			}
		})
		h.world.RunFor(100 * sim.Millisecond)
	}
	if len(h.applied["p1"]) != before {
		t.Fatalf("idle ticks changed applied: %d -> %d", before, len(h.applied["p1"]))
	}
}
