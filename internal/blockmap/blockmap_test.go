package blockmap

import (
	"testing"

	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/transport"
)

// mdsStub collects reports like a metadata server would.
type mdsStub struct {
	mgr *Manager
}

func (s *mdsStub) HandleMessage(from transport.NodeID, msg any) {
	if rep, ok := msg.(IncrementalReport); ok {
		s.mgr.ApplyIncremental(rep)
	}
}

func newWorld() (*sim.World, *simnet.Network) {
	w := sim.NewWorld()
	w.SetStepLimit(1_000_000)
	return w, simnet.New(w, rng.New(1), simnet.LatencyModel{Base: 200 * sim.Microsecond}, nil)
}

func TestIncrementalReportsReachActiveAndStandby(t *testing.T) {
	w, net := newWorld()
	active := &mdsStub{mgr: NewManager()}
	standby := &mdsStub{mgr: NewManager()}
	net.AddNode("active", active)
	net.AddNode("standby", standby)
	ds := NewDataServer(net, "dn1", []transport.NodeID{"active", "standby"})
	ds.Start()

	net.AddNode("driver", nil)
	net.Node("driver").Send("dn1", StoreBlocks{Blocks: []uint64{1, 2, 3}})
	w.RunUntil(10 * sim.Second)

	if active.mgr.Known() != 3 || standby.mgr.Known() != 3 {
		t.Fatalf("known: active=%d standby=%d", active.mgr.Known(), standby.mgr.Known())
	}
	if locs := active.mgr.Locations(2); len(locs) != 1 || locs[0] != "dn1" {
		t.Fatalf("locations = %v", locs)
	}
}

func TestIncrementalReportsAreBatchedNotImmediate(t *testing.T) {
	w, net := newWorld()
	active := &mdsStub{mgr: NewManager()}
	net.AddNode("active", active)
	ds := NewDataServer(net, "dn1", []transport.NodeID{"active"})
	ds.Start()
	net.AddNode("driver", nil)
	net.Node("driver").Send("dn1", StoreBlocks{Blocks: []uint64{7}})
	w.RunUntil(sim.Second) // before the 3 s report cadence
	if active.mgr.Known() != 0 {
		t.Fatal("report arrived before the reporting interval")
	}
	w.RunUntil(5 * sim.Second)
	if active.mgr.Known() != 1 {
		t.Fatal("report never arrived")
	}
}

func TestFullReportCostScalesWithBlocks(t *testing.T) {
	w, net := newWorld()
	requester := net.AddNode("backup", nil)
	small := NewDataServer(net, "dn-small", nil)
	big := NewDataServer(net, "dn-big", nil)
	small.SetVirtualBlocks(1_000)
	big.SetVirtualBlocks(3_000_000)

	timeFor := func(target transport.NodeID) sim.Time {
		start := w.Now()
		var took sim.Time
		requester.Call(target, FullReportRequest{}, 600*sim.Second, func(resp any, err error) {
			if err != nil {
				t.Errorf("full report: %v", err)
			}
			took = w.Now() - start
		})
		w.Run()
		return took
	}
	tSmall := timeFor("dn-small")
	tBig := timeFor("dn-big")
	if tBig < 10*tSmall {
		t.Fatalf("full report cost not block-proportional: small=%v big=%v", tSmall, tBig)
	}
	// 3M blocks at 18 µs ≈ 54 s.
	if tBig < 30*sim.Second || tBig > 90*sim.Second {
		t.Fatalf("3M-block report took %v", tBig)
	}
}

func TestFullReportCarriesRealAndVirtualBlocks(t *testing.T) {
	w, net := newWorld()
	requester := net.AddNode("backup", nil)
	ds := NewDataServer(net, "dn", nil)
	ds.SetVirtualBlocks(500)
	net.AddNode("driver", nil)
	net.Node("driver").Send("dn", StoreBlocks{Blocks: []uint64{10, 11}})
	w.RunUntil(sim.Second)

	mgr := NewManager()
	requester.Call("dn", FullReportRequest{}, 60*sim.Second, func(resp any, err error) {
		mgr.ApplyFull(resp.(FullReport))
	})
	w.Run()
	if mgr.Known() != 2 {
		t.Fatalf("known = %d", mgr.Known())
	}
	if mgr.virtualReported != 500 {
		t.Fatalf("virtual = %d", mgr.virtualReported)
	}
	if mgr.FullReports() != 1 {
		t.Fatalf("full reports = %d", mgr.FullReports())
	}
	if ds.BlockCount() != 502 {
		t.Fatalf("BlockCount = %d", ds.BlockCount())
	}
}

func TestManagerDedupsLocations(t *testing.T) {
	m := NewManager()
	m.ApplyIncremental(IncrementalReport{From: "dn1", Blocks: []uint64{1}})
	m.ApplyIncremental(IncrementalReport{From: "dn1", Blocks: []uint64{1}})
	m.ApplyIncremental(IncrementalReport{From: "dn2", Blocks: []uint64{1}})
	if locs := m.Locations(1); len(locs) != 2 {
		t.Fatalf("locations = %v", locs)
	}
}

func TestDataServerDedupsStoredBlocks(t *testing.T) {
	w, net := newWorld()
	active := &mdsStub{mgr: NewManager()}
	net.AddNode("active", active)
	ds := NewDataServer(net, "dn1", []transport.NodeID{"active"})
	ds.Start()
	net.AddNode("driver", nil)
	net.Node("driver").Send("dn1", StoreBlocks{Blocks: []uint64{5}})
	net.Node("driver").Send("dn1", StoreBlocks{Blocks: []uint64{5}})
	w.RunUntil(10 * sim.Second)
	if ds.BlockCount() != 1 {
		t.Fatalf("BlockCount = %d", ds.BlockCount())
	}
}
