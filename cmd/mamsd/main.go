// Command mamsd runs one MAMS process over real TCP: a coordination
// server, a metadata server (with its co-located SSP pool node), or both,
// as declared by a JSON config. A deployment is N mamsd processes sharing
// one static address book — the wire-plane equivalent of the simulator's
// cluster assembly.
//
// Example 4-process deployment (3 co-located coord+mds, 1 spare):
//
//	{
//	  "listen": "127.0.0.1:7100",
//	  "peers": {
//	    "coord0":  "127.0.0.1:7100", "g0-mds0": "127.0.0.1:7100",
//	    "coord1":  "127.0.0.1:7101", "g0-mds1": "127.0.0.1:7101",
//	    "coord2":  "127.0.0.1:7102", "g0-mds2": "127.0.0.1:7102"
//	  },
//	  "coord_ensemble": ["coord0", "coord1", "coord2"],
//	  "groups": [["g0-mds0", "g0-mds1", "g0-mds2"]],
//	  "coord": "coord0",
//	  "mds": "g0-mds0"
//	}
//
// Each process gets the same peers/ensemble/groups sections and names the
// role ids it hosts in "coord" / "mds". The first ensemble member
// bootstraps coordination leadership; the first member of each group boots
// active, the rest standby (a restarted process rejoins as junior through
// the renewing protocol on its own).
//
// Usage:
//
//	mamsd -config node0.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mams/internal/coord"
	"mams/internal/mams"
	"mams/internal/nettrans"
	"mams/internal/partition"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/transport"
)

// nodeConfig is one mamsd process's config file.
type nodeConfig struct {
	// Listen is this process's TCP address ("host:0" picks a free port,
	// printed at startup for ad-hoc clusters).
	Listen string `json:"listen"`
	// Peers maps every node id in the deployment to its address.
	Peers map[string]string `json:"peers"`
	// CoordEnsemble lists the coordination servers in bootstrap order.
	CoordEnsemble []string `json:"coord_ensemble"`
	// Groups lists every replica group's members by group index.
	Groups [][]string `json:"groups"`

	// Coord and MDS name the roles this process hosts ("" = none).
	Coord string `json:"coord"`
	MDS   string `json:"mds"`

	// Rejoin boots the MDS role as a junior instead of its bootstrap role
	// (set it when restarting a failed process into a running group).
	Rejoin bool `json:"rejoin"`

	// CoordHeartbeatMS / CoordSessionTimeoutMS override the paper's 2 s /
	// 5 s failure-detector settings (milliseconds; 0 = default).
	CoordHeartbeatMS      int64 `json:"coord_heartbeat_ms"`
	CoordSessionTimeoutMS int64 `json:"coord_session_timeout_ms"`

	// Seed feeds election jitter (default: derived from the MDS id).
	Seed uint64 `json:"seed"`
}

func main() {
	cfgPath := flag.String("config", "", "path to the node's JSON config (required)")
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "mamsd: -config is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg nodeConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *cfgPath, err))
	}
	if cfg.Coord == "" && cfg.MDS == "" {
		fatal(fmt.Errorf("%s: no roles (set \"coord\" and/or \"mds\")", *cfgPath))
	}

	book := nettrans.NewAddrBook()
	for id, addr := range cfg.Peers {
		book.Set(transport.NodeID(id), addr)
	}
	tr, err := nettrans.New(nettrans.Config{Addr: cfg.Listen, Book: book})
	if err != nil {
		fatal(err)
	}
	// Roles this process hosts resolve to the live listener, not whatever
	// the static book says (lets "host:0" configs work).
	for _, id := range []string{cfg.Coord, cfg.MDS} {
		if id != "" {
			book.Set(transport.NodeID(id), tr.Addr())
		}
	}
	fmt.Printf("mamsd: listening on %s\n", tr.Addr())

	ensemble := make([]transport.NodeID, len(cfg.CoordEnsemble))
	for i, id := range cfg.CoordEnsemble {
		ensemble[i] = transport.NodeID(id)
	}

	if cfg.Coord != "" {
		tr.Do(func() {
			s := coord.NewServer(tr, coord.ServerConfig{
				ID:        transport.NodeID(cfg.Coord),
				Ensemble:  ensemble,
				Bootstrap: len(ensemble) > 0 && cfg.Coord == string(ensemble[0]),
			}, nil)
			s.Start()
		})
		fmt.Printf("mamsd: coordination server %s up (ensemble %v)\n", cfg.Coord, cfg.CoordEnsemble)
	}

	if cfg.MDS != "" {
		if err := startMDS(tr, cfg); err != nil {
			tr.Close()
			fatal(err)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("mamsd: shutting down")
	tr.Close()
}

func startMDS(tr *nettrans.Transport, cfg nodeConfig) error {
	id := transport.NodeID(cfg.MDS)
	groupIdx, memberIdx := -1, -1
	allGroups := make([][]transport.NodeID, len(cfg.Groups))
	for g, members := range cfg.Groups {
		allGroups[g] = make([]transport.NodeID, len(members))
		for m, mid := range members {
			allGroups[g][m] = transport.NodeID(mid)
			if mid == cfg.MDS {
				groupIdx, memberIdx = g, m
			}
		}
	}
	if groupIdx < 0 {
		return fmt.Errorf("mds %q is not in any group", cfg.MDS)
	}
	role := mams.RoleStandby
	if memberIdx == 0 {
		role = mams.RoleActive
	}
	if cfg.Rejoin {
		role = mams.RoleJunior
	}
	heartbeat, session := 2*sim.Second, 5*sim.Second
	if cfg.CoordHeartbeatMS > 0 {
		heartbeat = sim.Time(cfg.CoordHeartbeatMS) * sim.Millisecond
	}
	if cfg.CoordSessionTimeoutMS > 0 {
		session = sim.Time(cfg.CoordSessionTimeoutMS) * sim.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ensemble := make([]transport.NodeID, len(cfg.CoordEnsemble))
	for i, cid := range cfg.CoordEnsemble {
		ensemble[i] = transport.NodeID(cid)
	}
	part := partition.NewSharded(len(cfg.Groups), partition.DefaultSlotsPerGroup, 0)
	rnd := rng.New(seed).Split(cfg.MDS).Float64
	params := mams.DefaultParams()      // shipped protocol timing; the cost model is zeroed on the next line:
	params.CostModel = mams.CostModel{} // on real hardware work costs what it costs
	tr.Do(func() {
		s := mams.NewServer(tr, mams.Config{
			ID:                  id,
			Group:               fmt.Sprintf("g%d", groupIdx),
			GroupIndex:          groupIdx,
			Members:             allGroups[groupIdx],
			AllGroups:           allGroups,
			InitialRole:         role,
			CoordServers:        ensemble,
			CoordSessionTimeout: session,
			CoordHeartbeat:      heartbeat,
			PoolNodes:           allGroups[groupIdx],
			Partitioner:         part,
			Params:              params,
			SSPParams:           ssp.Params{}, // no pretend disk either
		}, nil, rnd)
		s.Start()
	})
	fmt.Printf("mamsd: metadata server %s up (group g%d, boot role %s)\n", cfg.MDS, groupIdx, role)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mamsd: %v\n", err)
	os.Exit(1)
}
