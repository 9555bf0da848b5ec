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
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mams/internal/coord"
	"mams/internal/mams"
	"mams/internal/nettrans"
	"mams/internal/rng"
	"mams/internal/sim"
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
	// 5 s failure-detector settings (milliseconds; 0 = default; negative is
	// an error). The heartbeat must be shorter than the time-out.
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
	cfg, err := parseConfig(raw)
	if err != nil {
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

	ensemble := nodeIDs(cfg.CoordEnsemble)
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

// parseConfig decodes a node config. An unknown key is an error, so a
// misspelt or retired setting cannot silently boot a node on its default.
func parseConfig(raw []byte) (nodeConfig, error) {
	var cfg nodeConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, err
	}
	if dec.More() {
		return cfg, errors.New("data after the config object")
	}
	return cfg, nil
}

// mdsConfig places this process's metadata server in the deployment: the
// real-hardware layout (mams.NewLayout) with the configured failure-detector
// timing. Every process of a deployment derives the same layout.
func mdsConfig(cfg nodeConfig) (mc mams.Config, err error) {
	id := transport.NodeID(cfg.MDS)
	groups := make([][]transport.NodeID, len(cfg.Groups))
	for g, members := range cfg.Groups {
		groups[g] = nodeIDs(members)
	}
	if g, _ := (mams.Layout{Groups: groups}).Locate(id); g < 0 {
		return mc, fmt.Errorf("mds %q is not in any group", cfg.MDS)
	}
	layout := mams.NewLayout(nodeIDs(cfg.CoordEnsemble), groups)
	switch {
	case cfg.CoordHeartbeatMS < 0:
		return mc, fmt.Errorf("coord_heartbeat_ms is %d, want > 0 (or 0 for the default)", cfg.CoordHeartbeatMS)
	case cfg.CoordSessionTimeoutMS < 0:
		return mc, fmt.Errorf("coord_session_timeout_ms is %d, want > 0 (or 0 for the default)", cfg.CoordSessionTimeoutMS)
	}
	if cfg.CoordHeartbeatMS > 0 {
		layout.CoordHeartbeat = sim.Time(cfg.CoordHeartbeatMS) * sim.Millisecond
	}
	if cfg.CoordSessionTimeoutMS > 0 {
		layout.CoordSessionTimeout = sim.Time(cfg.CoordSessionTimeoutMS) * sim.Millisecond
	}
	// Coord expires a session once it has been silent for longer than the
	// time-out, so a heartbeat that is not shorter expires between pings.
	if layout.CoordHeartbeat >= layout.CoordSessionTimeout {
		return mc, fmt.Errorf("coord_heartbeat_ms (%v) must be shorter than coord_session_timeout_ms (%v)",
			layout.CoordHeartbeat, layout.CoordSessionTimeout)
	}
	return mams.Config{ID: id, Junior: cfg.Rejoin, Layout: layout}, nil
}

func startMDS(tr *nettrans.Transport, cfg nodeConfig) error {
	mcfg, err := mdsConfig(cfg)
	if err != nil {
		return err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rnd := rng.New(seed).Split(cfg.MDS).Float64
	tr.Do(func() {
		mams.NewServer(tr, mcfg, nil, rnd).Start()
	})
	g, m := mcfg.Locate(mcfg.ID)
	fmt.Printf("mamsd: metadata server %s up (group g%d, member %d, rejoin %v)\n", cfg.MDS, g, m, cfg.Rejoin)
	return nil
}

func nodeIDs(names []string) []transport.NodeID {
	ids := make([]transport.NodeID, len(names))
	for i, n := range names {
		ids[i] = transport.NodeID(n)
	}
	return ids
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mamsd: %v\n", err)
	os.Exit(1)
}
