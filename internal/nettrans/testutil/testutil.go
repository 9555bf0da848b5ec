// Package testutil boots a complete MAMS deployment over real TCP on
// loopback: one nettrans.Transport per process (each coordination server,
// each metadata server, and the client), a shared address book, and
// synchronous helpers that bridge the test goroutine onto each process's
// event loop.
//
// It is the wire-plane sibling of internal/cluster (which assembles the
// same topology on the deterministic sim plane) and exists so integration
// tests and benchmarks can exercise the unmodified protocol state machines
// across genuine process-style boundaries — real listeners, real
// connections, wall-clock timers.
package testutil

import (
	"fmt"
	"time"

	"mams/internal/coord"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/nettrans"
	"mams/internal/obs"
	"mams/internal/partition"
	"mams/internal/rng"
	"mams/internal/sim"
	"mams/internal/transport"
)

// ClusterConfig configures a single-group wire-plane deployment.
type ClusterConfig struct {
	// Seed feeds each server's election-jitter RNG (default 1).
	Seed uint64
}

// The deployment's fixed shape and failure-detector timing.
const (
	// members is the replica-group size: one active boots with two
	// standbys. Every member doubles as an SSP pool node, like the paper's
	// co-located pool.
	members = 3
	// coordServers sizes the coordination ensemble.
	coordServers = 3
	// coordHeartbeat / coordSessionTimeout are wall-clock here. The paper
	// uses 2 s / 5 s; 300 ms / 1200 ms keep failover tests fast while
	// preserving the 4-heartbeats-per-timeout ratio.
	coordHeartbeat      = 300 * sim.Millisecond
	coordSessionTimeout = 1200 * sim.Millisecond
)

// Proc is one simulated OS process: a transport plus whatever server it
// hosts.
type Proc struct {
	ID transport.NodeID
	Tr *nettrans.Transport
}

// Cluster is a running wire-plane deployment.
type Cluster struct {
	Book *nettrans.AddrBook

	Coord      []Proc
	CoordSrvs  []*coord.Server
	MDS        []Proc
	Servers    []*mams.Server
	ClientProc Proc
	Client     *fsclient.Client

	Part     *partition.Partitioner
	GroupIDs [][]transport.NodeID
}

// NewCluster boots the deployment: listeners first (so the address book is
// complete before any cross-process traffic), then coordination servers,
// then metadata servers, then the client. Server construction runs on each
// process's event loop via Do — node state is loop-owned on the real plane.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Cluster{Book: nettrans.NewAddrBook()}

	spawn := func(id transport.NodeID) (Proc, error) {
		tr, err := nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: c.Book})
		if err != nil {
			c.Close()
			return Proc{}, err
		}
		c.Book.Set(id, tr.Addr())
		return Proc{ID: id, Tr: tr}, nil
	}

	// Phase 1: every process gets its listener and publishes its address.
	coordIDs := coord.EnsembleIDs(coordServers)
	for _, id := range coordIDs {
		p, err := spawn(id)
		if err != nil {
			return nil, err
		}
		c.Coord = append(c.Coord, p)
	}
	var mdsIDs []transport.NodeID
	for m := 0; m < members; m++ {
		id := mams.MemberID(0, m)
		mdsIDs = append(mdsIDs, id)
		p, err := spawn(id)
		if err != nil {
			return nil, err
		}
		c.MDS = append(c.MDS, p)
	}
	c.GroupIDs = [][]transport.NodeID{mdsIDs}
	clientProc, err := spawn("client0")
	if err != nil {
		return nil, err
	}
	c.ClientProc = clientProc

	// Phase 2: coordination ensemble, one server per process. Each keeps
	// its metrics (sessions expired, locks handed over) in a registry of
	// its own, read on its loop (RefusedExpiries).
	for i, p := range c.Coord {
		i, p := i, p
		var srv *coord.Server
		p.Tr.SetObs(obs.NewRegistry(), nil)
		p.Tr.Do(func() {
			srv = coord.NewServer(p.Tr, coord.ServerConfig{
				ID: p.ID, Ensemble: coordIDs, Bootstrap: i == 0,
			}, nil)
			srv.Start()
		})
		c.CoordSrvs = append(c.CoordSrvs, srv)
	}

	// Phase 2b: wait for the ensemble to elect. A metadata server that
	// starts first is told NotLeader by every member, burns through
	// coord.Client's attempts in milliseconds and then sleeps a full second
	// before it tries again.
	if !c.awaitCoordLeader(5 * time.Second) {
		c.Close()
		return nil, fmt.Errorf("testutil: no coord leader among %d servers after 5s", coordServers)
	}

	// Phase 3: metadata servers (member 0 boots active, the rest standby).
	layout := mams.NewLayout(coordIDs, c.GroupIDs)
	layout.CoordHeartbeat, layout.CoordSessionTimeout = coordHeartbeat, coordSessionTimeout
	c.Part = layout.Partitioner
	seedRNG := rng.New(cfg.Seed)
	for _, p := range c.MDS {
		rnd := seedRNG.Split(string(p.ID)).Float64
		var srv *mams.Server
		p.Tr.Do(func() {
			srv = mams.NewServer(p.Tr, mams.Config{ID: p.ID, Layout: layout}, nil, rnd)
			srv.Start()
		})
		c.Servers = append(c.Servers, srv)
	}

	// Phase 4: the client process.
	c.ClientProc.Tr.Do(func() {
		c.Client = fsclient.New(c.ClientProc.Tr, fsclient.Config{
			ID:             "client0",
			Groups:         c.GroupIDs,
			Partitioner:    c.Part,
			RequestTimeout: 500 * sim.Millisecond,
			RetryBackoff:   50 * sim.Millisecond,
		})
	})
	return c, nil
}

// awaitCoordLeader polls the coordination servers, each on its own loop,
// until one of them leads or the wall-clock budget is spent.
func (c *Cluster) awaitCoordLeader(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		for i, p := range c.Coord {
			leading := false
			p.Tr.Do(func() { leading = c.CoordSrvs[i].Leading() })
			if leading {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close tears down every process. Idempotent per transport (Close is).
func (c *Cluster) Close() {
	if c.ClientProc.Tr != nil {
		c.ClientProc.Tr.Close()
	}
	for _, p := range c.MDS {
		p.Tr.Close()
	}
	for _, p := range c.Coord {
		p.Tr.Close()
	}
}

// roles samples each member's liveness and role on its own event loop. A
// killed process (closed transport) reports down.
func (c *Cluster) roles() (actives, standbys, down int) {
	for i, p := range c.MDS {
		srv := c.Servers[i]
		var up bool
		var role mams.Role
		alive := p.Tr.Do(func() {
			up = srv.Node().Up()
			role = srv.Role()
		})
		if !alive || !up {
			down++
			continue
		}
		switch role {
		case mams.RoleActive:
			actives++
		case mams.RoleStandby:
			standbys++
		}
	}
	return
}

// Stable reports whether the group has exactly one active and every other
// live member is a standby.
func (c *Cluster) Stable() bool {
	actives, standbys, down := c.roles()
	return actives == 1 && actives+standbys+down == len(c.MDS)
}

// AwaitStable polls Stable until it holds or the wall-clock deadline
// passes.
func (c *Cluster) AwaitStable(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if c.Stable() {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return c.Stable()
}

// Active returns the index of the current active member, or -1.
func (c *Cluster) Active() int {
	for i, p := range c.MDS {
		srv := c.Servers[i]
		var isActive bool
		alive := p.Tr.Do(func() {
			isActive = srv.Node().Up() && srv.Role() == mams.RoleActive
		})
		if alive && isActive {
			return i
		}
	}
	return -1
}

// RefusedExpiries sums, over the coordination servers, the sessions a
// leader ended before their time-out because their owner's address refused
// its probes (mams_coord_refused_expiries_total).
func (c *Cluster) RefusedExpiries() float64 {
	var n float64
	for _, p := range c.Coord {
		p.Tr.Do(func() {
			n += p.Tr.Obs().Counter("mams_coord_refused_expiries_total", "", "node", string(p.ID)).Value()
		})
	}
	return n
}

// KillActive closes the active member's transport — listener, connections,
// event loop, timers — the wire-plane version of a process crash. Returns
// the killed member's index, or -1 if no active was found.
func (c *Cluster) KillActive() int {
	i := c.Active()
	if i < 0 {
		return -1
	}
	c.MDS[i].Tr.Close()
	return i
}

// ---- synchronous client helpers (bridge test goroutine → client loop) ----

// Create makes a file and waits for the ack.
func (c *Cluster) Create(path string, size int64) error {
	done := make(chan error, 1)
	c.ClientProc.Tr.Do(func() {
		c.Client.Create(path, size, func(err error) { done <- err })
	})
	return <-done
}

// Mkdir makes a directory and waits for the ack.
func (c *Cluster) Mkdir(path string) error {
	done := make(chan error, 1)
	c.ClientProc.Tr.Do(func() {
		c.Client.Mkdir(path, func(err error) { done <- err })
	})
	return <-done
}

// Delete removes a file or empty directory and waits for the ack.
func (c *Cluster) Delete(path string) error {
	done := make(chan error, 1)
	c.ClientProc.Tr.Do(func() {
		c.Client.Delete(path, func(err error) { done <- err })
	})
	return <-done
}

// Stat fetches file metadata and waits for the answer.
func (c *Cluster) Stat(path string) (*namespace.Info, error) {
	type ans struct {
		info *namespace.Info
		err  error
	}
	done := make(chan ans, 1)
	c.ClientProc.Tr.Do(func() {
		c.Client.Stat(path, func(info *namespace.Info, err error) { done <- ans{info, err} })
	})
	a := <-done
	return a.info, a.err
}
