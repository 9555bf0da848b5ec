package cluster

import (
	"slices"

	"mams/internal/blockmap"
	"mams/internal/coord"
	"mams/internal/fsclient"
	"mams/internal/health"
	"mams/internal/mams"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/simnet"
	"mams/internal/ssp"
	"mams/internal/transport"
)

// MAMSSpec sizes a CFS deployment with the MAMS policy.
type MAMSSpec struct {
	// Groups is the number of replica groups (actives). The paper's
	// configurations: 3A3S = Groups 3, BackupsPerGroup 1; 1A3S = Groups 1,
	// BackupsPerGroup 3.
	Groups          int
	BackupsPerGroup int
	DataServers     int

	Params mams.Params

	// Failure detector settings (the paper: heartbeat 2 s, session 5 s).
	CoordHeartbeat      sim.Time
	CoordSessionTimeout sim.Time

	// VirtualImageBytes inflates every server's checkpoint size to model
	// the paper's multi-million-file namespaces (Table I).
	VirtualImageBytes int64

	// Partition selects the namespace partitioning strategy (default: the
	// paper's full-path hashing; BySubtree implements the conclusion's
	// "other namespace management methods" direction).
	Partition partition.Strategy
}

// coordServers is the size of a simulated deployment's coordination
// ensemble.
const coordServers = 3

// From metricChildLimitGroups groups up, the registry keeps at most
// metricChildLimit children per metric family (unbounded below). Per-node
// and per-link label sets grow with Groups × members; at many-group scale
// the overflow aggregate keeps registry memory and scrape size O(families).
const (
	metricChildLimit       = 64
	metricChildLimitGroups = 64
)

func (s *MAMSSpec) defaults() {
	if s.Groups == 0 {
		s.Groups = 1
	}
	if s.BackupsPerGroup == 0 {
		s.BackupsPerGroup = 3
	}
	if s.Params.BatchEvery == 0 {
		s.Params = mams.DefaultParams()
	}
	if s.CoordHeartbeat == 0 {
		s.CoordHeartbeat = 2 * sim.Second
	}
	if s.CoordSessionTimeout == 0 {
		s.CoordSessionTimeout = 5 * sim.Second
	}
}

// MAMSCluster is a running CFS deployment.
type MAMSCluster struct {
	Env  *Env
	Spec MAMSSpec

	Coord       *coord.Ensemble
	Part        *partition.Partitioner
	Groups      [][]*mams.Server // [group][member]; member 0 boots active
	GroupIDs    [][]transport.NodeID
	DataServers []*blockmap.DataServer

	// layout is what every server is built from. Its Groups is GroupIDs,
	// so a backup added at runtime enters every server's routing table.
	layout mams.Layout

	// Migrator is the live-migration coordinator (nil until StartMigrator).
	Migrator *mams.Migrator

	// Prober and Health are the gray-failure monitoring plane (nil until
	// StartHealth).
	Prober *health.Prober
	Health *health.Detector

	clientSeq  int
	breakerCli *breaker
}

// BuildMAMS assembles and starts a CFS/MAMS cluster. Call AwaitStable
// before driving load.
func BuildMAMS(env *Env, spec MAMSSpec) *MAMSCluster {
	spec.defaults()
	c := &MAMSCluster{Env: env, Spec: spec}
	if spec.Groups >= metricChildLimitGroups {
		env.Net.Obs().SetChildLimit(metricChildLimit)
	}
	c.Coord = coord.StartEnsemble(env.Net, coordServers, env.Trace)
	c.Part = partition.NewSharded(spec.Groups, partition.DefaultSlotsPerGroup, spec.Partition)

	var groupIDs [][]transport.NodeID
	for g := 0; g < spec.Groups; g++ {
		var ids []transport.NodeID
		for m := 0; m <= spec.BackupsPerGroup; m++ {
			ids = append(ids, mams.MemberID(g, m))
		}
		groupIDs = append(groupIDs, ids)
	}
	c.GroupIDs = groupIDs
	c.layout = mams.Layout{
		Coord:               c.Coord.IDs,
		Groups:              groupIDs,
		CoordHeartbeat:      spec.CoordHeartbeat,
		CoordSessionTimeout: spec.CoordSessionTimeout,
		Partitioner:         c.Part,
		Params:              spec.Params,
		SSPParams:           ssp.DefaultParams(),
	}

	for _, ids := range groupIDs {
		var members []*mams.Server
		for _, id := range ids {
			members = append(members, c.startServer(mams.Config{ID: id, Layout: c.layout}))
		}
		c.Groups = append(c.Groups, members)
	}

	// Data servers report to every MDS (actives and standbys), which is
	// what keeps MAMS standbys hot with respect to block locations.
	var allMDS []transport.NodeID
	for _, ids := range groupIDs {
		allMDS = append(allMDS, ids...)
	}
	for d := 0; d < spec.DataServers; d++ {
		ds := blockmap.NewDataServer(env.Net, NodeID("dn", d), allMDS)
		ds.Start()
		c.DataServers = append(c.DataServers, ds)
	}
	return c
}

// startServer builds and starts one metadata server on the simulator.
func (c *MAMSCluster) startServer(cfg mams.Config) *mams.Server {
	srv := mams.NewServer(c.Env.Net, cfg, c.Env.Trace, c.Env.RNG.Split(string(cfg.ID)).Float64)
	if c.Spec.VirtualImageBytes > 0 {
		srv.SetVirtualOverheadBytes(c.Spec.VirtualImageBytes)
	}
	srv.Start()
	return srv
}

// AwaitStable runs the world until every group has exactly one active and
// all other members are standbys, or the deadline passes.
func (c *MAMSCluster) AwaitStable(deadline sim.Time) bool {
	end := c.Env.Now() + deadline
	for c.Env.Now() < end {
		if c.Stable() {
			return true
		}
		c.Env.RunFor(200 * sim.Millisecond)
	}
	return c.Stable()
}

// Stable reports whether every group is in the 1-active/rest-standby state.
func (c *MAMSCluster) Stable() bool {
	for _, members := range c.Groups {
		actives, standbys := 0, 0
		for _, s := range members {
			if !s.Node().Up() {
				continue
			}
			switch s.Role() {
			case mams.RoleActive:
				actives++
			case mams.RoleStandby:
				standbys++
			}
		}
		if actives != 1 || actives+standbys != len(members) {
			return false
		}
	}
	return true
}

// ActiveOf returns the current active server of a group (nil if none).
func (c *MAMSCluster) ActiveOf(g int) *mams.Server {
	for _, s := range c.Groups[g] {
		if s.Node().Up() && s.Role() == mams.RoleActive {
			return s
		}
	}
	return nil
}

// StandbysOf returns the group's running standbys.
func (c *MAMSCluster) StandbysOf(g int) []*mams.Server {
	var out []*mams.Server
	for _, s := range c.Groups[g] {
		if s.Node().Up() && s.Role() == mams.RoleStandby {
			out = append(out, s)
		}
	}
	return out
}

// RolesOf returns the Table II-style state letters of group g's members in
// member order (A/S/J, or "-" for down).
func (c *MAMSCluster) RolesOf(g int) []string {
	var out []string
	for _, s := range c.Groups[g] {
		if !s.Node().Up() {
			out = append(out, "-")
			continue
		}
		out = append(out, s.Role().Short())
	}
	return out
}

// AddBackup adds a brand-new backup node to group g at runtime. It joins
// as a junior and reaches standby through the renewing protocol ("more new
// backup nodes can also be added in the replica group at runtime").
func (c *MAMSCluster) AddBackup(g int) *mams.Server {
	id := mams.MemberID(g, len(c.GroupIDs[g]))
	c.GroupIDs[g] = append(c.GroupIDs[g], id)
	srv := c.startServer(mams.Config{ID: id, Junior: true, Layout: c.layout})
	c.Groups[g] = append(c.Groups[g], srv)
	return srv
}

// HealAll restarts every crashed member and replugs every unplugged one in
// every group — the heal phase of the systematic fault checker. Network-level
// faults (loss, cuts) are the caller's to clear.
func (c *MAMSCluster) HealAll() {
	for _, members := range c.Groups {
		for _, s := range members {
			if !s.Node().Up() {
				s.Restart()
			}
			c.Env.Net.Node(s.Node().ID()).Replug()
		}
	}
}

// Pool returns the storage pool co-located with metadata server id, or nil
// when id is no member.
func (c *MAMSCluster) Pool(id transport.NodeID) *ssp.PoolNode {
	for g, ids := range c.GroupIDs {
		if m := slices.Index(ids, id); m >= 0 {
			return c.Groups[g][m].Pool()
		}
	}
	return nil
}

// unplugged reports whether the harness has unplugged s's simulator node.
func (c *MAMSCluster) unplugged(s *mams.Server) bool {
	return c.Env.Net.Node(s.Node().ID()).Unplugged()
}

// StartMigrator creates and starts the out-of-band migration coordinator
// (own coordination session, like a cluster operator tool). Call it from
// outside the event loop — it advances the world until the session opens;
// MoveSlot / StartBalancer then work from inside scheduled events.
func (c *MAMSCluster) StartMigrator() *mams.Migrator {
	if c.Migrator != nil {
		return c.Migrator
	}
	mg := mams.NewMigrator(c.Env.Net, NodeID("migrate", "coordinator"), c.layout, c.Env.Trace)
	started := false
	c.Env.World.Defer("migrator-start", func() {
		mg.Start(func(err error) { started = err == nil })
	})
	deadline := c.Env.Now() + 30*sim.Second
	for !started && c.Env.Now() < deadline {
		c.Env.RunFor(100 * sim.Millisecond)
	}
	c.Migrator = mg
	return mg
}

// StartHealth wires the gray-failure monitoring plane over every MDS node:
// the environment's telemetry sampler (started on demand), an active prober
// on its own dedicated node, and the signal-driven detector. Idempotent.
// The prober probes at the sampler cadence.
func (c *MAMSCluster) StartHealth() *health.Detector {
	if c.Health != nil {
		return c.Health
	}
	sampler := c.Env.StartTelemetry()
	var targets []transport.NodeID
	var names []string
	for _, ids := range c.GroupIDs {
		for _, id := range ids {
			targets = append(targets, id)
			names = append(names, string(id))
		}
	}
	host := c.Env.Net.AddNode(NodeID("health", "prober"), nil)
	c.Prober = health.NewProber(host, targets, sampler.Every())
	c.Prober.Start()
	c.Health = health.NewDetector(c.Env.World, sampler, c.Env.Obs, c.Env.Trace, names)
	c.Health.Start()
	return c.Health
}

// breaker is a lazily created out-of-band coordination client used by
// fault injection (Test A's "modifying the global view to make the active
// lose the lock").
type breaker struct {
	node   *simnet.Node
	client *coord.Client
}

func (b *breaker) HandleMessage(from transport.NodeID, msg any) {
	b.client.MaybeHandle(from, msg)
}

// PrepareFaultInjector creates and starts the out-of-band coordination
// client eagerly. Call it from outside the event loop (it advances the
// world); BreakLock then works from inside scheduled events.
func (c *MAMSCluster) PrepareFaultInjector() {
	if c.breakerCli != nil {
		return
	}
	b := c.newBreaker()
	started := false
	c.Env.World.Defer("breaker-start", func() {
		b.client.Start(func(err error) { started = err == nil })
	})
	deadline := c.Env.Now() + 30*sim.Second
	for !started && c.Env.Now() < deadline {
		c.Env.RunFor(100 * sim.Millisecond)
	}
}

func (c *MAMSCluster) newBreaker() *breaker {
	b := &breaker{}
	b.node = c.Env.Net.AddNode(NodeID("fault", "breaker"), b)
	b.client = coord.NewClient(b.node, coord.ClientConfig{Servers: c.Coord.IDs}, nil)
	c.breakerCli = b
	return b
}

// BreakLock makes group g's active lose the distributed lock the way the
// paper's Test A does ("modifying the global view to make the active lose
// the lock"): its coordination session is invalidated, so the active stops
// serving at its next heartbeat and the lock znode vanishes when the frozen
// session times out — reproducing the paper's ~6 s Test A outage. Safe to
// call from scheduled events.
func (c *MAMSCluster) BreakLock(g int) {
	active := c.ActiveOf(g)
	if active == nil {
		return
	}
	victim := active.Node().ID()
	if c.breakerCli != nil && c.breakerCli.client.Session() != 0 {
		c.breakerCli.client.ForceExpireNode(victim, func(error) {})
		return
	}
	if c.breakerCli == nil {
		c.newBreaker()
	}
	b := c.breakerCli
	b.client.Start(func(err error) {
		if err == nil {
			b.client.ForceExpireNode(victim, func(error) {})
		}
	})
}

// ObservedRoles returns the Table II-style state letters for group g from
// an operator's perspective: crashed/unreachable nodes show "-" until the
// global view degrades them to junior; reachable nodes report their role.
// When more than one node still believes it is active (a just-replugged
// deposed active that has not yet learned of its session expiry), the one
// holding the highest-epoch view is authoritative and the stale claimant
// is shown through that view.
func (c *MAMSCluster) ObservedRoles(g int) []string {
	var authoritative *mams.Server
	for _, s := range c.Groups[g] {
		if !s.Node().Up() || s.Role() != mams.RoleActive {
			continue
		}
		if authoritative == nil || s.View().Epoch > authoritative.View().Epoch {
			authoritative = s
		}
	}
	var view mams.View
	if authoritative != nil {
		view = authoritative.View()
	}
	var out []string
	for _, s := range c.Groups[g] {
		id := string(s.Node().ID())
		switch {
		case !s.Node().Up():
			out = append(out, "-")
		case c.unplugged(s):
			if view.RoleOf(id) == mams.RoleJunior {
				out = append(out, "J")
			} else {
				out = append(out, "-")
			}
		case s.Role() == mams.RoleActive && authoritative != nil && s != authoritative:
			// Stale claimant: report the authoritative view's opinion.
			switch view.RoleOf(id) {
			case mams.RoleStandby:
				out = append(out, "S")
			case mams.RoleJunior:
				out = append(out, "J")
			default:
				out = append(out, "-")
			}
		default:
			out = append(out, s.Role().Short())
		}
	}
	return out
}

// NewClient attaches a file-system client to the cluster.
func (c *MAMSCluster) NewClient(onResult func(fsclient.Result)) *fsclient.Client {
	c.clientSeq++
	return fsclient.New(c.Env.Net, fsclient.Config{
		ID:          NodeID("client", c.clientSeq),
		Groups:      c.GroupIDs,
		Partitioner: c.Part,
		OnResult:    onResult,
	})
}
