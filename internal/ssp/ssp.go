// Package ssp implements the shared storage pool from the paper (§III.A):
// a pool of storage services co-located with existing metadata/backup
// servers ("needs no additional device or third-party software support")
// that holds namespace images and journal segments as replicated shared
// files.
//
// The active writes journal batches and checkpoint images into the pool;
// juniors renew by reading the latest image plus the journal tail — from
// the local pool node when one is co-located, which is the paper's
// "obtain them locally from the pool and reduce the transmission latency".
//
// Objects carry a logical Size that may exceed len(data): experiments model
// very large namespaces (the paper's 16 MB–1 GB images) without
// materializing them, and the pool charges disk/network time for the
// logical size.
package ssp

import (
	"errors"
	"sort"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
)

// Object kinds stored in the pool.
type Kind uint8

// Pool object kinds.
const (
	KindImage   Kind = iota + 1 // checkpoint image; Seq = sn it covers
	KindJournal                 // one journal batch; Seq = its sn
)

// Key identifies one shared file.
type Key struct {
	Group string // replica group (or system) the object belongs to
	Kind  Kind
	Seq   uint64
}

// Pool errors.
var (
	ErrNotFound = errors.New("ssp: object not found")
	ErrNoPool   = errors.New("ssp: no pool node reachable")
	// ErrBrownout reports a transient data-path failure on a browned-out
	// pool node. Callers retry; the node is not down.
	ErrBrownout = errors.New("ssp: brownout transient failure")
)

// Brownout describes degraded-but-up pool service: data operations (store,
// fetch, local read) take SlowFactor× longer and every FailEvery'th one
// fails outright with ErrBrownout. Cheap metadata probes (has, list,
// delete) stay fast and reliable on purpose — a browned-out pool passes
// every liveness check while starving the data path, which is exactly what
// makes brownouts gray rather than hard-down. The zero value is healthy.
type Brownout struct {
	SlowFactor float64 // ≥1 stretches data-op service time; <=1 = none
	FailEvery  int     // every Nth data op errors; 0 = never
}

func (b Brownout) active() bool { return b.SlowFactor > 1 || b.FailEvery > 0 }

func (b Brownout) stretch(cost sim.Time) sim.Time {
	if b.SlowFactor > 1 {
		return sim.Time(float64(cost) * b.SlowFactor)
	}
	return cost
}

// Params models pool node hardware (a GbE testbed node of the paper's era).
// It is the pool's share of the plane's cost model: the simulator runs
// DefaultParams, the wire plane the zero value, which models no device at
// all — every cost is 0 (a zero bandwidth means "not modelled", not
// "infinitely slow") and stores and fetches are served inline
// (transport.Charge; their reply crosses the transport, so that is safe).
type Params struct {
	DiskWriteBW float64 // bytes per second
	DiskReadBW  float64 // bytes per second
	NetBW       float64 // bytes per second, for remote transfers
	OpOverhead  sim.Time
}

// DefaultParams returns the calibration used by the experiments.
func DefaultParams() Params {
	return Params{
		DiskWriteBW: 90e6,
		DiskReadBW:  110e6,
		NetBW:       117e6, // ~1 Gbit/s payload rate
		OpOverhead:  300 * sim.Microsecond,
	}
}

func (p Params) writeCost(size int64) sim.Time {
	return p.OpOverhead + streamCost(size, p.DiskWriteBW)
}

func (p Params) readCost(size int64) sim.Time {
	return p.OpOverhead + streamCost(size, p.DiskReadBW)
}

func (p Params) transferCost(size int64) sim.Time {
	return streamCost(size, p.NetBW)
}

// streamCost is the time size bytes take at bw bytes per second; an
// unmodelled device (bw <= 0) is free.
func streamCost(size int64, bw float64) sim.Time {
	if bw <= 0 {
		return 0
	}
	return sim.Time(float64(size) / bw * float64(sim.Second))
}

type object struct {
	data []byte
	size int64
}

// Pool node wire messages (RPC payloads).
type storeReq struct {
	Key  Key
	Data []byte
	Size int64
}

type storeResp struct {
	Err string
}

type fetchReq struct {
	Key Key
}

type fetchResp struct {
	Err  string
	Data []byte
	Size int64
}

type listReq struct {
	Group string
}

type listResp struct {
	Keys  []Key
	Sizes []int64
}

type hasReq struct {
	Key Key
}

type hasResp struct {
	Has  bool
	Size int64
}

type deleteReq struct {
	Key Key
}

type deleteResp struct{}

// PoolNode is the storage service component hosted on a server process. It
// answers store/fetch/list RPCs with service times derived from Params.
type PoolNode struct {
	host    transport.Node
	params  Params
	objects map[Key]object

	brown    Brownout
	brownOps int // data-op counter driving deterministic FailEvery failures

	// Server-side serve instruments, cached on first use. Unlike the
	// client-side mams_ssp_* metrics (labeled by the issuing host), these
	// are labeled by the *serving* pool node — the blame-attribution signal
	// the health detector needs: a browned-out node's serve latency and
	// error rate degrade while every client's own metrics stay spread
	// across the pool.
	obsInit   bool
	serveHist *obs.Histogram
	serveErrs *obs.Counter
}

// NewPoolNode attaches pool storage to a host process.
func NewPoolNode(host transport.Node, params Params) *PoolNode {
	return &PoolNode{host: host, params: params, objects: map[Key]object{}}
}

// SetBrownout puts the node in (or takes it out of) brownout mode. Passing
// the zero value restores healthy service.
func (p *PoolNode) SetBrownout(b Brownout) {
	p.brown = b
	shown := b.SlowFactor
	if shown <= 1 {
		shown = 1
	}
	if !b.active() {
		shown = 1
	}
	p.host.Obs().Gauge("mams_ssp_brownout_factor",
		"Pool data-path slowdown per node (1 = healthy).",
		"node", string(p.host.ID())).Set(shown)
}

// Brownout returns the node's current brownout configuration.
func (p *PoolNode) Brownout() Brownout { return p.brown }

// brownFail charges one data op against the brownout failure schedule and
// reports whether this op must fail. Deterministic: every FailEvery'th op.
func (p *PoolNode) brownFail() bool {
	if !p.brown.active() || p.brown.FailEvery <= 0 {
		return false
	}
	p.brownOps++
	if p.brownOps%p.brown.FailEvery != 0 {
		return false
	}
	p.host.Obs().Counter("mams_ssp_brownout_failures_total",
		"Data ops failed by brownout mode per pool node.",
		"node", string(p.host.ID())).Inc()
	return true
}

// serveObs returns the cached serve-side instruments (nil when
// observability is off; nil instruments are no-ops).
func (p *PoolNode) serveObs() (*obs.Histogram, *obs.Counter) {
	if !p.obsInit {
		p.obsInit = true
		reg := p.host.Obs()
		node := string(p.host.ID())
		p.serveHist = reg.Histogram("mams_ssp_pool_serve_seconds",
			"Data-op service time per serving pool node.",
			obs.ExpBuckets(0.0005, 2, 14), "node", node)
		p.serveErrs = reg.Counter("mams_ssp_pool_errors_total",
			"Data ops that failed at the serving pool node.", "node", node)
	}
	return p.serveHist, p.serveErrs
}

// serveDone records one completed data op: true elapsed service time (so
// host slowdown shows up too, not just the modeled cost) and the error
// outcome.
func (p *PoolNode) serveDone(start sim.Time, failed bool) {
	hist, errs := p.serveObs()
	hist.Observe((p.host.Now() - start).Seconds())
	if failed {
		errs.Inc()
	}
}

// MaybeHandleRequest serves pool RPCs addressed to the host. Hosts call it
// from HandleRequest and skip requests it consumed.
func (p *PoolNode) MaybeHandleRequest(from transport.NodeID, req any, reply func(any)) bool {
	switch m := req.(type) {
	case storeReq:
		start := p.host.Now()
		cost := p.brown.stretch(p.params.writeCost(m.Size))
		if p.brownFail() {
			// The write grinds for its (degraded) service time and then
			// errors — the slow-failure shape that defeats fast failover.
			transport.Charge(p.host, cost, "ssp-store-brownout", func() {
				p.serveDone(start, true)
				reply(storeResp{Err: ErrBrownout.Error()})
			})
			return true
		}
		transport.Charge(p.host, cost, "ssp-store", func() {
			p.serveDone(start, false)
			p.objects[m.Key] = object{data: append([]byte(nil), m.Data...), size: m.Size}
			reply(storeResp{})
		})
		return true
	case fetchReq:
		obj, ok := p.objects[m.Key]
		if !ok {
			reply(fetchResp{Err: ErrNotFound.Error()})
			return true
		}
		start := p.host.Now()
		cost := p.params.readCost(obj.size)
		if from != p.host.ID() {
			cost += p.params.transferCost(obj.size)
		}
		cost = p.brown.stretch(cost)
		if p.brownFail() {
			transport.Charge(p.host, cost, "ssp-fetch-brownout", func() {
				p.serveDone(start, true)
				reply(fetchResp{Err: ErrBrownout.Error()})
			})
			return true
		}
		transport.Charge(p.host, cost, "ssp-fetch", func() {
			p.serveDone(start, false)
			reply(fetchResp{Data: append([]byte(nil), obj.data...), Size: obj.size})
		})
		return true
	case hasReq:
		obj, ok := p.objects[m.Key]
		reply(hasResp{Has: ok, Size: obj.size})
		return true
	case listReq:
		var keys []Key
		var sizes []int64
		for k := range p.objects {
			if k.Group == m.Group {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Kind != keys[j].Kind {
				return keys[i].Kind < keys[j].Kind
			}
			return keys[i].Seq < keys[j].Seq
		})
		for _, k := range keys {
			sizes = append(sizes, p.objects[k].size)
		}
		reply(listResp{Keys: keys, Sizes: sizes})
		return true
	case deleteReq:
		delete(p.objects, m.Key)
		reply(deleteResp{})
		return true
	}
	return false
}

// LocalGet reads an object from this pool node without any network. The
// callback fires after the modeled disk-read time — always from a timer,
// even at zero cost: callers rely on it running after LocalGet returns.
func (p *PoolNode) LocalGet(key Key, cb func(data []byte, size int64, err error)) {
	obj, ok := p.objects[key]
	if !ok {
		p.host.After(0, "ssp-localget-miss", func() { cb(nil, 0, ErrNotFound) })
		return
	}
	start := p.host.Now()
	cost := p.brown.stretch(p.params.readCost(obj.size))
	if p.brownFail() {
		p.host.After(cost, "ssp-localget-brownout", func() {
			p.serveDone(start, true)
			cb(nil, 0, ErrBrownout)
		})
		return
	}
	p.host.After(cost, "ssp-localget", func() {
		p.serveDone(start, false)
		cb(append([]byte(nil), obj.data...), obj.size, nil)
	})
}

// Has reports whether the key is stored locally (no time cost; metadata
// lookups are in-memory).
func (p *PoolNode) Has(key Key) bool {
	_, ok := p.objects[key]
	return ok
}

// ObjectCount reports how many objects this node stores.
func (p *PoolNode) ObjectCount() int { return len(p.objects) }

// Client writes and reads pool objects on behalf of a host process.
type Client struct {
	host    transport.Node
	pools   []transport.NodeID
	local   *PoolNode // non-nil when a pool node is co-located with host
	replica int       // write replication factor
	timeout sim.Time

	// avoid reports pool members the owner believes are down (e.g. fenced
	// out of the group view). Put placement skips them so a surviving
	// writer does not wedge its commit backstop on a dead peer's RPC
	// timeout. The local replica is never skipped, and avoidance never
	// empties the target set — with every member suspect, placement falls
	// back to the full rotation.
	avoid func(transport.NodeID) bool

	// Observability (nil-safe no-ops without a registry on the network).
	stores     *obs.Counter
	storeBytes *obs.Counter
	fetches    *obs.Counter
	fetchBytes *obs.Counter
	timeouts   *obs.Counter
	refusals   *obs.Counter
	storeLat   *obs.Histogram
}

// NewClient builds a pool client. local may be nil; replica is clamped to
// the pool size.
func NewClient(host transport.Node, pools []transport.NodeID, local *PoolNode, replica int) *Client {
	if replica <= 0 {
		replica = 2
	}
	if replica > len(pools) {
		replica = len(pools)
	}
	reg, me := host.Obs(), string(host.ID())
	return &Client{
		host: host, pools: pools, local: local, replica: replica, timeout: 120 * sim.Second,
		stores: reg.Counter("mams_ssp_stores_total",
			"Pool store operations issued by this host.", "node", me),
		storeBytes: reg.Counter("mams_ssp_store_bytes_total",
			"Logical bytes written to the pool by this host.", "node", me),
		fetches: reg.Counter("mams_ssp_fetches_total",
			"Pool fetch operations issued by this host.", "node", me),
		fetchBytes: reg.Counter("mams_ssp_fetch_bytes_total",
			"Logical bytes read from the pool by this host.", "node", me),
		timeouts: reg.Counter("mams_ssp_rpc_timeouts_total",
			"Pool RPCs abandoned on timeout by this host.", "node", me),
		refusals: reg.Counter("mams_ssp_rpc_refused_total",
			"Pool RPCs failed at once because the pool node's address refused the connection.", "node", me),
		storeLat: reg.Histogram("mams_ssp_store_seconds",
			"End-to-end pool store latency (all replicas acknowledged).",
			obs.ExpBuckets(0.001, 10, 5), "node", me),
	}
}

// SetAvoid installs a liveness hint consulted at Put placement time (may
// be nil). It is advisory: reads are unaffected, and a stale hint costs at
// most replica placement, never correctness.
func (c *Client) SetAvoid(f func(transport.NodeID) bool) { c.avoid = f }

// targets picks the replica set for a key: the local node first (cheap
// sequential local write), then deterministic rotation by Seq so load
// spreads across the pool. Members the avoid hint marks down are skipped
// unless that would leave no target at all.
func (c *Client) targets(key Key) []transport.NodeID {
	ordered := make([]transport.NodeID, 0, len(c.pools))
	skipped := false
	if c.local != nil {
		ordered = append(ordered, c.host.ID())
	}
	if n := len(c.pools); n > 0 {
		start := int(key.Seq) % n
		for i := 0; i < n; i++ {
			id := c.pools[(start+i)%n]
			if c.local != nil && id == c.host.ID() {
				continue
			}
			if c.avoid != nil && c.avoid(id) {
				skipped = true
				continue
			}
			ordered = append(ordered, id)
		}
		if len(ordered) == 0 && skipped {
			// Everything is suspect: fall back to the full rotation rather
			// than refusing to place the object anywhere.
			for i := 0; i < n; i++ {
				ordered = append(ordered, c.pools[(start+i)%n])
			}
		}
	}
	if len(ordered) > c.replica {
		ordered = ordered[:c.replica]
	}
	return ordered
}

// Put replicates an object to the pool and reports once all replicas have
// acknowledged (journal durability requires every copy).
func (c *Client) Put(key Key, data []byte, size int64, cb func(err error)) {
	targets := c.targets(key)
	if len(targets) == 0 {
		c.host.After(0, "ssp-put-nopool", func() { cb(ErrNoPool) })
		return
	}
	c.stores.Inc()
	c.storeBytes.Add(float64(size))
	// Size the store timeout to the object, as getRemote does for fetches: a
	// dropped request for a small journal batch must fail (and be retried by
	// the caller) in seconds, not stall a commit pipeline for the flat
	// worst-case window an image-sized transfer needs.
	putTimeout := 10*sim.Second + sim.Time(float64(size)/50e6*float64(sim.Second))
	if putTimeout > c.timeout {
		putTimeout = c.timeout
	}
	// One allocation holds the round's state, and the request is boxed once
	// for every replica.
	round := &putRound{c: c, cb: cb, started: c.host.Now(), remaining: len(targets)}
	var req any = storeReq{Key: key, Data: data, Size: size}
	for _, target := range targets {
		c.host.Call(target, req, putTimeout, func(resp any, err error) {
			if err == nil {
				if sr := resp.(storeResp); sr.Err != "" {
					err = errors.New(sr.Err)
				}
			}
			round.finish(err)
		})
	}
}

// putRound is one Put's progress over its replicas.
type putRound struct {
	c         *Client
	cb        func(err error)
	started   sim.Time
	remaining int
	firstErr  error
}

// finish records one replica's outcome and reports the Put once every
// replica has answered.
func (r *putRound) finish(err error) {
	r.c.countErr(err)
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	r.remaining--
	if r.remaining == 0 {
		if r.firstErr == nil {
			r.c.storeLat.Observe((r.c.host.Now() - r.started).Seconds())
		}
		r.cb(r.firstErr)
	}
}

// countErr counts a failed pool RPC under what failed it: a time-out, or a
// refused connection (which fails at once, not at the deadline).
func (c *Client) countErr(err error) {
	switch err {
	case transport.ErrTimeout:
		c.timeouts.Inc()
	case transport.ErrRefused:
		c.refusals.Inc()
	}
}

// Get fetches an object, preferring the co-located pool node ("the junior
// may obtain them locally from the pool") and falling back to remote
// replicas.
func (c *Client) Get(key Key, cb func(data []byte, size int64, err error)) {
	c.fetches.Inc()
	wrapped := func(data []byte, size int64, err error) {
		if err == nil {
			c.fetchBytes.Add(float64(size))
		}
		cb(data, size, err)
	}
	if c.local != nil && c.local.Has(key) {
		c.local.LocalGet(key, func(data []byte, size int64, err error) {
			if err != nil {
				// A browned-out or failing local replica must not mask the
				// healthy remote copies (every object has ReplicaN of them).
				c.getRemote(key, 0, wrapped)
				return
			}
			wrapped(data, size, nil)
		})
		return
	}
	c.getRemote(key, 0, wrapped)
}

func (c *Client) getRemote(key Key, idx int, cb func(data []byte, size int64, err error)) {
	// Skip self (already checked via local).
	for idx < len(c.pools) && c.pools[idx] == c.host.ID() {
		idx++
	}
	if idx >= len(c.pools) {
		cb(nil, 0, ErrNotFound)
		return
	}
	target := c.pools[idx]
	// Cheap existence probe first: a dead or copyless replica is skipped
	// in seconds instead of stalling for an image-sized transfer timeout.
	c.host.Call(target, hasReq{Key: key}, 2*sim.Second, func(resp any, err error) {
		if err != nil {
			c.countErr(err)
			c.getRemote(key, idx+1, cb)
			return
		}
		hr, ok := resp.(hasResp)
		if !ok || !hr.Has {
			c.getRemote(key, idx+1, cb)
			return
		}
		// Size the transfer timeout to the object: a replica that dies
		// mid-transfer is abandoned after ~2x the expected time instead of
		// a flat worst-case wait.
		fetchTimeout := 10*sim.Second + sim.Time(float64(hr.Size)/50e6*float64(sim.Second))
		if fetchTimeout > c.timeout {
			fetchTimeout = c.timeout
		}
		c.host.Call(target, fetchReq{Key: key}, fetchTimeout, func(resp any, err error) {
			if err != nil {
				c.countErr(err)
				c.getRemote(key, idx+1, cb)
				return
			}
			fr := resp.(fetchResp)
			if fr.Err != "" {
				c.getRemote(key, idx+1, cb)
				return
			}
			cb(fr.Data, fr.Size, nil)
		})
	})
}

// List returns the keys (and logical sizes) stored for a group, merging the
// views of reachable pool nodes so a single down replica cannot hide the
// journal tail.
func (c *Client) List(group string, cb func(keys []Key, sizes map[Key]int64, err error)) {
	merged := map[Key]int64{}
	remaining := len(c.pools)
	anyOK := false
	if remaining == 0 {
		c.host.After(0, "ssp-list-nopool", func() { cb(nil, nil, ErrNoPool) })
		return
	}
	finish := func(ok bool) {
		if ok {
			anyOK = true
		}
		remaining--
		if remaining > 0 {
			return
		}
		if !anyOK {
			cb(nil, nil, ErrNoPool)
			return
		}
		keys := make([]Key, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Kind != keys[j].Kind {
				return keys[i].Kind < keys[j].Kind
			}
			return keys[i].Seq < keys[j].Seq
		})
		cb(keys, merged, nil)
	}
	for _, p := range c.pools {
		c.host.Call(p, listReq{Group: group}, 2*sim.Second, func(resp any, err error) {
			if err != nil {
				finish(false)
				return
			}
			lr := resp.(listResp)
			for i, k := range lr.Keys {
				merged[k] = lr.Sizes[i]
			}
			finish(true)
		})
	}
}

// Delete removes an object from every pool node (checkpoint garbage
// collection). Best effort.
func (c *Client) Delete(key Key) {
	for _, p := range c.pools {
		c.host.Call(p, deleteReq{Key: key}, 2*sim.Second, func(any, error) {})
	}
}
