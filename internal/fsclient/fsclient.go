// Package fsclient implements the file-system client used by workloads and
// by the MapReduce substrate. It routes operations to the owning replica
// group (hash partitioning), and reconnects to the new active
// transparently after a failover — the paper's claim that "the client can
// reconnect to the new active directly and automatically after
// active-standby switching and resend requests when needed".
package fsclient

import (
	"errors"
	"sort"

	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/transport"
)

// ErrUnavailable reports that every attempt failed within the retry budget.
var ErrUnavailable = errors.New("fsclient: metadata service unavailable")

// Result records the outcome of one operation for metrics collection.
type Result struct {
	Kind    mams.OpKind
	Path    string
	Start   sim.Time
	End     sim.Time
	Err     error
	Retries int

	// SN/Epoch identify the journal batch that carried a mutation (zero
	// for reads and failures). DurableSN is the group's durability
	// watermark at reply time: under AsyncAck an op is known durable once
	// any reply from the same epoch reports DurableSN >= SN.
	SN        uint64
	Epoch     uint64
	DurableSN uint64
}

// Config assembles a client.
type Config struct {
	ID          transport.NodeID
	Groups      [][]transport.NodeID // replica-group members by group index
	Partitioner *partition.Partitioner
	// RequestTimeout bounds one RPC attempt (default 1 s, mirroring an
	// HDFS-era IPC timeout).
	RequestTimeout sim.Time
	// RetryBackoff is the initial backoff between attempts (default
	// 100 ms, doubling up to 1.6 s).
	RetryBackoff sim.Time
	// OnResult observes every completed operation (may be nil).
	OnResult func(Result)
}

func (c *Config) defaults() {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = sim.Second
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * sim.Millisecond
	}
}

// maxAttempts bounds the attempts per operation; after it the operation
// fails with ErrUnavailable.
const maxAttempts = 60

// Client issues metadata operations against a MAMS-style multi-group
// metadata service.
type Client struct {
	cfg     Config
	node    transport.Node
	actives []transport.NodeID // cached active per group ("" = unknown)
	nextReq uint64
	idSalt  uint64
	probe   []int // round-robin cursor per group for WhoIsActive
	// mapRefreshes counts shard-map adoptions from StaleMap replies — the
	// client-side cache-invalidation signal (no central lookups happen).
	mapRefreshes uint64
}

// New registers the client process on the network.
func New(net transport.Transport, cfg Config) *Client {
	cfg.defaults()
	// The client owns its shard-map cache: StaleMap adoptions must not leak
	// into the shared seed partitioner or into sibling clients.
	if cfg.Partitioner != nil {
		cfg.Partitioner = cfg.Partitioner.Clone()
	}
	c := &Client{cfg: cfg, actives: make([]transport.NodeID, len(cfg.Groups)), probe: make([]int, len(cfg.Groups))}
	for _, ch := range cfg.ID {
		c.idSalt = c.idSalt*131 + uint64(ch)
	}
	c.node = net.Listen(cfg.ID, c)
	return c
}

// MapEpoch exposes the cached shard-map epoch (tests, experiments).
func (c *Client) MapEpoch() uint64 {
	if c.cfg.Partitioner == nil {
		return 0
	}
	return c.cfg.Partitioner.Epoch()
}

// MapRefreshes counts shard maps adopted from StaleMap routing rejections.
func (c *Client) MapRefreshes() uint64 { return c.mapRefreshes }

// Node exposes the client's simulated process.
func (c *Client) Node() transport.Node { return c.node }

// HandleMessage implements transport.Handler (clients only use RPCs).
func (c *Client) HandleMessage(from transport.NodeID, msg any) {}

func (c *Client) reqID() uint64 {
	c.nextReq++
	return c.idSalt<<32 | c.nextReq
}

// Create makes a file of the given size.
func (c *Client) Create(path string, size int64, cb func(err error)) {
	c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpCreate, Path: path, Size: size},
		func(rep mams.OpReply, err error) { cb(err) })
}

// Mkdir makes a directory (parent must exist).
func (c *Client) Mkdir(path string, cb func(err error)) {
	c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpMkdir, Path: path},
		func(rep mams.OpReply, err error) { cb(err) })
}

// Delete removes a file or empty directory.
func (c *Client) Delete(path string, cb func(err error)) {
	c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpDelete, Path: path},
		func(rep mams.OpReply, err error) { cb(err) })
}

// Rename moves a file or directory.
func (c *Client) Rename(src, dst string, cb func(err error)) {
	c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpRename, Path: src, Dest: dst},
		func(rep mams.OpReply, err error) { cb(err) })
}

// Stat returns file metadata (the paper's getfileinfo).
func (c *Client) Stat(path string, cb func(info *namespace.Info, err error)) {
	c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpStat, Path: path},
		func(rep mams.OpReply, err error) { cb(rep.Info, err) })
}

// List returns a directory's children. Directories are replicated in every
// group but file entries are partitioned by path hash, so the client fans
// the listing out to every replica group and merges the results (duplicate
// directory entries collapse; files are unique to their home group).
func (c *Client) List(path string, cb func(infos []namespace.Info, err error)) {
	groups := len(c.cfg.Groups)
	if groups == 1 {
		c.do(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpList, Path: path},
			func(rep mams.OpReply, err error) { cb(rep.Infos, err) })
		return
	}
	type part struct {
		infos []namespace.Info
		err   error
	}
	parts := make([]part, groups)
	remaining := groups
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		seen := map[string]bool{}
		var merged []namespace.Info
		var firstErr error
		for _, p := range parts {
			if p.err != nil {
				if firstErr == nil {
					firstErr = p.err
				}
				continue
			}
			for _, info := range p.infos {
				if seen[info.Path] {
					continue
				}
				seen[info.Path] = true
				merged = append(merged, info)
			}
		}
		if len(merged) == 0 && firstErr != nil {
			cb(nil, firstErr)
			return
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Path < merged[j].Path })
		cb(merged, nil)
	}
	for g := 0; g < groups; g++ {
		g := g
		op := mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpList, Path: path}
		start := c.node.Now()
		c.attempt(op, g, 0, start, func(rep mams.OpReply, err error) {
			parts[g] = part{infos: rep.Infos, err: err}
			finish()
		})
	}
}

// do runs one logical operation with transparent reconnection.
func (c *Client) do(op mams.ClientOp, cb func(mams.OpReply, error)) {
	group := mams.LeadGroup(c.cfg.Partitioner, op)
	start := c.node.Now()
	c.attempt(op, group, 0, start, cb)
}

func (c *Client) finish(op mams.ClientOp, start sim.Time, retries int, rep mams.OpReply, err error, cb func(mams.OpReply, error)) {
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(Result{
			Kind: op.Kind, Path: op.Path, Start: start,
			End: c.node.Now(), Err: err, Retries: retries,
			SN: rep.SN, Epoch: rep.Epoch, DurableSN: rep.DurableSN,
		})
	}
	cb(rep, err)
}

func (c *Client) attempt(op mams.ClientOp, group, tries int, start sim.Time, cb func(mams.OpReply, error)) {
	if tries >= maxAttempts {
		c.finish(op, start, tries, mams.OpReply{}, ErrUnavailable, cb)
		return
	}
	target := c.actives[group]
	if target == "" {
		c.probe[group]++
		mams.ResolveActive(c.node, c.cfg.Groups, group, c.probe[group], func(active transport.NodeID) {
			if active == "" {
				c.backoffRetry(op, group, tries, start, cb)
				return
			}
			c.actives[group] = active
			c.attempt(op, group, tries, start, cb)
		})
		return
	}
	if c.cfg.Partitioner != nil {
		op.MapEpoch = c.cfg.Partitioner.Epoch()
	}
	c.node.Call(target, op, c.cfg.RequestTimeout, func(resp any, err error) {
		if err != nil {
			// Timeout or dead server: drop the cached active and retry.
			c.actives[group] = ""
			c.backoffRetry(op, group, tries, start, cb)
			return
		}
		rep, ok := resp.(mams.OpReply)
		if !ok {
			c.backoffRetry(op, group, tries, start, cb)
			return
		}
		if rep.NotActive {
			if rep.Hint != "" && rep.Hint != target {
				c.actives[group] = rep.Hint
			} else {
				c.actives[group] = ""
			}
			c.backoffRetry(op, group, tries, start, cb)
			return
		}
		if rep.SlotMoving {
			// The slot is frozen mid-migration; the op never executed.
			// Back off until the flip lands.
			c.backoffRetry(op, group, tries, start, cb)
			return
		}
		if rep.StaleMap {
			// Routing rejection: adopt the server's (strictly newer) map and
			// re-route immediately; if the server is the one behind, our
			// Install rejects its map and we back off while it catches up.
			adopted := rep.Map != nil && c.cfg.Partitioner != nil && c.cfg.Partitioner.Install(rep.Map)
			if adopted {
				c.mapRefreshes++
				if op.Kind != mams.OpList {
					if ng := mams.LeadGroup(c.cfg.Partitioner, op); ng != group {
						c.attempt(op, ng, tries+1, start, cb)
						return
					}
				}
			}
			c.backoffRetry(op, group, tries, start, cb)
			return
		}
		if rep.Err != "" {
			err := errors.New(rep.Err)
			// Duplicate-message handling (§IV.C): a retried mutation may
			// have taken effect before the failover; the resulting
			// exists/not-found answers mean the original succeeded.
			if tries > 0 && c.duplicateOutcome(op, rep.Err) {
				c.finish(op, start, tries, mams.OpReply{}, nil, cb)
				return
			}
			c.finish(op, start, tries, rep, err, cb)
			return
		}
		c.finish(op, start, tries, rep, nil, cb)
	})
}

// duplicateOutcome recognizes the footprint of a retried mutation that
// already executed.
func (c *Client) duplicateOutcome(op mams.ClientOp, errStr string) bool {
	switch op.Kind {
	case mams.OpCreate, mams.OpMkdir:
		return errStr == namespace.ErrExists.Error()
	case mams.OpDelete:
		return errStr == namespace.ErrNotFound.Error()
	case mams.OpRename:
		return errStr == namespace.ErrNotFound.Error()
	}
	return false
}

// maxBackoffShift caps the retry back-off at RetryBackoff << 4 (16×). The
// exponent is capped, not the product: shifting by the attempt count first
// overflows sim.Time late in the attempt budget.
const maxBackoffShift = 4

func (c *Client) backoffRetry(op mams.ClientOp, group, tries int, start sim.Time, cb func(mams.OpReply, error)) {
	shift := tries
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	c.node.After(c.cfg.RetryBackoff<<uint(shift), "fsclient-retry", func() {
		c.attempt(op, group, tries+1, start, cb)
	})
}
