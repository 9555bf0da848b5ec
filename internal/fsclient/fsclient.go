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
	probe   []int   // round-robin cursor per group for WhoIsActive
	free    []*call // finished operations' state, for reuse: at most the peak in flight
	// refused names, per group, a member whose address refused a call
	// since the group's last WhoIsActive, which names it (mams.WhoIsActive).
	refused []transport.NodeID
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
	c := &Client{
		cfg:     cfg,
		actives: make([]transport.NodeID, len(cfg.Groups)),
		probe:   make([]int, len(cfg.Groups)),
		refused: make([]transport.NodeID, len(cfg.Groups)),
	}
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
	c.mutate(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpCreate, Path: path, Size: size}, cb)
}

// Mkdir makes a directory (parent must exist).
func (c *Client) Mkdir(path string, cb func(err error)) {
	c.mutate(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpMkdir, Path: path}, cb)
}

// Delete removes a file or empty directory.
func (c *Client) Delete(path string, cb func(err error)) {
	c.mutate(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpDelete, Path: path}, cb)
}

// Rename moves a file or directory.
func (c *Client) Rename(src, dst string, cb func(err error)) {
	c.mutate(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpRename, Path: src, Dest: dst}, cb)
}

// mutate runs an operation whose caller wants only its error.
func (c *Client) mutate(op mams.ClientOp, cb func(err error)) {
	k := c.newCall(op)
	k.ack = cb
	c.do(k)
}

// Stat returns file metadata (the paper's getfileinfo). The reply carries
// no path, as HDFS's getFileInfo does not: Info.Path is the path asked for
// and Info.Name its last segment (namespace.Base), both restored here from
// the request.
func (c *Client) Stat(path string, cb func(info *namespace.Info, err error)) {
	k := c.newCall(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpStat, Path: path})
	k.stat = cb
	c.do(k)
}

// List returns a directory's children. Directories are replicated in every
// group but file entries are partitioned by path hash, so the client fans
// the listing out to every replica group and merges the results (duplicate
// directory entries collapse; files are unique to their home group). Every
// group holds the directory, so a group that fails leaves the listing
// incomplete: List then returns the first failed group's error and no
// entries.
func (c *Client) List(path string, cb func(infos []namespace.Info, err error)) {
	groups := len(c.cfg.Groups)
	if groups == 1 {
		k := c.newCall(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpList, Path: path})
		k.list = func(rep mams.OpReply, err error) { cb(rep.Infos, err) }
		c.do(k)
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
		for _, p := range parts {
			if p.err != nil {
				cb(nil, p.err)
				return
			}
			for _, info := range p.infos {
				if seen[info.Path] {
					continue
				}
				seen[info.Path] = true
				merged = append(merged, info)
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Path < merged[j].Path })
		cb(merged, nil)
	}
	for g := 0; g < groups; g++ {
		k := c.newCall(mams.ClientOp{ReqID: c.reqID(), Kind: mams.OpList, Path: path})
		k.group = g
		k.list = func(rep mams.OpReply, err error) {
			parts[g] = part{infos: rep.Infos, err: err}
			finish()
		}
		k.attempt()
	}
}

// call is one operation in flight: the request, the group it goes to, the
// attempts so far, when it started, and the caller's callback. Its bound
// callbacks (onReply, onActive, onRetry) are made once, with the call. A
// finished call goes back on Client.free for the next operation, so an
// attempt allocates no closure. At most one Call, WhoIsActive lookup or
// back-off timer of a call is outstanding at a time, and the call finishes
// from that one's callback, so nothing still refers to it when it is reused.
type call struct {
	c      *Client
	op     mams.ClientOp
	group  int
	tries  int
	start  sim.Time
	target transport.NodeID // where the outstanding Call went

	// The caller's callback: exactly one is set.
	ack  func(error)                  // Create, Mkdir, Delete, Rename
	stat func(*namespace.Info, error) // Stat
	list func(mams.OpReply, error)    // List, one group's part

	onReply  func(resp any, err error) // k.reply
	onActive func(transport.NodeID)    // k.resolved
	onRetry  func()                    // k.retry
}

// newCall returns a call for op, reused when one has finished, started now
// and aimed at group 0.
func (c *Client) newCall(op mams.ClientOp) *call {
	var k *call
	if n := len(c.free); n > 0 {
		k, c.free = c.free[n-1], c.free[:n-1]
	} else {
		k = &call{c: c}
		k.onReply, k.onActive, k.onRetry = k.reply, k.resolved, k.retry
	}
	k.op, k.start = op, c.node.Now()
	return k
}

// do runs one logical operation with transparent reconnection.
func (c *Client) do(k *call) {
	k.group = mams.LeadGroup(c.cfg.Partitioner, k.op)
	k.attempt()
}

// finish reports the operation, puts the call back for reuse and then hands
// the outcome to the caller, whose callback may start the next operation on
// this very call.
func (k *call) finish(rep mams.OpReply, err error) {
	c := k.c
	if c.cfg.OnResult != nil {
		c.cfg.OnResult(Result{
			Kind: k.op.Kind, Path: k.op.Path, Start: k.start,
			End: c.node.Now(), Err: err, Retries: k.tries,
			SN: rep.SN, Epoch: rep.Epoch, DurableSN: rep.DurableSN,
		})
	}
	path, ack, stat, list := k.op.Path, k.ack, k.stat, k.list
	*k = call{c: c, onReply: k.onReply, onActive: k.onActive, onRetry: k.onRetry}
	c.free = append(c.free, k)
	switch {
	case ack != nil:
		ack(err)
	case stat != nil:
		if rep.Info != nil {
			rep.Info.Path, rep.Info.Name = path, namespace.Base(path)
		}
		stat(rep.Info, err)
	default:
		list(rep, err)
	}
}

// attempt sends the op to its group's active, looking the active up first
// when the client does not know it.
func (k *call) attempt() {
	c := k.c
	if k.tries >= maxAttempts {
		k.finish(mams.OpReply{}, ErrUnavailable)
		return
	}
	target := c.actives[k.group]
	if target == "" {
		c.probe[k.group]++
		refused := c.refused[k.group]
		c.refused[k.group] = ""
		mams.ResolveActive(c.node, c.cfg.Groups, k.group, c.probe[k.group], refused, k.onActive)
		return
	}
	if c.cfg.Partitioner != nil {
		k.op.MapEpoch = c.cfg.Partitioner.Epoch()
	}
	k.target = target
	c.node.Call(target, k.op, c.cfg.RequestTimeout, k.onReply)
}

// resolved continues an attempt once the WhoIsActive lookup has answered.
func (k *call) resolved(active transport.NodeID) {
	if active == "" {
		k.backoff()
		return
	}
	k.c.actives[k.group] = active
	k.attempt()
}

// reply handles the answer to an attempt's Call.
func (k *call) reply(resp any, err error) {
	c := k.c
	if err != nil {
		// Timeout or dead server: drop the cached active and retry. A
		// refusal is passed on with the next WhoIsActive.
		c.actives[k.group] = ""
		if err == transport.ErrRefused {
			c.refused[k.group] = k.target
		}
		k.backoff()
		return
	}
	rep, ok := resp.(mams.OpReply)
	if !ok {
		k.backoff()
		return
	}
	if rep.NotActive {
		if rep.Hint != "" && rep.Hint != k.target {
			c.actives[k.group] = rep.Hint
		} else {
			c.actives[k.group] = ""
		}
		k.backoff()
		return
	}
	if rep.SlotMoving {
		// The slot is frozen mid-migration; the op never executed.
		// Back off until the flip lands.
		k.backoff()
		return
	}
	if rep.StaleMap {
		// Routing rejection: adopt the server's (strictly newer) map and
		// re-route immediately; if the server is the one behind, our
		// Install rejects its map and we back off while it catches up.
		adopted := rep.Map != nil && c.cfg.Partitioner != nil && c.cfg.Partitioner.Install(rep.Map)
		if adopted {
			c.mapRefreshes++
			if k.op.Kind != mams.OpList {
				if ng := mams.LeadGroup(c.cfg.Partitioner, k.op); ng != k.group {
					k.group = ng
					k.tries++
					k.attempt()
					return
				}
			}
		}
		k.backoff()
		return
	}
	if rep.Err != "" {
		// Duplicate-message handling (§IV.C): a retried mutation may
		// have taken effect before the failover; the resulting
		// exists/not-found answers mean the original succeeded.
		if k.tries > 0 && c.duplicateOutcome(k.op, rep.Err) {
			k.finish(mams.OpReply{}, nil)
			return
		}
		k.finish(rep, errors.New(rep.Err))
		return
	}
	k.finish(rep, nil)
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

// backoff schedules the next attempt.
func (k *call) backoff() {
	shift := min(k.tries, maxBackoffShift)
	k.c.node.After(k.c.cfg.RetryBackoff<<uint(shift), "fsclient-retry", k.onRetry)
}

// retry is the next attempt, after a back-off.
func (k *call) retry() {
	k.tries++
	k.attempt()
}
