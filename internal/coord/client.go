package coord

import (
	"hash/fnv"

	"mams/internal/sim"
	"mams/internal/transport"
)

// ClientConfig configures a coordination-service client.
type ClientConfig struct {
	Servers []transport.NodeID
	// SessionTimeout is proposed when the session is created; the ensemble
	// expires the session after this much silence (the paper sets 5 s).
	SessionTimeout sim.Time
	// HeartbeatEvery is the ping period (the paper sets 2 s).
	HeartbeatEvery sim.Time
}

func (c *ClientConfig) defaults() {
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 5 * sim.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 2 * sim.Second
	}
}

// A client's retry budget for one logical request.
const (
	// requestTimeout bounds one RPC attempt.
	requestTimeout = 300 * sim.Millisecond
	// maxAttempts bounds the attempts per logical request.
	maxAttempts = 40
)

// Client gives a host process (an MDS, a failover controller) access to the
// coordination service. It shares the host's network identity, so
// unplugging the host also silences its session — exactly how a real
// ZooKeeper client dies with its machine.
//
// The host must route unrecognized incoming messages through MaybeHandle so
// watch events reach the client.
type Client struct {
	cfg     ClientConfig
	host    transport.Node
	onEvent func(WatchEvent)

	session     uint64
	leader      int // index into cfg.Servers of the current guess
	nextReq     uint64
	idHash      uint64
	expired     bool
	started     bool
	hbTimer     transport.Timer
	destroyed   bool
	lastContact sim.Time
}

// NewClient attaches a client to host. onEvent receives watch events and
// the synthetic EventSessionExpired; it may be nil.
func NewClient(host transport.Node, cfg ClientConfig, onEvent func(WatchEvent)) *Client {
	cfg.defaults()
	if len(cfg.Servers) == 0 {
		panic("coord: client needs at least one server")
	}
	h := fnv.New64a()
	h.Write([]byte(host.ID()))
	return &Client{cfg: cfg, host: host, onEvent: onEvent, idHash: h.Sum64()}
}

// Session returns the current session id (0 before Start or after expiry).
func (c *Client) Session() uint64 {
	if c.expired {
		return 0
	}
	return c.session
}

// Expired reports whether the session has been expired by the ensemble.
func (c *Client) Expired() bool { return c.expired }

// LastContact returns the time of the last successful exchange with the
// ensemble, stamped on the *host's local clock* (transport.Node.LocalNow) —
// a real process can only read its own clock. Servers use it as a lease:
// an active that has been out of contact for close to the session timeout
// must assume its ephemerals are gone and self-fence. Lease arithmetic
// must therefore compare against LocalNow, never true virtual time, or
// the model hides exactly the clock-skew hazard it should exhibit.
func (c *Client) LastContact() sim.Time { return c.lastContact }

func (c *Client) touch() { c.lastContact = c.host.LocalNow() }

func (c *Client) reqID() uint64 {
	c.nextReq++
	return c.idHash&0xFFFFFFFF00000000 | c.nextReq
}

// MaybeHandle consumes coordination-service messages addressed to the host.
// Hosts call it first in their HandleMessage and skip messages it consumed.
func (c *Client) MaybeHandle(from transport.NodeID, msg any) bool {
	if ev, ok := msg.(WatchEvent); ok {
		if c.onEvent != nil && !c.expired {
			c.onEvent(ev)
		}
		return true
	}
	return false
}

// Start creates a session and begins heartbeating.
func (c *Client) Start(cb func(err error)) {
	op := Op{
		ReqID: c.reqID(), Kind: opCreateSession,
		ClientNode: c.host.ID(), TimeoutNs: int64(c.cfg.SessionTimeout),
	}
	c.request(op, func(res *Result, err error) {
		if err != nil {
			cb(err)
			return
		}
		c.session = res.Session
		c.expired = false
		c.started = true
		c.touch()
		c.armHeartbeat()
		cb(nil)
	})
}

// Restart abandons the expired session and creates a fresh one.
func (c *Client) Restart(cb func(err error)) {
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
	c.session = 0
	c.expired = false
	c.Start(cb)
}

// Stop ceases heartbeating (the session will expire server-side). Used when
// a host process shuts down cleanly without closing the session.
func (c *Client) Stop() {
	c.destroyed = true
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
}

// Close gracefully closes the session, releasing ephemerals immediately.
func (c *Client) Close(cb func(err error)) {
	c.Stop()
	op := Op{ReqID: c.reqID(), Kind: opCloseSession, Session: c.session}
	c.request(op, func(res *Result, err error) {
		if cb != nil {
			cb(err)
		}
	})
}

func (c *Client) armHeartbeat() {
	if c.destroyed || c.expired {
		return
	}
	c.hbTimer = c.host.After(c.cfg.HeartbeatEvery, "coord-heartbeat", func() {
		c.ping()
		c.armHeartbeat()
	})
}

func (c *Client) ping() {
	if c.expired || c.destroyed {
		return
	}
	target := c.cfg.Servers[c.leader]
	c.host.Call(target, pingRequest{Session: c.session}, requestTimeout,
		func(resp any, err error) {
			if err != nil {
				// Try another member next time; the heartbeat cadence
				// itself provides the retry loop.
				c.leader = (c.leader + 1) % len(c.cfg.Servers)
				return
			}
			cr := resp.(clientResponse)
			if cr.NotLeader {
				c.adoptRedirect(cr.Redirect)
				return
			}
			if decodeErr(cr.Res.Err) == ErrSessionExpired {
				c.expire()
				return
			}
			c.touch()
		})
}

// expire marks the session dead and tells the host once.
func (c *Client) expire() {
	if c.expired {
		return
	}
	c.expired = true
	if c.hbTimer != nil {
		c.hbTimer.Stop()
	}
	if c.onEvent != nil {
		c.onEvent(WatchEvent{Type: EventSessionExpired})
	}
}

func (c *Client) adoptRedirect(leader transport.NodeID) {
	if leader == "" {
		c.leader = (c.leader + 1) % len(c.cfg.Servers)
		return
	}
	for i, s := range c.cfg.Servers {
		if s == leader {
			c.leader = i
			return
		}
	}
}

// request retries a logical op (stable ReqID) until a result arrives or
// attempts are exhausted.
func (c *Client) request(op Op, cb func(*Result, error)) {
	c.toLeader(clientRequest{Op: op}, 0, func(cr clientResponse, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		resErr := decodeErr(cr.Res.Err)
		if resErr == ErrSessionExpired && op.Session != 0 && op.Session == c.session {
			c.expire()
		} else {
			c.touch()
		}
		res := cr.Res
		cb(&res, resErr)
	})
}

// toLeader sends req to the guessed leader until a leader answers it or
// the attempts run out (ErrNoQuorum): a failed call moves the guess on to
// the next member, and a NotLeader answer follows its redirect.
func (c *Client) toLeader(req any, tries int, done func(clientResponse, error)) {
	if tries >= maxAttempts {
		done(clientResponse{}, ErrNoQuorum)
		return
	}
	target := c.cfg.Servers[c.leader]
	c.host.Call(target, req, requestTimeout, func(resp any, err error) {
		if err != nil {
			c.leader = (c.leader + 1) % len(c.cfg.Servers)
			c.toLeader(req, tries+1, done)
			return
		}
		cr := resp.(clientResponse)
		if cr.NotLeader {
			c.adoptRedirect(cr.Redirect)
			c.toLeader(req, tries+1, done)
			return
		}
		done(cr, nil)
	})
}

// ForceExpireNode tells the ensemble to invalidate every session owned by
// the given client node (fault injection: the node's ephemerals vanish when
// its frozen session times out, and the node itself learns "expired" at its
// next heartbeat).
func (c *Client) ForceExpireNode(node transport.NodeID, cb func(err error)) {
	c.toLeader(poisonRequest{Node: node}, 0, func(_ clientResponse, err error) { cb(err) })
}

// ReportRefused tells the ensemble leader that node's address refused a
// call. It is a hint, not a verdict: the leader probes node itself and
// ends node's sessions early only if its own probes are refused too
// (Server.probeRefused); anything else leaves them to their time-out.
func (c *Client) ReportRefused(node transport.NodeID, cb func(err error)) {
	c.toLeader(refusedReport{Node: node}, 0, func(_ clientResponse, err error) { cb(err) })
}

// sessOp builds an op bound to the current session.
func (c *Client) sessOp(kind OpKind, path string) Op {
	return Op{ReqID: c.reqID(), Kind: kind, Session: c.session, Path: path, Version: -1}
}

// Create makes a persistent znode.
func (c *Client) Create(path string, data []byte, cb func(created string, err error)) {
	op := c.sessOp(opCreate, path)
	op.Data = data
	c.request(op, func(res *Result, err error) { cb(pathOf(res), err) })
}

// CreateEphemeral makes a znode that dies with this session — the liveness
// primitive behind the MAMS global view and lock.
func (c *Client) CreateEphemeral(path string, data []byte, cb func(created string, err error)) {
	op := c.sessOp(opCreate, path)
	op.Data = data
	op.Ephemeral = true
	c.request(op, func(res *Result, err error) { cb(pathOf(res), err) })
}

// CreateSequential makes a persistent znode with a server-assigned
// monotonic suffix.
func (c *Client) CreateSequential(path string, data []byte, cb func(created string, err error)) {
	op := c.sessOp(opCreate, path)
	op.Data = data
	op.Sequential = true
	c.request(op, func(res *Result, err error) { cb(pathOf(res), err) })
}

func pathOf(res *Result) string {
	if res == nil {
		return ""
	}
	return res.Path
}

// Delete removes a znode. version -1 matches any version.
func (c *Client) Delete(path string, version int64, cb func(err error)) {
	op := c.sessOp(opDelete, path)
	op.Version = version
	c.request(op, func(res *Result, err error) { cb(err) })
}

// SetData overwrites a znode's payload; version -1 skips the CAS check.
func (c *Client) SetData(path string, data []byte, version int64, cb func(newVersion int64, err error)) {
	op := c.sessOp(opSetData, path)
	op.Data = data
	op.Version = version
	c.request(op, func(res *Result, err error) {
		if res == nil {
			cb(0, err)
			return
		}
		cb(res.Version, err)
	})
}

// GetData reads a znode, optionally leaving a one-shot watch (which also
// fires on later creation if the node is currently absent).
func (c *Client) GetData(path string, watch bool, cb func(data []byte, version int64, err error)) {
	op := c.sessOp(opGetData, path)
	op.Watch = watch
	c.request(op, func(res *Result, err error) {
		if res == nil {
			cb(nil, 0, err)
			return
		}
		cb(res.Data, res.Version, err)
	})
}

// Exists checks presence, optionally leaving a one-shot watch.
func (c *Client) Exists(path string, watch bool, cb func(exists bool, err error)) {
	op := c.sessOp(opExists, path)
	op.Watch = watch
	c.request(op, func(res *Result, err error) {
		if res == nil {
			cb(false, err)
			return
		}
		cb(res.Exists, err)
	})
}

// Children lists a znode's children (full paths, sorted), optionally
// leaving a one-shot children watch.
func (c *Client) Children(path string, watch bool, cb func(children []string, err error)) {
	op := c.sessOp(opChildren, path)
	op.Watch = watch
	c.request(op, func(res *Result, err error) {
		if res == nil {
			cb(nil, err)
			return
		}
		cb(res.Children, err)
	})
}
