// Package nettrans is the real-plane implementation of
// transport.Transport: TCP listeners on real addresses, length-prefixed
// frames in internal/wire's encoding, per-peer connection reuse, and
// wall-clock timers.
//
// One Transport corresponds to one OS process. It may host several nodes
// (mamsd can serve a metadata role, a pool role, and a coordination role
// from one process); all of them share a single TCP listener and a single
// event-loop goroutine. The loop serializes every handler invocation, timer
// callback, and Call completion — exactly the run-to-completion discipline
// the protocol state machines were written against on the sim plane, so
// they need no locks here either. The loop's inputs wait in one queue, in
// arrival order: a callback (post, Do, a timer going off), or a frame that
// a reader decoded or a local send routed, queued as a value with the
// connection it came in on, so delivering a frame costs no closure. A
// Call's pending entry is reused by a later Call once the entry has left
// its node's pending map and its deadline has left the timer heap.
//
// Wire format: a frame is
//
//	u32 length | kind u8 | id uvarint | from string | to string | tag u8 | payload
//
// with a big-endian length counting the bytes after it and strings as a
// uvarint length and the bytes. The tag names the payload's type and the
// payload is its fields, written and read by the codec its package
// registers with internal/wire (tag 0: no payload). Every frame stands
// alone, so the codec keeps no state per connection. The length is checked
// against maxFrame before anything else is read, the receive buffer grows
// only with bytes that have arrived, and a frame must decode to exactly
// its length; a frame that breaks any of this closes its connection, and
// the next send redials. A dial that fails makes its address refused for
// refuseWindow: until then every frame to it is undeliverable at once, on
// the loop, without a connection or a goroutine, and the first send after
// the window dials again. A dial the peer's host refused (ECONNREFUSED)
// proves that nothing listens there, so requests to that address fail at
// once with transport.ErrRefused for as long as its window lasts; any
// other dial failure is silence, and its calls keep their deadlines. A
// frame that cannot be sent (its payload is not a registered message, or
// it is over maxFrame) is dropped on its own, and the connection carries
// on.
//
// Loss semantics mirror simnet: a frame that cannot reach its destination
// (a failed dial or write, an unknown, down or handler-less destination) is
// counted in Dropped and vanishes, and a request among them fails at its
// caller's deadline with transport.ErrTimeout. The one exception is a
// request to a refusing address, which fails at once with
// transport.ErrRefused, through the loop's queue as a frame of the internal
// kind frameFail, so failing it costs no closure.
//
// Timers: every After and every Call of the process's nodes waits in
// one deadline heap owned by the loop, and one runtime timer is set for the
// heap's earliest deadline; when it goes off, the loop runs everything due.
// A Call's deadline is part of its pending entry, so timing a call costs no
// allocation, and Crash takes the node's entries out of the heap. After(d)
// never fires before d, timers fire in deadline order (ties in arming
// order), and After(0) runs after the callback that armed it returns (all
// but the tie rule pinned for both planes by transporttest). There is no
// useful upper bound below a millisecond: an idle process sleeps in
// epoll_wait, whose time-out is in whole milliseconds
// (runtime/netpoll_epoll.go rounds any delay < 1e6 ns up to waitms = 1), so
// a 45 µs After on an idle loop fires up to ≈ 1 ms late.
// That cannot be made honest without spinning. The wire plane therefore arms
// no timer on the op path: it runs the zero mams.CostModel and ssp.Params,
// and a zero charge runs inline (transport.Charge).
package nettrans

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/wire"
)

// Compile-time plane checks.
var (
	_ transport.Transport = (*Transport)(nil)
	_ transport.Node      = (*Node)(nil)
	_ transport.Timer     = (*timer)(nil)
)

type frameKind uint8

const (
	frameOneway frameKind = iota
	frameRequest
	frameResponse
	// frameFail never crosses the wire (the decoder refuses any kind past
	// frameResponse): it is queued on the loop to fail the local pending
	// call ID of node To with transport.ErrRefused.
	frameFail
)

// frame is the unit of exchange. From/To are node ids, not addresses; ID
// matches responses to pending calls.
type frame struct {
	Kind    frameKind
	ID      uint64
	From    transport.NodeID
	To      transport.NodeID
	Payload any
}

// AddrBook maps node ids to "host:port" addresses. It is safe for
// concurrent use; TestCluster fills it as listeners come up, mamsd loads it
// from config.
type AddrBook struct {
	mu sync.RWMutex
	m  map[transport.NodeID]string
}

// NewAddrBook returns an empty address book.
func NewAddrBook() *AddrBook { return &AddrBook{m: make(map[transport.NodeID]string)} }

// Set binds id to addr.
func (b *AddrBook) Set(id transport.NodeID, addr string) {
	b.mu.Lock()
	b.m[id] = addr
	b.mu.Unlock()
}

// Lookup resolves id.
func (b *AddrBook) Lookup(id transport.NodeID) (string, bool) {
	b.mu.RLock()
	addr, ok := b.m[id]
	b.mu.RUnlock()
	return addr, ok
}

// Config parameterizes a Transport.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Book resolves destination node ids to addresses. Required.
	Book *AddrBook
}

const (
	// dialTimeout bounds outbound connection establishment.
	dialTimeout = 2 * time.Second
	// refuseWindow is how long an address whose dial failed stays refused:
	// a dead peer costs one dial per window, not one per frame sent to it.
	// Two refusals seen more than a window apart came from two dials.
	refuseWindow = 50 * time.Millisecond
)

// Transport is one process's endpoint set. See the package comment.
type Transport struct {
	book *AddrBook

	ln net.Listener
	t0 time.Time

	mu    sync.Mutex
	cond  *sync.Cond
	queue []input
	// closed is written under mu (so post and Do decide atomically with the
	// append) and read without it by the loop between two callbacks.
	closed atomic.Bool
	// loopDone is closed when run returns: from then on nothing touches the
	// loop-owned state, which is what lets Close walk it.
	loopDone chan struct{}

	// nodes maps hosted ids to their endpoints. Registration may happen
	// from any goroutine (including from inside the loop, mid-Do, when a
	// composite server constructs sub-clients), so the map has its own
	// lock; each Node's *state* remains loop-owned.
	nmu   sync.RWMutex
	nodes map[transport.NodeID]*Node

	// Loop-owned state (touch only from run()).
	conns    map[string]*conn // dialed, keyed by address
	nextCall uint64
	reg      *obs.Registry
	tracer   *obs.Tracer
	// freeCalls holds pending entries no call owns any more: out of their
	// node's pending map and out of the deadline heap. It holds at most as
	// many as were ever outstanding at once.
	freeCalls []*netPending
	// freeReplies holds reply slots whose request has been answered.
	freeReplies []*replySlot

	// Every After and Call of every hosted node waits in one deadline
	// heap, and one runtime timer (rt, made on first use) is set
	// for the earliest deadline it holds: wakeAt, while wakeSet. Loop-owned.
	timers   timerHeap
	timerSeq uint64
	rt       *time.Timer
	wakeAt   sim.Time
	wakeSet  bool

	// Every connection with a socket, dialed or accepted, registered by its
	// reader so Close can unblock readers whose peers outlive us. liveShut
	// makes a reader that starts during Close close its socket instead.
	liveMu   sync.Mutex
	live     map[*conn]struct{}
	liveShut bool

	// Stats mirror simnet.Network's counters (loop-owned); Dials counts
	// the outbound connections the transport has started.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Dials     uint64

	wg sync.WaitGroup
}

// New opens the listener and starts the event loop. The caller should
// publish Addr() in the address book under its node ids.
func New(cfg Config) (*Transport, error) {
	if cfg.Book == nil {
		return nil, errors.New("nettrans: Config.Book is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("nettrans: listen %s: %w", cfg.Addr, err)
	}
	t := &Transport{
		book:     cfg.Book,
		ln:       ln,
		t0:       time.Now(),
		loopDone: make(chan struct{}),
		nodes:    make(map[transport.NodeID]*Node),
		conns:    make(map[string]*conn),
		live:     make(map[*conn]struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(2)
	go t.run()
	go t.accept()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetObs attaches a metrics registry and span tracer (both optional). Call
// before serving traffic; the attachments are read from the loop only.
func (t *Transport) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	t.Do(func() { t.reg, t.tracer = reg, tracer })
}

// Obs returns the attached metrics registry (possibly nil).
func (t *Transport) Obs() *obs.Registry { return t.reg }

// Tracer returns the attached span tracer (possibly nil).
func (t *Transport) Tracer() *obs.Tracer { return t.tracer }

// input is one entry of the loop's queue: a callback (fn), or a frame that
// arrived, with the connection it came in on (nil for the local fast path).
// Frames travel as values, so delivering one costs the loop no closure.
type input struct {
	fn  func()
	f   frame
	via *conn
}

// post enqueues fn for the event loop, reporting whether it was taken.
// Safe from any goroutine; a no-op after Close.
func (t *Transport) post(fn func()) bool { return t.enqueue(input{fn: fn}) }

// deliver enqueues an arrived frame for dispatch on the loop. Safe from any
// goroutine; a no-op after Close.
func (t *Transport) deliver(f frame, via *conn) { t.enqueue(input{f: f, via: via}) }

func (t *Transport) enqueue(in input) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return false
	}
	t.queue = append(t.queue, in)
	t.cond.Signal()
	return true
}

// Do runs fn on the event loop and waits for it to finish — the bridge for
// code outside the loop (tests, benchmark drivers, mamsd signal handlers).
// Returns false if the transport was closed before fn could run.
func (t *Transport) Do(fn func()) bool {
	done := make(chan struct{})
	if !t.post(func() { fn(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-t.loopDone:
		// Closed while fn was queued: it ran before the loop exited or it
		// never will.
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// run is the event loop: one input at a time, in arrival order. It takes
// the whole queue per wake-up, so a burst costs one lock round trip, and
// still runs no callback once Close has been called.
func (t *Transport) run() {
	defer t.wg.Done()
	defer close(t.loopDone)
	var batch []input
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed.Load() {
			t.cond.Wait()
		}
		batch, t.queue = t.queue, batch[:0]
		t.mu.Unlock()
		for i := range batch {
			if t.closed.Load() {
				return
			}
			if in := &batch[i]; in.fn != nil {
				in.fn()
			} else {
				t.dispatch(in.f, in.via)
			}
			batch[i] = input{}
		}
		if t.closed.Load() {
			return
		}
	}
}

// Close stops the listener, all connections, timers, and the loop, then
// waits for every goroutine the transport started. Idempotent. Not callable
// from the loop itself.
//
// The order is a contract: the loop must have exited before anything it
// owns is touched (the runtime timer here), and liveShut must be set in the
// same critical section as the walk of live, or a connection that a last
// callback dialed, or the listener accepted, after the walk would have a
// reader nothing ever unblocks. A connection still dialing has no reader
// yet; its reader finds liveShut when it starts.
//
// closed is set before the listener closes, and nothing else ever closes
// the listener: there is no way to stop listening and keep serving. So
// once a dial to this transport's address is refused, its loop starts no
// further input (a callback already running may finish), and coord takes
// two refusals spaced past refuseWindow as proof that the process behind
// the address is gone (DESIGN §11). A method that closed only the listener
// would break that proof.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed.Store(true)
	t.cond.Broadcast()
	t.mu.Unlock()
	t.ln.Close()
	<-t.loopDone
	t.liveMu.Lock()
	t.liveShut = true
	for c := range t.live {
		c.shut()
	}
	t.liveMu.Unlock()
	if t.rt != nil {
		t.rt.Stop()
	}
	t.wg.Wait()
}

// Now returns wall-clock time elapsed since the transport started, as
// sim.Time so protocol constants carry over unchanged.
func (t *Transport) Now() sim.Time { return sim.Time(time.Since(t.t0)) }

// Listen registers a node. Panics on duplicate ids (a wiring bug), matching
// the sim plane. Callable from any goroutine, including the loop itself.
func (t *Transport) Listen(id transport.NodeID, h transport.Handler) transport.Node {
	nd := &Node{
		id: id, tr: t, handler: h, up: true,
		pending: make(map[uint64]*netPending),
	}
	t.nmu.Lock()
	defer t.nmu.Unlock()
	if _, dup := t.nodes[id]; dup {
		panic(fmt.Sprintf("nettrans: duplicate node %q", id))
	}
	t.nodes[id] = nd
	return nd
}

// node looks up a hosted endpoint.
func (t *Transport) node(id transport.NodeID) *Node {
	t.nmu.RLock()
	nd := t.nodes[id]
	t.nmu.RUnlock()
	return nd
}

// ---- connections ----

// conn is one TCP connection, dialed or accepted. Its writer goroutine is
// the only one that writes to the socket and its reader goroutine the only
// one that reads from it. Everything sent over the connection — requests
// and one-way messages on a dialed one, responses on either kind — goes
// through enqueue.
//
// Any socket error, or a bad frame read, shuts the connection: the frames
// still queued, and those already written, are lost (their calls fail at
// their deadlines), and a dialed connection leaves the reuse map so the
// next send redials. A connection whose dial failed stays in the map as a
// tombstone until retryAt instead, and sends to its address are dropped
// without dialing until then; their calls fail with ErrRefused when the
// peer's host refused the dial. A frame that will not encode is dropped
// alone.
type conn struct {
	tr   *Transport
	addr string // dial target; empty for an accepted connection

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []frame
	closed  bool
	sock    net.Conn // nil until dialed (guarded by mu)
	retryAt sim.Time // set when the dial failed: the address is refused until then
	refused bool     // the dial failed with ECONNREFUSED: nothing listens at addr
}

func (t *Transport) newConn(addr string, sock net.Conn) *conn {
	c := &conn{tr: t, addr: addr, sock: sock}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// enqueue hands a frame to the writer. Loop-only.
func (c *conn) enqueue(f frame) {
	c.mu.Lock()
	if c.closed {
		refused := c.refused
		c.mu.Unlock()
		c.tr.frameUndeliverable(f, refused)
		return
	}
	c.queue = append(c.queue, f)
	c.cond.Signal()
	c.mu.Unlock()
}

// shut marks the connection dead, closes its socket (which trips the reader
// out of Read and the writer out of its wait), drops the queued frames and
// removes a dialed connection from the reuse map.
// Idempotent; safe from any goroutine.
func (c *conn) shut() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	lost := len(c.queue)
	c.queue = nil
	if c.sock != nil {
		c.sock.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.abandon(lost)
}

// refuse shuts a connection whose dial failed and leaves it in the reuse
// map as a tombstone that refuses its address for refuseWindow; refused
// says the peer's host refused the dial. The frames queued while it dialed
// are dropped, and when refused the calls among them fail with ErrRefused.
// A connection shut while it dialed is not made a tombstone: shut has
// already forgotten it.
func (c *conn) refuse(refused bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.retryAt = c.tr.Now() + sim.Time(refuseWindow)
	c.refused = refused
	stranded := c.queue
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if len(stranded) > 0 {
		c.tr.post(func() {
			for _, f := range stranded {
				c.tr.frameUndeliverable(f, refused)
			}
		})
	}
}

// abandon forgets a dead connection on the loop and counts its lost frames
// as Dropped there.
func (c *conn) abandon(lost int) {
	c.tr.post(func() {
		if c.addr != "" && c.tr.conns[c.addr] == c {
			delete(c.tr.conns, c.addr)
		}
		c.tr.Dropped += uint64(lost)
	})
}

// write runs in its own goroutine: dial if the connection has no socket
// yet, then drain the queue. Each wake-up takes the whole queue, encodes it
// into one buffer and issues one Write; a frame that will not encode is
// dropped on its own.
func (c *conn) write() {
	defer c.tr.wg.Done()
	defer c.shut()
	if c.addr != "" {
		sock, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			c.refuse(errors.Is(err, syscall.ECONNREFUSED))
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			sock.Close()
			return
		}
		c.sock = sock
		c.mu.Unlock()
		// Responses come back on this same connection; read them like any
		// inbound stream.
		c.tr.wg.Add(1)
		go c.read()
	}
	var enc frameEncoder
	var batch []frame
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()
		sent := 0
		for i := range batch {
			if enc.encode(&batch[i]) == nil {
				sent++
			}
		}
		if bad := len(batch) - sent; bad > 0 {
			c.tr.post(func() { c.tr.Dropped += uint64(bad) })
		}
		if err := enc.flush(c.sock); err != nil {
			// The socket may have taken any prefix of the batch.
			c.abandon(sent)
			return
		}
		clear(batch) // drop the payload references until the next swap
	}
}

// read runs in its own goroutine: decode frames off the socket and post
// them to the loop, with the connection as the way back for answers.
func (c *conn) read() {
	defer c.tr.wg.Done()
	defer c.shut()
	t := c.tr
	t.liveMu.Lock()
	if t.liveShut {
		t.liveMu.Unlock()
		return
	}
	t.live[c] = struct{}{}
	t.liveMu.Unlock()
	defer func() {
		t.liveMu.Lock()
		delete(t.live, c)
		t.liveMu.Unlock()
	}()
	dec := newFrameDecoder(c.sock)
	for {
		f, err := dec.next()
		if err != nil {
			return // peer closed, tore down mid-frame, or sent a bad frame
		}
		t.deliver(f, c)
	}
}

// connTo returns (dialing if needed) the reusable connection to addr, or
// nil while addr is refused: its last dial failed less than refuseWindow
// ago, and refused says the peer's host refused it. Loop-only.
func (t *Transport) connTo(addr string) (c *conn, refused bool) {
	if c := t.conns[addr]; c != nil {
		c.mu.Lock()
		dead, retryAt, refused := c.closed, c.retryAt, c.refused
		c.mu.Unlock()
		if !dead {
			return c, false
		}
		if retryAt != 0 && t.Now() < retryAt {
			return nil, refused
		}
		delete(t.conns, addr)
	}
	c = t.newConn(addr, nil)
	t.conns[addr] = c
	t.Dials++
	t.wg.Add(1)
	go c.write()
	return c, false
}

// frameUndeliverable drops a frame that did not reach its destination and
// counts it. A request whose destination refused the connection fails its
// call with ErrRefused (see failRefused); any other lost request fails at
// its deadline. Loop-only.
func (t *Transport) frameUndeliverable(f frame, refused bool) {
	t.Dropped++
	if !refused || f.Kind != frameRequest {
		return
	}
	if src := t.node(f.From); src != nil {
		src.failRefused(f.ID)
	}
}

// sendFrame routes a frame: local fast path for co-hosted destinations
// (still asynchronous — enqueued back onto the loop, never run inline),
// otherwise the reusable outbound connection, or straight to loss
// semantics while the destination's address is refused. Loop-only.
func (t *Transport) sendFrame(f frame) {
	t.Sent++
	if src := t.node(f.From); src != nil && !src.up {
		t.Dropped++
		return
	}
	if local := t.node(f.To); local != nil {
		t.deliver(f, nil)
		return
	}
	addr, ok := t.book.Lookup(f.To)
	if !ok {
		t.Dropped++
		return
	}
	c, refused := t.connTo(addr)
	if c == nil {
		t.frameUndeliverable(f, refused)
		return
	}
	c.enqueue(f)
}

// ---- inbound ----

func (t *Transport) accept() {
	defer t.wg.Done()
	for {
		sock, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := t.newConn("", sock)
		t.wg.Add(2)
		go c.write()
		go c.read()
	}
}

// dispatch delivers an arrived frame to the destination node. Loop-only.
// via is the connection a remote frame arrived on (responses to requests
// that arrived on it go back the same way); nil for local fast-path frames,
// which answer through sendFrame instead.
func (t *Transport) dispatch(f frame, via *conn) {
	dst := t.node(f.To)
	if dst == nil || !dst.up {
		// A frame for a down or unknown node vanishes: a request's caller
		// times out, and a response's or failure's pending entry died with
		// the node (a frameFail was counted when its request was refused).
		if f.Kind != frameFail {
			t.Dropped++
		}
		return
	}
	switch f.Kind {
	case frameOneway:
		t.Delivered++
		if dst.handler != nil {
			dst.handler.HandleMessage(f.From, f.Payload)
		}
	case frameRequest:
		rh, ok := dst.handler.(transport.RequestHandler)
		if !ok {
			t.Dropped++ // the node serves no RPCs; the caller times out
			return
		}
		t.Delivered++
		rh.HandleRequest(f.From, f.Payload, t.replyFunc(dst, &f, via))
	case frameResponse, frameFail:
		pc, ok := dst.pending[f.ID]
		if !ok {
			return // late response after timeout or crash
		}
		delete(dst.pending, f.ID)
		pc.deadline.Stop()
		cb := t.release(pc)
		if f.Kind == frameFail {
			cb(nil, transport.ErrRefused)
			return
		}
		t.Delivered++
		cb(f.Payload, nil)
	}
}

// answer routes a response back to the caller: through the writer of the
// connection it arrived on when there is one — so answers leave in the
// order the handler gave them — and through normal routing for local
// fast-path traffic. If that connection has died the caller's pending call
// times out. Loop-only.
func (t *Transport) answer(f frame, via *conn) {
	if via == nil {
		t.sendFrame(f)
		return
	}
	t.Sent++
	via.enqueue(f)
}

// ---- framing ----

const (
	maxFrame = 64 << 20 // 64 MiB; journals ship in bounded batches
	// keepBuf is how much encode or gather buffer a connection keeps
	// between frames; one outsized journal frame must not pin its size for
	// the connection's life.
	keepBuf = 1 << 20
)

// frameEncoder is the write half of a connection: frames accumulate in one
// buffer, which flush hands to the socket in one Write.
type frameEncoder struct {
	w wire.Writer
}

// encode appends f to the buffer as one frame. A frame whose payload will
// not encode, or that comes out over maxFrame, is cut back out of the
// buffer and reported as the error; the frames before it stand.
func (e *frameEncoder) encode(f *frame) error {
	start := e.w.Len()
	e.w.U32(0) // length placeholder
	e.w.U8(uint8(f.Kind))
	e.w.Uvarint(f.ID)
	e.w.String(string(f.From))
	e.w.String(string(f.To))
	e.w.Message(f.Payload)
	err := e.w.Err()
	n := e.w.Len() - start - 4
	if err == nil && n > maxFrame {
		err = fmt.Errorf("%d bytes, over the %d limit", n, maxFrame)
	}
	if err != nil {
		e.w.Truncate(start)
		return fmt.Errorf("nettrans: frame to %s: %w", f.To, err)
	}
	binary.BigEndian.PutUint32(e.w.Bytes()[start:], uint32(n))
	return nil
}

// flush writes the buffered frames to w in one call and empties the
// buffer.
func (e *frameEncoder) flush(w io.Writer) error {
	if e.w.Len() == 0 {
		return nil
	}
	_, err := w.Write(e.w.Bytes())
	if cap(e.w.Bytes()) > keepBuf {
		e.w = wire.Writer{}
	} else {
		e.w.Truncate(0)
	}
	return err
}

// readBuf is a connection's read buffer: a frame that fits is decoded in
// place, without a copy.
const readBuf = 32 << 10

// maxNodeIDs bounds the node ids a connection's decoder keeps, so a peer
// that sends endless new ones cannot grow the table.
const maxNodeIDs = 64

// frameDecoder is the read half of a connection. A frame longer than the
// read buffer is gathered into big, which grows with the bytes that have
// arrived, never ahead of them on the length prefix's word. r is the
// reader every frame is decoded with, and ids the node ids seen so far:
// a connection carries few, and reusing them saves two strings a frame.
type frameDecoder struct {
	br  *bufio.Reader
	big []byte
	r   wire.Reader
	ids map[string]transport.NodeID
}

func newFrameDecoder(r io.Reader) *frameDecoder {
	return &frameDecoder{br: bufio.NewReaderSize(r, readBuf), ids: make(map[string]transport.NodeID)}
}

// node reads a node id, reusing the copy from an earlier frame.
func (d *frameDecoder) node() transport.NodeID {
	b := d.r.BlobView()
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	id := transport.NodeID(b)
	if len(d.ids) < maxNodeIDs {
		d.ids[string(id)] = id
	}
	return id
}

// next reads one frame. After an error the decoder must not be used again.
func (d *frameDecoder) next() (frame, error) {
	hdr, err := d.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return frame{}, fmt.Errorf("nettrans: oversized frame (%d bytes)", n)
	}
	d.br.Discard(4)
	if n > d.br.Size() {
		body, err := d.gather(n)
		if err != nil {
			return frame{}, err
		}
		return d.decode(body)
	}
	body, err := d.br.Peek(n)
	if err != nil {
		return frame{}, midFrame(err)
	}
	defer d.br.Discard(n) // once decoded: body is the read buffer
	return d.decode(body)
}

// gather reads an n-byte frame body into big, appending only bytes that
// have arrived.
func (d *frameDecoder) gather(n int) ([]byte, error) {
	buf := d.big[:0]
	for len(buf) < n {
		if _, err := d.br.Peek(1); err != nil { // waits for bytes to arrive
			return nil, midFrame(err)
		}
		chunk, _ := d.br.Peek(min(d.br.Buffered(), n-len(buf)))
		buf = append(buf, chunk...)
		d.br.Discard(len(chunk))
	}
	if cap(buf) <= keepBuf {
		d.big = buf
	} else {
		d.big = nil
	}
	return buf, nil
}

// midFrame reports the stream ending inside a frame as the error it is.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decode parses one frame body; the frame copies what it keeps.
func (d *frameDecoder) decode(body []byte) (frame, error) {
	r := &d.r
	r.Reset(body)
	f := frame{
		Kind:    frameKind(r.U8()),
		ID:      r.Uvarint(),
		From:    d.node(),
		To:      d.node(),
		Payload: r.Message(),
	}
	if err := r.Finish(); err != nil {
		return frame{}, fmt.Errorf("nettrans: decode frame: %w", err)
	}
	if f.Kind > frameResponse {
		return frame{}, fmt.Errorf("nettrans: unknown frame kind %d", f.Kind)
	}
	return f, nil
}
