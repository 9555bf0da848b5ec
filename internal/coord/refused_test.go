package coord

import (
	"net"
	"testing"
	"time"

	"mams/internal/nettrans"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// A session owner's address can be in three states on the wire plane:
// refusing (no process listens there), silent (something accepts and
// never answers, as a SIGSTOPped process's kernel does) or answering. Only
// the first is proof that the owner's process is gone. These tests run one
// coordination server and two clients over loopback TCP: "owner", whose
// session is at stake, and "reporter", which tells the leader that owner's
// address refused it. Owner's client runs in a process of its own, so its
// session is served whatever its published address does.

const (
	wireSessionTimeout = 600 * sim.Millisecond
	wireHeartbeat      = 150 * sim.Millisecond
)

// wireHost hosts a coordination client and answers every request with nil,
// as a live metadata server answers a request it does not know.
type wireHost struct{ c *Client }

func (h *wireHost) HandleMessage(from transport.NodeID, msg any) { h.c.MaybeHandle(from, msg) }
func (h *wireHost) HandleRequest(_ transport.NodeID, _ any, reply func(any)) {
	reply(nil)
}

type wireCoord struct {
	srvTr    *nettrans.Transport
	srv      *Server
	cliTr    *nettrans.Transport
	owner    *Client
	reporter *Client
	session  uint64
}

// closedAddr returns a loopback address whose listener has been closed:
// dials to it are refused.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// newWireCoord boots a one-member ensemble and owner's session, with owner
// published at ownerAddr.
func newWireCoord(t *testing.T, ownerAddr string) *wireCoord {
	t.Helper()
	book := nettrans.NewAddrBook()
	w := &wireCoord{}
	var err error
	if w.srvTr, err = nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: book}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.srvTr.Close)
	book.Set("coord0", w.srvTr.Addr())
	w.srvTr.SetObs(obs.NewRegistry())
	w.srvTr.Do(func() {
		w.srv = NewServer(w.srvTr, ServerConfig{ID: "coord0", Ensemble: []transport.NodeID{"coord0"}, Bootstrap: true}, nil)
		w.srv.Start()
	})
	for deadline := time.Now().Add(5 * time.Second); !w.leading(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the one-member ensemble never led")
		}
	}
	if w.cliTr, err = nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: book}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.cliTr.Close)
	book.Set("reporter", w.cliTr.Addr())
	book.Set("owner", ownerAddr)
	cfg := ClientConfig{Servers: []transport.NodeID{"coord0"}, SessionTimeout: wireSessionTimeout, HeartbeatEvery: wireHeartbeat}
	started := make(chan error, 2)
	w.cliTr.Do(func() {
		for _, id := range []transport.NodeID{"owner", "reporter"} {
			h := &wireHost{}
			h.c = NewClient(w.cliTr.Listen(id, h), cfg, nil)
			h.c.Start(func(err error) { started <- err })
			if id == "owner" {
				w.owner = h.c
			} else {
				w.reporter = h.c
			}
		}
	})
	for i := 0; i < 2; i++ {
		if err := <-started; err != nil {
			t.Fatalf("client start: %v", err)
		}
	}
	w.cliTr.Do(func() { w.session = w.owner.Session() })
	return w
}

func (w *wireCoord) leading() (leading bool) {
	w.srvTr.Do(func() { leading = w.srv.Leading() })
	return leading
}

// report has reporter tell the leader that owner's address refused a call.
func (w *wireCoord) report(t *testing.T) {
	t.Helper()
	done := make(chan error, 1)
	w.cliTr.Do(func() { w.reporter.ReportRefused("owner", func(err error) { done <- err }) })
	if err := <-done; err != nil {
		t.Fatalf("ReportRefused: %v", err)
	}
}

// state reads, on the leader's loop, whether owner's session is still
// open and how many sessions the leader has expired, in all and on proof
// of a refusal.
func (w *wireCoord) state() (open bool, expired, refused float64) {
	w.srvTr.Do(func() {
		open = w.srv.sm.sessions[w.session] != nil
		expired, refused = w.srv.obsSessExpiries.Value(), w.srv.obsRefExpiries.Value()
	})
	return
}

// dropped reads the leader transport's count of undeliverable frames: the
// leader sends nothing to owner but its probes, so each refused probe adds
// one.
func (w *wireCoord) dropped() (n uint64) {
	w.srvTr.Do(func() { n = w.srvTr.Dropped })
	return n
}

// TestRefusedOwnerSessionEndsOnProof: owner's client keeps heartbeating,
// so its session would never time out, but its published address refuses.
// One report makes the leader probe twice and end the session, well
// within one session time-out.
func TestRefusedOwnerSessionEndsOnProof(t *testing.T) {
	t.Cleanup(transporttest.LeakCheck(t))
	w := newWireCoord(t, closedAddr(t))
	start := time.Now()
	w.report(t)
	for {
		open, expired, refused := w.state()
		if !open {
			if refused != 1 || expired != 1 {
				t.Errorf("session ended with %v refused expiries of %v, want 1 of 1", refused, expired)
			}
			t.Logf("session ended %v after the report", time.Since(start))
			return
		}
		if time.Since(start) > time.Duration(wireSessionTimeout) {
			t.Fatalf("session still open %v after a report of a refusing owner", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSilentOwnerWaitsForTimeout: owner's published address accepts
// connections and never answers, as the kernel of a SIGSTOPped process
// does, and owner's client stops heartbeating. Reports keep coming, but a
// probe that times out is silence, not proof: the session ends only at
// its time-out, through the time-out's path.
func TestSilentOwnerWaitsForTimeout(t *testing.T) {
	t.Cleanup(transporttest.LeakCheck(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The leader reuses one connection for all its probes; the buffer only
	// keeps the accept loop from ever blocking on the hand-over.
	held, accepting := make(chan net.Conn, 16), make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held <- c // accepted, and never read or answered
		}
	}()
	defer func() {
		ln.Close()
		<-accepting
		for len(held) > 0 {
			(<-held).Close()
		}
	}()
	w := newWireCoord(t, ln.Addr().String())
	w.cliTr.Do(func() { w.owner.Stop() })
	lastBeat := time.Now() // the last heartbeat was no later than this
	for time.Since(lastBeat) < time.Duration(wireSessionTimeout)-100*time.Millisecond {
		w.report(t)
		if open, _, refused := w.state(); !open || refused != 0 {
			t.Fatalf("silent owner's session ended %v after its last heartbeat (refused expiries %v), before its %v time-out",
				time.Since(lastBeat), refused, time.Duration(wireSessionTimeout))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		open, expired, refused := w.state()
		if !open {
			if refused != 0 || expired != 1 {
				t.Errorf("silent owner's session ended with %v refused expiries of %v, want 0 of 1", refused, expired)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("silent owner's session never timed out")
		}
	}
}

// TestAnsweredProbeExpiresNothing: the leader's first probe is refused,
// then a process comes up at owner's address and answers the second. One
// refusal is not proof, so the session stays open.
func TestAnsweredProbeExpiresNothing(t *testing.T) {
	t.Cleanup(transporttest.LeakCheck(t))
	addr := closedAddr(t)
	w := newWireCoord(t, addr)
	before := w.dropped()
	w.report(t)
	for deadline := time.Now().Add(time.Duration(refusedProbeGap) / 2); w.dropped() == before; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader's first probe was not refused in time")
		}
	}
	back, err := nettrans.New(nettrans.Config{Addr: addr, Book: nettrans.NewAddrBook()})
	if err != nil {
		t.Fatalf("listen again on %s: %v", addr, err)
	}
	defer back.Close()
	back.Listen("owner", &wireHost{})
	time.Sleep(3 * time.Duration(refusedProbeGap))
	open, expired, refused := w.state()
	if !open || expired != 0 || refused != 0 {
		t.Errorf("after one refusal and an answer: session open %v, %v expiries (%v refused), want open and none",
			open, expired, refused)
	}
	var probing int
	w.srvTr.Do(func() { probing = len(w.srv.probing) })
	if probing != 0 {
		t.Errorf("%d sessions still marked as probed after the answer", probing)
	}
	if d := w.dropped() - before; d != 1 {
		t.Errorf("%d probes refused, want 1", d)
	}
}
