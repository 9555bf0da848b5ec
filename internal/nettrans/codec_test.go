package nettrans

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mams/internal/coord"
	"mams/internal/health"
	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/paxos"
	"mams/internal/sim"
	"mams/internal/transport"
)

// samplePayloads is one message of every registered payload family whose
// types are exported (ssp's and coord's request types are not; the wire
// cluster test carries those). Fields are non-zero where gob would
// otherwise turn an empty value into a nil one and defeat DeepEqual.
func samplePayloads() []any {
	op := &coord.Op{ReqID: 7, Kind: 4, Session: 9, Path: "/mams/g0/lock", Data: []byte("g0-mds1"), Ephemeral: true, Version: -1, ClientNode: "g0-mds1", TimeoutNs: 5e9}
	return []any{
		mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"},
		mams.OpReply{Info: &namespace.Info{Path: "/d/f", Name: "f", Size: 1024, Perm: 0o644, Blocks: []uint64{3, 4}}, SN: 12, Epoch: 2},
		mams.AppendBatch{From: "g0-mds0", Epoch: 2, CommitThrough: 11, Batch: journal.Batch{SN: 12, Epoch: 2, FirstTx: 100, Records: []journal.Record{
			{TxID: 100, Op: journal.OpCreate, Path: "/d/a", Size: 1, Perm: 0o644, MTime: 5},
			{TxID: 101, Op: journal.OpCreate, Path: "/d/b", Size: 2, Perm: 0o644, MTime: 6},
		}}},
		mams.AppendAck{From: "g0-mds1", SN: 12, OK: true, LastSN: 12},
		coord.WatchEvent{Path: "/mams/g0/lock", Type: 2},
		paxos.Accept{B: paxos.Ballot{N: 3, ID: "coord0"}, Slot: 8, V: op},
		paxos.Accepted{B: paxos.Ballot{N: 3, ID: "coord0"}, Slot: 8, From: "coord1"},
		paxos.LearnBatch{Items: []paxos.Learn{{Slot: 8, V: op}, {Slot: 9, V: paxos.Noop{}}}},
		health.ProbeResp{LocalNow: 42 * sim.Millisecond},
	}
}

// TestStreamRoundTrip sends three rounds of every payload over one
// encoder/decoder pair: every frame must come back equal, in order, and a
// type's second frame must be smaller than its first, since the descriptors
// cross the wire once.
func TestStreamRoundTrip(t *testing.T) {
	payloads := samplePayloads()
	var frames []frame
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			frames = append(frames, frame{Kind: frameKind(i % 3), ID: uint64(round*100 + i + 1), From: "a", To: "b", Payload: p})
		}
	}
	// One batch, as the writer goroutine would send it.
	enc := newFrameEncoder()
	var stream bytes.Buffer
	if err := enc.writeTo(&stream, frames); err != nil {
		t.Fatal(err)
	}
	dec := newFrameDecoder(&stream)
	for i, want := range frames {
		got, err := dec.next()
		if err != nil {
			t.Fatalf("frame %d (%T): %v", i, want.Payload, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := dec.next(); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}

	// Frame by frame, for the sizes.
	enc = newFrameEncoder()
	size := func(f frame) int {
		var b bytes.Buffer
		if err := enc.writeTo(&b, []frame{f}); err != nil {
			t.Fatal(err)
		}
		return b.Len()
	}
	for i, p := range payloads {
		first, second := size(frames[i]), size(frames[len(payloads)+i])
		if second >= first {
			t.Errorf("%T: second frame is %d bytes, first was %d — descriptors sent again?", p, second, first)
		}
	}
}

// TestDecodeTargetIsReset: the decoder reuses one frame value, and gob
// leaves a field the stream omits (a zero value) as it was. A one-way frame
// (Kind 0) with ID 0 and a zero-heavy payload after a request frame must
// still decode as sent, not inherit the request's kind and id.
func TestDecodeTargetIsReset(t *testing.T) {
	frames := []frame{
		{Kind: frameRequest, ID: 41, From: "a", To: "b", Payload: mams.ClientOp{ReqID: 9, Kind: mams.OpCreate, Path: "/d/f", Size: 4096}},
		{Kind: frameOneway, ID: 0, From: "a", To: "b", Payload: mams.ClientOp{Path: "/d/g"}},
		{Kind: frameResponse, ID: 41, From: "b", To: "a", Payload: mams.AppendAck{From: "g0-mds1", SN: 3, OK: true, LastSN: 3}},
		{Kind: frameOneway, ID: 0, From: "b", To: "a", Payload: mams.AppendAck{From: "g0-mds1"}},
	}
	var stream bytes.Buffer
	if err := newFrameEncoder().writeTo(&stream, frames); err != nil {
		t.Fatal(err)
	}
	dec := newFrameDecoder(&stream)
	for i, want := range frames {
		got, err := dec.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// badStreams are byte streams that open with one good frame and then break
// the framing rules in one way each.
func badStreams(t *testing.T) map[string][]byte {
	t.Helper()
	one := func(enc *frameEncoder, f frame) []byte {
		var b bytes.Buffer
		if err := enc.writeTo(&b, []frame{f}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	enc := newFrameEncoder()
	f := frame{Kind: frameOneway, From: "x", To: "echo", Payload: mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}}
	good := one(enc, f)
	next := one(enc, f)

	prefix := func(n uint32, body []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, n)
		return append(b, body...)
	}
	garbage := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(garbage)
	with := func(tail []byte) []byte { return append(append([]byte(nil), good...), tail...) }
	return map[string][]byte{
		"oversized prefix": with(prefix(maxFrame+1, next[4:])),
		"truncated body":   with(prefix(maxFrame, next[4:len(next)-3])),
		"trailing bytes":   with(prefix(uint32(len(next)-4+2), append(append([]byte(nil), next[4:]...), 0, 0))),
		"short frame":      with(prefix(uint32(len(next)-4-2), next[4:])),
		"empty frame":      with(prefix(0, nil)),
		"garbage body":     with(prefix(uint32(len(garbage)), garbage)),
		"garbage":          with(garbage),
	}
}

// TestDecoderRejectsBadStreams: the good frame decodes, the broken one
// after it is an error — never a panic, and never an allocation sized by
// the length prefix.
func TestDecoderRejectsBadStreams(t *testing.T) {
	for name, stream := range badStreams(t) {
		t.Run(name, func(t *testing.T) {
			dec := newFrameDecoder(bytes.NewReader(stream))
			if _, err := dec.next(); err != nil {
				t.Fatalf("good frame: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := dec.next()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("bad frame decoded without error")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting the frame allocated %d bytes", grew)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(2))
		for i := 0; i < 500; i++ {
			b := make([]byte, 4+rnd.Intn(200))
			rnd.Read(b)
			if i%2 == 0 { // a plausible prefix, so the body reaches gob
				binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			}
			if f, err := newFrameDecoder(bytes.NewReader(b)).next(); err == nil {
				t.Fatalf("random stream %d decoded to %#v", i, f)
			}
		}
	})
}

type echoHandler struct{}

func (echoHandler) HandleMessage(transport.NodeID, any) {}
func (echoHandler) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	reply(req)
}

// pair boots a caller and an echo process on loopback.
func pair(t *testing.T) (a, b *Transport, caller transport.Node) {
	t.Helper()
	book := NewAddrBook()
	spawn := func(id transport.NodeID, h transport.Handler) (*Transport, transport.Node) {
		tr, err := New(Config{Addr: "127.0.0.1:0", Book: book})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		book.Set(id, tr.Addr())
		return tr, tr.Listen(id, h)
	}
	a, caller = spawn("caller", echoHandler{})
	b, _ = spawn("echo", echoHandler{})
	return a, b, caller
}

// callEcho makes one Call from the caller and waits for its outcome.
func callEcho(a *Transport, caller transport.Node, req any) (any, error) {
	type outcome struct {
		resp any
		err  error
	}
	done := make(chan outcome, 1)
	a.Do(func() {
		caller.Call("echo", req, 5*sim.Second, func(resp any, err error) { done <- outcome{resp, err} })
	})
	o := <-done
	return o.resp, o.err
}

// TestBadFrameFailsOnlyThatConnection writes each broken stream into a live
// Transport from a raw socket: the Transport must hang up on that socket
// and keep serving its other connections.
func TestBadFrameFailsOnlyThatConnection(t *testing.T) {
	a, b, caller := pair(t)
	req := mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}
	if _, err := callEcho(a, caller, req); err != nil {
		t.Fatalf("call before: %v", err)
	}
	for name, stream := range badStreams(t) {
		t.Run(name, func(t *testing.T) {
			sock, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer sock.Close()
			if _, err := sock.Write(stream); err != nil {
				t.Fatal(err)
			}
			if name == "truncated body" {
				// Only the end of the stream shows that the body is short.
				sock.(*net.TCPConn).CloseWrite()
			}
			sock.SetReadDeadline(time.Now().Add(5 * time.Second))
			// EOF, or a reset where the transport left bytes unread.
			n, err := sock.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); err == nil || (ok && ne.Timeout()) {
				t.Fatalf("read from the transport: n=%d err=%v, want it to hang up", n, err)
			}
			if resp, err := callEcho(a, caller, req); err != nil || resp != any(req) {
				t.Fatalf("call on the healthy connection: resp=%v err=%v", resp, err)
			}
		})
	}
	var delivered uint64
	b.Do(func() { delivered = b.Delivered })
	// One good one-way frame per stream reached the echo node, plus the calls.
	if want := uint64(2*len(badStreams(t)) + 1); delivered != want {
		t.Errorf("echo transport delivered %d frames, want %d", delivered, want)
	}
}

// TestRedialStartsFreshStream drops the caller's connection after types
// have crossed it: the next call must dial again, and both new ends must
// start from empty stream state (an encoder that outlived its connection
// would skip the descriptors the new decoder has never seen).
func TestRedialStartsFreshStream(t *testing.T) {
	a, b, caller := pair(t)
	req := mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}
	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			if resp, err := callEcho(a, caller, req); err != nil || resp != any(req) {
				t.Fatalf("round %d call %d: resp=%v err=%v", round, i, resp, err)
			}
		}
		dropped := 0
		a.Do(func() {
			for _, c := range a.conns {
				c.shut()
				dropped++
			}
		})
		if dropped != 1 {
			t.Fatalf("round %d: caller had %d connections, want 1", round, dropped)
		}
	}
	// The echo side saw three connections come and go; none may linger.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.liveMu.Lock()
		n := len(b.live)
		b.liveMu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("echo transport still tracks %d connections", n)
		}
		time.Sleep(time.Millisecond)
	}
}
