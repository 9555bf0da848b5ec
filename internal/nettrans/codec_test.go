package nettrans

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mams/internal/coord"
	"mams/internal/health"
	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/partition"
	"mams/internal/paxos"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/wire"

	_ "mams/internal/ssp" // registers its messages
)

// samplePayloads is one message of each hot or nesting payload family,
// with the values the protocol sends.
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
		nil,
	}
}

// encodeFrames encodes frames the way a connection's writer does and
// returns the bytes it would write.
func encodeFrames(t testing.TB, frames ...frame) []byte {
	t.Helper()
	var enc frameEncoder
	for i := range frames {
		if err := enc.encode(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := enc.flush(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStreamRoundTrip sends three rounds of sample payloads in one batch,
// as the writer goroutine would: every frame must come back equal, in
// order, and the stream must end where the last frame does. One journal
// batch is larger than the read buffer, so it is gathered, not read in
// place.
func TestStreamRoundTrip(t *testing.T) {
	big := journal.Batch{SN: 13, Epoch: 2, FirstTx: 1}
	for i := 0; len(big.Records)*24 < 3*readBuf; i++ {
		big.Records = append(big.Records, journal.Record{TxID: uint64(i + 1), Op: journal.OpCreate, Path: fmt.Sprintf("/d/big-%06d", i), Perm: 0o644, MTime: int64(i)})
	}
	payloads := append(samplePayloads(), mams.AppendBatch{From: "g0-mds0", Epoch: 2, Batch: big})
	var frames []frame
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			frames = append(frames, frame{Kind: frameKind(i % 3), ID: uint64(round*100 + i + 1), From: "a", To: "b", Payload: p})
		}
	}
	dec := newFrameDecoder(bytes.NewReader(encodeFrames(t, frames...)))
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
}

// filler builds a value of any registered message type by reflection. With
// full set every field is non-zero: each pointer points at a filled value,
// each slice has two elements, each map two keys, each `any` a filled
// *coord.Op; without it pointers, slices, maps and `any` fields are nil and
// only scalars are set. A field a codec forgets comes back zero and fails
// the round trip.
type filler struct {
	t    testing.TB
	full bool
	n    int // varies scalars, so map keys and slice elements differ
}

var (
	mapType = reflect.TypeOf((*partition.Map)(nil))
	anyType = reflect.TypeOf((*any)(nil)).Elem()
)

func (fl *filler) fill(v reflect.Value, at string) {
	fl.n++
	n := fl.n
	switch typ := v.Type(); {
	case typ == mapType:
		// Unexported fields, carried whole by the map's own encoding.
		if fl.full {
			m, err := partition.NewMap(3, 2).Move(1, 2)
			if err != nil {
				fl.t.Fatal(err)
			}
			v.Set(reflect.ValueOf(m))
		}
	case typ == anyType:
		if fl.full {
			op := reflect.New(reflect.TypeOf(coord.Op{}))
			fl.fill(op.Elem(), at+".(*coord.Op)")
			v.Set(op)
		}
	default:
		switch typ.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(-int64(n) << 33)
		case reflect.Int8, reflect.Int16, reflect.Int32:
			v.SetInt(-int64(n))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32:
			v.SetUint(uint64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n)<<40 | 3)
		case reflect.String:
			v.SetString(fmt.Sprintf("%s#%d", at, n))
		case reflect.Pointer:
			if fl.full {
				v.Set(reflect.New(typ.Elem()))
				fl.fill(v.Elem(), at)
			}
		case reflect.Slice:
			if fl.full {
				v.Set(reflect.MakeSlice(typ, 2, 2))
				for i := 0; i < 2; i++ {
					fl.fill(v.Index(i), fmt.Sprintf("%s[%d]", at, i))
				}
			}
		case reflect.Map:
			if fl.full {
				v.Set(reflect.MakeMap(typ))
				for i := 0; i < 2; i++ {
					k, e := reflect.New(typ.Key()).Elem(), reflect.New(typ.Elem()).Elem()
					fl.fill(k, at+"[key]")
					fl.fill(e, at+"[elem]")
					v.SetMapIndex(k, e)
				}
			}
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					fl.t.Fatalf("%s.%s is unexported: the round trip cannot set it", at, f.Name)
				}
				fl.fill(v.Field(i), at+"."+f.Name)
			}
		default:
			fl.t.Fatalf("%s: no filler for %s", at, typ)
		}
	}
}

// registeredFrames is one request frame per registered message type, its
// payload filled (or left sparse) by filler.
func registeredFrames(t testing.TB, full bool) []frame {
	fl := &filler{t: t, full: full}
	var frames []frame
	for _, typ := range wire.Registered() {
		v := reflect.New(typ).Elem()
		if typ.Kind() == reflect.Pointer { // never nil itself
			v = reflect.New(typ.Elem())
			fl.fill(v.Elem(), typ.String())
		} else {
			fl.fill(v, typ.String())
		}
		frames = append(frames, frame{Kind: frameRequest, ID: uint64(len(frames)) + 1<<33, From: "g0-mds0", To: "g0-mds1", Payload: v.Interface()})
	}
	return frames
}

// TestEveryMessageRoundTrips walks the wire registry: every message type,
// with every field set and with every reference nil, must come back
// DeepEqual from its own frame, and the frame's length prefix must count
// exactly the bytes that follow it.
func TestEveryMessageRoundTrips(t *testing.T) {
	if n := len(wire.Registered()); n < 57 {
		t.Fatalf("%d message types registered, want at least 57", n)
	}
	for _, full := range []bool{true, false} {
		for _, f := range registeredFrames(t, full) {
			b := encodeFrames(t, f)
			if n := binary.BigEndian.Uint32(b); int(n) != len(b)-4 {
				t.Errorf("%T (full %v): length prefix %d, frame body %d bytes", f.Payload, full, n, len(b)-4)
			}
			dec := newFrameDecoder(bytes.NewReader(b))
			got, err := dec.next()
			if err != nil {
				t.Errorf("%T (full %v): %v", f.Payload, full, err)
				continue
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("%T (full %v) did not round-trip:\n got %#v\nwant %#v", f.Payload, full, got.Payload, f.Payload)
			}
			if _, err := dec.next(); err != io.EOF {
				t.Errorf("%T (full %v): after the frame: err = %v, want io.EOF", f.Payload, full, err)
			}
		}
	}
}

// TestDecodeTargetIsReset: the decoder reuses one wire.Reader for every
// frame. A one-way frame (Kind 0) with ID 0 and a zero-heavy payload after
// a request frame must still decode as sent, not inherit anything of the
// frame before it.
func TestDecodeTargetIsReset(t *testing.T) {
	frames := []frame{
		{Kind: frameRequest, ID: 41, From: "a", To: "b", Payload: mams.ClientOp{ReqID: 9, Kind: mams.OpCreate, Path: "/d/f", Size: 4096}},
		{Kind: frameOneway, ID: 0, From: "a", To: "b", Payload: mams.ClientOp{Path: "/d/g"}},
		{Kind: frameResponse, ID: 41, From: "b", To: "a", Payload: mams.AppendAck{From: "g0-mds1", SN: 3, OK: true, LastSN: 3}},
		{Kind: frameOneway, ID: 0, From: "b", To: "a", Payload: mams.AppendAck{From: "g0-mds1"}},
	}
	dec := newFrameDecoder(bytes.NewReader(encodeFrames(t, frames...)))
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
func badStreams(t testing.TB) map[string][]byte {
	t.Helper()
	f := frame{Kind: frameOneway, From: "x", To: "echo", Payload: mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}}
	good := encodeFrames(t, f)
	next := good

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
			if i%2 == 0 { // a plausible prefix, so the body reaches the codec
				binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			}
			if f, err := newFrameDecoder(bytes.NewReader(b)).next(); err == nil {
				t.Fatalf("random stream %d decoded to %#v", i, f)
			}
		}
	})
}

// FuzzFrameDecode feeds arbitrary byte streams to the frame decoder. It
// must never panic, every frame it accepts must re-encode to exactly the
// bytes it was read from (the encoding is canonical), and what decoding
// allocates stays within a small multiple of the stream's length. The
// seeds are one frame per registered message type and the bad streams;
// testdata/fuzz/FuzzFrameDecode holds them as a checked-in corpus too.
func FuzzFrameDecode(f *testing.F) {
	for _, full := range []bool{true, false} {
		for _, fr := range registeredFrames(f, full) {
			f.Add(encodeFrames(f, fr))
		}
	}
	for _, stream := range badStreams(f) {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := newFrameDecoder(bytes.NewReader(data))
		var frames []frame
		for {
			fr, err := dec.next()
			if err != nil {
				break
			}
			frames = append(frames, fr)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(readBuf+4096+64*len(data)) {
			t.Errorf("decoding %d bytes allocated %d", len(data), grew)
		}
		off := 0
		for i, fr := range frames {
			var enc frameEncoder
			if err := enc.encode(&fr); err != nil {
				t.Fatalf("frame %d decoded but does not encode: %v", i, err)
			}
			got := enc.w.Bytes()
			if want := data[off:min(off+len(got), len(data))]; !bytes.Equal(got, want) {
				t.Fatalf("frame %d re-encodes to\n%x\nread from\n%x", i, got, want)
			}
			off += len(got)
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

// unregistered is a payload internal/wire has no codec for.
type unregistered struct{ N int }

// TestBadOutboundFrameFailsOnlyItsCall sends a good call, a call over
// maxFrame, a call whose payload has no codec, and another good call on one
// connection. The two bad frames are cut out of the batch and their calls
// fail with ErrTimeout at their short deadline; the good calls on either
// side of them succeed, and the connection stays up: no redial.
func TestBadOutboundFrameFailsOnlyItsCall(t *testing.T) {
	a, b, caller := pair(t)
	good := mams.ClientOp{ReqID: 1, Kind: mams.OpStat, Path: "/d/f"}
	if _, err := callEcho(a, caller, good); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}
	var before *conn
	a.Do(func() { before = a.conns[b.Addr()] })

	// Many records sharing one path: over maxFrame on the wire, small here.
	path := "/" + strings.Repeat("p", 1<<20)
	huge := mams.AppendBatch{From: "caller"}
	for huge.Batch.EncodedLen() <= maxFrame {
		huge.Batch.Records = append(huge.Batch.Records, journal.Record{Op: journal.OpCreate, Path: path})
	}
	type outcome struct {
		resp any
		err  error
		at   sim.Time
	}
	const short = 100 * sim.Millisecond
	reqs := []any{good, huge, unregistered{N: 1}, good}
	timeouts := []sim.Time{5 * sim.Second, short, short, 5 * sim.Second}
	done := make([]chan outcome, len(reqs))
	var issued sim.Time
	a.Do(func() {
		issued = a.Now()
		for i, req := range reqs {
			ch := make(chan outcome, 1)
			done[i] = ch
			caller.Call("echo", req, timeouts[i], func(resp any, err error) { ch <- outcome{resp, err, a.Now()} })
		}
	})
	for i, ch := range done {
		o := <-ch
		bad := timeouts[i] == short
		if bad && (o.err != transport.ErrTimeout || o.at-issued < short) {
			t.Errorf("call %d (%T): err = %v after %v, want ErrTimeout at its %v deadline", i, reqs[i], o.err, o.at-issued, short)
		}
		if !bad && (o.err != nil || o.resp != any(good)) {
			t.Errorf("call %d: resp=%v err=%v", i, o.resp, o.err)
		}
	}
	var after *conn
	a.Do(func() { after = a.conns[b.Addr()] })
	if after != before {
		t.Fatal("the caller's connection was replaced: a bad frame shut it")
	}
	after.mu.Lock()
	if after.closed {
		t.Error("a bad frame shut the caller's connection")
	}
	after.mu.Unlock()
	b.liveMu.Lock()
	n := len(b.live)
	b.liveMu.Unlock()
	if n != 1 {
		t.Errorf("echo transport tracks %d connections, want the one", n)
	}
}

// TestRedialStartsFreshStream drops the caller's connection after calls
// have crossed it, as a bad frame or a socket error would: the next call
// must dial again and succeed, and the echo side must let go of every
// connection that died.
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
