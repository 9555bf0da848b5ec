package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 17)
	w.Varint(-12345)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.String("hello, 世界")
	w.Blob([]byte{1, 2, 3})
	w.Bool(true)
	w.Bool(false)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint0 = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+17 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("varint = %d", got)
	}
	if got := r.U8(); got != 0xAB {
		t.Fatalf("u8 = %x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("u16 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("u32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Fatalf("u64 = %x", got)
	}
	if got := r.String(); got != "hello, 世界" {
		t.Fatalf("string = %q", got)
	}
	b := r.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("blob = %v", b)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestTruncatedBufferErrors(t *testing.T) {
	w := NewWriter(0)
	w.U64(42)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		if r.Err() == nil {
			t.Fatalf("cut=%d: expected error", cut)
		}
	}
}

func TestTruncatedStringErrors(t *testing.T) {
	w := NewWriter(0)
	w.String("abcdefgh")
	r := NewReader(w.Bytes()[:4])
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("expected error on truncated string body")
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	r.U32() // fails
	if got := r.U64(); got != 0 {
		t.Fatalf("after error U64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	r.U8()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish should reject trailing bytes")
	}
}

func TestInvalidBoolByte(t *testing.T) {
	r := NewReader([]byte{7})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("expected error for bool byte 7")
	}
}

func TestBlobCopyIsIndependent(t *testing.T) {
	w := NewWriter(0)
	w.Blob([]byte{9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	b := r.Blob()
	buf[1] = 0 // mutate the source buffer
	if b[0] != 9 {
		t.Fatal("Blob aliases the input buffer")
	}
}

func TestPropertyVarintRoundTrip(t *testing.T) {
	f := func(v int64, u uint64, s string) bool {
		w := NewWriter(0)
		w.Varint(v)
		w.Uvarint(u)
		w.String(s)
		r := NewReader(w.Bytes())
		return r.Varint() == v && r.Uvarint() == u && r.String() == s && r.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLenMatchesWriter(t *testing.T) {
	f := func(v int64, u uint64, s string) bool {
		w := NewWriter(0)
		w.Varint(v)
		n := w.Len()
		w.Uvarint(u)
		m := w.Len()
		w.String(s)
		return VarintLen(v) == n && UvarintLen(u) == m-n && StringLen(s) == w.Len()-m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, u := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 63, ^uint64(0)} {
		if !f(int64(u), u, "") {
			t.Errorf("%d: length disagrees with the writer", u)
		}
	}
}

func TestPropertyBlobRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		w := NewWriter(0)
		w.Blob(b)
		r := NewReader(w.Bytes())
		got := r.Blob()
		if r.Finish() != nil || len(got) != len(b) {
			return false
		}
		for i := range b {
			if got[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLenTracksBytes(t *testing.T) {
	w := NewWriter(0)
	if w.Len() != 0 {
		t.Fatal("empty writer nonzero length")
	}
	w.U32(1)
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
}

// box is a test message that nests another message, like paxos's V fields.
type box struct {
	N     int64
	Inner any
}

func (box) WireTag() uint8 { return TagTestbeds + 15 }

func (b box) MarshalWire(w *Writer) {
	w.Varint(b.N)
	w.Message(b.Inner)
}

// boxPtr is registered as a pointer type.
type boxPtr struct{ S string }

func (*boxPtr) WireTag() uint8 { return TagTestbeds + 14 }

func (b *boxPtr) MarshalWire(w *Writer) { w.String(b.S) }

func init() {
	Register(func(r *Reader) box { return box{N: r.Varint(), Inner: r.Message()} })
	Register(func(r *Reader) *boxPtr { return &boxPtr{S: r.String()} })
}

func TestMessageRoundTrip(t *testing.T) {
	for _, v := range []any{nil, box{N: -3}, box{N: 4, Inner: &boxPtr{S: "x"}}, box{Inner: box{Inner: box{N: 1}}}} {
		w := NewWriter(0)
		w.Message(v)
		if w.Err() != nil {
			t.Fatalf("%#v: %v", v, w.Err())
		}
		r := NewReader(w.Bytes())
		got := r.Message()
		if err := r.Finish(); err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("got %#v, want %#v", got, v)
		}
	}
}

// TestMessageRejectsWhatItCannotCarry: an unregistered type, a registered
// type's value form when its pointer is registered, and a nil pointer fail
// with Err; Truncate drops what they left and clears the error.
func TestMessageRejectsWhatItCannotCarry(t *testing.T) {
	for _, v := range []any{struct{}{}, "s", boxPtr{S: "x"}, (*boxPtr)(nil), box{Inner: 7}} {
		w := NewWriter(0)
		w.U8(9)
		w.Message(v)
		if w.Err() == nil {
			t.Errorf("%#v encoded without error", v)
		}
		w.Truncate(1)
		if w.Err() != nil || len(w.Bytes()) != 1 {
			t.Errorf("after Truncate: err %v, %d bytes", w.Err(), len(w.Bytes()))
		}
	}
}

func TestMessageNestingIsBounded(t *testing.T) {
	var v any = box{}
	for i := 0; i < maxNesting; i++ {
		v = box{Inner: v}
	}
	w := NewWriter(0)
	w.Message(v)
	r := NewReader(w.Bytes())
	r.Message()
	if r.Err() == nil {
		t.Fatalf("%d nested messages decoded", maxNesting+1)
	}
	for _, tag := range []byte{1, TagMAMS - 1, 255} {
		r := NewReader([]byte{tag})
		if r.Message(); r.Err() == nil {
			t.Errorf("unregistered tag %d decoded", tag)
		}
	}
}

// TestNonMinimalVarintRejected: the encoding is canonical, so a varint
// with a redundant zero continuation byte is corrupt.
func TestNonMinimalVarintRejected(t *testing.T) {
	for _, b := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}} {
		r := NewReader(b)
		r.Uvarint()
		if r.Err() == nil {
			t.Errorf("% x decoded", b)
		}
		r = NewReader(b)
		r.Varint()
		if r.Err() == nil {
			t.Errorf("% x decoded as a varint", b)
		}
	}
}

func TestCountChecksRemainingBytes(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(3)
	w.U8(0)
	w.U8(0)
	w.U8(0)
	if n := NewReader(w.Bytes()).Count(1); n != 3 {
		t.Errorf("Count(1) = %d, want 3", n)
	}
	r := NewReader(w.Bytes())
	if n := r.Count(2); n != 0 || r.Err() == nil {
		t.Errorf("Count(2) = %d (err %v): three 2-byte elements do not fit in 3 bytes", n, r.Err())
	}
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Errorf("Count(1) = %d on a 4G count with no bytes behind it", n)
	}
}
