// Package wire implements the compact binary encoding used for journal
// records, journal batches and namespace images stored in the shared
// storage pool, and for every message the real transport (internal/nettrans)
// frames. Encoding is real (byte-accurate), so image sizes measured by the
// experiments reflect actual serialized state.
//
// A message is any type with a WireTag and a MarshalWire method whose
// decoder is registered here under that tag (Register); Writer.Message and
// Reader.Message carry one, tag first, and are how a message nests another
// in an `any` field. The encoding is canonical: a decoder accepts only
// what its encoder would have written (minimal varints, booleans 0 or 1,
// map keys strictly ascending), so a value has exactly one encoding.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
)

// ErrCorrupt reports a malformed or truncated buffer.
var ErrCorrupt = errors.New("wire: corrupt data")

// Writer appends primitive values to a growing byte buffer. The zero
// Writer is ready to use. The first value that cannot be encoded (a
// Message of an unregistered type) sticks in Err.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer (owned by the writer).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Err returns the sticky encoding error, if any.
func (w *Writer) Err() error { return w.err }

// Truncate cuts the buffer back to its first n bytes and clears Err: how a
// caller drops a value that failed to encode and keeps what came before.
func (w *Writer) Truncate(n int) {
	w.buf = w.buf[:n]
	w.err = nil
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a fixed-width big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a fixed-width big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a fixed-width big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// UvarintLen is how many bytes Uvarint(v) appends.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen is how many bytes Varint(v) appends.
func VarintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return UvarintLen(ux)
}

// StringLen is how many bytes String(s) appends.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Reader consumes primitive values from a byte buffer. The first decoding
// error sticks; callers check Err (or Finish) once at the end.
type Reader struct {
	buf   []byte
	off   int
	err   error
	depth int // Message nesting at the read position
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset makes r read buf from its start, with no error.
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrCorrupt, r.off)
	}
}

// Fail records err (wrapped as ErrCorrupt) unless an error is already
// recorded: how a decoder that validates a value beyond its bytes rejects
// the buffer.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d: %v", ErrCorrupt, r.off, err)
	}
}

// Uvarint reads an unsigned varint. A varint longer than it needs to be
// (a zero last byte) is corrupt: Writer never emits one.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || r.buf[r.off+n-1] == 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint (zig-zag).
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads an element count and checks that many elements could fit in
// what remains when each takes at least min bytes, so a decoder can
// allocate for the count without trusting it further. It returns 0 once
// the buffer is corrupt.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/min) {
		r.fail()
		return 0
	}
	return int(n)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a fixed-width big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a fixed-width big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a fixed-width big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.BlobView()) }

// BlobView reads what String or Blob wrote without copying it: the result
// aliases the buffer, so it is only good while the buffer is.
func (r *Reader) BlobView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Blob reads a length-prefixed byte slice (copied); an empty one reads as
// nil.
func (r *Reader) Blob() []byte { return append([]byte(nil), r.BlobView()...) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err != nil {
		return false
	}
	if v > 1 {
		r.fail()
		return false
	}
	return v == 1
}

// Finish returns ErrCorrupt if any decode failed or bytes remain unread.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return nil
}

// ---- messages ----

// Message is a value the real transport can carry: WireTag names its type
// on the wire and MarshalWire appends its fields. Its decoder is registered
// under the same tag with Register.
type Message interface {
	WireTag() uint8
	MarshalWire(w *Writer)
}

// Tag ranges: each package that defines messages numbers them from its
// base, in declaration order, and stays below the next base. Tag 0 is the
// nil message.
const (
	tagNil      = 0
	TagMAMS     = 16  // internal/mams
	TagCoord    = 64  // internal/coord
	TagPaxos    = 80  // internal/paxos
	TagSSP      = 96  // internal/ssp
	TagHealth   = 112 // internal/health
	TagTestbeds = 240 // transport conformance suites and tests
)

// maxNesting bounds Message inside Message, so a hostile buffer cannot
// recurse the decoder off its stack.
const maxNesting = 8

type registered struct {
	typ    reflect.Type
	ptr    bool // typ is a pointer type, so a value of it may be nil
	decode func(*Reader) any
}

var registry [256]registered

// Register installs the decoder for T's tag, taken from T's zero value
// (which must not dereference a nil pointer receiver). It panics on a tag
// already taken or inside no package's range. Call from init.
func Register[T Message](decode func(*Reader) T) {
	var zero T
	tag := zero.WireTag()
	if tag < TagMAMS || registry[tag].decode != nil {
		panic(fmt.Sprintf("wire: tag %d of %T is reserved or taken by %v", tag, zero, registry[tag].typ))
	}
	typ := reflect.TypeFor[T]()
	registry[tag] = registered{typ, typ.Kind() == reflect.Pointer, func(r *Reader) any { return decode(r) }}
}

// Registered lists the registered message types in tag order.
func Registered() []reflect.Type {
	var out []reflect.Type
	for _, e := range registry {
		if e.typ != nil {
			out = append(out, e.typ)
		}
	}
	return out
}

// Message appends v's tag and fields: tag 0 for nil, Err for a value that
// is not a registered Message or is a nil pointer to one.
func (w *Writer) Message(v any) {
	if v == nil {
		w.U8(tagNil)
		return
	}
	m, ok := v.(Message)
	if ok {
		e := &registry[m.WireTag()]
		ok = e.typ == reflect.TypeOf(v) && !(e.ptr && reflect.ValueOf(v).IsNil())
	}
	if !ok {
		if w.err == nil {
			w.err = fmt.Errorf("wire: %T is not a registered message, or is a nil pointer", v)
		}
		return
	}
	w.U8(m.WireTag())
	m.MarshalWire(w)
}

// Message reads a value written by Writer.Message.
func (r *Reader) Message() any {
	tag := r.U8()
	if r.err != nil || tag == tagNil {
		return nil
	}
	dec := registry[tag].decode
	if dec == nil || r.depth == maxNesting {
		r.fail()
		return nil
	}
	r.depth++
	v := dec(r)
	r.depth--
	if r.err != nil {
		return nil
	}
	return v
}
