package ssp

import "mams/internal/wire"

// Wire codecs for the real transport (see internal/mams/codec.go).

const (
	tagStoreReq = wire.TagSSP + iota
	tagStoreResp
	tagFetchReq
	tagFetchResp
	tagListReq
	tagListResp
	tagHasReq
	tagHasResp
	tagDeleteReq
	tagDeleteResp
)

func init() {
	wire.Register(readStoreReq)
	wire.Register(func(r *wire.Reader) storeResp { return storeResp{Err: r.String()} })
	wire.Register(func(r *wire.Reader) fetchReq { return fetchReq{Key: readKey(r)} })
	wire.Register(readFetchResp)
	wire.Register(func(r *wire.Reader) listReq { return listReq{Group: r.String()} })
	wire.Register(readListResp)
	wire.Register(func(r *wire.Reader) hasReq { return hasReq{Key: readKey(r)} })
	wire.Register(func(r *wire.Reader) hasResp { return hasResp{Has: r.Bool(), Size: r.Varint()} })
	wire.Register(func(r *wire.Reader) deleteReq { return deleteReq{Key: readKey(r)} })
	wire.Register(func(*wire.Reader) deleteResp { return deleteResp{} })
}

// minKeyLen is the fewest bytes a Key encodes to.
const minKeyLen = 3

func (k Key) marshal(w *wire.Writer) {
	w.String(k.Group)
	w.U8(uint8(k.Kind))
	w.Uvarint(k.Seq)
}

func readKey(r *wire.Reader) Key { return Key{Group: r.String(), Kind: Kind(r.U8()), Seq: r.Uvarint()} }

func (storeReq) WireTag() uint8 { return tagStoreReq }

func (m storeReq) MarshalWire(w *wire.Writer) {
	m.Key.marshal(w)
	w.Blob(m.Data)
	w.Varint(m.Size)
}

func readStoreReq(r *wire.Reader) storeReq {
	return storeReq{Key: readKey(r), Data: r.Blob(), Size: r.Varint()}
}

func (storeResp) WireTag() uint8 { return tagStoreResp }

func (m storeResp) MarshalWire(w *wire.Writer) { w.String(m.Err) }

func (fetchReq) WireTag() uint8 { return tagFetchReq }

func (m fetchReq) MarshalWire(w *wire.Writer) { m.Key.marshal(w) }

func (fetchResp) WireTag() uint8 { return tagFetchResp }

func (m fetchResp) MarshalWire(w *wire.Writer) {
	w.String(m.Err)
	w.Blob(m.Data)
	w.Varint(m.Size)
}

func readFetchResp(r *wire.Reader) fetchResp {
	return fetchResp{Err: r.String(), Data: r.Blob(), Size: r.Varint()}
}

func (listReq) WireTag() uint8 { return tagListReq }

func (m listReq) MarshalWire(w *wire.Writer) { w.String(m.Group) }

func (listResp) WireTag() uint8 { return tagListResp }

func (m listResp) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.Keys)))
	for _, k := range m.Keys {
		k.marshal(w)
	}
	w.Uvarint(uint64(len(m.Sizes)))
	for _, s := range m.Sizes {
		w.Varint(s)
	}
}

func readListResp(r *wire.Reader) listResp {
	var m listResp
	if n := r.Count(minKeyLen); n > 0 {
		m.Keys = make([]Key, n)
		for i := range m.Keys {
			m.Keys[i] = readKey(r)
		}
	}
	if n := r.Count(1); n > 0 {
		m.Sizes = make([]int64, n)
		for i := range m.Sizes {
			m.Sizes[i] = r.Varint()
		}
	}
	return m
}

func (hasReq) WireTag() uint8 { return tagHasReq }

func (m hasReq) MarshalWire(w *wire.Writer) { m.Key.marshal(w) }

func (hasResp) WireTag() uint8 { return tagHasResp }

func (m hasResp) MarshalWire(w *wire.Writer) {
	w.Bool(m.Has)
	w.Varint(m.Size)
}

func (deleteReq) WireTag() uint8 { return tagDeleteReq }

func (m deleteReq) MarshalWire(w *wire.Writer) { m.Key.marshal(w) }

func (deleteResp) WireTag() uint8 { return tagDeleteResp }

func (deleteResp) MarshalWire(*wire.Writer) {}
