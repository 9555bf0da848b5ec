package paxos

import (
	"errors"
	"slices"

	"mams/internal/wire"
)

// Wire codecs for the real transport: every Msg plus Noop, which travels
// inside the interface-typed V fields when recovery fills log gaps. A V
// is written with Writer.Message, so it can be any registered message
// (coord's *Op in practice). Map entries go out in ascending key order, and
// a reader refuses any other order: one value, one encoding.

const (
	tagPrepare = wire.TagPaxos + iota
	tagPromise
	tagAccept
	tagAccepted
	tagNack
	tagLearn
	tagLearnReq
	tagLearnBatch
	tagNoop
)

func init() {
	wire.Register(readPrepare)
	wire.Register(readPromise)
	wire.Register(readAccept)
	wire.Register(readAccepted)
	wire.Register(readNack)
	wire.Register(readLearn)
	wire.Register(readLearnReq)
	wire.Register(readLearnBatch)
	wire.Register(func(*wire.Reader) Noop { return Noop{} })
}

func (b Ballot) marshal(w *wire.Writer) {
	w.Uvarint(b.N)
	w.String(b.ID)
}

func readBallot(r *wire.Reader) Ballot { return Ballot{N: r.Uvarint(), ID: r.String()} }

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// readKey reads the next map key, which must be above the previous one
// (any key is, for the first: i == 0).
func readKey(r *wire.Reader, i int, prev uint64) uint64 {
	k := r.Uvarint()
	if i > 0 && k <= prev {
		r.Fail(errKeyOrder)
	}
	return k
}

var errKeyOrder = errors.New("paxos: map keys not in ascending order")

func (Prepare) WireTag() uint8 { return tagPrepare }

func (m Prepare) MarshalWire(w *wire.Writer) {
	m.B.marshal(w)
	w.Uvarint(m.FromSlot)
}

func readPrepare(r *wire.Reader) Prepare { return Prepare{B: readBallot(r), FromSlot: r.Uvarint()} }

func (Promise) WireTag() uint8 { return tagPromise }

func (m Promise) MarshalWire(w *wire.Writer) {
	m.B.marshal(w)
	w.String(m.From)
	w.Uvarint(uint64(len(m.Accepted)))
	for _, k := range sortedKeys(m.Accepted) {
		w.Uvarint(k)
		m.Accepted[k].B.marshal(w)
		w.Message(m.Accepted[k].V)
	}
	w.Uvarint(uint64(len(m.Chosen)))
	for _, k := range sortedKeys(m.Chosen) {
		w.Uvarint(k)
		w.Message(m.Chosen[k])
	}
}

func readPromise(r *wire.Reader) Promise {
	m := Promise{B: readBallot(r), From: r.String()}
	// An entry takes at least a key byte, an empty ballot's two and a tag.
	if n := r.Count(4); n > 0 {
		m.Accepted = make(map[uint64]AcceptedVal, n)
		var k uint64
		for i := 0; i < n && r.Err() == nil; i++ {
			k = readKey(r, i, k)
			m.Accepted[k] = AcceptedVal{B: readBallot(r), V: r.Message()}
		}
	}
	if n := r.Count(2); n > 0 {
		m.Chosen = make(map[uint64]any, n)
		var k uint64
		for i := 0; i < n && r.Err() == nil; i++ {
			k = readKey(r, i, k)
			m.Chosen[k] = r.Message()
		}
	}
	return m
}

func (Accept) WireTag() uint8 { return tagAccept }

func (m Accept) MarshalWire(w *wire.Writer) {
	m.B.marshal(w)
	w.Uvarint(m.Slot)
	w.Message(m.V)
}

func readAccept(r *wire.Reader) Accept {
	return Accept{B: readBallot(r), Slot: r.Uvarint(), V: r.Message()}
}

func (Accepted) WireTag() uint8 { return tagAccepted }

func (m Accepted) MarshalWire(w *wire.Writer) {
	m.B.marshal(w)
	w.Uvarint(m.Slot)
	w.String(m.From)
}

func readAccepted(r *wire.Reader) Accepted {
	return Accepted{B: readBallot(r), Slot: r.Uvarint(), From: r.String()}
}

func (Nack) WireTag() uint8 { return tagNack }

func (m Nack) MarshalWire(w *wire.Writer) {
	m.B.marshal(w)
	m.Promised.marshal(w)
}

func readNack(r *wire.Reader) Nack { return Nack{B: readBallot(r), Promised: readBallot(r)} }

func (Learn) WireTag() uint8 { return tagLearn }

func (m Learn) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Slot)
	w.Message(m.V)
}

func readLearn(r *wire.Reader) Learn { return Learn{Slot: r.Uvarint(), V: r.Message()} }

func (LearnReq) WireTag() uint8 { return tagLearnReq }

func (m LearnReq) MarshalWire(w *wire.Writer) { w.Uvarint(m.From) }

func readLearnReq(r *wire.Reader) LearnReq { return LearnReq{From: r.Uvarint()} }

func (LearnBatch) WireTag() uint8 { return tagLearnBatch }

func (m LearnBatch) MarshalWire(w *wire.Writer) {
	w.Uvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		it.MarshalWire(w)
	}
}

func readLearnBatch(r *wire.Reader) LearnBatch {
	var m LearnBatch
	if n := r.Count(2); n > 0 { // a slot byte and a tag
		m.Items = make([]Learn, n)
		for i := range m.Items {
			m.Items[i] = readLearn(r)
		}
	}
	return m
}

func (Noop) WireTag() uint8 { return tagNoop }

func (Noop) MarshalWire(*wire.Writer) {}
