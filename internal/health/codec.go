package health

import (
	"mams/internal/sim"
	"mams/internal/wire"
)

// Wire codecs for the real transport (see internal/mams/codec.go).

const (
	tagProbeReq = wire.TagHealth + iota
	tagProbeResp
)

func init() {
	wire.Register(func(*wire.Reader) ProbeReq { return ProbeReq{} })
	wire.Register(func(r *wire.Reader) ProbeResp { return ProbeResp{LocalNow: sim.Time(r.Varint())} })
}

func (ProbeReq) WireTag() uint8 { return tagProbeReq }

func (ProbeReq) MarshalWire(*wire.Writer) {}

func (ProbeResp) WireTag() uint8 { return tagProbeResp }

func (m ProbeResp) MarshalWire(w *wire.Writer) { w.Varint(int64(m.LocalNow)) }
