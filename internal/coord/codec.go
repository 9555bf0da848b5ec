package coord

import (
	"mams/internal/transport"
	"mams/internal/wire"
)

// Wire codecs for the real transport (see internal/mams/codec.go). *Op is
// the value replicated through paxos — proposed as a pointer, so the
// pointer type is what lands in the interface-typed paxos fields and what
// its reader returns.

const (
	tagClientRequest = wire.TagCoord + iota
	tagClientResponse
	tagPingRequest
	tagAnnounce
	tagPoisonRequest
	tagWatchEvent
	tagOp
	tagRefusedReport
	tagLivenessProbe
)

func init() {
	wire.Register(readClientRequest)
	wire.Register(readClientResponse)
	wire.Register(readPingRequest)
	wire.Register(readAnnounce)
	wire.Register(readPoisonRequest)
	wire.Register(readWatchEvent)
	wire.Register(readOpPtr)
	wire.Register(readRefusedReport)
	wire.Register(readLivenessProbe)
}

func (*Op) WireTag() uint8 { return tagOp }

func (o *Op) MarshalWire(w *wire.Writer) {
	w.Uvarint(o.ReqID)
	w.U8(uint8(o.Kind))
	w.Uvarint(o.Session)
	w.String(o.Path)
	w.Blob(o.Data)
	w.Bool(o.Ephemeral)
	w.Bool(o.Sequential)
	w.Varint(o.Version)
	w.Bool(o.Watch)
	w.String(string(o.ClientNode))
	w.Varint(o.TimeoutNs)
}

func readOp(r *wire.Reader) Op {
	return Op{ReqID: r.Uvarint(), Kind: OpKind(r.U8()), Session: r.Uvarint(), Path: r.String(), Data: r.Blob(),
		Ephemeral: r.Bool(), Sequential: r.Bool(), Version: r.Varint(), Watch: r.Bool(),
		ClientNode: transport.NodeID(r.String()), TimeoutNs: r.Varint()}
}

func readOpPtr(r *wire.Reader) *Op {
	o := readOp(r)
	return &o
}

func (clientRequest) WireTag() uint8 { return tagClientRequest }

func (m clientRequest) MarshalWire(w *wire.Writer) { m.Op.MarshalWire(w) }

func readClientRequest(r *wire.Reader) clientRequest { return clientRequest{Op: readOp(r)} }

func (clientResponse) WireTag() uint8 { return tagClientResponse }

func (m clientResponse) MarshalWire(w *wire.Writer) {
	res := &m.Res
	w.String(res.Err)
	w.String(res.Path)
	w.Blob(res.Data)
	w.Varint(res.Version)
	w.Bool(res.Exists)
	w.Uvarint(uint64(len(res.Children)))
	for _, c := range res.Children {
		w.String(c)
	}
	w.Uvarint(res.Session)
	w.Bool(m.NotLeader)
	w.String(string(m.Redirect))
}

func readClientResponse(r *wire.Reader) clientResponse {
	res := Result{Err: r.String(), Path: r.String(), Data: r.Blob(), Version: r.Varint(), Exists: r.Bool()}
	if n := r.Count(1); n > 0 {
		res.Children = make([]string, n)
		for i := range res.Children {
			res.Children[i] = r.String()
		}
	}
	res.Session = r.Uvarint()
	return clientResponse{Res: res, NotLeader: r.Bool(), Redirect: transport.NodeID(r.String())}
}

func (pingRequest) WireTag() uint8 { return tagPingRequest }

func (m pingRequest) MarshalWire(w *wire.Writer) { w.Uvarint(m.Session) }

func readPingRequest(r *wire.Reader) pingRequest { return pingRequest{Session: r.Uvarint()} }

func (announce) WireTag() uint8 { return tagAnnounce }

func (m announce) MarshalWire(w *wire.Writer) { w.String(string(m.Leader)) }

func readAnnounce(r *wire.Reader) announce { return announce{Leader: transport.NodeID(r.String())} }

func (poisonRequest) WireTag() uint8 { return tagPoisonRequest }

func (m poisonRequest) MarshalWire(w *wire.Writer) { w.String(string(m.Node)) }

func readPoisonRequest(r *wire.Reader) poisonRequest {
	return poisonRequest{Node: transport.NodeID(r.String())}
}

func (WatchEvent) WireTag() uint8 { return tagWatchEvent }

func (m WatchEvent) MarshalWire(w *wire.Writer) {
	w.String(m.Path)
	w.U8(uint8(m.Type))
}

func readWatchEvent(r *wire.Reader) WatchEvent {
	return WatchEvent{Path: r.String(), Type: EventType(r.U8())}
}

func (refusedReport) WireTag() uint8 { return tagRefusedReport }

func (m refusedReport) MarshalWire(w *wire.Writer) { w.String(string(m.Node)) }

func readRefusedReport(r *wire.Reader) refusedReport {
	return refusedReport{Node: transport.NodeID(r.String())}
}

func (livenessProbe) WireTag() uint8 { return tagLivenessProbe }

func (livenessProbe) MarshalWire(*wire.Writer) {}

func readLivenessProbe(*wire.Reader) livenessProbe { return livenessProbe{} }
