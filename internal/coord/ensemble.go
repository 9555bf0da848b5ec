package coord

import (
	"fmt"

	"mams/internal/trace"
	"mams/internal/transport"
)

// Ensemble bundles a started coordination service.
type Ensemble struct {
	Servers []*Server
	IDs     []transport.NodeID
}

// EnsembleIDs names an n-server ensemble coord0..coord{n-1}, on both
// planes.
func EnsembleIDs(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("coord%d", i))
	}
	return ids
}

// StartEnsemble creates and starts n coordination servers named by
// EnsembleIDs. The first member bootstraps leadership.
func StartEnsemble(net transport.Transport, n int, log *trace.Log) *Ensemble {
	if n <= 0 {
		panic("coord: ensemble size must be positive")
	}
	ids := EnsembleIDs(n)
	e := &Ensemble{IDs: ids}
	for i, id := range ids {
		s := NewServer(net, ServerConfig{ID: id, Ensemble: ids, Bootstrap: i == 0}, log)
		s.Start()
		e.Servers = append(e.Servers, s)
	}
	return e
}

// Leader returns the current leader, or nil if none claims leadership.
func (e *Ensemble) Leader() *Server {
	for _, s := range e.Servers {
		if s.Leading() && s.Node().Up() {
			return s
		}
	}
	return nil
}
