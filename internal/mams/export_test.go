package mams

import "mams/internal/ssp"

// ReflushTailForTest replays the failover step-4 re-flush from this server
// exactly as commitCachedAndFlip would, letting tests exercise duplicate
// suppression without staging a full active crash.
func (s *Server) ReflushTailForTest() {
	s.reflushTail(s.view.Epoch)
}

// BreakSSPForTest swaps the server's pool client for one with no reachable
// pool nodes, so every Put fails immediately with ssp.ErrNoPool. The seal
// path re-reads s.sspc on each retry, so RestoreSSPForTest heals the next
// retry attempt.
func (s *Server) BreakSSPForTest() {
	s.sspc = ssp.NewClient(s.node, nil, nil, sspReplicas)
}

// RestoreSSPForTest reinstalls the real pool client after BreakSSPForTest.
func (s *Server) RestoreSSPForTest() {
	s.sspc = s.newPoolClient()
}

// RetryCacheLenForTest reports how many replies the retry cache holds.
func (s *Server) RetryCacheLenForTest() int {
	return len(s.retryCache)
}

// PendingReplForTest reports how many sealed batches are awaiting commit.
func (s *Server) PendingReplForTest() int {
	if s.pipe == nil {
		return 0
	}
	return len(s.pipe.pending)
}

// UpgradeForTest runs the Fig. 4 upgrade on this server as if it had just
// won the group lock.
func (s *Server) UpgradeForTest() {
	s.runUpgrade(&election{})
}

// HeldRegistrationsForTest reports how many Register messages the server
// holds for classification when it turns active.
func (s *Server) HeldRegistrationsForTest() int {
	if s.elect == nil {
		return 0
	}
	return len(s.elect.regs)
}

// PreparedTxnsForTest reports how many cross-group transactions this server
// has prepared as a participant.
func (s *Server) PreparedTxnsForTest() int {
	return len(s.preparedTxns)
}
