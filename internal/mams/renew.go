package mams

import (
	"fmt"

	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/trace"
	"mams/internal/transport"
)

// The renewing protocol's fixed timing and sizes (§III.D).
const (
	// renewScanEvery is the active's global-view scan period for juniors.
	renewScanEvery = 2 * sim.Second
	// renewSmallGap is the sn gap at or below which a junior enters the
	// final synchronization stage.
	renewSmallGap = 8
	// renewJournalChunk is the number of journal batches per catch-up round
	// trip.
	renewJournalChunk = 64
)

// ---- active side of the renewing protocol (§III.D) ----

// armRenewScan starts the active's periodic global-view scan for juniors.
func (s *Server) armRenewScan() {
	if s.renewScanOn {
		return
	}
	s.renewScanOn = true
	var loop func()
	loop = func() {
		if !s.renewScanOn || s.role != RoleActive {
			s.renewScanOn = false
			return
		}
		s.scanJuniors()
		s.node.After(renewScanEvery, "mams-renew-scan", loop)
	}
	s.node.After(renewScanEvery, "mams-renew-scan", loop)
}

// scanJuniors launches one renewing session at a time, choosing the junior
// with the least namespace gap ("it selects one server with the least gap
// in namespace state and creates a session for recovery at each time").
func (s *Server) scanJuniors() {
	if s.pipe == nil {
		return
	}
	start := RenewStart{
		From: s.cfg.ID, Epoch: s.view.Epoch, ActiveSN: s.pipe.committedSN,
		ImageSN: s.lastImageSN, ImageSize: s.lastImageSize,
	}
	if s.renewSession != "" {
		// Re-send the session opener: the junior may have missed it (it
		// is idempotent on the junior side). A dead junior releases the
		// session via the timeout below.
		if s.view.States[string(s.renewSession)] == RoleJunior {
			s.node.Send(s.renewSession, start)
		} else if s.renewTarget != s.renewSession {
			s.renewSession = ""
		}
		return
	}
	juniors := s.view.Juniors()
	if len(juniors) == 0 {
		return
	}
	best := ""
	bestSN := uint64(0)
	for _, j := range juniors {
		if j == string(s.cfg.ID) {
			continue
		}
		sn := s.renewLastSeen[transport.NodeID(j)]
		if best == "" || sn > bestSN {
			best, bestSN = j, sn
		}
	}
	if best == "" {
		return
	}
	s.renewSession = transport.NodeID(best)
	s.emit(trace.KindRenew, "renew-start", "junior", best, "sn", fmt.Sprint(bestSN))
	s.node.Send(s.renewSession, start)
	// Give up on unresponsive juniors so others can be renewed.
	sess := s.renewSession
	s.node.After(15*sim.Second, "mams-renew-timeout", func() {
		if s.renewSession == sess && s.renewTarget != sess {
			s.renewSession = ""
		}
	})
}

// onRenewJournalReq streams committed batches to a catching-up junior.
func (s *Server) onRenewJournalReq(m RenewJournalReq, reply func(any)) {
	if s.pipe == nil {
		reply(RenewJournalResp{})
		return
	}
	committed := s.pipe.committedSN
	s.renewLastSeen[m.From] = m.FromSN
	batches := s.log.Since(m.FromSN)
	resp := RenewJournalResp{ActiveSN: committed}
	if len(batches) == 0 || batches[0].SN != m.FromSN+1 {
		if committed > m.FromSN {
			// The tail below our retained log is unavailable (checkpointed
			// away, or this active itself recovered from an image). Point
			// the junior at a checkpoint — taking one now if none exists.
			if s.lastImageSN == 0 || s.lastImageSN <= m.FromSN {
				s.Checkpoint(nil)
			}
			resp.NeedImage = true
			resp.ImageSN = s.lastImageSN
			resp.ImageSize = s.lastImageSize
			reply(resp)
			return
		}
		reply(resp)
		return
	}
	for _, b := range batches {
		if b.SN > committed || len(resp.Batches) >= renewJournalChunk {
			break
		}
		resp.Batches = append(resp.Batches, b)
	}
	reply(resp)
}

// onRenewProgress tracks the junior's position and, when the gap is small,
// runs the final synchronization stage: include the junior in live
// replication, flush the missing tail, update the view, and promote.
func (s *Server) onRenewProgress(m RenewProgress) {
	if s.pipe == nil {
		return
	}
	committed := s.pipe.committedSN
	s.renewLastSeen[m.From] = m.SN
	if s.view.States[string(m.From)] != RoleJunior {
		return
	}
	gap := committed - m.SN
	if m.SN > committed {
		gap = 0
	}
	if gap > renewSmallGap {
		return
	}
	s.emit(trace.KindRenew, "renew-final-sync", "junior", string(m.From), "gap", fmt.Sprint(gap))
	// From this instant every sealed batch also goes to the junior; the
	// missing tail is flushed first (FIFO links keep it in order). The flush
	// covers the full sealed log, not just the committed prefix: batches
	// sealed while every standby was fenced exist only on this active, and a
	// member promoted without them could never obtain them outside failover
	// (the re-flush of Fig. 4 step 4 only replays the last few batches).
	s.renewTarget = m.From
	s.invalidateReplTargets()
	for _, b := range s.log.Since(m.SN) {
		s.node.Send(m.From, AppendBatch{From: s.cfg.ID, Epoch: s.view.Epoch, Batch: b,
			CommitThrough: committed, FlushOnly: true})
	}
	s.node.Send(m.From, CommitNotice{Epoch: s.view.Epoch, Through: committed})
	s.casView(func(v *View) bool {
		if v.Active != string(s.cfg.ID) || v.States[string(m.From)] != RoleJunior {
			return false
		}
		v.States[string(m.From)] = RoleStandby
		return true
	}, func(err error) {
		if err == nil {
			s.node.Send(m.From, Promote{Epoch: s.view.Epoch, LastTx: s.lastTx})
			s.emit(trace.KindRenew, "renew-done", "junior", string(m.From))
		}
		s.renewSession = ""
	})
}

// ---- junior side ----

// onRenewStart begins catching up: image first when the gap is large, then
// the journal tail, pulled from the SSP/active in chunks.
func (s *Server) onRenewStart(m RenewStart) {
	if s.role != RoleJunior || s.renewing {
		return
	}
	s.renewing = true
	s.renewActive = m.From
	s.emit(trace.KindRenew, "renewing", "from", string(m.From),
		"mysn", fmt.Sprint(s.log.LastSN()), "activesn", fmt.Sprint(m.ActiveSN))
	s.renewSpan = s.spans.Begin("renew", string(s.cfg.ID), 0,
		"from", string(m.From), "mysn", fmt.Sprint(s.log.LastSN()), "activesn", fmt.Sprint(m.ActiveSN))
	gap := m.ActiveSN - s.log.LastSN()
	if m.ActiveSN < s.log.LastSN() {
		gap = 0
	}
	if m.ImageSN > s.log.LastSN() && (s.log.LastSN() == 0 || gap > 4*renewJournalChunk) {
		s.fetchRenewImage(m.ImageSN)
		return
	}
	s.pullRenewJournal()
}

// fetchRenewImage loads a checkpoint from the pool (locally when present).
func (s *Server) fetchRenewImage(imageSN uint64) {
	key := ssp.Key{Group: s.group, Kind: ssp.KindImage, Seq: imageSN}
	s.emit(trace.KindRenew, "image-fetch", "sn", fmt.Sprint(imageSN))
	s.renewFetchSpan = s.spans.Begin("renew-image-fetch", string(s.cfg.ID), s.renewSpan,
		"sn", fmt.Sprint(imageSN))
	s.sspc.Get(key, func(data []byte, size int64, err error) {
		if !s.renewing || s.role != RoleJunior {
			s.spans.End(s.renewFetchSpan, "outcome", "stale")
			s.renewFetchSpan = 0
			return
		}
		if err != nil {
			s.spans.End(s.renewFetchSpan, "outcome", "error")
			s.renewFetchSpan = 0
			s.pullRenewJournal() // journal-only fallback
			return
		}
		tree, lerr := namespace.LoadImage(data)
		if lerr != nil {
			s.spans.End(s.renewFetchSpan, "outcome", "decode-error")
			s.renewFetchSpan = 0
			s.pullRenewJournal()
			return
		}
		s.tree = tree
		s.log.ResetTo(imageSN, s.view.Epoch)
		s.emit(trace.KindRenew, "image-loaded", "sn", fmt.Sprint(imageSN))
		s.spans.End(s.renewFetchSpan, "outcome", "loaded", "bytes", fmt.Sprint(size))
		s.renewFetchSpan = 0
		s.pullRenewJournal()
	})
}

// pullRenewJournal drives the junior's catch-up loop. The junior records
// its checkpoint position after every chunk, so an interrupted recovery
// resumes "from other replicas in the last position".
func (s *Server) pullRenewJournal() {
	if !s.renewing || s.role != RoleJunior {
		return
	}
	if s.renewCatchupSpan == 0 && s.renewSpan != 0 {
		s.renewCatchupSpan = s.spans.Begin("renew-catchup", string(s.cfg.ID), s.renewSpan,
			"fromsn", fmt.Sprint(s.log.LastSN()))
	}
	req := RenewJournalReq{From: s.cfg.ID, FromSN: s.log.LastSN()}
	s.node.Call(s.renewActive, req, 5*sim.Second, func(resp any, err error) {
		if !s.renewing || s.role != RoleJunior {
			return
		}
		if err != nil {
			// Active unreachable (possibly failed over); retry later —
			// the new active will start a fresh session.
			s.renewing = false
			s.endRenewSpans("active-unreachable")
			return
		}
		r, ok := resp.(RenewJournalResp)
		if !ok {
			s.renewing = false
			s.endRenewSpans("bad-response")
			return
		}
		if r.NeedImage && r.ImageSN > s.log.LastSN() {
			s.fetchRenewImage(r.ImageSN)
			return
		}
		if len(r.Batches) == 0 {
			// Caught up (or the active has nothing newer): report and
			// wait for promotion or another round.
			s.node.Send(s.renewActive, RenewProgress{From: s.cfg.ID, SN: s.log.LastSN()})
			s.node.After(500*sim.Millisecond, "mams-renew-repull", func() {
				if s.renewing && s.role == RoleJunior {
					s.pullRenewJournal()
				}
			})
			return
		}
		// Apply the chunk with modeled CPU cost, then continue.
		cost := sim.Time(len(r.Batches)) * s.cfg.Params.RenewBatchApply
		transport.Charge(s.node, cost, "mams-renew-apply", func() {
			if !s.renewing || s.role != RoleJunior {
				return
			}
			for _, b := range r.Batches {
				if b.SN != s.log.LastSN()+1 {
					break
				}
				if err := s.applyBatch(b); err != nil {
					// Divergent state (e.g. inherited from a dirty past
					// life): start over from the pool.
					s.emit(trace.KindRenew, "renew-apply-error", "err", err.Error())
					s.hardResetToJunior()
					s.renewing = false
					return
				}
			}
			s.node.Send(s.renewActive, RenewProgress{From: s.cfg.ID, SN: s.log.LastSN()})
			s.pullRenewJournal()
		})
	})
}
