package mams

import (
	"fmt"

	"mams/internal/coord"
	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/sim"
	"mams/internal/ssp"
	"mams/internal/trace"
	"mams/internal/transport"
)

// onLockGone fires when the group's distributed lock (or the active's
// liveness node) disappears: the event-driven trigger of §III.C.
func (s *Server) onLockGone() {
	if s.role == RoleActive {
		// Test A scenario: we are the active and lost the lock while
		// alive. Stop providing service immediately and wait to register
		// with whoever wins (Fig. 8a: the original active registered to
		// the new one as a standby).
		s.onDeposedByLockLoss()
		return
	}
	s.maybeElect()
}

func (s *Server) onDeposedByLockLoss() {
	s.emit(trace.KindFailover, "active-lost-lock", "epoch", fmt.Sprint(s.view.Epoch))
	if !s.leaveActive("lock-loss", fmt.Errorf("mams: lost lock")) {
		s.role = RoleStandby // tentative; registration reclassifies by sn
	}
	s.armWatches()
}

// reportRefused passes on a client's word that the active's address
// refused its call. The member only forwards it: the coordination leader
// probes the address itself and ends the active's session only on its own
// proof (coord.Client.ReportRefused), so a wrong or stale report costs a
// probe and nothing else. One report is in flight at a time.
func (s *Server) reportRefused(active transport.NodeID) {
	if s.reporting {
		return
	}
	s.reporting = true
	s.coordCli.ReportRefused(active, func(error) { s.reporting = false })
}

// maybeElect implements Algorithm 1's entry: standbys (or, with none left,
// juniors) race for the distributed lock after a random delay — the
// paper's "each standby generates a random number" realized as jitter, so
// the largest effective number grabs the lock first.
func (s *Server) maybeElect() {
	if s.electing != 0 || s.upgrading || s.role == RoleActive {
		return
	}
	if s.role != RoleStandby && s.role != RoleJunior {
		return
	}
	s.electing = s.node.Now()
	s.emit(trace.KindElection, "election-start", "role", s.role.String())
	s.obsElectStarted.Inc()
	me := string(s.cfg.ID)
	s.failoverSpan = s.spans.Begin("failover", me, 0, "role", s.role.String())
	s.electionSpan = s.spans.Begin("election", me, s.failoverSpan, "role", s.role.String())
	s.node.After(s.electionJitter(), "mams-election-jitter", s.tryAcquireLock)
}

// electionJitterMin and electionJitterMax bound Algorithm 1's random-number
// contention, realized as a uniform random delay before the lock grab.
const (
	electionJitterMin = 10 * sim.Millisecond
	electionJitterMax = 60 * sim.Millisecond
)

// electionJitter draws the contention delay. Standbys use a short uniform
// window; juniors defer to standbys and order themselves by journal
// position (Algorithm 1: "selecting the junior with maximum sn").
func (s *Server) electionJitter() sim.Time {
	base := electionJitterMin +
		sim.Time(float64(electionJitterMax-electionJitterMin)*s.rnd())
	if s.role == RoleJunior {
		snRank := s.log.LastSN()
		if snRank > 1000 {
			snRank = 1000
		}
		base += 300*sim.Millisecond + sim.Time(1000-snRank)*50*sim.Microsecond
	}
	return base
}

func (s *Server) tryAcquireLock() {
	if s.role == RoleActive || s.upgrading {
		s.electing = 0
		s.endElectionSpans("abandoned")
		return
	}
	// A junior yields while any standby remains (Algorithm 1 branch).
	if s.role == RoleJunior && len(s.view.Standbys()) > 0 {
		s.electing = 0
		s.endElectionSpans("yielded")
		s.coordCli.Exists(lockPath(s.group), true, func(bool, error) {})
		return
	}
	s.coordCli.CreateEphemeral(lockPath(s.group), []byte(s.cfg.ID), func(_ string, err error) {
		if err == coord.ErrNodeExists {
			// Lost the race: events will notify others to stop competing.
			s.electing = 0
			s.emit(trace.KindElection, "election-lost")
			s.obsElectLost.Inc()
			s.endElectionSpans("lost")
			s.coordCli.Exists(lockPath(s.group), true, func(bool, error) {})
			return
		}
		if err != nil {
			// Coordination hiccup; retry shortly.
			s.node.After(100*sim.Millisecond, "mams-lock-retry", s.tryAcquireLock)
			return
		}
		s.emit(trace.KindElection, "election-won", "waited",
			fmt.Sprint((s.node.Now() - s.electing).Milliseconds()))
		s.obsElectWon.Inc()
		s.spans.End(s.electionSpan, "outcome", "won")
		s.electionSpan = 0
		s.runUpgrade()
	})
}

// runUpgrade executes the six-step upgrade procedure of Fig. 4 on the
// elected node.
func (s *Server) runUpgrade() {
	s.upgrading = true
	s.electing = 0
	s.upgradeRegs = map[transport.NodeID]Register{}
	s.regWindowDone = nil
	s.emit(trace.KindFailover, "upgrade-start", "sn", fmt.Sprint(s.effectiveSN()))
	// Step 1: visit the global view and check our own state.
	s.stageSpan = s.spans.Begin("stage-view-check", string(s.cfg.ID), s.failoverSpan)
	s.refreshView(func() {
		me := string(s.cfg.ID)
		s.spans.End(s.stageSpan, "role", s.view.States[me].String())
		s.stageSpan = 0
		if s.view.States[me] == RoleJunior && len(s.view.Standbys()) > 0 {
			// A hot standby exists; a junior must stop upgrading and give
			// up the lock so re-election picks the standby.
			s.emit(trace.KindFailover, "upgrade-abort-junior")
			s.abortUpgrade()
			return
		}
		if s.role == RoleJunior || s.view.States[me] == RoleJunior {
			// Junior takeover (no standbys left): recover what the pool
			// has before serving — "it ensures the continuity of metadata
			// service even if no standbys are in the global view".
			s.stageSpan = s.spans.Begin("stage-junior-catchup", me, s.failoverSpan)
			s.catchupAttempt(0, func() {
				s.spans.End(s.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
				s.stageSpan = 0
				s.commitCachedAndFlip()
			})
			return
		}
		s.commitCachedAndFlip()
	})
}

func (s *Server) abortUpgrade() {
	s.upgrading = false
	s.upgradeRegs = nil
	s.regWindowDone = nil
	s.endElectionSpans("aborted")
	for _, qo := range s.upgradeQueue {
		qo.reply(OpReply{NotActive: true})
	}
	s.upgradeQueue = nil
	s.obsBuffered.Set(0)
	s.coordCli.Delete(lockPath(s.group), -1, func(error) {
		s.coordCli.Exists(lockPath(s.group), true, func(bool, error) {})
	})
}

// registrationWait caps how long the new active collects peer registrations
// before it serves (Fig. 4 step 5); the window ends sooner once every live
// member has registered at this node's journal position.
const registrationWait = 120 * sim.Millisecond

// awaitRegistrations runs done when every member but this one and those the
// flipped view marks down has registered (allRegistered), or after
// registrationWait, whichever comes first (Fig. 4 step 5). Like Lustre's
// recovery window, it waits for the peers it knows of and uses the clock
// only as a cap: a member that never registers (a partitioned standby), or
// that registers off our position and never acks the re-flush's last
// batch, costs the whole cap.
func (s *Server) awaitRegistrations(done func(outcome string)) {
	if s.allRegistered() {
		done("all-registered")
		return
	}
	var capTimer transport.Timer
	s.regWindowDone = func() {
		s.regWindowDone = nil
		capTimer.Stop()
		done("all-registered")
	}
	capTimer = s.node.After(registrationWait, "mams-registration-wait", func() {
		s.regWindowDone = nil
		done("cap")
	})
}

// allRegistered reports whether every live peer has registered during this
// upgrade at a position it will keep until classified. A member registered
// off our position but not below the step-4 re-flush's range may still be
// applying it, and its ack refreshes the position (noteReflushAck); one
// further behind cannot be repaired by it and is final.
func (s *Server) allRegistered() bool {
	last := s.log.LastSN()
	from := reflushFrom(last)
	for _, m := range s.members {
		if m == s.cfg.ID || s.view.RoleOf(string(m)) == RoleDown {
			continue
		}
		if r, ok := s.upgradeRegs[m]; !ok || (r.LastSN != last && r.LastSN >= from) {
			return false
		}
	}
	return true
}

// noteReflushAck replaces a registered member's position with the one it
// reports after the step-4 re-flush's last batch. A standby that
// registered a batch behind (or ahead, holding a dead active's unconfirmed
// prepare that the re-flush supersedes) registers as the standby it is now.
func (s *Server) noteReflushAck(m AppendAck) {
	if r, ok := s.upgradeRegs[m.From]; ok && m.SN == s.log.LastSN() {
		r.LastSN = m.LastSN
		s.upgradeRegs[m.From] = r
		s.maybeEndRegistration()
	}
}

// maybeEndRegistration ends an open registration window once every live
// peer has registered.
func (s *Server) maybeEndRegistration() {
	if s.regWindowDone != nil && s.allRegistered() {
		s.regWindowDone()
	}
}

// commitCachedAndFlip performs steps 2-6: commit cached journals, flip the
// global view, re-flush the journal tail, wait for registrations, serve.
func (s *Server) commitCachedAndFlip() {
	me := string(s.cfg.ID)
	// Step 2: apply cached (prepared but uncommitted) journals.
	s.stageSpan = s.spans.Begin("stage-commit-cached", me, s.failoverSpan)
	transport.Charge(s.node, s.cfg.Params.SwitchCommitCost, "mams-switch-commit", func() {
		s.commitAllQueued()
		s.emit(trace.KindFailover, "cached-committed", "sn", fmt.Sprint(s.log.LastSN()))
		s.spans.End(s.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
		// Step 3: modify the global view (previous active is refused by
		// all nodes from this moment).
		s.stageSpan = s.spans.Begin("stage-view-flip", me, s.failoverSpan)
		s.casView(func(v *View) bool {
			prev := v.Active
			v.Epoch++
			if prev != "" && prev != me {
				// The previous active is marked down until it registers
				// again (Fig. 4a shows it degraded; registration decides
				// standby vs junior by sn).
				v.States[prev] = RoleDown
			}
			v.Active = me
			v.States[me] = RoleActive
			return true
		}, func(err error) {
			if err != nil {
				s.emit(trace.KindFailover, "view-flip-failed", "err", err.Error())
				s.abortUpgrade()
				return
			}
			epoch := s.view.Epoch
			s.emit(trace.KindFailover, "view-flipped", "epoch", fmt.Sprint(epoch))
			s.spans.End(s.stageSpan, "epoch", fmt.Sprint(epoch))
			// Step 4: re-flush the last cached journals to the replica
			// group; receivers deduplicate by sn.
			s.stageSpan = s.spans.Begin("stage-reflush", me, s.failoverSpan)
			transport.Charge(s.node, s.cfg.Params.SwitchStateCost, "mams-switch-state", func() {
				s.reflushTail(epoch)
				s.spans.End(s.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
				// Step 5: collect registrations (Register handler runs
				// concurrently); step 6 once every live peer registered.
				s.stageSpan = s.spans.Begin("stage-registration", me, s.failoverSpan)
				s.awaitRegistrations(func(outcome string) {
					s.spans.End(s.stageSpan, "outcome", outcome)
					// Step 6: switch to active duty and drain the buffer.
					// The shardmap znode is re-read first so a standing
					// migration freeze (and any flip we slept through)
					// binds this active before it serves a single op.
					s.stageSpan = s.spans.Begin("stage-become-active", me, s.failoverSpan)
					s.refreshShardMap(func() {
						s.becomeActiveNow(epoch)
						s.spans.End(s.stageSpan)
						s.stageSpan = 0
						s.emit(trace.KindFailover, "switch-done", "epoch", fmt.Sprint(epoch))
						s.spans.End(s.failoverSpan, "outcome", "switch-done", "epoch", fmt.Sprint(epoch))
						s.failoverSpan = 0
					})
				})
			})
		})
	})
}

// reflushTail re-sends the most recent journal batches to every group
// member (Fig. 4 step 4: "the elected standby flushes last cached journals
// to others in the replica group again").
func (s *Server) reflushTail(epoch uint64) {
	last := s.log.LastSN()
	batches := s.log.Since(reflushFrom(last))
	for _, m := range s.members {
		if m == s.cfg.ID {
			continue
		}
		for _, b := range batches {
			s.obsReflushed.Inc()
			s.node.Send(m, AppendBatch{From: s.cfg.ID, Epoch: epoch, Batch: b,
				CommitThrough: b.SN - 1, FlushOnly: true})
		}
		s.node.Send(m, CommitNotice{Epoch: epoch, Through: last})
	}
}

// reflushFrom is the sn the step-4 re-flush starts after: it re-sends the
// last two batches.
func reflushFrom(last uint64) uint64 {
	if last > 2 {
		return last - 2
	}
	return 0
}

// catchupAttempt replays every journal batch the shared storage pool holds
// beyond our position, after loading the newest checkpoint image if our gap
// crosses one. It is one List+replay round: when the replay stops at a hole
// below the pool's tail, the previous active's backstop write for that sn
// may still be in flight (put deadlines reach ~10s on journal-sized
// objects): serving from the truncated position would mint conflicting
// serial numbers for everything above the hole, so retry the whole round
// until the hole fills or the retry budget (40 × 300ms, comfortably past
// the put deadline) is spent.
func (s *Server) catchupAttempt(gapTries int, done func()) {
	s.sspc.List(s.group, func(keys []ssp.Key, sizes map[ssp.Key]int64, err error) {
		if err != nil {
			// Serving without the pool's tail would mint new batches that
			// reuse still-live serial numbers and silently fork the journal
			// (acknowledged operations would be overwritten in sequence
			// space). Retry until the pool answers; the timer dies with the
			// process, and a competing member takes over if we stall.
			s.node.After(100*sim.Millisecond, "mams-catchup-retry", func() {
				s.catchupAttempt(gapTries, done)
			})
			return
		}
		var bestImage ssp.Key
		var journals []ssp.Key
		for _, k := range keys {
			switch k.Kind {
			case ssp.KindImage:
				if k.Seq > bestImage.Seq {
					bestImage = k
				}
			case ssp.KindJournal:
				journals = append(journals, k)
			}
		}
		var lo, hi uint64
		if len(journals) > 0 {
			lo, hi = journals[0].Seq, journals[len(journals)-1].Seq
		}
		s.emit(trace.KindFailover, "catchup-list",
			"journals", fmt.Sprint(len(journals)), "lo", fmt.Sprint(lo),
			"hi", fmt.Sprint(hi), "image", fmt.Sprint(bestImage.Seq),
			"mysn", fmt.Sprint(s.log.LastSN()))
		afterImage := func() {
			s.replayPoolJournals(journals, func(gapAt uint64) {
				if gapAt > 0 && gapTries < 40 {
					s.emit(trace.KindFailover, "catchup-gap",
						"sn", fmt.Sprint(gapAt), "try", fmt.Sprint(gapTries))
					s.node.After(300*sim.Millisecond, "mams-catchup-gap", func() {
						s.catchupAttempt(gapTries+1, done)
					})
					return
				}
				done()
			})
		}
		if bestImage.Seq > s.log.LastSN() {
			s.sspc.Get(bestImage, func(data []byte, size int64, gerr error) {
				if gerr == nil {
					if tree, lerr := namespace.LoadImage(data); lerr == nil {
						s.tree = tree
						s.log.ResetTo(bestImage.Seq, s.view.Epoch)
						// The monitor resets this node's sn floor here: an
						// image load legitimately rewinds the append stream.
						s.emit(trace.KindRenew, "image-loaded", "sn", fmt.Sprint(bestImage.Seq))
					}
				}
				afterImage()
			})
			return
		}
		afterImage()
	})
}

// replayPoolJournals fetches and applies contiguous batches above our sn.
// done receives the sn of the first missing batch when the replay stopped
// at a hole below the pool's tail (the caller may want to wait for an
// in-flight backstop write to fill it), or 0 when the tail was reached.
func (s *Server) replayPoolJournals(keys []ssp.Key, done func(gapAt uint64)) {
	idx := 0
	var step func()
	step = func() {
		// Find the key for the next sn we need.
		next := s.log.LastSN() + 1
		for idx < len(keys) && keys[idx].Seq < next {
			idx++
		}
		if idx >= len(keys) || keys[idx].Seq != next {
			if idx < len(keys) && keys[idx].Seq > next {
				done(next) // hole below the pool tail
			} else {
				done(0)
			}
			return
		}
		key := keys[idx]
		idx++
		var fetch func()
		fetch = func() {
			s.sspc.Get(key, func(data []byte, size int64, err error) {
				if err != nil {
					// Same reasoning as the List retry above: a gap here
					// would let the new active reuse acknowledged serial
					// numbers. Every committed batch has a full pool replica
					// set, so the fetch succeeds once the network lets it.
					s.node.After(100*sim.Millisecond, "mams-replay-retry", fetch)
					return
				}
				b, derr := journal.DecodeBatch(data)
				if derr != nil || b.SN != next {
					done(0)
					return
				}
				if aerr := s.applyBatch(b); aerr != nil {
					s.emit(trace.KindJournal, "ssp-replay-error", "err", aerr.Error())
					done(0)
					return
				}
				step()
			})
		}
		fetch()
	}
	step()
}
