package mams

import (
	"fmt"

	"mams/internal/coord"
	"mams/internal/journal"
	"mams/internal/namespace"
	"mams/internal/obs"
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

// election is one run of Algorithm 1 and, once it wins the lock, the Fig. 4
// upgrade: from the trigger until the node loses, yields, aborts or serves.
type election struct {
	start         sim.Time                      // when the trigger fired
	regs          map[transport.NodeID]Register // held (step 5); nil until the lock is won
	regWindowDone func()                        // ends an open registration window before its cap
	queue         []queuedOp                    // client ops buffered by the upgrade (step 3)

	failoverSpan, electionSpan, stageSpan obs.SpanID
}

// upgrading reports whether this node runs the Fig. 4 upgrade.
func (s *Server) upgrading() bool { return s.elect != nil && s.elect.regs != nil }

// endSpans closes the election's open spans. Nil-safe.
func (e *election) endSpans(tr *trace.Log, outcome string) {
	if e != nil {
		tr.End(e.stageSpan, "outcome", outcome)
		tr.End(e.electionSpan, "outcome", outcome)
		tr.End(e.failoverSpan, "outcome", outcome)
		e.stageSpan, e.electionSpan, e.failoverSpan = 0, 0, 0
	}
}

// maybeElect implements Algorithm 1's entry: standbys (or, with none left,
// juniors) race for the distributed lock after a random delay — the
// paper's "each standby generates a random number" realized as jitter, so
// the largest effective number grabs the lock first.
func (s *Server) maybeElect() {
	if s.elect != nil || s.role == RoleActive {
		return
	}
	if s.role != RoleStandby && s.role != RoleJunior {
		return
	}
	e := &election{start: s.node.Now()}
	s.elect = e
	s.emit(trace.KindElection, "election-start", "role", s.role.String())
	s.obsElectStarted.Inc()
	me := string(s.cfg.ID)
	e.failoverSpan = s.tr.Begin("failover", me, 0, "role", s.role.String())
	e.electionSpan = s.tr.Begin("election", me, e.failoverSpan, "role", s.role.String())
	s.node.After(s.electionJitter(), "mams-election-jitter", func() { s.tryAcquireLock(e) })
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

// dropElection ends election e short of the lock. An upgrade that runs goes
// on: only a chain that outlived a Restart retried on a live node meets one.
func (s *Server) dropElection(e *election, outcome string) {
	if !s.upgrading() {
		s.elect = nil
	}
	e.endSpans(s.tr, outcome)
}

func (s *Server) tryAcquireLock(e *election) {
	if s.role == RoleActive || s.upgrading() {
		s.dropElection(e, "abandoned")
		return
	}
	// A junior yields while any standby remains (Algorithm 1 branch).
	if s.role == RoleJunior && len(s.view.Standbys()) > 0 {
		s.dropElection(e, "yielded")
		s.coordCli.Exists(lockPath(s.group), true, func(bool, error) {})
		return
	}
	s.coordCli.CreateEphemeral(lockPath(s.group), []byte(s.cfg.ID), func(_ string, err error) {
		if err == coord.ErrNodeExists {
			// Lost the race: events will notify others to stop competing.
			s.emit(trace.KindElection, "election-lost")
			s.obsElectLost.Inc()
			s.dropElection(e, "lost")
			s.coordCli.Exists(lockPath(s.group), true, func(bool, error) {})
			return
		}
		if err != nil {
			// Coordination hiccup; retry shortly.
			s.node.After(100*sim.Millisecond, "mams-lock-retry", func() { s.tryAcquireLock(e) })
			return
		}
		s.emit(trace.KindElection, "election-won", "waited",
			fmt.Sprint((s.node.Now() - e.start).Milliseconds()))
		s.obsElectWon.Inc()
		s.tr.End(e.electionSpan, "outcome", "won")
		s.runUpgrade(e)
	})
}

// runUpgrade executes the six-step upgrade procedure of Fig. 4 on the
// node that won election e.
func (s *Server) runUpgrade(e *election) {
	s.elect = e
	e.regs = map[transport.NodeID]Register{}
	s.emit(trace.KindFailover, "upgrade-start", "sn", fmt.Sprint(s.effectiveSN()))
	// Step 1: visit the global view and check our own state.
	e.stageSpan = s.tr.Begin("stage-view-check", string(s.cfg.ID), e.failoverSpan)
	s.refreshView(func() {
		me := string(s.cfg.ID)
		s.tr.End(e.stageSpan, "role", s.view.States[me].String())
		if s.view.States[me] == RoleJunior && len(s.view.Standbys()) > 0 {
			// A hot standby exists; a junior must stop upgrading and give
			// up the lock so re-election picks the standby.
			s.emit(trace.KindFailover, "upgrade-abort-junior")
			s.abortUpgrade(e)
			return
		}
		if s.role == RoleJunior || s.view.States[me] == RoleJunior {
			// Junior takeover (no standbys left): recover what the pool
			// has before serving — "it ensures the continuity of metadata
			// service even if no standbys are in the global view".
			e.stageSpan = s.tr.Begin("stage-junior-catchup", me, e.failoverSpan)
			s.catchupAttempt(0, func() {
				s.tr.End(e.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
				s.commitCachedAndFlip(e)
			})
			return
		}
		s.commitCachedAndFlip(e)
	})
}

// abortUpgrade drops upgrade e, refusing the ops it buffered, and the lock.
func (s *Server) abortUpgrade(e *election) {
	s.elect = nil
	e.endSpans(s.tr, "aborted")
	for _, qo := range e.queue {
		qo.reply(OpReply{NotActive: true})
	}
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
func (s *Server) awaitRegistrations(e *election, done func(outcome string)) {
	if s.allRegistered(e.regs) {
		done("all-registered")
		return
	}
	var capTimer transport.Timer
	e.regWindowDone = func() {
		e.regWindowDone = nil
		capTimer.Stop()
		done("all-registered")
	}
	capTimer = s.node.After(registrationWait, "mams-registration-wait", func() {
		e.regWindowDone = nil
		done("cap")
	})
}

// allRegistered reports whether every live peer has registered in regs at a
// position it will keep until classified. A member registered
// off our position but not below the step-4 re-flush's range may still be
// applying it, and its ack refreshes the position (noteReflushAck); one
// further behind cannot be repaired by it and is final.
func (s *Server) allRegistered(regs map[transport.NodeID]Register) bool {
	last := s.log.LastSN()
	from := reflushFrom(last)
	for _, m := range s.members {
		if m == s.cfg.ID || s.view.RoleOf(string(m)) == RoleDown {
			continue
		}
		if r, ok := regs[m]; !ok || (r.LastSN != last && r.LastSN >= from) {
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
	if r, ok := s.elect.regs[m.From]; ok && m.SN == s.log.LastSN() {
		r.LastSN = m.LastSN
		s.elect.regs[m.From] = r
		s.maybeEndRegistration()
	}
}

// maybeEndRegistration ends an open registration window once every live
// peer has registered.
func (s *Server) maybeEndRegistration() {
	if e := s.elect; e.regWindowDone != nil && s.allRegistered(e.regs) {
		e.regWindowDone()
	}
}

// commitCachedAndFlip performs upgrade e's steps 2-6: commit cached journals,
// flip the global view, re-flush the journal tail, wait for registrations, serve.
func (s *Server) commitCachedAndFlip(e *election) {
	me := string(s.cfg.ID)
	// Step 2: apply cached (prepared but uncommitted) journals.
	e.stageSpan = s.tr.Begin("stage-commit-cached", me, e.failoverSpan)
	transport.Charge(s.node, s.cfg.Params.SwitchCommitCost, "mams-switch-commit", func() {
		s.commitAllQueued()
		s.emit(trace.KindFailover, "cached-committed", "sn", fmt.Sprint(s.log.LastSN()))
		s.tr.End(e.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
		// Step 3: modify the global view (previous active is refused by
		// all nodes from this moment).
		e.stageSpan = s.tr.Begin("stage-view-flip", me, e.failoverSpan)
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
				s.abortUpgrade(e)
				return
			}
			epoch := s.view.Epoch
			s.emit(trace.KindFailover, "view-flipped", "epoch", fmt.Sprint(epoch))
			s.tr.End(e.stageSpan, "epoch", fmt.Sprint(epoch))
			// Step 4: re-flush the last cached journals to the replica
			// group; receivers deduplicate by sn.
			e.stageSpan = s.tr.Begin("stage-reflush", me, e.failoverSpan)
			transport.Charge(s.node, s.cfg.Params.SwitchStateCost, "mams-switch-state", func() {
				s.reflushTail(epoch)
				s.tr.End(e.stageSpan, "sn", fmt.Sprint(s.log.LastSN()))
				// Step 5: collect registrations (Register handler runs
				// concurrently); step 6 once every live peer registered.
				e.stageSpan = s.tr.Begin("stage-registration", me, e.failoverSpan)
				s.awaitRegistrations(e, func(outcome string) {
					s.tr.End(e.stageSpan, "outcome", outcome)
					// Step 6: switch to active duty and drain the buffer.
					// The shardmap znode is re-read first so a standing
					// migration freeze (and any flip we slept through)
					// binds this active before it serves a single op.
					e.stageSpan = s.tr.Begin("stage-become-active", me, e.failoverSpan)
					s.refreshShardMap(func() {
						s.becomeActiveNow(epoch)
						s.tr.End(e.stageSpan)
						s.emit(trace.KindFailover, "switch-done", "epoch", fmt.Sprint(epoch))
						s.tr.End(e.failoverSpan, "outcome", "switch-done", "epoch", fmt.Sprint(epoch))
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
