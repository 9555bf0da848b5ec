package coord

import (
	"testing"

	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// scanArm is one arming of a member's session-expiry scan.
type scanArm struct {
	node  transport.NodeID
	delay sim.Time
}

// scanRecorder wraps a transport so every node it hands out reports its
// session-scan armings.
type scanRecorder struct {
	transport.Transport
	arms *[]scanArm
}

func (r scanRecorder) Listen(id transport.NodeID, h transport.Handler) transport.Node {
	return scanNode{Node: r.Transport.Listen(id, h), arms: r.arms}
}

type scanNode struct {
	transport.Node
	arms *[]scanArm
}

func (n scanNode) After(d sim.Time, name string, fn func()) transport.Timer {
	if name == "coord-session-check" {
		*n.arms = append(*n.arms, scanArm{n.ID(), d})
	}
	return n.Node.After(d, name, fn)
}

// newRecordedEnv is newEnv with the ensemble's scan armings recorded.
func newRecordedEnv(t *testing.T, seed uint64) (*coordEnv, *[]scanArm) {
	t.Helper()
	sp := transporttest.NewSim(seed, 20_000_000, 200*sim.Microsecond, 0.2, nil)
	arms := &[]scanArm{}
	ens := StartEnsemble(scanRecorder{sp.Net, arms}, 3, nil)
	return &coordEnv{sp: sp, ens: ens}, arms
}

// scansOver resets the record, runs d, and returns each member's scan
// count and the set of delays armed.
func scansOver(e *coordEnv, arms *[]scanArm, d sim.Time) (map[transport.NodeID]int, map[sim.Time]bool) {
	*arms = (*arms)[:0]
	e.sp.World.RunFor(d)
	counts, delays := map[transport.NodeID]int{}, map[sim.Time]bool{}
	for _, a := range *arms {
		counts[a.node]++
		delays[a.delay] = true
	}
	return counts, delays
}

// paxosRound bounds one accept round of the expiry proposal on this
// environment's 0.2 ms links, plus the 1 ms step the test polls at.
const paxosRound = 5 * sim.Millisecond

func TestSilentShortSessionExpiresOnItsTick(t *testing.T) {
	// The wire's coord session: 1.2 s time-out, 300 ms heartbeat. Its tick
	// is 1.2 s / 20 = 60 ms, so the session must not expire before it has
	// been silent for 1.2 s, and must expire within one tick and one Paxos
	// round after that. Crash offsets sweep one heartbeat period.
	const timeout = 1200 * sim.Millisecond
	for i, offset := range []sim.Time{0, 45, 110, 170, 235, 290} {
		e := newEnv(t, 3, uint64(20+i))
		victim := e.newHost(t, "victim", ClientConfig{SessionTimeout: timeout, HeartbeatEvery: 300 * sim.Millisecond})
		e.startClient(t, victim)
		e.sp.World.RunFor(2*sim.Second + offset*sim.Millisecond)
		leader, sid := e.ens.Leader(), victim.client.Session()
		e.sp.Net.Node("victim").Crash()
		e.sp.World.RunFor(5 * sim.Millisecond) // a ping in flight lands
		last := leader.lastHeard[sid]
		var expiredAt sim.Time
		for expiredAt == 0 && e.sp.World.Now() < last+3*sim.Second {
			e.sp.World.RunFor(sim.Millisecond)
			if leader.sm.sessions[sid] == nil {
				expiredAt = e.sp.World.Now()
			}
		}
		if expiredAt == 0 {
			t.Fatalf("offset %dms: session never expired", offset)
		}
		silent := expiredAt - last
		if silent <= timeout {
			t.Errorf("offset %dms: expired after %v of silence, before the %v time-out", offset, silent, timeout)
		}
		if limit := timeout + 60*sim.Millisecond + paxosRound; silent > limit {
			t.Errorf("offset %dms: expired after %v of silence, want at most %v", offset, silent, limit)
		}
	}
}

func TestFiveSecondSessionsKeepTheScanGrid(t *testing.T) {
	// The paper's 5 s sessions give a 250 ms tick, which is the ceiling:
	// every member scans exactly as often as with a fixed 250 ms period.
	e, arms := newRecordedEnv(t, 31)
	a := e.newHost(t, "a", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	b := e.newHost(t, "b", ClientConfig{})
	e.startClient(t, a)
	e.startClient(t, b)
	counts, delays := scansOver(e, arms, 10*sim.Second)
	if len(delays) != 1 || !delays[sessionCheckEvery] {
		t.Fatalf("scan delays %v, want only %v", delays, sessionCheckEvery)
	}
	for _, id := range e.ens.IDs {
		if counts[id] != 40 {
			t.Errorf("%s scanned %d times in 10 s, want 40", id, counts[id])
		}
	}
}

func TestMixedSessionsScanAtTheShortestTick(t *testing.T) {
	// One 5 s and one 1.2 s session: the scan follows the shorter one
	// (60 ms), and returns to the 250 ms ceiling once it has expired.
	e, arms := newRecordedEnv(t, 32)
	long := e.newHost(t, "long", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	short := e.newHost(t, "short", ClientConfig{SessionTimeout: 1200 * sim.Millisecond, HeartbeatEvery: 300 * sim.Millisecond})
	e.startClient(t, long)
	e.startClient(t, short)
	counts, delays := scansOver(e, arms, 10*sim.Second)
	if len(delays) != 1 || !delays[60*sim.Millisecond] {
		t.Fatalf("scan delays %v, want only 60ms", delays)
	}
	for _, id := range e.ens.IDs {
		if n := counts[id]; n < 166 || n > 167 {
			t.Errorf("%s scanned %d times in 10 s, want 166 or 167", id, n)
		}
	}

	e.sp.Net.Node("short").Crash()
	e.sp.World.RunFor(3 * sim.Second)
	if _, delays = scansOver(e, arms, 2*sim.Second); len(delays) != 1 || !delays[sessionCheckEvery] {
		t.Fatalf("after the short session expired: scan delays %v, want only %v", delays, sessionCheckEvery)
	}
}
