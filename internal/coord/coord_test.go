package coord

import (
	"errors"
	"strconv"
	"testing"

	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

// testHost is a minimal process hosting a coordination client.
type testHost struct {
	node   transport.Node
	client *Client
	events []WatchEvent
}

func (h *testHost) HandleMessage(from transport.NodeID, msg any) {
	h.client.MaybeHandle(from, msg)
}

type coordEnv struct {
	sp  *transporttest.Sim
	ens *Ensemble
}

func newEnv(t *testing.T, servers int, seed uint64) *coordEnv {
	t.Helper()
	sp := transporttest.NewSim(seed, 20_000_000, 200*sim.Microsecond, 0.2, nil)
	ens := StartEnsemble(sp.Net, servers, nil)
	return &coordEnv{sp: sp, ens: ens}
}

func (e *coordEnv) newHost(t *testing.T, id string, cfg ClientConfig) *testHost {
	t.Helper()
	h := &testHost{}
	h.node = e.sp.Net.Listen(transport.NodeID(id), h)
	cfg.Servers = e.ens.IDs
	h.client = NewClient(h.node, cfg, func(ev WatchEvent) { h.events = append(h.events, ev) })
	return h
}

// startClient runs Start and spins the world until the session exists.
func (e *coordEnv) startClient(t *testing.T, h *testHost) {
	t.Helper()
	var done bool
	var startErr error
	e.sp.World.Defer("start-client", func() {
		h.client.Start(func(err error) { done, startErr = true, err })
	})
	e.sp.World.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("client.Start never completed")
	}
	if startErr != nil {
		t.Fatalf("client.Start: %v", startErr)
	}
	if h.client.Session() == 0 {
		t.Fatal("no session id")
	}
}

func TestClientSessionAndCRUD(t *testing.T) {
	e := newEnv(t, 3, 1)
	h := e.newHost(t, "mds1", ClientConfig{})
	e.startClient(t, h)

	var created string
	h.client.Create("/app", []byte("cfg"), func(p string, err error) {
		if err != nil {
			t.Errorf("create: %v", err)
		}
		created = p
	})
	e.sp.World.RunFor(2 * sim.Second)
	if created != "/app" {
		t.Fatalf("created = %q", created)
	}

	var data []byte
	var version int64
	h.client.GetData("/app", false, func(d []byte, v int64, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		data, version = d, v
	})
	e.sp.World.RunFor(2 * sim.Second)
	if string(data) != "cfg" || version != 0 {
		t.Fatalf("get = %q v%d", data, version)
	}

	var newV int64
	h.client.SetData("/app", []byte("cfg2"), 0, func(v int64, err error) {
		if err != nil {
			t.Errorf("set: %v", err)
		}
		newV = v
	})
	e.sp.World.RunFor(2 * sim.Second)
	if newV != 1 {
		t.Fatalf("version after set = %d", newV)
	}

	var casErr error
	h.client.SetData("/app", []byte("x"), 0, func(v int64, err error) { casErr = err })
	e.sp.World.RunFor(2 * sim.Second)
	if !errors.Is(casErr, ErrBadVersion) {
		t.Fatalf("CAS err = %v", casErr)
	}

	var delErr error
	h.client.Delete("/app", -1, func(err error) { delErr = err })
	e.sp.World.RunFor(2 * sim.Second)
	if delErr != nil {
		t.Fatalf("delete: %v", delErr)
	}
	var exists bool
	h.client.Exists("/app", false, func(ex bool, err error) { exists = ex })
	e.sp.World.RunFor(2 * sim.Second)
	if exists {
		t.Fatal("node survived delete")
	}
}

func TestWatchDeliveredToOtherClient(t *testing.T) {
	e := newEnv(t, 3, 2)
	a := e.newHost(t, "a", ClientConfig{})
	b := e.newHost(t, "b", ClientConfig{})
	e.startClient(t, a)
	e.startClient(t, b)

	a.client.Create("/watched", nil, func(string, error) {})
	e.sp.World.RunFor(sim.Second)
	b.client.GetData("/watched", true, func([]byte, int64, error) {})
	e.sp.World.RunFor(sim.Second)
	a.client.SetData("/watched", []byte("new"), -1, func(int64, error) {})
	e.sp.World.RunFor(2 * sim.Second)

	if len(b.events) != 1 || b.events[0].Type != EventDataChanged || b.events[0].Path != "/watched" {
		t.Fatalf("b events = %+v", b.events)
	}
	if len(a.events) != 0 {
		t.Fatalf("a should have no events, got %+v", a.events)
	}
}

func TestEphemeralLockHandoffOnUnplug(t *testing.T) {
	// The core MAMS primitive: the active holds an ephemeral lock znode;
	// when its machine drops off the network, the session expires within
	// the session timeout and the watcher is notified.
	e := newEnv(t, 3, 3)
	active := e.newHost(t, "active", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	standby := e.newHost(t, "standby", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	e.startClient(t, active)
	e.startClient(t, standby)

	var got string
	active.client.CreateEphemeral("/lock", []byte("active"), func(p string, err error) {
		if err != nil {
			t.Errorf("lock: %v", err)
		}
		got = p
	})
	e.sp.World.RunFor(sim.Second)
	if got != "/lock" {
		t.Fatal("active did not acquire lock")
	}

	// Standby contends, loses, and leaves a watch.
	var contendErr error
	standby.client.CreateEphemeral("/lock", []byte("standby"), func(p string, err error) { contendErr = err })
	e.sp.World.RunFor(sim.Second)
	if !errors.Is(contendErr, ErrNodeExists) {
		t.Fatalf("contend err = %v", contendErr)
	}
	standby.client.Exists("/lock", true, func(bool, error) {})
	e.sp.World.RunFor(sim.Second)

	// Pull the active's network cable.
	unplugAt := e.sp.World.Now()
	e.sp.Net.Node("active").Unplug()
	e.sp.World.RunFor(10 * sim.Second)

	var deletedAt sim.Time
	for _, ev := range standby.events {
		if ev.Type == EventDeleted && ev.Path == "/lock" {
			deletedAt = unplugAt // marker that we saw it
		}
	}
	if deletedAt == 0 {
		t.Fatalf("standby never saw lock release; events = %+v", standby.events)
	}

	// Standby can now take the lock.
	var acquired bool
	standby.client.CreateEphemeral("/lock", []byte("standby"), func(p string, err error) { acquired = err == nil })
	e.sp.World.RunFor(sim.Second)
	if !acquired {
		t.Fatal("standby failed to acquire after release")
	}
}

func TestSessionExpiryTimeBounded(t *testing.T) {
	// Expiry must take at least the session timeout and at most timeout
	// plus one scan period plus slack.
	e := newEnv(t, 3, 4)
	victim := e.newHost(t, "victim", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	watcher := e.newHost(t, "watcher", ClientConfig{})
	e.startClient(t, victim)
	e.startClient(t, watcher)

	victim.client.CreateEphemeral("/victim-eph", nil, func(string, error) {})
	e.sp.World.RunFor(sim.Second)
	watcher.client.Exists("/victim-eph", true, func(bool, error) {})
	e.sp.World.RunFor(sim.Second)

	start := e.sp.World.Now()
	e.sp.Net.Node("victim").Crash()

	// Watch for the deletion event.
	var expiredAt sim.Time
	for i := 0; i < 200 && expiredAt == 0; i++ {
		e.sp.World.RunFor(100 * sim.Millisecond)
		for _, ev := range watcher.events {
			if ev.Type == EventDeleted {
				expiredAt = e.sp.World.Now()
			}
		}
	}
	if expiredAt == 0 {
		t.Fatal("session never expired")
	}
	// Expiry is measured from the last heartbeat, so the earliest legal
	// expiry after a crash is (timeout - heartbeat interval) = 3 s.
	elapsed := expiredAt - start
	if elapsed < 2900*sim.Millisecond {
		t.Fatalf("expired too fast: %v", elapsed)
	}
	if elapsed > 8*sim.Second {
		t.Fatalf("expired too slow: %v", elapsed)
	}
}

func TestClientLearnsOwnExpiry(t *testing.T) {
	e := newEnv(t, 3, 5)
	h := e.newHost(t, "flaky", ClientConfig{SessionTimeout: 5 * sim.Second, HeartbeatEvery: 2 * sim.Second})
	e.startClient(t, h)
	h.client.CreateEphemeral("/flaky-eph", nil, func(string, error) {})
	e.sp.World.RunFor(sim.Second)

	// Cable out long enough to expire, then back in.
	e.sp.Net.Node("flaky").Unplug()
	e.sp.World.RunFor(10 * sim.Second)
	e.sp.Net.Node("flaky").Replug()
	e.sp.World.RunFor(5 * sim.Second)

	if !h.client.Expired() {
		t.Fatal("client did not learn its session expired")
	}
	found := false
	for _, ev := range h.events {
		if ev.Type == EventSessionExpired {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EventSessionExpired; events = %+v", h.events)
	}

	// Restart gives a fresh, working session.
	var restarted bool
	h.client.Restart(func(err error) { restarted = err == nil })
	e.sp.World.RunFor(5 * sim.Second)
	if !restarted || h.client.Session() == 0 {
		t.Fatal("restart failed")
	}
	var created bool
	h.client.CreateEphemeral("/flaky-eph2", nil, func(p string, err error) { created = err == nil })
	e.sp.World.RunFor(2 * sim.Second)
	if !created {
		t.Fatal("post-restart create failed")
	}
}

func TestEnsembleLeaderFailover(t *testing.T) {
	e := newEnv(t, 3, 6)
	h := e.newHost(t, "cli", ClientConfig{})
	e.startClient(t, h)

	leader := e.ens.Leader()
	if leader == nil {
		t.Fatal("no leader")
	}
	leader.Node().Crash()

	// Service must come back: keep trying a write until it succeeds.
	var okAt sim.Time
	deadline := e.sp.World.Now() + 30*sim.Second
	var tryCreate func(i int)
	tryCreate = func(i int) {
		h.client.Create(pathN(i), nil, func(p string, err error) {
			if err == nil && okAt == 0 {
				okAt = e.sp.World.Now()
				return
			}
			if e.sp.World.Now() < deadline && okAt == 0 {
				tryCreate(i + 1)
			}
		})
	}
	start := e.sp.World.Now()
	e.sp.World.Defer("probe", func() { tryCreate(0) })
	e.sp.World.RunFor(35 * sim.Second)
	if okAt == 0 {
		t.Fatal("ensemble never recovered from leader crash")
	}
	if okAt-start > 15*sim.Second {
		t.Fatalf("ensemble failover took %v", okAt-start)
	}
	if e.ens.Leader() == nil {
		t.Fatal("no new leader")
	}
}

func pathN(i int) string {
	return "/probe-" + string(rune('a'+i%26)) + strconv.Itoa(i)
}

func TestSequentialCreateViaClient(t *testing.T) {
	e := newEnv(t, 3, 7)
	h := e.newHost(t, "cli", ClientConfig{})
	e.startClient(t, h)
	var paths []string
	for i := 0; i < 3; i++ {
		h.client.CreateSequential("/member-", nil, func(p string, err error) {
			if err != nil {
				t.Errorf("seq create: %v", err)
			}
			paths = append(paths, p)
		})
	}
	e.sp.World.RunFor(3 * sim.Second)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p] {
			t.Fatalf("duplicate sequential path %q", p)
		}
		seen[p] = true
	}
}

func TestChildrenViaClient(t *testing.T) {
	e := newEnv(t, 1, 8)
	h := e.newHost(t, "cli", ClientConfig{})
	e.startClient(t, h)
	h.client.Create("/g", nil, func(string, error) {})
	e.sp.World.RunFor(sim.Second)
	for _, k := range []string{"/g/n2", "/g/n1"} {
		h.client.Create(k, nil, func(string, error) {})
	}
	e.sp.World.RunFor(sim.Second)
	var kids []string
	h.client.Children("/g", false, func(c []string, err error) { kids = c })
	e.sp.World.RunFor(sim.Second)
	if len(kids) != 2 || kids[0] != "/g/n1" {
		t.Fatalf("kids = %v", kids)
	}
}

func TestCloseReleasesEphemeralsImmediately(t *testing.T) {
	e := newEnv(t, 3, 9)
	a := e.newHost(t, "a", ClientConfig{})
	b := e.newHost(t, "b", ClientConfig{})
	e.startClient(t, a)
	e.startClient(t, b)
	a.client.CreateEphemeral("/e", nil, func(string, error) {})
	e.sp.World.RunFor(sim.Second)
	a.client.Close(nil)
	e.sp.World.RunFor(sim.Second)
	var exists bool
	b.client.Exists("/e", false, func(ex bool, err error) { exists = ex })
	e.sp.World.RunFor(sim.Second)
	if exists {
		t.Fatal("ephemeral survived graceful close")
	}
}

func TestRetriedRequestAppliesOnce(t *testing.T) {
	// Message loss forces client retries (requestTimeout per attempt, at
	// most maxAttempts); sequential creates must still produce exactly one
	// node per logical request.
	e := newEnv(t, 3, 10)
	e.sp.Net.SetLoss(0.2)
	// Long session timeout: heartbeats are also lossy and must not expire
	// the session mid-test.
	h := e.newHost(t, "cli", ClientConfig{SessionTimeout: 120 * sim.Second})
	e.startClient(t, h)

	done := 0
	for i := 0; i < 5; i++ {
		h.client.CreateSequential("/item-", nil, func(p string, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
			}
			done++
		})
	}
	e.sp.World.RunFor(60 * sim.Second)
	if done != 5 {
		t.Fatalf("completed %d/5", done)
	}
	e.sp.Net.SetLoss(0)
	var kids []string
	h.client.Children("/", false, func(c []string, err error) { kids = c })
	e.sp.World.RunFor(5 * sim.Second)
	items := 0
	for _, k := range kids {
		if len(k) > 6 && k[:6] == "/item-" {
			items++
		}
	}
	if items != 5 {
		t.Fatalf("found %d item nodes, want 5 (children=%v)", items, kids)
	}
}

func TestSingleServerEnsembleWorks(t *testing.T) {
	e := newEnv(t, 1, 11)
	h := e.newHost(t, "cli", ClientConfig{})
	e.startClient(t, h)
	var ok bool
	h.client.Create("/solo", nil, func(p string, err error) { ok = err == nil })
	e.sp.World.RunFor(2 * sim.Second)
	if !ok {
		t.Fatal("single-member ensemble failed")
	}
}
