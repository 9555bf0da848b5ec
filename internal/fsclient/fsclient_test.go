package fsclient_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/partition"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/transport/transporttest"
)

type harness struct {
	env *cluster.Env
	c   *cluster.MAMSCluster
	cli *fsclient.Client
	res []fsclient.Result
}

func newHarness(t *testing.T, seed uint64, groups int) *harness {
	t.Helper()
	env := cluster.NewEnv(seed)
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: groups, BackupsPerGroup: 2})
	if !c.AwaitStable(30 * sim.Second) {
		t.Fatal("cluster not stable")
	}
	h := &harness{env: env, c: c}
	h.cli = c.NewClient(func(r fsclient.Result) { h.res = append(h.res, r) })
	return h
}

func (h *harness) do(t *testing.T, run func(done func(error))) error {
	t.Helper()
	var opErr error
	finished := false
	h.env.World.Defer("op", func() { run(func(err error) { opErr, finished = err, true }) })
	deadline := h.env.Now() + 120*sim.Second
	for !finished && h.env.Now() < deadline {
		h.env.RunFor(50 * sim.Millisecond)
	}
	if !finished {
		t.Fatal("op never completed")
	}
	return opErr
}

func TestAllOperationsRoundTrip(t *testing.T) {
	h := newHarness(t, 51, 1)
	if err := h.do(t, func(done func(error)) { h.cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	if err := h.do(t, func(done func(error)) { h.cli.Create("/d/f", 123, done) }); err != nil {
		t.Fatal(err)
	}
	if err := h.do(t, func(done func(error)) {
		h.cli.Stat("/d/f", func(info *namespace.Info, err error) {
			if err == nil && info.Size != 123 {
				err = errors.New("wrong size")
			}
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.do(t, func(done func(error)) {
		h.cli.List("/d", func(infos []namespace.Info, err error) {
			if err == nil && len(infos) != 1 {
				err = errors.New("wrong list")
			}
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.do(t, func(done func(error)) { h.cli.Rename("/d/f", "/d/g", done) }); err != nil {
		t.Fatal(err)
	}
	if err := h.do(t, func(done func(error)) { h.cli.Delete("/d/g", done) }); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsSurfaceToCaller(t *testing.T) {
	h := newHarness(t, 52, 1)
	err := h.do(t, func(done func(error)) { h.cli.Create("/missing-parent/f", 1, done) })
	if err == nil {
		t.Fatal("create under missing parent should fail")
	}
	err = h.do(t, func(done func(error)) { h.cli.Delete("/nope", done) })
	if err == nil {
		t.Fatal("delete of missing file should fail")
	}
}

// A create whose size has no block list (negative, or more blocks than a
// transaction's block ids can number) is refused with ErrBadSize before it
// is journaled: the group keeps serving, and the path is still free. The
// largest size first: the block list of a size that overflowed used to
// panic the active's apply, and each successor's in turn on the retry.
func TestOutOfRangeSizeIsRefused(t *testing.T) {
	h := newHarness(t, 53, 1)
	for _, size := range []int64{math.MaxInt64, 1 << 60, namespace.MaxFileSize + 1, -1} {
		err := h.do(t, func(done func(error)) { h.cli.Create("/f", size, done) })
		if err == nil || err.Error() != namespace.ErrBadSize.Error() {
			t.Fatalf("create of size %d: %v, want %v", size, err, namespace.ErrBadSize)
		}
	}
	if err := h.do(t, func(done func(error)) { h.cli.Create("/f", namespace.MaxFileSize, done) }); err != nil {
		t.Fatalf("create of the largest size after the refusals: %v", err)
	}
}

func TestOnResultRecordsEveryOp(t *testing.T) {
	h := newHarness(t, 53, 1)
	_ = h.do(t, func(done func(error)) { h.cli.Mkdir("/r", done) })
	_ = h.do(t, func(done func(error)) { h.cli.Create("/r/f", 1, done) })
	_ = h.do(t, func(done func(error)) { h.cli.Delete("/nope", done) })
	if len(h.res) != 3 {
		t.Fatalf("recorded %d results", len(h.res))
	}
	if h.res[0].Kind != mams.OpMkdir || h.res[1].Kind != mams.OpCreate {
		t.Fatalf("kinds = %v %v", h.res[0].Kind, h.res[1].Kind)
	}
	if h.res[2].Err == nil {
		t.Fatal("failed op not recorded as failed")
	}
	for _, r := range h.res {
		if r.End < r.Start {
			t.Fatal("negative latency")
		}
	}
}

func TestReconnectAfterFailoverCountsRetries(t *testing.T) {
	h := newHarness(t, 54, 1)
	_ = h.do(t, func(done func(error)) { h.cli.Mkdir("/x", done) })
	// Crash the active mid-stream; the next op must eventually succeed and
	// show retries.
	h.c.ActiveOf(0).Shutdown()
	err := h.do(t, func(done func(error)) { h.cli.Create("/x/after", 1, done) })
	if err != nil {
		t.Fatalf("op across failover failed: %v", err)
	}
	last := h.res[len(h.res)-1]
	if last.Retries == 0 {
		t.Fatal("failover op should record retries")
	}
	if (last.End - last.Start) < 4*sim.Second {
		t.Fatalf("failover op latency %v suspiciously low", last.End-last.Start)
	}
}

func TestRoutingAgreesWithPlacementAcrossGroups(t *testing.T) {
	h := newHarness(t, 55, 3)
	if err := h.do(t, func(done func(error)) { h.cli.Mkdir("/m", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/m/f%02d", i)
		if err := h.do(t, func(done func(error)) { h.cli.Create(p, 1, done) }); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		if err := h.do(t, func(done func(error)) {
			h.cli.Stat(p, func(info *namespace.Info, err error) { done(err) })
		}); err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
	}
	// Zero retries expected in a healthy cluster: routing hit the right
	// active the first time for every op after warmup.
	retries := 0
	for _, r := range h.res[2:] {
		retries += r.Retries
	}
	if retries > 2 {
		t.Fatalf("healthy-cluster retries = %d", retries)
	}
}

func TestListMergesAcrossGroups(t *testing.T) {
	h := newHarness(t, 56, 3)
	if err := h.do(t, func(done func(error)) { h.cli.Mkdir("/ls", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/ls/f%02d", i)
		if err := h.do(t, func(done func(error)) { h.cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.do(t, func(done func(error)) { h.cli.Mkdir("/ls/sub", done) }); err != nil {
		t.Fatal(err)
	}
	var got []namespace.Info
	if err := h.do(t, func(done func(error)) {
		h.cli.List("/ls", func(infos []namespace.Info, err error) {
			got = infos
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	// 12 files (partitioned over 3 groups) + 1 replicated dir, merged and
	// deduplicated.
	if len(got) != 13 {
		t.Fatalf("list returned %d entries, want 13: %+v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Path >= got[i].Path {
			t.Fatal("merged listing not sorted")
		}
	}
}

// A listing is fanned out to every group and every group holds every
// directory, so one group that cannot answer makes the listing incomplete:
// List must report that group's error, not the other groups' entries.
func TestListFailsWhenAGroupIsDown(t *testing.T) {
	h := newHarness(t, 57, 3)
	if err := h.do(t, func(done func(error)) { h.cli.Mkdir("/d", done) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("/d/f%02d", i)
		if err := h.do(t, func(done func(error)) { h.cli.Create(p, 1, done) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range h.c.Groups[1] {
		s.Shutdown()
	}
	var got []namespace.Info
	var listErr error
	finished := false
	h.env.World.Defer("list", func() {
		h.cli.List("/d", func(infos []namespace.Info, err error) {
			got, listErr, finished = infos, err, true
		})
	})
	// Group 1 is retried for the client's whole attempt budget first.
	for deadline := h.env.Now() + 10*sim.Minute; !finished && h.env.Now() < deadline; {
		h.env.RunFor(sim.Second)
	}
	if !finished {
		t.Fatal("List never completed")
	}
	if !errors.Is(listErr, fsclient.ErrUnavailable) || got != nil {
		t.Fatalf("List with group 1 down = %d entries, err %v; want no entries and ErrUnavailable", len(got), listErr)
	}
}

// lateFirst is a one-member group whose first operation's reply comes
// after the client's time-out, and whose later ones come in time. It
// answers every Stat with Size set to the operation's arrival count, so a
// reply says which request it answers.
type lateFirst struct {
	node transport.Node
	ops  int
	sent []int // arrival counts of the replies sent, in sending order
}

func (s *lateFirst) HandleMessage(transport.NodeID, any) {}

func (s *lateFirst) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	switch req.(type) {
	case mams.ClientOp:
		s.ops++
		n := s.ops
		delay := 300 * sim.Millisecond
		if n == 1 {
			delay = 1500 * sim.Millisecond
		}
		s.node.After(delay, "reply", func() {
			s.sent = append(s.sent, n)
			reply(mams.OpReply{Info: &namespace.Info{Size: int64(n)}})
		})
	case mams.WhoIsActive:
		reply(mams.ActiveIs{Active: s.node.ID()})
	}
}

// An operation's state is reused by the next operation once it finishes.
// The first Stat times out (1 s) and is retried; its retry is answered
// (1.4 s), and the second Stat, issued from that callback, reuses the
// state. The first attempt's reply arrives late (1.5 s), while the second
// Stat waits for its own (1.7 s). Each Stat finishes exactly once, with its
// own reply and its own path.
func TestLateReplyDoesNotReachTheNextOp(t *testing.T) {
	sp := transporttest.NewSim(1, 0, 0, 0, nil)
	srv := &lateFirst{}
	srv.node = sp.Net.Listen("g0-mds0", srv)
	var results []fsclient.Result
	cli := fsclient.New(sp.Net, fsclient.Config{
		ID:          "client",
		Groups:      [][]transport.NodeID{{"g0-mds0"}},
		Partitioner: partition.New(1),
		OnResult:    func(r fsclient.Result) { results = append(results, r) },
	})
	var got []string
	stat := func(path string, next func()) {
		cli.Stat(path, func(info *namespace.Info, err error) {
			if err != nil {
				got = append(got, fmt.Sprintf("%s: %v", path, err))
			} else {
				got = append(got, fmt.Sprintf("%s: path=%s name=%s reply=%d", path, info.Path, info.Name, info.Size))
			}
			if next != nil {
				next()
			}
		})
	}
	sp.World.Defer("op", func() { stat("/a/b", func() { stat("/c", nil) }) })
	sp.RunFor(10 * sim.Second)
	want := []string{"/a/b: path=/a/b name=b reply=2", "/c: path=/c name=c reply=3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("callbacks ran %q, want %q", got, want)
	}
	if fmt.Sprint(srv.sent) != "[2 1 3]" {
		t.Errorf("replies sent in order %v, want [2 1 3]: the first one must arrive while /c waits", srv.sent)
	}
	if len(results) != 2 || results[0].Retries != 1 || results[1].Retries != 0 {
		t.Errorf("results %+v, want /a/b with one retry, then /c with none", results)
	}
}

// notActive is a one-member group that names itself active when asked but
// answers every operation NotActive, so a client retries against it until
// its attempts run out. It records when each operation arrived.
type notActive struct {
	node transport.Node
	ops  []sim.Time
}

func (s *notActive) HandleMessage(transport.NodeID, any) {}

func (s *notActive) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	switch req.(type) {
	case mams.ClientOp:
		s.ops = append(s.ops, s.node.Now())
		reply(mams.OpReply{NotActive: true})
	case mams.WhoIsActive:
		reply(mams.ActiveIs{Active: s.node.ID()})
	}
}

// The back-off doubles from RetryBackoff and stays at 16× once reached, for
// every remaining attempt: the shift must not overflow late in the budget.
func TestRetryBackoffStaysCapped(t *testing.T) {
	sp := transporttest.NewSim(1, 0, 0, 0, nil)
	srv := &notActive{}
	srv.node = sp.Net.Listen("g0-mds0", srv)
	const backoff = 100 * sim.Millisecond
	cli := fsclient.New(sp.Net, fsclient.Config{
		ID:           "client",
		Groups:       [][]transport.NodeID{{"g0-mds0"}},
		Partitioner:  partition.New(1),
		RetryBackoff: backoff,
	})
	var opErr error
	finished := false
	sp.World.Defer("op", func() {
		cli.Create("/f", 1, func(err error) { opErr, finished = err, true })
	})
	sp.RunFor(2 * sim.Minute)
	if !finished || !errors.Is(opErr, fsclient.ErrUnavailable) {
		t.Fatalf("finished %v, err %v; want ErrUnavailable", finished, opErr)
	}
	if len(srv.ops) != 60 {
		t.Fatalf("%d attempts reached the server, want 60", len(srv.ops))
	}
	for i := 5; i < len(srv.ops); i++ {
		if gap := srv.ops[i] - srv.ops[i-1]; gap < 16*backoff {
			t.Errorf("retry %d waited %v, want at least %v", i, gap, 16*backoff)
		}
	}
}
