package coord

import (
	"errors"
	"strconv"
	"testing"
	"testing/quick"
)

func applyOK(t *testing.T, sm *stateMachine, op *Op) *Result {
	t.Helper()
	res, _ := sm.apply(op)
	if res.Err != "" {
		t.Fatalf("op %d on %q failed: %s", op.Kind, op.Path, res.Err)
	}
	return res
}

var smReq uint64

func op(kind OpKind, path string) *Op {
	smReq++
	return &Op{ReqID: smReq, Kind: kind, Path: path, Version: -1}
}

func newSession(t *testing.T, sm *stateMachine) uint64 {
	t.Helper()
	res := applyOK(t, sm, op(opCreateSession, ""))
	return res.Session
}

func TestSMCreateGetSet(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)

	c := op(opCreate, "/a")
	c.Session = sess
	c.Data = []byte("one")
	if res := applyOK(t, sm, c); res.Path != "/a" {
		t.Fatalf("created path %q", res.Path)
	}

	g := op(opGetData, "/a")
	g.Session = sess
	res := applyOK(t, sm, g)
	if string(res.Data) != "one" || res.Version != 0 {
		t.Fatalf("get = %q v%d", res.Data, res.Version)
	}

	s := op(opSetData, "/a")
	s.Session = sess
	s.Data = []byte("two")
	if res := applyOK(t, sm, s); res.Version != 1 {
		t.Fatalf("set version = %d", res.Version)
	}
}

func TestSMCreateRequiresParent(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	c := op(opCreate, "/a/b")
	c.Session = sess
	res, _ := sm.apply(c)
	if decodeErr(res.Err) != ErrNoNode {
		t.Fatalf("err = %s", res.Err)
	}
}

func TestSMCreateDuplicate(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	c := op(opCreate, "/a")
	c.Session = sess
	applyOK(t, sm, c)
	c2 := op(opCreate, "/a")
	c2.Session = sess
	res, _ := sm.apply(c2)
	if decodeErr(res.Err) != ErrNodeExists {
		t.Fatalf("err = %s", res.Err)
	}
}

func TestSMBadPaths(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	for _, p := range []string{"", "a", "/a/", "/a//b", "/"} {
		c := op(opCreate, p)
		c.Session = sess
		res, _ := sm.apply(c)
		if decodeErr(res.Err) != ErrBadPath {
			t.Fatalf("path %q err = %s", p, res.Err)
		}
	}
}

func TestSMDeleteSemantics(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	for _, p := range []string{"/a", "/a/b"} {
		c := op(opCreate, p)
		c.Session = sess
		applyOK(t, sm, c)
	}
	res, _ := sm.apply(op(opDelete, "/a"))
	if decodeErr(res.Err) != ErrNotEmpty {
		t.Fatalf("delete non-empty err = %s", res.Err)
	}
	applyOK(t, sm, op(opDelete, "/a/b"))
	applyOK(t, sm, op(opDelete, "/a"))
	res, _ = sm.apply(op(opDelete, "/a"))
	if decodeErr(res.Err) != ErrNoNode {
		t.Fatalf("double delete err = %s", res.Err)
	}
	res, _ = sm.apply(op(opDelete, "/"))
	if decodeErr(res.Err) != ErrNoNode {
		t.Fatalf("delete root err = %s", res.Err)
	}
}

func TestSMVersionCAS(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	c := op(opCreate, "/v")
	c.Session = sess
	applyOK(t, sm, c)

	s := op(opSetData, "/v")
	s.Version = 5 // wrong
	res, _ := sm.apply(s)
	if decodeErr(res.Err) != ErrBadVersion {
		t.Fatalf("err = %s", res.Err)
	}
	s2 := op(opSetData, "/v")
	s2.Version = 0
	applyOK(t, sm, s2)
	d := op(opDelete, "/v")
	d.Version = 0 // stale after set
	res, _ = sm.apply(d)
	if decodeErr(res.Err) != ErrBadVersion {
		t.Fatalf("delete CAS err = %s", res.Err)
	}
}

func TestSMSequentialNodes(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	var paths []string
	for i := 0; i < 3; i++ {
		c := op(opCreate, "/seq-")
		c.Session = sess
		c.Sequential = true
		res := applyOK(t, sm, c)
		paths = append(paths, res.Path)
	}
	if paths[0] != "/seq-0000000001" || paths[2] != "/seq-0000000003" {
		t.Fatalf("paths = %v", paths)
	}
}

func TestSMEphemeralDiesWithSession(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	c := op(opCreate, "/eph")
	c.Session = sess
	c.Ephemeral = true
	applyOK(t, sm, c)

	e := op(opExpireSession, "")
	e.Session = sess
	applyOK(t, sm, e)

	x := op(opExists, "/eph")
	res := applyOK(t, sm, x)
	if res.Exists {
		t.Fatal("ephemeral survived session expiry")
	}
}

func TestSMEphemeralNeedsSession(t *testing.T) {
	sm := newStateMachine()
	c := op(opCreate, "/eph")
	c.Ephemeral = true // no session
	res, _ := sm.apply(c)
	if decodeErr(res.Err) != ErrSessionExpired {
		t.Fatalf("err = %s", res.Err)
	}
}

func TestSMWatchFiresOnDelete(t *testing.T) {
	sm := newStateMachine()
	s1 := newSession(t, sm)
	s2 := newSession(t, sm)
	c := op(opCreate, "/w")
	c.Session = s1
	applyOK(t, sm, c)
	g := op(opGetData, "/w")
	g.Session = s2
	g.Watch = true
	applyOK(t, sm, g)

	d := op(opDelete, "/w")
	_, fired := sm.apply(d)
	if len(fired) != 1 || fired[0].session != s2 || fired[0].event.Type != EventDeleted {
		t.Fatalf("fired = %+v", fired)
	}
	// One-shot: a second delete cycle must not fire again.
	c2 := op(opCreate, "/w")
	c2.Session = s1
	_, fired2 := sm.apply(c2)
	if len(fired2) != 0 {
		t.Fatalf("watch fired twice: %+v", fired2)
	}
}

func TestSMWatchOnAbsentNodeFiresOnCreate(t *testing.T) {
	sm := newStateMachine()
	s1 := newSession(t, sm)
	g := op(opGetData, "/later")
	g.Session = s1
	g.Watch = true
	res, _ := sm.apply(g)
	if decodeErr(res.Err) != ErrNoNode {
		t.Fatalf("err = %s", res.Err)
	}
	c := op(opCreate, "/later")
	c.Session = s1
	_, fired := sm.apply(c)
	if len(fired) != 1 || fired[0].event.Type != EventCreated {
		t.Fatalf("fired = %+v", fired)
	}
}

func TestSMChildrenWatch(t *testing.T) {
	sm := newStateMachine()
	s1 := newSession(t, sm)
	c := op(opCreate, "/dir")
	c.Session = s1
	applyOK(t, sm, c)
	ch := op(opChildren, "/dir")
	ch.Session = s1
	ch.Watch = true
	res := applyOK(t, sm, ch)
	if len(res.Children) != 0 {
		t.Fatalf("children = %v", res.Children)
	}
	k := op(opCreate, "/dir/kid")
	k.Session = s1
	_, fired := sm.apply(k)
	if len(fired) != 1 || fired[0].event.Type != EventChildrenChanged || fired[0].event.Path != "/dir" {
		t.Fatalf("fired = %+v", fired)
	}
}

func TestSMChildrenSorted(t *testing.T) {
	sm := newStateMachine()
	s1 := newSession(t, sm)
	c := op(opCreate, "/d")
	c.Session = s1
	applyOK(t, sm, c)
	for _, n := range []string{"/d/c", "/d/a", "/d/b"} {
		k := op(opCreate, n)
		k.Session = s1
		applyOK(t, sm, k)
	}
	res := applyOK(t, sm, op(opChildren, "/d"))
	if len(res.Children) != 3 || res.Children[0] != "/d/a" || res.Children[2] != "/d/c" {
		t.Fatalf("children = %v", res.Children)
	}
}

func TestSMDedupByReqID(t *testing.T) {
	sm := newStateMachine()
	sess := newSession(t, sm)
	c := op(opCreate, "/once")
	c.Session = sess
	res1, _ := sm.apply(c)
	res2, fired := sm.apply(c) // same pointer, same ReqID (a Paxos retry)
	if res1 != res2 {
		t.Fatal("dedup returned a different result object")
	}
	if len(fired) != 0 {
		t.Fatal("duplicate apply fired watches")
	}
	// Another op with the same ReqID but fresh pointer also dedups.
	c2 := *c
	res3, _ := sm.apply(&c2)
	if res3.Err != "" || res3 != res1 {
		t.Fatal("retry with same ReqID re-executed")
	}
}

func TestSMExpireUnknownSessionIdempotent(t *testing.T) {
	sm := newStateMachine()
	e := op(opExpireSession, "")
	e.Session = 999
	res, fired := sm.apply(e)
	if res.Err != "" || len(fired) != 0 {
		t.Fatalf("res=%+v fired=%+v", res, fired)
	}
}

func TestSMSessionExpiryFiresEphemeralWatches(t *testing.T) {
	sm := newStateMachine()
	owner := newSession(t, sm)
	watcher := newSession(t, sm)
	c := op(opCreate, "/lock")
	c.Session = owner
	c.Ephemeral = true
	applyOK(t, sm, c)
	g := op(opExists, "/lock")
	g.Session = watcher
	g.Watch = true
	applyOK(t, sm, g)

	e := op(opExpireSession, "")
	e.Session = owner
	_, fired := sm.apply(e)
	if len(fired) != 1 || fired[0].session != watcher || fired[0].event.Type != EventDeleted {
		t.Fatalf("fired = %+v", fired)
	}
}

func TestSMExpiredSessionWatchesDropped(t *testing.T) {
	sm := newStateMachine()
	s1 := newSession(t, sm)
	s2 := newSession(t, sm)
	c := op(opCreate, "/n")
	c.Session = s1
	applyOK(t, sm, c)
	g := op(opGetData, "/n")
	g.Session = s2
	g.Watch = true
	applyOK(t, sm, g)
	e := op(opExpireSession, "")
	e.Session = s2
	applyOK(t, sm, e)
	_, fired := sm.apply(op(opDelete, "/n"))
	if len(fired) != 0 {
		t.Fatalf("expired session still received events: %+v", fired)
	}
}

func TestErrCodesRoundTrip(t *testing.T) {
	for _, e := range []error{ErrNoNode, ErrNodeExists, ErrNotEmpty, ErrBadVersion, ErrSessionExpired, ErrBadPath} {
		if decodeErr(encodeErr(e)) != e {
			t.Fatalf("error %v did not round-trip", e)
		}
	}
	if decodeErr("") != nil {
		t.Fatal("empty code should be nil")
	}
	if !errors.Is(decodeErr("weird"), decodeErr("weird")) {
		// Distinct error objects, just check non-nil.
		if decodeErr("weird") == nil {
			t.Fatal("unknown code lost")
		}
	}
}

func TestEventTypeStrings(t *testing.T) {
	if EventCreated.String() != "created" || EventDeleted.String() != "deleted" ||
		EventDataChanged.String() != "data-changed" ||
		EventChildrenChanged.String() != "children-changed" ||
		EventSessionExpired.String() != "session-expired" {
		t.Fatal("event strings broken")
	}
}

func TestParentPath(t *testing.T) {
	cases := map[string]string{"/a": "/", "/a/b": "/a", "/a/b/c": "/a/b"}
	for in, want := range cases {
		if parentPath(in) != want {
			t.Fatalf("parentPath(%q) = %q", in, parentPath(in))
		}
	}
}

func TestSMPropertyRandomOps(t *testing.T) {
	// Random sequences of ops keep the state machine's invariants: parent
	// links consistent, ephemerals owned by live sessions, fired watches
	// only for registered one-shot watchers.
	f := func(seed uint64, stepsRaw uint8) bool {
		steps := int(stepsRaw)%120 + 20
		sm := newStateMachine()
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int((r >> 33) % uint64(n))
			return v
		}
		var sessions []uint64
		var paths []string
		var req uint64 = 1 << 40
		mkop := func(kind OpKind, path string) *Op {
			req++
			return &Op{ReqID: req, Kind: kind, Path: path, Version: -1}
		}
		for i := 0; i < steps; i++ {
			switch next(6) {
			case 0: // new session
				res, _ := sm.apply(mkop(opCreateSession, ""))
				sessions = append(sessions, res.Session)
			case 1: // create (sometimes ephemeral)
				if len(sessions) == 0 {
					continue
				}
				op := mkop(opCreate, "/n"+strconv.Itoa(i))
				op.Session = sessions[next(len(sessions))]
				op.Ephemeral = next(2) == 0
				res, _ := sm.apply(op)
				if res.Err == "" {
					paths = append(paths, res.Path)
				}
			case 2: // delete
				if len(paths) == 0 {
					continue
				}
				sm.apply(mkop(opDelete, paths[next(len(paths))]))
			case 3: // watch + read
				if len(sessions) == 0 || len(paths) == 0 {
					continue
				}
				op := mkop(opGetData, paths[next(len(paths))])
				op.Session = sessions[next(len(sessions))]
				op.Watch = true
				sm.apply(op)
			case 4: // expire a session
				if len(sessions) == 0 {
					continue
				}
				op := mkop(opExpireSession, "")
				op.Session = sessions[next(len(sessions))]
				sm.apply(op)
			case 5: // set data
				if len(paths) == 0 {
					continue
				}
				op := mkop(opSetData, paths[next(len(paths))])
				op.Data = []byte{byte(i)}
				sm.apply(op)
			}
		}
		// Invariant 1: every node except root has a live parent that lists it.
		for p, n := range sm.nodes {
			if p == "/" {
				continue
			}
			parent := sm.nodes[parentPath(p)]
			if parent == nil || !parent.children[p] {
				return false
			}
			// Invariant 2: ephemeral owners are live sessions that list
			// the node back.
			if n.owner != 0 {
				sess := sm.sessions[n.owner]
				if sess == nil || !sess.ephemerals[p] {
					return false
				}
			}
		}
		// Invariant 3: watches belong to live sessions.
		for _, m := range sm.watches {
			for k := range m {
				if sm.sessions[k.session] == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
