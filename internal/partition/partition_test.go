package partition

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestHomeGroupStableAndInRange(t *testing.T) {
	p := New(3)
	for i := 0; i < 1000; i++ {
		path := fmt.Sprintf("/dir%d/file%d", i%7, i)
		g := p.HomeGroup(path)
		if g < 0 || g >= 3 {
			t.Fatalf("group %d out of range", g)
		}
		if g != p.HomeGroup(path) {
			t.Fatal("hash not stable")
		}
	}
}

func TestHomeGroupSpreads(t *testing.T) {
	p := New(4)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[p.HomeGroup(fmt.Sprintf("/bench/f%06d", i))]++
	}
	for g, c := range counts {
		if c < 1800 || c > 3200 {
			t.Fatalf("group %d got %d/10000 files — badly skewed", g, c)
		}
	}
}

func TestSingleGroupAlwaysLocal(t *testing.T) {
	p := New(1)
	for _, path := range []string{"/a", "/a/b/c", "/x/y"} {
		for _, gs := range [][]int{p.MkdirPlan(path), p.DeletePlan(path), p.RenamePlan(path, path+"x")} {
			if len(gs) != 1 || gs[0] != 0 {
				t.Fatalf("plan = %v, want [0]", gs)
			}
		}
	}
}

func TestMkdirIsGlobal(t *testing.T) {
	p := New(3)
	gs := p.MkdirPlan("/newdir")
	if len(gs) != 3 {
		t.Fatalf("groups = %v", gs)
	}
	if gs[0] != p.DirMasterGroup("/newdir") {
		t.Fatal("dir master must lead")
	}
	seen := map[int]bool{}
	for _, g := range gs {
		if seen[g] {
			t.Fatalf("duplicate group in %v", gs)
		}
		seen[g] = true
	}
}

func TestDeletePlanPairOrLocal(t *testing.T) {
	p := New(4)
	pairSeen, localSeen := false, false
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("/dir%d/f%d", i, i)
		gs := p.DeletePlan(path)
		if gs[0] != p.HomeGroup(path) {
			t.Fatal("home group must coordinate deletes")
		}
		switch len(gs) {
		case 1:
			localSeen = true
		case 2:
			pairSeen = true
			if gs[0] == gs[1] {
				t.Fatalf("pair plan = %v", gs)
			}
		default:
			t.Fatalf("delete plan = %v", gs)
		}
	}
	if !pairSeen || !localSeen {
		t.Fatalf("expected a mix of plans: pair=%v local=%v", pairSeen, localSeen)
	}
}

func TestRenamePlanIncludesAllInvolvedGroups(t *testing.T) {
	p := New(4)
	src, dst := "/a/src", "/b/dst"
	gs := p.RenamePlan(src, dst)
	want := map[int]bool{
		p.HomeGroup(src): true, p.HomeGroup(dst): true,
		p.DirMasterGroup(src): true, p.DirMasterGroup(dst): true,
	}
	got := map[int]bool{}
	for _, g := range gs {
		got[g] = true
	}
	for g := range want {
		if !got[g] {
			t.Fatalf("missing group %d in %v", g, gs)
		}
	}
	if gs[0] != p.HomeGroup(src) {
		t.Fatal("source home group must lead renames")
	}
}

func TestDirMasterSharedBySiblings(t *testing.T) {
	p := New(8)
	a, b := p.DirMasterGroup("/data/x"), p.DirMasterGroup("/data/y")
	if a != b {
		t.Fatal("siblings must share a dir master")
	}
	if p.DirMasterGroup("/top") != p.DirMasterGroup("/other") {
		t.Fatal("root children must share the root dir master")
	}
}

func TestPanicOnZeroGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestPropertyPlansWellFormed(t *testing.T) {
	f := func(nRaw uint8, a, b string) bool {
		n := int(nRaw%8) + 1
		p := New(n)
		src := "/" + sanitize(a)
		dst := "/" + sanitize(b)
		for _, plan := range [][]int{
			p.MkdirPlan(src), p.DeletePlan(src), p.RenamePlan(src, dst),
		} {
			if len(plan) == 0 {
				return false
			}
			seen := map[int]bool{}
			for _, g := range plan {
				if g < 0 || g >= n || seen[g] {
					return false
				}
				seen[g] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != '/' && r != 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return "x"
	}
	return string(out)
}

func TestSubtreeStrategyPinsDirectories(t *testing.T) {
	p := NewWithStrategy(4, BySubtree)
	base := p.HomeGroup("/data/a")
	for i := 0; i < 100; i++ {
		if p.HomeGroup(fmt.Sprintf("/data/file-%d", i)) != base {
			t.Fatal("subtree strategy scattered a subtree")
		}
		if p.HomeGroup(fmt.Sprintf("/data/deep/nest/f%d", i)) != base {
			t.Fatal("nested paths left the subtree's group")
		}
	}
	// Different top-level trees still spread.
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[p.HomeGroup(fmt.Sprintf("/tree%02d/f", i))] = true
	}
	if len(seen) < 3 {
		t.Fatalf("subtrees landed on only %d groups", len(seen))
	}
}

func TestByPathSpreadsWithinDirectory(t *testing.T) {
	p := New(4)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[p.HomeGroup(fmt.Sprintf("/hot/f%02d", i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("full-path hash used only %d groups for one directory", len(seen))
	}
}
