package namespace

import (
	"fmt"
	"testing"

	"mams/internal/journal"
	"mams/internal/race"
)

// The namespace is the metadata hot path: every simulated op resolves at
// least one path, and the active resolves on validate AND apply. These
// budgets lock in the cursor-based walkers — path resolution must not
// allocate at all, and mutation must allocate only the inode itself.

func TestLookupAllocFree(t *testing.T) {
	tr := benchTree(t, 10000)
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%02d/f%07d", i%16, i%10000)
	}
	avg := testing.AllocsPerRun(2000, func() {
		for _, p := range paths {
			if !tr.Exists(p) {
				t.Fatal("missing path")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("Exists allocates %.2f objects per 64 lookups, want 0", avg)
	}
}

// Stat of a directory or of a file allocates nothing: a file's Info shares
// the inode's block list instead of copying it.
func TestStatDirAllocFree(t *testing.T) {
	tr := benchTree(t, 100)
	for _, p := range []string{"/d03", "/d03/f0000003"} {
		avg := testing.AllocsPerRun(2000, func() {
			info, err := tr.Stat(p)
			if err != nil || !info.Dir && len(info.Blocks) == 0 {
				t.Fatalf("Stat(%s) = %+v, %v", p, info, err)
			}
		})
		if avg != 0 {
			t.Fatalf("Stat(%s) allocates %.2f objects/op, want 0", p, avg)
		}
	}
}

// The block list Stat returns is the inode's own, clipped to its length:
// appending to it copies, so the tree, and its digest, stay as they were.
func TestStatBlocksAppendLeavesTree(t *testing.T) {
	tr := New()
	if err := tr.Create("/f", 3*BlockSize, 0o644, 1, 7); err != nil {
		t.Fatal(err)
	}
	digest := tr.Digest()
	info, err := tr.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint64(nil), info.Blocks...)
	grown := append(info.Blocks, 99)
	grown[0] = 99
	again, _ := tr.Stat("/f")
	if tr.Digest() != digest || fmt.Sprint(again.Blocks) != fmt.Sprint(want) {
		t.Fatalf("after appending to a returned block list: digest %#x (was %#x), blocks %v (were %v)",
			tr.Digest(), digest, again.Blocks, want)
	}
}

func TestCreateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	tr := benchTree(t, 0)
	paths := make([]string, 1<<16)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%02d/a%07d", i%16, i)
	}
	next := 0
	// AllocsPerRun invokes the function runs+1 times (one warmup pass).
	avg := testing.AllocsPerRun(len(paths)-1, func() {
		p := paths[next]
		next++
		if err := tr.Create(p, 1024, 0o644, 1, int64(next)); err != nil {
			t.Fatal(err)
		}
	})
	// One inode (its one block inside it), amortized map growth. The old
	// splitPath-based resolver added a []string per op on top.
	if avg > 4 {
		t.Fatalf("Create allocates %.2f objects/op, budget 4", avg)
	}
}

// A file of at most one block keeps its block list inside its inode, so
// creating it allocates the inode alone; a longer list is one allocation
// more. Each run deletes the file again, so the directory's map does not
// grow.
func TestCreateBlockListAllocs(t *testing.T) {
	tr := benchTree(t, 100)
	for _, c := range []struct {
		size int64
		want float64
	}{{0, 1}, {1, 1}, {BlockSize, 1}, {3 * BlockSize, 2}} {
		avg := testing.AllocsPerRun(1000, func() {
			if err := tr.Create("/d00/x", c.size, 0o644, 1, 9); err != nil {
				t.Fatal(err)
			}
			if err := tr.Delete("/d00/x"); err != nil {
				t.Fatal(err)
			}
		})
		if avg != c.want {
			t.Errorf("Create of a %d-byte file allocates %.2f objects, want %v", c.size, avg, c.want)
		}
	}
}

func TestValidateCreateAllocFree(t *testing.T) {
	tr := benchTree(t, 1000)
	rec := journal.Record{Op: journal.OpCreate, Path: "/d00/not-there", Perm: 0o644}
	avg := testing.AllocsPerRun(2000, func() {
		if err := tr.Validate(rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Validate(create) allocates %.2f objects/op, want 0", avg)
	}
}

func TestParentCacheInvalidation(t *testing.T) {
	// The last-parent cache must never resurrect a detached directory.
	tr := New()
	if err := tr.Mkdir("/a", 0o755, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Create("/a/f1", 1, 0o644, 1, 1); err != nil {
		t.Fatal(err) // caches /a
	}
	if err := tr.Delete("/a/f1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Create("/a/f2", 1, 0o644, 2, 2); err != ErrNotFound {
		t.Fatalf("create under deleted dir = %v, want ErrNotFound", err)
	}
	// Same story across a rename.
	if err := tr.Mkdir("/b", 0o755, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Create("/b/f1", 1, 0o644, 3, 3); err != nil {
		t.Fatal(err) // caches /b
	}
	if err := tr.Rename("/b", "/c"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Create("/b/f2", 1, 0o644, 4, 4); err != ErrNotFound {
		t.Fatalf("create under renamed-away dir = %v, want ErrNotFound", err)
	}
	if !tr.Exists("/c/f1") {
		t.Fatal("renamed subtree lost its child")
	}
}
