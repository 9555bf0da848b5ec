package namespace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mams/internal/journal"
)

func mustMkdir(t *testing.T, tr *Tree, path string) {
	t.Helper()
	if err := tr.Mkdir(path, 0o755, 1); err != nil {
		t.Fatalf("mkdir %s: %v", path, err)
	}
}

func mustCreate(t *testing.T, tr *Tree, path string) {
	t.Helper()
	if err := tr.Create(path, 100, 0o644, 1, 1); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
}

func TestCreateAndStat(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/a")
	if err := tr.Create("/a/f", 1234, 0o640, 99, 7); err != nil {
		t.Fatal(err)
	}
	info, err := tr.Stat("/a/f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Dir || info.Size != 1234 || info.Perm != 0o640 || info.MTime != 99 {
		t.Fatalf("info = %+v", info)
	}
	if tr.Files() != 1 || tr.Dirs() != 1 {
		t.Fatalf("counts: files=%d dirs=%d", tr.Files(), tr.Dirs())
	}
}

// Base names the entry a path resolves to, as Stat's Info.Name does, for
// canonical and for non-canonical spellings.
func TestBaseMatchesStatName(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/a")
	mustCreate(t, tr, "/a/f")
	for _, p := range []string{"/", "//", "/.", "/a", "/a/", "/a/.", "/a/./", "/a//f", "/a/f", "/./a/f/."} {
		info, err := tr.Stat(p)
		if err != nil {
			t.Fatalf("Stat(%q): %v", p, err)
		}
		if got := Base(p); got != info.Name {
			t.Errorf("Base(%q) = %q, Stat names it %q", p, got, info.Name)
		}
	}
}

func TestCreateRequiresParent(t *testing.T) {
	tr := New()
	if err := tr.Create("/missing/f", 0, 0o644, 1, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateRejectsDuplicate(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if err := tr.Create("/f", 0, 0o644, 1, 2); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateUnderFileFails(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if err := tr.Create("/f/g", 0, 0o644, 1, 2); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockAssignmentDeterministic(t *testing.T) {
	size := int64(3*BlockSize + 1) // 4 blocks
	a, b := New(), New()
	_ = a.Create("/f", size, 0o644, 1, 42)
	_ = b.Create("/f", size, 0o644, 1, 42)
	ia, _ := a.Stat("/f")
	ib, _ := b.Stat("/f")
	if len(ia.Blocks) != 4 {
		t.Fatalf("blocks = %v", ia.Blocks)
	}
	for i := range ia.Blocks {
		if ia.Blocks[i] != ib.Blocks[i] {
			t.Fatal("block ids not deterministic")
		}
	}
	if a.Blocks() != 4 {
		t.Fatalf("Blocks() = %d", a.Blocks())
	}
}

func TestZeroSizeFileHasNoBlocks(t *testing.T) {
	tr := New()
	_ = tr.Create("/f", 0, 0o644, 1, 1)
	info, _ := tr.Stat("/f")
	if len(info.Blocks) != 0 {
		t.Fatalf("blocks = %v", info.Blocks)
	}
}

func TestMkdirSemantics(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/a")
	mustMkdir(t, tr, "/a/b")
	if err := tr.Mkdir("/a/b", 0o755, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("dup mkdir err = %v", err)
	}
	if err := tr.Mkdir("/x/y", 0o755, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("orphan mkdir err = %v", err)
	}
	if err := tr.Mkdir("/", 0o755, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("mkdir / err = %v", err)
	}
}

func TestMkdirAll(t *testing.T) {
	tr := New()
	if err := tr.MkdirAll("/a/b/c/d", 0o755, 1); err != nil {
		t.Fatal(err)
	}
	if !tr.Exists("/a/b/c/d") {
		t.Fatal("path missing after MkdirAll")
	}
	if err := tr.MkdirAll("/a/b", 0o755, 1); err != nil {
		t.Fatalf("idempotent MkdirAll: %v", err)
	}
	if tr.Dirs() != 4 {
		t.Fatalf("Dirs = %d", tr.Dirs())
	}
}

func TestDeleteFile(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if err := tr.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if tr.Exists("/f") || tr.Files() != 0 {
		t.Fatal("file still present")
	}
	if err := tr.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeleteEmptyDirOnly(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/d")
	mustCreate(t, tr, "/d/f")
	if err := tr.Delete("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	_ = tr.Delete("/d/f")
	if err := tr.Delete("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRootForbidden(t *testing.T) {
	tr := New()
	if err := tr.Delete("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteRecursive(t *testing.T) {
	tr := New()
	_ = tr.MkdirAll("/a/b/c", 0o755, 1)
	mustCreate(t, tr, "/a/f1")
	mustCreate(t, tr, "/a/b/f2")
	mustCreate(t, tr, "/a/b/c/f3")
	if err := tr.DeleteRecursive("/a"); err != nil {
		t.Fatal(err)
	}
	if tr.Files() != 0 || tr.Dirs() != 0 || tr.Blocks() != 0 {
		t.Fatalf("counts after recursive delete: f=%d d=%d b=%d", tr.Files(), tr.Dirs(), tr.Blocks())
	}
}

func TestRenameFile(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/a")
	mustMkdir(t, tr, "/b")
	mustCreate(t, tr, "/a/f")
	if err := tr.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if tr.Exists("/a/f") || !tr.Exists("/b/g") {
		t.Fatal("rename did not move")
	}
	info, _ := tr.Stat("/b/g")
	if info.Name != "g" {
		t.Fatalf("renamed name = %q", info.Name)
	}
}

func TestRenameDirectoryKeepsSubtree(t *testing.T) {
	tr := New()
	_ = tr.MkdirAll("/a/b", 0o755, 1)
	mustCreate(t, tr, "/a/b/f")
	if err := tr.Rename("/a", "/z"); err != nil {
		t.Fatal(err)
	}
	if !tr.Exists("/z/b/f") {
		t.Fatal("subtree lost on rename")
	}
}

func TestRenameRejectsExistingDest(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	mustCreate(t, tr, "/g")
	if err := tr.Rename("/f", "/g"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestRenameIntoOwnSubtreeRejected(t *testing.T) {
	tr := New()
	_ = tr.MkdirAll("/a/b", 0o755, 1)
	if err := tr.Rename("/a", "/a/b/c"); !errors.Is(err, ErrSubtree) {
		t.Fatalf("err = %v", err)
	}
	if err := tr.Rename("/a", "/a"); !errors.Is(err, ErrSubtree) {
		t.Fatalf("self rename err = %v", err)
	}
}

func TestRenameMissingSource(t *testing.T) {
	tr := New()
	if err := tr.Rename("/nope", "/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestList(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/d")
	mustCreate(t, tr, "/d/b")
	mustCreate(t, tr, "/d/a")
	mustMkdir(t, tr, "/d/c")
	infos, err := tr.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "a" || infos[1].Name != "b" || infos[2].Name != "c" {
		t.Fatalf("list = %+v", infos)
	}
	if infos[0].Path != "/d/a" {
		t.Fatalf("path = %q", infos[0].Path)
	}
	if _, err := tr.List("/d/a"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("list file err = %v", err)
	}
	rootList, err := tr.List("/")
	if err != nil || len(rootList) != 1 || rootList[0].Path != "/d" {
		t.Fatalf("root list = %+v err=%v", rootList, err)
	}
}

func TestBadPaths(t *testing.T) {
	tr := New()
	for _, p := range []string{"", "relative", "/a/../b"} {
		if err := tr.Mkdir(p, 0o755, 1); !errors.Is(err, ErrBadPath) {
			t.Fatalf("path %q err = %v", p, err)
		}
	}
	if tr.Exists("not-absolute") {
		t.Fatal("relative path should not resolve")
	}
	// Redundant slashes normalize.
	mustMkdir(t, tr, "/a")
	mustMkdir(t, tr, "//a///b")
	if !tr.Exists("/a/b") {
		t.Fatal("slash normalization failed")
	}
}

func TestApplyJournalRecords(t *testing.T) {
	tr := New()
	recs := []journal.Record{
		{TxID: 1, Op: journal.OpMkdir, Path: "/d", Perm: 0o755, MTime: 1},
		{TxID: 2, Op: journal.OpCreate, Path: "/d/f", Size: 10, Perm: 0o644, MTime: 2},
		{TxID: 3, Op: journal.OpRename, Path: "/d/f", Dest: "/d/g", MTime: 3},
		{TxID: 4, Op: journal.OpNoop},
	}
	for _, r := range recs {
		if err := tr.Apply(r); err != nil {
			t.Fatalf("apply %+v: %v", r, err)
		}
	}
	if !tr.Exists("/d/g") || tr.Exists("/d/f") {
		t.Fatal("journal replay produced wrong tree")
	}
	if err := tr.Apply(journal.Record{Op: journal.OpKind(77)}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestApplyBatchStopsAtError(t *testing.T) {
	tr := New()
	b := journal.Batch{SN: 1, Records: []journal.Record{
		{TxID: 1, Op: journal.OpMkdir, Path: "/d", Perm: 0o755},
		{TxID: 2, Op: journal.OpDelete, Path: "/missing"},
		{TxID: 3, Op: journal.OpMkdir, Path: "/e", Perm: 0o755},
	}}
	if err := tr.ApplyBatch(b); err == nil {
		t.Fatal("expected error")
	}
	if tr.Exists("/e") {
		t.Fatal("records after the failure were applied")
	}
}

func TestReplayEquivalence(t *testing.T) {
	// Two replicas replaying the same journal reach identical digests and
	// identical images.
	ops := []journal.Record{
		{TxID: 1, Op: journal.OpMkdir, Path: "/a", Perm: 0o755, MTime: 1},
		{TxID: 2, Op: journal.OpMkdir, Path: "/a/b", Perm: 0o755, MTime: 2},
		{TxID: 3, Op: journal.OpCreate, Path: "/a/b/f1", Size: BlockSize * 2, Perm: 0o644, MTime: 3},
		{TxID: 4, Op: journal.OpCreate, Path: "/a/f2", Size: 5, Perm: 0o600, MTime: 4},
		{TxID: 5, Op: journal.OpRename, Path: "/a/b", Dest: "/c", MTime: 5},
		{TxID: 6, Op: journal.OpDelete, Path: "/a/f2"},
	}
	x, y := New(), New()
	for _, r := range ops {
		if err := x.Apply(r); err != nil {
			t.Fatal(err)
		}
		if err := y.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if x.Digest() != y.Digest() {
		t.Fatal("digests diverged after identical replay")
	}
	if string(x.SaveImage()) != string(y.SaveImage()) {
		t.Fatal("images diverged after identical replay")
	}
}

func TestDigestSensitivity(t *testing.T) {
	a, b := New(), New()
	_ = a.Create("/f", 1, 0o644, 1, 1)
	_ = b.Create("/f", 2, 0o644, 1, 1)
	if a.Digest() == b.Digest() {
		t.Fatal("digest insensitive to size")
	}
	c := New()
	_ = c.Mkdir("/f", 0o644, 1)
	if a.Digest() == c.Digest() {
		t.Fatal("digest insensitive to file/dir kind")
	}
	if New().Digest() != New().Digest() {
		t.Fatal("empty trees differ")
	}
}

// recomputeDigest rebuilds the digest from nothing but the entries: every
// path is spelled out as a string and hashed from the FNV offset, so a stale
// pathState or a missed add/subtract in a mutator shows as a mismatch with
// the running sum.
func recomputeDigest(t *Tree) uint64 {
	var sum uint64
	var walk func(path string, n *inode)
	walk = func(path string, n *inode) {
		for name, c := range n.children {
			p := path + "/" + name
			h := fnvString(fnvOffset, p)
			if c.dir {
				sum += dirTerm(h)
				walk(p, c)
			} else {
				sum += fileTerm(h, c)
			}
		}
	}
	walk("", t.root)
	return sum
}

func TestDigestTracksEveryMutation(t *testing.T) {
	tr := New()
	empty := tr.Digest()
	if empty != New().Digest() || recomputeDigest(tr) != empty {
		t.Fatalf("empty digest %#x, recomputed %#x", empty, recomputeDigest(tr))
	}
	seen := map[uint64]string{empty: "empty"}
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := tr.Digest(), recomputeDigest(tr); got != want {
			t.Fatalf("after %s: running digest %#x, recomputed %#x", name, got, want)
		}
		if prev, dup := seen[tr.Digest()]; dup {
			t.Fatalf("%s left the digest of %q", name, prev)
		}
		seen[tr.Digest()] = name
	}
	step("mkdirall", tr.MkdirAll("/a/b/c", 0o755, 1))
	step("create", tr.Create("/a/b/c/f0", 0, 0o644, 2, 1))
	step("create+blocks", tr.Create("/a/b/f1", 3*BlockSize, 0o644, 3, 2))
	step("rename file", tr.Rename("/a/b/f1", "/a/f1"))
	step("rename dir", tr.Rename("/a/b", "/bb"))
	step("create under moved dir", tr.Create("/bb/c/f2", 7, 0o600, 4, 3))
	step("mkdir", tr.Mkdir("/bb/c/d", 0o755, 5))

	loaded, err := LoadImage(tr.SaveImage())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != tr.Digest() || recomputeDigest(loaded) != tr.Digest() {
		t.Fatalf("image round trip: %#x / %#x, want %#x", loaded.Digest(), recomputeDigest(loaded), tr.Digest())
	}
	// The loaded tree must carry usable path states, not just the sum.
	if err := loaded.Create("/bb/c/d/g", 1, 0o644, 6, 4); err != nil {
		t.Fatal(err)
	}
	if loaded.Digest() != recomputeDigest(loaded) {
		t.Fatal("create under a loaded directory used a stale path state")
	}

	step("delete file", tr.Delete("/bb/c/f0"))
	step("delete empty dir", tr.Delete("/bb/c/d"))
	step("delete recursive", tr.DeleteRecursive("/bb"))
	if err := tr.Delete("/a/f1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if tr.Digest() != empty {
		t.Fatalf("emptied tree digests %#x, New() digests %#x", tr.Digest(), empty)
	}
}

func TestDigestTellsSwappedFieldsApart(t *testing.T) {
	// perm is the last word a file's term mixes, so an unmixed term is
	// (state ^ perm) * prime. 'h' and 'x' differ in bit 4 only, which keeps
	// the low bits of the two path states equal through every FNV round, and
	// then swapping perms 1 and 2 leaves a plain sum of terms unchanged. The
	// avalanche over each term is what tells the pairs apart.
	a, b := New(), New()
	_ = a.Create("/h", 0, 1, 0, 0)
	_ = a.Create("/x", 0, 2, 0, 0)
	_ = b.Create("/h", 0, 2, 0, 0)
	_ = b.Create("/x", 0, 1, 0, 0)
	if a.Digest() == b.Digest() {
		t.Fatal("two files that swapped perms digest alike")
	}
}

func TestImageRoundTrip(t *testing.T) {
	tr := New()
	_ = tr.MkdirAll("/a/b/c", 0o711, 7)
	_ = tr.Create("/a/b/f", BlockSize+1, 0o640, 8, 21)
	_ = tr.Create("/top", 0, 0o644, 9, 22)
	img := tr.SaveImage()
	got, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tr.Digest() {
		t.Fatal("digest changed across image round trip")
	}
	if got.Files() != tr.Files() || got.Dirs() != tr.Dirs() || got.Blocks() != tr.Blocks() {
		t.Fatalf("counts changed: %d/%d/%d vs %d/%d/%d",
			got.Files(), got.Dirs(), got.Blocks(), tr.Files(), tr.Dirs(), tr.Blocks())
	}
	info, err := got.Stat("/a/b/f")
	if err != nil || info.Size != BlockSize+1 || len(info.Blocks) != 2 {
		t.Fatalf("stat after load: %+v err=%v", info, err)
	}
}

// Files of no, one and three blocks keep their block lists in three shapes
// (none, inside the inode, a list of their own); an image round trip keeps
// each list and the digest, and the loaded tree saves the same image.
func TestImageRoundTripBlockLists(t *testing.T) {
	tr := New()
	sizes := map[string]int64{"/none": 0, "/one": BlockSize, "/three": 2*BlockSize + 1}
	txid := int64(30)
	for p, size := range sizes {
		txid++
		if err := tr.Create(p, size, 0o644, 1, txid); err != nil {
			t.Fatal(err)
		}
	}
	img := tr.SaveImage()
	got, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != tr.Digest() || got.Blocks() != 4 || !bytes.Equal(got.SaveImage(), img) {
		t.Fatalf("digest %#x (want %#x), %d blocks (want 4), image equal %v",
			got.Digest(), tr.Digest(), got.Blocks(), bytes.Equal(got.SaveImage(), img))
	}
	for p := range sizes {
		want, _ := tr.Stat(p)
		info, err := got.Stat(p)
		if err != nil || fmt.Sprint(info.Blocks) != fmt.Sprint(want.Blocks) {
			t.Fatalf("%s after load: blocks %v err %v, want %v", p, info.Blocks, err, want.Blocks)
		}
	}
}

// A size with no block list, negative or over MaxFileSize, is refused by
// both Validate and Create, and leaves the tree as it was.
func TestCreateRejectsOutOfRangeSize(t *testing.T) {
	tr := New()
	for _, size := range []int64{-1, MaxFileSize + 1, math.MaxInt64} {
		rec := journal.Record{Op: journal.OpCreate, Path: "/f", Size: size}
		if err := tr.Validate(rec); err != ErrBadSize {
			t.Fatalf("Validate(size %d) = %v, want ErrBadSize", size, err)
		}
		if err := tr.Create("/f", size, 0o644, 1, 1); err != ErrBadSize {
			t.Fatalf("Create(size %d) = %v, want ErrBadSize", size, err)
		}
	}
	if tr.Files() != 0 || tr.Exists("/f") {
		t.Fatal("a refused create left a file")
	}
	if err := tr.Create("/f", MaxFileSize, 0o644, 1, 1); err != nil || tr.Blocks() != 1<<16 {
		t.Fatalf("Create(MaxFileSize) = %v with %d blocks, want 1<<16", err, tr.Blocks())
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	tr := New()
	_ = tr.Create("/f", 10, 0o644, 1, 1)
	img := tr.SaveImage()
	if _, err := LoadImage(img[:3]); err == nil {
		t.Fatal("truncated image accepted")
	}
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF
	if _, err := LoadImage(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := LoadImage(append(img, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Entry names: the root has none, every other entry is one path
	// segment, and siblings differ.
	two := New()
	_ = two.Create("/qa", 0, 0o644, 1, 1)
	_ = two.Create("/qb", 0, 0o644, 1, 2)
	img = two.SaveImage()
	for _, name := range []string{"qa", "q/", ".."} {
		if _, err := LoadImage(bytes.Replace(img, []byte("qb"), []byte(name), 1)); err == nil {
			t.Fatalf("image with sibling entry %q accepted", name)
		}
	}
	// After the 8-byte header comes the root's name, length 0: call it "r".
	named := append(append(append([]byte(nil), img[:8]...), 1, 'r'), img[9:]...)
	if _, err := LoadImage(named); err == nil {
		t.Fatal("image with a named root accepted")
	}
}

func TestEstimatedImageBytesTracksGrowth(t *testing.T) {
	tr := New()
	base := tr.EstimatedImageBytes()
	for i := 0; i < 100; i++ {
		_ = tr.Create(fmt.Sprintf("/file-%03d", i), 10, 0o644, 1, int64(i+1))
	}
	grown := tr.EstimatedImageBytes()
	if grown <= base {
		t.Fatal("estimate did not grow")
	}
	for i := 0; i < 100; i++ {
		_ = tr.Delete(fmt.Sprintf("/file-%03d", i))
	}
	if tr.EstimatedImageBytes() != base {
		t.Fatalf("estimate did not return to base: %d vs %d", tr.EstimatedImageBytes(), base)
	}
}

func TestPropertyImageRoundTrip(t *testing.T) {
	// Random sequences of valid operations round-trip through images.
	f := func(seed int64, steps uint8) bool {
		tr := New()
		paths := []string{"/"}
		s := seed
		next := func(n int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int((s >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		tx := int64(1)
		for i := 0; i < int(steps); i++ {
			parent := paths[next(len(paths))]
			info, err := tr.Stat(parent)
			if err != nil || !info.Dir {
				continue
			}
			base := parent
			if base == "/" {
				base = ""
			}
			child := fmt.Sprintf("%s/n%d", base, i)
			switch next(8) {
			case 0, 1, 2:
				if tr.Mkdir(child, 0o755, int64(i)) == nil {
					paths = append(paths, child)
				}
			case 3: // move some directory (and its subtree) here; stale paths just miss later
				_ = tr.Rename(paths[next(len(paths))], child)
				paths = append(paths, child)
			case 4:
				_ = tr.DeleteRecursive(paths[next(len(paths))])
			default:
				_ = tr.Create(child, int64(next(3))*BlockSize+int64(next(1000)), 0o644, int64(i), tx)
				tx++
			}
			if recomputeDigest(tr) != tr.Digest() {
				return false
			}
		}
		got, err := LoadImage(tr.SaveImage())
		return err == nil && got.Digest() == tr.Digest() &&
			recomputeDigest(tr) == tr.Digest() && recomputeDigest(got) == got.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
