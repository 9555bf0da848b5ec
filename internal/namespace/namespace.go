// Package namespace implements the in-memory file-system namespace managed
// by a metadata server: an inode tree supporting the five operations the
// paper evaluates (create, mkdir, delete, rename, getfileinfo), journal
// replay, and checkpoint images.
//
// Replay is deterministic: applying the same journal to two trees yields
// byte-identical images, which is the foundation of the MAMS hot-standby
// guarantee ("standby nodes keep the same states with the active").
package namespace

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mams/internal/journal"
	"mams/internal/wire"
)

// Namespace errors, mirroring POSIX-ish failure modes.
var (
	ErrNotFound = errors.New("namespace: no such file or directory")
	ErrExists   = errors.New("namespace: file exists")
	ErrNotDir   = errors.New("namespace: not a directory")
	ErrIsDir    = errors.New("namespace: is a directory")
	ErrNotEmpty = errors.New("namespace: directory not empty")
	ErrBadPath  = errors.New("namespace: invalid path")
	ErrSubtree  = errors.New("namespace: cannot move a directory into itself")
	ErrBadSize  = errors.New("namespace: file size out of range")
)

// BlockSize is the fixed block size used to derive a file's block list from
// its length (64 MB, the HDFS default of the paper's era).
const BlockSize = 64 << 20

// MaxFileSize is the largest file size a create accepts: 2^16 blocks, as
// many as a transaction's block ids (txid<<16 | i) can number.
const MaxFileSize = BlockSize << 16

// Info describes one file or directory.
type Info struct {
	Path   string
	Name   string
	Dir    bool
	Size   int64
	Perm   uint16
	MTime  int64
	Blocks []uint64
}

type inode struct {
	name     string
	dir      bool
	perm     uint16
	mtime    int64
	size     int64
	blocks   []uint64
	children map[string]*inode

	// pathState (directories only) is the FNV-1a state after hashing this
	// directory's canonical path plus a trailing "/". A child's digest term
	// continues from it over the child's name, so no path string is built.
	pathState uint64

	// block holds the block list of a file of one block, so that only a
	// longer list is allocated on its own.
	block [1]uint64
}

// Tree is a mutable namespace. The zero value is not usable; call New.
type Tree struct {
	root      *inode
	files     int
	dirs      int // excluding root
	nameBytes int64
	blocks    int64

	// digest is the wrapping sum of every entry's digest term (see Digest),
	// kept current by the mutators.
	digest uint64

	// Last-resolved-parent cache: metadata workloads overwhelmingly create
	// many entries in one directory, so the previous op's parent usually
	// resolves the next op too. lastParentKey is the path prefix up to and
	// including the final separator ("/a/b/" for "/a/b/c"); any operation
	// that detaches inodes invalidates the cache.
	lastParentKey string
	lastParent    *inode
}

// New returns a tree containing only the root directory.
func New() *Tree {
	return &Tree{root: &inode{name: "", dir: true, children: map[string]*inode{}, pathState: rootPathState}}
}

// Files returns the number of regular files.
func (t *Tree) Files() int { return t.files }

// Dirs returns the number of directories, excluding the root.
func (t *Tree) Dirs() int { return t.dirs }

// Blocks returns the total number of file blocks in the namespace.
func (t *Tree) Blocks() int64 { return t.blocks }

// splitPath normalizes and splits an absolute path. "/" yields nil. The hot
// paths use the allocation-free cursor walkers below; splitPath remains for
// Rename's component-wise subtree checks.
func splitPath(p string) ([]string, error) {
	if p == "" || p[0] != '/' {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, p)
	}
	raw := strings.Split(p, "/")
	parts := raw[:0]
	for _, c := range raw {
		switch c {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("%w: %q", ErrBadPath, p)
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// nextSeg finds the bounds of the next path segment of p at or after byte i,
// skipping separators. lo < 0 means no segments remain. Segments are
// returned as (lo, hi) index pairs so callers slice p without allocating.
func nextSeg(p string, i int) (lo, hi int) {
	for i < len(p) && p[i] == '/' {
		i++
	}
	if i >= len(p) {
		return -1, -1
	}
	j := i
	for j < len(p) && p[j] != '/' {
		j++
	}
	return i, j
}

// Base returns the name of the entry that path p resolves to, the Name its
// Info carries: the last segment other than ".", or "" for the root. It
// slices p and allocates nothing.
func Base(p string) string {
	name := ""
	for i := 0; ; {
		lo, hi := nextSeg(p, i)
		if lo < 0 {
			return name
		}
		i = hi
		if seg := p[lo:hi]; seg != "." {
			name = seg
		}
	}
}

// isRoot reports whether a syntactically valid path normalizes to "/".
func isRoot(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	for i := 1; ; {
		lo, hi := nextSeg(p, i)
		if lo < 0 {
			return true
		}
		if p[lo:hi] != "." {
			return false
		}
		i = hi
	}
}

// walkPath resolves path to an inode without allocating. ok=false means the
// path is malformed (relative, empty, or containing ".."); a nil inode with
// ok=true means a well-formed path that does not resolve.
func (t *Tree) walkPath(p string) (n *inode, ok bool) {
	if p == "" || p[0] != '/' {
		return nil, false
	}
	cur := t.root
	for i := 1; ; {
		lo, hi := nextSeg(p, i)
		if lo < 0 {
			return cur, true
		}
		i = hi
		seg := p[lo:hi]
		if seg == "." {
			continue
		}
		if seg == ".." {
			return nil, false
		}
		if !cur.dir {
			return nil, true
		}
		next, found := cur.children[seg]
		if !found {
			return nil, true
		}
		cur = next
	}
}

// walkParent resolves the parent directory of p and the leaf name,
// allocation-free on the hit path. Error semantics mirror the classic
// splitPath+parentOf pipeline: ErrBadPath for malformed paths and the root,
// ErrNotFound when a prefix component is missing or a file blocks descent,
// ErrNotDir when the direct parent is a file. Consecutive operations against
// one directory hit the last-parent cache and skip the descent entirely.
func (t *Tree) walkParent(p string) (*inode, string, error) {
	if p == "" || p[0] != '/' {
		return nil, "", fmt.Errorf("%w: %q", ErrBadPath, p)
	}
	// First pass: validate every segment and locate the last real one.
	lastLo, lastHi := -1, -1
	for i := 1; ; {
		lo, hi := nextSeg(p, i)
		if lo < 0 {
			break
		}
		i = hi
		seg := p[lo:hi]
		if seg == "." {
			continue
		}
		if seg == ".." {
			return nil, "", fmt.Errorf("%w: %q", ErrBadPath, p)
		}
		lastLo, lastHi = lo, hi
	}
	if lastLo < 0 {
		return nil, "", ErrBadPath // p is the root
	}
	name := p[lastLo:lastHi]
	prefix := p[:lastLo]
	if t.lastParent != nil && prefix == t.lastParentKey {
		return t.lastParent, name, nil
	}
	cur := t.root
	for i := 1; i < lastLo; {
		lo, hi := nextSeg(p, i)
		if lo < 0 || lo >= lastLo {
			break
		}
		i = hi
		seg := p[lo:hi]
		if seg == "." {
			continue
		}
		if !cur.dir {
			return nil, "", ErrNotFound
		}
		next, found := cur.children[seg]
		if !found {
			return nil, "", ErrNotFound
		}
		cur = next
	}
	if !cur.dir {
		return nil, "", ErrNotDir
	}
	t.lastParentKey = prefix
	t.lastParent = cur
	return cur, name, nil
}

// invalidateParentCache drops the last-parent cache; required whenever an
// inode is detached from the tree (the cached pointer could otherwise
// resurrect it).
func (t *Tree) invalidateParentCache() {
	t.lastParent = nil
	t.lastParentKey = ""
}

// allocBlocks gives file n a block list of nb entries: none, the inode's
// own one-entry array, or a list of its own.
func (n *inode) allocBlocks(nb int) {
	switch {
	case nb == 1:
		n.blocks = n.block[:]
	case nb > 1:
		n.blocks = make([]uint64, nb)
	}
}

// checkSize rejects a file size that is negative or over MaxFileSize: the
// block ids of a larger file would run into the next transaction's.
func checkSize(size int64) error {
	if size < 0 || size > MaxFileSize {
		return ErrBadSize
	}
	return nil
}

// Create adds a regular file. The txid feeds deterministic block-id
// assignment (use 0 for ad-hoc trees in tests): replaying the same journal
// on any replica must yield identical block ids.
func (t *Tree) Create(path string, size int64, perm uint16, mtime, txid int64) error {
	if err := checkSize(size); err != nil {
		return err
	}
	dir, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	if _, exists := dir.children[name]; exists {
		return ErrExists
	}
	node := &inode{name: name, perm: perm, mtime: mtime, size: size}
	node.allocBlocks(int((size + BlockSize - 1) / BlockSize))
	for i := range node.blocks {
		node.blocks[i] = uint64(txid)<<16 | uint64(i)
	}
	dir.children[name] = node
	t.digest += subtreeSum(dir.pathState, node)
	dir.mtime = mtime
	t.files++
	t.nameBytes += int64(len(name))
	t.blocks += int64(len(node.blocks))
	return nil
}

// Mkdir adds a directory. The parent must already exist.
func (t *Tree) Mkdir(path string, perm uint16, mtime int64) error {
	dir, name, err := t.walkParent(path)
	if err != nil {
		if err == ErrBadPath && isRoot(path) {
			return ErrExists // "/"
		}
		return err
	}
	if _, exists := dir.children[name]; exists {
		return ErrExists
	}
	node := &inode{name: name, dir: true, perm: perm, mtime: mtime, children: map[string]*inode{}}
	dir.children[name] = node
	t.digest += subtreeSum(dir.pathState, node)
	dir.mtime = mtime
	t.dirs++
	t.nameBytes += int64(len(name))
	return nil
}

// MkdirAll creates path and any missing ancestors.
func (t *Tree) MkdirAll(path string, perm uint16, mtime int64) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := "/"
	for _, c := range parts {
		if cur == "/" {
			cur = "/" + c
		} else {
			cur = cur + "/" + c
		}
		if err := t.Mkdir(cur, perm, mtime); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

// Delete removes a file or an empty directory.
func (t *Tree) Delete(path string) error {
	dir, name, err := t.walkParent(path)
	if err != nil {
		return err // ErrBadPath covers both malformed paths and the root
	}
	node, ok := dir.children[name]
	if !ok {
		return ErrNotFound
	}
	if node.dir && len(node.children) > 0 {
		return ErrNotEmpty
	}
	delete(dir.children, name)
	t.digest -= subtreeSum(dir.pathState, node)
	t.uncount(node)
	t.invalidateParentCache()
	return nil
}

// DeleteRecursive removes a file or a directory subtree.
func (t *Tree) DeleteRecursive(path string) error {
	dir, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	node, ok := dir.children[name]
	if !ok {
		return ErrNotFound
	}
	delete(dir.children, name)
	t.digest -= subtreeSum(dir.pathState, node)
	t.invalidateParentCache()
	var drop func(n *inode)
	drop = func(n *inode) {
		for _, c := range n.children {
			drop(c)
		}
		t.uncount(n)
	}
	drop(node)
	return nil
}

func (t *Tree) uncount(n *inode) {
	t.nameBytes -= int64(len(n.name))
	if n.dir {
		t.dirs--
	} else {
		t.files--
		t.blocks -= int64(len(n.blocks))
	}
}

// Rename moves src to dst. dst must not exist; a directory cannot move into
// its own subtree.
func (t *Tree) Rename(src, dst string) error {
	sp, err := splitPath(src)
	if err != nil {
		return err
	}
	dp, err := splitPath(dst)
	if err != nil {
		return err
	}
	if len(sp) == 0 {
		return ErrBadPath
	}
	if len(dp) >= len(sp) {
		same := true
		for i := range sp {
			if dp[i] != sp[i] {
				same = false
				break
			}
		}
		if same {
			return ErrSubtree
		}
	}
	sdir, sname, err := t.walkParent(src)
	if err != nil {
		return err
	}
	node, ok := sdir.children[sname]
	if !ok {
		return ErrNotFound
	}
	ddir, dname, err := t.walkParent(dst)
	if err != nil {
		return err
	}
	if _, exists := ddir.children[dname]; exists {
		return ErrExists
	}
	delete(sdir.children, sname)
	t.digest -= subtreeSum(sdir.pathState, node)
	t.invalidateParentCache()
	t.nameBytes += int64(len(dname) - len(sname))
	node.name = dname
	ddir.children[dname] = node
	t.digest += subtreeSum(ddir.pathState, node) // re-derives path states below
	return nil
}

// Stat returns metadata for path. Info.Blocks is the inode's own block
// list, clipped to its length, not a copy; for a file of one block it
// points into the inode itself. It is read-only. Block lists are written
// once, when a file is created or loaded, so the slice stays valid, and an
// append to it copies.
func (t *Tree) Stat(path string) (Info, error) {
	node, ok := t.walkPath(path)
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if node == nil {
		return Info{}, ErrNotFound
	}
	return Info{
		Path: path, Name: node.name, Dir: node.dir, Size: node.size,
		Perm: node.perm, MTime: node.mtime, Blocks: node.blocks[:len(node.blocks):len(node.blocks)],
	}, nil
}

// Exists reports whether path resolves.
func (t *Tree) Exists(path string) bool {
	node, ok := t.walkPath(path)
	return ok && node != nil
}

// List returns the sorted children of a directory.
func (t *Tree) List(path string) ([]Info, error) {
	node, ok := t.walkPath(path)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	if node == nil {
		return nil, ErrNotFound
	}
	if !node.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(node.children))
	for n := range node.children {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Info, 0, len(names))
	base := path
	if base == "/" {
		base = ""
	}
	for _, n := range names {
		c := node.children[n]
		out = append(out, Info{
			Path: base + "/" + n, Name: n, Dir: c.dir, Size: c.size,
			Perm: c.perm, MTime: c.mtime,
		})
	}
	return out, nil
}

// WalkFiles visits every regular file in deterministic (sorted-children,
// depth-first) order and stops early when fn returns false. Live migration
// uses it to enumerate a shard slot's file entries for copy and purge; the
// deterministic order is what keeps migrations byte-identical across
// simulation runs.
func (t *Tree) WalkFiles(fn func(info Info) bool) {
	t.walkFilesAt("", t.root, fn)
}

func (t *Tree) walkFilesAt(prefix string, dir *inode, fn func(info Info) bool) bool {
	names := make([]string, 0, len(dir.children))
	for n := range dir.children {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := dir.children[n]
		p := prefix + "/" + n
		if c.dir {
			if !t.walkFilesAt(p, c, fn) {
				return false
			}
			continue
		}
		if !fn(Info{Path: p, Name: n, Dir: false, Size: c.size, Perm: c.perm, MTime: c.mtime}) {
			return false
		}
	}
	return true
}

// Inverse returns the record that undoes rec, read from the tree just before
// rec is applied. A mkdir or create is undone by a delete, a rename by the
// reverse rename, and a delete by recreating what it removes: a directory
// with its own Perm and MTime, a file with its Size and Perm and the
// delete's MTime. Anything else (including a delete of a missing path,
// which will not validate) inverts to OpNoop.
func (t *Tree) Inverse(rec journal.Record) journal.Record {
	switch rec.Op {
	case journal.OpMkdir, journal.OpCreate:
		return journal.Record{Op: journal.OpDelete, Path: rec.Path, MTime: rec.MTime}
	case journal.OpRename:
		return journal.Record{Op: journal.OpRename, Path: rec.Dest, Dest: rec.Path, MTime: rec.MTime}
	case journal.OpDelete:
		if node, _ := t.walkPath(rec.Path); node != nil {
			if node.dir {
				return journal.Record{Op: journal.OpMkdir, Path: rec.Path, Perm: node.perm, MTime: node.mtime}
			}
			return journal.Record{Op: journal.OpCreate, Path: rec.Path, Size: node.size, Perm: node.perm, MTime: rec.MTime}
		}
	}
	return journal.Record{Op: journal.OpNoop, Path: rec.Path}
}

// Validate checks whether rec would apply cleanly to the tree, without
// mutating it. Metadata servers validate before journaling so that only
// records guaranteed to replay ever reach replicas.
func (t *Tree) Validate(rec journal.Record) error {
	switch rec.Op {
	case journal.OpNoop:
		return nil
	case journal.OpCreate, journal.OpMkdir:
		if rec.Op == journal.OpCreate {
			if err := checkSize(rec.Size); err != nil {
				return err
			}
		}
		dir, name, err := t.walkParent(rec.Path)
		if err != nil {
			if err == ErrBadPath && isRoot(rec.Path) {
				return ErrExists
			}
			return err
		}
		if _, exists := dir.children[name]; exists {
			return ErrExists
		}
		return nil
	case journal.OpDelete:
		dir, name, err := t.walkParent(rec.Path)
		if err != nil {
			return err
		}
		node, ok := dir.children[name]
		if !ok {
			return ErrNotFound
		}
		if node.dir && len(node.children) > 0 {
			return ErrNotEmpty
		}
		return nil
	case journal.OpRename:
		if !t.Exists(rec.Path) {
			return ErrNotFound
		}
		if t.Exists(rec.Dest) {
			return ErrExists
		}
		if _, _, err := t.walkParent(rec.Dest); err != nil {
			if err == ErrBadPath && isRoot(rec.Dest) {
				return ErrExists
			}
			return err
		}
		dp, err := splitPath(rec.Dest)
		if err != nil {
			return err
		}
		sp, _ := splitPath(rec.Path)
		if len(dp) >= len(sp) {
			same := true
			for i := range sp {
				if dp[i] != sp[i] {
					same = false
					break
				}
			}
			if same {
				return ErrSubtree
			}
		}
		return nil
	default:
		return fmt.Errorf("namespace: unknown op %v", rec.Op)
	}
}

// Apply executes one journal record against the tree. Records constructed
// by a correct active always apply cleanly; an error indicates replica
// divergence.
func (t *Tree) Apply(rec journal.Record) error {
	switch rec.Op {
	case journal.OpNoop:
		return nil
	case journal.OpCreate:
		return t.Create(rec.Path, rec.Size, rec.Perm, rec.MTime, int64(rec.TxID))
	case journal.OpMkdir:
		return t.Mkdir(rec.Path, rec.Perm, rec.MTime)
	case journal.OpDelete:
		return t.Delete(rec.Path)
	case journal.OpRename:
		return t.Rename(rec.Path, rec.Dest)
	default:
		return fmt.Errorf("namespace: unknown op %v", rec.Op)
	}
}

// ApplyBatch replays every record in the batch, stopping at the first error.
func (t *Tree) ApplyBatch(b journal.Batch) error {
	for _, rec := range b.Records {
		if err := t.Apply(rec); err != nil {
			return fmt.Errorf("sn %d tx %d %v %q: %w", b.SN, rec.TxID, rec.Op, rec.Path, err)
		}
	}
	return nil
}

// EstimatedImageBytes cheaply approximates the checkpoint image size without
// serializing — used by size-dependent recovery cost models on hot paths.
func (t *Tree) EstimatedImageBytes() int64 {
	inodes := int64(t.files + t.dirs + 1)
	return 16 + inodes*12 + t.nameBytes + t.blocks*9
}

// SaveImage serializes the whole tree into a checkpoint image.
func (t *Tree) SaveImage() []byte {
	w := wire.NewWriter(int(t.EstimatedImageBytes()))
	w.U32(0x4D414D53) // "MAMS" magic
	w.U32(1)          // version
	var enc func(n *inode)
	enc = func(n *inode) {
		w.String(n.name)
		w.Bool(n.dir)
		w.U16(n.perm)
		w.Varint(n.mtime)
		if n.dir {
			names := make([]string, 0, len(n.children))
			for c := range n.children {
				names = append(names, c)
			}
			sort.Strings(names)
			w.Uvarint(uint64(len(names)))
			for _, c := range names {
				enc(n.children[c])
			}
		} else {
			w.Varint(n.size)
			w.Uvarint(uint64(len(n.blocks)))
			for _, b := range n.blocks {
				w.Uvarint(b)
			}
		}
	}
	enc(t.root)
	return w.Bytes()
}

// LoadImage reconstructs a tree from a checkpoint image.
func LoadImage(buf []byte) (*Tree, error) {
	r := wire.NewReader(buf)
	if magic := r.U32(); magic != 0x4D414D53 {
		return nil, fmt.Errorf("namespace: bad image magic %#x", magic)
	}
	if v := r.U32(); v != 1 {
		return nil, fmt.Errorf("namespace: unsupported image version %d", v)
	}
	t := &Tree{}
	// parent is the enclosing directory's pathState: digest terms are added
	// as entries attach, so loading needs no second walk.
	var dec func(depth int, parent uint64) (*inode, error)
	dec = func(depth int, parent uint64) (*inode, error) {
		if depth > 4096 {
			return nil, errors.New("namespace: image nesting too deep")
		}
		n := &inode{}
		n.name = r.String()
		n.dir = r.Bool()
		n.perm = r.U16()
		n.mtime = r.Varint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// The root is nameless and every other entry is one path segment;
		// anything else would hash (Digest) and resolve unlike the tree
		// that was saved.
		if (depth == 0) != (n.name == "") || n.name == "." || n.name == ".." || strings.IndexByte(n.name, '/') >= 0 {
			return nil, fmt.Errorf("namespace: bad image entry name %q at depth %d", n.name, depth)
		}
		h := fnvString(parent, n.name)
		if n.dir {
			n.children = map[string]*inode{}
			n.pathState = fnvMix(h, '/')
			if depth > 0 {
				t.digest += dirTerm(h)
			}
			cnt := r.Uvarint()
			if cnt > uint64(len(buf)) {
				return nil, fmt.Errorf("namespace: implausible child count %d", cnt)
			}
			for i := uint64(0); i < cnt; i++ {
				c, err := dec(depth+1, n.pathState)
				if err != nil {
					return nil, err
				}
				if _, dup := n.children[c.name]; dup {
					return nil, fmt.Errorf("namespace: image entry %q appears twice", c.name)
				}
				n.children[c.name] = c
				t.nameBytes += int64(len(c.name))
				if c.dir {
					t.dirs++
				} else {
					t.files++
					t.blocks += int64(len(c.blocks))
				}
			}
		} else {
			n.size = r.Varint()
			nb := r.Uvarint()
			if nb > uint64(len(buf)) {
				return nil, fmt.Errorf("namespace: implausible block count %d", nb)
			}
			n.allocBlocks(int(nb))
			for i := range n.blocks {
				n.blocks[i] = r.Uvarint()
			}
			t.digest += fileTerm(h, n)
		}
		return n, r.Err()
	}
	root, err := dec(0, fnvOffset)
	if err != nil {
		return nil, err
	}
	if !root.dir {
		return nil, errors.New("namespace: image root is not a directory")
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Digest returns an order-independent structural hash of the namespace in
// O(1): the wrapping sum, kept by the mutators, of one term per entry. A
// directory's term hashes its canonical path; a file's also hashes size,
// mtime, perm and blocks. Two replicas with equal digests hold identical
// metadata; the value is only meaningful compared against another tree's.
func (t *Tree) Digest() uint64 { return t.digest }

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rootPathState is the root's pathState: its canonical path is "".
var rootPathState = fnvMix(fnvOffset, '/')

// fnvMix is one FNV-1a round. Path bytes go in one per round; a file's
// numeric fields go in a whole word per round, because the terms are
// avalanched before they are summed and byte-wise rounds would buy nothing.
func fnvMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvMix(h, uint64(s[i]))
	}
	return h
}

// avalanche (the splitmix64 finalizer) spreads every input bit over the
// term. A raw FNV state is nearly linear in its last input, and a plain sum
// of them can miss two files that swapped a field (see the digest tests).
func avalanche(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// dirTerm and fileTerm are an entry's digest term given h, the FNV state
// of its canonical path.
func dirTerm(h uint64) uint64 { return avalanche(fnvMix(fnvMix(h, 0xFF), 1)) }

func fileTerm(h uint64, n *inode) uint64 {
	h = fnvMix(fnvMix(h, 0xFF), 2)
	h = fnvMix(h, uint64(n.size))
	h = fnvMix(h, uint64(n.mtime))
	h = fnvMix(h, uint64(n.perm))
	for _, b := range n.blocks {
		h = fnvMix(h, b)
	}
	return avalanche(h)
}

// subtreeSum returns the digest terms of n and everything below it, for n
// attached under a directory whose pathState is parent. It (re)derives the
// pathState of every directory it visits, which is what moves a renamed
// subtree to its new path.
func subtreeSum(parent uint64, n *inode) uint64 {
	h := fnvString(parent, n.name)
	if !n.dir {
		return fileTerm(h, n)
	}
	n.pathState = fnvMix(h, '/')
	sum := dirTerm(h)
	for _, c := range n.children {
		sum += subtreeSum(n.pathState, c)
	}
	return sum
}
