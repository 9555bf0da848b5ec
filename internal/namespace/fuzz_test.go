package namespace

import "testing"

// FuzzLoadImage feeds LoadImage arbitrary bytes: checkpoint images reach a
// junior from the pool, so the loader faces whatever was stored. The
// checked-in corpus (testdata/fuzz/FuzzLoadImage) holds saved images of a
// few trees plus truncated and garbage variants. An input must not panic,
// and an accepted one must be a consistent tree: its digest matches a
// recomputation, and its own saved image loads back with the same digest
// and counts.
func FuzzLoadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := LoadImage(data)
		if err != nil {
			return
		}
		if got := recomputeDigest(tr); got != tr.Digest() {
			t.Fatalf("loaded digest %#x, recomputed %#x", tr.Digest(), got)
		}
		again, err := LoadImage(tr.SaveImage())
		if err != nil {
			t.Fatalf("saved image of an accepted one does not load: %v", err)
		}
		if again.Digest() != tr.Digest() || again.Files() != tr.Files() ||
			again.Dirs() != tr.Dirs() || again.Blocks() != tr.Blocks() {
			t.Fatalf("reload changed the tree: digest %#x → %#x, files/dirs/blocks %d/%d/%d → %d/%d/%d",
				tr.Digest(), again.Digest(), tr.Files(), tr.Dirs(), tr.Blocks(),
				again.Files(), again.Dirs(), again.Blocks())
		}
	})
}
