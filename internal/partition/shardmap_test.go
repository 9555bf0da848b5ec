package partition

import (
	"fmt"
	"testing"
)

// The uniform map must route identically to the pre-shard static
// hash(path)%n partitioner at every group count: slot count is a multiple
// of the group count, so (h % slots) % groups == h % groups.
func TestUniformMapMatchesStaticHashing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 64, 256, 512} {
		p := New(n)
		for i := 0; i < 500; i++ {
			path := fmt.Sprintf("/bench/d%d/f%06d", i%7, i)
			want := int(hashStr(path) % uint64(n))
			if got := p.HomeGroup(path); got != want {
				t.Fatalf("n=%d path=%s: HomeGroup=%d want static %d", n, path, got, want)
			}
		}
	}
}

func TestMoveBumpsEpochAndReroutes(t *testing.T) {
	p := New(4)
	path := "/bench/victim"
	slot := p.HomeSlot(path)
	from := p.HomeGroup(path)
	to := (from + 1) % 4

	m2, err := p.Map().Move(slot, to)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() != p.Epoch()+1 {
		t.Fatalf("epoch %d, want %d", m2.Epoch(), p.Epoch()+1)
	}
	if p.HomeGroup(path) != from {
		t.Fatal("Move mutated the original map")
	}
	if !p.Install(m2) {
		t.Fatal("Install rejected a newer map")
	}
	if p.HomeGroup(path) != to {
		t.Fatalf("after move, HomeGroup=%d want %d", p.HomeGroup(path), to)
	}
	// Only the moved slot changed.
	base := NewMap(4, DefaultSlotsPerGroup)
	for s := 0; s < m2.Slots(); s++ {
		if changed := m2.Group(s) != base.Group(s); changed != (s == slot) {
			t.Fatalf("slot %d changed=%v after moving slot %d", s, changed, slot)
		}
	}
}

func TestInstallRejectsStaleAndMismatched(t *testing.T) {
	p := New(4)
	m2, _ := p.Map().Move(0, 1)
	if !p.Install(m2) {
		t.Fatal("newer map rejected")
	}
	if p.Install(NewMap(4, DefaultSlotsPerGroup)) {
		t.Fatal("epoch-0 map accepted over epoch-1")
	}
	if p.Install(m2) {
		t.Fatal("same-epoch map accepted")
	}
	other, _ := NewMap(8, DefaultSlotsPerGroup).Move(0, 1)
	if p.Install(other) {
		t.Fatal("map with different shape accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMap(8, 8)
	m, _ = m.Move(3, 5)
	m, _ = m.Move(17, 0)
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != m.Epoch() || got.Groups() != m.Groups() || got.Slots() != m.Slots() {
		t.Fatalf("round trip changed shape: %+v vs %+v", got, m)
	}
	for s := 0; s < m.Slots(); s++ {
		if got.Group(s) != m.Group(s) {
			t.Fatalf("slot %d: %d != %d", s, got.Group(s), m.Group(s))
		}
	}
	if _, err := DecodeMap([]byte(`{"epoch":1,"groups":2,"assign":[0,7]}`)); err == nil {
		t.Fatal("out-of-range assignment must fail decode")
	}
	if _, err := DecodeMap([]byte(`not json`)); err == nil {
		t.Fatal("garbage must fail decode")
	}
}

func TestCloneIsolatesInstalls(t *testing.T) {
	p := New(4)
	q := p.Clone()
	m2, _ := p.Map().Move(0, 1)
	p.Install(m2)
	if q.Epoch() != 0 {
		t.Fatal("install on p leaked into clone q")
	}
	if p.Epoch() != 1 {
		t.Fatal("install lost")
	}
}

// hashStr must stay allocation-free: it runs on every routing decision on
// both the client and the server hot path.
func TestHashStrAllocFree(t *testing.T) {
	paths := []string{"/bench/d000/f000123", "/a", "/deeply/nested/path/with/many/components/file.dat"}
	avg := testing.AllocsPerRun(1000, func() {
		for _, s := range paths {
			if hashStr(s) == 0 {
				t.Fail()
			}
		}
	})
	if avg != 0 {
		t.Fatalf("hashStr allocates %.1f allocs/op, want 0", avg)
	}
}

// Routing as a whole (slot lookup + plan-free HomeGroup) must also be
// allocation-free.
func TestHomeGroupAllocFree(t *testing.T) {
	p := New(64)
	avg := testing.AllocsPerRun(1000, func() {
		p.HomeGroup("/bench/d000/f000123")
		p.DirMasterGroup("/bench/d000/f000123")
	})
	if avg != 0 {
		t.Fatalf("HomeGroup allocates %.1f allocs/op, want 0", avg)
	}
}

var sinkU64 uint64
var sinkInt int

func BenchmarkHashStr(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkU64 = hashStr("/bench/d000/f000123")
	}
}

func BenchmarkHomeGroup(b *testing.B) {
	p := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = p.HomeGroup("/bench/d000/f000123")
	}
}
