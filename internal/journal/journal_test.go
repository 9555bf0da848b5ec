package journal

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func rec(op OpKind, path string) Record {
	return Record{Op: op, Path: path, Perm: 0o755, MTime: 12345}
}

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	b := Batch{
		SN: 7, Epoch: 3, FirstTx: 100,
		Records: []Record{
			{TxID: 100, Op: OpCreate, Path: "/a/b", Size: 1 << 30, Perm: 0o644, MTime: -5},
			{TxID: 101, Op: OpRename, Path: "/a/b", Dest: "/c/d", MTime: 9},
			{TxID: 102, Op: OpDelete, Path: "/c/d"},
		},
	}
	got, err := DecodeBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.SN != 7 || got.Epoch != 3 || got.FirstTx != 100 || len(got.Records) != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range b.Records {
		if got.Records[i] != b.Records[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got.Records[i], b.Records[i])
		}
	}
}

// TestEncodedLen: the size Log.Bytes counts is the size Encode produces,
// across every varint width and sign.
func TestEncodedLen(t *testing.T) {
	long := "/" + strings.Repeat("p", 299)
	batches := map[string]Batch{
		"empty":      {},
		"zero ids":   {SN: 0, FirstTx: 0, Records: []Record{{TxID: 0, Op: OpCreate, Path: "/a"}}},
		"one ids":    {SN: 1, Epoch: 1, FirstTx: 1, Records: []Record{{TxID: 1, Op: OpMkdir, Path: "/a"}}},
		"top ids":    {SN: 1 << 63, Epoch: 1 << 63, FirstTx: 1 << 63, Records: []Record{{TxID: 1 << 63, Op: OpCreate, Path: "/a"}}},
		"negative":   {SN: 2, Records: []Record{{TxID: 5, Op: OpCreate, Path: "/a", Size: -1, MTime: -300}}},
		"min int64":  {SN: 2, Records: []Record{{TxID: 5, Op: OpCreate, Path: "/a", Size: math.MinInt64, MTime: math.MinInt64}}},
		"max int64":  {SN: 2, Records: []Record{{TxID: 5, Op: OpCreate, Path: "/a", Size: math.MaxInt64, MTime: math.MaxInt64}}},
		"empty dest": {SN: 3, Records: []Record{{TxID: 6, Op: OpRename, Path: "/a", Dest: ""}}},
		"long path":  {SN: 3, Records: []Record{{TxID: 6, Op: OpRename, Path: long, Dest: long, Perm: 0o777}}},
	}
	for name, b := range batches {
		if got, want := b.EncodedLen(), len(b.Encode()); got != want {
			t.Errorf("%s: EncodedLen %d, Encode %d bytes", name, got, want)
		}
	}
}

// TestLogAppendAllocs: Append counts a batch's bytes without encoding it,
// so the only allocations left are the growth of the batch slice.
func TestLogAppendAllocs(t *testing.T) {
	const n = 1000
	batches := make([]Batch, n)
	for i := range batches {
		batches[i] = Batch{SN: uint64(i + 1), Epoch: 1, FirstTx: uint64(i + 1), Records: []Record{rec(OpCreate, "/d/f")}}
		batches[i].Records[0].TxID = uint64(i + 1)
	}
	var grown []Batch
	growths := 0
	for _, b := range batches {
		before := cap(grown)
		grown = append(grown, b)
		if cap(grown) != before {
			growths++
		}
	}
	got := testing.AllocsPerRun(5, func() {
		l := NewLog()
		for _, b := range batches {
			if err := l.Append(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	// One more for the Log itself.
	if max := float64(growths + 1); got > max {
		t.Errorf("%d appends allocated %.0f times, want at most %.0f (the slice grew %d times)", n, got, max, growths)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := Batch{SN: 1, Epoch: 1, FirstTx: 1, Records: []Record{rec(OpCreate, "/x")}}
	enc := b.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("cut=%d decoded successfully", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := Batch{SN: 1, Epoch: 1, FirstTx: 1}
	enc := append(b.Encode(), 0xFF)
	if _, err := DecodeBatch(enc); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBatchLastTx(t *testing.T) {
	b := Batch{FirstTx: 10, Records: []Record{{TxID: 10}, {TxID: 11}}}
	if b.LastTx() != 11 {
		t.Fatalf("LastTx = %d", b.LastTx())
	}
	empty := Batch{FirstTx: 10}
	if empty.LastTx() != 9 {
		t.Fatalf("empty LastTx = %d", empty.LastTx())
	}
}

func TestLogAppendSequence(t *testing.T) {
	l := NewLog()
	for sn := uint64(1); sn <= 5; sn++ {
		if err := l.Append(Batch{SN: sn, Epoch: 1}); err != nil {
			t.Fatalf("sn %d: %v", sn, err)
		}
	}
	if l.LastSN() != 5 || l.Len() != 5 {
		t.Fatalf("LastSN=%d Len=%d", l.LastSN(), l.Len())
	}
}

func TestLogRejectsDuplicate(t *testing.T) {
	l := NewLog()
	_ = l.Append(Batch{SN: 1, Epoch: 1})
	if err := l.Append(Batch{SN: 1, Epoch: 1}); !errors.Is(err, ErrStale) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestLogRejectsOldEpoch(t *testing.T) {
	l := NewLog()
	_ = l.Append(Batch{SN: 1, Epoch: 5})
	if err := l.Append(Batch{SN: 2, Epoch: 4}); !errors.Is(err, ErrStale) {
		t.Fatalf("old epoch err = %v", err)
	}
	// Same epoch continues fine.
	if err := l.Append(Batch{SN: 2, Epoch: 5}); err != nil {
		t.Fatalf("same epoch: %v", err)
	}
}

func TestLogDetectsGap(t *testing.T) {
	l := NewLog()
	_ = l.Append(Batch{SN: 1, Epoch: 1})
	if err := l.Append(Batch{SN: 3, Epoch: 1}); !errors.Is(err, ErrGap) {
		t.Fatalf("gap err = %v", err)
	}
	// The gap must not corrupt state.
	if l.LastSN() != 1 {
		t.Fatalf("LastSN after gap = %d", l.LastSN())
	}
}

func TestLogSince(t *testing.T) {
	l := NewLog()
	for sn := uint64(1); sn <= 10; sn++ {
		_ = l.Append(Batch{SN: sn, Epoch: 1})
	}
	out := l.Since(7)
	if len(out) != 3 || out[0].SN != 8 || out[2].SN != 10 {
		t.Fatalf("Since(7) = %+v", out)
	}
	if got := l.Since(10); got != nil {
		t.Fatalf("Since(10) = %+v", got)
	}
}

func TestLogGet(t *testing.T) {
	l := NewLog()
	for sn := uint64(1); sn <= 5; sn++ {
		_ = l.Append(Batch{SN: sn, Epoch: 1})
	}
	b, ok := l.Get(3)
	if !ok || b.SN != 3 {
		t.Fatalf("Get(3) = %+v %v", b, ok)
	}
	if _, ok := l.Get(9); ok {
		t.Fatal("Get(9) should miss")
	}
	if _, ok := l.Get(0); ok {
		t.Fatal("Get(0) should miss")
	}
}

func TestLogTruncateThrough(t *testing.T) {
	l := NewLog()
	for sn := uint64(1); sn <= 10; sn++ {
		_ = l.Append(Batch{SN: sn, Epoch: 1, Records: []Record{rec(OpCreate, "/f")}})
	}
	before := l.Bytes()
	l.TruncateThrough(6)
	if l.Len() != 4 {
		t.Fatalf("Len after truncate = %d", l.Len())
	}
	if l.Bytes() >= before {
		t.Fatalf("Bytes did not shrink: %d -> %d", before, l.Bytes())
	}
	if _, ok := l.Get(6); ok {
		t.Fatal("truncated batch still retrievable")
	}
	if b, ok := l.Get(7); !ok || b.SN != 7 {
		t.Fatal("retained batch lost after truncate")
	}
	// Appends continue at the old sequence.
	if err := l.Append(Batch{SN: 11, Epoch: 1}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}

func TestLogTruncateAllThenAppend(t *testing.T) {
	l := NewLog()
	for sn := uint64(1); sn <= 3; sn++ {
		_ = l.Append(Batch{SN: sn, Epoch: 1})
	}
	l.TruncateThrough(3)
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Append(Batch{SN: 4, Epoch: 1}); err != nil {
		t.Fatalf("append after full truncate: %v", err)
	}
	if b, ok := l.Get(4); !ok || b.SN != 4 {
		t.Fatal("Get(4) after full truncate failed")
	}
}

func TestLogResetTo(t *testing.T) {
	l := NewLog()
	_ = l.Append(Batch{SN: 1, Epoch: 1})
	l.ResetTo(41, 7)
	if l.LastSN() != 41 || l.Epoch() != 7 || l.Len() != 0 {
		t.Fatalf("state after ResetTo: sn=%d epoch=%d len=%d", l.LastSN(), l.Epoch(), l.Len())
	}
	if err := l.Append(Batch{SN: 42, Epoch: 7}); err != nil {
		t.Fatalf("append after ResetTo: %v", err)
	}
}

func TestLogReset(t *testing.T) {
	l := NewLog()
	_ = l.Append(Batch{SN: 1, Epoch: 3})
	l.Reset()
	if l.LastSN() != 0 || l.Epoch() != 0 || l.Bytes() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestBuilderAssignsContiguousTxAndSN(t *testing.T) {
	bd := NewBuilder(2, 10, 100)
	if tx := bd.Add(rec(OpCreate, "/a")); tx != 101 {
		t.Fatalf("first tx = %d", tx)
	}
	if tx := bd.Add(rec(OpMkdir, "/d")); tx != 102 {
		t.Fatalf("second tx = %d", tx)
	}
	b := bd.Seal()
	if b.SN != 11 || b.Epoch != 2 || b.FirstTx != 101 || b.LastTx() != 102 {
		t.Fatalf("sealed batch = %+v", b)
	}
	bd.Add(rec(OpDelete, "/a"))
	b2 := bd.Seal()
	if b2.SN != 12 || b2.FirstTx != 103 {
		t.Fatalf("second batch = %+v", b2)
	}
}

func TestBuilderPendingCount(t *testing.T) {
	bd := NewBuilder(1, 0, 0)
	if bd.Pending() != 0 {
		t.Fatal("fresh builder has pending records")
	}
	bd.Add(rec(OpCreate, "/x"))
	if bd.Pending() != 1 {
		t.Fatalf("Pending = %d", bd.Pending())
	}
	bd.Seal()
	if bd.Pending() != 0 {
		t.Fatal("Seal did not clear pending")
	}
}

func TestBuilderFeedsLogCleanly(t *testing.T) {
	bd := NewBuilder(1, 0, 0)
	l := NewLog()
	for i := 0; i < 20; i++ {
		bd.Add(rec(OpCreate, "/f"))
		if i%3 == 0 {
			if err := l.Append(bd.Seal()); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}
	if l.LastSN() == 0 {
		t.Fatal("no batches committed")
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpNoop: "noop", OpCreate: "create", OpMkdir: "mkdir",
		OpDelete: "delete", OpRename: "rename", OpKind(99): "op(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(sn, epoch, tx uint64, path, dest string, size int64, perm uint16) bool {
		b := Batch{SN: sn, Epoch: epoch, FirstTx: tx,
			Records: []Record{{TxID: tx, Op: OpRename, Path: path, Dest: dest, Size: size, Perm: perm}}}
		got, err := DecodeBatch(b.Encode())
		if err != nil {
			return false
		}
		return got.SN == sn && got.Epoch == epoch && got.Records[0].Path == path &&
			got.Records[0].Dest == dest && got.Records[0].Size == size && got.Records[0].Perm == perm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLogMonotone(t *testing.T) {
	// Whatever mix of valid/stale/gapped appends arrive, LastSN never
	// decreases and accepted batches are exactly the contiguous prefix.
	f := func(sns []uint64) bool {
		l := NewLog()
		var accepted uint64
		for _, raw := range sns {
			sn := raw%8 + 1 // small range to provoke collisions
			err := l.Append(Batch{SN: sn, Epoch: 1})
			if err == nil {
				if sn != accepted+1 {
					return false
				}
				accepted = sn
			}
			if l.LastSN() != accepted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
