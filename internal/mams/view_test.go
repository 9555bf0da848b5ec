package mams

import (
	"testing"
	"testing/quick"
)

func TestViewEncodeDecodeRoundTrip(t *testing.T) {
	v := NewView()
	v.Epoch = 7
	v.Active = "mds0"
	v.States["mds0"] = RoleActive
	v.States["mds1"] = RoleStandby
	v.States["mds2"] = RoleJunior
	v.States["mds3"] = RoleDown

	got, err := DecodeView(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.Active != "mds0" || len(got.States) != 4 {
		t.Fatalf("got %+v", got)
	}
	for id, r := range v.States {
		if got.States[id] != r {
			t.Fatalf("state %s = %v", id, got.States[id])
		}
	}
}

func TestDecodeViewEmptyAndInvalid(t *testing.T) {
	v, err := DecodeView(nil)
	if err != nil || v.States == nil {
		t.Fatalf("empty decode: %+v %v", v, err)
	}
	if _, err := DecodeView([]byte("{garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestViewCloneIsDeep(t *testing.T) {
	v := NewView()
	v.States["a"] = RoleActive
	c := v.Clone()
	c.States["a"] = RoleJunior
	c.States["b"] = RoleStandby
	if v.States["a"] != RoleActive || len(v.States) != 1 {
		t.Fatal("clone aliases the original")
	}
}

func TestViewMemberQueries(t *testing.T) {
	v := NewView()
	v.States["c"] = RoleStandby
	v.States["a"] = RoleJunior
	v.States["b"] = RoleStandby
	v.States["d"] = RoleActive

	if got := v.Standbys(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("standbys = %v", got)
	}
	if got := v.Juniors(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("juniors = %v", got)
	}
	if got := v.Members(); len(got) != 4 || got[0] != "a" || got[3] != "d" {
		t.Fatalf("members = %v", got)
	}
	if v.RoleOf("d") != RoleActive || v.RoleOf("ghost") != RoleDown {
		t.Fatal("RoleOf broken")
	}
}

func TestRoleStrings(t *testing.T) {
	cases := map[Role][2]string{
		RoleActive:  {"active", "A"},
		RoleStandby: {"standby", "S"},
		RoleJunior:  {"junior", "J"},
		RoleDown:    {"down", "-"},
	}
	for r, want := range cases {
		if r.String() != want[0] || r.Short() != want[1] {
			t.Fatalf("%v: %q %q", r, r.String(), r.Short())
		}
	}
	if Role(99).Short() != "-" {
		t.Fatal("unknown role Short")
	}
}

func TestPropertyViewRoundTrip(t *testing.T) {
	f := func(epoch uint64, active string, members []string) bool {
		v := NewView()
		v.Epoch = epoch
		v.Active = active
		for i, m := range members {
			v.States[m] = Role(i % 4)
		}
		got, err := DecodeView(v.Encode())
		if err != nil {
			return false
		}
		if got.Epoch != epoch || got.Active != active || len(got.States) != len(v.States) {
			return false
		}
		for id, r := range v.States {
			if got.States[id] != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindProperties(t *testing.T) {
	muts := map[OpKind]bool{
		OpCreate: true, OpMkdir: true, OpDelete: true, OpRename: true,
		OpStat: false, OpList: false,
	}
	for k, want := range muts {
		if k.Mutating() != want {
			t.Fatalf("%v.Mutating() = %v", k, k.Mutating())
		}
		if k.String() == "" || k.String() == "op?" {
			t.Fatalf("%v has no name", k)
		}
	}
	if OpKind(99).String() != "op?" {
		t.Fatal("unknown op string")
	}
}

func TestParamsSvcForCoversEveryKind(t *testing.T) {
	p := DefaultParams()
	for _, k := range []OpKind{OpCreate, OpMkdir, OpDelete, OpRename, OpStat, OpList} {
		if p.SvcFor(k) <= 0 {
			t.Fatalf("SvcFor(%v) = %v", k, p.SvcFor(k))
		}
	}
	if p.SvcFor(OpStat) != p.ReadSvc || p.SvcFor(OpRename) != p.RenameSvc {
		t.Fatal("SvcFor mapping broken")
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.BatchEvery <= 0 || ackTimeout <= p.BatchEvery {
		t.Fatal("batching/ack timing inverted")
	}
	if electionJitterMax <= electionJitterMin {
		t.Fatal("election jitter window empty")
	}
	if sspReplicas < 1 || renewJournalChunk < 1 {
		t.Fatal("replication/renew params out of range")
	}
}
