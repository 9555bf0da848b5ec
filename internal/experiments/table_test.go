package experiments

import (
	"strings"
	"testing"

	"mams/internal/sim"
	"mams/internal/trace"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "Test",
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col-a", "b"},
	}
	tbl.AddRow("1", "22222")
	tbl.AddRow("longer-cell", "3")
	out := tbl.String()
	for _, want := range []string{"== Test: demo ==", "a note", "col-a", "longer-cell", "22222"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in\n%s", want, out)
		}
	}
	// Aligned: the header separator row exists.
	if !strings.Contains(out, "-----") {
		t.Fatal("no separator row")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.Defaults()
	if o.Seed == 0 || o.Ops == 0 || o.Trials == 0 || o.Clients == 0 || o.DataServers == 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	full := Full()
	if full.Ops != 1000000 || full.Trials != 10 {
		t.Fatalf("full = %+v", full)
	}
	// Explicit values survive.
	o2 := Options{Seed: 9, Ops: 42, Trials: 2, Clients: 7, DataServers: 3}
	o2.Defaults()
	if o2.Seed != 9 || o2.Ops != 42 || o2.Trials != 2 || o2.Clients != 7 || o2.DataServers != 3 {
		t.Fatalf("defaults clobbered explicit values: %+v", o2)
	}
}

func TestCDFRow(t *testing.T) {
	if got := cdfRow([]float64{0, 12.4, 100}); got != "0 12 100" {
		t.Fatalf("cdfRow = %q", got)
	}
	if cdfRow(nil) != "" {
		t.Fatal("empty cdf should render empty")
	}
}

func TestStagesFromTrace(t *testing.T) {
	w := sim.NewWorld()
	tr := trace.New(w.Now)
	w.At(sim.Second, "noise", func() { tr.Emit(trace.KindElection, "n", "election-start") })
	w.At(10*sim.Second, "e1", func() { tr.Emit(trace.KindElection, "n", "election-start") })
	w.At(10*sim.Second+50*sim.Millisecond, "e2", func() { tr.Emit(trace.KindElection, "n", "election-won") })
	w.At(10*sim.Second+350*sim.Millisecond, "e3", func() { tr.Emit(trace.KindFailover, "n", "switch-done") })
	w.Run()
	st := stagesFromTrace(tr, 5*sim.Second) // fault at 5s: the 1s event is excluded
	if st.electionStart != 10*sim.Second {
		t.Fatalf("electionStart = %v", st.electionStart)
	}
	if st.electionWon-st.electionStart != 50*sim.Millisecond {
		t.Fatalf("election = %v", st.electionWon-st.electionStart)
	}
	if st.switchDone-st.electionWon != 300*sim.Millisecond {
		t.Fatalf("switch = %v", st.switchDone-st.electionWon)
	}
}

func TestPaperTableIComplete(t *testing.T) {
	// The reference data used by Table I covers every size and system.
	systems := []string{"MAMS-1A3S", "BackupNode", "Hadoop Avatar", "Hadoop HA"}
	for _, size := range tableISizes {
		row, ok := PaperTableI[size]
		if !ok {
			t.Fatalf("paper data missing size %d", size)
		}
		for _, sys := range systems {
			if row[sys] <= 0 {
				t.Fatalf("paper data missing %s at %dMB", sys, size)
			}
		}
	}
	// BackupNode grows monotonically in the published data too.
	prev := 0.0
	for _, size := range tableISizes {
		v := PaperTableI[size]["BackupNode"]
		if v <= prev {
			t.Fatalf("paper BackupNode not monotone at %dMB", size)
		}
		prev = v
	}
}
