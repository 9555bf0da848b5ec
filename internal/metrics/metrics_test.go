package metrics

import (
	"errors"
	"testing"
	"testing/quick"

	"mams/internal/fsclient"
	"mams/internal/sim"
)

func ok(end sim.Time) fsclient.Result {
	return fsclient.Result{Start: end - sim.Millisecond, End: end}
}

func bad(end sim.Time) fsclient.Result {
	return fsclient.Result{Start: end - sim.Millisecond, End: end, Err: errors.New("x")}
}

func TestCollectorCounts(t *testing.T) {
	c := &Collector{}
	c.Observe(ok(1 * sim.Second))
	c.Observe(ok(2 * sim.Second))
	c.Observe(bad(3 * sim.Second))
	if len(c.Results) != 3 {
		t.Fatalf("len = %d", len(c.Results))
	}
	if c.Successes(0, 10*sim.Second) != 2 {
		t.Fatal("success counting broken")
	}
	// Window bounds are [from, to).
	if c.Successes(2*sim.Second, 3*sim.Second) != 1 {
		t.Fatal("window not half-open")
	}
}

func TestThroughput(t *testing.T) {
	c := &Collector{}
	for i := 1; i <= 100; i++ {
		c.Observe(ok(sim.Time(i) * 100 * sim.Millisecond))
	}
	tput := c.Throughput(0, 10*sim.Second)
	if tput < 9.9 || tput > 10.1 {
		t.Fatalf("throughput = %v", tput)
	}
	if c.Throughput(5*sim.Second, 5*sim.Second) != 0 {
		t.Fatal("empty window should be 0")
	}
}

func TestMeanLatency(t *testing.T) {
	c := &Collector{}
	c.Observe(fsclient.Result{Start: 0, End: 2 * sim.Millisecond})
	c.Observe(fsclient.Result{Start: 0, End: 4 * sim.Millisecond})
	if got := c.MeanLatency(0, sim.Second); got != 3*sim.Millisecond {
		t.Fatalf("mean latency = %v", got)
	}
	if c.MeanLatency(10*sim.Second, 20*sim.Second) != 0 {
		t.Fatal("empty window latency should be 0")
	}
}

func TestMTTRFindsGapSpanningFault(t *testing.T) {
	c := &Collector{}
	// Steady successes, outage between 10s and 16.5s.
	for i := 1; i <= 10; i++ {
		c.Observe(ok(sim.Time(i) * sim.Second))
	}
	c.Observe(ok(16500 * sim.Millisecond))
	c.Observe(ok(17 * sim.Second))
	mttr, found := c.MTTR(10500 * sim.Millisecond) // fault inside the gap
	if !found {
		t.Fatal("MTTR not found")
	}
	if mttr != 6500*sim.Millisecond {
		t.Fatalf("MTTR = %v", mttr)
	}
}

func TestMTTRNoRecovery(t *testing.T) {
	c := &Collector{}
	c.Observe(ok(1 * sim.Second))
	if _, found := c.MTTR(2 * sim.Second); found {
		t.Fatal("MTTR without recovery should not be found")
	}
}

func TestMTTRNoPreFaultSuccess(t *testing.T) {
	c := &Collector{}
	c.Observe(ok(10 * sim.Second))
	if _, found := c.MTTR(2 * sim.Second); found {
		t.Fatal("MTTR without pre-fault success should not be found")
	}
}

func TestMTTRNoOutage(t *testing.T) {
	c := &Collector{}
	for i := 1; i <= 20; i++ {
		c.Observe(ok(sim.Time(i) * 100 * sim.Millisecond))
	}
	mttr, found := c.MTTR(1050 * sim.Millisecond)
	if !found || mttr > 200*sim.Millisecond {
		t.Fatalf("healthy stream MTTR = %v found=%v", mttr, found)
	}
}

func TestMTTRBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		ends    []sim.Time // success completion times
		fails   []sim.Time // failed-op completion times (must be ignored)
		faultAt sim.Time
		want    sim.Time
		found   bool
	}{
		{
			// A success landing exactly at faultAt is the pre-fault endpoint,
			// not the recovery; it must not produce a zero-width gap.
			name:    "success exactly at fault instant",
			ends:    []sim.Time{5 * sim.Second, 10 * sim.Second, 16 * sim.Second},
			faultAt: 10 * sim.Second,
			want:    6 * sim.Second,
			found:   true,
		},
		{
			name:    "only success is at fault instant",
			ends:    []sim.Time{10 * sim.Second},
			faultAt: 10 * sim.Second,
			found:   false,
		},
		{
			// A success at time 0 is a legitimate pre-fault observation; the
			// old -1 sentinel encoding must not swallow it.
			name:    "time-zero completion counts as pre-fault",
			ends:    []sim.Time{0, 7 * sim.Second},
			faultAt: 2 * sim.Second,
			want:    7 * sim.Second,
			found:   true,
		},
		{
			name:    "failures never bracket the gap",
			ends:    []sim.Time{1 * sim.Second, 9 * sim.Second},
			fails:   []sim.Time{2 * sim.Second, 3 * sim.Second},
			faultAt: 2500 * sim.Millisecond,
			want:    8 * sim.Second,
			found:   true,
		},
		{
			name:    "unsorted observation order",
			ends:    []sim.Time{9 * sim.Second, 1 * sim.Second, 6 * sim.Second, 2 * sim.Second},
			faultAt: 3 * sim.Second,
			want:    4 * sim.Second,
			found:   true,
		},
		{
			name:    "empty collector",
			faultAt: sim.Second,
			found:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Collector{}
			for _, e := range tc.ends {
				c.Observe(fsclient.Result{Start: e, End: e})
			}
			for _, e := range tc.fails {
				c.Observe(bad(e))
			}
			mttr, found := c.MTTR(tc.faultAt)
			if found != tc.found {
				t.Fatalf("found = %v, want %v", found, tc.found)
			}
			if found && mttr != tc.want {
				t.Fatalf("MTTR = %v, want %v", mttr, tc.want)
			}
		})
	}
}

func TestSeriesBinning(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.Add(100 * sim.Millisecond)
	s.Add(900 * sim.Millisecond)
	s.Add(1100 * sim.Millisecond)
	if s.Rate(0) != 2 || s.Rate(1) != 1 || s.Rate(2) != 0 {
		t.Fatalf("counts = %v", s.Counts)
	}
	s.Add(-sim.Second) // before start: ignored
	if s.Rate(0) != 2 {
		t.Fatal("pre-start sample counted")
	}
	if s.Rate(-1) != 0 {
		t.Fatal("negative index should be 0")
	}
}

func TestSeriesCapsGrowth(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.MaxBuckets = 8
	s.Add(3 * sim.Second)
	s.Add(7 * sim.Second) // last in-range bucket
	s.Add(8 * sim.Second) // first past the cap
	s.Add(1 << 60)        // absurdly far future: must not allocate
	if len(s.Counts) > 8 {
		t.Fatalf("series grew to %d buckets past cap 8", len(s.Counts))
	}
	if s.Overflow != 2 {
		t.Fatalf("Overflow = %d, want 2", s.Overflow)
	}
	if s.Rate(3) != 1 || s.Rate(7) != 1 {
		t.Fatalf("in-range counts lost: %v", s.Counts)
	}
}

func TestSeriesDefaultCap(t *testing.T) {
	s := NewSeries(0, sim.Second)
	// One completion 2^30 seconds out would previously allocate a slice of
	// that length (8 GiB of buckets); now it must land in Overflow.
	s.Add(sim.Time(1<<30) * sim.Second)
	if len(s.Counts) != 0 || s.Overflow != 1 {
		t.Fatalf("far-future add: len=%d overflow=%d", len(s.Counts), s.Overflow)
	}
	// Overflow in sim.Time space before int conversion: a timestamp large
	// enough to wrap int must still be rejected, not wrapped negative.
	s.Add(sim.Time(1<<62) + 1)
	if s.Overflow != 2 {
		t.Fatalf("huge add not counted as overflow: %d", s.Overflow)
	}
}

func TestSeriesRateEmptyBuckets(t *testing.T) {
	s := NewSeries(0, sim.Second)
	if s.Rate(0) != 0 || s.Rate(5) != 0 || s.Rate(-1) != 0 {
		t.Fatal("empty series should report 0 for every bucket")
	}
	s.Add(2500 * sim.Millisecond)
	// Buckets 0 and 1 exist (allocated up to index 2) but hold no samples.
	if s.Rate(0) != 0 || s.Rate(1) != 0 {
		t.Fatalf("empty allocated buckets nonzero: %v", s.Counts)
	}
	if s.Rate(2) != 1 {
		t.Fatalf("Rate(2) = %v", s.Rate(2))
	}
	if s.Rate(3) != 0 {
		t.Fatal("past-end bucket should be 0")
	}
	// Zero bucket width must not divide by zero or bin at all.
	z := NewSeries(0, 0)
	z.Add(sim.Second)
	if len(z.Counts) != 0 {
		t.Fatal("zero-width series accepted a sample")
	}
}

func TestSeriesMinRateIn(t *testing.T) {
	s := NewSeries(0, sim.Second)
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ {
			s.Add(sim.Time(i)*sim.Second + sim.Time(j)*10*sim.Millisecond)
		}
	}
	// Carve an outage at bucket 5 by making a fresh series.
	s2 := NewSeries(0, sim.Second)
	for i := 0; i < 10; i++ {
		if i == 5 {
			continue
		}
		s2.Add(sim.Time(i)*sim.Second + sim.Millisecond)
	}
	if s2.MinRateIn(3*sim.Second, 8*sim.Second) != 0 {
		t.Fatal("outage bucket not detected")
	}
	if s.MinRateIn(0, 10*sim.Second) != 5 {
		t.Fatalf("min rate = %v", s.MinRateIn(0, 10*sim.Second))
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{1, 2, 3, 4})
	if st.N != 4 || st.Mean != 2.5 || st.Min != 1 || st.Max != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StdDev < 1.29 || st.StdDev > 1.30 {
		t.Fatalf("stddev = %v", st.StdDev)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize broken")
	}
	if st.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPropertySeriesTotalMatchesAdds(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewSeries(0, sim.Second)
		for _, o := range offsets {
			s.Add(sim.Time(o) * sim.Millisecond)
		}
		total := 0
		for i := range s.Counts {
			total += s.Counts[i]
		}
		return total == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorRetainedStaysDefault(t *testing.T) {
	c := &Collector{}
	c.Observe(ok(1 * sim.Second))
	c.Observe(bad(2 * sim.Second))
	if len(c.Results) != 2 {
		t.Fatalf("collector retained %d of 2 results", len(c.Results))
	}
}
