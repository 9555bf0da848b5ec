// Package metrics turns raw client operation records into the quantities
// the paper reports: throughput (ops/s), time series of requests per
// second (Fig. 8), and mean time to recovery (Table I).
package metrics

import (
	"fmt"
	"math"

	"mams/internal/fsclient"
	"mams/internal/sim"
)

// Collector accumulates operation results from any number of clients. It
// retains every result: MTTR and the windowed queries need the raw records.
type Collector struct {
	Results []fsclient.Result
}

// Observe is the fsclient.Config.OnResult hook.
func (c *Collector) Observe(r fsclient.Result) {
	c.Results = append(c.Results, r)
}

// Successes counts successful operations in [from, to).
func (c *Collector) Successes(from, to sim.Time) int {
	n := 0
	for _, r := range c.Results {
		if r.Err == nil && r.End >= from && r.End < to {
			n++
		}
	}
	return n
}

// Throughput returns successful ops per second over [from, to).
func (c *Collector) Throughput(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return float64(c.Successes(from, to)) / (to - from).Seconds()
}

// MeanLatency returns the mean latency of successes in [from, to).
func (c *Collector) MeanLatency(from, to sim.Time) sim.Time {
	var sum sim.Time
	n := 0
	for _, r := range c.Results {
		if r.Err == nil && r.End >= from && r.End < to {
			sum += r.End - r.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// MTTR computes the paper's recovery metric for a fault injected at
// faultAt: the gap between the last acknowledged operation at or before
// the outage and the first acknowledged operation strictly after it — the
// success gap that spans the fault instant.
//
// Boundary semantics: a success completing exactly at faultAt proves the
// service was alive at the fault instant, so it counts as the pre-fault
// endpoint; recovery requires a success strictly after faultAt (otherwise
// that one operation would satisfy both sides and report a zero-width
// recovery). Pre-fault presence is tracked with an explicit flag rather
// than a -1 time sentinel, so a legitimate success completing at time 0
// counts as a pre-fault observation.
func (c *Collector) MTTR(faultAt sim.Time) (sim.Time, bool) {
	var pre, post sim.Time
	havePre, havePost := false, false
	for _, r := range c.Results {
		if r.Err != nil {
			continue
		}
		switch e := r.End; {
		case e <= faultAt:
			if !havePre || e > pre {
				pre, havePre = e, true
			}
		default:
			if !havePost || e < post {
				post, havePost = e, true
			}
		}
	}
	if !havePre || !havePost {
		// No pre-fault success observed, or the service never recovered
		// within the observation window.
		return 0, false
	}
	return post - pre, true
}

// DefaultMaxBuckets bounds Series growth when no explicit cap is set: one
// completion with a far-future timestamp must not allocate gigabuckets.
// 2^21 one-second buckets cover ~24 simulated days — far beyond any run.
const DefaultMaxBuckets = 1 << 21

// Series bins successful completions into fixed windows — the requests/sec
// curves of Figure 8.
type Series struct {
	Bucket sim.Time
	Start  sim.Time
	Counts []int
	// MaxBuckets caps the series length (0 = DefaultMaxBuckets).
	// Completions past the cap are counted in Overflow instead of grown
	// into place.
	MaxBuckets int
	// Overflow counts completions rejected by the cap.
	Overflow int
}

// NewSeries creates a series with the given bucket width.
func NewSeries(start, bucket sim.Time) *Series {
	return &Series{Bucket: bucket, Start: start}
}

// Add records one completion at time t. Completions before the series start
// are ignored; completions beyond the bucket cap are tallied in Overflow
// rather than allocating an arbitrarily long slice.
func (s *Series) Add(t sim.Time) {
	if t < s.Start || s.Bucket <= 0 {
		return
	}
	max := s.MaxBuckets
	if max <= 0 {
		max = DefaultMaxBuckets
	}
	// Compare in sim.Time space before converting: a far-future t could
	// overflow int on conversion.
	q := (t - s.Start) / s.Bucket
	if q >= sim.Time(max) {
		s.Overflow++
		return
	}
	idx := int(q)
	for len(s.Counts) <= idx {
		s.Counts = append(s.Counts, 0)
	}
	s.Counts[idx]++
}

// Rate returns bucket i's throughput in ops/s.
func (s *Series) Rate(i int) float64 {
	if i < 0 || i >= len(s.Counts) {
		return 0
	}
	return float64(s.Counts[i]) / s.Bucket.Seconds()
}

// MinRateIn returns the lowest bucket rate in [from, to) relative to the
// series start.
func (s *Series) MinRateIn(from, to sim.Time) float64 {
	lo := int(from / s.Bucket)
	hi := int(to / s.Bucket)
	min := math.Inf(1)
	for i := lo; i < hi && i < len(s.Counts); i++ {
		if r := s.Rate(i); r < min {
			min = r
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Stats summarizes a sample.
type Stats struct {
	N              int
	Mean, Min, Max float64
	StdDev         float64
}

// Summarize computes basic statistics.
func Summarize(samples []float64) Stats {
	st := Stats{N: len(samples)}
	if st.N == 0 {
		return st
	}
	st.Min, st.Max = samples[0], samples[0]
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(st.N)
	varsum := 0.0
	for _, v := range samples {
		d := v - st.Mean
		varsum += d * d
	}
	if st.N > 1 {
		st.StdDev = math.Sqrt(varsum / float64(st.N-1))
	}
	return st
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f", s.N, s.Mean, s.Min, s.Max, s.StdDev)
}
