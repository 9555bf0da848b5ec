package main

import (
	"math"
	"sort"
	"time"

	"mams/internal/metrics"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is not modified; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spreadPct is the distance between the extremes as a percentage of the
// median — the slice-to-slice steadiness figure.
func spreadPct(xs []float64) float64 {
	st := metrics.Summarize(xs)
	return 100 * (st.Max - st.Min) / median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sleepUntil blocks the calling goroutine until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
