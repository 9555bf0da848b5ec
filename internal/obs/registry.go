// Package obs is the system-side observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) cheap enough for the
// single-threaded simulation hot path, the causal protocol span that
// trace.Log folds its span edges into, and exporters for the two formats the
// tooling world
// already speaks — Prometheus text exposition and Chrome trace-event JSON
// (loadable in Perfetto).
//
// The instruments are plain ints behind nil-safe methods: a component built
// without a registry holds nil instrument pointers and every Inc/Set/Observe
// is a no-op, so instrumentation sites never branch on "is observability
// on". The simulation is single-threaded per World, so there are no locks;
// a Registry must not be shared across Worlds (each cluster.Env owns one).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// NamePattern is the required shape of every metric family name. The
// registry enforces it at registration time so a typo'd or off-convention
// name fails the first run (and the lint test in this package) instead of
// silently shipping.
var NamePattern = regexp.MustCompile(`^mams_[a-z0-9_]+$`)

// kind discriminates metric families.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count.
type Counter struct {
	v float64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (negative deltas are ignored: counters only go up). Nil-safe.
func (c *Counter) Add(n float64) {
	if c != nil && n > 0 {
		c.v += n
	}
}

// Value returns the current count. Nil-safe (zero).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v   float64
	max float64
}

// Set installs the current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the current value. Nil-safe.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.Set(g.v + d)
	}
}

// Value returns the current value. Nil-safe (zero).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark since creation. Nil-safe (zero).
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram counts observations into fixed buckets (cumulative on export,
// plain per-bucket internally). Buckets are upper bounds in ascending
// order; observations above the last bound land in the implicit +Inf
// bucket.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the bucket upper bounds (shared; do not modify).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket (non-cumulative) counts; the last entry is
// the implicit +Inf bucket. Shared; do not modify. Nil-safe.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Quantile estimates the q-quantile (0 < q <= 1) of everything observed so
// far, interpolating linearly inside the winning bucket. Observations in
// the +Inf bucket clamp to the last finite bound. Returns false when the
// histogram is empty (or nil).
func (h *Histogram) Quantile(q float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	return BucketQuantile(h.bounds, h.counts, q)
}

// BucketQuantile estimates the q-quantile of a fixed-bucket distribution:
// bounds are ascending upper bounds, counts has len(bounds)+1 entries with
// the overflow (+Inf) bucket last. It interpolates linearly inside the
// winning bucket (the first bucket's lower edge is 0, matching latency and
// size metrics), and clamps +Inf-bucket hits to the last finite bound. The
// same estimator serves whole-run histograms and windowed deltas — the
// sampler's windowed quantiles are BucketQuantile over a ring-buffer delta.
func BucketQuantile(bounds []float64, counts []uint64, q float64) (float64, bool) {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) != len(bounds)+1 {
		return 0, false
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: no upper edge to interpolate toward.
			return bounds[len(bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		// Position of the target rank inside this bucket, in (0, 1].
		into := float64(rank-(cum-c)) / float64(c)
		return lo + (hi-lo)*into, true
	}
	return bounds[len(bounds)-1], true
}

// ExpBuckets builds n bounds growing geometrically from start by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// child is one labeled instrument inside a family.
type child struct {
	labels []string // alternating key/value, as registered
	key    string   // canonical sorted form, for dedup and export order
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all children sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histograms only
	byKey  map[string]*child
	order  []*child // registration order; export sorts by key
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are nil-safe and return nil instruments on a nil
// registry, so wiring observability is optional everywhere.
type Registry struct {
	byName map[string]*family
	names  []string // registration order

	// childLimit bounds labeled children per family (0 = unbounded). See
	// SetChildLimit.
	childLimit int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OverflowLabelValue marks the aggregate child that absorbs registrations
// past the per-family child limit.
const OverflowLabelValue = "_overflow"

// overflowLabels is the label set of the aggregate child.
var overflowLabels = []string{"agg", OverflowLabelValue}

// overflowKey is its canonical key.
var overflowKey = labelKey(overflowLabels)

// SetChildLimit bounds the number of labeled children per metric family.
// Once a family holds n children, further distinct label sets collapse into
// a single aggregate child labeled agg="_overflow", so Prometheus
// exposition stays O(families) instead of O(nodes) or O(links) at
// many-group scale (512 groups × members × per-link families would
// otherwise dominate both memory and scrape size). Counters and histograms
// aggregate exactly (sums of sums); gauges collapse to the last writer with
// a max watermark, which is the useful semantic for depth/backlog gauges.
//
// The limit applies to children created after the call; instruments already
// handed out keep their identity. Zero disables the limit. Nil-safe.
func (r *Registry) SetChildLimit(n int) {
	if r != nil {
		r.childLimit = n
	}
}

// labelKey canonicalizes alternating key/value pairs ("a=1|b=2", sorted by
// key) for identity and export ordering.
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	return b.String()
}

// lookup finds or creates the family and child for (name, labels).
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []string) *child {
	if !NamePattern.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", name, NamePattern))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label pairs %v", name, labels))
	}
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, bounds: bounds, byKey: map[string]*child{}}
		r.byName[name] = f
		r.names = append(r.names, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, f.kind))
	}
	key := labelKey(labels)
	ch := f.byKey[key]
	if ch == nil && r.childLimit > 0 && key != overflowKey {
		// The aggregate child never consumes a regular slot: a family tops
		// out at childLimit regular children plus the overflow child,
		// regardless of whether the overflow child arrived via local
		// collapse or via Merge from a registry that had already
		// aggregated (counting it against the limit would silently shrink
		// the budget to childLimit-1 after such a merge).
		limit := r.childLimit
		if f.byKey[overflowKey] != nil {
			limit++
		}
		if len(f.order) >= limit {
			// Family is at its cardinality bound: collapse this label set
			// into the aggregate overflow child (created on first
			// overflow).
			key = overflowKey
			labels = overflowLabels
			ch = f.byKey[key]
		}
	}
	if ch == nil {
		ch = &child{labels: append([]string(nil), labels...), key: key}
		switch k {
		case kindCounter:
			ch.c = &Counter{}
		case kindGauge:
			ch.g = &Gauge{}
		case kindHistogram:
			ch.h = &Histogram{bounds: append([]float64(nil), f.bounds...),
				counts: make([]uint64, len(f.bounds)+1)}
		}
		f.byKey[key] = ch
		f.order = append(f.order, ch)
	}
	return ch
}

// Counter returns the counter for (name, labels), creating it on first use.
// labels are alternating key/value strings. Nil-safe (returns nil).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels). Nil-safe (returns nil).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram returns the histogram for (name, labels) with the family's
// bucket bounds (the first registration wins). Nil-safe (returns nil).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// Merge folds other into r: counters and histograms sum; gauges keep the
// larger current value (and high-water mark), which is the useful semantic
// for depth/backlog gauges merged across trials. Families and children
// missing from r are created. Histogram merges require identical bounds.
func (r *Registry) Merge(other *Registry) error {
	if r == nil || other == nil {
		return nil
	}
	for _, name := range other.names {
		of := other.byName[name]
		for _, oc := range of.order {
			ch := r.lookup(of.name, of.help, of.kind, of.bounds, oc.labels)
			switch of.kind {
			case kindCounter:
				ch.c.v += oc.c.v
			case kindGauge:
				if oc.g.v > ch.g.v {
					ch.g.v = oc.g.v
				}
				if oc.g.max > ch.g.max {
					ch.g.max = oc.g.max
				}
			case kindHistogram:
				if len(ch.h.bounds) != len(oc.h.bounds) {
					return fmt.Errorf("obs: merge %q: bucket count %d != %d",
						name, len(ch.h.bounds), len(oc.h.bounds))
				}
				for i, b := range ch.h.bounds {
					if b != oc.h.bounds[i] {
						return fmt.Errorf("obs: merge %q: bucket bound %v != %v",
							name, b, oc.h.bounds[i])
					}
				}
				for i := range ch.h.counts {
					ch.h.counts[i] += oc.h.counts[i]
				}
				ch.h.sum += oc.h.sum
				ch.h.n += oc.h.n
			}
		}
	}
	return nil
}

// Names returns the registered family names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}
