package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a fixed registry exercising every instrument kind,
// label sets, escaping, and float formatting.
func goldenRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("mams_journal_batches_sealed_total", "Journal batches sealed by an active.", "node", "mds-g0-0").Add(42)
	r.Counter("mams_journal_batches_sealed_total", "Journal batches sealed by an active.", "node", "mds-g0-1").Add(7)
	r.Counter("mams_net_messages_sent_total", "Messages sent per link.", "src", "a", "dst", "b").Add(1234)
	g := r.Gauge("mams_failover_buffered_requests", "Client ops buffered during upgrade.", "node", "mds-g0-1")
	g.Set(9)
	g.Set(3)
	h := r.Histogram("mams_ssp_store_seconds", "SSP store latency.", []float64{0.001, 0.01, 0.1, 1}, "node", "mds-g0-0")
	for _, v := range []float64{0.0005, 0.004, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	r.Gauge("mams_quote_check", `value with "quotes" and \slash`, "k", `v"q\u`).Set(1.5)
	return r
}

// goldenSpans builds a fixed span tree through trace.Log: failover root,
// election + stage children, one open span that must be skipped by the
// exporter.
func goldenSpans() []obs.Span {
	w := sim.NewWorld()
	tr := trace.New(w.Now)
	run := func(d sim.Time) { w.After(d, "t", func() {}); w.Run() }

	run(5 * sim.Second)
	root := tr.Begin("failover", "mds-g0-1", 0, "epoch", "2")
	el := tr.Begin("election", "mds-g0-1", root, "role", "standby")
	run(42 * sim.Millisecond)
	tr.End(el, "outcome", "won")
	st := tr.Begin("stage-commit-cached", "mds-g0-1", root)
	run(90 * sim.Millisecond)
	tr.End(st, "sn", "17")
	run(200 * sim.Millisecond)
	tr.End(root, "outcome", "switch-done")
	tr.Begin("renew", "mds-g0-2", 0) // left open: exporter must skip it
	return tr.Spans()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -run Golden -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Structural sanity independent of the golden bytes.
	for _, want := range []string{
		"# TYPE mams_journal_batches_sealed_total counter",
		"# TYPE mams_ssp_store_seconds histogram",
		`mams_ssp_store_seconds_bucket{node="mds-g0-0",le="+Inf"} 5`,
		"mams_ssp_store_seconds_count{node=\"mds-g0-0\"} 5",
		`mams_net_messages_sent_total{dst="b",src="a"} 1234`,
		// Every exposition self-describes its producer.
		`mams_build_info{version="` + obs.Version + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

func TestGoldenChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	// The output must be valid JSON with the expected envelope.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	complete, open := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["name"] == "renew" {
				open++
			}
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3 (root + election + stage, no open renew)", complete)
	}
	if open != 0 {
		t.Fatalf("open span leaked into the export")
	}
	checkGolden(t, "spans.json.golden", buf.Bytes())
}

// The optional exposition timestamp column: every sample line of a
// timestamped dump carries the same explicit millisecond stamp.
func TestPrometheusExplicitTimestamps(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePrometheusAt(&buf, goldenRegistry(), 1500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1500") {
			t.Fatalf("sample line missing timestamp column: %q", line)
		}
	}
}

// goldenSampler drives a fixed workload through a started sampler on a
// seeded world: three scrapes at 500 ms cadence with the counter advancing
// between them.
func goldenSampler() *obs.Sampler {
	w := sim.NewWorld()
	r := obs.NewRegistry()
	c := r.Counter("mams_ops_done_total", "ops", "node", "a")
	g := r.Gauge("mams_depth", "depth", "node", "a")
	h := r.Histogram("mams_op_seconds", "op latency", []float64{0.001, 0.01, 0.1}, "node", "a")
	s := obs.NewSampler(w, r, obs.SamplerConfig{Every: 500 * sim.Millisecond, Capacity: 8})
	s.Start()
	for i := 1; i <= 3; i++ {
		i := i
		w.At(sim.Time(i)*400*sim.Millisecond, "load", func() {
			c.Add(float64(10 * i))
			g.Set(float64(i))
			h.Observe(0.005 * float64(i))
		})
	}
	w.RunFor(1600 * sim.Millisecond)
	return s
}

func TestGoldenPrometheusSeries(t *testing.T) {
	s := goldenSampler()
	var buf bytes.Buffer
	if err := obs.WritePrometheusSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mams_ops_done_total counter",
		// One line per scrape, each with its timestamp.
		`mams_ops_done_total{node="a"} 10 500`,
		`mams_ops_done_total{node="a"} 30 1000`,
		`mams_ops_done_total{node="a"} 60 1500`,
		`mams_op_seconds_bucket{node="a",le="0.01"} 1 500`,
		// Scrape self-metrics are series too (values trail by one scrape).
		"# TYPE mams_scrapes_total counter",
		"mams_scrapes_total 2 1500",
		"# TYPE mams_scrape_series gauge",
		`mams_build_info{version="` + obs.Version + `"} 1 500`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	checkGolden(t, "series.prom.golden", buf.Bytes())
}

func TestChromeTraceWithMetricsCounters(t *testing.T) {
	s := goldenSampler()
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceWithMetrics(&buf, goldenSpans(), s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	counters, spans := 0, 0
	sawRate, sawP99 := false, false
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "C":
			counters++
			name := ev["name"].(string)
			args := ev["args"].(map[string]any)
			v, isNum := args["value"].(float64)
			if !isNum {
				t.Fatalf("counter event %q has non-numeric value", name)
			}
			// Counter series plot rates: 10 -> 30 over the 500ms between
			// the first two scrapes -> 40/s.
			if name == `mams_ops_done_total{node="a"}` && v == 40 {
				sawRate = true
			}
			if strings.HasPrefix(name, "mams_op_seconds_p99{") {
				sawP99 = true
			}
		case "X":
			spans++
		}
	}
	if counters == 0 || spans != 3 {
		t.Fatalf("events: %d counters, %d spans; want >0 counters and 3 spans", counters, spans)
	}
	if !sawRate {
		t.Fatal("counter family did not export a rate track")
	}
	if !sawP99 {
		t.Fatal("histogram family did not export a p99 track")
	}
}

// TestPrometheusDeterministic guards the export ordering: two registries
// populated in different orders must render byte-identically.
func TestPrometheusDeterministic(t *testing.T) {
	a := obs.NewRegistry()
	a.Counter("mams_b_total", "b", "node", "n2").Inc()
	a.Counter("mams_a_total", "a").Inc()
	a.Counter("mams_b_total", "b", "node", "n1").Inc()
	b := obs.NewRegistry()
	b.Counter("mams_a_total", "a").Inc()
	b.Counter("mams_b_total", "b", "node", "n1").Inc()
	b.Counter("mams_b_total", "b", "node", "n2").Inc()
	var ba, bb bytes.Buffer
	if err := obs.WritePrometheus(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatalf("export order depends on registration order:\n%s\nvs\n%s", ba.String(), bb.String())
	}
}
