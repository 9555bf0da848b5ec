package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload and the traced run in their seconds-long
// smoke shapes and holds what they print against BENCHMARK.json: every
// declared metric exactly once, finite, in its declared unit, and nothing
// undeclared. The numbers themselves mean nothing at this length; a failed
// output check is logged, not asserted, because a loaded test host can make
// a three-second failover round misbehave without the benchmark being wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots wire clusters and waits out session time-outs: about 25 s")
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDecl{}, bf.EndToEnd...), bf.PerLayer...) {
		if !nameOK.MatchString(d.Name) || !unitOK.MatchString(d.Unit) {
			t.Errorf("BENCHMARK.json: metric %q with unit %q is outside the allowed characters", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("BENCHMARK.json: metric %q: better is %q", d.Name, d.Better)
		}
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}

	cfg := config{seed: 1, seconds: 1, smoke: true}
	check := func(t *testing.T, res *result, decls []metricDecl) {
		t.Helper()
		var out bytes.Buffer
		if err := report(&out, res, cfg); err != nil {
			t.Fatal(err)
		}
		for _, p := range res.problems {
			t.Log("output check failed (not asserted at smoke length):", p)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   *bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if last.Correct == nil || last.Attempted < 1 {
			t.Errorf("result line lacks correct/attempted: %s", lines[len(lines)-1])
		}
		printed := map[string]int{}
		for _, m := range res.metrics {
			printed[m.name]++
		}
		for _, d := range decls {
			got, ok := last.Metrics[d.Name]
			switch {
			case !ok || printed[d.Name] != 1:
				t.Errorf("metric %s printed %d times, in the result line: %v", d.Name, printed[d.Name], ok)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s is %v", d.Name, got.Value)
			case got.Unit != d.Unit:
				t.Errorf("metric %s printed in %q, declared in %q", d.Name, got.Unit, d.Unit)
			}
			delete(last.Metrics, d.Name)
		}
		for name := range last.Metrics {
			t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
		}
	}

	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w.Name, cfg, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, bf.EndToEnd)
		})
	}
	t.Run("per_layer", func(t *testing.T) {
		res, err := runTraced("wire_create", cfg, t.TempDir()+"/trace.json")
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, bf.PerLayer)
	})
}
