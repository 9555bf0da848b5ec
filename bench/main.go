// Command bench is the repository's benchmark: four workloads (three over
// loopback TCP, one on the deterministic simulator), measured from outside
// through the packages' public functions. README.md in this directory has
// the metric catalogue and the reasons for every choice.
//
//	go run ./bench -workload wire_create -seed 1            # end-to-end metrics
//	go run ./bench -workload wire_create -seed 1 -trace 1   # per-layer metrics + Chrome trace
//	go run ./bench -aa                                      # two sets back to back, against the bounds
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "wire_create | wire_stat | wire_failover | sim_paper")
		seed     = flag.Uint64("seed", 1, "drives path order, read targets, election jitter and the simulator")
		seconds  = flag.Float64("seconds", 22, "measuring time of the run")
		trace    = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, Chrome trace in .bench_build/trace.json; other: the same, trace written there")
		aa       = flag.Bool("aa", false, "run every workload twice back to back and hold the differences against BENCHMARK.json's bounds")
		smoke    = flag.Bool("smoke", false, "seconds-long shapes that only show the benchmark runs; the numbers mean nothing")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke}

	if *aa {
		os.Exit(selfCheck(cfg, os.Stdout))
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	var res *result
	var err error
	switch *trace {
	case "0", "":
		res, err = runWorkload(*workload, cfg, procStart)
	case "1":
		res, err = runTraced(*workload, cfg, ".bench_build/trace.json")
	default:
		res, err = runTraced(*workload, cfg, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// hostFacts go into every JSON row: numbers from different hosts do not
// compare.
func hostFacts() map[string]any {
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
}

// report prints every metric by name, unit and clock, the output checks, a
// JSON row with the host facts, and last the result line the driver reads.
func report(w io.Writer, res *result, cfg config) error {
	host := hostFacts()
	fmt.Fprintf(w, "%s seed=%d seconds=%g cores=%v GOMAXPROCS=%v %v\n",
		res.workload, cfg.seed, cfg.seconds, host["cores"], host["gomaxprocs"], host["go"])
	row := map[string]jsonMetric{}
	last := map[string]jsonMetric{}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.problem("metric %s was not measured (%v)", m.name, m.value)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.clock)
		row[m.name] = jsonMetric{m.value, m.unit, m.clock}
		last[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  #", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.attempted, res.failed)
	if res.failed > 0 {
		res.problem("%d of %d ops failed", res.failed, res.attempted)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
	if len(res.problems) == 0 {
		fmt.Fprintln(w, "  output checks passed")
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{
		"workload": res.workload, "seed": cfg.seed, "seconds": cfg.seconds, "host": host, "metrics": row,
	}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   last,
	})
}

// benchmarkFile is the part of BENCHMARK.json the self-check and the smoke
// test read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// selfCheck runs the four workloads twice, one after the other, and prints
// for each end-to-end metric how much worse the second set is than the
// first, as a share of the first, beside the metric's bound. It returns the
// process exit code.
func selfCheck(cfg config, w io.Writer) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa runs from the repository root:", err)
		return 1
	}
	var sets [2]map[string]*result
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, name := range workloadNames {
			res, err := runWorkload(name, cfg, time.Now())
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d, %s: %v\n", s, name, err)
				return 1
			}
			if err := report(w, res, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[s][name] = res
		}
	}
	code := 0
	fmt.Fprintf(w, "\n%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, name := range workloadNames {
		a, b := sets[0][name], sets[1][name]
		if len(a.problems)+len(b.problems) > 0 {
			code = 1
		}
		for _, d := range bf.EndToEnd {
			va, vb := a.get(d.Name), b.get(d.Name)
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if !(worse <= d.Bound) {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
