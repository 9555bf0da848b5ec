// Command mamsbench regenerates the paper's evaluation artifacts (§IV):
// Figures 5-9 and Tables I-II, printing the same rows/series the paper
// reports, with the published values alongside where available.
//
// Usage:
//
//	mamsbench -exp all                 # everything, quick scale
//	mamsbench -exp table1 -trials 10   # one artifact, more trials
//	mamsbench -exp figure5 -full       # paper scale (1M ops; slow)
//	mamsbench -exp all -parallelism 8  # bound the trial worker pool
//	mamsbench -exp figure6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mams/internal/experiments"
	"mams/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: figure5|figure6|table1|figure7|table2|figure8|figure9|ablations|tvl|gray|shard|detect|all")
		seed        = flag.Uint64("seed", 1, "root RNG seed (runs are deterministic per seed)")
		ops         = flag.Int("ops", 0, "operations per throughput run (0 = default 20000)")
		trials      = flag.Int("trials", 0, "trials per MTTR cell (0 = default 3; paper uses 10)")
		clients     = flag.Int("clients", 0, "closed-loop op concurrency (0 = default 192)")
		full        = flag.Bool("full", false, "paper-scale settings (1M ops, 10 trials; slow)")
		parallelism = flag.Int("parallelism", 0, "concurrent experiment trials (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut  = flag.String("metrics-out", "", "write figure7's merged system metrics (Prometheus text) to this file")
		spansOut    = flag.String("spans-out", "", "write figure7's first-trial protocol spans (Chrome trace JSON) to this file")
		benchOut    = flag.String("bench-out", "", "write tvl's cells as JSON (commit-path perf trajectory) to this file")
	)
	flag.Parse()

	opts := experiments.Options{Seed: *seed, Ops: *ops, Trials: *trials, Clients: *clients}
	if *full {
		opts = experiments.Full()
		opts.Seed = *seed
	}
	opts.Parallelism = *parallelism
	opts.Defaults()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	run := func(name string) {
		switch name {
		case "figure5":
			fmt.Println(experiments.Figure5(opts).Table)
		case "figure6":
			fmt.Println(experiments.Figure6(opts).Table)
		case "table1":
			fmt.Println(experiments.TableI(opts, nil).Table)
		case "figure7":
			f7 := experiments.Figure7(opts)
			fmt.Println(f7.Table)
			if *metricsOut != "" {
				if err := writeFile(*metricsOut, func(f *os.File) error {
					return obs.WritePrometheus(f, f7.Registry)
				}); err != nil {
					fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
					os.Exit(1)
				}
			}
			if *spansOut != "" {
				if err := writeFile(*spansOut, func(f *os.File) error {
					return obs.WriteChromeTrace(f, f7.Spans)
				}); err != nil {
					fmt.Fprintf(os.Stderr, "spans-out: %v\n", err)
					os.Exit(1)
				}
			}
		case "table2":
			fmt.Println(experiments.TableII(opts).Table)
		case "figure8":
			fmt.Println(experiments.Figure8(opts).Table)
		case "figure9":
			fmt.Println(experiments.Figure9(opts).Table)
		case "tvl":
			tvl := experiments.Tvl(opts)
			fmt.Println(tvl.Table)
			fmt.Printf("saturation ops/s: timer-sync=%.0f group-sync=%.0f (%.1fx) group-async=%.0f (%.1fx)\n",
				tvl.Saturation("timer-sync"),
				tvl.Saturation("group-sync"), tvl.Saturation("group-sync")/tvl.Saturation("timer-sync"),
				tvl.Saturation("group-async"), tvl.Saturation("group-async")/tvl.Saturation("timer-sync"))
			if *benchOut != "" {
				if err := writeFile(*benchOut, func(f *os.File) error {
					enc := json.NewEncoder(f)
					enc.SetIndent("", "  ")
					return enc.Encode(tvl.Cells)
				}); err != nil {
					fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
					os.Exit(1)
				}
			}
		case "shard":
			sh := experiments.Shard(opts, *full)
			fmt.Println(sh.Scale)
			fmt.Println(sh.Hot)
			static, migrate := sh.HotCell("static"), sh.HotCell("migrate")
			if static.P99ms > 0 {
				fmt.Printf("hotspot stat p99: static=%.3fms migrate=%.3fms (%.2fx); %d migrations moved %d entries, total pause %.1fms\n",
					static.P99ms, migrate.P99ms, static.P99ms/migrate.P99ms,
					migrate.Migrations, migrate.MovedEntries, migrate.PauseMS)
			}
			if *benchOut != "" {
				if err := writeFile(*benchOut, func(f *os.File) error {
					enc := json.NewEncoder(f)
					enc.SetIndent("", "  ")
					return enc.Encode(sh)
				}); err != nil {
					fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
					os.Exit(1)
				}
			}
			if static.Violations != 0 || migrate.Violations != 0 {
				fmt.Fprintln(os.Stderr, "shard: placement violations in hotspot runs")
				os.Exit(1)
			}
		case "ablations":
			fmt.Println(experiments.AblationStandbys(opts))
			fmt.Println(experiments.AblationSessionTimeout(opts))
			fmt.Println(experiments.AblationBatchInterval(opts))
			fmt.Println(experiments.AblationSyncSSP(opts))
			fmt.Println(experiments.AblationPartitioning(opts))
		case "detect":
			dt := experiments.Detect(opts)
			fmt.Println(dt)
			if *benchOut != "" {
				if err := writeFile(*benchOut, func(f *os.File) error {
					enc := json.NewEncoder(f)
					enc.SetIndent("", "  ")
					return enc.Encode(dt)
				}); err != nil {
					fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
					os.Exit(1)
				}
			}
			if dt.Failed() {
				fmt.Fprintf(os.Stderr, "detect: recall %.2f below 0.9 gate or %d control false positive(s)\n",
					dt.Recall, dt.ControlFPs)
				os.Exit(1)
			}
		case "gray":
			g := experiments.Gray(opts)
			fmt.Println(g)
			if g.Failed() {
				fmt.Fprintln(os.Stderr, "gray: invariant violations in audited MAMS runs")
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"figure5", "figure6", "table1", "figure7", "table2", "figure8", "figure9", "ablations", "tvl", "shard"} {
			run(name)
			fmt.Println()
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(name))
	}
}

func writeFile(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
