// Command mamssim runs one interactive-style failover scenario against any
// of the six simulated metadata services and prints the event timeline,
// the server state transitions and the client-observed MTTR.
//
// Usage:
//
//	mamssim -system mams -fault crash
//	mamssim -system backupnode -fault crash -image-mb 256
//	mamssim -system mams -fault lockloss -groups 1 -backups 3
package main

import (
	"flag"
	"fmt"
	"os"

	"mams/internal/cluster"
	"mams/internal/metrics"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

func main() {
	var (
		system     = flag.String("system", "mams", "mams|hdfs|backupnode|avatar|hadoopha|boomfs")
		fault      = flag.String("fault", "crash", "crash|unplug|lockloss (lockloss/unplug: mams only)")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		groups     = flag.Int("groups", 1, "MAMS replica groups")
		backups    = flag.Int("backups", 3, "MAMS backups per group")
		imageMB    = flag.Int64("image-mb", 0, "virtual namespace image size in MB")
		horizon    = flag.Int("horizon", 120, "seconds to observe after the fault")
		metricsOut = flag.String("metrics-out", "", "write system metrics (Prometheus text format) to this file")
		spansOut   = flag.String("spans-out", "", "write protocol spans (Chrome trace JSON, Perfetto-loadable) to this file")
		seriesOut  = flag.String("series-out", "", "scrape metrics on a 500ms cadence and write the timestamped series (Prometheus text format) to this file")
		withHealth = flag.Bool("health", false, "attach the gray-failure monitoring plane (mams only); verdicts join the timeline")
	)
	flag.Parse()

	env := cluster.NewEnv(*seed)
	var sys cluster.System
	var mc *cluster.MAMSCluster
	spec := cluster.BaselineSpec{DataServers: 8, VirtualImageBytes: *imageMB << 20}
	switch *system {
	case "mams":
		mc = cluster.BuildMAMS(env, cluster.MAMSSpec{
			Groups: *groups, BackupsPerGroup: *backups,
			DataServers: 8, VirtualImageBytes: *imageMB << 20,
		})
		sys = mc.AsSystem()
	case "hdfs":
		sys = cluster.BuildHDFS(env, spec)
	case "backupnode":
		sys = cluster.BuildBackupNode(env, spec)
	case "avatar":
		sys = cluster.BuildAvatar(env, spec)
	case "hadoopha":
		sys = cluster.BuildHadoopHA(env, spec)
	case "boomfs":
		sys = cluster.BuildBoomFS(env, spec)
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	if *seriesOut != "" {
		env.StartTelemetry()
	}
	if !sys.AwaitReady(60 * sim.Second) {
		fmt.Fprintln(os.Stderr, "system never became ready")
		os.Exit(1)
	}
	fmt.Printf("%s ready at t=%v\n", sys.Name(), env.Now())
	if *withHealth {
		if mc == nil {
			fmt.Fprintln(os.Stderr, "-health requires -system mams")
			os.Exit(2)
		}
		mc.StartHealth()
	}

	col := &metrics.Collector{}
	drv := workload.NewDriver(env, sys, 4, col.Observe)
	drv.Setup(4)
	stop := drv.Continuous(workload.CreateMkdir(), 16)
	env.RunFor(5 * sim.Second)

	faultAt := env.Now()
	switch *fault {
	case "crash":
		fmt.Printf("t=%v: crashing the primary\n", faultAt)
		sys.CrashPrimary()
	case "lockloss":
		if mc == nil {
			fmt.Fprintln(os.Stderr, "lockloss requires -system mams")
			os.Exit(2)
		}
		fmt.Printf("t=%v: deleting the distributed lock\n", faultAt)
		mc.PrepareFaultInjector()
		mc.BreakLock(0)
	case "unplug":
		if mc == nil {
			fmt.Fprintln(os.Stderr, "unplug requires -system mams")
			os.Exit(2)
		}
		fmt.Printf("t=%v: unplugging the active's network cable\n", faultAt)
		if a := mc.ActiveOf(0); a != nil {
			env.Net.Node(a.Node().ID()).Unplug()
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *fault)
		os.Exit(2)
	}

	env.RunFor(sim.Time(*horizon) * sim.Second)
	stop()
	env.RunFor(2 * sim.Second)

	fmt.Println("\n--- event timeline (around the fault) ---")
	for _, e := range env.Trace.Events() {
		if e.At >= faultAt-sim.Second && interesting(e) {
			fmt.Println(e)
		}
	}

	if mc != nil {
		fmt.Println("\n--- final group roles & consistency audit ---")
		for g := range mc.Groups {
			fmt.Printf("group %d: %v\n", g, mc.ObservedRoles(g))
		}
		for _, rep := range mc.Verify() {
			fmt.Println(rep)
		}
	}

	if mttr, ok := col.MTTR(faultAt); ok {
		fmt.Printf("\nclient-observed MTTR: %.3f s\n", mttr.Seconds())
	} else {
		fmt.Println("\nno recovery observed in the horizon")
	}
	fmt.Printf("operations: %d completed, %d failed\n", drv.Completed(), drv.Failed())

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, env.Obs); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, env.Trace.Spans(), env.Sampler); err != nil {
			fmt.Fprintf(os.Stderr, "spans-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s (load in Perfetto / chrome://tracing)\n", *spansOut)
	}
	if *seriesOut != "" {
		if err := writeSeries(*seriesOut, env.Sampler); err != nil {
			fmt.Fprintf(os.Stderr, "series-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("time series written to %s\n", *seriesOut)
	}
}

func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(f, reg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans emits the protocol spans; when the sampler ran, the scraped
// series ride along as Perfetto counter tracks.
func writeSpans(path string, spans []obs.Span, s *obs.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := error(nil)
	if s != nil {
		werr = obs.WriteChromeTraceWithMetrics(f, spans, s)
	} else {
		werr = obs.WriteChromeTrace(f, spans)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

func writeSeries(path string, s *obs.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheusSeries(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func interesting(e trace.Event) bool {
	switch e.Kind {
	case trace.KindFault, trace.KindElection, trace.KindFailover, trace.KindRenew,
		trace.KindState, trace.KindHealth:
		return true
	case trace.KindCoord:
		return e.What == "session-expire"
	}
	return false
}
