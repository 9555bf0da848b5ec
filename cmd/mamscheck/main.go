// Command mamscheck systematically explores fault schedules against a
// single-group MAMS cluster, asserting the protocol invariants (single
// reachable active, sn-monotone journals with duplicate suppression,
// recovery within budget, replica convergence, durability of acked ops)
// on every run.
//
// Usage:
//
//	mamscheck run -maxfaults 2 -members 4            # exhaustive sweep
//	mamscheck run -maxfaults 1 -steps 2 -kinds c     # quick smoke scope
//	mamscheck replay -in failing.artifact            # re-run a failure
//	mamscheck shrink -in failing.artifact            # minimize it
//
// run exits 1 if any schedule violates an invariant, writing the first
// failing schedule as a replayable artifact (-out). replay and shrink exit
// 1 while their schedule still fails, so a fixed bug flips them to 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mams/internal/check"
	"mams/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "shrink":
		cmdShrink(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mamscheck run|replay|shrink [flags]  (-h per subcommand)")
	os.Exit(2)
}

// cfgFlags registers the runner knobs shared by every subcommand. Call the
// returned resolver after fs.Parse to convert the duration flags.
func cfgFlags(fs *flag.FlagSet) (*check.Config, func()) {
	cfg := &check.Config{}
	fs.Uint64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.Backups, "backups", 3, "hot standbys per group")
	fs.IntVar(&cfg.Steps, "steps", check.DefaultSteps, "injectable step boundaries per run")
	stepms := fs.Int("stepms", int(check.DefaultStepEvery.Milliseconds()), "max virtual ms between step boundaries")
	fs.IntVar(&cfg.Load, "load", check.DefaultLoad, "concurrent workload operations")
	healS := fs.Int("heal", int(check.DefaultHealBudget.Seconds()), "virtual seconds allowed for recovery")
	var budget uint64
	fs.Uint64Var(&budget, "budget", check.DefaultEventBudget, "simulator event budget per run")
	fs.StringVar(&cfg.Bug, "bug", "", "plant a regression: dup-sn (skip duplicate-sn suppression)")
	fs.BoolVar(&cfg.SyncSSP, "syncssp", false, "enable synchronous pool flush")
	fs.BoolVar(&cfg.GroupCommit, "groupcommit", false, "enable adaptive group commit + pipelined journal")
	fs.BoolVar(&cfg.AsyncAck, "asyncack", false, "ack mutations at seal with a durability watermark (implies -groupcommit)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mamscheck %s [flags]\n", fs.Name())
		fs.PrintDefaults()
	}
	return cfg, func() {
		cfg.StepEvery = sim.Time(*stepms) * sim.Millisecond
		cfg.HealBudget = sim.Time(*healS) * sim.Second
		cfg.EventBudget = budget
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg, resolve := cfgFlags(fs)
	members := fs.Int("members", 4, "group members eligible as fault targets")
	maxFaults := fs.Int("maxfaults", 2, "max faults per schedule")
	kinds := fs.String("kinds", "cud", "fault kinds to enumerate: c(rash) u(nplug) d(rop) s(low) f(lap) k:skew b(rownout)")
	workers := fs.Int("workers", 2, "parallel runs")
	out := fs.String("out", "", "write the first failing schedule as an artifact here")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	fs.Parse(args)
	resolve()

	scope := check.Scope{Members: *members, Steps: cfg.Steps, MaxFaults: *maxFaults}
	for _, r := range *kinds {
		switch r {
		case 'c':
			scope.Kinds = append(scope.Kinds, check.Crash)
		case 'u':
			scope.Kinds = append(scope.Kinds, check.Unplug)
		case 'd':
			scope.Kinds = append(scope.Kinds, check.Drop)
		case 's':
			scope.Kinds = append(scope.Kinds, check.Slow)
		case 'f':
			scope.Kinds = append(scope.Kinds, check.Flap)
		case 'k':
			scope.Kinds = append(scope.Kinds, check.Skew)
		case 'b':
			scope.Kinds = append(scope.Kinds, check.Brownout)
		default:
			fmt.Fprintf(os.Stderr, "unknown fault kind %q\n", string(r))
			os.Exit(2)
		}
	}

	progress := func(done, total int, r check.Result) {
		if *quiet && !r.Failed() {
			return
		}
		status := "ok"
		if r.Failed() {
			status = "FAIL " + r.FirstInvariant()
		}
		fmt.Printf("[%4d/%d] %-24s %s\n", done, total, r.Schedule.Encode(), status)
	}
	rep := check.Explore(*cfg, scope, *workers, progress)
	fmt.Println(rep.Summary())
	if len(rep.Failed) == 0 {
		return
	}
	first := rep.Failed[0]
	for _, v := range first.Violations {
		fmt.Println("  ", v)
	}
	if *out != "" {
		writeArtifact(*out, check.ArtifactFor(*cfg, first.Schedule))
		fmt.Printf("failing schedule written to %s (replay with: mamscheck replay -in %s)\n", *out, *out)
	}
	os.Exit(1)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "artifact file (required; - for stdin)")
	sched := fs.String("schedule", "", "override the artifact's schedule (e.g. c0@1,d@3)")
	fs.Parse(args)
	a := readArtifact(*in)
	if *sched != "" {
		s, err := check.DecodeSchedule(*sched)
		if err != nil {
			fatal(err)
		}
		a.Schedule = s
		if err := a.Validate(); err != nil {
			fatal(err)
		}
	}
	r := check.Replay(a)
	report(r)
}

func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	in := fs.String("in", "", "artifact file (required; - for stdin)")
	out := fs.String("out", "", "write the minimized artifact here")
	quiet := fs.Bool("q", false, "suppress candidate progress")
	fs.Parse(args)
	a := readArtifact(*in)
	min, r := check.Shrink(a.Config(), a.Schedule, func(cand check.Schedule, cr check.Result) {
		if !*quiet {
			fmt.Printf("  try %-24s failed=%v\n", cand.Encode(), cr.Failed())
		}
	})
	fmt.Printf("minimal schedule: %s (%d of %d actions)\n", min.Encode(), len(min), len(a.Schedule))
	if *out != "" {
		a.Schedule = min
		writeArtifact(*out, a)
		fmt.Printf("minimized artifact written to %s\n", *out)
	}
	report(r)
}

func report(r check.Result) {
	if !r.Failed() {
		fmt.Printf("schedule %s: all invariants held (%d ops, healed=%v)\n",
			r.Schedule.Encode(), r.Ops, r.Healed)
		return
	}
	fmt.Printf("schedule %s: %d violation(s)\n", r.Schedule.Encode(), len(r.Violations))
	for _, v := range r.Violations {
		fmt.Println("  ", v)
	}
	if r.Truncated > 0 {
		fmt.Printf("   ... and %d more past the report cap\n", r.Truncated)
	}
	os.Exit(1)
}

func readArtifact(path string) check.Artifact {
	if path == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	var (
		a   check.Artifact
		err error
	)
	if path == "-" {
		a, err = check.ReadArtifact(os.Stdin)
	} else {
		f, oerr := os.Open(path)
		if oerr != nil {
			fatal(oerr)
		}
		defer f.Close()
		a, err = check.ReadArtifact(f)
	}
	if err != nil {
		fatal(err)
	}
	return a
}

func writeArtifact(path string, a check.Artifact) {
	var sb strings.Builder
	if err := check.WriteArtifact(&sb, a); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamscheck:", err)
	os.Exit(1)
}
