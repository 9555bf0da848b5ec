package check

import (
	"fmt"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/trace"
	"mams/internal/workload"
)

// Config fixes everything about a checked run except the fault schedule.
// The zero value is usable: withDefaults fills the paper-scale small scope
// (1 group, 1 active + 3 backups) the explorer is designed for.
type Config struct {
	Seed      uint64
	Backups   int      // hot standbys per group (group size = Backups+1)
	Steps     int      // number of injectable step boundaries
	StepEvery sim.Time // max virtual time between step boundaries
	Load      int      // concurrent workload operations in flight

	HealBudget  sim.Time // virtual time allowed for recovery after faults stop
	QuiesceFor  sim.Time // drain window before convergence/durability audit
	EventBudget uint64   // max simulator events per run (0 = default, not unlimited)

	Bug     string // planted regression: "" or "dup-sn" (skip duplicate-sn suppression)
	SyncSSP bool   // run with synchronous pool flush enabled

	// GroupCommit runs with the adaptive group-commit + pipelined journal
	// path; AsyncAck additionally acks mutations at seal (implies
	// GroupCommit) and switches the durability audit to watermark semantics.
	GroupCommit bool
	AsyncAck    bool

	// OnEnv, if set, observes the freshly-built environment before the run
	// starts — experiments subscribe to the trace or registry here (e.g.
	// `mamsbench -exp gray` mines "who degraded and when" from fault and
	// check events). Not part of the replay artifact: it must not perturb
	// the simulation.
	OnEnv func(*cluster.Env) `json:"-"`
}

// Defaults sized for a ~1-2 s wall-clock run on one core, which is what
// makes exhaustive two-fault exploration (~1.3k runs) tractable.
const (
	DefaultSteps       = 6
	DefaultStepEvery   = 2 * sim.Second
	DefaultLoad        = 2
	DefaultHealBudget  = 90 * sim.Second
	DefaultQuiesce     = 10 * sim.Second
	DefaultEventBudget = 25_000_000
)

func (c Config) withDefaults() Config {
	if c.Backups <= 0 {
		c.Backups = 3
	}
	if c.Steps <= 0 {
		c.Steps = DefaultSteps
	}
	if c.StepEvery <= 0 {
		c.StepEvery = DefaultStepEvery
	}
	if c.Load <= 0 {
		c.Load = DefaultLoad
	}
	if c.HealBudget <= 0 {
		c.HealBudget = DefaultHealBudget
	}
	if c.QuiesceFor <= 0 {
		c.QuiesceFor = DefaultQuiesce
	}
	if c.EventBudget == 0 {
		c.EventBudget = DefaultEventBudget
	}
	return c
}

// Result is the outcome of one schedule execution.
type Result struct {
	Schedule   Schedule
	Violations []Violation
	Truncated  int    // violations dropped past the report cap
	Healed     bool   // cluster fully recovered within HealBudget
	Ops        int    // workload operations acked during the run
	Events     uint64 // simulator events consumed
}

// Failed reports whether any invariant was violated.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// FirstInvariant names the first violated invariant ("" if clean).
func (r Result) FirstInvariant() string {
	if len(r.Violations) == 0 {
		return ""
	}
	return r.Violations[0].Invariant
}

// RunSchedule builds a fresh single-group cluster from cfg, drives a
// create/mkdir workload through it, injects sched's faults at protocol step
// boundaries, heals, quiesces, and audits the full invariant set. Identical
// (cfg, sched) inputs replay the identical event sequence — every source of
// randomness flows from cfg.Seed through the simulation RNG.
func RunSchedule(cfg Config, sched Schedule) Result {
	cfg = cfg.withDefaults()
	sched = sched.canon()
	res := Result{Schedule: sched}

	env := cluster.NewEnv(cfg.Seed)
	env.World.SetStepLimit(0) // budget enforced via RunForLimited below
	if cfg.OnEnv != nil {
		cfg.OnEnv(env)
	}

	params := mams.DefaultParams()
	params.TraceAppends = true
	params.SyncSSP = cfg.SyncSSP
	params.GroupCommit = cfg.GroupCommit
	params.AsyncAck = cfg.AsyncAck
	if cfg.Bug == "dup-sn" {
		params.SkipDupSuppression = true
	}
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{
		Groups:          1,
		BackupsPerGroup: cfg.Backups,
		Params:          params,
	})
	mon := Attach(env, c)

	finish := func() Result {
		res.Violations = mon.Violations()
		res.Truncated = mon.Truncated()
		res.Events = env.World.Steps()
		return res
	}

	if !c.AwaitStable(30 * sim.Second) {
		mon.record("boot", "", fmt.Sprintf("group never stabilized: %v", c.RolesOf(0)))
		return finish()
	}

	var results []fsclient.Result
	drv := workload.NewDriver(env, c.AsSystem(), 2, func(r fsclient.Result) {
		results = append(results, r)
	})
	drv.Setup(2)

	// Step boundaries: the counter advances on every protocol transition the
	// trace reports (role changes, elections, failover milestones) and at
	// latest every StepEvery of virtual time, so schedules hit "interesting"
	// instants without depending on wall-clock-scale timing.
	injector := &injector{cfg: cfg, env: env, c: c, pending: sched}
	env.Trace.Subscribe(func(e trace.Event) {
		switch e.Kind {
		case trace.KindState, trace.KindElection, trace.KindFailover:
			injector.advance()
		}
	})
	var tick func()
	tick = func() {
		injector.advance()
		if injector.step <= cfg.Steps {
			env.World.After(cfg.StepEvery, "check-step-tick", tick)
		}
	}
	env.World.After(cfg.StepEvery, "check-step-tick", tick)

	stop := drv.Continuous(workload.CreateMkdir(), cfg.Load)

	// Fault window: run in slices so the state invariants are sampled
	// frequently, under a hard event budget so a livelocked schedule reports
	// a "live" violation instead of hanging the explorer.
	budget := cfg.EventBudget
	window := sim.Time(cfg.Steps+2) * cfg.StepEvery
	runSlices := func(total sim.Time) bool {
		const slice = 250 * sim.Millisecond
		for done := sim.Time(0); done < total; done += slice {
			steps, hit := env.World.RunForLimited(slice, budget)
			if steps >= budget {
				budget = 0
			} else {
				budget -= steps
			}
			mon.Sample()
			if hit || budget == 0 {
				mon.record("live", "", fmt.Sprintf(
					"event budget %d exhausted at %v (livelock?)", cfg.EventBudget, env.Now()))
				return false
			}
		}
		return true
	}
	if !runSlices(window) {
		stop()
		return finish()
	}

	// Stop the load first: recovery is judged on a quiescing system, as a
	// junior chasing a saturated journal can lag the active indefinitely
	// without that being a protocol fault.
	env.World.Defer("check-stop-load", stop)
	if !runSlices(sim.Second) {
		return finish()
	}

	// Heal everything and give the protocol HealBudget to converge back to
	// one active plus all-hot standbys.
	env.World.Defer("check-heal", func() {
		injector.heal()
		c.HealAll()
	})
	healPoll := 500 * sim.Millisecond
	for waited := sim.Time(0); ; waited += healPoll {
		if !runSlices(healPoll) {
			return finish()
		}
		if mon.HealedNow() {
			res.Healed = true
			break
		}
		if waited >= cfg.HealBudget {
			mon.RequireHealed()
			break
		}
	}

	// Quiesce: drain any remaining in-flight work, then audit.
	if !runSlices(cfg.QuiesceFor) {
		return finish()
	}

	mon.CheckConverged()
	// The systematic scope never loses a majority of the group at once, so
	// every acked op must survive to the end of the run. Under AsyncAck the
	// promise is per-watermark rather than per-ack, so the audit switches
	// to watermark semantics.
	if cfg.AsyncAck {
		mon.CheckDurableWatermark(results, env.Now())
	} else {
		mon.CheckDurable(results, env.Now())
	}
	for _, r := range results {
		if r.Err == nil {
			res.Ops++
		}
	}
	return finish()
}

// Replay runs an artifact exactly as recorded.
func Replay(a Artifact) Result { return RunSchedule(a.Config(), a.Schedule) }

// injector applies due actions each time the step counter advances. Faults
// are applied through World.Defer rather than inline: advance can be called
// from a trace subscriber running inside a server's own handler, and
// crashing a node mid-handler would be reentrant.
type injector struct {
	cfg     Config
	env     *cluster.Env
	c       *cluster.MAMSCluster
	pending Schedule
	step    int
	dropN   int      // nesting count of active drop bursts
	heals   []func() // one per gray fault applied, run at heal time
}

func (in *injector) advance() {
	if in.step > in.cfg.Steps {
		return
	}
	in.step++
	for len(in.pending) > 0 && in.pending[0].Step <= in.step {
		a := in.pending[0]
		in.pending = in.pending[1:]
		in.env.World.Defer("check-inject", func() { in.apply(a) })
	}
}

func (in *injector) apply(a Action) {
	group := in.c.GroupIDs[0]
	node, args := "", []string{"step", fmt.Sprint(a.Step)}
	if a.Kind != Drop {
		node = string(group[a.Target])
	}
	if a.Kind.takesMag() {
		args = append(args, "mag", fmt.Sprint(a.Mag))
	}
	in.env.Trace.Emit(trace.KindCheck, node, "inject-"+a.Kind.String(), args...)
	switch a.Kind {
	case Crash:
		in.c.Groups[0][a.Target].Shutdown()
	case Drop:
		in.dropN++
		in.env.Net.SetLoss(1.0)
		in.env.World.After(2*sim.Second, "check-drop-end", func() {
			in.dropN--
			if in.dropN == 0 {
				in.env.Net.SetLoss(0)
			}
		})
	case Unplug:
		// HealAll replugs it, in member order with the restarts.
		Inject(in.env, group, in.c.Pool, a)
	default:
		in.heals = append(in.heals, Inject(in.env, group, in.c.Pool, a))
	}
}

// heal force-ends any drop burst and undoes every gray fault, so recovery
// is judged on clean hardware, as HealAll's restarts judge it on whole
// processes.
func (in *injector) heal() {
	in.dropN = 0
	in.env.Net.SetLoss(0)
	for _, h := range in.heals {
		h()
	}
	in.heals = nil
}
