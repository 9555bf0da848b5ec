package experiments

import (
	"fmt"

	"mams/internal/check"
	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/workload"
)

// ShardScaleCell is one measured point on the group-count scaling axis.
type ShardScaleCell struct {
	Groups     int     `json:"groups"`
	CreateTput float64 `json:"create_ops_per_sec"`
	StatTput   float64 `json:"getfileinfo_ops_per_sec"`
}

// ShardHotCell is one measured (policy) point of the Zipfian hotspot
// experiment: stat-heavy skewed load against a many-group namespace, with
// the live-migration balancer either off (static hashing) or on.
type ShardHotCell struct {
	Policy       string  `json:"policy"`
	Groups       int     `json:"groups"`
	Tput         float64 `json:"ops_per_sec"`
	P50ms        float64 `json:"stat_p50_ms"`
	P99ms        float64 `json:"stat_p99_ms"`
	Migrations   int     `json:"migrations"`
	MovedEntries int     `json:"moved_entries"`
	PauseMS      float64 `json:"total_pause_ms"`
	Violations   int     `json:"placement_violations"`
}

// ShardResult carries the sharded-namespace sweep: throughput scaling with
// group count, and the hotspot tail with and without live migration.
type ShardResult struct {
	Scale      *Table
	Hot        *Table
	ScaleCells []ShardScaleCell `json:"scale"`
	HotCells   []ShardHotCell   `json:"hot"`
}

// HotCell returns the hotspot cell for a policy (zero cell if absent).
func (r ShardResult) HotCell(policy string) ShardHotCell {
	for _, c := range r.HotCells {
		if c.Policy == policy {
			return c
		}
	}
	return ShardHotCell{}
}

// measureShardScaleCell runs fixed virtual-time create and getfileinfo
// windows against a fresh deployment with the given group count. Offered
// load scales with the group count so the axis measures capacity, not a
// fixed-concurrency ceiling.
func measureShardScaleCell(seed uint64, groups int, warmup, window sim.Time) ShardScaleCell {
	env := cluster.NewEnv(seed)
	params := mams.DefaultParams()
	params.GroupCommit = true
	sys := cluster.BuildMAMS(env, cluster.MAMSSpec{
		Groups: groups, BackupsPerGroup: 2, Params: params,
	}).AsSystem()
	cell := ShardScaleCell{Groups: groups}
	if !sys.AwaitReady(120 * sim.Second) {
		return cell
	}
	concurrency := 4 * groups
	collecting := false
	completed := 0
	drv := workload.NewDriver(env, sys, concurrency, func(r fsclient.Result) {
		if collecting && r.Err == nil {
			completed++
		}
	})
	drv.Setup(8)
	measure := func(mix workload.Mix) float64 {
		stop := drv.Continuous(mix, concurrency)
		env.RunFor(warmup)
		completed = 0
		collecting = true
		start := env.Now()
		env.RunFor(window)
		collecting = false
		elapsed := env.Now() - start
		stop()
		env.RunFor(500 * sim.Millisecond)
		if elapsed <= 0 {
			return 0
		}
		return float64(completed) / elapsed.Seconds()
	}
	// The create window also builds the pool the stat window reads from.
	cell.CreateTput = measure(workload.Mix{mams.OpCreate: 1})
	cell.StatTput = measure(workload.Mix{mams.OpStat: 1})
	return cell
}

// measureShardHotCell offers a Zipf-skewed, stat-heavy stream to a
// many-group namespace and samples the stat latency tail. policy "static"
// leaves the uniform hash map in place; "migrate" runs the load-signal
// balancer, which isolates the hot slot's group by migrating co-resident
// slots to colder groups. After the window the run drains, waits out any
// in-flight migration, and audits placement: every acked create must live
// on exactly the group the final map homes it to.
func measureShardHotCell(seed uint64, groups int, policy string, warmup, window sim.Time) ShardHotCell {
	env := cluster.NewEnv(seed)
	params := mams.DefaultParams()
	params.GroupCommit = true
	c := cluster.BuildMAMS(env, cluster.MAMSSpec{
		Groups: groups, BackupsPerGroup: 2, Params: params,
	})
	sys := c.AsSystem()
	cell := ShardHotCell{Policy: policy, Groups: groups}
	if !sys.AwaitReady(120 * sim.Second) {
		return cell
	}
	mon := check.Attach(env, c)
	collecting := false
	completed := 0
	var lats []sim.Time
	var results []fsclient.Result
	drv := workload.NewDriver(env, sys, 32, func(r fsclient.Result) {
		results = append(results, r)
		if collecting && r.Err == nil {
			completed++
			if r.Kind == mams.OpStat {
				lats = append(lats, r.End-r.Start)
			}
		}
	})
	drv.Setup(4)
	drv.Preload(24*groups, 48)
	drv.UseZipfReads(1.25)

	var mg *mams.Migrator
	if policy == "migrate" {
		mg = c.StartMigrator()
		env.World.Defer("shard-balancer-on", func() {
			mg.StartBalancer()
		})
	}
	stop := drv.Continuous(workload.Mix{mams.OpStat: 0.85, mams.OpCreate: 0.15}, 48)
	env.RunFor(warmup)
	collecting = true
	start := env.Now()
	env.RunFor(window)
	collecting = false
	elapsed := env.Now() - start
	stop()
	if mg != nil {
		env.World.Defer("shard-balancer-off", mg.StopBalancer)
		deadline := env.Now() + 60*sim.Second
		for mg.Busy() && env.Now() < deadline {
			env.RunFor(250 * sim.Millisecond)
		}
	}
	env.RunFor(3 * sim.Second) // drain watches and in-flight purges

	if elapsed > 0 {
		cell.Tput = float64(completed) / elapsed.Seconds()
	}
	cell.P50ms = quantileMS(lats, 0.50)
	cell.P99ms = quantileMS(lats, 0.99)
	if mg != nil {
		st := mg.Stats()
		cell.Migrations = st.Migrations
		cell.MovedEntries = st.MovedEntries
		cell.PauseMS = float64(st.TotalPause) / float64(sim.Millisecond)
	}
	mon.CheckPlacement(results, env.Now())
	cell.Violations = len(mon.Violations())
	return cell
}

// Shard sweeps the sharded namespace: near-linear create/getfileinfo
// scaling as the group count grows (the many-group tentpole), then the
// Zipfian hotspot tail with static hashing vs live migration. full widens
// the scaling axis to 256 groups and the hotspot cluster to 16.
func Shard(opts Options, full bool) ShardResult {
	axis := []int{8, 64}
	hotGroups := 8
	if full {
		axis = []int{8, 64, 256}
		hotGroups = 16
	}
	return shardSweep(opts, axis, hotGroups, 500*sim.Millisecond, 1500*sim.Millisecond)
}

// shardSweep is Shard with the axes and windows pluggable (tests and the
// CI smoke path use trimmed settings).
func shardSweep(opts Options, axis []int, hotGroups int, warmup, window sim.Time) ShardResult {
	opts.Defaults()
	res := ShardResult{}

	// Scaling axis: one cell per group count, then the two hotspot policy
	// cells; all seeded by cell index so results are bit-identical at any
	// Parallelism.
	policies := []string{"static", "migrate"}
	base := opts.Seed*1000 + 800
	res.ScaleCells = make([]ShardScaleCell, len(axis))
	res.HotCells = make([]ShardHotCell, len(policies))
	forEachCell(opts, len(axis)+len(policies), func(k int) {
		if k < len(axis) {
			res.ScaleCells[k] = measureShardScaleCell(base+uint64(k)+1, axis[k], warmup, window)
			return
		}
		h := k - len(axis)
		res.HotCells[h] = measureShardHotCell(base+uint64(k)+1, hotGroups, policies[h], warmup, window)
	})

	st := &Table{
		ID:    "SHARD-scale",
		Title: "Sharded namespace: throughput vs group count (offered load scales with groups)",
		Note: "Epoch-versioned shard map, client-side cached; groups are independent replica sets,\n" +
			"so create and getfileinfo capacity should scale near-linearly with the group count.",
		Header: []string{"groups", "create/s", "stat/s", "create x", "stat x"},
	}
	var c0, s0 float64
	if len(res.ScaleCells) > 0 {
		c0, s0 = res.ScaleCells[0].CreateTput, res.ScaleCells[0].StatTput
	}
	for _, c := range res.ScaleCells {
		cx, sx := "-", "-"
		if c0 > 0 {
			cx = fmt.Sprintf("%.1fx", c.CreateTput/c0)
		}
		if s0 > 0 {
			sx = fmt.Sprintf("%.1fx", c.StatTput/s0)
		}
		st.AddRow(fmt.Sprint(c.Groups), f1(c.CreateTput), f1(c.StatTput), cx, sx)
	}
	res.Scale = st

	ht := &Table{
		ID:    "SHARD-hot",
		Title: fmt.Sprintf("Zipfian hotspot tail: static hashing vs live migration (%d groups)", hotGroups),
		Note: "Stat-heavy Zipf(1.25) load concentrates on one group. The balancer detects the skew\n" +
			"from per-slot op counters and migrates slots off the hot group live (freeze-copy-flip);\n" +
			"placement is audited after the run: 0 violations means no acked create was lost or double-homed.",
		Header: []string{"policy", "ops/s", "stat p50 ms", "stat p99 ms", "migrations", "moved", "pause ms", "violations"},
	}
	for _, c := range res.HotCells {
		ht.AddRow(c.Policy, f1(c.Tput), f3(c.P50ms), f3(c.P99ms),
			fmt.Sprint(c.Migrations), fmt.Sprint(c.MovedEntries), f1(c.PauseMS), fmt.Sprint(c.Violations))
	}
	res.Hot = ht
	return res
}
