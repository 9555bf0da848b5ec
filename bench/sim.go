package main

import (
	"errors"
	"fmt"
	"time"

	"mams/internal/cluster"
	"mams/internal/metrics"
	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/workload"
)

// simShape is sim_paper's virtual schedule.
type simShape struct {
	preload  int
	settleAt sim.Time // virtual window [settleAt, faultAt) gives p50 and the modelled ops/s
	faultAt  sim.Time // CrashPrimary, after load start
	horizon  sim.Time
}

const simSegments = 4

var (
	simFull  = simShape{preload: 20000, settleAt: 2 * sim.Second, faultAt: 10 * sim.Second, horizon: 25 * sim.Second}
	simSmoke = simShape{preload: 500, settleAt: 500 * sim.Millisecond, faultAt: 2 * sim.Second, horizon: 10 * sim.Second}
)

// simRepeat is one seeded simulator run. The virt* fields are on the
// simulator's virtual clock and must be identical in every repeat of a
// seed; the rest is what the run cost on this host.
type simRepeat struct {
	virtOpsPerS   float64
	virtP50       sim.Time
	virtDowntime  sim.Time
	rates         []float64 // simulated ops per wall second, one per steady segment
	completed     int
	failed        int
	setup         time.Duration
	steal         time.Duration
	wallStart     time.Time
	wall          time.Duration
	mallocs       uint64
	events        uint64
	virtFingerprt string
}

// runSimRepeat builds a 1A2S MAMS cluster on the deterministic simulator
// and drives the paper mix through a primary crash. Nothing here touches a
// socket, gob or a second goroutine.
func runSimRepeat(seed uint64, sh simShape, tr *tracer, parent obs.SpanID) (simRepeat, error) {
	var rep simRepeat
	setupStart := time.Now()
	env := cluster.NewEnv(seed)
	sys := cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 2}).AsSystem()
	if !sys.AwaitReady(60 * sim.Second) {
		return rep, errors.New("simulated cluster never became ready")
	}
	col := &metrics.Collector{}
	drv := workload.NewDriver(env, sys, 8, col.Observe)
	drv.Setup(benchDirs)
	drv.Preload(sh.preload, 32)
	rep.setup = time.Since(setupStart)

	span := tr.begin("sim_paper.repeat", "bench", parent)
	before := snapProc()
	steps := env.World.Steps()
	start := env.Now()
	stop := drv.Continuous(workload.MixedPaper(), 32)
	// The steady state before the crash is timed in segments, each a few
	// tenths of a second of wall time, for ops_per_s.
	for range simSegments {
		t, n := time.Now(), drv.Completed()
		env.RunFor(sh.faultAt / simSegments)
		rep.rates = append(rep.rates, float64(drv.Completed()-n)/time.Since(t).Seconds())
	}
	faultAt := env.Now()
	sys.CrashPrimary()
	env.RunFor(sh.horizon - sh.faultAt)
	stop()
	env.RunFor(2 * sim.Second)
	after := snapProc()
	tr.end(span)

	rep.steal = after.steal - before.steal
	rep.wallStart = before.at
	rep.wall = after.at.Sub(before.at)
	rep.mallocs = after.mallocs - before.mallocs
	rep.events = env.World.Steps() - steps
	rep.completed, rep.failed = drv.Completed(), drv.Failed()

	var lat []float64
	for _, r := range col.Results {
		if r.Err == nil && r.End >= start+sh.settleAt && r.End < faultAt {
			lat = append(lat, float64(r.End-r.Start))
		}
	}
	if len(lat) == 0 {
		return rep, errors.New("no simulated op completed in the steady window")
	}
	rep.virtOpsPerS = float64(len(lat)) / (sh.faultAt - sh.settleAt).Seconds()
	rep.virtP50 = sim.Time(median(lat))
	mttr, ok := col.MTTR(faultAt)
	if !ok {
		return rep, errors.New("simulated service did not recover inside the horizon")
	}
	rep.virtDowntime = mttr
	rep.virtFingerprt = fmt.Sprintf("%d/%d/%d/%d/%d", rep.completed, rep.failed, len(lat), rep.virtP50, rep.virtDowntime)
	return rep, nil
}
