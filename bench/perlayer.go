package main

import (
	"fmt"
	"time"

	"mams/internal/mams"
	"mams/internal/obs"
)

// runTraced produces the per-layer metrics. It is the same whatever
// workload was asked for — every per-layer metric is printed on every traced
// run — and consists of the layer micro-suite, a short run of each wire
// workload with the benchmark's own spans on, and one simulator repeat. The
// end-to-end numbers never come from here.
func runTraced(workload string, cfg config, tracePath string) (*result, error) {
	res := &result{workload: workload}
	tr := &tracer{}
	root := tr.begin("bench.trace", "bench", 0, "seed", fmt.Sprint(cfg.seed))

	suite := &layerSuite{res: res, tr: tr, parent: root, budget: 500 * time.Millisecond}
	if cfg.smoke {
		suite.budget = 20 * time.Millisecond
	}
	if err := suite.runLayers(cfg.seed); err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	dropped := uint64(0)
	for _, name := range []string{"wire_create", "wire_stat"} {
		d, err := tracedSaturated(res, wireSpecFor(name, cfg), cfg, tr, root)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
		dropped += d
	}
	res.add("nettrans.dropped_frames", "count", "count", float64(dropped))
	if err := tracedFailover(res, cfg, tr, root); err != nil {
		return nil, fmt.Errorf("traced wire_failover: %w", err)
	}
	if err := tracedSim(res, cfg, tr, root); err != nil {
		return nil, fmt.Errorf("traced sim_paper: %w", err)
	}
	tr.end(root)
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), tracePath)
	return res, nil
}

// tracedSaturated runs one saturated workload twice on one cluster: three
// untraced slices, which give the counters and the process costs, then two
// slices with a span per op, which give the trace and what tracing costs.
// It returns the frames the cluster dropped.
func tracedSaturated(res *result, spec wireSpec, cfg config, tr *tracer, root obs.SpanID) (uint64, error) {
	plain := wireShape{warm: 1500 * time.Millisecond, slices: 3, slice: 2 * time.Second}
	spans := wireShape{warm: 500 * time.Millisecond, slices: 2, slice: 2 * time.Second}
	if cfg.smoke {
		plain = wireShape{warm: 100 * time.Millisecond, slices: 2, slice: 200 * time.Millisecond}
		spans = plain
	}
	c, dirs, pool, err := bootCluster(cfg.seed, spec.preload)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	off := runSaturated(c, newLoadgen(c, spec.mix, cfg.seed, "u", dirs, pool, nil, 0), plain, spec.name)
	on := runSaturated(c, newLoadgen(c, spec.mix, cfg.seed, "t", dirs, pool, tr, root), spans, spec.name)

	auditSaturated(res, c, spec, off.all, on.all)

	short := spec.name[len("wire_"):]
	acked := float64(off.acked)
	elapsed := off.after.at.Sub(off.before.at)
	res.add("nettrans.frames_per_op."+short, "count", "count", float64(sum(off.cAfter.sent)-sum(off.cBefore.sent))/acked)
	if spec.name == "wire_create" {
		activeTr := len(c.Coord) + off.active
		res.add("nettrans.active_frames_per_op", "count", "count", float64(off.cAfter.sent[activeTr]-off.cBefore.sent[activeTr])/acked)
		res.add("mams.ops_per_batch", "count", "count", acked/float64(off.cAfter.lastSN[off.active]-off.cBefore.lastSN[off.active]))
		res.add("mams.standby_lag_sn", "count", "count", median(off.lagSN))
	}
	var lat []float64
	for _, r := range off.inSlices {
		if r.acked() {
			lat = append(lat, ms(r.latency()))
		}
	}
	res.add("fsclient.sat_p50_ms."+short, "ms", "wall", median(lat))
	res.add("fsclient.sat_p99_ms."+short, "ms", "wall", quantile(lat, 0.99))
	res.add("process.cpu_us_per_op."+short, "us", "wall", us(off.after.cpu-off.before.cpu)/acked)
	res.add("process.alloc_kb_per_op."+short, "KiB", "count", float64(off.after.bytes-off.before.bytes)/1024/acked)
	res.add("process.gc_pause_ms_per_s."+short, "ms/s", "wall", ms(off.after.gcPause-off.before.gcPause)/elapsed.Seconds())
	res.add("process.slice_spread_pct."+short, "%", "wall", spreadPct(off.rates))
	res.add("trace.overhead_pct."+short, "%", "wall", 100*(undisturbed(off.rates)-undisturbed(on.rates))/undisturbed(off.rates))
	return sum(on.cAfter.dropped) - sum(off.cBefore.dropped), nil
}

// tracedFailover runs failover rounds of wire_failover with spans on and a
// role poll after the kill, which splits the downtime into the group's
// takeover and the client's rediscovery.
func tracedFailover(res *result, cfg config, tr *tracer, root obs.SpanID) error {
	spec := wireSpecFor("wire_failover", cfg)
	sh := shapeFor(spec.name, cfg)
	if !cfg.smoke {
		sh.rounds = 3
	}
	byKind := map[mams.OpKind][]float64{}
	var takeover, rediscover []float64
	var maxLate time.Duration
	late, total := 0, 0
	for r := range sh.rounds {
		rr, err := runRound(spec, sh, cfg.seed, r, tr, root, true)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		auditRound(res, r, rr)
		for _, kind := range []mams.OpKind{mams.OpCreate, mams.OpStat, mams.OpMkdir} {
			byKind[kind] = append(byKind[kind], rr.steady(kind)...)
		}
		if rr.takeoverAt == 0 {
			res.problem("round %d: no survivor reported itself active", r)
		}
		takeover = append(takeover, ms(rr.takeoverAt-rr.killAt))
		// The poll sees the takeover up to 5 ms late, so the client can be
		// served before the benchmark has noticed: that reads as 0.
		rediscover = append(rediscover, ms(max(0, rr.firstAck-rr.takeoverAt)))
		maxLate = max(maxLate, rr.maxLate)
		for _, rec := range rr.recs {
			total++
			if !rec.acked() || rec.latency() > lateAfter {
				late++
			}
		}
	}
	res.add("mams.takeover_ms", "ms", "wall", mean(takeover))
	res.add("fsclient.rediscover_ms", "ms", "wall", mean(rediscover))
	res.add("gen.max_late_ms", "ms", "wall", ms(maxLate))
	res.add("fsclient.create_p50_ms", "ms", "wall", median(byKind[mams.OpCreate]))
	res.add("fsclient.create_p99_ms", "ms", "wall", quantile(byKind[mams.OpCreate], 0.99))
	res.add("fsclient.stat_p50_ms", "ms", "wall", median(byKind[mams.OpStat]))
	res.add("fsclient.stat_p99_ms", "ms", "wall", quantile(byKind[mams.OpStat], 0.99))
	res.add("fsclient.mkdir_p50_ms", "ms", "wall", median(byKind[mams.OpMkdir]))
	res.add("fsclient.late_share", "%", "wall", 100*float64(late)/float64(total))
	return nil
}

// tracedSim runs one simulator repeat for the simulator's own numbers.
func tracedSim(res *result, cfg config, tr *tracer, root obs.SpanID) error {
	sh := simFull
	if cfg.smoke {
		sh = simSmoke
	}
	rep, err := runSimRepeat(cfg.seed, sh, tr, root)
	if err != nil {
		return err
	}
	res.attempted += rep.completed
	res.failed += rep.failed
	res.add("sim.events_per_s", "1/s", "wall", float64(rep.events)/rep.wall.Seconds())
	res.add("sim.wall_us_per_op", "us", "wall", us(rep.wall)/float64(rep.completed))
	res.add("sim.virt_ops_per_s", "1/s", "virtual", rep.virtOpsPerS)
	return nil
}
