package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// runTraced produces the per-layer metrics. It runs the workload twice in
// this process, each time for 3/8 of the measured iterations so that the
// whole run costs what an untraced one does: first on the bare transport
// (the untraced reference for trace.overhead_pct), then with every node's
// transport wrapped by the tracer; then the probes. Both phases cover the
// same iterations, so the varint-encoded IDs in their frames have the same
// widths and the byte counts can be compared exactly.
func runTraced(cfg runConfig, progress *atomic.Int64) (*result, error) {
	iters := cfg.tracedIters()
	res := &result{Attempted: cfg.attempted(), Metrics: map[string]metric{}}
	fail := func(failed int, what string, err error) (*result, error) {
		res.Failed = failed
		res.note = fmt.Sprintf("%s: %v", what, err)
		return res, nil
	}

	ref, err := openSession(cfg, nil, progress)
	if err != nil {
		return nil, err
	}
	refPhase := ref.measureChecked(iters)
	ref.tb.stop()
	if refPhase.err != nil {
		// The traced phase is not attempted after this; it fails whole.
		return fail(refPhase.failed+iters, "untraced reference", refPhase.err)
	}

	// Capture the frames of a mid-run iteration that carries no schedule
	// change (churn_mem edits ride iterations k = i+1 divisible by 5).
	capture := int64(iters / 2)
	if (capture+1)%migrateEvery == 0 {
		capture++
	}
	tr := &tracer{captureIter: capture}
	s, err := openSession(cfg, tr, progress)
	if err != nil {
		return nil, err
	}
	setup := s.tb.counters()
	p := s.measureChecked(iters)
	total := s.tb.counters()
	s.tb.stop()
	if p.err != nil {
		return fail(p.failed, "traced phase", p.err)
	}

	// The wrapper must see what the controller says it sent, and tracing
	// must not change what is sent.
	down := &tr.stats[ctlWkr][1]
	if got, want := uint64(down.bytes.Load()), p.delta[cBytes]; got != want {
		return fail(0, "wrapper check", fmt.Errorf("wrapper counted %d controller-to-worker bytes, Controller.Stats %d", got, want))
	}
	if ref, traced := refPhase.delta[cBytes], p.delta[cBytes]; !cfg.w.churn && ref != traced {
		// churn_mem is exempt: the indexes its edits carry depend on map
		// iteration order inside the controller.
		return fail(0, "wrapper check", fmt.Errorf("controller sent %d bytes untraced, %d traced", ref, traced))
	}

	layerMetrics(res, s.blk, p, refPhase, tr, setup, total)
	plan, err := probeCore(res, s.blk)
	if err != nil {
		return fail(0, "core probe", err)
	}
	if err := probeCodec(res, tr.captured, plan.a.InstallMessage(1, s.blk.name), 50); err != nil {
		return fail(0, "codec probe", err)
	}
	if err := probeData(res); err != nil {
		return fail(0, "data probe", err)
	}
	if err := probeTransport(res, cfg.w.tcp, cfg.probeTrips, cfg.probeBytes); err != nil {
		return fail(0, "transport probe", err)
	}

	driverSpans := make([]span, 0, 3*len(p.iterNs))
	for i := range p.iterNs {
		it, st := int64(i), p.starts[i]
		inst, whole := time.Duration(p.instNs[i]), time.Duration(p.iterNs[i])
		driverSpans = append(driverSpans,
			span{name: "iter", iter: it, start: st, dur: whole},
			span{name: "driver.instantiate", iter: it, start: st, dur: inst},
			span{name: "driver.barrier", iter: it, start: st + inst, dur: whole - inst})
	}
	if err := writeSpans(cfg.spans, driverSpans, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %d driver, %d send (every %dth iteration) in %s\n", len(driverSpans), len(tr.spans), sendSpanStride, cfg.spans)
	res.Correct = true
	return res, nil
}

// ratio is a/b, or 0 when the workload never exercised the denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of the traced phase p from
// the wrapper's counts, the driver-side timestamps and the Stats deltas.
// setup and total are the counters after set-up and at the end: install
// and build costs are paid before the measured phase begins.
func layerMetrics(res *result, b *block, p, ref phase, tr *tracer, setup, total counters) {
	n := float64(len(p.iterNs))
	tasks := float64(b.tasksPerIter())
	d := p.delta
	f := func(v uint64) float64 { return float64(v) }

	var instSum, iterSum int64
	for i := range p.iterNs {
		instSum += p.instNs[i]
		iterSum += p.iterNs[i]
	}
	sorted := sortedCopy(p.iterNs)
	res.set("driver.instantiate_us", float64(instSum)/n/1e3, "us")
	res.set("driver.barrier_wait_us", float64(iterSum-instSum)/n/1e3, "us")
	res.set("driver.iter_ms_p99", float64(percentile(sorted, 0.99))/1e6, "ms")
	res.set("driver.iter_ms_max", float64(sorted[len(sorted)-1])/1e6, "ms")

	var sendNs int64
	for l := drvCtl; l < numLinks; l++ {
		frames, bytes, nanos := tr.total(l)
		sendNs += nanos
		name := "transport." + linkNames[l]
		res.set(name+".frames_per_iter", float64(frames)/n, "count")
		res.set(name+".bytes_per_iter", float64(bytes)/n, "B")
		res.set(name+".send_us_per_frame", ratio(float64(nanos), float64(frames))/1e3, "us")
	}

	res.set("controller.instantiate_us_per_iter", f(d[cCtlInstantiateNs])/n/1e3, "us")
	res.set("controller.validate_us_per_iter", f(d[cValidateNs])/n/1e3, "us")
	res.set("controller.msgs_per_iter", f(d[cMsgs])/n, "count")
	res.set("controller.frames_per_iter", f(d[cFrames])/n, "count")
	res.set("controller.bytes_per_iter", f(d[cBytes])/n, "B")
	res.set("controller.build_us_per_task", f(setup[cBuildNs])/tasks/1e3, "us")
	res.set("controller.migrate_us_per_edit", ratio(f(d[cMigrateNs]), f(d[cEditsSent]))/1e3, "us")
	res.set("controller.migrate_call_ms", ratio(p.migrateCall.Seconds()*1e3, float64(p.migrations)), "ms")
	res.set("controller.setactive_ms", ratio(p.resize.Seconds()*1e3, float64(p.resizes)), "ms")
	res.set("controller.edits_per_migration", ratio(f(d[cEditsSent]), float64(p.migrations)), "count")
	res.set("controller.patch_build_us", ratio(f(d[cPatchBuildNs]), f(d[cPatchesBuilt]))/1e3, "us")
	res.set("controller.patch_cache_hit_ratio", ratio(f(d[cPatchCacheHits]), f(d[cPatchCacheHits]+d[cPatchesBuilt])), "ratio")
	res.set("controller.build_retries", f(total[cBuildRetries]), "count")

	res.set("worker.instantiate_ns_per_cmd", ratio(f(d[cWkrInstantiateNs]), f(d[cInstantiateCmds])), "ns")
	res.set("worker.install_us_per_template", ratio(f(total[cInstallNs]), f(total[cTemplatesSeen]))/1e3, "us")
	res.set("worker.compile_us_per_template", ratio(f(total[cCompileNs]), f(total[cCompiles]))/1e3, "us")
	res.set("worker.units_reused_ratio", ratio(f(d[cUnitsReused]), f(d[cActivations])), "ratio")
	res.set("worker.tasks_run_per_iter", f(d[cTasksRun])/n, "count")
	res.set("worker.copies_sent_per_iter", f(d[cCopiesSent])/n, "count")
	res.set("worker.chunks_per_iter", f(d[cChunksSent])/n, "count")
	res.set("worker.parked_sends", f(d[cParkedSends]), "count")
	res.set("worker.spills", f(d[cSpills]), "count")

	res.set("dataplane.goodput_mb_per_s", float64(tr.stats[wkrWkr][0].bytes.Load())/1e6/p.wall.Seconds(), "MB/s")

	// Attribution: what the outside can see being worked on, against the
	// iteration wall. The driver's own sends sit inside its spans and are
	// left out of the send time; nodes work in parallel, so the share can
	// pass 1 and the remainder can be negative.
	drvSend := tr.stats[drvCtl][0].nanos.Load()
	attributed := float64(instSum) + float64(sendNs-drvSend) +
		f(d[cCtlInstantiateNs]+d[cValidateNs]+d[cPatchBuildNs]+d[cMigrateNs]) +
		f(d[cWkrInstantiateNs]+d[cInstallNs]+d[cCompileNs])
	res.set("trace.attributed_share", attributed/float64(iterSum), "ratio")
	res.set("trace.unattributed_us_per_iter", (float64(iterSum)-attributed)/n/1e3, "us")
	tracedRate := tasks * n / p.wall.Seconds()
	refRate := tasks * float64(len(ref.iterNs)) / ref.wall.Seconds()
	res.set("trace.overhead_pct", (1-tracedRate/refRate)*100, "%")
}
