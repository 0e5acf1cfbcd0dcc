package main

import (
	"fmt"
	"os"
	"time"

	"github.com/innetworkfiltering/vif/internal/filter"
)

// liveSpanCap bounds the engine.inject spans kept from the traced
// closed-loop phase, where refused offers return in ~100 ns and would
// otherwise produce millions of spans a second. Past it the clocks are
// still read (the overhead being measured stays) but spans are dropped
// and counted.
const liveSpanCap = 1 << 20

// tracedPass is the -trace 1 run: live phases with a span around every
// InjectBatch, then (engine stopped) the single-threaded replay and the
// private control-plane timings. It returns the per-layer figures.
func (b *bench) tracedPass(pl plan, spanFile string) (map[string]float64, error) {
	m := make(map[string]float64, 64)
	openBursts := func(d time.Duration) int { return int(d.Seconds()*b.w.rateMpps*1e6/burstSize) + 1 }
	runs := 1 // namespace runs per burst
	if b.w.victims > 1 {
		runs = burstSize / b.w.nsRun
	}
	// Replay pass A: burst, hash, enqueue, dequeue and four stages per run;
	// passes B, C and D: one span per run each.
	rec := newRecorder(liveSpanCap + openBursts(pl.rate) + pl.replayBursts*(4+7*runs))

	plain := &phase{name: "sat", dur: pl.sat}
	b.runPhase(plain)
	satMpps := plain.perWindow(mpps)

	rec.limit = liveSpanCap
	b.rec = rec
	traced := &phase{name: "sat-traced", dur: pl.satTraced}
	b.runPhase(traced)
	rec.limit = cap(rec.spans)

	var before []filter.Stats
	for _, f := range b.filters {
		before = append(before, f.Stats())
	}
	rate := &phase{name: "rate", dur: pl.rate, open: true, sampleDepth: true}
	rateSpans := len(rec.spans)
	b.runPhase(rate)
	injectSpans := rec.spans[rateSpans:]
	var st filter.Stats
	for v, f := range b.filters {
		a, z := before[v], f.Stats()
		st.Processed += z.Processed - a.Processed
		st.ExactHits += z.ExactHits - a.ExactHits
		st.RuleHits += z.RuleHits - a.RuleHits
		st.DefaultHits += z.DefaultHits - a.DefaultHits
		st.Hashed += z.Hashed - a.Hashed
	}

	b.rec = nil
	b.countLoss(rate)
	b.eng.Stop()

	// Live figures.
	var injectNs int64
	for _, s := range injectSpans {
		injectNs += s.end - s.start
	}
	m["engine.inject_ns"] = float64(injectNs) / float64(len(injectSpans)*burstSize)
	s0, s1 := plain.edges()
	m["engine.backpressure_frac"] = float64(s1.m.Backpressure-s0.m.Backpressure) / float64(s1.offered-s0.offered)
	m["engine.allocs_per_kpkt"] = float64(plain.mallocs) / float64(s1.m.Processed-s0.m.Processed) * 1e3
	m["engine.trace_overhead_frac"] = 1 - traced.perWindow(mpps)/satMpps
	r0, r1 := rate.edges()
	m["engine.avg_batch"] = float64(r1.m.Processed-r0.m.Processed) / float64(r1.m.Shards[0].Batches-r0.m.Shards[0].Batches)
	m["engine.queue_depth_p50"] = percentile(rate.depth, 0.50)
	m["engine.queue_depth_p90"] = percentile(rate.depth, 0.90)
	lat := make([]float64, len(rate.lat))
	for i, l := range rate.lat {
		lat[i] = float64(l.lat) / 1e3
	}
	byWin := rate.latencyWindows()
	m["engine.lat_p50_us"] = windowQuantile(byWin, 0.50)
	m["engine.lat_p90_us"] = windowQuantile(byWin, 0.90)
	m["engine.lat_p99_us"] = percentile(lat, 0.99)
	late := make([]float64, len(rate.late))
	for i, l := range rate.late {
		late[i] = float64(l) / 1e3
	}
	m["engine.gen_late_p99_us"] = percentile(late, 0.99)
	m["engine.loss_frac"] = rate.perWindow(lossFrac)
	m["engine.refused_raw_frac"], _ = lossFrac(r0, r1)
	// 0 where the workload has no such operation (percentile of nothing).
	m["engine.rule_update_ms"] = median(rate.updateMs)
	m["engine.epoch_rotate_ms"] = median(rate.rotateMs)
	m["engine.throttled_frac"] = float64(r1.m.Throttled-r0.m.Throttled) / float64(r1.offered-r0.offered)
	m["filter.exact_hit_frac"] = float64(st.ExactHits) / float64(st.Processed)
	m["filter.rule_hit_frac"] = float64(st.RuleHits) / float64(st.Processed)
	m["filter.default_hit_frac"] = float64(st.DefaultHits) / float64(st.Processed)
	m["filter.hashed_per_pkt"] = float64(st.Hashed) / float64(st.Processed)
	for _, f := range b.filters {
		e := f.Enclave()
		m["enclave.paged_frac"] = max(m["enclave.paged_frac"], e.Model().PagedFraction(e.MemoryUsed(), e.EPCBudget()))
	}

	// Replay figures: each layer's self time over the packets replayed.
	replayStart := len(rec.spans)
	rc := b.replay(rec, pl.replayBursts)
	tot := layerTotals(rec.spans[replayStart:], int32(replayStart))
	perPkt := func(l layer) float64 { return float64(tot[l]) / float64(rc.packets) }
	m["packet.hash_ns"] = perPkt(layerHash)
	m["pipeline.enqueue_ns"] = perPkt(layerEnqueue)
	m["pipeline.dequeue_ns"] = perPkt(layerDequeue)
	m["filter.classify_burst_ns"] = perPkt(layerClassify)
	m["filter.apply_burst_ns"] = perPkt(layerApply)
	m["filter.charge_burst_ns"] = perPkt(layerCharge)
	m["engine.sink_ns"] = perPkt(layerSink)
	m["module.chain_ns"] = perPkt(layerChain)
	m["module.chain_overhead_ns"] = perPkt(layerChain) - perPkt(layerClassify) - perPkt(layerApply) - perPkt(layerCharge)
	m["classify.batch_ns"] = perPkt(layerClassifyBatch)
	m["classify.compile_ms"] = rc.compileMs
	m["sketch.addmany_ns"] = float64(tot[layerAddMany]) / float64(rc.distinct)
	m["filter.dedup_ratio"] = float64(rc.distinct) / float64(rc.packets)

	// The budget: what one packet costs the worker at saturation, and how
	// much of that the worker-side layers account for.
	worker := 1e3 / satMpps
	layers := perPkt(layerDequeue) + perPkt(layerClassify) + perPkt(layerApply) + perPkt(layerCharge) +
		m["module.chain_overhead_ns"] + perPkt(layerSink)
	m["engine.sat_mpps"] = satMpps
	m["engine.worker_ns"] = worker
	m["engine.unattributed_ns"] = worker - layers
	m["engine.layers_sum_over_e2e"] = layers / worker

	if err := b.controlCosts(m); err != nil {
		return nil, fmt.Errorf("control-plane timings: %w", err)
	}
	if rec.dropped > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d spans beyond the recorder's capacity were dropped\n", b.w.name, rec.dropped)
	}
	if spanFile != "" {
		f, err := os.Create(spanFile)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(f, rec.spans); err != nil {
			f.Close()
			return nil, fmt.Errorf("write %s: %w", spanFile, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
