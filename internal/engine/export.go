package engine

import (
	"strconv"

	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// registerCollector publishes the engine's counters as telemetry metric
// families. The dependency points engine → telemetry only: telemetry
// renders whatever families this collector returns, without knowing the
// engine exists. Collect runs on the scrape goroutine and reads the same
// atomic snapshot path Metrics() gives every other consumer.
func (e *Engine) registerCollector() {
	e.tel.Register(telemetry.CollectorFunc(e.collect))
}

func (e *Engine) collect() []telemetry.Metric {
	m := e.Metrics()
	out := make([]telemetry.Metric, 0, 32)

	single := func(name, help string, typ telemetry.MetricType, v float64) {
		out = append(out, telemetry.Metric{
			Name: name, Help: help, Type: typ,
			Samples: []telemetry.Sample{{Value: v}},
		})
	}
	single("vif_engine_shards", "Number of filter shards.", telemetry.Gauge, float64(len(m.Shards)))
	single("vif_engine_namespaces", "Number of attached victim namespaces.", telemetry.Gauge, float64(len(m.Namespaces)))
	single("vif_engine_accepted_total", "Descriptors accepted into shard rings.", telemetry.Counter, float64(m.Accepted))
	single("vif_engine_processed_total", "Descriptors decided by a filter.", telemetry.Counter, float64(m.Processed))
	single("vif_engine_allowed_total", "Descriptors the filters allowed.", telemetry.Counter, float64(m.Allowed))
	single("vif_engine_dropped_total", "Descriptors the filters dropped.", telemetry.Counter, float64(m.Dropped))
	single("vif_engine_orphaned_total", "Descriptors whose namespace detached while they sat in a ring.", telemetry.Counter, float64(m.Orphaned))
	single("vif_engine_lb_drops_total", "Descriptors the balancer discarded before any shard.", telemetry.Counter, float64(m.LBDrops))
	single("vif_engine_ns_drops_total", "Descriptors stamped with an unattached namespace.", telemetry.Counter, float64(m.NSDrops))
	single("vif_engine_backpressure_total", "Producer enqueue failures on full shard rings.", telemetry.Counter, float64(m.Backpressure))
	single("vif_engine_throttled_total", "Descriptors refused at ingress by admission control.", telemetry.Counter, float64(m.Throttled))
	single("vif_engine_faulted_total", "Descriptors lost to worker panics (processed without a verdict).", telemetry.Counter, float64(m.Faulted))
	single("vif_engine_worker_restarts_total", "Shard worker panic recoveries.", telemetry.Counter, float64(m.Restarts))
	single("vif_engine_worker_parks_total", "Times an idle shard worker blocked at the end of the idle ladder.", telemetry.Counter, float64(m.Parks))
	single("vif_engine_worker_wakes_total", "Wake tokens producers sent to parked shard workers.", telemetry.Counter, float64(m.Wakes))
	single("vif_engine_worker_parked_seconds_total", "Time shard workers spent parked, summed over shards (counted when a park ends).", telemetry.Counter, float64(m.ParkedNs)/1e9)
	single("vif_engine_queue_depth", "Descriptors sitting in shard rings.", telemetry.Gauge, float64(m.QueueDepth))
	single("vif_engine_uptime_seconds", "Wall-clock time since Start.", telemetry.Gauge, m.Elapsed.Seconds())
	single("vif_engine_pps", "Average processed packets per second since Start.", telemetry.Gauge, m.PPS)
	single("vif_engine_epc_bytes", "Per-machine EPC apportioned across namespaces.", telemetry.Gauge, float64(e.EPCBytes()))

	shardFam := func(name, help string, typ telemetry.MetricType, get func(ShardMetrics) float64) {
		samples := make([]telemetry.Sample, len(m.Shards))
		for i, sm := range m.Shards {
			samples[i] = telemetry.Sample{
				Labels: []telemetry.Label{{Key: "shard", Value: strconv.Itoa(sm.Shard)}},
				Value:  get(sm),
			}
		}
		out = append(out, telemetry.Metric{Name: name, Help: help, Type: typ, Samples: samples})
	}
	shardFam("vif_shard_processed_total", "Descriptors this shard decided.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Processed) })
	shardFam("vif_shard_allowed_total", "Descriptors this shard allowed.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Allowed) })
	shardFam("vif_shard_dropped_total", "Descriptors this shard dropped.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Dropped) })
	shardFam("vif_shard_orphaned_total", "Orphaned descriptors this shard drained.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Orphaned) })
	shardFam("vif_shard_faulted_total", "Descriptors this shard lost to worker panics.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Faulted) })
	shardFam("vif_shard_restarts_total", "Worker panic recoveries on this shard.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Restarts) })
	shardFam("vif_shard_backpressure_total", "Enqueue failures on this shard's ring.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Backpressure) })
	shardFam("vif_shard_queue_depth", "This shard's ring occupancy.", telemetry.Gauge, func(s ShardMetrics) float64 { return float64(s.QueueDepth) })
	shardFam("vif_shard_epochs_total", "Epoch rotations this shard sealed.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Epochs) })
	shardFam("vif_shard_batches_total", "Bursts this shard drained.", telemetry.Counter, func(s ShardMetrics) float64 { return float64(s.Batches) })
	shardFam("vif_shard_avg_batch", "Mean burst occupancy (processed/batches).", telemetry.Gauge, func(s ShardMetrics) float64 { return s.AvgBatch })
	shardFam("vif_shard_ns_per_packet", "Modeled enclave nanoseconds per packet.", telemetry.Gauge, func(s ShardMetrics) float64 { return s.NsPerPacket })

	// Per-module pipeline costs: one sample per (shard, stage) with
	// sampled data — the burst-chain decomposition of the shard's wall
	// time, measured on the telemetry recorder's sampled bursts.
	var stageSamples, stagePkts []telemetry.Sample
	for _, sm := range m.Shards {
		for _, st := range sm.Stages {
			labels := []telemetry.Label{
				{Key: "shard", Value: strconv.Itoa(sm.Shard)},
				{Key: "stage", Value: st.Stage},
			}
			stageSamples = append(stageSamples, telemetry.Sample{Labels: labels, Value: st.NsPerPacket})
			stagePkts = append(stagePkts, telemetry.Sample{Labels: labels, Value: float64(st.SampledPackets)})
		}
	}
	if len(stageSamples) > 0 {
		out = append(out, telemetry.Metric{
			Name: "vif_shard_stage_ns_per_packet", Help: "Measured wall nanoseconds per packet per burst module (sampled bursts).",
			Type: telemetry.Gauge, Samples: stageSamples,
		})
		out = append(out, telemetry.Metric{
			Name: "vif_shard_stage_sampled_packets_total", Help: "Packets carried through each burst module by sampled bursts.",
			Type: telemetry.Counter, Samples: stagePkts,
		})
	}

	if len(m.Namespaces) > 0 {
		nsFam := func(name, help string, typ telemetry.MetricType, get func(NamespaceMetrics) float64) {
			samples := make([]telemetry.Sample, len(m.Namespaces))
			for i, nm := range m.Namespaces {
				samples[i] = telemetry.Sample{
					Labels: []telemetry.Label{{Key: "ns", Value: strconv.Itoa(nm.NS)}},
					Value:  get(nm),
				}
			}
			out = append(out, telemetry.Metric{Name: name, Help: help, Type: typ, Samples: samples})
		}
		nsFam("vif_namespace_processed_total", "Descriptors decided for this victim.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Processed) })
		nsFam("vif_namespace_allowed_total", "Descriptors allowed for this victim.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Allowed) })
		nsFam("vif_namespace_dropped_total", "Descriptors dropped for this victim.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Dropped) })
		nsFam("vif_namespace_admitted_total", "Descriptors past this victim's admission gate.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Admitted) })
		nsFam("vif_namespace_throttled_total", "Descriptors refused at ingress for this victim.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Throttled) })
		nsFam("vif_namespace_admit_rate_pps", "This victim's admitted-rate cap (0 = uncapped).", telemetry.Gauge, func(n NamespaceMetrics) float64 { return n.AdmitRatePps })
		nsFam("vif_namespace_epochs_total", "Epochs sealed for this victim (rotations x shards).", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Epochs) })
		nsFam("vif_namespace_promoted_total", "Flows promoted to exact-match entries.", telemetry.Counter, func(n NamespaceMetrics) float64 { return float64(n.Promoted) })
		nsFam("vif_namespace_epc_share_bytes", "This victim's apportioned EPC share.", telemetry.Gauge, func(n NamespaceMetrics) float64 { return float64(n.EPCShareBytes) })
		nsFam("vif_namespace_paging_pressure", "Worst-shard fraction of the working set beyond the EPC share.", telemetry.Gauge, func(n NamespaceMetrics) float64 { return n.PagingPressure })
		nsFam("vif_namespace_ns_per_packet", "Modeled enclave nanoseconds per packet.", telemetry.Gauge, func(n NamespaceMetrics) float64 { return n.NsPerPacket })
		nsFam("vif_namespace_epc_used_bytes", "Worst-shard live EPC consumption of this victim's enclaves.", telemetry.Gauge, e.nsEPCUsed)
	}

	single("vif_engine_tombstones", "Retained final-counter records of detached namespaces.", telemetry.Gauge, float64(len(e.Tombstones())))
	return out
}

// nsEPCUsed reads the worst-shard live enclave memory of an attached
// namespace (enclave.Meter reading; 0 once detached).
func (e *Engine) nsEPCUsed(nm NamespaceMetrics) float64 {
	ns := e.lookup(nm.NS)
	if ns == nil {
		return 0
	}
	worst := 0
	for _, t := range ns.shards {
		if u := t.f.Enclave().Meter().MemoryUsed; u > worst {
			worst = u
		}
	}
	return float64(worst)
}
