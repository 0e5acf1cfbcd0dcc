package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/pipeline"
)

// ShardMetrics is one shard's live counter snapshot, aggregated over every
// namespace the shard serves. All fields are read from the shard's atomic
// metrics block without synchronizing with the worker, so a snapshot is
// internally consistent only when the engine is quiesced (after
// WaitDrained or Stop); live snapshots are monitoring-grade, like any
// /proc counter.
type ShardMetrics struct {
	// Shard is the shard index.
	Shard int
	// Processed, Allowed, Dropped count filter verdicts.
	Processed, Allowed, Dropped uint64
	// Orphaned counts packets dequeued for a namespace that detached while
	// they sat in the ring: dropped, attributed to no victim.
	Orphaned uint64
	// Faulted counts packets lost to a worker panic mid-burst: counted as
	// processed (the drain invariant holds) but carrying no verdict.
	Faulted uint64
	// Restarts counts worker panic recoveries (worker_restart events).
	Restarts uint64
	// Backpressure counts producer enqueue failures on a full ring.
	Backpressure uint64
	// QueueDepth is the ring occupancy at snapshot time.
	QueueDepth int
	// Epochs is the number of (namespace) epoch rotations this shard has
	// sealed.
	Epochs uint64
	// Promoted counts flows the worker promoted to exact-match entries at
	// epoch boundaries (the hybrid design's learning step in engine mode).
	Promoted uint64
	// PPS is the shard's average processed-packet rate since Start.
	PPS float64
	// Batches counts bursts drained from the ring; AvgBatch is the mean
	// burst occupancy (Processed/Batches) — how full the batch path
	// actually runs, the amortization factor of the per-burst costs.
	Batches  uint64
	AvgBatch float64
	// Parks counts the times the idle worker blocked, Wakes the tokens
	// producers sent to unblock it (control tickets and Stop end parks
	// too), ParkedNs the time it spent blocked, added when a park ends.
	Parks, Wakes, ParkedNs uint64
	// NsPerPacket is the shard's modeled enclave time per filtered packet
	// (the SGX cost meters' virtual nanoseconds, summed over the shard's
	// namespace filters, divided by the packets they decided) — the
	// per-packet cost floor behind the paper's throughput figures.
	NsPerPacket float64
	// Stages is the measured per-module cost breakdown of the shard's
	// burst chains, aggregated by module name across the shard's
	// namespace cells. Figures come from the telemetry recorder's
	// 1-in-N sampled bursts (empty without telemetry).
	Stages []StageMetrics
}

// StageMetrics is one burst module's sampled wall cost on one shard.
type StageMetrics struct {
	// Stage is the module name (classify, sketch, charge, capture, ...).
	Stage string
	// SampledPackets is how many packets sampled bursts carried through
	// the module; NsPerPacket is the module's measured wall nanoseconds
	// per such packet.
	SampledPackets uint64
	NsPerPacket    float64
}

// NamespaceMetrics is one victim namespace's live counter snapshot,
// aggregated across shards.
type NamespaceMetrics struct {
	// NS is the namespace id.
	NS int
	// Processed, Allowed, Dropped count this victim's filter verdicts.
	Processed, Allowed, Dropped uint64
	// Admitted and Throttled are the victim's ingress SLO counters under
	// admission control (Config.Admission): packets past the token-bucket
	// gate (they may still hit ring backpressure) and packets the gate
	// refused. Both zero without admission.
	Admitted, Throttled uint64
	// AdmitRatePps is the victim's current admitted-rate cap in packets/s
	// (0 = uncapped): an explicit AdmitPps, or its weighted share of the
	// engine's TotalPps budget.
	AdmitRatePps float64
	// Epochs is the number of epochs sealed (rotations × shards).
	Epochs uint64
	// Promoted counts flows promoted to exact-match entries.
	Promoted uint64
	// EPCShareBytes is the namespace's apportioned share of each shard
	// machine's EPC.
	EPCShareBytes int
	// PagingPressure is the worst paging exposure across the namespace's
	// enclaves: the fraction of a working set that cannot be EPC-resident
	// under the share (0 when every shard's set fits).
	PagingPressure float64
	// NsPerPacket is the namespace's modeled enclave time per processed
	// packet.
	NsPerPacket float64
}

// NamespaceTombstone is one detached victim namespace's final, exact
// accounting, retained engine-side (bounded by Config.TombstoneLimit) so
// operators of long-lived shared engines can audit tenants after they
// leave.
type NamespaceTombstone struct {
	// Final is exactly what DetachNamespace returned: counters folded
	// after the quiescing fence, so nothing ran for the victim afterwards.
	Final NamespaceMetrics
	// DetachedAt is the control-plane wall-clock detach time. (Enclave
	// clocks are untrusted; this is operator bookkeeping, not evidence.)
	DetachedAt time.Time
}

// Metrics is an engine-wide snapshot.
type Metrics struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardMetrics
	// Namespaces holds one entry per attached victim namespace, in
	// namespace-id order.
	Namespaces []NamespaceMetrics
	// Accepted counts descriptors successfully enqueued across all shards.
	Accepted uint64
	// LBDrops counts descriptors a (faulty) balancer discarded before any
	// shard saw them.
	LBDrops uint64
	// NSDrops counts descriptors stamped with an unattached namespace
	// (typically injections racing a detach): dropped before any shard.
	NSDrops uint64
	// Processed, Allowed, Dropped, Orphaned, Backpressure, Faulted,
	// Restarts aggregate the shard blocks.
	Processed, Allowed, Dropped, Orphaned, Backpressure, Faulted, Restarts uint64
	// Parks, Wakes, ParkedNs aggregate the shards' idle-ladder counters.
	Parks, Wakes, ParkedNs uint64
	// Throttled aggregates the namespaces' admission-refused counters.
	Throttled uint64
	// QueueDepth sums the shard rings' occupancy at snapshot time.
	QueueDepth int
	// Elapsed is the wall-clock time since Start.
	Elapsed time.Duration
	// PPS is the aggregate average processed-packet rate since Start.
	PPS float64
}

// stageAcc accumulates one module name's sampled cost on one shard.
type stageAcc struct {
	name     string
	ns, pkts uint64
}

// mergeStageCosts folds one cell chain's per-module costs into a shard's
// accumulator, keyed by module name, preserving first-seen chain order.
// Chains hold a handful of modules, so the linear scan beats a map.
func mergeStageCosts(acc []stageAcc, costs []module.StageCost) []stageAcc {
	for _, c := range costs {
		found := false
		for j := range acc {
			if acc[j].name == c.Module {
				acc[j].ns += c.Ns
				acc[j].pkts += c.Packets
				found = true
				break
			}
		}
		if !found {
			acc = append(acc, stageAcc{name: c.Module, ns: c.Ns, pkts: c.Packets})
		}
	}
	return acc
}

// nsVirtualDelta returns a cell's engine-era modeled nanoseconds.
func (t *nsShard) virtualDelta() float64 {
	base := math.Float64frombits(t.baseVirtualNs.Load())
	return t.f.Enclave().VirtualNs() - base
}

// Metrics snapshots the per-shard and per-namespace atomic metric blocks.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		Shards:  make([]ShardMetrics, len(e.shards)),
		LBDrops: e.lbDrops.Load(),
		NSDrops: e.nsDrops.Load(),
	}
	m.Accepted = e.accepted.Load()
	// Guard before computing: time.Since on the zero time of a never-
	// started engine would yield a unix-epoch-sized nonsense duration.
	var elapsed time.Duration
	if !e.started.IsZero() {
		elapsed = time.Since(e.started)
	}
	m.Elapsed = elapsed
	secs := elapsed.Seconds()

	nss := *e.nss.Load()
	// Per-shard modeled time: summed over the shard's namespace cells.
	shardVirtual := make([]float64, len(e.shards))
	shardFiltered := make([]uint64, len(e.shards))
	// Per-shard sampled module costs, merged by module name across the
	// shard's namespace cells (only populated with telemetry: without a
	// recorder no burst is ever sampled, so the accumulators stay zero).
	var shardStages [][]stageAcc
	if e.tel != nil {
		shardStages = make([][]stageAcc, len(e.shards))
	}
	for _, ns := range nss {
		if ns == nil {
			continue
		}
		nm := NamespaceMetrics{NS: ns.id}
		var virtual float64
		for i, t := range ns.shards {
			p := t.processed.Load()
			nm.Processed += p
			nm.Allowed += t.allowed.Load()
			nm.Dropped += t.dropped.Load()
			nm.Epochs += t.epochs.Load()
			nm.Promoted += t.promoted.Load()
			if pr := t.f.Enclave().PagingPressure(); pr > nm.PagingPressure {
				nm.PagingPressure = pr
			}
			d := t.virtualDelta()
			virtual += d
			shardVirtual[i] += d
			shardFiltered[i] += p
			if shardStages != nil {
				shardStages[i] = mergeStageCosts(shardStages[i], t.chain.StageCosts())
			}
		}
		if budget := e.budget.Load(); budget != nil {
			nm.EPCShareBytes = budget.Share(ns.id)
		}
		if nm.Processed > 0 {
			nm.NsPerPacket = virtual / float64(nm.Processed)
		}
		if ns.adm != nil {
			nm.Admitted = ns.adm.admitted.Load()
			nm.Throttled = ns.adm.throttled.Load()
			nm.AdmitRatePps = ns.adm.rate()
			m.Throttled += nm.Throttled
		}
		m.Namespaces = append(m.Namespaces, nm)
	}

	for i, s := range e.shards {
		sm := ShardMetrics{
			Shard:        i,
			Processed:    s.processed.Load(),
			Allowed:      s.allowed.Load(),
			Dropped:      s.dropped.Load(),
			Orphaned:     s.orphaned.Load(),
			Faulted:      s.faulted.Load(),
			Restarts:     s.restarts.Load(),
			Backpressure: s.backpressure.Load(),
			QueueDepth:   s.ring.Len(),
			Epochs:       s.epochs.Load(),
			Promoted:     s.promoted.Load(),
			Batches:      s.batches.Load(),
			Parks:        s.parks.Load(),
			Wakes:        s.wakes.Load(),
			ParkedNs:     s.parkedNs.Load(),
		}
		if secs > 0 {
			sm.PPS = float64(sm.Processed) / secs
		}
		if sm.Batches > 0 {
			sm.AvgBatch = float64(sm.Processed) / float64(sm.Batches)
		}
		if shardFiltered[i] > 0 {
			sm.NsPerPacket = shardVirtual[i] / float64(shardFiltered[i])
		}
		if shardStages != nil {
			for _, a := range shardStages[i] {
				st := StageMetrics{Stage: a.name, SampledPackets: a.pkts}
				if a.pkts > 0 {
					st.NsPerPacket = float64(a.ns) / float64(a.pkts)
				}
				sm.Stages = append(sm.Stages, st)
			}
		}
		m.Shards[i] = sm
		m.Processed += sm.Processed
		m.Allowed += sm.Allowed
		m.Dropped += sm.Dropped
		m.Orphaned += sm.Orphaned
		m.Faulted += sm.Faulted
		m.Restarts += sm.Restarts
		m.Backpressure += sm.Backpressure
		m.QueueDepth += sm.QueueDepth
		m.Parks += sm.Parks
		m.Wakes += sm.Wakes
		m.ParkedNs += sm.ParkedNs
	}
	if secs > 0 {
		m.PPS = float64(m.Processed) / secs
	}
	return m
}

// AggregateModeledPps returns the fleet's aggregate modeled capacity in
// packets/s for the given frame size: each (namespace, shard) cell's
// measured SGX virtual time per packet (the calibrated cost-model meter
// driven by the packets the cell actually processed) converted to a
// line-rate-capped rate and summed per shard — the paper's Figure 4
// quantity, where filtering capacity grows linearly with the number of
// parallel enclaves. Cells that processed nothing contribute nothing.
func (e *Engine) AggregateModeledPps(frameSize int) float64 {
	nss := *e.nss.Load()
	shardVirtual := make([]float64, len(e.shards))
	shardProcessed := make([]uint64, len(e.shards))
	// Per-shard pipeline pricing: tenants may run under different platform
	// models, and a shard's fixed pipeline cost is a property of its
	// machine, so weight each cell's PipelineNs by the packets it decided
	// rather than letting any one cell's constant speak for the shard.
	shardPipelineNs := make([]float64, len(e.shards))
	for _, ns := range nss {
		if ns == nil {
			continue
		}
		for i, t := range ns.shards {
			n := t.processed.Load()
			if n == 0 {
				continue
			}
			shardProcessed[i] += n
			shardVirtual[i] += t.virtualDelta()
			shardPipelineNs[i] += float64(n) * t.f.Enclave().Model().PipelineNs
		}
	}
	var total float64
	for i := range e.shards {
		if shardProcessed[i] == 0 {
			continue
		}
		perPkt := (shardVirtual[i] + shardPipelineNs[i]) / float64(shardProcessed[i])
		pps, _ := pipeline.ModeledThroughput(perPkt, frameSize, pipeline.TenGigE)
		total += pps
	}
	return total
}

// String renders a compact operator summary covering every drop class
// (filter verdicts, balancer drops, namespace drops, orphans,
// backpressure) plus the live ring occupancy.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine{shards=%d namespaces=%d accepted=%d processed=%d allowed=%d dropped=%d throttled=%d lbdrops=%d nsdrops=%d orphaned=%d faulted=%d restarts=%d backpressure=%d queue=%d pps=%.0f}",
		len(m.Shards), len(m.Namespaces), m.Accepted, m.Processed, m.Allowed, m.Dropped, m.Throttled, m.LBDrops, m.NSDrops, m.Orphaned, m.Faulted, m.Restarts, m.Backpressure, m.QueueDepth, m.PPS)
	return b.String()
}
