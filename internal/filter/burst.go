package filter

import (
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/packet"
)

// This file is the burst-staged decomposition of the data path. The three
// exported halves — ClassifyBurst, ApplyBurst, ChargeBurst — are the exact
// pieces ProcessBatch fuses, split so the engine's module chain can run
// them as separate pipeline stages (and interpose other modules between
// them) without changing what any one stage does. ProcessBatch remains the
// fused composition for serial callers: classify, then apply, then charge,
// over the same staged state.
//
// Staging discipline: ClassifyBurst decides the burst and leaves the flow
// entries plus the accumulated cost vector staged on the filter.
// ApplyBurst folds the staged entries into the sketches/stats; ChargeBurst
// charges the staged cost vector (including sketch-row costs ApplyBurst
// added) to the enclave meter. Apply and Charge are idempotent per staged
// burst — calling either twice is one application — which is what lets a
// module Flush be safely re-issued. All three are filter-thread-only, like
// every data-path method.

// burstState is the between-stage staging area for one decomposed burst.
type burstState struct {
	cv      enclave.CostVector
	staged  bool
	applied bool
	charged bool
}

// ClassifyBurst is the verdict half of ProcessBatch: it ticks the enclave
// clock, deduplicates the burst by five-tuple, decides each distinct flow
// (exact table, compiled classifier, default action, probabilistic hash),
// and fans verdicts out per descriptor. The per-flow entries and the cost
// vector stay staged on the filter for ApplyBurst/ChargeBurst; nothing is
// logged or charged yet. The filter times nothing itself: the engine's
// module chain owns stage timing.
func (f *Filter) ClassifyBurst(ds []packet.Descriptor, verdicts []Verdict) []Verdict {
	n := len(ds)
	if cap(verdicts) < n {
		verdicts = make([]Verdict, n)
	} else {
		verdicts = verdicts[:n]
	}
	f.burst = burstState{}
	if n == 0 {
		return verdicts
	}
	f.burst.staged = true

	f.encl.TickN(uint64(n)) // the clock advances; the decision path never reads it
	view := f.view.Load()
	model := f.encl.Model()
	cv := &f.burst.cv

	switch f.cfg.Mode {
	case CopyModeFull:
		cv.FixedPackets = n
		cv.FullCopies = n
		for i := range ds {
			cv.FullCopyBytes += int(ds[i].Size)
		}
	case CopyModeNearZero:
		cv.FixedPackets = n
		cv.CopyInBytes = n * descriptorBytes
	case CopyModeNative:
		// No boundary crossing; rule access costs are charged at native
		// rates below via the access-ref terms.
	}

	sc := &f.scratch
	sc.reset(n)
	// Pass 1 — dedup + exact table. runIdx short-circuits runs of
	// consecutive packets of one flow (the packet-train structure GRO/GSO
	// exists for): only the first packet of a run pays the five-tuple hash
	// and the dedup probe; the rest are a 16-byte compare. Behavior is
	// identical to probing every packet — the run's tuple is bit-equal, so
	// the probe could only return the same entry. Flows the exact table
	// misses are staged for the breadth-first classifier pass.
	runIdx := -1
	for i := range ds {
		d := &ds[i]
		var ei int
		if runIdx >= 0 && d.Tuple == ds[i-1].Tuple {
			ei = runIdx
		} else {
			var fresh bool
			ei, fresh = sc.lookupOrAdd(d.Tuple, d.Tuple.Hash64())
			if fresh {
				ent := &sc.ents[ei]
				cv.ExactProbes++ // the miss probe still costs
				if v, ok := f.exact.get(ent.tuple, ent.hash); ok {
					ent.verdict, ent.class = v, classExact
				} else {
					sc.clsTuples = append(sc.clsTuples, ent.tuple)
					sc.clsEnts = append(sc.clsEnts, int32(ei))
				}
			}
			runIdx = ei
		}
		ent := &sc.ents[ei]
		ent.count++
		ent.bytes += uint64(d.Size)
		sc.pktEnt[i] = int32(ei)
	}

	// Pass 2 — the burst's distinct exact-miss flows go through the
	// compiled classifier as one breadth-first batch (per-attribute index
	// probes overlap across flows), then each verdict is finished with the
	// same cost charging and rule semantics the scalar path had.
	if len(sc.clsTuples) > 0 {
		res := view.prog.ClassifyBatch(sc.clsTuples, &sc.cls)
		for k, ei := range sc.clsEnts {
			f.finishRule(&sc.ents[ei], res[k], view, model, cv)
		}
	}

	// Pass 3 — fan verdicts out per descriptor.
	for i := range ds {
		verdicts[i] = sc.ents[sc.pktEnt[i]].verdict
	}
	return verdicts
}

// ApplyBurst is the sketch/stats half: it folds the staged burst's flow
// entries into the traffic logs, the per-rule byte counters, the promotion
// queue, and the stats block, and adds the sketch-row costs to the staged
// cost vector. Idempotent per staged burst; a no-op when nothing is staged.
func (f *Filter) ApplyBurst() {
	if !f.burst.staged || f.burst.applied {
		return
	}
	f.burst.applied = true
	f.applyBatch(&f.burst.cv)
}

// ChargeBurst is the meter half: it charges the staged cost vector to the
// enclave meter. It must run after ApplyBurst (the sketch-row terms are
// added there); the default chain orders it so. Idempotent per staged
// burst; a no-op when nothing is staged.
func (f *Filter) ChargeBurst() {
	if !f.burst.staged || f.burst.charged {
		return
	}
	f.burst.charged = true
	f.encl.ChargeBatch(f.burst.cv)
}
