package module

import (
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// The core stages: the paper's fixed in-enclave sequence (classify →
// sketch/audit charge → verdict) decomposed onto the filter's burst
// halves (filter/burst.go). The engine's default chain is [Classify,
// Sketch, Charge]; its observable behavior is pinned by the golden suite
// in internal/engine.

// Classify is the verdict stage: it decides the burst via
// Filter.ClassifyBurst and fans one verdict out per packet. Packets
// already drop-masked by earlier modules skip classification entirely —
// they are written VerdictDrop without touching the filter (no cost
// charge, no filter-stats attribution), exactly like an ingress drop.
type Classify struct {
	F *filter.Filter
}

// Name implements Module.
func (m *Classify) Name() string { return "classify" }

// TelemetryStage maps the stage's sampled time onto StageVerdict.
func (m *Classify) TelemetryStage() telemetry.Stage { return telemetry.StageVerdict }

// ProcessBurst implements Module.
func (m *Classify) ProcessBurst(ctx *BurstCtx) {
	if ctx.MaskedDrops() == 0 {
		ctx.Verdicts = m.F.ClassifyBurst(ctx.Pkts, ctx.Verdicts)
		return
	}
	// Compact the unmasked packets, classify them, scatter the verdicts
	// back; masked slots become VerdictDrop.
	ps := ctx.pktScratch[:0]
	for i := range ctx.Pkts {
		if !ctx.Dropped(i) {
			ps = append(ps, ctx.Pkts[i])
		}
	}
	ctx.pktScratch = ps
	ctx.vScratch = m.F.ClassifyBurst(ps, ctx.vScratch)
	n := len(ctx.Pkts)
	if cap(ctx.Verdicts) < n {
		ctx.Verdicts = make([]filter.Verdict, n)
	} else {
		ctx.Verdicts = ctx.Verdicts[:n]
	}
	k := 0
	for i := range ctx.Pkts {
		if ctx.Dropped(i) {
			ctx.Verdicts[i] = filter.VerdictDrop
		} else {
			ctx.Verdicts[i] = ctx.vScratch[k]
			k++
		}
	}
}

// Flush implements Module (the classify stage stages no deferred state).
func (m *Classify) Flush() {}

// Sketch is the log/stats stage: it folds the staged burst into the
// traffic sketches, per-rule byte counters, the promotion queue, and the
// stats block via Filter.ApplyBurst.
type Sketch struct {
	F *filter.Filter
}

// Name implements Module.
func (m *Sketch) Name() string { return "sketch" }

// TelemetryStage maps the stage's sampled time onto StageCharge.
func (m *Sketch) TelemetryStage() telemetry.Stage { return telemetry.StageCharge }

// ProcessBurst implements Module.
func (m *Sketch) ProcessBurst(ctx *BurstCtx) { m.F.ApplyBurst() }

// Flush implements Module: ApplyBurst is idempotent per staged burst.
func (m *Sketch) Flush() { m.F.ApplyBurst() }

// Charge is the meter stage: it charges the staged burst's accumulated
// cost vector to the enclave meter via Filter.ChargeBurst. It must run
// after Sketch (the sketch-row cost terms are added there).
type Charge struct {
	F *filter.Filter
}

// Name implements Module.
func (m *Charge) Name() string { return "charge" }

// TelemetryStage maps the stage's sampled time onto StageCharge.
func (m *Charge) TelemetryStage() telemetry.Stage { return telemetry.StageCharge }

// ProcessBurst implements Module.
func (m *Charge) ProcessBurst(ctx *BurstCtx) { m.F.ChargeBurst() }

// Flush implements Module: ChargeBurst is idempotent per staged burst.
func (m *Charge) Flush() { m.F.ChargeBurst() }
