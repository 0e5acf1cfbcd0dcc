package module

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/innetworkfiltering/vif/internal/faults"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// Stager is optionally implemented by modules whose sampled wall time
// should additionally land in one of the fixed telemetry stage
// histograms (the verdict stage maps to StageVerdict, the sketch and
// charge stages to StageCharge). The chain resolves it once at
// construction; durations of modules sharing a stage are summed so a
// sampled burst still contributes exactly one observation per stage.
type Stager interface {
	TelemetryStage() telemetry.Stage
}

// stageStat is one module's sampled cost accumulator. The owning worker
// adds on sampled bursts; metrics readers load concurrently.
type stageStat struct {
	ns   atomic.Uint64
	pkts atomic.Uint64
}

// StageCost is one module's accumulated sampled cost, for metrics.
type StageCost struct {
	// Module is the module's Name.
	Module string
	// Packets is how many packets sampled bursts carried through the
	// module; Ns is the wall time those bursts spent in it. Ns/Packets is
	// the per-stage ns/pkt figure ShardMetrics and /metrics expose.
	Packets uint64
	Ns      uint64
}

// Chain is one (namespace, shard) cell's ordered module pipeline. Built
// immutably and swapped with the copy-on-write namespace views; Run is
// worker-only, StageCosts is safe from any goroutine.
type Chain struct {
	mods   []Module
	names  []string
	stages []telemetry.Stage // parallel to mods; -1 = no fixed stage
	stats  []stageStat
	faults *faults.Injector
}

// NewChain builds a chain over mods in order. A non-nil injector arms
// the module_fault chaos point: the chain consults it before every
// module invocation and panics in the worker when it fires, exercising
// the supervisor's faulted-burst accounting.
func NewChain(inj *faults.Injector, mods ...Module) *Chain {
	c := &Chain{
		mods:   mods,
		names:  make([]string, len(mods)),
		stages: make([]telemetry.Stage, len(mods)),
		stats:  make([]stageStat, len(mods)),
		faults: inj,
	}
	for i, m := range mods {
		c.names[i] = m.Name()
		c.stages[i] = -1
		if s, ok := m.(Stager); ok {
			c.stages[i] = s.TelemetryStage()
		}
	}
	return c
}

// Modules returns the module names in chain order.
func (c *Chain) Modules() []string {
	return append([]string(nil), c.names...)
}

// Run executes the chain over one burst. On sampled bursts each module's
// wall time is accumulated into its stage stats and the fixed-stage
// histograms; every other burst pays only the interface dispatches.
func (c *Chain) Run(ctx *BurstCtx, rec *telemetry.StageRecorder, sampled bool) {
	if sampled {
		c.runTimed(ctx, rec)
		return
	}
	for i, m := range c.mods {
		if c.faults != nil && c.faults.Should(faults.ModuleFault) {
			panic(fmt.Sprintf("faults: injected module fault before %q (shard %d ns %d)", c.names[i], ctx.Shard, ctx.NS))
		}
		m.ProcessBurst(ctx)
	}
}

func (c *Chain) runTimed(ctx *BurstCtx, rec *telemetry.StageRecorder) {
	var stageNs [telemetry.NumStages]time.Duration
	var stageHit [telemetry.NumStages]bool
	n := uint64(ctx.Len())
	for i, m := range c.mods {
		if c.faults != nil && c.faults.Should(faults.ModuleFault) {
			panic(fmt.Sprintf("faults: injected module fault before %q (shard %d ns %d)", c.names[i], ctx.Shard, ctx.NS))
		}
		start := time.Now()
		m.ProcessBurst(ctx)
		d := time.Since(start)
		c.stats[i].ns.Add(uint64(d))
		c.stats[i].pkts.Add(n)
		if s := c.stages[i]; s >= 0 {
			stageNs[s] += d
			stageHit[s] = true
		}
	}
	for s := range stageNs {
		if stageHit[s] {
			rec.Record(telemetry.Stage(s), stageNs[s])
		}
	}
}

// Flush flushes every module in chain order (idempotent, worker-only).
func (c *Chain) Flush() {
	for _, m := range c.mods {
		m.Flush()
	}
}

// StageCosts snapshots the per-module sampled cost accumulators, in
// chain order. Safe from any goroutine.
func (c *Chain) StageCosts() []StageCost {
	out := make([]StageCost, len(c.mods))
	for i := range c.mods {
		out[i] = StageCost{
			Module:  c.names[i],
			Packets: c.stats[i].pkts.Load(),
			Ns:      c.stats[i].ns.Load(),
		}
	}
	return out
}
