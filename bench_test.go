// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, exercising the real implementations (wall-clock
// ns/op) and reporting the calibrated SGX cost model's virtual time as a
// custom metric where the paper's number is a modeled quantity. The
// experiment harness (cmd/vif-experiments) prints the corresponding
// paper-style tables; EXPERIMENTS.md records the comparison.
package vif_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/innetworkfiltering/vif/internal/attack"
	"github.com/innetworkfiltering/vif/internal/attest"
	"github.com/innetworkfiltering/vif/internal/bgp"
	"github.com/innetworkfiltering/vif/internal/dist"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/ixp"
	"github.com/innetworkfiltering/vif/internal/netsim"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/pipeline"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/telemetry"
	"github.com/innetworkfiltering/vif/internal/trie"
)

// --- shared fixtures -----------------------------------------------------

func benchRules(b *testing.B, k int, pAllow float64) *rules.Set {
	return benchRulesSeed(b, k, pAllow, 1)
}

func benchRulesSeed(b *testing.B, k int, pAllow float64, seed int64) *rules.Set {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := make([]rules.Rule, k)
	dst := rules.MustParsePrefix("192.0.2.0/24")
	for i := range rs {
		rs[i] = rules.Rule{
			Src:    rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:    dst,
			Proto:  packet.ProtoUDP,
			PAllow: pAllow,
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

func benchFilter(b *testing.B, set *rules.Set, mode filter.CopyMode) *filter.Filter {
	b.Helper()
	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "bench", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	f, err := filter.New(e, set, filter.Config{Mode: mode, DisablePromotion: true})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func benchDescriptors(b *testing.B, set *rules.Set, size int) []packet.Descriptor {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	victim := packet.MustParseIP("192.0.2.77")
	out := make([]packet.Descriptor, 1024)
	for i := range out {
		r := set.Rules[rng.Intn(set.Len())]
		out[i] = packet.Descriptor{
			Tuple: packet.FiveTuple{
				SrcIP:   r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP:   victim,
				SrcPort: uint16(rng.Intn(60000) + 1),
				DstPort: 53,
				Proto:   packet.ProtoUDP,
			},
			Size: uint16(size),
			Ref:  packet.NoRef,
		}
	}
	return out
}

// runFilterBench processes b.N packets and reports both real ns/op and the
// SGX cost model's virtual ns/packet (the quantity behind the paper's
// throughput figures).
func runFilterBench(b *testing.B, set *rules.Set, mode filter.CopyMode, size int) {
	f := benchFilter(b, set, mode)
	descs := benchDescriptors(b, set, size)
	e := f.Enclave()
	e.ResetMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(descs[i&1023])
	}
	b.StopTimer()
	perPkt := e.VirtualNs()/float64(b.N) + e.Model().PipelineNs
	b.ReportMetric(perPkt, "modeled-ns/pkt")
	pps, _ := pipeline.ModeledThroughput(perPkt, size, pipeline.TenGigE)
	b.ReportMetric(pps/1e6, "modeled-Mpps")
}

// --- Figure 3a: throughput vs rule count ----------------------------------

func BenchmarkFig3a_Rules100(b *testing.B) {
	runFilterBench(b, benchRules(b, 100, 0), filter.CopyModeNearZero, 64)
}
func BenchmarkFig3a_Rules3000(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNearZero, 64)
}
func BenchmarkFig3a_Rules10000(b *testing.B) {
	runFilterBench(b, benchRules(b, 10000, 0), filter.CopyModeNearZero, 64)
}

// --- Figure 3b: memory footprint vs rule count -----------------------------

func BenchmarkFig3b_MemoryFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		set := benchRules(b, 3000, 0)
		b.StartTimer()
		f := benchFilter(b, set, filter.CopyModeNearZero)
		b.StopTimer()
		if i == 0 {
			b.ReportMetric(float64(f.Enclave().MemoryUsed())/1e6, "MB@3000rules")
		}
		b.StartTimer()
	}
}

// --- Figures 8 & 13: copy modes x packet sizes ------------------------------

func BenchmarkFig8_Native64(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNative, 64)
}
func BenchmarkFig8_FullCopy64(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeFull, 64)
}
func BenchmarkFig8_NearZeroCopy64(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNearZero, 64)
}
func BenchmarkFig13_Native1500(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNative, 1500)
}
func BenchmarkFig13_FullCopy1500(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeFull, 1500)
}
func BenchmarkFig13_NearZeroCopy1500(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNearZero, 1500)
}

// --- §V-B latency -----------------------------------------------------------

func BenchmarkLatency_128B(b *testing.B) {
	set := benchRules(b, 3000, 0)
	f := benchFilter(b, set, filter.CopyModeNearZero)
	descs := benchDescriptors(b, set, 128)
	m := pipeline.DefaultLatencyModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(descs[i&1023])
	}
	b.StopTimer()
	perPkt := f.Enclave().VirtualNs() / float64(b.N)
	lat := m.Latency(8e9, 128, perPkt)
	b.ReportMetric(float64(lat.Nanoseconds())/1000, "modeled-latency-us")
}

// --- Figure 14: hash-based filtering ----------------------------------------

func BenchmarkFig14_NoHashing(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0), filter.CopyModeNearZero, 64)
}
func BenchmarkFig14_AllHashed(b *testing.B) {
	runFilterBench(b, benchRules(b, 3000, 0.5), filter.CopyModeNearZero, 64)
}

// --- Table II: trie batch insertion -----------------------------------------

func benchmarkTrieBatchInsert(b *testing.B, batch int) {
	rng := rand.New(rand.NewSource(3))
	base := benchRules(b, 3000, 0)
	exact := make([]rules.Rule, batch)
	for i := range exact {
		exact[i] = rules.Rule{
			ID:      uint32(100000 + i),
			Src:     rules.Prefix{Addr: rng.Uint32(), Len: 32},
			Dst:     rules.Prefix{Addr: packet.MustParseIP("192.0.2.8"), Len: 32},
			SrcPort: rules.Port(uint16(rng.Intn(60000) + 1)),
			DstPort: rules.Port(53),
			Proto:   packet.ProtoUDP,
		}
	}
	// One base table; each iteration inserts a fresh batch of distinct
	// exact-match rules (rebuilding the 3,000-rule base per iteration
	// would dominate wall clock without changing the measured insert).
	tbl := trie.NewDefault()
	tbl.InsertSet(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range exact {
			exact[j].ID = uint32(100000 + i*batch + j)
			exact[j].Src.Addr += uint32(batch) // fresh anchors per round
		}
		tbl.InsertBatch(exact, 3000+i*batch)
	}
}

func BenchmarkTable2_BatchInsert1(b *testing.B)    { benchmarkTrieBatchInsert(b, 1) }
func BenchmarkTable2_BatchInsert10(b *testing.B)   { benchmarkTrieBatchInsert(b, 10) }
func BenchmarkTable2_BatchInsert100(b *testing.B)  { benchmarkTrieBatchInsert(b, 100) }
func BenchmarkTable2_BatchInsert1000(b *testing.B) { benchmarkTrieBatchInsert(b, 1000) }

// --- Table I / Figure 9: rule distribution ----------------------------------

func benchmarkGreedy(b *testing.B, k int, totalBps float64) {
	rng := rand.New(rand.NewSource(4))
	bw := netsim.LognormalBandwidths(rng, k, totalBps, netsim.DefaultSigma)
	bw, _ = netsim.ClampToCapacity(bw, 10e9)
	in := dist.Instance{
		B: bw, G: 10e9, M: 92e6, U: 92e6 / 3000, V: 2e6, Alpha: 1, Lambda: 0.2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Greedy(in, dist.GreedyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Greedy5000(b *testing.B)  { benchmarkGreedy(b, 5000, 100e9) }
func BenchmarkTable1_Greedy15000(b *testing.B) { benchmarkGreedy(b, 15000, 100e9) }

func BenchmarkTable1_ExactFirstIncumbent500(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bw := netsim.LognormalBandwidths(rng, 500, 100e9, netsim.DefaultSigma)
	bw, _ = netsim.ClampToCapacity(bw, 10e9)
	in := dist.Instance{
		B: bw, G: 10e9, M: 92e6, U: 92e6 / 3000, V: 2e6, Alpha: 1, Lambda: 0.2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.SolveExact(in, dist.ExactOptions{
			StopAtFirst: true, Deadline: 30 * time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_Greedy150K(b *testing.B) { benchmarkGreedy(b, 150000, 500e9) }

// --- Batch data path: scalar vs burst processing ------------------------------

// benchTrainDescriptors is the allow-heavy workload for the batch-path
// comparison: every flow matches a deterministic allow rule (so both
// packet logs are updated — the most work per allowed packet) and emits
// trains of consecutive packets, the burst structure real traffic has
// (TCP segments arrive back-to-back; GRO/GSO exist because of it).
func benchTrainDescriptors(b *testing.B, set *rules.Set, train, size int) []packet.Descriptor {
	b.Helper()
	rng := rand.New(rand.NewSource(21))
	victim := packet.MustParseIP("192.0.2.77")
	out := make([]packet.Descriptor, 4096)
	for i := 0; i < len(out); i += train {
		r := set.Rules[rng.Intn(set.Len())]
		d := packet.Descriptor{
			Tuple: packet.FiveTuple{
				SrcIP:   r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP:   victim,
				SrcPort: uint16(rng.Intn(60000) + 1),
				DstPort: 53,
				Proto:   packet.ProtoUDP,
			},
			Size: uint16(size),
			Ref:  packet.NoRef,
		}
		for j := 0; j < train && i+j < len(out); j++ {
			out[i+j] = d
		}
	}
	return out
}

// BenchmarkFilterProcess is the retained scalar path: one Process call per
// packet, the pre-batching data plane.
func BenchmarkFilterProcess(b *testing.B) {
	set := benchRules(b, 3000, 1) // allow-heavy: every rule allows
	f := benchFilter(b, set, filter.CopyModeNearZero)
	descs := benchTrainDescriptors(b, set, 4, 64)
	e := f.Enclave()
	e.ResetMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(descs[i&4095])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
	b.ReportMetric(e.VirtualNs()/float64(b.N), "modeled-ns/pkt")
}

// BenchmarkFilterBatch drives the same allow-heavy stream through
// ProcessBatch in engine-sized 64-packet bursts with a pooled verdict
// slice — the acceptance comparison for the batch-first refactor.
func BenchmarkFilterBatch(b *testing.B) {
	set := benchRules(b, 3000, 1)
	f := benchFilter(b, set, filter.CopyModeNearZero)
	descs := benchTrainDescriptors(b, set, 4, 64)
	e := f.Enclave()
	e.ResetMeter()
	var verdicts []filter.Verdict
	b.ResetTimer()
	n := 0
	for n < b.N {
		start := n & 4095
		end := start + 64
		if end > 4096 {
			end = 4096
		}
		if remaining := b.N - n; end-start > remaining {
			end = start + remaining
		}
		verdicts = f.ProcessBatch(descs[start:end], verdicts)
		n += end - start
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
	b.ReportMetric(e.VirtualNs()/float64(b.N), "modeled-ns/pkt")
}

// --- Figure 4: engine shard scaling (wall clock) ------------------------------

// benchmarkEngineWallScaling is the honest successor of the modeled-only
// shard benchmark: `shards` producer goroutines drive b.N descriptors
// through the live engine's batched injection path (256-packet bursts,
// one routing pass and one ring reservation per shard per burst) while
// `shards` workers drain and filter them — real goroutines, real rings,
// wall clock. It reports:
//
//   - wall-Mpps: b.N divided by elapsed wall time — the rate this machine
//     actually sustained end to end, injection included. This is the
//     number the ROADMAP's "fast as the hardware allows" north star means,
//     and the one the CI gate compares across shard counts;
//   - aggregate-modeled-Mpps: the fleet's summed per-shard modeled
//     capacity (measured SGX virtual ns/pkt converted to a line-rate-
//     capped rate) — the paper's Figure 4 quantity, host-independent,
//     kept so the two scaling stories can be told apart;
//   - host-cpus: GOMAXPROCS at run time. Wall-clock scaling with shards
//     is physically bounded by this; the bench gate only enforces
//     4-shard > 1-shard when the host has parallelism to give.
//
// Flows spread across shards by five-tuple hash, as an honest balancer
// with uniform shares would steer them.
func benchmarkEngineWallScaling(b *testing.B, shards int) {
	set := benchRules(b, 3000, 0)
	fs := make([]*filter.Filter, shards)
	for i := range fs {
		fs[i] = benchFilter(b, set, filter.CopyModeNearZero)
	}
	eng, err := engine.New(engine.Config{Filters: fs})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	descs := benchDescriptors(b, set, 64)
	const burst = 256
	producers := shards
	// remaining is decremented by ACCEPTED counts, not by optimistic
	// claims: InjectBatch drops what full rings refuse (its return is not
	// a resumable prefix), so producers keep offering fresh windows until
	// the fleet has actually swallowed b.N descriptors. The final bursts
	// may overshoot by < producers*burst — the reported rate therefore
	// divides what was really accepted, not b.N.
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			off := (p * burst) & 1023
			for remaining.Load() > 0 {
				win := descs[off : off+burst]
				off = (off + burst) & 1023
				k := eng.InjectBatch(win)
				if k == 0 {
					runtime.Gosched() // rings full: workers are the bottleneck
					continue
				}
				remaining.Add(-int64(k))
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	b.StopTimer()
	accepted := eng.Metrics().Accepted
	b.ReportMetric(float64(accepted)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
	b.ReportMetric(eng.AggregateModeledPps(64)/1e6, "aggregate-modeled-Mpps")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "host-cpus")
}

func BenchmarkEngineWallScaling1(b *testing.B) { benchmarkEngineWallScaling(b, 1) }
func BenchmarkEngineWallScaling2(b *testing.B) { benchmarkEngineWallScaling(b, 2) }
func BenchmarkEngineWallScaling4(b *testing.B) { benchmarkEngineWallScaling(b, 4) }
func BenchmarkEngineWallScaling8(b *testing.B) { benchmarkEngineWallScaling(b, 8) }

// --- Telemetry overhead: observability must stay off the hot path -------------

// benchmarkEngineTelemetry holds the 2-shard wall-scaling workload
// constant and varies only whether the observability plane is attached.
// The On variant runs telemetry at its production defaults (1-in-64 burst
// stage sampling, 1-in-4096 batch packet traces, journal on), so the
// measured delta is exactly what an operator pays for flipping
// -metrics-addr on. The CI gate holds On at >= 0.97x Off: sampling,
// nil-guarded recorders, and the single per-burst Outstanding() load are
// the whole per-packet bill, and if the gate trips, telemetry has leaked
// real work onto the per-packet path.
func benchmarkEngineTelemetry(b *testing.B, tel *telemetry.Telemetry) {
	const shards = 2
	set := benchRules(b, 3000, 0)
	fs := make([]*filter.Filter, shards)
	for i := range fs {
		fs[i] = benchFilter(b, set, filter.CopyModeNearZero)
	}
	eng, err := engine.New(engine.Config{Filters: fs, Telemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	descs := benchDescriptors(b, set, 64)
	const burst = 256
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			off := (p * burst) & 1023
			for remaining.Load() > 0 {
				win := descs[off : off+burst]
				off = (off + burst) & 1023
				k := eng.InjectBatch(win)
				if k == 0 {
					runtime.Gosched()
					continue
				}
				remaining.Add(-int64(k))
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	b.StopTimer()
	accepted := eng.Metrics().Accepted
	b.ReportMetric(float64(accepted)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
	if tel != nil {
		started, completed := tel.Tracer().Counts()
		b.ReportMetric(float64(started), "traces-started")
		b.ReportMetric(float64(completed), "traces-completed")
	}
}

func BenchmarkEngineTelemetryOff(b *testing.B) { benchmarkEngineTelemetry(b, nil) }

func BenchmarkEngineTelemetryOn(b *testing.B) {
	benchmarkEngineTelemetry(b, telemetry.New(telemetry.Config{Shards: 2}))
}

// --- Multi-victim namespaces: dispatch must stay off the hot path -------------

// benchmarkEngineMultiVictim holds the machine workload constant — two
// shards, two producers, the same per-burst injection pattern — and
// varies only how many victim namespaces the one engine serves. Each
// victim brings its own rule set (one filter per shard) and its own
// descriptor stream stamped with its namespace id, so the measured
// quantity is the cost of namespace dispatch itself: the copy-on-write
// view load per burst plus the 2-byte NS compares that split bursts into
// runs. The CI gate holds 4-namespace wall pps at ≥ 0.7x the
// single-namespace figure — if dispatch ever lands on the per-packet
// path, this collapses and the gate trips.
func benchmarkEngineMultiVictim(b *testing.B, victims int) {
	const (
		shards    = 2
		producers = 2
		burst     = 256
	)
	eng, err := engine.New(engine.Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	streams := make([][]packet.Descriptor, victims)
	for v := 0; v < victims; v++ {
		set := benchRulesSeed(b, 256, 0, int64(v+1))
		fs := make([]*filter.Filter, shards)
		for i := range fs {
			fs[i] = benchFilter(b, set, filter.CopyModeNearZero)
		}
		ns, err := eng.AttachNamespace(engine.NamespaceConfig{Filters: fs})
		if err != nil {
			b.Fatal(err)
		}
		descs := benchDescriptors(b, set, 64)
		for i := range descs {
			descs[i].NS = uint16(ns)
		}
		streams[v] = descs
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			off := (p * burst) & 1023
			for v := p % victims; remaining.Load() > 0; v = (v + 1) % victims {
				win := streams[v][off : off+burst]
				off = (off + burst) & 1023
				k := eng.InjectBatch(win)
				if k == 0 {
					runtime.Gosched()
					continue
				}
				remaining.Add(-int64(k))
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	b.StopTimer()
	accepted := eng.Metrics().Accepted
	b.ReportMetric(float64(accepted)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
	b.ReportMetric(float64(victims), "victims")
}

func BenchmarkEngineMultiVictim1(b *testing.B)  { benchmarkEngineMultiVictim(b, 1) }
func BenchmarkEngineMultiVictim4(b *testing.B)  { benchmarkEngineMultiVictim(b, 4) }
func BenchmarkEngineMultiVictim16(b *testing.B) { benchmarkEngineMultiVictim(b, 16) }

// --- Overload isolation: one flooded victim must not starve the quiet ones ----

// benchmarkEngineIsolation measures what per-victim admission control
// buys: the quiet victims' wall throughput with an attacked neighbor on
// the same engine versus without one. The attacked victim carries a low
// explicit AdmitPps cap (the knob an operator turns mid-attack), so its
// flood is clipped at ingress — marker writes, no route, no ring, no
// filter work — and the quiet victims keep their shard and EPC shares.
//
// Both phases use ONE producer injecting the same quiet-victim pattern;
// the attacked phase interleaves one attacker burst per quiet burst (a
// 1:1 offered-load flood). Single-producer on purpose: on a small host a
// second producer goroutine would turn the ratio into a scheduler
// measurement. The gate (scripts/bench_engine.sh, quiet_victim_ge_09)
// holds attacked/solo quiet throughput at >= 0.9.
func benchmarkEngineIsolation(b *testing.B, attacked bool) {
	const (
		shards = 2
		quiet  = 3
		burst  = 256
	)
	eng, err := engine.New(engine.Config{
		Shards:    shards,
		Admission: &engine.AdmissionConfig{Burst: 512},
	})
	if err != nil {
		b.Fatal(err)
	}
	// The attacked victim is attached in BOTH phases (same EPC and share
	// layout); only its flood is phase-dependent.
	atkSet := benchRulesSeed(b, 256, 0, 99)
	atkFilters := make([]*filter.Filter, shards)
	for i := range atkFilters {
		atkFilters[i] = benchFilter(b, atkSet, filter.CopyModeNearZero)
	}
	nsAtk, err := eng.AttachNamespace(engine.NamespaceConfig{
		Filters: atkFilters, AdmitPps: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	atkDescs := benchDescriptors(b, atkSet, 64)
	for i := range atkDescs {
		atkDescs[i].NS = uint16(nsAtk)
	}
	streams := make([][]packet.Descriptor, quiet)
	for v := 0; v < quiet; v++ {
		set := benchRulesSeed(b, 256, 0, int64(v+1))
		fs := make([]*filter.Filter, shards)
		for i := range fs {
			fs[i] = benchFilter(b, set, filter.CopyModeNearZero)
		}
		ns, err := eng.AttachNamespace(engine.NamespaceConfig{Filters: fs})
		if err != nil {
			b.Fatal(err)
		}
		descs := benchDescriptors(b, set, 64)
		for i := range descs {
			descs[i].NS = uint16(ns)
		}
		streams[v] = descs
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()

	remaining := b.N
	quietAccepted := 0
	off, atkOff := 0, 0
	b.ResetTimer()
	for v := 0; remaining > 0; v = (v + 1) % quiet {
		if attacked {
			eng.InjectBatch(atkDescs[atkOff : atkOff+burst])
			atkOff = (atkOff + burst) & 1023
		}
		win := streams[v][off : off+burst]
		off = (off + burst) & 1023
		k := eng.InjectBatch(win)
		if k == 0 {
			runtime.Gosched()
			continue
		}
		quietAccepted += k
		remaining -= k
	}
	eng.WaitDrained()
	b.StopTimer()
	b.ReportMetric(float64(quietAccepted)/b.Elapsed().Seconds()/1e6, "quiet-wall-Mpps")
	if attacked {
		nm := eng.Metrics().Namespaces
		var throttled uint64
		for _, n := range nm {
			if n.NS == nsAtk {
				throttled = n.Throttled
			}
		}
		b.ReportMetric(float64(throttled), "attacker-throttled")
	}
}

func BenchmarkEngineIsolationSolo(b *testing.B)     { benchmarkEngineIsolation(b, false) }
func BenchmarkEngineIsolationAttacked(b *testing.B) { benchmarkEngineIsolation(b, true) }

// --- Filter.Reconfigure latency vs rule-set size -------------------------------

// benchmarkReconfigure times a full rule-set reinstall — classifier
// compile, exact-table reset, view swap — at growing rule counts. ns/op
// here is the baseline the incremental ReconfigureDelta path below has to
// beat; recorded in BENCH_engine.json.
func benchmarkReconfigure(b *testing.B, k int) {
	set := benchRules(b, k, 0)
	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "bench", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	f, err := filter.New(e, set, filter.Config{Mode: filter.CopyModeNearZero})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Reconfigure(set, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(k), "rules")
}

func BenchmarkReconfigure1k(b *testing.B)  { benchmarkReconfigure(b, 1000) }
func BenchmarkReconfigure10k(b *testing.B) { benchmarkReconfigure(b, 10000) }
func BenchmarkReconfigure25k(b *testing.B) { benchmarkReconfigure(b, 25000) }

// benchmarkReconfigureDelta is the incremental counterpart: the same
// filter sizes, but each iteration pushes a ≤1%-of-rules changeset
// (remove the previous iteration's batch, add a fresh one) through
// ReconfigureDelta — classify.Program.Delta patching the touched
// interval tables — instead of recompiling. The full-rebuild numbers
// above are the baseline this must beat: scripts/bench_engine.sh gates
// the 10k and 25k ratios at ≥1.5x. The iteration budget matters: the
// filter's priority-domain densify recompile fires after ~100
// consecutive 1% deltas, so the script runs this sweep at 120 iterations
// (DELTA_BENCHTIME) precisely so the gated mean spans at least one cycle
// of that amortized cost — steady-state churn, not the best case.
func benchmarkReconfigureDelta(b *testing.B, k int) {
	set := benchRules(b, k, 0)
	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "bench", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	f, err := filter.New(e, set, filter.Config{Mode: filter.CopyModeNearZero})
	if err != nil {
		b.Fatal(err)
	}
	n := k / 100 // 1% churn per reinstall
	rng := rand.New(rand.NewSource(42))
	dst := rules.MustParsePrefix("192.0.2.0/24")
	var prev []rules.Rule
	nextID := uint32(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		adds := make([]rules.Rule, n)
		for j := range adds {
			adds[j] = rules.Rule{
				ID:    nextID,
				Src:   rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
				Dst:   dst,
				Proto: packet.ProtoUDP,
			}
			nextID++
		}
		b.StartTimer()
		if err := f.ReconfigureDelta(filter.Delta{Adds: adds, Removes: prev}); err != nil {
			b.Fatal(err)
		}
		prev = adds
	}
	b.StopTimer()
	b.ReportMetric(float64(k), "rules")
	b.ReportMetric(float64(n), "delta-rules")
}

func BenchmarkReconfigureDelta1k(b *testing.B)  { benchmarkReconfigureDelta(b, 1000) }
func BenchmarkReconfigureDelta10k(b *testing.B) { benchmarkReconfigureDelta(b, 10000) }
func BenchmarkReconfigureDelta25k(b *testing.B) { benchmarkReconfigureDelta(b, 25000) }

// --- Injection path: scalar vs batched producers ------------------------------

// benchmarkEngineInject measures the producer-side cost the tentpole
// attacks: two producer goroutines push b.N descriptors through a
// four-shard engine as 256-packet single-flow trains (the burst structure
// GRO/GSO exists for). The workers run, but the batch filter path dedups
// each train to one decision and one sketch update, so their per-packet
// share stays small and the clock predominantly sees injection — route,
// reserve, publish. Rings stay cache-warm because the same slots recycle
// for the whole run. The batch/scalar wall-Mpps ratio is the gated
// quantity: batched injection must stay ≥2x scalar (one routing pass, one
// ring CAS, and one accepted-counter update per burst-run instead of one
// of each per packet).
func benchmarkEngineInject(b *testing.B, batched bool) {
	set := benchRules(b, 8, 0)
	const (
		shards    = 4
		producers = 2
		burst     = 256
	)
	fs := make([]*filter.Filter, shards)
	for i := range fs {
		fs[i] = benchFilter(b, set, filter.CopyModeNearZero)
	}
	eng, err := engine.New(engine.Config{Filters: fs})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	descs := benchTrainDescriptors(b, set, burst, 64)
	// Scalar producers claim a burst upfront and retry each packet until
	// accepted (sound per packet). Batched producers cannot resume a
	// partially accepted window (InjectBatch drops refusals), so they
	// decrement the quota by what was actually accepted and keep offering
	// fresh windows; the reported rate divides real acceptance.
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			off := (p * 2048) & 4095
			if batched {
				for remaining.Load() > 0 {
					win := descs[off : off+burst]
					off = (off + burst) & 4095
					k := eng.InjectBatch(win)
					if k == 0 {
						runtime.Gosched()
						continue
					}
					remaining.Add(-int64(k))
				}
				return
			}
			for {
				claimed := remaining.Add(-burst)
				n := burst
				if claimed < 0 {
					n = int(claimed + burst)
					if n <= 0 {
						return
					}
				}
				win := descs[off : off+n]
				off = (off + burst) & 4095
				for i := 0; i < n; i++ {
					for !eng.Inject(win[i]) {
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	b.StopTimer()
	accepted := eng.Metrics().Accepted
	b.ReportMetric(float64(accepted)/b.Elapsed().Seconds()/1e6, "wall-Mpps")
}

func BenchmarkEngineInjectScalar(b *testing.B) { benchmarkEngineInject(b, false) }
func BenchmarkEngineInjectBatch(b *testing.B)  { benchmarkEngineInject(b, true) }

// --- Compiled classifier: rule-count-invariant matching -----------------------

// benchClassifyRules builds a k-rule reflection-defense workload shaped to
// separate the compiled classifier from the trie candidate scan. Every
// rule gets a globally unique dst /28 carpet block inside 10.0.0.0/8, so
// the classifier's driving attribute resolves to a single-rule class and
// matching cost is independent of k. Src prefixes draw from a fixed
// 256-entry /16 vocabulary, so each trie src node accumulates ~k/256
// candidate entries — the per-node linear scan the classifier eliminates.
// Source ports cycle the classic reflection services; dst port stays
// wildcard to exercise the classifier's any-rule factoring.
func benchClassifyRules(b *testing.B, k int) *rules.Set {
	b.Helper()
	sports := []uint16{53, 123, 389, 1900, 11211}
	rs := make([]rules.Rule, k)
	for i := range rs {
		rs[i] = rules.Rule{
			Src:     rules.Prefix{Addr: 0x64000000 | uint32(i%256)<<16, Len: 16},
			Dst:     rules.Prefix{Addr: 0x0A000000 | uint32(i)<<4, Len: 28},
			SrcPort: rules.Port(sports[i%len(sports)]),
			Proto:   packet.ProtoUDP,
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// benchClassifyDescriptors draws rule-hitting tuples (random rule, random
// host inside its src and dst blocks, its reflection sport): the matching
// traffic that forces the full candidate scan on the trie path.
func benchClassifyDescriptors(b *testing.B, set *rules.Set, size int) []packet.Descriptor {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	out := make([]packet.Descriptor, 1024)
	for i := range out {
		r := set.Rules[rng.Intn(set.Len())]
		out[i] = packet.Descriptor{
			Tuple: packet.FiveTuple{
				SrcIP:   r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP:   r.Dst.Addr | (rng.Uint32() &^ r.Dst.Mask()),
				SrcPort: r.SrcPort.Lo,
				DstPort: uint16(rng.Intn(60000) + 1),
				Proto:   packet.ProtoUDP,
			},
			Size: uint16(size),
			Ref:  packet.NoRef,
		}
	}
	return out
}

// benchmarkClassifyBatch drives the workload through the full filter batch
// path (probe + bitset intersect per packet). ns/op is wall ns/pkt; the
// bench script gates the 100k figure at <= 2x the 1k figure — the
// rule-count-invariance claim, enforced.
func benchmarkClassifyBatch(b *testing.B, k int) {
	set := benchClassifyRules(b, k)
	f := benchFilter(b, set, filter.CopyModeNearZero)
	descs := benchClassifyDescriptors(b, set, 64)
	var verdicts []filter.Verdict
	b.ResetTimer()
	n := 0
	for n < b.N {
		start := n & 1023
		end := start + 64
		if end > 1024 {
			end = 1024
		}
		if remaining := b.N - n; end-start > remaining {
			end = start + remaining
		}
		verdicts = f.ProcessBatch(descs[start:end], verdicts)
		n += end - start
	}
	b.StopTimer()
	b.ReportMetric(float64(k), "rules")
}

func BenchmarkClassifyBatch1k(b *testing.B)   { benchmarkClassifyBatch(b, 1000) }
func BenchmarkClassifyBatch10k(b *testing.B)  { benchmarkClassifyBatch(b, 10000) }
func BenchmarkClassifyBatch100k(b *testing.B) { benchmarkClassifyBatch(b, 100000) }

// benchmarkTrieScanPath is the side-by-side baseline: the same rule sets
// and the same matching tuples through the paper's trie lookup, whose
// per-node candidate scan grows with k/256 on this shape. Recorded next to
// the classify numbers in BENCH_filter.json so the superlinear degradation
// the classifier removes stays visible, not just asserted.
func benchmarkTrieScanPath(b *testing.B, k int) {
	set := benchClassifyRules(b, k)
	tbl := trie.NewDefault()
	tbl.InsertSet(set)
	snap := tbl.Snapshot()
	descs := benchClassifyDescriptors(b, set, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Lookup(descs[i&1023].Tuple)
	}
	b.StopTimer()
	b.ReportMetric(float64(k), "rules")
}

func BenchmarkTrieScanPath1k(b *testing.B)   { benchmarkTrieScanPath(b, 1000) }
func BenchmarkTrieScanPath10k(b *testing.B)  { benchmarkTrieScanPath(b, 10000) }
func BenchmarkTrieScanPath100k(b *testing.B) { benchmarkTrieScanPath(b, 100000) }

// --- Figure 11: IXP coverage simulation --------------------------------------

func BenchmarkFig11_CoverageOneVictim(b *testing.B) {
	inet, err := bgp.Generate(bgp.GenConfig{
		Regions: 5, Tier1PerRegion: 2, Tier2PerRegion: 20, StubsPerRegion: 200, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	ixps, err := ixp.Build(inet, ixp.BuildConfig{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	bots, err := attack.MiraiBots(inet, 10000, 8)
	if err != nil {
		b.Fatal(err)
	}
	selected := ixp.SelectTopN(ixps, 5)
	stubs := inet.AllStubs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := []bgp.ASN{stubs[i%len(stubs)]}
		if _, err := ixp.Coverage(inet.Topo, victim, bots, selected); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Appendix G: remote attestation ------------------------------------------

func BenchmarkAppendixG_QuoteAndVerify(b *testing.B) {
	svc, err := attest.NewService()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := svc.CertifyPlatform("bench")
	if err != nil {
		b.Fatal(err)
	}
	e, err := enclave.New(enclave.CodeIdentity{Name: "vif-filter", BinarySize: 1 << 20}, enclave.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	var nonce [32]byte
	want := e.Measurement()
	root := svc.RootPublicKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce[0] = byte(i)
		q, err := platform.GenerateQuote(e, nonce, [attest.ReportDataSize]byte{})
		if err != nil {
			b.Fatal(err)
		}
		if err := attest.VerifyQuote(root, svc, q, nonce, want); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	model := attest.DefaultLatencyModel()
	b.ReportMetric(model.EndToEnd(1<<20).Total.Seconds(), "modeled-e2e-s")
}

// --- Table III: IXP membership synthesis --------------------------------------

func BenchmarkTable3_BuildIXPs(b *testing.B) {
	inet, err := bgp.Generate(bgp.GenConfig{
		Regions: 5, Tier1PerRegion: 2, Tier2PerRegion: 20, StubsPerRegion: 200, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ixp.Build(inet, ixp.BuildConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
