package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/netsim"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/pipeline"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/sketch"
	"github.com/innetworkfiltering/vif/internal/trie"
)

const victimPrefix = "192.0.2.0/24"

// buildRules makes k source-discriminating drop rules over the victim
// prefix, the workload of the paper's data-plane sweeps.
func buildRules(rng *rand.Rand, k int, pAllow float64) (*rules.Set, error) {
	rs := make([]rules.Rule, k)
	dst := rules.MustParsePrefix(victimPrefix)
	for i := range rs {
		rs[i] = rules.Rule{
			Src:    rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:    dst,
			Proto:  packet.ProtoUDP,
			PAllow: pAllow,
		}
	}
	return rules.NewSet(rs, true)
}

func newEnclave() (*enclave.Enclave, error) {
	return enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "exp", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
}

func newFilter(set *rules.Set, mode filter.CopyMode, disablePromotion bool) (*filter.Filter, error) {
	e, err := newEnclave()
	if err != nil {
		return nil, err
	}
	return filter.New(e, set, filter.Config{Mode: mode, DisablePromotion: disablePromotion})
}

// paperTrie builds the paper's lookup structure — the multi-bit trie of
// Figure 6 at its classic stride of 8 — over set, inside an enclave whose
// EPC meter holds what the paper's filter holds: the binary, the trie and
// the two packet logs. Figures 3a/3b are properties of that structure's
// footprint; the live filter's compiled classifier is an order of
// magnitude smaller and does not reach the cache or EPC limits within the
// paper's rule range, so the reproductions price the trie directly.
func paperTrie(set *rules.Set) (*trie.Snapshot, *enclave.Enclave, error) {
	e, err := newEnclave()
	if err != nil {
		return nil, nil, err
	}
	tbl := trie.NewDefault()
	tbl.InsertSet(set)
	snap := tbl.Snapshot()
	e.SetMemoryUsed(snap.RetainedBytes() + 2*sketch.NewDefault().MemoryBytes())
	return snap, e, nil
}

// trieClosedLoop is pipeline.RunClosedLoop for the paper's design point:
// every packet pays the near-zero-copy fixed costs, one incoming-log
// update, and one trie walk whose memory touches beyond the always-hot
// upper levels are priced by the cost model at the enclave's footprint.
func trieClosedLoop(snap *trie.Snapshot, e *enclave.Enclave, descs []packet.Descriptor, n int) float64 {
	model := e.Model()
	cv := enclave.CostVector{
		FixedPackets: n,
		CopyInBytes:  n * (packet.KeySize + 2 + 8), // ⟨five-tuple, size, ref⟩ descriptor
		SketchRows:   n * sketch.DefaultRows,
	}
	for i := 0; i < n; i++ {
		_, _, visited, _ := snap.LookupTrace(descs[i%len(descs)].Tuple)
		hot := min(visited, model.HotVisits)
		cv.HotRefs += hot
		cv.ColdRefs += visited - hot
	}
	e.ResetMeter()
	e.ChargeBatch(cv)
	return e.VirtualNs()/float64(n) + model.PipelineNs
}

// matchingDescriptors generates descriptors that hit installed rules
// (attack traffic), the hot path of the sweeps.
func matchingDescriptors(rng *rand.Rand, set *rules.Set, n, size int) []packet.Descriptor {
	victim := packet.MustParseIP("192.0.2.77")
	out := make([]packet.Descriptor, n)
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

// Fig3a regenerates Figure 3a: single-filter throughput (Mpps, 64 B
// packets) as the rule count sweeps from 100 to 10,000 (to 20,000 in full
// mode). The paper's curve is flat near 13-15 Mpps until ≈3,000 rules and
// collapses beyond; the collapse is driven by the lookup table outgrowing
// the cache budget (MEE misses) and eventually the EPC.
func Fig3a(cfg Config) (*Result, error) {
	counts := []int{100, 500, 1000, 2000, 3000, 4000, 6000, 8000, 10000}
	if !cfg.Quick {
		counts = append(counts, 15000, 20000)
	}
	res := &Result{
		ID:     "fig3a",
		Title:  "filter throughput vs number of rules (64 B packets)",
		Header: []string{"rules", "ns/pkt", "Mpps", "Gb/s"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pkts := 20000
	if cfg.Quick {
		pkts = 5000
	}
	var first, last float64
	for _, k := range counts {
		set, err := buildRules(rng, k, 0)
		if err != nil {
			return nil, err
		}
		snap, e, err := paperTrie(set)
		if err != nil {
			return nil, err
		}
		descs := matchingDescriptors(rng, set, 1024, 64)
		perPkt := trieClosedLoop(snap, e, descs, pkts)
		pps, bps := pipeline.ModeledThroughput(perPkt, 64, pipeline.TenGigE)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", perPkt),
			fmt.Sprintf("%.2f", pps/1e6),
			fmt.Sprintf("%.2f", bps/1e9),
		})
		if first == 0 {
			first = pps
		}
		last = pps
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("degradation %0.1fx from first to last point (paper: ≥5x over the same sweep)", first/last),
		"paper anchor: throughput flat until ≈3,000 rules, then rapid degradation")
	return res, nil
}

// Fig3b regenerates Figure 3b: the enclave memory footprint of the filter
// (lookup table + logs) growing linearly with rules toward the 92 MB EPC
// limit — the paper's line, over its multi-bit trie — next to what this
// system's filter actually holds in EPC for the same rules.
func Fig3b(cfg Config) (*Result, error) {
	counts := []int{100, 1000, 2000, 4000, 6000, 8000, 10000}
	if !cfg.Quick {
		counts = append(counts, 20000, 40000, 60000)
	}
	res := &Result{
		ID:     "fig3b",
		Title:  "enclave memory footprint vs number of rules",
		Header: []string{"rules", "trie footprint MB", "classifier footprint MB", "EPC limit MB", "trie exceeded"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := enclave.DefaultCostModel()
	trieBytes := make([]int, 0, len(counts))
	for _, k := range counts {
		set, err := buildRules(rng, k, 0)
		if err != nil {
			return nil, err
		}
		_, e, err := paperTrie(set)
		if err != nil {
			return nil, err
		}
		f, err := newFilter(set, filter.CopyModeNearZero, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f", float64(e.MemoryUsed())/1e6),
			fmt.Sprintf("%.1f", float64(f.Enclave().MemoryUsed())/1e6),
			fmt.Sprintf("%.0f", float64(model.EPCBytes)/1e6),
			fmt.Sprintf("%v", e.EPCExceeded()),
		})
		trieBytes = append(trieBytes, e.MemoryUsed())
	}
	last := len(counts) - 1
	perRule := float64(trieBytes[last]-trieBytes[0]) / float64(counts[last]-counts[0])
	res.Notes = append(res.Notes,
		fmt.Sprintf("trie growth is linear in rules as in the paper; its per-rule footprint (~%.1f KB at stride 8) is smaller than the paper's (~15 KB), so the EPC line is crossed later — shape, not scale, is the claim", perRule/1e3),
		"the classifier column is the live filter's EPC charge (binary + compiled classifier + logs): the structure packets are actually decided by")
	return res, nil
}

var copyModes = []filter.CopyMode{
	filter.CopyModeNative, filter.CopyModeFull, filter.CopyModeNearZero,
}

// throughputBySize runs the Figure 8/13 sweep and returns pps per
// (size, mode).
func throughputBySize(cfg Config) (map[int]map[filter.CopyMode]float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	set, err := buildRules(rng, 3000, 0)
	if err != nil {
		return nil, err
	}
	pkts := 20000
	if cfg.Quick {
		pkts = 5000
	}
	out := make(map[int]map[filter.CopyMode]float64)
	for _, size := range netsim.PacketSizes {
		out[size] = make(map[filter.CopyMode]float64)
		for _, mode := range copyModes {
			f, err := newFilter(set, mode, true)
			if err != nil {
				return nil, err
			}
			descs := matchingDescriptors(rng, set, 1024, size)
			perPkt := pipeline.RunClosedLoop(f, descs, pkts)
			pps, _ := pipeline.ModeledThroughput(perPkt, size, pipeline.TenGigE)
			out[size][mode] = pps
		}
	}
	return out, nil
}

// Fig8 regenerates Figure 8: goodput in Gb/s vs packet size for the
// native, SGX-full-copy, and SGX-near-zero-copy filters with 3,000 rules.
func Fig8(cfg Config) (*Result, error) {
	data, err := throughputBySize(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig8",
		Title:  "throughput (Gb/s) vs packet size, 3,000 rules",
		Header: []string{"size B", "native", "sgx full copy", "sgx near zero copy", "line rate"},
	}
	for _, size := range netsim.PacketSizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, mode := range copyModes {
			row = append(row, fmt.Sprintf("%.2f", pipeline.ThroughputBps(data[size][mode], size)/1e9))
		}
		row = append(row, fmt.Sprintf("%.2f",
			pipeline.ThroughputBps(pipeline.LineRatePps(size, pipeline.TenGigE), size)/1e9))
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper anchors: all three at line rate for ≥256 B; near-zero-copy ≈8 Gb/s at 64 B; full copy visibly below")
	return res, nil
}

// Fig13 regenerates Figure 13: the same sweep in Mpps, exposing the
// full-copy cap near 6 Mpps.
func Fig13(cfg Config) (*Result, error) {
	data, err := throughputBySize(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig13",
		Title:  "throughput (Mpps) vs packet size, 3,000 rules",
		Header: []string{"size B", "native", "sgx full copy", "sgx near zero copy", "line rate"},
	}
	for _, size := range netsim.PacketSizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, mode := range copyModes {
			row = append(row, fmt.Sprintf("%.2f", data[size][mode]/1e6))
		}
		row = append(row, fmt.Sprintf("%.2f", pipeline.LineRatePps(size, pipeline.TenGigE)/1e6))
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper anchor: full-copy packet rate capped ≈6 Mpps regardless of size headroom; near zero copy shows no such cap")
	return res, nil
}

// Latency regenerates the §V-B latency table: mean latency of the
// near-zero-copy filter at 8 Gb/s offered load across packet sizes.
func Latency(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	set, err := buildRules(rng, 3000, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "latency",
		Title:  "mean latency at 8 Gb/s offered load (near zero copy, 3,000 rules)",
		Header: []string{"size B", "modeled µs", "paper µs"},
	}
	paper := map[int]string{128: "34", 256: "38", 512: "52", 1024: "80", 1500: "107"}
	m := pipeline.DefaultLatencyModel()
	pkts := 10000
	if cfg.Quick {
		pkts = 3000
	}
	for _, size := range []int{128, 256, 512, 1024, 1500} {
		f, err := newFilter(set, filter.CopyModeNearZero, true)
		if err != nil {
			return nil, err
		}
		descs := matchingDescriptors(rng, set, 1024, size)
		perPkt := pipeline.RunClosedLoop(f, descs, pkts)
		lat := m.Latency(8e9, size, perPkt)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f", float64(lat.Nanoseconds())/1000),
			paper[size],
		})
	}
	res.Notes = append(res.Notes,
		"latency grows with frame size at fixed bit rate because filling a 32-packet burst takes longer (batch-fill dominates)")
	return res, nil
}

// Fig14 regenerates Figure 14: throughput of the 10 Gb/s filter when a
// varying fraction of packets needs the SHA-256 hash-based probabilistic
// decision, across packet sizes. Only 64 B packets degrade visibly
// (≤25% in the paper).
func Fig14(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ratios := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0}
	res := &Result{
		ID:     "fig14",
		Title:  "throughput (Gb/s) vs fraction of hashed packets",
		Header: append([]string{"hash ratio"}, sizesHeader()...),
	}
	pkts := 20000
	if cfg.Quick {
		pkts = 5000
	}
	var base64B, full64B float64
	for _, ratio := range ratios {
		row := []string{fmt.Sprintf("%.2f", ratio)}
		for _, size := range netsim.PacketSizes {
			// Mix: `ratio` of traffic hits a probabilistic rule (hash
			// path, promotion disabled per the ablation), the rest a
			// deterministic rule. One combined 3,000-rule set, half
			// probabilistic, half deterministic.
			dst := rules.MustParsePrefix(victimPrefix)
			both := make([]rules.Rule, 3000)
			for i := range both {
				pAllow := 0.0
				if i < 1500 {
					pAllow = 0.5
				}
				both[i] = rules.Rule{
					Src:    rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
					Dst:    dst,
					Proto:  packet.ProtoUDP,
					PAllow: pAllow,
				}
			}
			set, err := rules.NewSet(both, true)
			if err != nil {
				return nil, err
			}
			probSub := set.Subset(idsOf(set, 0, 1500))
			detSub := set.Subset(idsOf(set, 1500, 3000))
			f, err := newFilter(set, filter.CopyModeNearZero, true)
			if err != nil {
				return nil, err
			}
			probDescs := matchingDescriptors(rng, probSub, 512, size)
			detDescs := matchingDescriptors(rng, detSub, 512, size)
			mixed := make([]packet.Descriptor, 1024)
			for i := range mixed {
				if rng.Float64() < ratio {
					mixed[i] = probDescs[rng.Intn(len(probDescs))]
				} else {
					mixed[i] = detDescs[rng.Intn(len(detDescs))]
				}
			}
			perPkt := pipeline.RunClosedLoop(f, mixed, pkts)
			_, bps := pipeline.ModeledThroughput(perPkt, size, pipeline.TenGigE)
			row = append(row, fmt.Sprintf("%.2f", bps/1e9))
			if size == 64 && ratio == ratios[0] {
				base64B = bps
			}
			if size == 64 && ratio == 1.0 {
				full64B = bps
			}
		}
		res.Rows = append(res.Rows, row)
	}
	if base64B > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"64 B degradation at 100%% hashing: %.0f%% (paper: up to 25%%); larger sizes unaffected",
			(1-full64B/base64B)*100))
	}
	return res, nil
}

// idsOf returns the rule IDs of set.Rules[lo:hi].
func idsOf(set *rules.Set, lo, hi int) map[uint32]bool {
	out := make(map[uint32]bool, hi-lo)
	for _, r := range set.Rules[lo:hi] {
		out[r.ID] = true
	}
	return out
}

func sizesHeader() []string {
	var out []string
	for _, s := range netsim.PacketSizes {
		out = append(out, fmt.Sprintf("%dB", s))
	}
	return out
}

// Table2 regenerates Table II: wall-clock time to batch-insert newly
// promoted exact-match rules into a multi-bit trie already holding 3,000
// rules, for batch sizes 1/10/100/1000.
func Table2(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{
		ID:     "table2",
		Title:  "batch insertion into the multi-bit trie lookup table",
		Header: []string{"batch size", "measured", "paper ms"},
	}
	paper := map[int]string{1: "50", 10: "52", 100: "53", 1000: "75"}
	reps := 200
	if cfg.Quick {
		reps = 50
	}
	for _, batch := range []int{1, 10, 100, 1000} {
		var total time.Duration
		for rep := 0; rep < reps; rep++ {
			base, err := buildRules(rng, 3000, 0)
			if err != nil {
				return nil, err
			}
			tbl := trie.NewDefault()
			tbl.InsertSet(base)
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
			start := time.Now()
			tbl.InsertBatch(exact, 3000)
			total += time.Since(start)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", batch),
			fmt.Sprintf("%v", (total / time.Duration(reps)).Round(100*time.Nanosecond)),
			paper[batch],
		})
	}
	res.Notes = append(res.Notes,
		"paper's ≈50 ms floor is their enclave-transition + table-locking overhead; the in-memory trie shows the same shape (flat then growing with batch) at µs scale — both are negligible against the 5 s update period")
	return res, nil
}
