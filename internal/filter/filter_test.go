package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

func testEnclave(t testing.TB) *enclave.Enclave {
	t.Helper()
	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "test", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func victimSet(t testing.TB) *rules.Set {
	t.Helper()
	s, err := rules.NewSet([]rules.Rule{
		rules.MustParse("drop udp from 10.0.0.0/8 to 192.0.2.0/24 dport 53"),
		rules.MustParse("drop 50% tcp from any to 192.0.2.0/24 dport 80"),
		rules.MustParse("allow any from any to 192.0.2.0/24"),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newFilter(t testing.TB, cfg Config) *Filter {
	t.Helper()
	f, err := New(testEnclave(t), victimSet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func udpTo53(src string) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustParseIP(src),
		DstIP:   packet.MustParseIP("192.0.2.10"),
		SrcPort: 5353,
		DstPort: 53,
		Proto:   packet.ProtoUDP,
	}
}

func httpFlow(srcIP uint32, srcPort uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   srcIP,
		DstIP:   packet.MustParseIP("192.0.2.20"),
		SrcPort: srcPort,
		DstPort: 80,
		Proto:   packet.ProtoTCP,
	}
}

func desc(t packet.FiveTuple, size int) packet.Descriptor {
	return packet.Descriptor{Tuple: t, Size: uint16(size), Ref: packet.NoRef}
}

func TestNewRequiresRules(t *testing.T) {
	if _, err := New(testEnclave(t), nil, Config{}); err != ErrNoRules {
		t.Fatalf("err = %v, want ErrNoRules", err)
	}
}

func TestDeterministicRules(t *testing.T) {
	f := newFilter(t, Config{})
	if got := f.Process(desc(udpTo53("10.1.1.1"), 64)); got != VerdictDrop {
		t.Fatalf("DNS amplification packet: %v, want drop", got)
	}
	// Same dport but source outside 10/8 falls through to the allow rule.
	other := udpTo53("172.16.1.1")
	if got := f.Process(desc(other, 64)); got != VerdictAllow {
		t.Fatalf("non-matching source: %v, want allow", got)
	}
	// Traffic to a destination with no rule at all: default allow.
	stray := packet.FiveTuple{
		SrcIP: packet.MustParseIP("8.8.8.8"), DstIP: packet.MustParseIP("198.51.100.1"),
		DstPort: 22, Proto: packet.ProtoTCP,
	}
	if got := f.Process(desc(stray, 64)); got != VerdictAllow {
		t.Fatalf("unmatched traffic: %v, want default allow", got)
	}
	st := f.Stats()
	if st.Processed != 3 || st.Dropped != 1 || st.Allowed != 2 || st.DefaultHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStatelessness(t *testing.T) {
	// Eq. 2: the verdict for p is independent of packet order, interleaved
	// traffic, and clock state. We present the same packets in different
	// orders with adversarial interleavings and demand identical verdicts.
	f := newFilter(t, Config{})
	rng := rand.New(rand.NewSource(1))
	pkts := make([]packet.FiveTuple, 200)
	for i := range pkts {
		pkts[i] = httpFlow(rng.Uint32(), uint16(rng.Intn(60000)+1024))
	}
	want := make(map[packet.FiveTuple]Verdict, len(pkts))
	for _, p := range pkts {
		want[p] = f.Process(desc(p, 64))
	}

	perm := rng.Perm(len(pkts))
	for _, i := range perm {
		// Adversarial injection between evaluations.
		f.Process(desc(httpFlow(rng.Uint32(), 7777), 1500))
		// Clock manipulation by the host.
		for j := 0; j < rng.Intn(5); j++ {
			f.Enclave().Tick()
		}
		if got := f.Process(desc(pkts[i], 64)); got != want[pkts[i]] {
			t.Fatalf("verdict for %v changed to %v after reordering/injection", pkts[i], got)
		}
	}
}

func TestConnectionPreservation(t *testing.T) {
	// All packets of one five-tuple flow share one fate, per Appendix A.
	f := newFilter(t, Config{})
	flow := httpFlow(packet.MustParseIP("203.0.113.50"), 33333)
	first := f.Process(desc(flow, 64))
	for i := 0; i < 100; i++ {
		if got := f.Process(desc(flow, 64+i)); got != first {
			t.Fatalf("packet %d of flow got %v, first got %v", i, got, first)
		}
	}
}

func TestProbabilisticRuleConvergesToPAllow(t *testing.T) {
	// The 50%-drop rule must drop ≈50% of *flows* (law of large numbers).
	f := newFilter(t, Config{})
	rng := rand.New(rand.NewSource(2))
	const flows = 4000
	allowed := 0
	for i := 0; i < flows; i++ {
		flow := httpFlow(rng.Uint32(), uint16(rng.Intn(60000)+1024))
		if f.Process(desc(flow, 64)) == VerdictAllow {
			allowed++
		}
	}
	got := float64(allowed) / flows
	if math.Abs(got-0.5) > 0.03 {
		t.Fatalf("allow rate %.3f, want ≈0.50 (±0.03)", got)
	}
}

func TestProbabilisticRatesAcrossPAllow(t *testing.T) {
	for _, pAllow := range []float64{0.1, 0.25, 0.8} {
		set, err := rules.NewSet([]rules.Rule{{
			Dst:    rules.MustParsePrefix("192.0.2.0/24"),
			Proto:  packet.ProtoTCP,
			PAllow: pAllow,
		}}, false)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(testEnclave(t), set, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(pAllow * 100)))
		const flows = 4000
		allowed := 0
		for i := 0; i < flows; i++ {
			if f.Process(desc(httpFlow(rng.Uint32(), uint16(rng.Intn(60000)+1)), 64)) == VerdictAllow {
				allowed++
			}
		}
		got := float64(allowed) / flows
		if math.Abs(got-pAllow) > 0.035 {
			t.Fatalf("PAllow=%.2f: allow rate %.3f", pAllow, got)
		}
	}
}

func TestSecretsDifferentiateFilters(t *testing.T) {
	// Two enclaves with the same rules must make *different* probabilistic
	// flow choices (independent secrets), while each being internally
	// deterministic.
	f1 := newFilter(t, Config{})
	f2, err := New(testEnclave(t), victimSet(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	same := 0
	const flows = 500
	for i := 0; i < flows; i++ {
		flow := httpFlow(rng.Uint32(), uint16(rng.Intn(60000)+1))
		if f1.Decision(flow) == f2.Decision(flow) {
			same++
		}
	}
	// Independent fair coins agree ~50%; >90% agreement would imply a
	// shared secret.
	if same > flows*9/10 {
		t.Fatalf("filters agreed on %d/%d flows: secrets not independent", same, flows)
	}
}

func TestPromotionPreservesDecisions(t *testing.T) {
	f := newFilter(t, Config{})
	rng := rand.New(rand.NewSource(4))
	flows := make([]packet.FiveTuple, 300)
	before := make([]Verdict, len(flows))
	for i := range flows {
		flows[i] = httpFlow(rng.Uint32(), uint16(rng.Intn(60000)+1))
		before[i] = f.Process(desc(flows[i], 64))
	}
	if f.PendingFlows() == 0 {
		t.Fatal("no flows queued for promotion")
	}
	promoted := f.Promote()
	if promoted == 0 {
		t.Fatal("promotion promoted nothing")
	}
	if f.ExactEntries() != promoted {
		t.Fatalf("exact entries %d != promoted %d", f.ExactEntries(), promoted)
	}
	for i, flow := range flows {
		if got := f.Process(desc(flow, 64)); got != before[i] {
			t.Fatalf("flow %d verdict changed after promotion: %v -> %v", i, before[i], got)
		}
	}
	// Promoted flows are now exact hits, not hash evaluations.
	preHashed := f.Stats().Hashed
	f.Process(desc(flows[0], 64))
	if f.Stats().Hashed != preHashed {
		t.Fatal("promoted flow still hashed")
	}
}

func TestPromoteOnlyProbabilisticFlows(t *testing.T) {
	f := newFilter(t, Config{})
	f.Process(desc(udpTo53("10.3.3.3"), 64)) // deterministic: no queue
	if f.PendingFlows() != 0 {
		t.Fatal("deterministic flow queued for promotion")
	}
	if n := f.Promote(); n != 0 {
		t.Fatalf("Promote() = %d, want 0", n)
	}
}

func TestMaxPendingBound(t *testing.T) {
	f := newFilter(t, Config{MaxPending: 10})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 64))
	}
	if got := f.PendingFlows(); got > 10 {
		t.Fatalf("pending %d exceeds MaxPending 10", got)
	}
}

func TestDisablePromotion(t *testing.T) {
	f := newFilter(t, Config{DisablePromotion: true})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 64))
	}
	if f.PendingFlows() != 0 {
		t.Fatal("promotion queue grew despite DisablePromotion")
	}
}

func TestDefaultDropSemantics(t *testing.T) {
	set, err := rules.NewSet([]rules.Rule{
		rules.MustParse("allow tcp from any to 192.0.2.0/24 dport 443"),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testEnclave(t), set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	allowed := packet.FiveTuple{
		SrcIP: 1, DstIP: packet.MustParseIP("192.0.2.1"), DstPort: 443, Proto: packet.ProtoTCP,
	}
	if got := f.Process(desc(allowed, 64)); got != VerdictAllow {
		t.Fatalf("matching packet: %v", got)
	}
	stray := allowed
	stray.DstPort = 80
	if got := f.Process(desc(stray, 64)); got != VerdictDrop {
		t.Fatalf("unmatched with default drop: %v", got)
	}
}

func TestMisrouteDetection(t *testing.T) {
	mine, err := rules.NewSet([]rules.Rule{
		rules.MustParse("drop udp from 10.0.0.0/8 to 192.0.2.0/24 dport 53"),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := rules.NewSet([]rules.Rule{
		rules.MustParse("drop tcp from 172.16.0.0/12 to 192.0.2.0/24 dport 80"),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testEnclave(t), mine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.SetForeign(foreign)

	// A packet belonging to the foreign shard arrives here: misroute.
	misrouted := packet.FiveTuple{
		SrcIP: packet.MustParseIP("172.16.5.5"), DstIP: packet.MustParseIP("192.0.2.1"),
		DstPort: 80, Proto: packet.ProtoTCP,
	}
	f.Process(desc(misrouted, 64))
	if got := f.Stats().Misrouted; got != 1 {
		t.Fatalf("Misrouted = %d, want 1", got)
	}
	// Genuinely unmatched traffic is not a misroute.
	stray := packet.FiveTuple{SrcIP: 9, DstIP: 10, DstPort: 22, Proto: packet.ProtoTCP}
	f.Process(desc(stray, 64))
	if got := f.Stats().Misrouted; got != 1 {
		t.Fatalf("stray counted as misroute: %d", got)
	}
}

func TestReconfigureSwapsRules(t *testing.T) {
	f := newFilter(t, Config{})
	pkt := udpTo53("10.1.1.1")
	if got := f.Process(desc(pkt, 64)); got != VerdictDrop {
		t.Fatalf("before: %v", got)
	}
	newSet, err := rules.NewSet([]rules.Rule{
		rules.MustParse("allow udp from 10.0.0.0/8 to 192.0.2.0/24 dport 53"),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reconfigure(newSet, nil); err != nil {
		t.Fatal(err)
	}
	if got := f.Process(desc(pkt, 64)); got != VerdictAllow {
		t.Fatalf("after reconfigure: %v", got)
	}
	if err := f.Reconfigure(nil, nil); err != ErrNoRules {
		t.Fatalf("nil reconfigure: %v", err)
	}
}

func TestCopyModeCosts(t *testing.T) {
	// Full copy must cost more than near-zero-copy, which must cost more
	// than native, for identical traffic (the Figure 8 ordering).
	const n = 1000
	costs := make(map[CopyMode]float64)
	for _, mode := range []CopyMode{CopyModeNative, CopyModeFull, CopyModeNearZero} {
		f := newFilter(t, Config{Mode: mode})
		rng := rand.New(rand.NewSource(7))
		f.Enclave().ResetMeter()
		for i := 0; i < n; i++ {
			f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 1500))
		}
		costs[mode] = f.Enclave().VirtualNs() / n
	}
	if !(costs[CopyModeNative] < costs[CopyModeNearZero] && costs[CopyModeNearZero] < costs[CopyModeFull]) {
		t.Fatalf("cost ordering violated: native=%.1f zero=%.1f full=%.1f",
			costs[CopyModeNative], costs[CopyModeNearZero], costs[CopyModeFull])
	}
}

func TestHashRatioTracking(t *testing.T) {
	f := newFilter(t, Config{DisablePromotion: true})
	rng := rand.New(rand.NewSource(8))
	// Half the packets hit the probabilistic HTTP rule, half the
	// deterministic allow rule.
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 64))
		} else {
			f.Process(desc(packet.FiveTuple{
				SrcIP: rng.Uint32(), DstIP: packet.MustParseIP("192.0.2.40"),
				DstPort: 22, Proto: packet.ProtoTCP,
			}, 64))
		}
	}
	if got := f.HashRatio(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("HashRatio = %.3f, want 0.5", got)
	}
}

func TestThroughputDegradesWithRules(t *testing.T) {
	// Figure 3a's shape: per-packet virtual cost grows substantially once
	// the rule table outgrows the cache budget. The traffic must hit rules
	// (the paper's attack workload): since the compiled classifier replaced
	// the per-node candidate scan, a non-matching packet short-circuits on
	// its first empty attribute class and touches no footprint-dependent
	// memory at all — the cliff is a property of the resident table size,
	// observed through the references matching traffic makes into it. The
	// operating points straddle the default model's 8 MiB LLC: at 250,000
	// /24 rules the compiled classifier (~10 MB) plus binary and logs is
	// ~13 MB resident; at 100 rules everything fits (as it does at
	// 100,000 — classify's TestFootprintBudget holds that line).
	perPacket := func(nRules int) (ns float64, resident int) {
		rng := rand.New(rand.NewSource(9))
		rs := make([]rules.Rule, nRules)
		for i := range rs {
			rs[i] = rules.Rule{
				Src:   rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
				Dst:   rules.MustParsePrefix("192.0.2.0/24"),
				Proto: packet.ProtoUDP,
			}
		}
		set, err := rules.NewSet(rs, true)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(testEnclave(t), set, Config{})
		if err != nil {
			t.Fatal(err)
		}
		f.Enclave().ResetMeter()
		const n = 2000
		for i := 0; i < n; i++ {
			r := &set.Rules[rng.Intn(set.Len())]
			f.Process(desc(packet.FiveTuple{
				SrcIP: r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP: packet.MustParseIP("192.0.2.1"), Proto: packet.ProtoUDP,
			}, 64))
		}
		return f.Enclave().VirtualNs() / n, f.Enclave().MemoryUsed()
	}
	small, smallMem := perPacket(100)
	large, largeMem := perPacket(250000)
	if llc := enclave.DefaultCostModel().LLCBytes; smallMem > llc || largeMem <= llc {
		t.Fatalf("operating points hold %d and %d bytes: they no longer straddle the %d-byte LLC", smallMem, largeMem, llc)
	}
	if large < small*2 {
		t.Fatalf("250000 rules (%.0f ns/pkt) not meaningfully slower than 100 (%.0f ns/pkt)", large, small)
	}
}

func TestMemoryAccounting(t *testing.T) {
	f := newFilter(t, Config{})
	used := f.Enclave().MemoryUsed()
	// Binary (1 MiB) + two 1 MiB sketches + compiled classifier must all
	// be charged; TestEPCMeterIdentity pins the exact sum.
	if used < (1<<20)+2*(1<<20) {
		t.Fatalf("MemoryUsed = %d, missing sketch/table charges", used)
	}
}

// checkMeterIdentity asserts the two memory figures are exactly the sums
// their docs state: the EPC meter charges the binary, the classifier's
// retained bytes, the learned table, the pending queue and both sketches
// — and nothing else — and the rule-memory weight is the classifier's
// numbering-invariant live size.
func checkMeterIdentity(t testing.TB, f *Filter, when string) {
	t.Helper()
	view := f.view.Load()
	want := f.encl.Identity().BinarySize +
		view.prog.RetainedBytes() +
		f.exact.memoryBytes() +
		len(f.pendingQ)*packet.KeySize +
		f.inLog.MemoryBytes() + f.outLog.MemoryBytes()
	if got := f.encl.MemoryUsed(); got != want {
		t.Fatalf("%s: MemoryUsed = %d, want %d (binary + classifier + exact + pending + sketches)", when, got, want)
	}
	if got, want := f.RuleMemoryBytes(), view.prog.MemoryBytes(); got != want {
		t.Fatalf("%s: RuleMemoryBytes = %d, want the classifier's %d", when, got, want)
	}
}

// TestEPCMeterIdentity pins what the EPC meter charges at every point the
// filter resynchronizes it: construction, promotion, a full reconfigure,
// and a delta chain long enough to cross the densify bound.
func TestEPCMeterIdentity(t *testing.T) {
	f := newFilter(t, Config{})
	checkMeterIdentity(t, f, "after New")

	// Learned entries and a non-empty pending queue are both charged.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 64))
	}
	if f.Promote() == 0 {
		t.Fatal("nothing promoted")
	}
	checkMeterIdentity(t, f, "after Promote")
	for i := 0; i < 50; i++ {
		f.Process(desc(httpFlow(rng.Uint32(), uint16(i+1)), 64))
	}
	if f.PendingFlows() == 0 {
		t.Fatal("no pending flows queued ahead of the delta")
	}
	if err := f.ReconfigureDelta(Delta{Adds: []rules.Rule{deltaRule(rng, 100, 0)}}); err != nil {
		t.Fatal(err)
	}
	checkMeterIdentity(t, f, "after adds-only delta with pending flows")

	var base []rules.Rule
	for i := 0; i < 32; i++ {
		base = append(base, deltaRule(rng, uint32(1000+i), 0))
	}
	set, err := rules.NewSet(base, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reconfigure(set, nil); err != nil {
		t.Fatal(err)
	}
	checkMeterIdentity(t, f, "after Reconfigure")

	// 8-for-8 churn over 32 rules: the sparse domain passes 2x the set
	// after a few rounds, so the chain takes both delta branches.
	densified := false
	prev, nextID := base[:8], uint32(5000)
	for round := 0; round < 12; round++ {
		adds := make([]rules.Rule, 8)
		for i := range adds {
			adds[i] = deltaRule(rng, nextID, 0)
			nextID++
		}
		if err := f.ReconfigureDelta(Delta{Adds: adds, Removes: prev}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		prev = adds
		densified = densified || (round > 0 && f.view.Load().prios == nil)
		checkMeterIdentity(t, f, fmt.Sprintf("after delta round %d", round))
	}
	if !densified {
		t.Fatal("delta chain never crossed the densify bound")
	}
}

func BenchmarkProcessNearZeroCopy3000Rules(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	rs := make([]rules.Rule, 3000)
	for i := range rs {
		rs[i] = rules.Rule{
			Src:   rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:   rules.MustParsePrefix("192.0.2.0/24"),
			Proto: packet.ProtoUDP,
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(testEnclave(b), set, Config{})
	if err != nil {
		b.Fatal(err)
	}
	descs := make([]packet.Descriptor, 1024)
	for i := range descs {
		descs[i] = desc(packet.FiveTuple{
			SrcIP: rng.Uint32(), DstIP: packet.MustParseIP("192.0.2.1"), Proto: packet.ProtoUDP,
		}, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(descs[i&1023])
	}
}

func BenchmarkDecision(b *testing.B) {
	f, err := New(testEnclave(b), victimSet(b), Config{})
	if err != nil {
		b.Fatal(err)
	}
	flow := httpFlow(packet.MustParseIP("203.0.113.9"), 1234)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Decision(flow)
	}
}
