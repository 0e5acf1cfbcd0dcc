package engine

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/innetworkfiltering/vif/internal/bypass"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// testRules builds k deterministic drop rules over the victim prefix plus
// default-allow, so verdict counts are reproducible across shards.
func testRules(t testing.TB, k int) *rules.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	rs := make([]rules.Rule, k)
	dst := rules.MustParsePrefix("192.0.2.0/24")
	for i := range rs {
		rs[i] = rules.Rule{
			Src:   rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:   dst,
			Proto: packet.ProtoUDP,
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func testFilters(t testing.TB, set *rules.Set, n int) []*filter.Filter {
	t.Helper()
	fs := make([]*filter.Filter, n)
	for i := range fs {
		e, err := enclave.New(enclave.CodeIdentity{
			Name: "vif-filter", Version: "engine-test", BinarySize: 1 << 20,
		}, enclave.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		f, err := filter.New(e, set, filter.Config{DisablePromotion: true})
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	return fs
}

// testDescriptors mixes flows that hit drop rules with flows that miss.
func testDescriptors(t testing.TB, set *rules.Set, n int) []packet.Descriptor {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	victim := packet.MustParseIP("192.0.2.9")
	out := make([]packet.Descriptor, n)
	for i := range out {
		var tup packet.FiveTuple
		if i%2 == 0 {
			r := set.Rules[rng.Intn(set.Len())]
			tup = packet.FiveTuple{
				SrcIP: r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP: victim, SrcPort: uint16(rng.Intn(60000) + 1),
				DstPort: 53, Proto: packet.ProtoUDP,
			}
		} else {
			tup = packet.FiveTuple{
				SrcIP: rng.Uint32(), DstIP: victim,
				SrcPort: uint16(rng.Intn(60000) + 1), DstPort: 443,
				Proto: packet.ProtoTCP,
			}
		}
		out[i] = packet.Descriptor{Tuple: tup, Size: 64, Ref: packet.NoRef}
	}
	return out
}

func TestEngineProcessesEverythingAccepted(t *testing.T) {
	set := testRules(t, 64)
	eng, err := New(Config{Filters: testFilters(t, set, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	descs := testDescriptors(t, set, 4096)

	const producers = 4
	var wg sync.WaitGroup
	var acceptedTotal [producers]uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(descs); i += producers {
				if eng.Inject(descs[i]) {
					acceptedTotal[p]++
				}
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	eng.Stop()

	m := eng.Metrics()
	var want uint64
	for _, a := range acceptedTotal {
		want += a
	}
	if m.Accepted != want {
		t.Fatalf("accepted %d, producers counted %d", m.Accepted, want)
	}
	if m.Processed != m.Accepted {
		t.Fatalf("processed %d != accepted %d after drain", m.Processed, m.Accepted)
	}
	if m.Allowed+m.Dropped != m.Processed {
		t.Fatalf("allowed %d + dropped %d != processed %d", m.Allowed, m.Dropped, m.Processed)
	}
	if m.Dropped == 0 || m.Allowed == 0 {
		t.Fatalf("workload should mix verdicts: allowed=%d dropped=%d", m.Allowed, m.Dropped)
	}
}

func TestEngineMatchesSerialVerdicts(t *testing.T) {
	set := testRules(t, 32)
	descs := testDescriptors(t, set, 2048)

	// Serial reference: one filter processes everything.
	ref := testFilters(t, set, 1)[0]
	for _, d := range descs {
		ref.Process(d)
	}
	refStats := ref.Stats()

	// Engine: four shards, deterministic rules, so aggregate verdict
	// counts must match the serial run exactly.
	eng, err := New(Config{Filters: testFilters(t, set, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for _, d := range descs {
		for !eng.Inject(d) {
		}
	}
	eng.WaitDrained()
	eng.Stop()
	m := eng.Metrics()
	if m.Allowed != refStats.Allowed || m.Dropped != refStats.Dropped {
		t.Fatalf("engine allowed/dropped %d/%d, serial %d/%d",
			m.Allowed, m.Dropped, refStats.Allowed, refStats.Dropped)
	}
}

func TestEngineEpochRotationPartitionsLogs(t *testing.T) {
	set := testRules(t, 32)
	fs := testFilters(t, set, 3)
	eng, err := New(Config{Filters: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	descs := testDescriptors(t, set, 3000)

	// Rotate epochs while a producer is still injecting: no stop-the-world.
	var epochs [][]EpochLog
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range descs {
			for !eng.Inject(d) {
			}
		}
	}()
	for i := 0; i < 3; i++ {
		logs, err := eng.RotateEpoch(0)
		if err != nil {
			t.Errorf("rotate %d: %v", i, err)
			return
		}
		epochs = append(epochs, logs)
	}
	<-done
	eng.WaitDrained()
	// Final epoch seals the remainder.
	logs, err := eng.RotateEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	epochs = append(epochs, logs)
	eng.Stop()

	// MAC keys as the victim would hold them after attestation.
	keys := make(map[uint64][32]byte)
	for _, f := range fs {
		keys[f.Enclave().ID()] = f.Enclave().MACKey()
	}

	// Every epoch's outgoing snapshots must authenticate and merge; the
	// per-epoch totals must sum to exactly the engine's allowed count —
	// each packet logged in exactly one epoch.
	var loggedOut uint64
	for ei, logs := range epochs {
		snaps := make([]*filter.SignedSnapshot, 0, len(logs))
		for _, l := range logs {
			if l.Seq != uint64(ei+1) {
				t.Fatalf("epoch %d: snapshot seq %d", ei, l.Seq)
			}
			snaps = append(snaps, l.Outgoing)
		}
		merged, err := bypass.MergeSnapshots(keys, snaps)
		if err != nil {
			t.Fatalf("epoch %d: %v", ei, err)
		}
		loggedOut += merged.Total()
	}
	m := eng.Metrics()
	if loggedOut != m.Allowed {
		t.Fatalf("outgoing logs across epochs total %d, engine allowed %d", loggedOut, m.Allowed)
	}
	if got := eng.Epoch(0); got != uint64(len(epochs)) {
		t.Fatalf("epoch counter %d, rotated %d times", got, len(epochs))
	}
}

func TestEngineBackpressureCounted(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{Filters: testFilters(t, set, 1), RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Workers not started: the ring must fill and then refuse.
	d := testDescriptors(t, set, 1)[0]
	accepted := 0
	for i := 0; i < 64; i++ {
		if eng.Inject(d) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Fatalf("accepted %d, ring capacity 8", accepted)
	}
	m := eng.Metrics()
	if m.Backpressure != 64-8 {
		t.Fatalf("backpressure %d, want %d", m.Backpressure, 64-8)
	}
	if m.Shards[0].QueueDepth != 8 {
		t.Fatalf("queue depth %d, want 8", m.Shards[0].QueueDepth)
	}
}

func TestEngineRouteDropCounted(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{
		Filters: testFilters(t, set, 2),
		Route:   func(packet.FiveTuple) (int, bool) { return 0, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	d := testDescriptors(t, set, 1)[0]
	if eng.Inject(d) {
		t.Fatal("balancer drop must report false")
	}
	if m := eng.Metrics(); m.LBDrops != 1 || m.Accepted != 0 {
		t.Fatalf("lbdrops=%d accepted=%d", m.LBDrops, m.Accepted)
	}
}

func TestEngineLifecycle(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{Filters: testFilters(t, set, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RotateEpoch(0); err != ErrNotRunning {
		t.Fatalf("rotate before start: %v", err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != ErrRunning {
		t.Fatalf("double start: %v", err)
	}
	eng.Stop()
	eng.Stop() // idempotent
	if _, err := eng.RotateEpoch(0); err != ErrNotRunning {
		t.Fatalf("rotate after stop: %v", err)
	}
	if err := eng.Start(); err != ErrRunning {
		t.Fatalf("restart must be refused: %v", err)
	}
	if _, err := New(Config{}); err != ErrNoShards {
		t.Fatalf("empty config: %v", err)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	set := testRules(t, 4)
	if _, err := New(Config{Filters: testFilters(t, set, 1), Batch: -1}); err == nil {
		t.Fatal("negative batch accepted")
	}
	if _, err := New(Config{Filters: testFilters(t, set, 1), RingSize: -1}); err == nil {
		t.Fatal("negative ring size accepted")
	}
	if _, err := New(Config{Filters: []*filter.Filter{nil}}); err == nil {
		t.Fatal("nil filter accepted")
	}
}

func TestEngineInjectRefusedAfterStop(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{Filters: testFilters(t, set, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	d := testDescriptors(t, set, 1)[0]
	for !eng.Inject(d) {
	}
	eng.WaitDrained()
	eng.Stop()
	if eng.Inject(d) {
		t.Fatal("Inject accepted after Stop")
	}
	m := eng.Metrics()
	if m.Accepted != 1 || m.Processed != 1 {
		t.Fatalf("accepted=%d processed=%d after post-stop inject", m.Accepted, m.Processed)
	}
	// The drain invariant must survive a stop: nothing accepted is ever
	// left unprocessed, so WaitDrained returns immediately.
	eng.WaitDrained()
}

// TestInjectBatchMatchesScalarCounters drives the same traffic through
// scalar Inject and through InjectBatch on identical engines: accepted,
// processed, and verdict counters must agree exactly — batching is a pure
// producer-cost optimization, invisible to every other subsystem.
func TestInjectBatchMatchesScalarCounters(t *testing.T) {
	set := testRules(t, 32)
	descs := testDescriptors(t, set, 4096)

	run := func(batched bool) Metrics {
		eng, err := New(Config{Filters: testFilters(t, set, 4)})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		if batched {
			// Default rings (4096/shard) hold the whole stream even if no
			// worker ever drains, so every burst must be fully accepted —
			// InjectBatch's count is not a resumable prefix, and this test
			// must not depend on resumption.
			for off := 0; off < len(descs); off += 256 {
				end := min(off+256, len(descs))
				if n := eng.InjectBatch(descs[off:end]); n != end-off {
					t.Fatalf("burst at %d: accepted %d of %d with roomy rings", off, n, end-off)
				}
			}
		} else {
			for _, d := range descs {
				for !eng.Inject(d) {
				}
			}
		}
		eng.WaitDrained()
		eng.Stop()
		return eng.Metrics()
	}

	scalar, batched := run(false), run(true)
	if scalar.Accepted != batched.Accepted ||
		scalar.Processed != batched.Processed ||
		scalar.Allowed != batched.Allowed ||
		scalar.Dropped != batched.Dropped {
		t.Fatalf("scalar accepted/processed/allowed/dropped %d/%d/%d/%d, batched %d/%d/%d/%d",
			scalar.Accepted, scalar.Processed, scalar.Allowed, scalar.Dropped,
			batched.Accepted, batched.Processed, batched.Allowed, batched.Dropped)
	}
	if batched.Processed != uint64(len(descs)) {
		t.Fatalf("processed %d of %d", batched.Processed, len(descs))
	}
}

// TestInjectBatchPartialAcceptance fills unconsumed rings (workers never
// started) and checks the accepted count, backpressure accounting, and
// that accepted descriptors stay within ring capacity per shard.
func TestInjectBatchPartialAcceptance(t *testing.T) {
	set := testRules(t, 16)
	eng, err := New(Config{Filters: testFilters(t, set, 2), RingSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	descs := testDescriptors(t, set, 64)
	accepted := eng.InjectBatch(descs)
	// Both rings can hold at most 8 each; the rest of the burst must be
	// refused and counted as backpressure, per packet.
	if accepted > 16 || accepted == 0 {
		t.Fatalf("accepted %d, rings hold at most 16", accepted)
	}
	m := eng.Metrics()
	if m.Accepted != uint64(accepted) {
		t.Fatalf("metrics accepted %d, InjectBatch returned %d", m.Accepted, accepted)
	}
	if m.Backpressure != uint64(len(descs)-accepted) {
		t.Fatalf("backpressure %d, want %d", m.Backpressure, len(descs)-accepted)
	}
	// A second burst on full rings is refused outright.
	if n := eng.InjectBatch(descs); n != 0 {
		t.Fatalf("full rings accepted %d", n)
	}
}

// TestInjectBatchRefusedAfterStop mirrors the scalar drain-invariant
// contract: once Stop begins, InjectBatch returns 0 and touches no counter.
func TestInjectBatchRefusedAfterStop(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{Filters: testFilters(t, set, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	descs := testDescriptors(t, set, 128)
	n := eng.InjectBatch(descs)
	eng.WaitDrained()
	eng.Stop()
	if got := eng.InjectBatch(descs); got != 0 {
		t.Fatalf("InjectBatch accepted %d after Stop", got)
	}
	m := eng.Metrics()
	if m.Accepted != uint64(n) || m.Processed != uint64(n) {
		t.Fatalf("accepted=%d processed=%d, pre-stop batch was %d", m.Accepted, m.Processed, n)
	}
	eng.WaitDrained() // must return immediately: invariant intact
}

// TestInjectBatchCountsLBDrops routes through a balancer that drops every
// other packet: drops are counted per packet and never charged as accepted.
func TestInjectBatchCountsLBDrops(t *testing.T) {
	set := testRules(t, 8)
	var calls int
	eng, err := New(Config{
		Filters: testFilters(t, set, 2),
		Route: func(t packet.FiveTuple) (int, bool) {
			calls++
			return 0, calls%2 == 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	descs := testDescriptors(t, set, 100)
	accepted := eng.InjectBatch(descs)
	if accepted != 50 {
		t.Fatalf("accepted %d, want 50", accepted)
	}
	eng.WaitDrained()
	m := eng.Metrics()
	if m.LBDrops != 50 {
		t.Fatalf("lbdrops %d, want 50", m.LBDrops)
	}
	if m.Accepted != 50 || m.Processed != 50 {
		t.Fatalf("accepted=%d processed=%d", m.Accepted, m.Processed)
	}
}

// TestInjectBatchUsesRouteBatch verifies the burst routing hook is used
// when configured: one call per burst, and its -1 verdicts count as lb
// drops.
func TestInjectBatchUsesRouteBatch(t *testing.T) {
	set := testRules(t, 8)
	batchCalls := 0
	eng, err := New(Config{
		Filters: testFilters(t, set, 2),
		Route:   func(packet.FiveTuple) (int, bool) { t.Error("scalar Route called on batch path"); return 0, true },
		RouteBatch: func(ds []packet.Descriptor, shards []int32) {
			batchCalls++
			for i := range ds {
				if i%4 == 0 {
					shards[i] = -1
					continue
				}
				shards[i] = int32(i % 2)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	descs := testDescriptors(t, set, 64)
	accepted := eng.InjectBatch(descs)
	if batchCalls != 1 {
		t.Fatalf("RouteBatch called %d times for one burst", batchCalls)
	}
	if accepted != 48 {
		t.Fatalf("accepted %d, want 48", accepted)
	}
	eng.WaitDrained()
	if m := eng.Metrics(); m.LBDrops != 16 {
		t.Fatalf("lbdrops %d, want 16", m.LBDrops)
	}
}

// TestEnginePromotesAtEpochBoundary covers the hybrid design's learning
// step on the engine path: probabilistic rules leave flows pending, and
// the worker promotes them to exact-match entries when it seals an epoch.
func TestEnginePromotesAtEpochBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rs := make([]rules.Rule, 16)
	dst := rules.MustParsePrefix("192.0.2.0/24")
	for i := range rs {
		rs[i] = rules.Rule{
			Src:    rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:    dst,
			Proto:  packet.ProtoUDP,
			PAllow: 0.5, // probabilistic: flows queue for promotion
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]*filter.Filter, 2)
	for i := range fs {
		e, err := enclave.New(enclave.CodeIdentity{
			Name: "vif-filter", Version: "promote-test", BinarySize: 1 << 20,
		}, enclave.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		f, err := filter.New(e, set, filter.Config{}) // promotion enabled
		if err != nil {
			t.Fatal(err)
		}
		fs[i] = f
	}
	eng, err := New(Config{Filters: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	// Traffic that hits the probabilistic rules on every packet.
	descs := make([]packet.Descriptor, 1024)
	for i := range descs {
		r := rs[rng.Intn(len(rs))]
		descs[i] = packet.Descriptor{
			Tuple: packet.FiveTuple{
				SrcIP:   r.Src.Addr | (rng.Uint32() &^ r.Src.Mask()),
				DstIP:   packet.MustParseIP("192.0.2.9"),
				SrcPort: uint16(rng.Intn(60000) + 1), DstPort: 53,
				Proto: packet.ProtoUDP,
			},
			Size: 64, Ref: packet.NoRef,
		}
	}
	// 1024 descriptors fit either default ring outright, so the burst must
	// be accepted whole.
	if n := eng.InjectBatch(descs); n != len(descs) {
		t.Fatalf("accepted %d of %d with roomy rings", n, len(descs))
	}
	eng.WaitDrained()

	pendingBefore := fs[0].PendingFlows() + fs[1].PendingFlows()
	if pendingBefore == 0 {
		t.Fatal("probabilistic traffic left no flows pending promotion")
	}
	if _, err := eng.RotateEpoch(0); err != nil {
		t.Fatal(err)
	}
	eng.Stop()

	m := eng.Metrics()
	var promoted uint64
	for _, sm := range m.Shards {
		promoted += sm.Promoted
	}
	if promoted == 0 {
		t.Fatal("epoch rotation promoted nothing in engine mode")
	}
	if got := fs[0].PendingFlows() + fs[1].PendingFlows(); got != 0 {
		t.Fatalf("pending flows after rotation: %d", got)
	}
	var fromStats uint64
	for _, f := range fs {
		fromStats += f.Stats().Promoted
	}
	if fromStats != promoted {
		t.Fatalf("shard metrics promoted %d, filter stats %d", promoted, fromStats)
	}
	// Promotion must not change any verdict: replaying the same flows now
	// served by the exact table yields identical allow/drop splits per
	// flow, which the filter's own promotion tests assert; here we check
	// the learned entries are actually consulted.
	var exact int
	for _, f := range fs {
		exact += f.ExactEntries()
	}
	if exact == 0 {
		t.Fatal("no exact-match entries after promotion")
	}
}

func TestEngineSinkObservesAllowed(t *testing.T) {
	set := testRules(t, 16)
	var mu sync.Mutex
	seen := 0
	eng, err := New(Config{
		Filters: testFilters(t, set, 2),
		Sink: func(shard int, d packet.Descriptor) {
			mu.Lock()
			seen++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for _, d := range testDescriptors(t, set, 512) {
		for !eng.Inject(d) {
		}
	}
	eng.WaitDrained()
	eng.Stop()
	m := eng.Metrics()
	mu.Lock()
	defer mu.Unlock()
	if uint64(seen) != m.Allowed {
		t.Fatalf("sink saw %d, engine allowed %d", seen, m.Allowed)
	}
}

func TestNsPerPacketExcludesPreEngineWork(t *testing.T) {
	set := testRules(t, 32)
	fs := testFilters(t, set, 1)
	descs := testDescriptors(t, set, 2048)

	// Burn serial virtual time on the same filter before the engine owns
	// it: the shard metric must reflect engine-era work only.
	for _, d := range descs {
		fs[0].Process(d)
	}
	serialNs := fs[0].Enclave().VirtualNs()
	if serialNs == 0 {
		t.Fatal("serial warm-up charged nothing")
	}

	eng, err := New(Config{Filters: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for _, d := range descs[:256] {
		for !eng.Inject(d) {
		}
	}
	eng.WaitDrained()
	eng.Stop()

	sm := eng.Metrics().Shards[0]
	if sm.NsPerPacket <= 0 {
		t.Fatalf("ns/packet %.2f", sm.NsPerPacket)
	}
	// Engine-era per-packet cost is well under the serial total; if the
	// lifetime meter leaked into the numerator the value would exceed
	// serialNs/256 by orders of magnitude.
	if sm.NsPerPacket > serialNs/256/2 {
		t.Fatalf("ns/packet %.1f contaminated by pre-engine meter (serial total %.1f over 2048 pkts)",
			sm.NsPerPacket, serialNs)
	}
}
