package engine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/faults"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// The golden suite replays seeded netsim-style workloads through the
// engine and asserts the observable behavior is bit-identical to pinned
// history under testdata/: per-shard verdict streams, every per-namespace
// and engine counter, and the control-plane journal sequence. The
// manifests were recorded from the pre-module fused worker loop (one
// Filter.ProcessBatch per namespace run) in the commit before that loop
// was deleted, so a refactor of the worker loop, the filter or the
// classifier diffs against recorded history, not against a sibling
// sharing its code.
// Byte figures (rule memory, EPC shares) are deliberately not pinned: a
// change to the lookup structures legitimately moves them, and the
// filter package's memory-identity tests cover them.
//
// Regenerate with `go test ./internal/engine/ -run TestGolden -update`
// only when a behavior change is intended, and say why in the commit.
//
// Determinism notes: one producer goroutine gives each shard ring a
// deterministic packet order; rings are sized so nothing backpressures
// except where a fault schedule injects refusals (seeded, producer-side,
// so ordinals match across runs); admission legs pin the bucket clock;
// promotion is disabled (testFilters) so learned state cannot depend on
// burst boundaries, which a run does not share with its recording.

var update = flag.Bool("update", false, "rewrite testdata/golden_*.txt from this run")

// diffRecord is one packet as it left a namespace chain on one shard.
type diffRecord struct {
	Tuple   packet.FiveTuple
	Verdict filter.Verdict
	Masked  bool
}

// diffRecorder is a verdict-neutral module appended after the core
// stages, capturing the cell's full verdict stream.
// Worker-owned while running; read only after Stop.
type diffRecorder struct {
	recs []diffRecord
}

func (r *diffRecorder) Name() string { return "diff-recorder" }
func (r *diffRecorder) ProcessBurst(ctx *module.BurstCtx) {
	for i := range ctx.Pkts {
		var v filter.Verdict
		if i < len(ctx.Verdicts) {
			v = ctx.Verdicts[i]
		}
		r.recs = append(r.recs, diffRecord{ctx.Pkts[i].Tuple, v, ctx.Dropped(i)})
	}
}
func (r *diffRecorder) Flush() {}

type diffEngineCounters struct {
	Accepted, Processed, Allowed, Dropped  uint64
	Orphaned, Faulted, Throttled           uint64
	Backpressure, LBDrops, NSDrops, Epochs uint64
}

type diffNSCounters struct {
	NS                          int
	Processed, Allowed, Dropped uint64
	Admitted, Throttled         uint64
	Epochs, Promoted            uint64
}

// diffOutcome is everything one run exposes that must match the golden.
type diffOutcome struct {
	Engine     diffEngineCounters
	Namespaces []diffNSCounters
	Streams    map[int][][]diffRecord // ns → shard → verdict stream
	Journal    []string               // deterministic control-plane events, "type ns=N"
}

// diffJournalKeep is the set of events whose order is fully determined
// by the (single-threaded) producer + control plane. Worker-emitted
// events (backpressure_off on drain, epoch seals) interleave with these
// racily and are excluded; their counters are compared instead.
var diffJournalKeep = map[telemetry.EventType]bool{
	telemetry.EvEngineStart:       true,
	telemetry.EvEngineStop:        true,
	telemetry.EvAttach:            true,
	telemetry.EvDetach:            true,
	telemetry.EvReconfigure:       true,
	telemetry.EvReconfigureDelta:  true,
	telemetry.EvDeltaRollback:     true,
	telemetry.EvEPCRebalance:      true,
	telemetry.EvAdmissionThrottle: true,
}

func diffTelemetry(shards int) *telemetry.Telemetry {
	return telemetry.New(telemetry.Config{Shards: shards, TraceEvery: -1, JournalSize: 4096})
}

// diffAttach attaches one victim with a per-shard verdict recorder.
func diffAttach(t *testing.T, eng *Engine, set *rules.Set, cfg NamespaceConfig) (int, []*diffRecorder) {
	t.Helper()
	recs := make([]*diffRecorder, eng.Shards())
	cfg.Filters = testFilters(t, set, eng.Shards())
	cfg.Modules = func(shard int) []module.Module {
		r := &diffRecorder{}
		recs[shard] = r
		return []module.Module{r}
	}
	id, err := eng.AttachNamespace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return id, recs
}

// diffInject pushes descriptors through the single producer in fixed
// chunks, returning how many the engine accepted.
func diffInject(eng *Engine, ds []packet.Descriptor) uint64 {
	var accepted uint64
	for lo := 0; lo < len(ds); lo += 128 {
		hi := lo + 128
		if hi > len(ds) {
			hi = len(ds)
		}
		accepted += uint64(eng.InjectBatch(ds[lo:hi]))
	}
	return accepted
}

// diffCollect snapshots the run's observable state after Stop.
func diffCollect(eng *Engine, tel *telemetry.Telemetry, streams map[int][]*diffRecorder) diffOutcome {
	m := eng.Metrics()
	out := diffOutcome{
		Engine: diffEngineCounters{
			Accepted: m.Accepted, Processed: m.Processed, Allowed: m.Allowed,
			Dropped: m.Dropped, Orphaned: m.Orphaned, Faulted: m.Faulted,
			Throttled: m.Throttled, Backpressure: m.Backpressure,
			LBDrops: m.LBDrops, NSDrops: m.NSDrops,
		},
		Streams: map[int][][]diffRecord{},
	}
	for _, nm := range m.Namespaces {
		out.Namespaces = append(out.Namespaces, diffNSCounters{
			NS: nm.NS, Processed: nm.Processed, Allowed: nm.Allowed,
			Dropped: nm.Dropped, Admitted: nm.Admitted, Throttled: nm.Throttled,
			Epochs: nm.Epochs, Promoted: nm.Promoted,
		})
	}
	for ns, recs := range streams {
		perShard := make([][]diffRecord, len(recs))
		for i, r := range recs {
			perShard[i] = r.recs
		}
		out.Streams[ns] = perShard
	}
	for _, ev := range tel.Journal().Events() {
		if diffJournalKeep[ev.Type] {
			out.Journal = append(out.Journal, fmt.Sprintf("%s ns=%d", ev.Type, ev.NS))
		}
	}
	return out
}

// manifest renders the outcome canonically: one line per counter block
// and journal event, one line per (namespace, shard) verdict stream
// carrying its length and the SHA-256 of its records (13-byte flow key,
// verdict, mask bit), and a closing SHA-256 over all of it.
func (o diffOutcome) manifest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %+v\n", o.Engine)
	for _, n := range o.Namespaces {
		fmt.Fprintf(&b, "namespace %+v\n", n)
	}
	for _, j := range o.Journal {
		fmt.Fprintf(&b, "journal %s\n", j)
	}
	nss := make([]int, 0, len(o.Streams))
	for ns := range o.Streams {
		nss = append(nss, ns)
	}
	sort.Ints(nss)
	for _, ns := range nss {
		for sh, recs := range o.Streams[ns] {
			h := sha256.New()
			for _, r := range recs {
				key := r.Tuple.Key()
				h.Write(key[:])
				masked := byte(0)
				if r.Masked {
					masked = 1
				}
				h.Write([]byte{byte(r.Verdict), masked})
			}
			fmt.Fprintf(&b, "stream ns=%d shard=%d packets=%d sha256=%x\n", ns, sh, len(recs), h.Sum(nil))
		}
	}
	return fmt.Sprintf("%ssha256 %x\n", b.String(), sha256.Sum256([]byte(b.String())))
}

// diffGolden asserts a run's manifest equals testdata/golden_<name>.txt
// (or rewrites the file under -update).
func diffGolden(t *testing.T, name string, out diffOutcome) {
	t.Helper()
	// A vacuous equivalence proves nothing: require real traffic with
	// both verdict classes.
	if out.Engine.Processed == 0 || out.Engine.Allowed == 0 || out.Engine.Dropped == 0 {
		t.Fatalf("degenerate workload: %+v", out.Engine)
	}
	got := out.manifest()
	path := filepath.Join("testdata", "golden_"+name+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s diverges from pinned history:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// renumber reassigns rule IDs from base so delta adds cannot collide
// with the installed set's IDs.
func renumber(rs []rules.Rule, base uint32) []rules.Rule {
	out := append([]rules.Rule{}, rs...)
	for i := range out {
		out[i].ID = base + uint32(i)
	}
	return out
}

// interleave merges per-victim descriptor slices round-robin, the
// arrival pattern a shared deployment sees.
func interleave(lists ...[]packet.Descriptor) []packet.Descriptor {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]packet.Descriptor, 0, total)
	for i := 0; len(out) < total; i++ {
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
			}
		}
	}
	return out
}

// --- Workload 1: multi-victim steady state ---------------------------

func runDiffMultiVictim(t *testing.T) diffOutcome {
	t.Helper()
	tel := diffTelemetry(2)
	eng, err := New(Config{Shards: 2, RingSize: 1 << 14, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	setA := nsTestRules(t, 48, "192.0.2.0/24", 1)
	setB := nsTestRules(t, 32, "198.51.100.0/24", 2)
	setC := nsTestRules(t, 16, "203.0.113.0/24", 3)
	nsA, recA := diffAttach(t, eng, setA, NamespaceConfig{})
	nsB, recB := diffAttach(t, eng, setB, NamespaceConfig{})
	nsC, recC := diffAttach(t, eng, setC, NamespaceConfig{})

	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	ds := interleave(
		nsTestDescriptors(t, setA, 3000, "192.0.2.9", uint16(nsA), 11),
		nsTestDescriptors(t, setB, 3000, "198.51.100.9", uint16(nsB), 12),
		nsTestDescriptors(t, setC, 1500, "203.0.113.9", uint16(nsC), 13),
	)
	if got := diffInject(eng, ds); got != uint64(len(ds)) {
		t.Fatalf("ring backpressure broke determinism: accepted %d of %d", got, len(ds))
	}
	eng.WaitDrained()
	eng.Stop()
	return diffCollect(eng, tel, map[int][]*diffRecorder{nsA: recA, nsB: recB, nsC: recC})
}

// TestGoldenMultiVictim: three victims' interleaved traffic — verdict
// streams per (ns, shard), counters and journal match pinned history.
func TestGoldenMultiVictim(t *testing.T) {
	diffGolden(t, "multi_victim", runDiffMultiVictim(t))
}

// --- Workload 2: rule churn across live deltas -----------------------

func runDiffChurn(t *testing.T) diffOutcome {
	t.Helper()
	tel := diffTelemetry(2)
	eng, err := New(Config{Shards: 2, RingSize: 1 << 14, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	set := nsTestRules(t, 48, "192.0.2.0/24", 21)
	ns, recs := diffAttach(t, eng, set, NamespaceConfig{})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the original rules.
	p1 := nsTestDescriptors(t, set, 3000, "192.0.2.9", uint16(ns), 31)
	if got := diffInject(eng, p1); got != uint64(len(p1)) {
		t.Fatalf("phase 1 backpressure: %d of %d", got, len(p1))
	}
	eng.WaitDrained() // quiesce so the delta point is deterministic

	// Delta 1: drop 8 original rules, add 16 fresh ones. The chain (and
	// any attached modules) must survive in place — deltas swap rule
	// views, not cells.
	adds := renumber(nsTestRules(t, 16, "192.0.2.0/24", 22).Rules, 9000)
	d1 := filter.Delta{Adds: adds, Removes: set.Rules[:8]}
	if err := eng.ReconfigureNamespaceDelta(ns, []filter.Delta{d1, d1}, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Phase 2: traffic drawn against the post-delta rule set, so both
	// removed-rule misses and added-rule hits appear in the streams.
	postRules := append(append([]rules.Rule{}, set.Rules[8:]...), adds...)
	postSet, err := rules.NewSet(postRules, true)
	if err != nil {
		t.Fatal(err)
	}
	p2 := nsTestDescriptors(t, postSet, 3000, "192.0.2.9", uint16(ns), 32)
	if got := diffInject(eng, p2); got != uint64(len(p2)) {
		t.Fatalf("phase 2 backpressure: %d of %d", got, len(p2))
	}
	eng.WaitDrained()

	// Delta 2: pure adds (the learned-state-preserving path).
	adds2 := renumber(nsTestRules(t, 8, "192.0.2.0/24", 23).Rules, 9100)
	d2 := filter.Delta{Adds: adds2}
	if err := eng.ReconfigureNamespaceDelta(ns, []filter.Delta{d2, d2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	p3 := nsTestDescriptors(t, postSet, 1500, "192.0.2.9", uint16(ns), 33)
	if got := diffInject(eng, p3); got != uint64(len(p3)) {
		t.Fatalf("phase 3 backpressure: %d of %d", got, len(p3))
	}
	eng.WaitDrained()
	eng.Stop()
	return diffCollect(eng, tel, map[int][]*diffRecorder{ns: recs})
}

// TestGoldenChurn: two live rule deltas between traffic phases — the
// module chains persist across delta swaps with the pinned verdicts.
func TestGoldenChurn(t *testing.T) {
	diffGolden(t, "churn", runDiffChurn(t))
}

// --- Workload 3: overload under admission control --------------------

func runDiffOverload(t *testing.T) diffOutcome {
	t.Helper()
	tel := diffTelemetry(2)
	eng, err := New(Config{
		Shards: 2, RingSize: 1 << 14, Telemetry: tel,
		// Pinned bucket clock: no refill, so the token arithmetic — and
		// therefore exactly which packets are throttled — is a pure
		// function of the injection sequence.
		Admission: &AdmissionConfig{Burst: 1024, Now: func() int64 { return 0 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	setHot := nsTestRules(t, 32, "192.0.2.0/24", 41)
	setCold := nsTestRules(t, 32, "198.51.100.0/24", 42)
	nsHot, recHot := diffAttach(t, eng, setHot, NamespaceConfig{AdmitPps: 1000})
	nsCold, recCold := diffAttach(t, eng, setCold, NamespaceConfig{})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	ds := interleave(
		nsTestDescriptors(t, setHot, 4000, "192.0.2.9", uint16(nsHot), 51),
		nsTestDescriptors(t, setCold, 2000, "198.51.100.9", uint16(nsCold), 52),
	)
	diffInject(eng, ds) // the hot victim's tail is refused by design
	eng.WaitDrained()
	eng.Stop()

	out := diffCollect(eng, tel, map[int][]*diffRecorder{nsHot: recHot, nsCold: recCold})
	if out.Engine.Throttled == 0 {
		t.Fatal("overload workload never throttled — admission leg exercised nothing")
	}
	return out
}

// TestGoldenOverload: a flooding victim clipped by admission control
// next to an uncapped neighbor — the pinned admitted/throttled splits
// and verdict streams for what got through.
func TestGoldenOverload(t *testing.T) {
	diffGolden(t, "overload", runDiffOverload(t))
}

// --- Workload 4: fault schedules -------------------------------------

func runDiffFaults(t *testing.T) diffOutcome {
	t.Helper()
	tel := diffTelemetry(2)
	in := faults.New(97)
	in.Enable(faults.RingFull, faults.Spec{Prob: 0.25})
	eng, err := New(Config{Shards: 2, RingSize: 1 << 14, Telemetry: tel, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	set := nsTestRules(t, 32, "192.0.2.0/24", 61)
	ns, recs := diffAttach(t, eng, set, NamespaceConfig{})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	// RingFull refusals are producer-side: the same seeded schedule sees
	// the same ordinal sequence in both runs, so the accepted subsequence
	// reaching each shard is identical.
	p1 := nsTestDescriptors(t, set, 4000, "192.0.2.9", uint16(ns), 62)
	diffInject(eng, p1)
	eng.WaitDrained()

	// A delta that fails on every shard (Prob 1): rollback restores the
	// pre-delta rules identically under both loop shapes.
	in.Enable(faults.DeltaApply, faults.Spec{Prob: 1})
	adds := renumber(nsTestRules(t, 8, "192.0.2.0/24", 63).Rules, 9000)
	d := filter.Delta{Adds: adds}
	if err := eng.ReconfigureNamespaceDelta(ns, []filter.Delta{d, d}, nil, nil); err == nil {
		t.Fatal("delta succeeded under a Prob-1 DeltaApply schedule")
	}
	in.Disable(faults.DeltaApply)

	// Post-rollback traffic must classify against the original rules.
	p2 := nsTestDescriptors(t, set, 2000, "192.0.2.9", uint16(ns), 64)
	diffInject(eng, p2)
	eng.WaitDrained()
	eng.Stop()

	out := diffCollect(eng, tel, map[int][]*diffRecorder{ns: recs})
	if in.Fired(faults.RingFull) == 0 {
		t.Fatal("fault schedule never fired")
	}
	if out.Engine.Backpressure == 0 {
		t.Fatal("RingFull schedule produced no backpressure")
	}
	if !journalHas(tel, telemetry.EvDeltaRollback) {
		t.Fatal("failed delta was not journaled as a rollback")
	}
	return out
}

// TestGoldenFaults: a seeded ring-full storm plus a failing delta's
// rollback — loss and repair behave as pinned.
func TestGoldenFaults(t *testing.T) {
	diffGolden(t, "faults", runDiffFaults(t))
}
