package filter

import (
	"math/rand"
	"testing"

	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

func deltaRule(rng *rand.Rand, id uint32, pAllow float64) rules.Rule {
	return rules.Rule{
		ID:     id,
		Src:    rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
		Dst:    rules.MustParsePrefix("192.0.2.0/24"),
		Proto:  packet.ProtoUDP,
		PAllow: pAllow,
	}
}

func deltaProbe(rng *rand.Rand, live []rules.Rule) packet.Descriptor {
	t := packet.FiveTuple{
		SrcIP:   rng.Uint32(),
		DstIP:   packet.MustParseIP("192.0.2.9"),
		SrcPort: uint16(rng.Intn(60000) + 1),
		DstPort: 53,
		Proto:   packet.ProtoUDP,
	}
	if len(live) > 0 && rng.Intn(3) != 0 {
		r := live[rng.Intn(len(live))]
		t.SrcIP = r.Src.Addr | (rng.Uint32() &^ r.Src.Mask())
	}
	return packet.Descriptor{Tuple: t, Size: 64, Ref: packet.NoRef}
}

// TestReconfigureDeltaMatchesFullRebuild drives a chain of random deltas
// through one filter while a twin filter (same enclave secret is not
// required: every rule here is deterministic) takes the full-Reconfigure
// path with the equivalent rule set, and asserts verdict equality on every
// probe after every step — the full rebuild is the oracle the delta path
// must be indistinguishable from.
func TestReconfigureDeltaMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var live []rules.Rule
	nextID := uint32(1)
	for i := 0; i < 64; i++ {
		live = append(live, deltaRule(rng, nextID, float64(i%2)))
		nextID++
	}
	set, err := rules.NewSet(live, true)
	if err != nil {
		t.Fatal(err)
	}
	encl := testEnclave(t)
	deltaF, err := New(encl, set, Config{DisablePromotion: true})
	if err != nil {
		t.Fatal(err)
	}
	oracleF, err := New(encl, set, Config{DisablePromotion: true})
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 30; step++ {
		var removes []rules.Rule
		for i := rng.Intn(3); i > 0 && len(live) > 4; i-- {
			j := rng.Intn(len(live))
			removes = append(removes, live[j])
			live = append(live[:j], live[j+1:]...)
		}
		var adds []rules.Rule
		for i := rng.Intn(4); i > 0; i-- {
			adds = append(adds, deltaRule(rng, nextID, float64(i%2)))
			nextID++
		}
		live = append(live, adds...)

		if err := deltaF.ReconfigureDelta(Delta{Adds: adds, Removes: removes}); err != nil {
			t.Fatalf("step %d: ReconfigureDelta: %v", step, err)
		}
		oracleSet, err := rules.NewSet(live, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleF.Reconfigure(oracleSet, nil); err != nil {
			t.Fatalf("step %d: Reconfigure: %v", step, err)
		}

		if got, want := deltaF.RuleCount(), oracleF.RuleCount(); got != want {
			t.Fatalf("step %d: rule count %d, oracle %d", step, got, want)
		}
		for probe := 0; probe < 80; probe++ {
			d := deltaProbe(rng, live)
			if got, want := deltaF.Process(d), oracleF.Process(d); got != want {
				t.Fatalf("step %d: verdict %v, oracle %v for %+v", step, got, want, d.Tuple)
			}
		}
		// The delta filter's live lookup-table footprint must track the
		// rebuilt one exactly (its bounded slack is reported separately and
		// charged to the EPC meter, not to the rule weight).
		if got, want := deltaF.RuleMemoryBytes(), oracleF.RuleMemoryBytes(); got != want {
			t.Fatalf("step %d: RuleMemoryBytes %d, oracle %d", step, got, want)
		}
	}
}

// TestReconfigureDeltaKeepsSurvivorCounters: per-rule byte counters of
// surviving rules ride through a delta (the measurement window continues),
// removed rules' counters vanish, adds start at zero.
func TestReconfigureDeltaKeepsSurvivorCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := deltaRule(rng, 1, 0)
	b := deltaRule(rng, 2, 0)
	set, err := rules.NewSet([]rules.Rule{a, b}, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testEnclave(t), set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hit := func(r rules.Rule) packet.Descriptor {
		return packet.Descriptor{Tuple: packet.FiveTuple{
			SrcIP: r.Src.Addr, DstIP: packet.MustParseIP("192.0.2.9"),
			SrcPort: 7, DstPort: 53, Proto: packet.ProtoUDP,
		}, Size: 100, Ref: packet.NoRef}
	}
	f.Process(hit(a))
	f.Process(hit(b))

	c := deltaRule(rng, 3, 0)
	if err := f.ReconfigureDelta(Delta{Adds: []rules.Rule{c}, Removes: []rules.Rule{{ID: b.ID}}}); err != nil {
		t.Fatal(err)
	}
	f.Process(hit(a))
	f.Process(hit(c))

	got := f.RuleBytes(false)
	if got[a.ID] != 200 {
		t.Fatalf("survivor counter = %d, want 200 (carried across the delta)", got[a.ID])
	}
	if _, ok := got[b.ID]; ok {
		t.Fatalf("removed rule still reports bytes: %v", got)
	}
	if got[c.ID] != 100 {
		t.Fatalf("added rule counter = %d, want 100", got[c.ID])
	}
}

// TestReconfigureDeltaExactTablePolicy: an adds-only delta preserves the
// learned exact-match entries (appended rules cannot change any existing
// decision); any remove resets them.
func TestReconfigureDeltaExactTablePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prob := deltaRule(rng, 1, 0.5) // probabilistic: flows get promoted
	set, err := rules.NewSet([]rules.Rule{prob}, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testEnclave(t), set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		d := deltaProbe(rng, []rules.Rule{prob})
		f.Process(d)
	}
	if f.Promote() == 0 {
		t.Fatal("no flows promoted; workload bug")
	}
	before := f.ExactEntries()

	if err := f.ReconfigureDelta(Delta{Adds: []rules.Rule{deltaRule(rng, 2, 0)}}); err != nil {
		t.Fatal(err)
	}
	if got := f.ExactEntries(); got != before {
		t.Fatalf("adds-only delta dropped learned entries: %d -> %d", before, got)
	}
	if err := f.ReconfigureDelta(Delta{Removes: []rules.Rule{{ID: 2}}}); err != nil {
		t.Fatal(err)
	}
	if got := f.ExactEntries(); got != 0 {
		t.Fatalf("remove delta kept learned entries: %d", got)
	}
}

// TestReconfigureDeltaDensifyBound: a long add/remove churn lineage can
// never grow the sparse priority domain past densifyFactor x the rule
// count — the dense-rebuild fallback kicks in transparently, survivor
// counters ride through it, and verdicts stay oracle-equivalent.
func TestReconfigureDeltaDensifyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	keep := deltaRule(rng, 1, 0) // permanent rule whose counter must survive every densify
	base := []rules.Rule{keep}
	for i := 0; i < 31; i++ {
		base = append(base, deltaRule(rng, uint32(100+i), 0))
	}
	set, err := rules.NewSet(base, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(testEnclave(t), set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hit := packet.Descriptor{Tuple: packet.FiveTuple{
		SrcIP: keep.Src.Addr, DstIP: packet.MustParseIP("192.0.2.9"),
		SrcPort: 7, DstPort: 53, Proto: packet.ProtoUDP,
	}, Size: 100, Ref: packet.NoRef}
	f.Process(hit)

	// 40 rounds of 16-for-16 churn: without densification the priority
	// domain would reach 32+640; with it, it is bounded by 2x the set.
	prev := []rules.Rule(nil)
	nextID := uint32(5000)
	for round := 0; round < 40; round++ {
		adds := make([]rules.Rule, 16)
		for i := range adds {
			adds[i] = deltaRule(rng, nextID, 0)
			nextID++
		}
		if err := f.ReconfigureDelta(Delta{Adds: adds, Removes: prev}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		prev = adds
	}
	view := f.view.Load()
	n := view.set.Len()
	if domain := int(view.maxPrio) + 1; domain > densifyFactor*n {
		t.Fatalf("priority domain %d exceeds bound %d (rules %d): densify never fired", domain, densifyFactor*n, n)
	}
	if got := len(f.ruleBytes); got > densifyFactor*n {
		t.Fatalf("ruleBytes grew to %d slots for %d rules", got, n)
	}
	if got := f.RuleBytes(false)[keep.ID]; got != 100 {
		t.Fatalf("survivor counter lost across densify rebuilds: %d, want 100", got)
	}
	if got := f.Process(hit); got != VerdictDrop {
		t.Fatalf("permanent rule stopped enforcing after churn: %v", got)
	}
}

// TestReconfigureDeltaErrors: unknown removes, duplicate removes, and
// empty results refuse without mutating the filter.
func TestReconfigureDeltaErrors(t *testing.T) {
	f := newFilter(t, Config{})
	before := f.RuleCount()
	if err := f.ReconfigureDelta(Delta{Removes: []rules.Rule{{ID: 999}}}); err == nil {
		t.Fatal("unknown remove accepted")
	}
	if err := f.ReconfigureDelta(Delta{Removes: []rules.Rule{{ID: 1}, {ID: 1}}}); err == nil {
		t.Fatal("duplicate remove accepted")
	}
	if err := f.ReconfigureDelta(Delta{Removes: []rules.Rule{{ID: 1}, {ID: 2}, {ID: 3}}}); err != ErrNoRules {
		t.Fatalf("emptying delta: %v, want ErrNoRules", err)
	}
	if got := f.RuleCount(); got != before {
		t.Fatalf("failed deltas mutated the filter: %d -> %d rules", before, got)
	}
}
