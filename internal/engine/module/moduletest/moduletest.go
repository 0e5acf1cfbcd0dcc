// Package moduletest is the reusable conformance harness for burst
// modules: given any module.Module, Run property-tests the package
// contract — mask discipline (bits set, never cleared; pre-masked
// packets leave the verdict stage as VerdictDrop), verdict-slice shape
// (absent or exactly one per packet, values valid), no retained
// references into the burst arena (the backing arrays are garbled after
// every call and observable state must not move), idempotent Flush, and
// the engine accounting identity Allowed+Dropped+Faulted+Orphaned ==
// Processed replayed through a miniature supervised worker loop.
// Third-party modules get the same scrutiny the core stages ship with
// by writing one table entry.
package moduletest

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/netsim"
	"github.com/innetworkfiltering/vif/internal/packet"
)

// Config describes one module under test.
type Config struct {
	// New returns a fresh module instance. Required. Called once per
	// Run; the instance sees every generated burst, like a worker-owned
	// module sees every burst of its shard.
	New func(t *testing.T) module.Module
	// Observe snapshots the module's externally visible state (captured
	// packets, counters) as a deep value — reflect.DeepEqual-comparable.
	// The retention and flush checks compare snapshots; nil limits them
	// to crash-freedom.
	Observe func(m module.Module) any
	// VerdictStage marks a module that assigns verdicts: after
	// ProcessBurst every packet must carry one, and packets masked
	// before the call must carry VerdictDrop.
	VerdictStage bool
	// VerdictNeutral asserts the module never alters pre-existing
	// verdicts nor the drop mask (taps, observers).
	VerdictNeutral bool
	// PreVerdict feeds bursts whose verdicts are already assigned, as a
	// module placed after the verdict stage sees them. Ignored for
	// verdict stages.
	PreVerdict bool
	// PreMask, when set, pre-marks a deterministic subset of packets
	// dropped before some calls, exercising the mask-discipline checks.
	// Leave false for modules whose contract requires an unmasked burst.
	PreMask bool
	// Seed varies the generated workload (0 = fixed default).
	Seed int64
	// Bursts is the number of generated bursts (0 = 64).
	Bursts int
}

// Run drives the module through the conformance property suite.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.New == nil {
		t.Fatal("moduletest: Config.New is required")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 20250808
	}
	bursts := cfg.Bursts
	if bursts == 0 {
		bursts = 64
	}
	m := cfg.New(t)
	if m.Name() == "" {
		t.Fatal("moduletest: module Name() is empty")
	}
	if n2 := m.Name(); n2 != m.Name() {
		t.Fatalf("moduletest: module Name() unstable: %q then %q", m.Name(), n2)
	}

	rng := rand.New(rand.NewSource(seed))
	gen := netsim.NewFlowGen(seed, packet.MustParseIP("192.0.2.0"), 24)
	var ctx module.BurstCtx

	// Accounting tally across the whole run, engine-style.
	var processed, allowed, dropped, faulted, orphaned uint64

	sizes := []int{0, 1, 3, 17, 64, 257}
	for b := 0; b < bursts; b++ {
		n := sizes[b%len(sizes)]
		pkts := makeBurst(gen, rng, n)

		// A few rounds model a detached namespace: the worker never runs
		// the chain, the packets count as orphaned.
		if b%13 == 5 {
			processed += uint64(len(pkts))
			orphaned += uint64(len(pkts))
			continue
		}

		verdicts := make([]filter.Verdict, 0, n)
		ctx.Reset(0, 1, pkts, verdicts)
		if cfg.PreVerdict && !cfg.VerdictStage {
			ctx.Verdicts = ctx.Verdicts[:0]
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					ctx.Verdicts = append(ctx.Verdicts, filter.VerdictAllow)
				} else {
					ctx.Verdicts = append(ctx.Verdicts, filter.VerdictDrop)
				}
			}
		}
		premasked := map[int]bool{}
		if cfg.PreMask && b%3 == 1 {
			for i := 0; i < n; i += 7 {
				ctx.MarkDrop(i)
				premasked[i] = true
			}
		}
		preVerdicts := append([]filter.Verdict(nil), ctx.Verdicts...)
		preMaskCount := ctx.MaskedDrops()

		faultedBurst := runRecovered(t, m, &ctx)
		processed += uint64(len(pkts))
		if faultedBurst {
			// The supervisor folds a panicked burst's packets into
			// faulted: processed without a verdict.
			faulted += uint64(len(pkts))
			continue
		}

		// Shape: the packet slice is the worker's; its length is fixed.
		if len(ctx.Pkts) != n {
			t.Fatalf("burst %d: module resized Pkts: %d -> %d", b, n, len(ctx.Pkts))
		}
		// Verdict-slice discipline: absent or exactly one per packet.
		if len(ctx.Verdicts) != 0 && len(ctx.Verdicts) != n {
			t.Fatalf("burst %d: %d verdicts for %d packets", b, len(ctx.Verdicts), n)
		}
		for i, v := range ctx.Verdicts {
			if v != 0 && v != filter.VerdictAllow && v != filter.VerdictDrop {
				t.Fatalf("burst %d: packet %d: invalid verdict %d", b, i, v)
			}
		}
		// Mask discipline: monotone — every pre-set bit survives.
		for i := range premasked {
			if !ctx.Dropped(i) {
				t.Fatalf("burst %d: module cleared drop bit of packet %d", b, i)
			}
		}
		if ctx.MaskedDrops() < preMaskCount {
			t.Fatalf("burst %d: masked count shrank %d -> %d", b, preMaskCount, ctx.MaskedDrops())
		}
		if cfg.VerdictStage {
			if n > 0 && len(ctx.Verdicts) != n {
				t.Fatalf("burst %d: verdict stage left %d of %d packets unverdicted", b, n-len(ctx.Verdicts), n)
			}
			for i := range premasked {
				if ctx.Verdicts[i] != filter.VerdictDrop {
					t.Fatalf("burst %d: pre-masked packet %d left verdict stage as %v", b, i, ctx.Verdicts[i])
				}
			}
		}
		if cfg.VerdictNeutral {
			if got, want := ctx.Verdicts, preVerdicts; !verdictsEqual(got, want) {
				t.Fatalf("burst %d: verdict-neutral module changed verdicts: %v -> %v", b, want, got)
			}
			if ctx.MaskedDrops() != preMaskCount {
				t.Fatalf("burst %d: verdict-neutral module changed mask: %d -> %d", b, preMaskCount, ctx.MaskedDrops())
			}
		}

		// Accounting, engine-style: mask overrides allow; a burst with no
		// verdict stage downstream would get one in a real chain, so the
		// harness finishes unverdicted packets as a minimal verdict stage
		// would (masked drop, rest allow).
		for i := 0; i < n; i++ {
			var v filter.Verdict
			if i < len(ctx.Verdicts) {
				v = ctx.Verdicts[i]
			}
			if v == 0 {
				if ctx.Dropped(i) {
					v = filter.VerdictDrop
				} else {
					v = filter.VerdictAllow
				}
			}
			if v == filter.VerdictAllow && !ctx.Dropped(i) {
				allowed++
			} else {
				dropped++
			}
		}

		// Retention: garble the burst's backing memory; the module's
		// observable state must not move (anything kept must be a copy).
		if cfg.Observe != nil {
			before := cfg.Observe(m)
			garble(pkts, ctx.Verdicts)
			after := cfg.Observe(m)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("burst %d: module state changed when the burst arena was garbled — retained reference?\nbefore: %#v\nafter:  %#v", b, before, after)
			}
		} else {
			garble(pkts, ctx.Verdicts)
		}
	}

	// Idempotent flush: a second Flush observes nothing new.
	m.Flush()
	if cfg.Observe != nil {
		s1 := cfg.Observe(m)
		m.Flush()
		s2 := cfg.Observe(m)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("Flush not idempotent:\nfirst:  %#v\nsecond: %#v", s1, s2)
		}
	} else {
		m.Flush()
	}

	if allowed+dropped+faulted+orphaned != processed {
		t.Fatalf("accounting identity broken: allowed %d + dropped %d + faulted %d + orphaned %d != processed %d",
			allowed, dropped, faulted, orphaned, processed)
	}
	if processed == 0 {
		t.Fatal("moduletest: generated no packets — workload config broken")
	}
}

// runRecovered invokes ProcessBurst under the worker supervisor's
// recover discipline, reporting whether the burst faulted.
func runRecovered(t *testing.T, m module.Module, ctx *module.BurstCtx) (faulted bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			faulted = true
		}
	}()
	m.ProcessBurst(ctx)
	return false
}

// makeBurst synthesizes n descriptors with netsim flows, folding in the
// packet trains (duplicate runs) the dedup paths special-case.
func makeBurst(gen *netsim.FlowGen, rng *rand.Rand, n int) []packet.Descriptor {
	pkts := make([]packet.Descriptor, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			pkts[i] = pkts[i-1] // train
			continue
		}
		pkts[i] = packet.Descriptor{Tuple: gen.Next(), Size: uint16(64 + rng.Intn(1400)), NS: 1}
	}
	return pkts
}

// garble overwrites the burst's backing arrays with junk, so any module
// that retained a reference instead of copying sees its state change.
func garble(pkts []packet.Descriptor, verdicts []filter.Verdict) {
	for i := range pkts {
		pkts[i] = packet.Descriptor{Tuple: packet.FiveTuple{SrcIP: 0xdeadbeef, DstIP: 0xdeadbeef, SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xfe}, Size: 0xffff, NS: 0xffff}
	}
	for i := range verdicts {
		verdicts[i] = filter.Verdict(0xff)
	}
}

func verdictsEqual(a, b []filter.Verdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
