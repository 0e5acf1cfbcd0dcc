package classify_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/innetworkfiltering/vif/internal/classify"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// benchShapeRules draws k rules in the repository benchmark's shape: a
// random source prefix from a mostly-/24 mix of lengths, one victim /24 as
// destination, UDP, ports unrestricted. It is a hand copy — bench/ is its
// own module, which the root module cannot import — of bench/gen.go's
// genRule (the srcLens mix, rng.Uint32 then rng.Intn per rule, Canonical),
// victimPrefix(0) and genRules' ID = index+1, at seed 1. PAllow is left
// out: it does not reach the compiled program. If those change, change
// this with them: the footprint tests' guarantees are about that shape.
func benchShapeRules(k int) []rules.Rule {
	rng := rand.New(rand.NewSource(1))
	srcLens := []uint8{22, 24, 24, 24, 26, 28}
	rs := make([]rules.Rule, k)
	for i := range rs {
		rs[i] = rules.Rule{
			ID:    uint32(i + 1),
			Src:   rules.Prefix{Addr: rng.Uint32(), Len: srcLens[rng.Intn(len(srcLens))]}.Canonical(),
			Dst:   rules.Prefix{Addr: 198<<24 | 18<<16, Len: 24},
			Proto: packet.ProtoUDP,
		}
	}
	return rs
}

// TestRetainedBytesMatchesHeap: what the program prices is what the heap
// holds. RetainedBytes must land within 5% of the live-heap growth across
// Compile — over-allocated slices or a guessed per-element size would
// under-charge the EPC meter by the difference.
func TestRetainedBytesMatchesHeap(t *testing.T) {
	for _, k := range []int{3000, 100000} {
		rs := benchShapeRules(k)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // twice: whatever the first cycle left floating must not count as freed later
		runtime.ReadMemStats(&before)
		p := classify.Compile(rs, nil, int32(k-1))
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		priced := float64(p.RetainedBytes())
		t.Logf("%d rules: RetainedBytes %.0f, heap %.0f", k, priced, heap)
		if ratio := priced / heap; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%d rules: RetainedBytes %.0f vs %.0f bytes of heap (ratio %.3f), want within 5%%", k, priced, heap, ratio)
		}
		runtime.KeepAlive(rs)
	}
}

// TestFootprintBudget guards the compiled layout's size on the benchmark's
// rule shape. The ceilings sit ~10% over today's figures (132 B/rule at
// 3,000 rules, where the 256 KiB address root dominates; 43 B/rule at
// 100,000), and the 100,000-rule filter must fit the cost model's LLC
// whole — binary, classifier and both sketches — so its cold references
// are priced as cache hits.
func TestFootprintBudget(t *testing.T) {
	for _, c := range []struct {
		rules   int
		ceiling float64 // program bytes per rule
	}{{3000, 145}, {100000, 48}} {
		rs := benchShapeRules(c.rules)
		p := classify.Compile(rs, nil, int32(c.rules-1))
		if perRule := float64(p.MemoryBytes()) / float64(c.rules); perRule > c.ceiling {
			t.Errorf("%d rules: %.1f program bytes per rule, ceiling %.0f", c.rules, perRule, c.ceiling)
		}
	}

	set, err := rules.NewSet(benchShapeRules(100000), true)
	if err != nil {
		t.Fatal(err)
	}
	model := enclave.DefaultCostModel()
	e, err := enclave.New(enclave.CodeIdentity{Name: "vif-filter", Version: "test", BinarySize: 1 << 20}, model)
	if err != nil {
		t.Fatal(err)
	}
	f, err := filter.New(e, set, filter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if used := f.Enclave().MemoryUsed(); used > model.LLCBytes {
		t.Errorf("100000-rule filter holds %d bytes of enclave memory, over the %d-byte LLC", used, model.LLCBytes)
	}
}
