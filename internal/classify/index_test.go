package classify

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// boundaryProbes builds the adversarial probe set for a program: for
// every attribute, tuples carrying each elementary-interval boundary
// value and both its neighbors (v-1, v, v+1), plus the domain extremes
// (0, MaxUint32, port 0/65535, proto 0/255) — every value where the
// direct-index translation could disagree with upperBound over the
// boundary table by one interval.
func boundaryProbes(p *Program, rng *rand.Rand, rs []rules.Rule) []packet.FiveTuple {
	var out []packet.FiveTuple
	base := func() packet.FiveTuple { return randProbe(rng, rs) }
	addAttr := func(a int, v uint32) {
		t := base()
		switch a {
		case attrSrc:
			t.SrcIP = v
		case attrDst:
			t.DstIP = v
		case attrSrcPort:
			t.SrcPort = uint16(v)
		case attrDstPort:
			t.DstPort = uint16(v)
		default:
			t.Proto = packet.Protocol(v)
		}
		out = append(out, t)
	}
	domainTop := func(a int) uint32 {
		switch a {
		case attrSrc, attrDst:
			return ^uint32(0)
		case attrProto:
			return 0xFF
		default:
			return 0xFFFF
		}
	}
	for a := 0; a < numAttrs; a++ {
		addAttr(a, 0)
		addAttr(a, domainTop(a))
		for _, v := range p.attrs[a].bounds {
			for _, w := range [3]uint32{v - 1, v, v + 1} {
				if w <= domainTop(a) {
					addAttr(a, w)
				}
			}
		}
	}
	return out
}

// checkIndex asserts, for every probe, that each attribute's direct-index
// interval translation equals upperBound over its boundary table, and
// that Classify's verdict is the linear first-match scan's.
func checkIndex(t *testing.T, p *Program, rs []rules.Rule, prios []int32, probes []packet.FiveTuple) {
	t.Helper()
	for _, tu := range probes {
		keys := [numAttrs]uint32{
			tu.SrcIP, tu.DstIP, uint32(tu.SrcPort), uint32(tu.DstPort), uint32(tu.Proto),
		}
		for a := 0; a < numAttrs; a++ {
			tb := &p.attrs[a]
			if got, want := tb.interval(keys[a]), upperBound(tb.bounds, keys[a]); got != want {
				t.Fatalf("probe %v attr %d: interval %d want %d", tu, a, got, want)
			}
		}
		wantIdx, wantOK := oracleMatch(rs, tu)
		gotIdx, gotPrio, _, gotOK := p.Classify(tu)
		if gotOK != wantOK || (gotOK && int(gotIdx) != wantIdx) {
			t.Fatalf("probe %v: got (%d,%v) want (%d,%v)", tu, gotIdx, gotOK, wantIdx, wantOK)
		}
		if gotOK && prios != nil && gotPrio != prios[wantIdx] {
			t.Fatalf("probe %v: priority %d want %d", tu, gotPrio, prios[wantIdx])
		}
	}
}

// TestIndexMatchesSearchOracle: across random rule sets, the chunked
// direct-index probe must agree with upperBound and the linear-scan
// oracle on boundary-adjacent values and steered probes alike.
func TestIndexMatchesSearchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(300)
		rs := make([]rules.Rule, k)
		for i := range rs {
			rs[i] = randRule(rng)
		}
		p := Compile(rs, nil, int32(k-1))
		probes := boundaryProbes(p, rng, rs)
		for n := 0; n < 200; n++ {
			probes = append(probes, randProbe(rng, rs))
		}
		checkIndex(t, p, rs, nil, probes)
	}
}

// TestIndexMatchesSearchAcrossDeltas drives filter-shaped delta chains
// and re-checks the index after every step — shared by reference or
// rebuilt, its arenas must deep-equal a fresh compile's. Every third step
// adds host rules inside one /16 and two steps on removes them all, so
// leaves appear, grow and die between the random steps.
func TestIndexMatchesSearchAcrossDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 4; trial++ {
		k := 60 + rng.Intn(120)
		w := &ruleWorld{maxPrio: int32(k - 1)}
		w.rs = make([]rules.Rule, k)
		w.prios = make([]int32, k)
		for i := range w.rs {
			w.rs[i] = randRule(rng)
			w.prios[i] = int32(i)
		}
		p := Compile(w.rs, w.prios, w.maxPrio)
		for step := 0; step < 10; step++ {
			bound := len(w.rs)/8 + 1
			p = p.Delta(w.step(rng, rng.Intn(bound), rng.Intn(bound)))
			switch step % 3 {
			case 0:
				p = p.Delta(w.apply(nil, hostRules(0x0A0A0000|uint32(step)<<8, 24)))
			case 2:
				p = p.Delta(w.apply(w.hostRulesIn(0x0A0A), nil))
			}
			fresh := Compile(w.rs, w.prios, w.maxPrio)
			for a := 0; a < numAttrs; a++ {
				if !reflect.DeepEqual(p.attrs[a].idx, fresh.attrs[a].idx) {
					t.Fatalf("trial %d step %d attr %d: index arenas diverged from fresh compile", trial, step, a)
				}
			}
			probes := boundaryProbes(p, rng, w.rs)
			for n := 0; n < 60; n++ {
				probes = append(probes, randProbe(rng, w.rs))
			}
			checkIndex(t, p, w.rs, w.prios, probes)
		}
	}
}

// TestDenseChunk forces one /16 block past denseChunkMin boundaries so
// the value-indexed leaf array builds, and checks translation and
// accounting both see it.
func TestDenseChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const k = 600 // 2 boundaries per /32 rule, all in block 0x0A0A
	rs := make([]rules.Rule, k)
	for i := range rs {
		rs[i] = rules.Rule{Src: rules.Prefix{Addr: 0x0A0A0000 + uint32(i)*4, Len: 32}}
	}
	p := Compile(rs, nil, int32(k-1))
	srcIdx := &p.attrs[attrSrc].idx
	if len(srcIdx.chunks) != 2 || len(srcIdx.low) != 1<<16 {
		t.Fatalf("%d boundaries in one /16 block built %d chunk entries over a %d-entry arena, want one value-indexed leaf",
			2*k, len(srcIdx.chunks), len(srcIdx.low))
	}
	if p.IndexBytes() < 2*(1<<16) {
		t.Fatalf("IndexBytes %d does not cover the dense chunk array", p.IndexBytes())
	}
	probes := boundaryProbes(p, rng, rs)
	checkIndex(t, p, rs, nil, probes)
}

// TestFlatIndexConformance pins the address index's corner cases, one
// hand-built boundary table each, against upperBound at every boundary
// and both its neighbors. filler pads a case past hotBoundsMax with
// block-start boundaries, which are absorbed into their blocks' bases and
// so add no leaf of their own.
func TestFlatIndexConformance(t *testing.T) {
	filler := func(n int) []uint32 {
		b := make([]uint32, n)
		for i := range b {
			b[i] = 0x10000000 + uint32(i)<<16
		}
		return b
	}
	carpet := make([]uint32, 0, 600)
	for v := uint32(0x40000000); len(carpet) < 599; v += 109 {
		carpet = append(carpet, v)
	}
	carpet = append(carpet, 0x4000FFFF)
	for _, c := range []struct {
		name    string
		bounds  []uint32
		indexed bool
		leaves  int
		low     int // arena entries
	}{
		{"at most hotBoundsMax bounds build no index", filler(hotBoundsMax), false, 0, 0},
		{"block-start boundaries alone build no leaf", filler(20), true, 0, 0},
		{"boundary at a block start is absorbed into base",
			append(filler(20), 0x20000000, 0x20000005), true, 1, 1},
		{"low-16 values 0x0001 and 0xFFFF",
			append(filler(20), 0x30000001, 0x3000FFFF), true, 1, 2},
		{"first and last /16 block",
			append([]uint32{0x00000001, 0x0000FFFF}, append(filler(20), 0xFFFF0000, 0xFFFF0001, 0xFFFFFFFF)...), true, 2, 4},
		{"neighboring leaves share the arena",
			append(filler(20), 0x50000010, 0x50010020, 0x50010030, 0x50020000), true, 2, 3},
		{"a leaf of denseChunkMin bounds or more is value-indexed",
			append(filler(20), carpet...), true, 1, 1 << 16},
	} {
		tb := attrTable{bounds: c.bounds}
		tb.idx = buildIndex(attrSrc, tb.bounds)
		if got := tb.idx.root != nil; got != c.indexed {
			t.Fatalf("%s: indexed=%v want %v", c.name, got, c.indexed)
		}
		if c.indexed && (len(tb.idx.chunks) != c.leaves+1 || len(tb.idx.low) != c.low) {
			t.Fatalf("%s: %d chunk entries over %d arena entries, want %d over %d",
				c.name, len(tb.idx.chunks), len(tb.idx.low), c.leaves+1, c.low)
		}
		probes := []uint32{0, ^uint32(0)}
		for _, v := range c.bounds {
			probes = append(probes, v-1, v, v+1)
		}
		for _, v := range probes {
			if got, want := tb.interval(v), upperBound(tb.bounds, v); got != want {
				t.Fatalf("%s: interval(%#x)=%d want %d", c.name, v, got, want)
			}
		}
	}
}

// TestIndexBytesAccounting pins the memory-accounting contract: the
// index tables are priced inside MemoryBytes (EPC budgeting sees them),
// IndexBytes is numbering-invariant and delta-stable, and tables small
// enough to skip indexing price only headers.
func TestIndexBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))

	// One rule: every attribute is <= hotBoundsMax bounds, so no index
	// tables build and IndexBytes is headers only.
	small := Compile([]rules.Rule{randRule(rng)}, nil, 0)
	if got := small.IndexBytes(); got != numAttrs*indexOverheadBytes {
		t.Fatalf("small program IndexBytes=%d want %d (headers only)", got, numAttrs*indexOverheadBytes)
	}

	k := 400
	w := &ruleWorld{maxPrio: int32(k - 1)}
	w.rs = make([]rules.Rule, k)
	w.prios = make([]int32, k)
	for i := range w.rs {
		w.rs[i] = randRule(rng)
		w.prios[i] = int32(i)
	}
	p := Compile(w.rs, w.prios, w.maxPrio)
	if p.IndexBytes() <= numAttrs*indexOverheadBytes {
		t.Fatalf("large program built no index tables")
	}
	// MemoryBytes must include the index: repricing without it must fall
	// short by exactly IndexBytes.
	withoutIdx := 0
	for a := 0; a < numAttrs; a++ {
		withoutIdx += p.attrs[a].idx.indexBytes()
	}
	if p.MemoryBytes() <= withoutIdx {
		t.Fatalf("MemoryBytes %d does not cover IndexBytes %d", p.MemoryBytes(), withoutIdx)
	}
	for step := 0; step < 8; step++ {
		p = p.Delta(w.step(rng, 1+rng.Intn(10), 1+rng.Intn(10)))
		fresh := Compile(w.rs, nil, int32(len(w.rs)-1))
		if got, want := p.IndexBytes(), fresh.IndexBytes(); got != want {
			t.Fatalf("step %d: delta-evolved IndexBytes %d != fresh compile %d", step, got, want)
		}
		if got, want := p.MemoryBytes(), fresh.MemoryBytes(); got != want {
			t.Fatalf("step %d: delta-evolved MemoryBytes %d != fresh compile %d", step, got, want)
		}
		if p.RetainedBytes() < p.MemoryBytes() {
			t.Fatalf("step %d: RetainedBytes %d < MemoryBytes %d", step, p.RetainedBytes(), p.MemoryBytes())
		}
	}
}

// burstOf draws a burst mixing fresh tuples, duplicates of earlier burst
// members, and consecutive same-flow runs — the shapes ProcessBatch
// feeds through after dedup and the shapes ClassifyBatch's same-run
// short-circuit must stay faithful on.
func burstOf(rng *rand.Rand, rs []rules.Rule, n int) []packet.FiveTuple {
	ts := make([]packet.FiveTuple, 0, n)
	for len(ts) < n {
		switch {
		case len(ts) > 0 && rng.Intn(3) == 0: // extend a run
			ts = append(ts, ts[len(ts)-1])
		case len(ts) > 2 && rng.Intn(4) == 0: // duplicate an earlier flow
			ts = append(ts, ts[rng.Intn(len(ts))])
		default:
			ts = append(ts, randProbe(rng, rs))
		}
	}
	return ts
}

// TestClassifyBatchMatchesScalar: every Result field — rule, priority,
// refs, ok — must equal the scalar Classify's for the same tuple.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var sc BatchScratch
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(250)
		rs := make([]rules.Rule, k)
		for i := range rs {
			rs[i] = randRule(rng)
		}
		p := Compile(rs, nil, int32(k-1))
		ts := burstOf(rng, rs, 1+rng.Intn(200))
		ts = append(ts, boundaryProbes(p, rng, rs)...)
		res := p.ClassifyBatch(ts, &sc)
		if len(res) != len(ts) {
			t.Fatalf("ClassifyBatch returned %d results for %d tuples", len(res), len(ts))
		}
		for i, tu := range ts {
			r, pr, refs, ok := p.Classify(tu)
			got := res[i]
			if got.Rule != r || got.Prio != pr || int(got.Refs) != refs || got.OK != ok {
				t.Fatalf("tuple %d %v: batch (%d,%d,%d,%v) != scalar (%d,%d,%d,%v)",
					i, tu, got.Rule, got.Prio, got.Refs, got.OK, r, pr, refs, ok)
			}
		}
	}
}

// TestClassifyBatchEmpty covers the degenerate shapes.
func TestClassifyBatchEmpty(t *testing.T) {
	var sc BatchScratch
	p := Compile(nil, nil, -1)
	if res := p.ClassifyBatch(nil, &sc); len(res) != 0 {
		t.Fatalf("empty burst returned %d results", len(res))
	}
	if res := p.ClassifyBatch([]packet.FiveTuple{{SrcIP: 1}}, &sc); len(res) != 1 || res[0].OK {
		t.Fatalf("empty program matched: %+v", res)
	}
}

// TestClassifyBatchConcurrentWithDelta exercises the batch path's
// concurrency surface under -race: readers run ClassifyBatch (each with
// its own scratch) against a program while a writer evolves delta
// successors from it — the copy-on-write contract the filter's atomic
// view swap relies on.
func TestClassifyBatchConcurrentWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	k := 150
	w := &ruleWorld{maxPrio: int32(k - 1)}
	w.rs = make([]rules.Rule, k)
	w.prios = make([]int32, k)
	for i := range w.rs {
		w.rs[i] = randRule(rng)
		w.prios[i] = int32(i)
	}
	p := Compile(w.rs, w.prios, w.maxPrio)
	frozen := append([]rules.Rule(nil), w.rs...)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var sc BatchScratch
			for n := 0; n < 60; n++ {
				ts := burstOf(r, frozen, 64)
				res := p.ClassifyBatch(ts, &sc)
				for i, tu := range ts {
					wantIdx, wantOK := oracleMatch(frozen, tu)
					if res[i].OK != wantOK || (wantOK && int(res[i].Rule) != wantIdx) {
						t.Errorf("concurrent batch diverged: got (%d,%v) want (%d,%v)",
							res[i].Rule, res[i].OK, wantIdx, wantOK)
						return
					}
				}
			}
		}(int64(g))
	}
	cur := p
	for step := 0; step < 6; step++ {
		cur = cur.Delta(w.step(rng, 1+rng.Intn(5), 1+rng.Intn(5)))
	}
	wg.Wait()
	_ = cur
}

// FuzzClassifyBatch feeds arbitrary tuples through the batch path as a
// three-packet run and cross-checks the scalar path (which the linear
// oracle already pins via FuzzClassify).
func FuzzClassifyBatch(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(^uint32(0), ^uint32(0), uint16(65535), uint16(65535), uint8(255))
	f.Add(uint32(0xC0000201), uint32(0xC6336401), uint16(53), uint16(443), uint8(17))
	// Inside, on the edges of, and one past the /16 fuzzProgram carpets
	// with /28s (a value-indexed leaf).
	f.Add(uint32(0x0A0A0000), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint32(0x0A0A7FF0), uint32(0), uint16(0), uint16(0), uint8(6))
	f.Add(uint32(0x0A0AFFFF), uint32(0), uint16(0), uint16(0), uint8(17))
	f.Add(uint32(0x0A0B0000), uint32(0), uint16(0), uint16(0), uint8(17))
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16, proto uint8) {
		_, p := fuzzProgram()
		tu := packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: packet.Protocol(proto)}
		alt := tu
		alt.SrcIP ^= 0x00010000
		ts := []packet.FiveTuple{tu, tu, alt, tu}
		var sc BatchScratch
		res := p.ClassifyBatch(ts, &sc)
		for i, x := range ts {
			r, pr, refs, ok := p.Classify(x)
			if res[i].Rule != r || res[i].Prio != pr || int(res[i].Refs) != refs || res[i].OK != ok {
				t.Fatalf("tuple %d %v: batch (%d,%d,%d,%v) != scalar (%d,%d,%d,%v)",
					i, x, res[i].Rule, res[i].Prio, res[i].Refs, res[i].OK, r, pr, refs, ok)
			}
		}
	})
}
