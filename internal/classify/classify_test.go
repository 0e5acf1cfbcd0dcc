package classify

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// randRule draws a rule with an independent mix of wildcard and restricted
// attributes — the shapes the paper's rule language spans (§III-A).
func randRule(rng *rand.Rand) rules.Rule {
	var r rules.Rule
	if rng.Intn(4) != 0 {
		l := uint8(4 + rng.Intn(29)) // /4../32
		r.Src = rules.Prefix{Addr: rng.Uint32(), Len: l}.Canonical()
	}
	if rng.Intn(3) != 0 {
		l := uint8(4 + rng.Intn(29))
		r.Dst = rules.Prefix{Addr: rng.Uint32(), Len: l}.Canonical()
	}
	if rng.Intn(2) == 0 {
		lo := uint16(rng.Intn(65536))
		hi := lo + uint16(rng.Intn(int(65535-lo)+1))
		r.SrcPort = rules.PortRange{Lo: lo, Hi: hi}
	}
	if rng.Intn(3) == 0 {
		lo := uint16(rng.Intn(65536))
		hi := lo + uint16(rng.Intn(int(65535-lo)+1))
		r.DstPort = rules.PortRange{Lo: lo, Hi: hi}
	}
	if rng.Intn(2) == 0 {
		r.Proto = []packet.Protocol{1, 6, 17}[rng.Intn(3)]
	}
	return r
}

// randProbe mixes uniform tuples with tuples steered into a random rule's
// ranges, so matches are common enough to exercise the intersection path.
func randProbe(rng *rand.Rand, rs []rules.Rule) packet.FiveTuple {
	t := packet.FiveTuple{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Proto:   []packet.Protocol{1, 6, 17}[rng.Intn(3)],
	}
	if len(rs) == 0 || rng.Intn(3) == 0 {
		return t
	}
	r := rs[rng.Intn(len(rs))]
	if !r.Src.IsAny() {
		t.SrcIP = r.Src.Addr | (rng.Uint32() &^ r.Src.Mask())
	}
	if !r.Dst.IsAny() {
		t.DstIP = r.Dst.Addr | (rng.Uint32() &^ r.Dst.Mask())
	}
	if !r.SrcPort.IsAny() {
		t.SrcPort = r.SrcPort.Lo + uint16(rng.Intn(int(r.SrcPort.Hi-r.SrcPort.Lo)+1))
	}
	if !r.DstPort.IsAny() {
		t.DstPort = r.DstPort.Lo + uint16(rng.Intn(int(r.DstPort.Hi-r.DstPort.Lo)+1))
	}
	if r.Proto != 0 {
		t.Proto = r.Proto
	}
	return t
}

// oracleMatch is the linear first-match scan the classifier must agree
// with: lowest index (= lowest priority) wins.
func oracleMatch(rs []rules.Rule, t packet.FiveTuple) (int, bool) {
	for i := range rs {
		if rs[i].Matches(t) {
			return i, true
		}
	}
	return 0, false
}

func checkAgainstOracle(t *testing.T, p *Program, rs []rules.Rule, prios []int32, probes int, rng *rand.Rand) {
	t.Helper()
	for n := 0; n < probes; n++ {
		tu := randProbe(rng, rs)
		wantIdx, wantOK := oracleMatch(rs, tu)
		gotIdx, gotPrio, refs, gotOK := p.Classify(tu)
		if gotOK != wantOK {
			t.Fatalf("probe %v: ok=%v want %v", tu, gotOK, wantOK)
		}
		if refs < 0 {
			t.Fatalf("probe %v: negative ref count %d", tu, refs)
		}
		if !gotOK {
			continue
		}
		if int(gotIdx) != wantIdx {
			t.Fatalf("probe %v: matched rule %d want %d", tu, gotIdx, wantIdx)
		}
		wantPrio := int32(wantIdx)
		if prios != nil {
			wantPrio = prios[wantIdx]
		}
		if gotPrio != wantPrio {
			t.Fatalf("probe %v: priority %d want %d", tu, gotPrio, wantPrio)
		}
	}
}

func TestClassifyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(200)
		rs := make([]rules.Rule, k)
		for i := range rs {
			rs[i] = randRule(rng)
		}
		p := Compile(rs, nil, int32(k-1))
		if p.Len() != k {
			t.Fatalf("Len=%d want %d", p.Len(), k)
		}
		checkAgainstOracle(t, p, rs, nil, 300, rng)
	}
}

// TestClassifyPriorityOrder pins first-match-wins on deliberately
// overlapping rules: a broad low-priority rule must lose to every
// narrower rule above it, and win once they are gone.
func TestClassifyPriorityOrder(t *testing.T) {
	mk := func(s string) rules.Rule {
		r, err := rules.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return r
	}
	rs := []rules.Rule{
		mk("drop udp from 192.0.2.0/24 to any sport 53"),
		mk("drop udp from 192.0.2.0/24 to any"),
		mk("drop any from 192.0.2.0/16 to any"),
	}
	p := Compile(rs, nil, 2)
	tu := packet.FiveTuple{SrcIP: 0xC0000201, SrcPort: 53, DstPort: 9, Proto: 17}
	if idx, prio, _, ok := p.Classify(tu); !ok || idx != 0 || prio != 0 {
		t.Fatalf("dns probe: got idx=%d prio=%d ok=%v, want rule 0", idx, prio, ok)
	}
	tu.SrcPort = 54
	if idx, _, _, ok := p.Classify(tu); !ok || idx != 1 {
		t.Fatalf("udp probe: got idx=%d ok=%v, want rule 1", idx, ok)
	}
	tu.Proto = 6
	if idx, _, _, ok := p.Classify(tu); !ok || idx != 2 {
		t.Fatalf("tcp probe: got idx=%d ok=%v, want rule 2", idx, ok)
	}
	tu.SrcIP = 0xC1000000
	if _, _, _, ok := p.Classify(tu); ok {
		t.Fatalf("out-of-range probe matched")
	}
}

// TestClassifyDenseDriver forces every attribute's candidate set past
// sparseMax so the word-wise AND fallback runs, and checks it still
// returns the lowest priority.
func TestClassifyDenseDriver(t *testing.T) {
	const k = 3 * sparseMax
	rs := make([]rules.Rule, k)
	for i := range rs {
		rs[i] = rules.Rule{
			Src:     rules.Prefix{Addr: 0x0A000000, Len: 16},
			Dst:     rules.Prefix{Addr: 0xC6336400, Len: 24},
			SrcPort: rules.PortRange{Lo: 1000, Hi: 2000},
			Proto:   17,
		}
	}
	p := Compile(rs, nil, k-1)
	tu := packet.FiveTuple{SrcIP: 0x0A00BEEF, DstIP: 0xC6336407, SrcPort: 1500, DstPort: 9, Proto: 17}
	if idx, prio, _, ok := p.Classify(tu); !ok || idx != 0 || prio != 0 {
		t.Fatalf("dense driver: got idx=%d prio=%d ok=%v, want rule 0", idx, prio, ok)
	}
	// Knock out the first word's worth of priorities via a delta and
	// confirm the AND scan finds the next live one.
	removed := rs[:70]
	removedPrios := make([]int32, 70)
	for i := range removedPrios {
		removedPrios[i] = int32(i)
	}
	survivors := rs[70:]
	prios := make([]int32, len(survivors))
	for i := range prios {
		prios[i] = int32(70 + i)
	}
	q := p.Delta(Delta{
		Rules: survivors, Prios: prios, MaxPrio: k - 1,
		AddStart: len(survivors), RemovedRules: removed, RemovedPrios: removedPrios,
	})
	if idx, prio, _, ok := q.Classify(tu); !ok || idx != 0 || prio != 70 {
		t.Fatalf("dense driver after delta: got idx=%d prio=%d ok=%v, want idx 0 prio 70", idx, prio, ok)
	}
	if _, _, _, ok := q.Classify(packet.FiveTuple{SrcIP: 0x0A00BEEF, DstIP: 0xC6336407, SrcPort: 999, Proto: 17}); ok {
		t.Fatalf("sport outside range matched")
	}
}

// applyStep mutates a tracked rule world the way filter.ReconfigureDelta
// does: survivors keep their priorities, adds take fresh priorities past
// the old maximum.
type ruleWorld struct {
	rs      []rules.Rule
	prios   []int32
	maxPrio int32
}

func (w *ruleWorld) step(rng *rand.Rand, removeN, addN int) Delta {
	isRemoved := make(map[int]bool, removeN)
	for _, i := range rng.Perm(len(w.rs))[:removeN] {
		isRemoved[i] = true
	}
	adds := make([]rules.Rule, addN)
	for i := range adds {
		adds[i] = randRule(rng)
	}
	return w.apply(isRemoved, adds)
}

// apply removes the rules at the marked indices and appends adds.
func (w *ruleWorld) apply(isRemoved map[int]bool, adds []rules.Rule) Delta {
	var removedRules []rules.Rule
	var removedPrios []int32
	var survivors []rules.Rule
	var survivorPrios []int32
	for i := range w.rs {
		if isRemoved[i] {
			removedRules = append(removedRules, w.rs[i])
			removedPrios = append(removedPrios, w.prios[i])
			continue
		}
		survivors = append(survivors, w.rs[i])
		survivorPrios = append(survivorPrios, w.prios[i])
	}
	addStart := len(survivors)
	for i, r := range adds {
		survivors = append(survivors, r)
		survivorPrios = append(survivorPrios, w.maxPrio+1+int32(i))
	}
	w.rs, w.prios = survivors, survivorPrios
	w.maxPrio += int32(len(adds))
	return Delta{
		Rules: survivors, Prios: survivorPrios, MaxPrio: w.maxPrio,
		AddStart: addStart, RemovedRules: removedRules, RemovedPrios: removedPrios,
	}
}

// hostRules returns n /32 source rules at base, base+4, ... — each
// contributes two boundaries of its own inside base's /16 block.
func hostRules(base uint32, n int) []rules.Rule {
	rs := make([]rules.Rule, n)
	for i := range rs {
		rs[i] = rules.Rule{Src: rules.Prefix{Addr: base + uint32(i)*4, Len: 32}}
	}
	return rs
}

// hostRulesIn marks the indices of w's /32 source rules inside blk's /16.
func (w *ruleWorld) hostRulesIn(blk uint32) map[int]bool {
	m := make(map[int]bool)
	for i, r := range w.rs {
		if r.Src.Len == 32 && r.Src.Addr>>16 == blk {
			m[i] = true
		}
	}
	return m
}

// TestDeltaEquivalentToCompile drives random delta chains and asserts the
// evolved program deep-equals a fresh compile of the same successor set —
// membership and index arenas, boundary refcounts, representation
// choices, everything — and that both agree with the linear oracle. Every
// fourth step flips boundaries inside one /16 on purpose: host rules land
// there (a leaf appears; in the last trial it is past denseChunkMin) and
// are all removed two steps later (it dies).
func TestDeltaEquivalentToCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		k, hosts := 40+rng.Intn(120), 20
		if trial == 7 {
			// Large enough that 300 host rules (600 boundaries, a
			// value-indexed leaf) stay under the recompile threshold.
			k, hosts = 1500, 300
		}
		w := &ruleWorld{maxPrio: int32(k - 1)}
		w.rs = make([]rules.Rule, k)
		w.prios = make([]int32, k)
		for i := range w.rs {
			w.rs[i] = randRule(rng)
			w.prios[i] = int32(i)
		}
		p := Compile(w.rs, w.prios, w.maxPrio)
		for step := 0; step < 12; step++ {
			// Mostly small steps (patch path), occasionally heavy churn
			// to cross the recompile threshold.
			bound := len(w.rs)/10 + 1
			if step%5 == 4 {
				bound = len(w.rs)/2 + 1
			}
			d := w.step(rng, rng.Intn(bound), rng.Intn(bound))
			p = p.Delta(d)
			switch step % 4 {
			case 1:
				p = p.Delta(w.apply(nil, hostRules(0x0A0A0000, hosts)))
			case 3:
				p = p.Delta(w.apply(w.hostRulesIn(0x0A0A), nil))
			}
			fresh := Compile(w.rs, w.prios, w.maxPrio)
			if !reflect.DeepEqual(p, fresh) {
				t.Fatalf("trial %d step %d: delta program diverged from fresh compile", trial, step)
			}
			checkAgainstOracle(t, p, w.rs, w.prios, 120, rng)
		}
	}
}

// TestMemoryBytesNumberingInvariant: a delta-evolved program (sparse
// priority domain) must report the same MemoryBytes as compiling the
// same live rules densely from scratch — the figure EPCBudgeter weights
// and the filter's delta-vs-oracle parity rely on — while RetainedBytes
// covers the actual, slack-bearing arrays.
func TestMemoryBytesNumberingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := 200
	w := &ruleWorld{maxPrio: int32(k - 1)}
	w.rs = make([]rules.Rule, k)
	w.prios = make([]int32, k)
	for i := range w.rs {
		w.rs[i] = randRule(rng)
		w.prios[i] = int32(i)
	}
	p := Compile(w.rs, w.prios, w.maxPrio)
	for step := 0; step < 10; step++ {
		d := w.step(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		p = p.Delta(d)
		dense := Compile(w.rs, nil, int32(len(w.rs)-1))
		if got, want := p.MemoryBytes(), dense.MemoryBytes(); got != want {
			t.Fatalf("step %d: sparse-domain MemoryBytes %d != dense compile %d", step, got, want)
		}
		if p.RetainedBytes() < p.MemoryBytes() {
			t.Fatalf("step %d: RetainedBytes %d < MemoryBytes %d", step, p.RetainedBytes(), p.MemoryBytes())
		}
	}
}

func TestCompileEmpty(t *testing.T) {
	p := Compile(nil, nil, -1)
	if _, _, _, ok := p.Classify(packet.FiveTuple{SrcIP: 1}); ok {
		t.Fatalf("empty program matched")
	}
	if p.MemoryBytes() <= 0 || p.RetainedBytes() < p.MemoryBytes() {
		t.Fatalf("empty program memory accounting: mem=%d retained=%d", p.MemoryBytes(), p.RetainedBytes())
	}
}

func TestUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		b := make([]uint32, rng.Intn(40))
		for i := range b {
			b[i] = uint32(rng.Intn(1000))
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for n := 0; n < 50; n++ {
			v := uint32(rng.Intn(1100))
			want := sort.Search(len(b), func(i int) bool { return b[i] > v })
			if got := upperBound(b, v); got != want {
				t.Fatalf("upperBound(%v, %d)=%d want %d", b, v, got, want)
			}
		}
	}
}

// TestClassifyConcurrentWithDelta exercises the copy-on-write contract
// under -race: readers classify against a program while the writer
// evolves successors from it.
func TestClassifyConcurrentWithDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := 120
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
			for n := 0; n < 5000; n++ {
				tu := randProbe(r, frozen)
				wantIdx, wantOK := oracleMatch(frozen, tu)
				gotIdx, _, _, gotOK := p.Classify(tu)
				if gotOK != wantOK || (gotOK && int(gotIdx) != wantIdx) {
					t.Errorf("concurrent probe diverged: got (%d,%v) want (%d,%v)", gotIdx, gotOK, wantIdx, wantOK)
					return
				}
			}
		}(int64(g))
	}
	cur := p
	for step := 0; step < 6; step++ {
		cur = cur.Delta(w.step(rng, 1+rng.Intn(5), 1+rng.Intn(5)))
	}
	wg.Wait()
	if _, _, _, ok := cur.Classify(packet.FiveTuple{}); ok && len(w.rs) == 0 {
		t.Fatalf("empty successor matched")
	}
}

var fuzzOnce struct {
	sync.Once
	rs []rules.Rule
	p  *Program
}

func fuzzProgram() ([]rules.Rule, *Program) {
	fuzzOnce.Do(func() {
		rng := rand.New(rand.NewSource(6))
		fuzzOnce.rs = make([]rules.Rule, 150)
		for i := range fuzzOnce.rs {
			fuzzOnce.rs[i] = randRule(rng)
		}
		// 10.10.0.0/16 carpeted by /28s: 4095 boundaries inside one block,
		// so the fuzzers reach a value-indexed leaf.
		for a := uint32(0x0A0A0000); a < 0x0A0B0000; a += 16 {
			fuzzOnce.rs = append(fuzzOnce.rs, rules.Rule{Src: rules.Prefix{Addr: a, Len: 28}})
		}
		fuzzOnce.p = Compile(fuzzOnce.rs, nil, int32(len(fuzzOnce.rs)-1))
	})
	return fuzzOnce.rs, fuzzOnce.p
}

// FuzzClassify feeds arbitrary five-tuples through the compiled program
// and cross-checks the linear oracle.
func FuzzClassify(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint32(0xC0000201), uint32(0xC6336401), uint16(53), uint16(443), uint8(17))
	f.Add(^uint32(0), ^uint32(0), uint16(65535), uint16(65535), uint8(255))
	var seed [13]byte
	binary.BigEndian.PutUint32(seed[0:], 0x0A000001)
	f.Add(binary.BigEndian.Uint32(seed[0:]), uint32(0x0A000002), uint16(1024), uint16(80), uint8(6))
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16, proto uint8) {
		rs, p := fuzzProgram()
		tu := packet.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: packet.Protocol(proto)}
		wantIdx, wantOK := oracleMatch(rs, tu)
		gotIdx, gotPrio, _, gotOK := p.Classify(tu)
		if gotOK != wantOK {
			t.Fatalf("tuple %v: ok=%v want %v", tu, gotOK, wantOK)
		}
		if gotOK && (int(gotIdx) != wantIdx || gotPrio != int32(wantIdx)) {
			t.Fatalf("tuple %v: got (%d,%d) want %d", tu, gotIdx, gotPrio, wantIdx)
		}
	})
}

// TestAnyEnumeration pins the driver's any-rule walk on the shapes a
// sparse any-set takes over a wide priority domain — one catch-all behind
// everything, a cluster at the tail, members either side of a bitset-word
// and a summary-word edge, at and past sparseMax (the list alone, then
// the list continued through the summary level): anyAt must yield exactly the any-rule priorities, ascending, and
// Classify must agree with the first-match oracle on packets only those
// rules match.
func TestAnyEnumeration(t *testing.T) {
	const domain = 300000 // more than one summary word (64*64*64 = 262,144 priorities)
	run := func(lo, n, stride int32) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = lo + int32(i)*stride
		}
		return s
	}
	for name, anys := range map[string][]int32{
		"none":           nil,
		"first":          {0},
		"last":           {domain - 1},
		"word edges":     {63, 64, 4095, 4096, 262143, 262144},
		"sparseMax":      run(domain-sparseMax, sparseMax, 1),
		"sparseMax+1":    run(domain-sparseMax-1, sparseMax+1, 1),
		"tail cluster":   run(domain-100, 100, 1),
		"spread":         run(17, 200, 1499),
		"summary stride": run(5, 70, 4096),
	} {
		// Specific rules (one source host each) fill priorities around the
		// any-rules, which leave the source unrestricted and name one
		// destination port apiece.
		isAny := make(map[int32]int, len(anys))
		for i, pr := range anys {
			isAny[pr] = i
		}
		var rs []rules.Rule
		var prios []int32
		for pr := int32(0); pr < domain; pr += 997 {
			if _, ok := isAny[pr]; !ok {
				rs = append(rs, rules.Rule{ID: uint32(pr + 1), Src: rules.Prefix{Addr: 0x0A000000 + uint32(pr), Len: 32}})
				prios = append(prios, pr)
			}
		}
		for i, pr := range anys {
			port := uint16(1000 + i)
			rs = append(rs, rules.Rule{ID: uint32(pr + 1), DstPort: rules.PortRange{Lo: port, Hi: port}})
			prios = append(prios, pr)
		}
		sort.Sort(byPrio{rs, prios})
		p := Compile(rs, prios, domain-1)

		tb := &p.attrs[attrSrc]
		var got []int32
		for k, from := 0, int32(0); ; k++ {
			pr := tb.anyAt(k, from)
			if pr == noPrio {
				break
			}
			got, from = append(got, pr), pr+1
		}
		if !reflect.DeepEqual(got, anys) {
			t.Errorf("%s: anyAt enumerates %v, want %v", name, got, anys)
		}
		if len(tb.anyFew) != min(len(anys), sparseMax) || (tb.anySum != nil) != (len(anys) > sparseMax) {
			t.Errorf("%s: %d any-rules listed as %d with summary %v", name, len(anys), len(tb.anyFew), tb.anySum != nil)
		}
		for i, pr := range anys {
			// A source no specific rule names: only any-rule i matches.
			tu := packet.FiveTuple{SrcIP: 0xC0000000 + uint32(i), DstPort: uint16(1000 + i), Proto: packet.ProtoUDP}
			_, gotPr, _, ok := p.Classify(tu)
			if !ok || gotPr != pr {
				t.Errorf("%s: any-rule %d: Classify = prio %d ok %v, want prio %d", name, i, gotPr, ok, pr)
			}
		}
		if _, _, _, ok := p.Classify(packet.FiveTuple{SrcIP: 0xC0000000, DstPort: 1, Proto: packet.ProtoUDP}); ok {
			t.Errorf("%s: unmatched packet classified", name)
		}
	}
}

// byPrio sorts a rule slice and its priorities together, ascending.
type byPrio struct {
	rs    []rules.Rule
	prios []int32
}

func (b byPrio) Len() int           { return len(b.rs) }
func (b byPrio) Less(i, j int) bool { return b.prios[i] < b.prios[j] }
func (b byPrio) Swap(i, j int) {
	b.rs[i], b.rs[j] = b.rs[j], b.rs[i]
	b.prios[i], b.prios[j] = b.prios[j], b.prios[i]
}
