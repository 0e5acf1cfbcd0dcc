package classify

import (
	"math"
	"math/bits"
	"slices"

	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// Attribute indices. Every attribute is compiled the same way — as a
// sorted elementary-interval table over uint32 keys — so ports and the
// protocol byte reuse the address machinery with narrower domains.
const (
	attrSrc = iota
	attrDst
	attrSrcPort
	attrDstPort
	attrProto
	numAttrs
)

// sparseMax is the largest per-interval membership stored as a sorted
// priority list; larger memberships switch to a dense bitset. The sparse
// representation keeps the common case (a /24 carpet block matched by a
// handful of rules) at a few cache lines, while dense bitsets bound the
// worst case (thousands of rules sharing one protocol) at one word-AND
// per 64 rules.
const sparseMax = 48

// hotBoundsMax is the largest boundary table whose probe is priced as
// free in the EPC cost model: at <=16 uint32 bounds the whole table is
// one cache line that every packet touches, so it never leaves cache —
// the classifier analog of the trie's always-hot upper levels. Larger
// tables charge one footprint-dependent reference per probe.
const hotBoundsMax = 16

// classRef is one resolved elementary interval's rule membership inside
// the per-attribute shared arenas: sparse (off into attrTable.sparse, n
// entries, ascending priorities) when n <= sparseMax, dense (off into
// attrTable.dense, Program.words words) when n > sparseMax. It is a
// probe-time value (attrTable.class); the program stores offsets only.
type classRef struct {
	off uint32
	n   uint32
}

func (c classRef) dense() bool { return c.n > sparseMax }

// attrTable is one attribute's compiled range→class table.
//
// bounds holds the attribute's live elementary-interval boundaries in
// ascending order; value v falls in interval upperBound(bounds, v), so
// there are len(bounds)+1 intervals. boundRef counts, per boundary, how
// many live rules contribute it — the delta path uses it to detect when a
// reconfigure changes the interval structure itself (boundary appears or
// dies) versus merely editing memberships within fixed intervals.
//
// Interval i's sparse membership is sparse[off[i]:off[i+1]] (off has one
// entry per interval plus a closing one). The rare intervals matched by
// more than sparseMax rules occupy no sparse entries; the side table
// denseIv lists them in ascending order with their sizes in denseN, and
// the k-th listed interval's bitset is dense[k*words:(k+1)*words].
//
// Rules that leave the attribute unrestricted ("any") are factored out of
// the per-interval memberships: they appear once, in the anyBits bitset
// (anyCount of them), which keeps compiled size linear in the rule count
// however many wildcards the set mixes in. A driver walks them in priority
// order through two aids cut from the bitset (indexAny): anyFew lists the
// lowest sparseMax — one catch-all behind 100,000 specific rules is one
// load, not a scan of 1,563 empty words — and past those anySum, the
// summary level (bit w set when anyBits[w] != 0; built only for larger
// sets), skips 64 empty words per word read.
//
// Every slice is exact-length, so memoryBytes prices what the heap holds.
type attrTable struct {
	bounds   []uint32
	boundRef []int32
	off      []uint32
	sparse   []int32
	denseIv  []uint32
	denseN   []uint32
	dense    []uint64
	anyBits  []uint64
	anyFew   []int32
	anySum   []uint64
	anyCount int
	// idx is the attribute's direct-index translation (index.go), value →
	// interval in a few loads: a pure function of bounds, shared by reference
	// across deltas that leave the boundary structure untouched.
	idx attrIndex
}

// class resolves interval iv's membership. Only an interval with no
// sparse entries can be dense, so the side table is searched for those
// alone — and only when the attribute has dense classes at all.
func (tb *attrTable) class(iv, words int) classRef {
	lo, hi := tb.off[iv], tb.off[iv+1]
	if hi == lo && len(tb.denseIv) > 0 {
		if k, ok := slices.BinarySearch(tb.denseIv, uint32(iv)); ok {
			return classRef{off: uint32(k * words), n: tb.denseN[k]}
		}
	}
	return classRef{off: lo, n: hi - lo}
}

// Program is an immutable compiled classifier over a rule set. Build it
// with Compile (or evolve it with Delta, which returns a new Program) and
// share it freely across readers; Classify never mutates.
//
// Priorities are the rule-set order: rule i has priority prios[i]
// (identity when prios is nil), lower wins. The priority domain may be
// sparse — survivors of deletions keep their slots — so the bitset width
// (words) tracks maxPrio, not the live-rule count.
type Program struct {
	attrs     [numAttrs]attrTable
	ruleOf    []int32 // priority -> rule index; -1 for dead slots
	words     int     // bitset words: ceil((maxPrio+1)/64)
	liveRules int
}

// attrRange reports rule r's restriction on attribute a as an inclusive
// [lo, hi] uint32 range, or any=true (lo and hi then meaningless) when the
// attribute is unrestricted.
func attrRange(r *rules.Rule, a int) (lo, hi uint32, any bool) {
	switch a {
	case attrSrc:
		return prefixRange(r.Src)
	case attrDst:
		return prefixRange(r.Dst)
	case attrSrcPort:
		return uint32(r.SrcPort.Lo), uint32(r.SrcPort.Hi), r.SrcPort.IsAny()
	case attrDstPort:
		return uint32(r.DstPort.Lo), uint32(r.DstPort.Hi), r.DstPort.IsAny()
	default: // attrProto
		return uint32(r.Proto), uint32(r.Proto), r.Proto == 0
	}
}

func prefixRange(p rules.Prefix) (lo, hi uint32, any bool) {
	m := p.Mask()
	return p.Addr & m, p.Addr&m | ^m, p.IsAny()
}

// le returns 1 when x <= v and 0 otherwise, as arithmetic on the
// difference's sign bit: no branch, so nothing speculates on — or stalls
// behind — a boundary that is still on its way from memory.
func le(x, v uint32) int { return int(^uint64(int64(v)-int64(x)) >> 63) }

// upperBound returns the number of elements of b that are <= v — over a
// boundary table, the index of the elementary interval containing v.
// Branch-free binary search: the trip count depends on len(b) alone and
// each step adds half or nothing, so searches for different packets
// overlap their misses.
func upperBound[T uint16 | uint32](b []T, v T) int {
	lo, n := 0, len(b)
	for n > 1 {
		half := n >> 1
		lo += half & -le(uint32(b[lo+half-1]), uint32(v))
		n -= half
	}
	if n == 1 {
		lo += le(uint32(b[lo]), uint32(v))
	}
	return lo
}

// appendBounds appends rule r's boundary contributions on attribute a:
// lo (unless 0) and hi+1 (unless the range reaches the domain top).
// A rule with range [lo, hi] changes the match set exactly at lo and at
// hi+1; 0 and the domain top are implicit interval edges.
func appendBounds(vals []uint32, r *rules.Rule, a int) []uint32 {
	lo, hi, any := attrRange(r, a)
	if any {
		return vals
	}
	if lo > 0 {
		vals = append(vals, lo)
	}
	if hi != ^uint32(0) {
		vals = append(vals, hi+1)
	}
	return vals
}

// layout cuts tb's membership arenas from per-interval membership counts
// — the offset array, the dense side table, zeroed sparse and dense
// storage, each at its exact length — and returns the function that fills
// them: emit(j, pr) adds priority pr to interval j. Each interval's
// priorities must arrive ascending; fill order alone then leaves every
// sparse list sorted.
func (tb *attrTable) layout(counts []uint32, words int) (emit func(j int, pr int32)) {
	sparseTotal, denseN := 0, 0
	for _, n := range counts {
		if n > sparseMax {
			denseN++
		} else {
			sparseTotal += int(n)
		}
	}
	tb.off = make([]uint32, len(counts)+1)
	tb.sparse = make([]int32, sparseTotal)
	if denseN > 0 {
		tb.denseIv = make([]uint32, 0, denseN)
		tb.denseN = make([]uint32, 0, denseN)
		tb.dense = make([]uint64, denseN*words)
	}
	// next[j] is interval j's next free sparse slot — or, for a dense
	// interval, the first word of its bitset.
	next := make([]uint32, len(counts))
	at := uint32(0)
	for j, n := range counts {
		tb.off[j], next[j] = at, at
		if n > sparseMax {
			next[j] = uint32(len(tb.denseIv) * words)
			tb.denseIv = append(tb.denseIv, uint32(j))
			tb.denseN = append(tb.denseN, n)
		} else {
			at += n
		}
	}
	tb.off[len(counts)] = at
	return func(j int, pr int32) {
		if counts[j] > sparseMax {
			setBit(tb.dense[next[j]:], pr)
			return
		}
		tb.sparse[next[j]] = pr
		next[j]++
	}
}

func setBit(b []uint64, pr int32) { b[uint32(pr)>>6] |= 1 << (uint32(pr) & 63) }

func hasBit(b []uint64, pr int32) bool { return b[uint32(pr)>>6]>>(uint32(pr)&63)&1 != 0 }

// indexAny cuts the any-set's enumeration aids from anyBits: the lowest
// sparseMax priorities as a list, the summary level when there are more —
// selected on the count alone, so invariant under priority renumbering.
func (tb *attrTable) indexAny() {
	if tb.anyCount == 0 {
		return
	}
	tb.anyFew = make([]int32, 0, min(tb.anyCount, sparseMax))
	if tb.anyCount > sparseMax {
		tb.anySum = make([]uint64, (len(tb.anyBits)+63)>>6)
	}
	for w, x := range tb.anyBits {
		if x != 0 && tb.anySum != nil {
			tb.anySum[w>>6] |= 1 << (uint(w) & 63)
		}
		for ; x != 0 && len(tb.anyFew) < cap(tb.anyFew); x &= x - 1 {
			tb.anyFew = append(tb.anyFew, int32(w<<6+bits.TrailingZeros64(x)))
		}
	}
}

// compileAttr builds one attribute's table from scratch. rs must be in
// ascending-priority order (prioOf(i) strictly increasing).
func compileAttr(rs []rules.Rule, prioOf func(int) int32, a, words int) attrTable {
	vals := make([]uint32, 0, 2*len(rs))
	for i := range rs {
		vals = appendBounds(vals, &rs[i], a)
	}
	slices.Sort(vals)
	distinct := 0
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			distinct++
		}
	}

	var tb attrTable
	if distinct > 0 {
		tb.bounds = make([]uint32, 0, distinct)
		tb.boundRef = make([]int32, 0, distinct)
	}
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		tb.bounds = append(tb.bounds, vals[i])
		tb.boundRef = append(tb.boundRef, int32(j-i))
		i = j
	}

	counts := make([]uint32, len(tb.bounds)+1)
	spans := make([][2]int32, len(rs)) // cached; {-1,-1} marks any
	for i := range rs {
		lo, hi, any := attrRange(&rs[i], a)
		if any {
			spans[i] = [2]int32{-1, -1}
			tb.anyCount++
			continue
		}
		lb, rb := upperBound(tb.bounds, lo), upperBound(tb.bounds, hi) // the intervals [lo, hi] covers
		spans[i] = [2]int32{int32(lb), int32(rb)}
		for j := lb; j <= rb; j++ {
			counts[j]++
		}
	}

	emit := tb.layout(counts, words)
	if tb.anyCount > 0 {
		tb.anyBits = make([]uint64, words)
	}
	for i := range rs {
		p := prioOf(i)
		sp := spans[i]
		if sp[0] < 0 {
			setBit(tb.anyBits, p)
			continue
		}
		for j := sp[0]; j <= sp[1]; j++ {
			emit(int(j), p)
		}
	}
	tb.indexAny()
	tb.idx = buildIndex(a, tb.bounds)
	return tb
}

// Compile builds a Program for rs. prios maps rule index to priority
// (nil means identity) and must be strictly ascending — the order the
// filter maintains for survivors-plus-appended-adds. maxPrio is the top
// of the (possibly sparse) priority domain; all prios are <= maxPrio.
func Compile(rs []rules.Rule, prios []int32, maxPrio int32) *Program {
	if len(rs) == 0 {
		maxPrio = -1
	}
	p, prioOf := newProgram(rs, prios, maxPrio)
	for a := 0; a < numAttrs; a++ {
		p.attrs[a] = compileAttr(rs, prioOf, a, p.words)
	}
	return p
}

// newProgram sizes a program over rs and fills its priority → rule table;
// the attribute tables are the caller's to build.
func newProgram(rs []rules.Rule, prios []int32, maxPrio int32) (*Program, func(int) int32) {
	p := &Program{
		ruleOf:    make([]int32, int(maxPrio)+1),
		words:     int(maxPrio+64) >> 6,
		liveRules: len(rs),
	}
	prioOf := identityOr(prios)
	for i := range p.ruleOf {
		p.ruleOf[i] = -1
	}
	for i := range rs {
		p.ruleOf[prioOf(i)] = int32(i)
	}
	return p, prioOf
}

func identityOr(prios []int32) func(int) int32 {
	if prios == nil {
		return func(i int) int32 { return int32(i) }
	}
	return func(i int) int32 { return prios[i] }
}

// member reports whether priority pr matches this attribute given the
// probed class ref, plus a count of memory words touched at the same
// granularity the trie charged node visits (for the EPC cost model: one
// per bitset word probed, one per cache line of sparse entries scanned).
func (tb *attrTable) member(ref classRef, pr int32) (bool, int) {
	if tb.anyBits != nil && hasBit(tb.anyBits, pr) {
		return true, 1
	}
	if ref.dense() {
		return hasBit(tb.dense[ref.off:], pr), 1
	}
	s := tb.sparse[ref.off : ref.off+ref.n]
	for i, q := range s {
		if q >= pr {
			return q == pr, 1 + i/16
		}
	}
	return false, 1 + len(s)/16
}

// word assembles bitset word w of this attribute's match set (specific
// class ∪ any-rules). cursor tracks the sparse scan position across
// ascending w; entries below the window that were skipped by an early
// exit in a previous word are discarded, not replayed.
func (tb *attrTable) word(ref classRef, w int, cursor *int) uint64 {
	var x uint64
	if tb.anyBits != nil {
		x = tb.anyBits[w]
	}
	if ref.dense() {
		return x | tb.dense[int(ref.off)+w]
	}
	s := tb.sparse[ref.off : ref.off+ref.n]
	lo, hi := int32(w)<<6, int32(w+1)<<6
	for *cursor < len(s) && s[*cursor] < hi {
		if s[*cursor] >= lo {
			x |= 1 << (uint32(s[*cursor]) & 63)
		}
		*cursor++
	}
	return x
}

// Classify matches t against the compiled rule set. It returns the
// winning rule's index in the compiled slice and its priority (lowest
// priority wins, mirroring the linear-scan first-match oracle), plus a
// count of memory references touched for cost accounting. ok=false means
// no rule matched.
//
// The fast path resolves one elementary interval per attribute through
// the direct-index tables (one or two dependent loads — index.go), picks
// the attribute with the smallest candidate set as the driver, and
// membership-tests the driver's candidates in ascending priority order
// against the other four attributes — so the first hit is the final
// answer. When even the smallest candidate set is dense the path
// degrades to a word-wise five-way AND with early exit, bounding the
// worst case at one word op per attribute per 64 priorities. For whole
// bursts, ClassifyBatch runs the same stages breadth-first.
func (p *Program) Classify(t packet.FiveTuple) (rule, prio int32, refs int, ok bool) {
	keys := [numAttrs]uint32{
		t.SrcIP, t.DstIP, uint32(t.SrcPort), uint32(t.DstPort), uint32(t.Proto),
	}
	var cls [numAttrs]classRef
	for a := 0; a < numAttrs; a++ {
		tb := &p.attrs[a]
		cls[a] = tb.class(tb.interval(keys[a]), p.words)
		if cls[a].n == 0 && tb.anyCount == 0 {
			break // resolve stops at this attribute too
		}
	}
	return p.resolve(&cls)
}

// resolve finishes one packet from its five resolved classes — the shared
// tail of Classify and ClassifyBatch: charge the table probes, pick the
// driver, intersect. One ref per probe of a multi-cache-line table — the
// granularity the trie charged per node visit, whichever translation
// (root, chunk entry and leaf, or a direct array) served it; single-line
// tables are free (see hotBoundsMax). The first attribute with no
// candidate at all ends the packet: nothing past it is read or charged.
func (p *Program) resolve(cls *[numAttrs]classRef) (rule, prio int32, refs int, ok bool) {
	driver, driverScore := 0, math.MaxInt
	for a := 0; a < numAttrs; a++ {
		tb := &p.attrs[a]
		if len(tb.bounds) > hotBoundsMax {
			refs++
		}
		score := int(cls[a].n) + tb.anyCount
		if score == 0 {
			return 0, 0, refs, false
		}
		if score < driverScore {
			driver, driverScore = a, score
		}
	}
	r, pr, irefs, ok := p.intersect(cls, driver)
	return r, pr, refs + irefs, ok
}

// noPrio is anyAt's exhausted marker; it exceeds every priority.
const noPrio = math.MaxInt32

// anyAt returns the attribute's k-th lowest any-rule priority, or noPrio
// past the last; from is a lower bound on it (the previous one plus one).
// The first sparseMax come from the list; the rest from the bitset — the
// remainder of from's own word, then the summary level names the next
// non-empty word: at most two bitset words plus one summary word per 4,096
// priorities skipped.
func (tb *attrTable) anyAt(k int, from int32) int32 {
	if k < len(tb.anyFew) {
		return tb.anyFew[k]
	}
	if k >= tb.anyCount {
		return noPrio
	}
	w := int(uint32(from) >> 6)
	if x := tb.anyBits[w] >> (uint32(from) & 63); x != 0 {
		return from + int32(bits.TrailingZeros64(x))
	}
	w++
	mask := ^uint64(0) << (uint(w) & 63)
	for s := w >> 6; ; s++ { // k < anyCount: a set bit remains
		if x := tb.anySum[s] & mask; x != 0 {
			w = s<<6 + bits.TrailingZeros64(x)
			return int32(w<<6 + bits.TrailingZeros64(tb.anyBits[w]))
		}
		mask = ^uint64(0)
	}
}

// intersect runs the smallest-set-driven candidate intersection over one
// packet's five resolved classes.
func (p *Program) intersect(cls *[numAttrs]classRef, driver int) (rule, prio int32, refs int, ok bool) {
	dtb := &p.attrs[driver]
	dref := cls[driver]
	if !dref.dense() {
		// Sparse driver: merge the driver's specific membership with its
		// any-rules (both ascending) and test candidates lowest-first.
		spec := dtb.sparse[dref.off : dref.off+dref.n]
		si, ai, anyPr := 0, 0, dtb.anyAt(0, 0)
		for si < len(spec) || anyPr != noPrio {
			var pr int32
			if si < len(spec) && spec[si] < anyPr {
				pr = spec[si]
				si++
			} else {
				pr = anyPr
				ai++
				anyPr = dtb.anyAt(ai, pr+1)
			}
			refs++
			matched := true
			for a := 0; a < numAttrs; a++ {
				if a == driver {
					continue
				}
				m, touched := p.attrs[a].member(cls[a], pr)
				refs += touched
				if !m {
					matched = false
					break
				}
			}
			if matched {
				return p.ruleOf[pr], pr, refs, true
			}
		}
		return 0, 0, refs, false
	}

	// Dense driver: every attribute's candidate set is large — AND the
	// five match-set bitsets word by word, lowest word first.
	var cursors [numAttrs]int
	for w := 0; w < p.words; w++ {
		x := ^uint64(0)
		for a := 0; a < numAttrs && x != 0; a++ {
			x &= p.attrs[a].word(cls[a], w, &cursors[a])
		}
		refs += numAttrs
		if x != 0 {
			pr := int32(w<<6 + bits.TrailingZeros64(x))
			return p.ruleOf[pr], pr, refs, true
		}
	}
	return 0, 0, refs, false
}

// Len reports the number of live rules the program was compiled over.
func (p *Program) Len() int { return p.liveRules }

const (
	programOverheadBytes = 192 // Program struct + slice headers, amortized
	attrOverheadBytes    = 64  // per-attrTable slice headers
	prioBytes            = 4   // also a boundary, a refcount, an offset
)

// memoryBytes computes the program's footprint with bitsets priced at w
// words each: every arena at length × element size (the slices are
// exact-sized, so that is what the heap holds). Everything except bitset
// widths — boundary tables, class counts, membership sizes, sparse/dense
// representation choices — is a function of the rule set alone, invariant
// under priority renumbering.
func (p *Program) memoryBytes(w int) int {
	total := programOverheadBytes + p.liveRules*prioBytes // ruleOf at dense width
	for a := 0; a < numAttrs; a++ {
		tb := &p.attrs[a]
		total += attrOverheadBytes + tb.idx.indexBytes() +
			prioBytes*(len(tb.bounds)+len(tb.boundRef)+len(tb.off)+len(tb.sparse)+2*len(tb.denseIv)+len(tb.anyFew)) +
			8*w*len(tb.denseIv)
		if tb.anyCount > 0 {
			total += 8 * w
		}
		if tb.anyCount > sparseMax {
			total += 8 * ((w + 63) >> 6) // anySum
		}
	}
	return total
}

// MemoryBytes reports the program's footprint at dense-equivalent bitset
// width (ceil(liveRules/64) words) — the size an identical rule set
// compiles to with contiguous priorities. A delta-evolved program over a
// sparse priority domain reports the same figure as a fresh compile of
// the same rules, so EPCBudgeter weights and the delta-vs-oracle memory
// parity the filter tests assert stay exact; the width slack a sparse
// domain actually retains is RetainedBytes - MemoryBytes, which the EPC
// meter is charged on top.
func (p *Program) MemoryBytes() int {
	return p.memoryBytes((p.liveRules + 63) >> 6)
}

// RetainedBytes reports the bytes actually held live by this program,
// including bitset width slack from a sparse priority domain and the
// full ruleOf table.
func (p *Program) RetainedBytes() int {
	total := p.memoryBytes(p.words)
	total += (len(p.ruleOf) - p.liveRules) * prioBytes
	return total
}
