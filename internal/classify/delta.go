package classify

import (
	"math/bits"
	"slices"

	"github.com/innetworkfiltering/vif/internal/rules"
)

// deltaChurnFactor bounds the incremental path: when the touched rules
// (adds + removes) exceed 1/deltaChurnFactor of the successor set, a
// fresh Compile is cheaper and tighter than patching five tables.
const deltaChurnFactor = 4

// Delta describes a reconfiguration step from the program's current rule
// set to a successor set, in the shape the filter's ReconfigureDelta
// already produces.
//
// Rules is the full successor set in ascending-priority order: survivors
// first (keeping their old priorities), then the adds appended at
// Rules[AddStart:]. Prios maps rule index to priority (nil = identity)
// and must be strictly ascending; every add's priority must exceed every
// survivor's (the filter allocates add priorities past the predecessor's
// MaxPrio). RemovedRules/RemovedPrios list the dropped rules in
// ascending-priority order.
type Delta struct {
	Rules        []rules.Rule
	Prios        []int32
	MaxPrio      int32
	AddStart     int
	RemovedRules []rules.Rule
	RemovedPrios []int32
}

// Delta derives the successor program. The receiver is not modified —
// concurrent readers of the old program are unaffected — and shares only
// immutable boundary tables with the result.
//
// Per attribute it first checks whether the step changes the elementary
// interval structure at all (a boundary appearing, or its refcount
// dying). Either way memberships are patched, never recompiled: survivors
// stream from each new interval's source old interval minus the removed
// priorities (dense intervals as word-wise AND-NOT against one removed-
// priority bitmap), adds append over their covered spans. When the
// structure did shift, the successor boundary table is a linear merge of
// the old one with the net changes, an old→new interval map re-homes the
// streams, and the direct-index tables are rebuilt over the merged table.
// The result is provably identical (deep-equal) to a fresh compile of the
// same inputs, in O(memberships + changed·log bounds). Past the churn
// threshold the whole program recompiles instead.
func (p *Program) Delta(d Delta) *Program {
	changed := (len(d.Rules) - d.AddStart) + len(d.RemovedRules)
	if len(d.Rules) == 0 || deltaChurnFactor*changed > len(d.Rules) {
		return Compile(d.Rules, d.Prios, d.MaxPrio)
	}
	q, prioOf := newProgram(d.Rules, d.Prios, d.MaxPrio)
	for a := 0; a < numAttrs; a++ {
		old := &p.attrs[a]
		nb, nref, flip := mergedBounds(old, boundaryNet(&d, a))
		// Same intervals: memberships stream positionally and the old
		// index (a pure function of the shared boundary slice) is kept.
		srcIv, idx := []int32(nil), old.idx
		if flip {
			srcIv, idx = intervalMap(old.bounds, nb), buildIndex(a, nb)
		}
		q.attrs[a] = patchAttr(old, &d, a, p.words, q.words, prioOf, nb, nref, srcIv)
		q.attrs[a].idx = idx
	}
	return q
}

// mergedBounds derives the successor boundary table and refcounts from
// the old ones and the delta's net refcount changes, and reports whether
// any boundary's liveness flips (a new value appears, or an existing
// one's refcount reaches zero) — the condition under which the interval
// structure shifts. Without a flip the old boundary slice is shared and
// only the refcounts are patched; with one the tables are a linear merge,
// sized exactly first — O(bounds + changed·log changed) instead of
// re-sorting every boundary of the full successor set.
func mergedBounds(tb *attrTable, net map[uint32]int32) (bounds []uint32, refs []int32, flip bool) {
	keys := make([]uint32, 0, len(net))
	size := len(tb.bounds)
	for v, dn := range net {
		if dn == 0 {
			continue
		}
		keys = append(keys, v)
		if i := boundIndex(tb.bounds, v); i < 0 {
			size, flip = size+1, true
		} else if tb.boundRef[i]+dn == 0 {
			size, flip = size-1, true
		}
	}
	switch {
	case len(keys) == 0:
		return tb.bounds, tb.boundRef, false
	case !flip:
		refs = slices.Clone(tb.boundRef)
		for _, v := range keys {
			refs[boundIndex(tb.bounds, v)] += net[v]
		}
		return tb.bounds, refs, false
	case size == 0:
		return nil, nil, true
	}
	slices.Sort(keys)
	bounds = make([]uint32, 0, size)
	refs = make([]int32, 0, size)
	i := 0
	for _, v := range keys {
		for i < len(tb.bounds) && tb.bounds[i] < v {
			bounds = append(bounds, tb.bounds[i])
			refs = append(refs, tb.boundRef[i])
			i++
		}
		n := net[v]
		if i < len(tb.bounds) && tb.bounds[i] == v {
			n += tb.boundRef[i]
			i++
		}
		if n != 0 {
			bounds = append(bounds, v)
			refs = append(refs, n)
		}
	}
	return append(bounds, tb.bounds[i:]...), append(refs, tb.boundRef[i:]...), true
}

// intervalMap maps each successor elementary interval (index = number of
// new boundaries at or below its values) to the predecessor interval
// containing its left edge. A split (inserted boundary) maps several new
// intervals to one old one; a merge (dead boundary) picks the leftmost
// constituent, which is safe because a boundary only dies when every rule
// contributing it was removed — so the merged intervals' survivor sets
// are identical.
func intervalMap(oldBounds, newBounds []uint32) []int32 {
	m := make([]int32, len(newBounds)+1)
	i := 0
	for j := 1; j <= len(newBounds); j++ {
		for i < len(oldBounds) && oldBounds[i] <= newBounds[j-1] {
			i++
		}
		m[j] = int32(i)
	}
	return m
}

// boundIndex locates v in the sorted boundary table, or -1.
func boundIndex(bounds []uint32, v uint32) int {
	i := upperBound(bounds, v) - 1
	if i >= 0 && bounds[i] == v {
		return i
	}
	return -1
}

// boundaryNet nets the delta's boundary refcount changes on attribute a.
func boundaryNet(d *Delta, a int) map[uint32]int32 {
	var net map[uint32]int32
	acc := func(r *rules.Rule, dn int32) {
		lo, hi, any := attrRange(r, a)
		if any {
			return
		}
		if net == nil {
			net = make(map[uint32]int32)
		}
		if lo > 0 {
			net[lo] += dn
		}
		if hi != ^uint32(0) {
			net[hi+1] += dn
		}
	}
	for i := range d.RemovedRules {
		acc(&d.RemovedRules[i], -1)
	}
	adds := d.Rules[d.AddStart:]
	for i := range adds {
		acc(&adds[i], 1)
	}
	return net
}

// patchAttr rebuilds attribute a's membership arenas over the successor
// boundary table: every new interval's list is streamed from its source
// old interval (srcIv maps new→old; nil means the structure is unchanged
// and the mapping is the identity) with removed priorities dropped, then
// the adds are appended over their covered spans (their priorities all
// exceed the survivors', so fill order keeps lists sorted). The result
// deep-equals compileAttr over the successor set, in O(memberships +
// changed·log bounds) — no per-survivor binary searches.
func patchAttr(old *attrTable, d *Delta, a, oldWords, words int, prioOf func(int) int32, bounds []uint32, boundRef []int32, srcIv []int32) attrTable {
	nIv := len(bounds) + 1
	tb := attrTable{bounds: bounds, boundRef: boundRef}

	// One bitmap over all removed priorities, any-rules and specific
	// alike: a removed rule's priority appears in exactly one place per
	// attribute (the any-set or its covered intervals), so a single
	// membership test filters both, and dense intervals shed every
	// removal with a word-wise AND-NOT instead of per-bit iteration.
	remBits := make([]uint64, oldWords)
	for _, pr := range d.RemovedPrios {
		setBit(remBits, pr)
	}

	// Successor membership sizes: each new interval starts from its
	// source old interval's, minus the removed rules spanning that OLD
	// interval (their boundaries were alive there), plus the adds
	// spanning the NEW one (their boundaries are merged in).
	srcOf := func(j int) int {
		if srcIv != nil {
			return int(srcIv[j])
		}
		return j
	}
	var remCount []uint32
	remAny := 0
	for i := range d.RemovedRules {
		lo, hi, any := attrRange(&d.RemovedRules[i], a)
		if any {
			remAny++
			continue
		}
		if remCount == nil {
			remCount = make([]uint32, len(old.bounds)+1)
		}
		lb, rb := upperBound(old.bounds, lo), upperBound(old.bounds, hi)
		for j := lb; j <= rb; j++ {
			remCount[j]++
		}
	}
	counts := make([]uint32, nIv)
	for j := range counts {
		o := srcOf(j)
		counts[j] = old.class(o, oldWords).n
		if remCount != nil {
			counts[j] -= remCount[o]
		}
	}
	adds := d.Rules[d.AddStart:]
	addSpans := make([][2]int32, len(adds))
	addAny := 0
	for i := range adds {
		lo, hi, any := attrRange(&adds[i], a)
		if any {
			addSpans[i] = [2]int32{-1, -1}
			addAny++
			continue
		}
		lb, rb := upperBound(bounds, lo), upperBound(bounds, hi)
		addSpans[i] = [2]int32{int32(lb), int32(rb)}
		for j := lb; j <= rb; j++ {
			counts[j]++
		}
	}

	emit := tb.layout(counts, words)
	for j := 0; j < nIv; j++ {
		oref := old.class(srcOf(j), oldWords)
		if oref.n == 0 {
			continue
		}
		if oref.dense() {
			src := old.dense[int(oref.off) : int(oref.off)+oldWords]
			if nref := tb.class(j, words); nref.dense() {
				// Dense stays dense: copy surviving bits a word at a
				// time; adds land later via emit's dense arm. Words
				// past min(oldWords, words) hold only dead priorities.
				dst := tb.dense[int(nref.off) : int(nref.off)+words]
				for w := 0; w < oldWords && w < words; w++ {
					dst[w] = src[w] &^ remBits[w]
				}
				continue
			}
			for w := 0; w < oldWords; w++ {
				x := src[w] &^ remBits[w]
				for x != 0 {
					emit(j, int32(w<<6+bits.TrailingZeros64(x)))
					x &= x - 1
				}
			}
		} else {
			for _, pr := range old.sparse[oref.off : oref.off+oref.n] {
				if !hasBit(remBits, pr) {
					emit(j, pr)
				}
			}
		}
	}
	for i := range adds {
		sp := addSpans[i]
		if sp[0] < 0 {
			continue
		}
		pr := prioOf(d.AddStart + i)
		for j := sp[0]; j <= sp[1]; j++ {
			emit(int(j), pr)
		}
	}

	if tb.anyCount = old.anyCount - remAny + addAny; tb.anyCount > 0 {
		tb.anyBits = make([]uint64, words)
		for w := 0; w < len(old.anyBits) && w < words; w++ {
			tb.anyBits[w] = old.anyBits[w] &^ remBits[w]
		}
		for i := range adds {
			if addSpans[i][0] < 0 {
				setBit(tb.anyBits, prioOf(d.AddStart+i))
			}
		}
		tb.indexAny()
	}
	return tb
}
