package classify

import "github.com/innetworkfiltering/vif/internal/packet"

// Breadth-first burst classification. The scalar Classify resolves a
// packet's five attributes back to back, so each direct-index load's
// latency serializes behind the previous one. ClassifyBatch runs the
// same stages across the whole burst instead, level by level: the
// burst's distinct tuples are gathered into one key column per
// attribute, then each attribute resolves every key's interval a table
// level at a time (all root or direct loads, then all leaf searches,
// then all offset loads — independent misses the memory system
// overlaps), then the per-packet smallest-set-driven intersections. The
// verdicts, priorities, and ref accounting are exactly Classify's —
// property tests assert the equivalence packet by packet.

// Result is one packet's classification verdict, equal field for field
// to the corresponding Classify return.
type Result struct {
	Rule int32
	Prio int32
	Refs int32
	OK   bool
}

// BatchScratch holds ClassifyBatch's structure-of-arrays working state.
// Reuse one per caller (it is not safe for concurrent use); the zero
// value is ready.
type BatchScratch struct {
	keys [numAttrs][]uint32 // gathered key columns, one entry per distinct tuple
	iv   []int32            // the current attribute's root entries, then intervals
	lo   []uint32           // arena span [lo, hi) of each key's address leaf
	hi   []uint32
	cls  [numAttrs][]classRef // resolved classes per distinct tuple
	out  []Result
}

func (sc *BatchScratch) grow(n int) {
	if cap(sc.out) < n {
		for a := 0; a < numAttrs; a++ {
			sc.keys[a] = make([]uint32, n)
			sc.cls[a] = make([]classRef, n)
		}
		sc.iv = make([]int32, n)
		sc.lo = make([]uint32, n)
		sc.hi = make([]uint32, n)
		sc.out = make([]Result, n)
	}
	sc.out = sc.out[:n]
}

// ClassifyBatch classifies a burst, returning one Result per tuple in a
// slice owned by sc (valid until the next call). Runs of consecutive
// identical tuples — the shape the filter's dedup pass feeds it — are
// resolved once and copied, preserving the same-flow short-circuit of
// the scalar path.
func (p *Program) ClassifyBatch(ts []packet.FiveTuple, sc *BatchScratch) []Result {
	n := len(ts)
	sc.grow(n)

	// Gather: one key per attribute per run of identical tuples.
	m := 0
	for i := range ts {
		if i > 0 && ts[i] == ts[i-1] {
			continue
		}
		t := &ts[i]
		sc.keys[attrSrc][m] = t.SrcIP
		sc.keys[attrDst][m] = t.DstIP
		sc.keys[attrSrcPort][m] = uint32(t.SrcPort)
		sc.keys[attrDstPort][m] = uint32(t.DstPort)
		sc.keys[attrProto][m] = uint32(t.Proto)
		m++
	}

	// Stage 1: per-attribute interval resolution for every distinct tuple,
	// one table level per pass.
	var big [numAttrs]bool
	iv := sc.iv[:m]
	for a := 0; a < numAttrs; a++ {
		tb := &p.attrs[a]
		big[a] = len(tb.bounds) > hotBoundsMax
		keys, cls := sc.keys[a][:m], sc.cls[a][:m]
		if !big[a] {
			// A single-cache-line table has at most hotBoundsMax+1
			// intervals: search it in place and resolve each interval's
			// class once per burst, on first use. An attribute no rule
			// restricts is the commonest such table — one interval, one
			// class for the whole column.
			if len(tb.bounds) == 0 {
				c := tb.class(0, p.words)
				for k := range cls {
					cls[k] = c
				}
				continue
			}
			var hot [hotBoundsMax + 1]classRef
			var have uint32
			for k, v := range keys {
				j := uint(upperBound(tb.bounds, v))
				if have>>j&1 == 0 {
					have |= 1 << j
					hot[j] = tb.class(int(j), p.words)
				}
				cls[k] = hot[j]
			}
			continue
		}
		if ix := &tb.idx; ix.direct != nil {
			for k, v := range keys {
				iv[k] = int32(ix.direct[v])
			}
		} else {
			for k, v := range keys {
				iv[k] = ix.root[v>>16]
			}
			lo, hi := sc.lo[:m], sc.hi[:m]
			for k, e := range iv {
				if e < 0 {
					ch := ix.chunks[^e]
					lo[k], hi[k], iv[k] = ch.off, ix.chunks[^e+1].off, ^int32(ch.base)
				}
			}
			for k, e := range iv {
				if e < 0 {
					iv[k] = ^e + int32(ix.search(lo[k], hi[k], uint16(keys[k])))
				}
			}
		}
		off := tb.off
		for k, j := range iv {
			cls[k] = classRef{off: off[j], n: off[j+1] - off[j]}
		}
		if len(tb.denseIv) > 0 {
			// An empty sparse span may be one of the rare dense classes.
			for k, c := range cls {
				if c.n == 0 {
					cls[k] = tb.class(int(iv[k]), p.words)
				}
			}
		}
	}

	// Stage 2: per-packet driver selection + intersection, mirroring the
	// scalar probe's accounting exactly (one ref per multi-line table
	// probed, stopping at the first empty candidate set).
	out := sc.out
	k := -1
	for i := 0; i < n; i++ {
		if i > 0 && ts[i] == ts[i-1] {
			out[i] = out[i-1]
			continue
		}
		k++
		var cls [numAttrs]classRef
		refs := 0
		driver, driverScore := 0, int(^uint(0)>>1)
		miss := false
		for a := 0; a < numAttrs; a++ {
			if big[a] {
				refs++
			}
			ref := sc.cls[a][k]
			score := int(ref.n) + p.attrs[a].anyCount
			if score == 0 {
				miss = true
				break
			}
			cls[a] = ref
			if score < driverScore {
				driver, driverScore = a, score
			}
		}
		if miss {
			out[i] = Result{Refs: int32(refs)}
			continue
		}
		r, pr, irefs, ok := p.intersect(&cls, driver)
		out[i] = Result{Rule: r, Prio: pr, Refs: int32(refs + irefs), OK: ok}
	}
	return out
}
