package classify

import "github.com/innetworkfiltering/vif/internal/packet"

// Breadth-first burst classification. The scalar Classify resolves a
// packet's five attributes back to back, each load's latency serialized
// behind the last. ClassifyBatch runs the same stages level by level
// across the burst: distinct tuples gathered into one key column per
// attribute, each attribute resolved a table level at a time (all root or
// direct loads, all leaf searches, all offset loads — independent misses
// the memory system overlaps), then the per-packet tail Classify itself
// runs (resolve), so verdicts, priorities and ref accounting are its own.

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
	cls  [][numAttrs]classRef // resolved classes per distinct tuple
	out  []Result
}

func (sc *BatchScratch) grow(n int) {
	if cap(sc.out) < n {
		for a := range sc.keys {
			sc.keys[a] = make([]uint32, n)
		}
		sc.cls = make([][numAttrs]classRef, n)
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
	iv := sc.iv[:m]
	for a := 0; a < numAttrs; a++ {
		tb := &p.attrs[a]
		keys, cls := sc.keys[a][:m], sc.cls[:m]
		if len(tb.bounds) <= hotBoundsMax {
			// A single-cache-line table has at most hotBoundsMax+1
			// intervals: search it in place and resolve each interval's
			// class once per burst, on first use. An attribute no rule
			// restricts — no bounds at all — is one class for the column.
			if len(tb.bounds) == 0 {
				c := tb.class(0, p.words)
				for k := range cls {
					cls[k][a] = c
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
				cls[k][a] = hot[j]
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
			cls[k][a] = classRef{off: off[j], n: off[j+1] - off[j]}
		}
		if len(tb.denseIv) > 0 {
			// An empty sparse span may be one of the rare dense classes.
			for k := range cls {
				if cls[k][a].n == 0 {
					cls[k][a] = tb.class(int(iv[k]), p.words)
				}
			}
		}
	}

	// Stage 2: per-packet driver selection + intersection — the scalar
	// probe's own tail, so the accounting is its accounting.
	out := sc.out
	k := -1
	for i := 0; i < n; i++ {
		if i > 0 && ts[i] == ts[i-1] {
			out[i] = out[i-1]
			continue
		}
		k++
		r, pr, refs, ok := p.resolve(&sc.cls[k])
		out[i] = Result{Rule: r, Prio: pr, Refs: int32(refs), OK: ok}
	}
	return out
}
