package classify

// Direct-index interval translation: value → elementary-interval index in
// one to three dependent loads, where an upperBound binary search of a
// 100k-rule boundary table pays log(bounds) likely cache misses.
//
//   - proto: a 256-entry uint16 array, value-indexed;
//   - src/dst port: a 65536-entry uint16 array, value-indexed;
//   - src/dst address: a two-level chunked table, DXR/Poptrie-style — a
//     2^16-entry root indexed by the address's high 16 bits whose entry
//     either inlines the interval index directly (no boundary falls
//     strictly inside that /16 block — the overwhelmingly common case)
//     or names a leaf: an 8-byte {off, base} entry of one chunk table
//     pointing into one shared arena of boundary low-16 values. A leaf is
//     binary-searched while small and value-indexed (65536 arena entries)
//     once the block carries >= denseChunkMin boundaries. Three flat
//     slices, no per-leaf headers: at 100k rules the ~51k leaves cost 8
//     bytes each beside the boundaries themselves.
//
// Boundary tables at or under hotBoundsMax entries build no index at
// all: the whole table is one cache line, the binary search never leaves
// it, and the probe is priced as free by the cost model either way.
//
// Every structure is a pure function of the attribute's boundary table,
// built in linear passes over it, so index bytes are priority-numbering-
// invariant (MemoryBytes contract) and Delta shares them by reference
// whenever a step leaves the boundary structure untouched (and rebuilds
// them outright when it does not).

// denseChunkMin is the boundary count at which a leaf switches from a
// binary-searched low-16 list to a value-indexed 65536-entry offset
// array (128 KiB). Below it the list spans at most ~1 KiB of contiguous
// cache lines; above it the direct array costs at most 256 bytes per
// boundary and turns the probe into a single load.
const denseChunkMin = 512

// addrLeaf is one /16 block's entry in the chunk table. Its arena span
// runs from off to the next entry's off (the table ends with a closing
// entry). A span shorter than denseChunkMin holds the block's boundary
// low-16 values (ascending, all >= 1 — a boundary at the block start is
// absorbed into base), and the interval index of address v inside the
// block is base + (number of them <= low16(v)); a longer span is exactly
// 65536 entries and tabulates that count per low-16 value.
type addrLeaf struct {
	off  uint32
	base uint32
}

// attrIndex is one attribute's direct-index translation. Exactly one of
// direct (ports, proto) or root (addresses) is set on indexed tables;
// both nil means the boundary table is single-cache-line and the probe
// binary-searches it directly.
type attrIndex struct {
	direct []uint16
	root   []int32 // >= 0: inlined interval index; < 0: ^(chunk table index)
	chunks []addrLeaf
	low    []uint16
}

// search counts the boundaries at or below low-16 value v in the leaf
// spanning low[off:end].
func (ix *attrIndex) search(off, end uint32, v uint16) int {
	if end-off >= denseChunkMin {
		return int(ix.low[off+uint32(v)])
	}
	return upperBound(ix.low[off:end], v)
}

// interval returns the index of the elementary interval containing v —
// the direct-index fast path, or a binary search of a single-cache-line
// boundary table.
func (tb *attrTable) interval(v uint32) int {
	if tb.idx.direct != nil {
		return int(tb.idx.direct[v])
	}
	if tb.idx.root != nil {
		e := tb.idx.root[v>>16]
		if e >= 0 {
			return int(e)
		}
		ch := tb.idx.chunks[^e]
		return int(ch.base) + tb.idx.search(ch.off, tb.idx.chunks[^e+1].off, uint16(v))
	}
	return upperBound(tb.bounds, v)
}

// buildIndex constructs attribute a's direct-index tables over its
// boundary table. Deterministic in bounds alone: a delta-evolved program
// builds (or shares) tables identical to a fresh compile's.
func buildIndex(a int, bounds []uint32) attrIndex {
	if len(bounds) <= hotBoundsMax {
		return attrIndex{}
	}
	switch a {
	case attrProto:
		return attrIndex{direct: buildDirect(bounds, 1<<8)}
	case attrSrcPort, attrDstPort:
		return attrIndex{direct: buildDirect(bounds, 1<<16)}
	default:
		return buildChunked(bounds)
	}
}

// buildDirect tabulates upperBound(bounds, v) for every v in the
// attribute's domain. Counts fit uint16: boundary values are distinct
// and >= 1, so at most v of them are <= v for any in-domain v.
func buildDirect(bounds []uint32, size int) []uint16 {
	d := make([]uint16, size)
	iv := 0
	for v := 0; v < size; v++ {
		for iv < len(bounds) && bounds[iv] <= uint32(v) {
			iv++
		}
		d[v] = uint16(iv)
	}
	return d
}

// innerRun scans the run of bounds sharing bounds[i]'s /16 block: in is
// its first boundary strictly inside the block (one exactly at the block
// start is skipped — it is absorbed into the block's base), end is one
// past its last.
func innerRun(bounds []uint32, i int) (in, end int) {
	blk := bounds[i] >> 16
	in = i
	if bounds[i]&0xFFFF == 0 {
		in++
	}
	for end = in; end < len(bounds) && bounds[end]>>16 == blk; end++ {
	}
	return in, end
}

// buildChunked constructs the two-level address table in two linear
// passes over bounds: one sizes the chunk table and the arena exactly,
// one fills them.
func buildChunked(bounds []uint32) attrIndex {
	nLeaves, nLow := 0, 0
	for i := 0; i < len(bounds); {
		in, end := innerRun(bounds, i)
		switch n := end - in; {
		case n >= denseChunkMin:
			nLeaves, nLow = nLeaves+1, nLow+(1<<16)
		case n > 0:
			nLeaves, nLow = nLeaves+1, nLow+n
		}
		i = end
	}
	ix := attrIndex{
		root:   make([]int32, 1<<16),
		chunks: make([]addrLeaf, 0, nLeaves+1),
		low:    make([]uint16, 0, nLow),
	}
	blk := 0
	for i := 0; i < len(bounds); {
		// Blocks below this run's carry no boundary: every value in them
		// has exactly the i boundaries before the run at or below it.
		for ; blk < int(bounds[i]>>16); blk++ {
			ix.root[blk] = int32(i)
		}
		in, end := innerRun(bounds, i)
		if end == in {
			ix.root[blk] = int32(in)
		} else {
			ix.root[blk] = ^int32(len(ix.chunks))
			ix.chunks = append(ix.chunks, addrLeaf{off: uint32(len(ix.low)), base: uint32(in)})
			if end-in >= denseChunkMin {
				// Tabulate, per low-16 value, how many of the run's
				// boundaries are at or below it.
				k := in
				for v := uint32(0); v < 1<<16; v++ {
					for k < end && bounds[k]&0xFFFF <= v {
						k++
					}
					ix.low = append(ix.low, uint16(k-in))
				}
			} else {
				for _, b := range bounds[in:end] {
					ix.low = append(ix.low, uint16(b))
				}
			}
		}
		blk++
		i = end
	}
	for ; blk < 1<<16; blk++ {
		ix.root[blk] = int32(len(bounds))
	}
	ix.chunks = append(ix.chunks, addrLeaf{off: uint32(len(ix.low))})
	return ix
}

// indexOverheadBytes prices an attrIndex's slice headers (amortized, like
// the program's other header constants); the arenas are priced exactly.
const (
	indexOverheadBytes = 72
	addrLeafBytes      = 8
)

// indexBytes prices one attribute's direct-index tables.
func (ix *attrIndex) indexBytes() int {
	return indexOverheadBytes + len(ix.direct)*2 + len(ix.root)*4 +
		len(ix.chunks)*addrLeafBytes + len(ix.low)*2
}

// IndexBytes reports the direct-index tables' share of MemoryBytes: the
// value→interval translation arrays (port/proto direct tables, address
// roots, chunk tables and low-16 arenas), as opposed to the interval
// membership sets. Like MemoryBytes it is numbering-invariant — a pure
// function of the rule set's boundary structure.
func (p *Program) IndexBytes() int {
	total := 0
	for a := 0; a < numAttrs; a++ {
		total += p.attrs[a].idx.indexBytes()
	}
	return total
}
