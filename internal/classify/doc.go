// Package classify compiles a rule set into a multi-attribute packet
// classifier whose per-packet cost is flat in the rule count: one
// direct-index interval translation per attribute (src addr, dst addr,
// src port, dst port, protocol) plus an intersection of small per-class
// candidate sets, lowest priority winning. It is the bit-vector scheme
// from yanet2's generic filter, adapted to this repo's copy-on-write
// snapshot discipline, with DXR/Poptrie-style lookup tables in front of
// the interval boundaries.
//
// # Role
//
// The filter's hot path (internal/filter) resolves a packet through a
// compiled Program: Classify(t) answers exactly what the linear
// first-match oracle (ascending priority, rules.Rule.Matches) would, at a
// cost governed by how many rules share a single packet's five attribute
// classes, not by the rule-set size — rule shapes that share a src prefix
// (reflection floods keyed by src port, carpet bombing keyed by dst
// range) included, where a per-prefix candidate scan is O(rules-per-node).
//
// Design notes: all five attributes — addresses and ports/proto alike —
// are compiled through one uniform uint32 interval-table representation
// rather than reusing the trie arena for addresses; trie node ids are
// not sound equivalence classes without leaf-pushing, and the uniform
// table keeps the probe loop branch-light. Per-interval memberships are
// adaptive: a sorted priority list in a shared arena while small
// (<= sparseMax), a dense bitset beyond that. Rules leaving an attribute
// unrestricted are factored into one per-attribute bitset instead of
// being duplicated into every interval, keeping compiled size linear in
// the rule count.
//
// The program is flat arenas with no per-interval or per-leaf headers,
// every slice allocated at its exact length and priced at length ×
// element size — the enclave cost model prices a reference by whether
// the working set fits the LLC, so bookkeeping must not outweigh the
// rules. Per attribute: the boundary table and its refcounts, one uint32
// offset per interval (interval i's sparse members are
// sparse[off[i]:off[i+1]]), a small side table naming the rare dense
// intervals, and the any-rules as a bitset plus a count (the lowest
// sparseMax listed, a summary level past that many, so a driver never
// scans a sparse set's empty words). At 100,000 rules of the benchmark's
// shape that is 43 bytes per rule.
//
// Interval resolution is O(1), not a binary search: compile time also
// tabulates value→interval translations (index.go) — a 256-entry array
// for proto, 65536-entry uint16 arrays for the ports, and for addresses
// a two-level chunked table: a 2^16-entry root over the high 16 bits
// whose entry inlines the interval index when no boundary falls inside
// that /16 block, or names an 8-byte {off, base} entry of one chunk
// table, whose span of one shared low-16 arena is binary-searched while
// small and value-indexed once dense — a few dependent loads where the
// search paid log(bounds). Boundary tables small enough to stay in one
// cache line (<= hotBoundsMax bounds) build no index. ClassifyBatch
// classifies bursts breadth-first, level by level — the burst's distinct
// tuples gathered into one key column per attribute, each attribute
// resolved one table level per pass so the loads of a pass are
// independent across packets, then the per-packet intersections —
// returning per-packet Results field-for-field equal to scalar Classify.
//
// # Concurrency contract
//
// A Program is immutable after Compile returns: Classify and
// ClassifyBatch perform no writes to it, so any number of goroutines
// may classify against the same Program concurrently without
// synchronization (each ClassifyBatch caller owns its BatchScratch,
// which is mutable and single-caller). Reconfiguration is copy-on-write
// — Delta builds and returns a new Program, sharing only immutable
// boundary and index tables with its predecessor, which concurrent
// readers may still be scanning. The filter swaps Programs through its
// atomic ruleView pointer; Compile/Delta are called from the single
// writer (the filter thread), never from the packet path.
//
// # Invariants
//
//   - Compile/Delta require rules in strictly ascending priority order
//     (the filter's natural order: survivors keep their slots, adds are
//     appended past the predecessor's MaxPrio). Fill order then keeps
//     every membership list priority-sorted with no explicit sort.
//   - Classify returns the lowest-priority matching rule — identical,
//     priority ties impossible by construction, to scanning the rule
//     slice in priority order calling Matches. ClassifyBatch returns
//     the same rule, priority, ref count, and ok for every tuple, and
//     the index translates every value to upperBound's interval over
//     the boundary table (property- and fuzz-tested, including every
//     elementary-interval boundary value and its neighbors).
//   - A Program evolved by Delta deep-equals a fresh Compile of the same
//     successor set: per attribute, either the boundary structure
//     changed (some boundary's refcount appeared or died) and the
//     attribute's memberships are re-homed through an interval map and
//     its index rebuilt over the merged boundary table, or memberships
//     are patched over the unchanged interval table — whose index
//     tables, a pure function of the boundary table, are shared by
//     reference. Past deltaChurnFactor the whole program recompiles.
//   - MemoryBytes is priority-numbering-invariant: it prices bitsets at
//     dense-equivalent width (ceil(liveRules/64) words) and includes the
//     direct-index tables (IndexBytes reports their share), so a
//     delta-evolved program over a sparse priority domain reports the
//     same figure as a fresh compile of the same rules — the EPCBudgeter
//     weight and the filter's delta-vs-oracle memory parity stay exact.
//     RetainedBytes reports actual retention — within 5% of the heap the
//     program holds, test-enforced; the difference from MemoryBytes is
//     bitset width slack, which the EPC meter is charged too.
package classify
