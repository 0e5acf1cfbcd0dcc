package filter

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync/atomic"
	"time"

	"github.com/innetworkfiltering/vif/internal/classify"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/sketch"
)

// Verdict is the filter's per-packet decision.
type Verdict uint8

// Verdicts.
const (
	VerdictAllow Verdict = iota + 1
	VerdictDrop
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAllow:
		return "allow"
	case VerdictDrop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// CopyMode selects the data-path copy discipline whose costs the enclave
// meter charges (the three implementations of Figure 8).
type CopyMode int

// Copy modes.
const (
	// CopyModeNative is the no-SGX baseline: the filter runs in host
	// memory, packets are processed zero-copy as in plain DPDK.
	CopyModeNative CopyMode = iota + 1
	// CopyModeFull copies every packet byte into the enclave before
	// processing (the naive SGX middlebox design).
	CopyModeFull
	// CopyModeNearZero copies only ⟨five-tuple, size, ref⟩ into the
	// enclave (§V-A's near zero-copy optimization).
	CopyModeNearZero
)

// String renders the copy mode.
func (m CopyMode) String() string {
	switch m {
	case CopyModeNative:
		return "native"
	case CopyModeFull:
		return "sgx-full-copy"
	case CopyModeNearZero:
		return "sgx-near-zero-copy"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// descriptorBytes is what the near-zero-copy path moves across the enclave
// boundary per packet: five-tuple (13) + size (2) + buffer reference (8).
const descriptorBytes = packet.KeySize + 2 + 8

// densifyFactor bounds the sparse priority domain a ReconfigureDelta
// lineage may grow: once maxPrio+1 would exceed this multiple of the live
// rule count, the delta recompiles the classifier dense instead of
// patching it.
const densifyFactor = 2

// Errors.
var (
	ErrNoRules = errors.New("filter: no rule set installed")
)

// Config configures a Filter.
type Config struct {
	// Mode is the data-path copy discipline. Default CopyModeNearZero.
	Mode CopyMode
	// MaxPending caps the queue of flows awaiting exact-match promotion;
	// beyond it, new flows are still decided by hashing but not queued
	// (bounding enclave memory). Default 65536.
	MaxPending int
	// DisablePromotion turns off the hybrid design: flows are always
	// decided by hashing. Used by the Fig 14 ablation.
	DisablePromotion bool
}

func (c *Config) fillDefaults() {
	if c.Mode == 0 {
		c.Mode = CopyModeNearZero
	}
	if c.MaxPending == 0 {
		c.MaxPending = 65536
	}
}

// Stats counts data-plane events since the last reset.
type Stats struct {
	Processed uint64
	Allowed   uint64
	Dropped   uint64
	// ExactHits counts verdicts served by the learned exact-match table.
	ExactHits uint64
	// RuleHits counts verdicts served by installed rules (the compiled
	// classifier).
	RuleHits uint64
	// DefaultHits counts packets matching no rule.
	DefaultHits uint64
	// Hashed counts SHA-256 evaluations for probabilistic rules. The batch
	// path evaluates once per distinct flow per burst, so under packet
	// trains this counts actual hash work, not hash-needing packets.
	Hashed uint64
	// Promoted counts flows promoted to exact-match entries.
	Promoted uint64
	// Misrouted counts packets that matched no local rule but do match a
	// rule assigned to a different enclave — evidence of load-balancer
	// misbehavior (§IV-B), reported to the victim.
	Misrouted uint64
	// Malformed counts undecodable frames (dropped before rule lookup).
	Malformed uint64
}

// statsCounters is the filter's internal counter block. The data-plane
// thread adds to it once per batch (amortized); control-plane readers
// (Stats, HashRatio, cluster.TotalStats) load it atomically at any time —
// this is what makes live monitoring of a running engine race-free.
type statsCounters struct {
	processed   atomic.Uint64
	allowed     atomic.Uint64
	dropped     atomic.Uint64
	exactHits   atomic.Uint64
	ruleHits    atomic.Uint64
	defaultHits atomic.Uint64
	hashed      atomic.Uint64
	promoted    atomic.Uint64
	misrouted   atomic.Uint64
	malformed   atomic.Uint64
}

// ruleView bundles everything a lookup consults about the installed rules:
// the shard, the peer-rule view, the compiled multi-attribute classifier
// that serves the packet path, and the priority numbering the classifier
// and the per-rule byte counters share. It is swapped wholesale with one
// atomic pointer store, so a reader never sees a shard paired with the
// wrong lookup table.
type ruleView struct {
	set     *rules.Set
	foreign *rules.Set
	// prog is the compiled classifier Classify/Decision/Explain/Promote
	// resolve packets against: one interval-table probe per attribute plus
	// a bitset intersection, flat in the rule count. Immutable.
	prog *classify.Program
	// prios maps set.Rules[i] to its priority in prog. nil means identity
	// (a full rebuild assigns dense 0..Len-1 priorities); after
	// ReconfigureDelta priorities are sparse — survivors keep theirs and
	// adds extend past maxPrio — so the mapping is explicit.
	prios []int32
	// maxPrio is the highest priority this lineage has ever assigned (a
	// removed rule's number is never reused): the next add is maxPrio+1.
	maxPrio int32
}

// prio returns the classifier priority of set.Rules[i].
func (v *ruleView) prio(i int) int32 {
	if v.prios == nil {
		return int32(i)
	}
	return v.prios[i]
}

// Filter is one enclaved filter instance. Data-path methods (Process,
// ProcessBatch, Decision, Promote) must be called from the single filter
// thread, mirroring the paper's pipeline design. Monitoring methods
// (Stats, ExactEntries, PendingFlows, HashRatio) are safe from any
// goroutine while the data plane runs; log snapshots are taken via the
// control-plane methods which copy under the data-plane's quiescence
// points.
type Filter struct {
	encl *enclave.Enclave
	cfg  Config

	// secret caches the enclave's filtering secret (in-enclave state; the
	// filter is in-enclave code).
	secret [32]byte

	view atomic.Pointer[ruleView]

	exact      *exactTable
	exactCount atomic.Int64
	pendingQ   []packet.FiveTuple
	pendingSet map[packet.FiveTuple]bool
	pendingLen atomic.Int64

	inLog  *sketch.Sketch // per-source-IP, incoming packets
	outLog *sketch.Sketch // per-five-tuple, forwarded packets

	// ruleBytes accumulates per-rule traffic volume (the B_i vector each
	// slave uploads to the master during rule redistribution, Figure 5),
	// indexed by rule priority — the rule's position in the installed set —
	// so the hot path writes a flat array slot instead of a map bucket.
	// Pure measurement state: it never influences a verdict, so the
	// statelessness property is preserved. Per §IV footnote 6, counts are
	// bytes, not rates — the enclave's clock is untrusted, so the control
	// plane timestamps collection externally.
	ruleBytes []uint64

	// clsBuildNs records the wall time of the most recent classifier
	// construction — a full Compile (New/Reconfigure/densify) or an
	// incremental Delta patch — for the operational stats lines. Atomic so
	// monitoring can read it while the control plane reconfigures.
	clsBuildNs atomic.Int64

	stats statsCounters

	// sha is the reused SHA-256 state for hash-based filtering: one state,
	// Reset per flow, digest into a persistent buffer — no per-packet
	// allocation. Owned by the filter thread.
	sha       hash.Hash
	shaDigest []byte

	// scratch is the batch working set (flow dedup table, log-key staging).
	scratch batchScratch

	// burst is the staging area between the decomposed burst stages
	// (ClassifyBurst → ApplyBurst → ChargeBurst, see burst.go). Owned by
	// the filter thread.
	burst burstState

	// procBuf/procVerdicts back the one-packet Process wrapper.
	procBuf      [1]packet.Descriptor
	procVerdicts []Verdict
}

// New creates a filter inside the given enclave with the given rule shard.
func New(encl *enclave.Enclave, set *rules.Set, cfg Config) (*Filter, error) {
	if set == nil || set.Len() == 0 {
		return nil, ErrNoRules
	}
	cfg.fillDefaults()
	f := &Filter{
		encl:       encl,
		cfg:        cfg,
		secret:     encl.Secret(),
		exact:      newExactTable(),
		pendingSet: make(map[packet.FiveTuple]bool),
		ruleBytes:  make([]uint64, set.Len()),
		inLog:      sketch.NewDefault(),
		outLog:     sketch.NewDefault(),
		sha:        sha256.New(),
		shaDigest:  make([]byte, 0, sha256.Size),
	}
	f.view.Store(f.compileDense(set, nil))
	f.syncMemory()
	return f, nil
}

// compileDense compiles set from scratch under identity priorities
// 0..Len-1 (the numbering New, Reconfigure and a densifying delta share)
// and records the compile time.
func (f *Filter) compileDense(set, foreign *rules.Set) *ruleView {
	maxPrio := int32(set.Len() - 1)
	start := time.Now()
	prog := classify.Compile(set.Rules, nil, maxPrio)
	f.clsBuildNs.Store(int64(time.Since(start)))
	return &ruleView{set: set, foreign: foreign, prog: prog, maxPrio: maxPrio}
}

// Enclave returns the hosting enclave (for attestation and metering).
func (f *Filter) Enclave() *enclave.Enclave { return f.encl }

// Rules returns the installed shard.
func (f *Filter) Rules() *rules.Set { return f.view.Load().set }

// ForeignRules returns the installed peer-rule view (nil when misroute
// detection is off). With Rules it captures everything Reconfigure needs
// to restore this view — the engine's delta-rollback path uses the pair.
func (f *Filter) ForeignRules() *rules.Set { return f.view.Load().foreign }

// Stats returns a consistent-enough snapshot of the counters: each field
// is loaded atomically, so reading while the data plane runs is race-free
// (fields may straddle a batch boundary, like any /proc counter).
func (f *Filter) Stats() Stats {
	return Stats{
		Processed:   f.stats.processed.Load(),
		Allowed:     f.stats.allowed.Load(),
		Dropped:     f.stats.dropped.Load(),
		ExactHits:   f.stats.exactHits.Load(),
		RuleHits:    f.stats.ruleHits.Load(),
		DefaultHits: f.stats.defaultHits.Load(),
		Hashed:      f.stats.hashed.Load(),
		Promoted:    f.stats.promoted.Load(),
		Misrouted:   f.stats.misrouted.Load(),
		Malformed:   f.stats.malformed.Load(),
	}
}

// syncMemory recomputes the enclave's EPC charge from the actual data
// structure sizes: compiled classifier + learned flows + pending queue +
// the two packet logs.
func (f *Filter) syncMemory() {
	// RetainedBytes, not MemoryBytes: a delta-evolved classifier over a
	// sparse priority domain can carry bounded width slack, and the EPC
	// meter charges what is actually resident.
	view := f.view.Load()
	mem := view.prog.RetainedBytes() +
		f.exact.memoryBytes() +
		len(f.pendingQ)*packet.KeySize +
		f.inLog.MemoryBytes() + f.outLog.MemoryBytes()
	f.encl.SetMemoryUsed(mem)
}

// Reconfigure installs a new shard (and the peer-rule view used for
// misroute detection) by compiling a fresh immutable classifier and
// swapping it in with one atomic pointer store. The swap means readers of
// the view (Decision, a monitoring Rules call) never observe a torn or
// half-built lookup table and the rebuild never parks them — but
// Reconfigure is still a data-plane mutation: it replaces the exact-match
// table, the pending queue, and the per-rule byte counters that
// ProcessBatch writes, so it must not run concurrently with the data-path
// methods. The engine enforces this by quiescing (Session.Reconfigure
// refuses while an engine owns the filters). Learned flows and the
// pending queue are cleared: promoted entries derive from rules that may
// no longer be local.
func (f *Filter) Reconfigure(set *rules.Set, foreign *rules.Set) error {
	if set == nil || set.Len() == 0 {
		return ErrNoRules
	}
	f.exact = newExactTable()
	f.exactCount.Store(0)
	f.pendingQ = f.pendingQ[:0]
	f.pendingLen.Store(0)
	clear(f.pendingSet)
	f.ruleBytes = make([]uint64, set.Len())
	f.view.Store(f.compileDense(set, foreign))
	f.syncMemory()
	return nil
}

// SetForeign installs only the peer-rule view.
func (f *Filter) SetForeign(foreign *rules.Set) {
	v := *f.view.Load()
	v.foreign = foreign
	f.view.Store(&v)
}

// Delta is an incremental rule-set change for ReconfigureDelta: Removes
// are deleted from the installed set (matched by rule ID; the other fields
// are ignored) and Adds are appended after every existing rule, so
// first-match order is: surviving rules in their installed order, then
// Adds in order. Foreign, when non-nil, replaces the peer-rule view in the
// same atomic swap; nil keeps the current one.
type Delta struct {
	Adds    []rules.Rule
	Removes []rules.Rule
	Foreign *rules.Set
}

// ReconfigureDelta applies an incremental rule-set change by patching the
// installed classifier (classify.Program.Delta: attributes the delta
// leaves structurally intact share their tables by reference) and
// publishing the result with the same single atomic view store a full
// Reconfigure uses — so a 25k-rule tenant adding 50 prefixes pays for the
// 50 rules, not a 25k-rule recompile, and concurrent readers never
// observe a torn table. Like Reconfigure it is a data-plane mutation and must not
// run concurrently with the data-path methods; in engine mode use
// Engine.ReconfigureNamespaceDelta, which applies it on the shard workers
// at batch boundaries.
//
// Unlike Reconfigure, surviving rules keep their per-rule byte counters
// (the measurement window continues across a live delta) and — when the
// delta removes nothing — the learned exact-match entries survive too:
// adds are appended at the lowest priority, so no existing decision can
// change. Any remove resets the learned table, since its entries may
// derive from the removed rules. Priorities grow monotonically across
// deltas (adds never reuse a removed rule's slot); once the sparse
// priority domain exceeds densifyFactor times the live rule count, the
// delta transparently recompiles the classifier dense (same rule set,
// identity priorities, survivor counters remapped) — so unbounded churn
// on a long-lived engine cannot grow prios/ruleBytes without bound, and
// no caller ever needs to leave engine mode to re-densify. The rebuild
// is amortized: it recurs only after churn totalling
// (densifyFactor-1)x the rule set.
//
// On error nothing changes. A delta that fails on part of a fleet is
// rolled back by the engine (Engine.ReconfigureNamespaceDelta reinstalls
// the pre-delta rules on the shards that applied it); a full Reconfigure
// remains the oracle path the delta is tested against.
func (f *Filter) ReconfigureDelta(d Delta) error {
	view := f.view.Load()
	if len(d.Adds) == 0 && len(d.Removes) == 0 {
		if d.Foreign != nil {
			f.SetForeign(d.Foreign)
		}
		return nil
	}

	// Resolve removes against the installed set by ID; the installed rule
	// (not the caller's copy) is what the classifier patch removes.
	removeIdx := make(map[uint32]int, len(d.Removes))
	removes := make([]rules.Rule, 0, len(d.Removes))
	for _, r := range d.Removes {
		if _, dup := removeIdx[r.ID]; dup {
			return fmt.Errorf("filter: delta removes rule %d twice", r.ID)
		}
		removeIdx[r.ID] = -1
	}
	survivors := make([]rules.Rule, 0, view.set.Len()-len(d.Removes)+len(d.Adds))
	survivorPrios := make([]int32, 0, cap(survivors))
	removedPrios := make([]int32, 0, len(d.Removes))
	for i, r := range view.set.Rules {
		if _, ok := removeIdx[r.ID]; ok {
			removeIdx[r.ID] = i
			removes = append(removes, r)
			removedPrios = append(removedPrios, view.prio(i))
			continue
		}
		survivors = append(survivors, r)
		survivorPrios = append(survivorPrios, view.prio(i))
	}
	for id, i := range removeIdx {
		if i < 0 {
			return fmt.Errorf("filter: delta removes unknown rule %d", id)
		}
	}
	if len(survivors)+len(d.Adds) == 0 {
		return ErrNoRules
	}

	// NewSet validates the adds, checks ID uniqueness across the whole new
	// set, and assigns fresh IDs to zero-ID adds.
	newSet, err := rules.NewSet(append(survivors, d.Adds...), view.set.DefaultAllow)
	if err != nil {
		return err
	}
	adds := newSet.Rules[len(survivors):]

	foreign := view.foreign
	if d.Foreign != nil {
		foreign = d.Foreign
	}
	var (
		next      *ruleView
		ruleBytes []uint64
	)
	if int(view.maxPrio)+1+len(adds) > densifyFactor*newSet.Len() {
		// The sparse priority domain has outgrown the rule set: recompile
		// dense instead of patching. Same successor set, identity
		// priorities; survivor counters are remapped from their sparse
		// slots, so the measurement window still rides through. Decisions
		// are unchanged (identical rules in identical order), so the
		// exact-table policy below applies exactly as on the patch path.
		next = f.compileDense(newSet, foreign)
		ruleBytes = make([]uint64, newSet.Len())
		for i, p := range survivorPrios {
			ruleBytes[i] = f.ruleBytes[p]
		}
	} else {
		// Survivors keep their priorities; adds are numbered past every
		// priority the lineage has ever used, in order, so they sort after
		// all survivors and a removed rule's number is never reused.
		prios := make([]int32, newSet.Len())
		copy(prios, survivorPrios)
		maxPrio := view.maxPrio + int32(len(adds))
		for i := range adds {
			prios[len(survivors)+i] = view.maxPrio + 1 + int32(i)
		}
		// The classifier evolves incrementally too: attributes whose
		// interval structure the delta leaves intact are patched (sharing
		// their direct-index tables by reference), the rest patch their
		// changed index chunks; past the churn threshold the whole program
		// recompiles.
		clsStart := time.Now()
		prog := view.prog.Delta(classify.Delta{
			Rules:        newSet.Rules,
			Prios:        prios,
			MaxPrio:      maxPrio,
			AddStart:     len(survivors),
			RemovedRules: removes,
			RemovedPrios: removedPrios,
		})
		f.clsBuildNs.Store(int64(time.Since(clsStart)))
		next = &ruleView{set: newSet, foreign: foreign, prog: prog, prios: prios, maxPrio: maxPrio}
		// Per-rule byte counters: survivors keep their (sparse-prio)
		// slots, removed slots are zeroed so they can never leak into a
		// future RuleBytes read, adds start fresh at the end.
		ruleBytes = make([]uint64, maxPrio+1)
		copy(ruleBytes, f.ruleBytes)
		for _, i := range removeIdx {
			ruleBytes[view.prio(i)] = 0
		}
	}

	if len(removes) > 0 {
		// Learned entries may derive from removed rules; drop them. The
		// pending queue survives — Promote recomputes against the new view.
		f.exact = newExactTable()
		f.exactCount.Store(0)
	}
	f.ruleBytes = ruleBytes
	f.view.Store(next)
	f.syncMemory()
	return nil
}

// hashBits computes the leading 64 bits of SHA-256(key ‖ secret) through
// the filter's reused hash state (no allocation; filter thread only).
func (f *Filter) hashBits(t packet.FiveTuple) uint64 {
	key := t.Key()
	f.sha.Reset()
	f.sha.Write(key[:])
	f.sha.Write(f.secret[:])
	f.shaDigest = f.sha.Sum(f.shaDigest[:0])
	return binary.BigEndian.Uint64(f.shaDigest[:8])
}

// allowBits is the connection-preserving probabilistic decision: allow iff
// the hash bits fall under pAllow·2^64.
func allowBits(x uint64, pAllow float64) bool {
	// pAllow == 1 must allow everything including x == MaxUint64.
	if pAllow >= 1 {
		return true
	}
	return float64(x) < pAllow*math.MaxUint64
}

// Decision is the pure, stateless decision function f(p) of Eq. 2. It
// consults only the packet bits, the installed rules, the learned
// exact-match entries (which themselves are deterministic functions of
// rules+secret), and the enclave secret. It performs no logging and no
// cost accounting: calling it any number of times, in any order, yields
// identical verdicts. (It shares the filter thread's scratch hash state,
// so like the data-path methods it runs on the filter thread.)
func (f *Filter) Decision(t packet.FiveTuple) Verdict {
	if v, ok := f.exact.get(t, t.Hash64()); ok {
		return v
	}
	view := f.view.Load()
	if ri, _, _, ok := view.prog.Classify(t); ok {
		return f.ruleVerdict(t, view.set.Rules[ri])
	}
	if view.set.DefaultAllow {
		return VerdictAllow
	}
	return VerdictDrop
}

func (f *Filter) ruleVerdict(t packet.FiveTuple, r rules.Rule) Verdict {
	switch {
	case r.PAllow >= 1:
		return VerdictAllow
	case r.PAllow <= 0:
		return VerdictDrop
	case allowBits(f.hashBits(t), r.PAllow):
		return VerdictAllow
	default:
		return VerdictDrop
	}
}

// Process runs the full data-plane path for one packet descriptor. It is
// the one-element special case of ProcessBatch, retained so serial callers
// (the analytical pipeline, the experiment harness) keep working.
func (f *Filter) Process(d packet.Descriptor) Verdict {
	f.procBuf[0] = d
	f.procVerdicts = f.ProcessBatch(f.procBuf[:], f.procVerdicts)
	return f.procVerdicts[0]
}

// flow classification within a batch.
const (
	classDefault uint8 = iota
	classExact
	classRule
)

// batchEntry is one distinct flow observed in the current burst: its
// decision, its classification for stats, and the packet/byte totals of
// its duplicates.
type batchEntry struct {
	tuple    packet.FiveTuple
	hash     uint64
	bytes    uint64
	count    uint32
	prio     int32
	verdict  Verdict
	class    uint8
	hashed   bool
	misroute bool
}

// batchScratch is the reusable per-burst working set: a small open-
// addressing table deduplicating the burst's flows, plus staging for the
// batched sketch updates. Owned by the filter thread; zero steady-state
// allocation.
type batchScratch struct {
	slots []int32 // open addressing → index into ents; -1 empty
	ents  []batchEntry

	// pktEnt maps each descriptor to its flow entry so the verdict
	// fan-out can run as a final pass, after the burst's exact-miss flows
	// were classified breadth-first. clsTuples/clsEnts stage those flows
	// for classify.ClassifyBatch (cls is its reusable scratch).
	pktEnt    []int32
	clsTuples []packet.FiveTuple
	clsEnts   []int32
	cls       classify.BatchScratch

	keyMem     []byte // backing for the log keys below
	inKeys     [][]byte
	inWeights  []uint64
	outKeys    [][]byte
	outWeights []uint64
}

// reset prepares the scratch for a burst of n packets (dedup table sized
// to ≤½ load).
func (sc *batchScratch) reset(n int) {
	need := 1
	for need < 2*n {
		need <<= 1
	}
	if cap(sc.slots) < need {
		sc.slots = make([]int32, need)
	} else {
		sc.slots = sc.slots[:need]
	}
	for i := range sc.slots {
		sc.slots[i] = -1
	}
	sc.ents = sc.ents[:0]
	if cap(sc.pktEnt) < n {
		sc.pktEnt = make([]int32, n)
		sc.clsTuples = make([]packet.FiveTuple, 0, n)
		sc.clsEnts = make([]int32, 0, n)
	}
	sc.pktEnt = sc.pktEnt[:n]
	sc.clsTuples = sc.clsTuples[:0]
	sc.clsEnts = sc.clsEnts[:0]
}

// lookupOrAdd returns the index of t's entry, adding one if the burst has
// not seen this flow yet.
func (sc *batchScratch) lookupOrAdd(t packet.FiveTuple, h uint64) (int, bool) {
	mask := uint64(len(sc.slots) - 1)
	i := h & mask
	for {
		s := sc.slots[i]
		if s < 0 {
			idx := len(sc.ents)
			sc.ents = append(sc.ents, batchEntry{tuple: t, hash: h})
			sc.slots[i] = int32(idx)
			return idx, true
		}
		if sc.ents[s].tuple == t {
			return int(s), false
		}
		i = (i + 1) & mask
	}
}

// ProcessBatch runs the full data-plane path for a burst of descriptors,
// writing one verdict per descriptor into verdicts (grown if its capacity
// is short; pass the previous call's return value to reuse the buffer).
//
// The burst is deduplicated by five-tuple: because the decision function
// is stateless (Eq. 2), every packet of a flow within one burst must get
// the same verdict, so the filter decides each distinct flow once and fans
// the verdict out — a packet train costs one exact probe or classifier probe, one
// set of sketch row updates (weighted by the train length), and at most
// one SHA-256 evaluation. All cost-model terms are accumulated into a
// CostVector and charged to the enclave meter once per burst.
func (f *Filter) ProcessBatch(ds []packet.Descriptor, verdicts []Verdict) []Verdict {
	if len(ds) == 0 {
		return verdicts[:0]
	}
	verdicts = f.ClassifyBurst(ds, verdicts)
	f.ApplyBurst()
	f.ChargeBurst()
	return verdicts
}

// Explain classifies one flow the way the data path would and reports
// where the verdict came from: the learned exact table, an installed rule
// (with its classifier priority), or the default action (priority -1). It is
// the packet-trace tap for live verdict disputes — pure like Decision,
// but it surfaces the provenance Decision hides. Filter thread only (it
// shares the reused hash state).
func (f *Filter) Explain(t packet.FiveTuple) (Verdict, int32, string) {
	if v, ok := f.exact.get(t, t.Hash64()); ok {
		return v, -1, "exact"
	}
	view := f.view.Load()
	if ri, prio, _, ok := view.prog.Classify(t); ok {
		return f.ruleVerdict(t, view.set.Rules[ri]), prio, "rule"
	}
	if view.set.DefaultAllow {
		return VerdictAllow, -1, "default"
	}
	return VerdictDrop, -1, "default"
}

// finishRule finishes one exact-miss flow's decision from its batch
// classification result: cost charging, misroute detection, default
// action, and the probabilistic-rule hash — the post-probe half of the
// data path.
func (f *Filter) finishRule(ent *batchEntry, res classify.Result, view *ruleView, model enclave.CostModel, cv *enclave.CostVector) {
	// The first HotVisits accesses (the attribute tables' always-resident
	// index roots every packet touches) are priced as cache hits
	// regardless of table size; the rest pay the footprint-dependent miss
	// cost — at enclave (MEE/EPC) or native rates.
	refs := int(res.Refs)
	hot := refs
	if hot > model.HotVisits {
		hot = model.HotVisits
	}
	cv.HotRefs += hot
	if f.cfg.Mode == CopyModeNative {
		cv.NativeColdRefs += refs - hot
	} else {
		cv.ColdRefs += refs - hot
	}

	if !res.OK {
		ent.class = classDefault
		if view.foreign != nil {
			// A flow matching no local rule but matching a peer enclave's
			// rule: the untrusted load balancer steered traffic wrongly.
			if _, m := view.foreign.Match(ent.tuple); m {
				ent.misroute = true
			}
		}
		if view.set.DefaultAllow {
			ent.verdict = VerdictAllow
		} else {
			ent.verdict = VerdictDrop
		}
		return
	}

	r := &view.set.Rules[res.Rule]
	ent.class, ent.prio = classRule, res.Prio
	switch {
	case r.PAllow >= 1:
		ent.verdict = VerdictAllow
	case r.PAllow <= 0:
		ent.verdict = VerdictDrop
	default:
		// Probabilistic rule: hash-based connection-preserving decision.
		ent.hashed = true
		cv.SHA256Hashes++
		cv.SHA256Bytes += packet.KeySize + 32
		if allowBits(f.hashBits(ent.tuple), r.PAllow) {
			ent.verdict = VerdictAllow
		} else {
			ent.verdict = VerdictDrop
		}
	}
}

// applyBatch folds the burst's per-flow entries into the logs, the per-rule
// byte counters, the promotion queue, and the stats block — each touched
// once per burst.
func (f *Filter) applyBatch(cv *enclave.CostVector) {
	sc := &f.scratch
	need := len(sc.ents) * (4 + packet.KeySize)
	if cap(sc.keyMem) < need {
		sc.keyMem = make([]byte, 0, need)
	}
	mem := sc.keyMem[:0]
	sc.inKeys = sc.inKeys[:0]
	sc.inWeights = sc.inWeights[:0]
	sc.outKeys = sc.outKeys[:0]
	sc.outWeights = sc.outWeights[:0]

	var processed, allowed, dropped, exactHits, ruleHits, defaultHits, hashed, misrouted uint64
	for i := range sc.ents {
		ent := &sc.ents[i]
		c := uint64(ent.count)
		processed += c

		// Incoming log: per-source-IP counters (drop-before-filter
		// evidence for neighbors).
		start := len(mem)
		mem = binary.BigEndian.AppendUint32(mem, ent.tuple.SrcIP)
		sc.inKeys = append(sc.inKeys, mem[start:])
		sc.inWeights = append(sc.inWeights, c)
		cv.SketchRows += sketch.DefaultRows

		if ent.verdict == VerdictAllow {
			key := ent.tuple.Key()
			start = len(mem)
			mem = append(mem, key[:]...)
			sc.outKeys = append(sc.outKeys, mem[start:])
			sc.outWeights = append(sc.outWeights, c)
			cv.SketchRows += sketch.DefaultRows
			allowed += c
		} else {
			dropped += c
		}

		switch ent.class {
		case classExact:
			exactHits += c
		case classRule:
			ruleHits += c
			f.ruleBytes[ent.prio] += ent.bytes
			if ent.hashed {
				hashed++
				if !f.cfg.DisablePromotion {
					f.enqueuePending(ent.tuple)
				}
			}
		default:
			defaultHits += c
			if ent.misroute {
				misrouted += c
			}
		}
	}
	sc.keyMem = mem

	f.inLog.AddMany(sc.inKeys, sc.inWeights)
	if len(sc.outKeys) > 0 {
		f.outLog.AddMany(sc.outKeys, sc.outWeights)
	}

	f.stats.processed.Add(processed)
	if allowed > 0 {
		f.stats.allowed.Add(allowed)
	}
	if dropped > 0 {
		f.stats.dropped.Add(dropped)
	}
	if exactHits > 0 {
		f.stats.exactHits.Add(exactHits)
	}
	if ruleHits > 0 {
		f.stats.ruleHits.Add(ruleHits)
	}
	if defaultHits > 0 {
		f.stats.defaultHits.Add(defaultHits)
	}
	if hashed > 0 {
		f.stats.hashed.Add(hashed)
	}
	if misrouted > 0 {
		f.stats.misrouted.Add(misrouted)
	}
}

func (f *Filter) enqueuePending(t packet.FiveTuple) {
	if len(f.pendingQ) >= f.cfg.MaxPending || f.pendingSet[t] {
		return
	}
	f.pendingSet[t] = true
	f.pendingQ = append(f.pendingQ, t)
	f.pendingLen.Store(int64(len(f.pendingQ)))
}

// PendingFlows reports how many flows await promotion. Safe to read while
// the data plane runs.
func (f *Filter) PendingFlows() int { return int(f.pendingLen.Load()) }

// Promote converts all pending flows to exact-match entries (Appendix F's
// batch insertion at every rule update period) and returns how many were
// promoted. The verdicts are the same ones hashing produced — promotion is
// a pure performance optimization and cannot change any decision, which
// TestPromotionPreservesDecisions asserts.
func (f *Filter) Promote() int {
	view := f.view.Load()
	n := 0
	for _, t := range f.pendingQ {
		// Recompute via the rule, not the hash cache, so the entry is the
		// deterministic function of (rules, secret).
		if ri, _, _, ok := view.prog.Classify(t); ok && !view.set.Rules[ri].Deterministic() {
			f.exact.put(t, t.Hash64(), f.ruleVerdict(t, view.set.Rules[ri]))
			n++
		}
		delete(f.pendingSet, t)
	}
	f.pendingQ = f.pendingQ[:0]
	f.pendingLen.Store(0)
	f.exactCount.Store(int64(f.exact.len()))
	f.stats.promoted.Add(uint64(n))
	f.syncMemory()
	return n
}

// RuleBytes returns the per-rule byte counters (the B_i vector of the
// redistribution protocol) keyed by rule ID, and optionally resets them
// for the next measurement window.
func (f *Filter) RuleBytes(reset bool) map[uint32]uint64 {
	view := f.view.Load()
	out := make(map[uint32]uint64)
	for i, r := range view.set.Rules {
		p := view.prio(i)
		if b := f.ruleBytes[p]; b > 0 {
			out[r.ID] += b
			if reset {
				f.ruleBytes[p] = 0
			}
		}
	}
	return out
}

// HashRatio returns SHA-256 evaluations per processed packet — the
// x-axis of Figure 14 on the scalar path, where every hash-needing packet
// evaluates. On the batch path intra-burst dedup evaluates once per
// distinct flow per burst, so under packet trains this reports actual
// hash work, which sits below the fraction of hash-needing packets. Safe
// to read while the data plane runs.
func (f *Filter) HashRatio() float64 {
	p := f.stats.processed.Load()
	if p == 0 {
		return 0
	}
	return float64(f.stats.hashed.Load()) / float64(p)
}

// RuleCount returns the number of installed rules (excluding learned
// exact-match entries).
func (f *Filter) RuleCount() int { return f.view.Load().set.Len() }

// RuleMemoryBytes returns the live size of the installed lookup structure
// — the compiled classifier — the rule-set memory weight the multi-victim
// EPC budgeter apportions by. It is numbering-invariant (a delta lineage
// reports the same figure a fresh rebuild of the same rules would; slack
// is charged to the EPC meter separately). Safe to read while the data
// plane runs: the program is immutable behind one atomic pointer load.
func (f *Filter) RuleMemoryBytes() int {
	return f.view.Load().prog.MemoryBytes()
}

// ExactEntries returns the number of learned exact-match entries. Safe to
// read while the data plane runs.
func (f *Filter) ExactEntries() int { return int(f.exactCount.Load()) }

// ClassifierStats reports the installed classifier's footprint split into
// its direct-index translation tables (value→interval arrays, address
// roots and leaf chunks) versus the interval/membership structures, plus
// the wall time of the most recent compile or delta patch. Safe to read
// while the data plane runs: the program is immutable behind one atomic
// pointer load and the build time is an atomic.
func (f *Filter) ClassifierStats() (indexBytes, setBytes int, build time.Duration) {
	view := f.view.Load()
	indexBytes = view.prog.IndexBytes()
	setBytes = view.prog.MemoryBytes() - indexBytes
	return indexBytes, setBytes, time.Duration(f.clsBuildNs.Load())
}
