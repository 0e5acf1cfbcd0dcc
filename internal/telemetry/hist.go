package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented hot-path stage. The four stages tile a
// burst's life inside a shard worker: the idle gap before the burst was
// pulled off the ring, the filter's classification loop, the batched
// sketch/meter charge, and the flush (sink fanout + counter publication).
type Stage int

const (
	// StageDequeueWait is the worker-side gap between going idle and the
	// next successful burst dequeue — ring starvation, not processing.
	StageDequeueWait Stage = iota
	// StageVerdict is the filter's per-burst classify + dedup loop
	// (exact-table hit or classifier probe per fresh flow).
	StageVerdict
	// StageCharge is the batched bookkeeping after verdicts are known:
	// sketch AddMany, per-rule byte accounting, and the single enclave
	// meter ChargeBatch.
	StageCharge
	// StageFlush is everything the engine adds around the filter per
	// burst: namespace-run dispatch, sink fanout, and the once-per-burst
	// atomic counter publication.
	StageFlush

	numStages
)

// NumStages is the number of instrumented stages.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"dequeue_wait", "verdict", "charge", "flush",
}

func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// NumBuckets is the bucket count of every stage histogram. Bucket i holds
// durations whose nanosecond count has bit-length i — i.e. bucket 0 is
// exactly 0ns, bucket i (i >= 1) is [2^(i-1), 2^i). 40 buckets reach
// 2^39ns ≈ 9 minutes; anything slower lands in the last bucket.
const NumBuckets = 40

// Hist is a lock-free power-of-two-bucket latency histogram. Record is one
// atomic add; there is no other write path. Readers snapshot bucket by
// bucket, so a snapshot taken against concurrent recorders is a slightly
// torn but monotone view — fine for monitoring, never corrupt.
type Hist struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Record counts one observation. Exactly one atomic.Add, no allocation.
func (h *Hist) Record(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
}

// BucketUpper returns the inclusive upper bound, in nanoseconds, of bucket
// i: 0 for bucket 0, 2^i - 1 for i >= 1. The last bucket is unbounded
// (+Inf in the exposition).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// bucketMid is the midpoint of bucket i in nanoseconds, used to
// approximate the histogram sum at snapshot time.
func bucketMid(i int) uint64 {
	if i <= 0 {
		return 0
	}
	lo := uint64(1) << uint(i-1)
	return lo + (lo-1)/2
}

// HistSnapshot is a point-in-time copy of one histogram.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	// SumNS approximates the total observed time from bucket midpoints;
	// it is the exposition's _sum, not an exact figure.
	SumNS uint64
}

// Snapshot copies the live buckets.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
		s.SumNS += c * bucketMid(i)
	}
	return s
}

// Merge adds another snapshot into this one.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
}

// ShardStages is one shard's block of stage histograms. Blocks are padded
// so adjacent shards' workers never share a cache line even when the
// blocks sit contiguously in the Telemetry slice.
type ShardStages struct {
	hists [NumStages]Hist
	_     [64]byte
}

// Hist exposes one stage's histogram (for tests and snapshots).
func (b *ShardStages) Hist(s Stage) *Hist { return &b.hists[s] }

// StagesSnapshot is the per-shard snapshot of all stages.
type StagesSnapshot [NumStages]HistSnapshot

// Snapshot copies all stage histograms of the block.
func (b *ShardStages) Snapshot() StagesSnapshot {
	var s StagesSnapshot
	for i := range b.hists {
		s[i] = b.hists[i].Snapshot()
	}
	return s
}

// StageRecorder decides, once per burst, whether this burst is sampled for
// stage timing, and records sampled durations into its shard's block. It
// is deliberately NOT safe for concurrent use: every hot-path thread owns
// its own recorder (the engine worker holds one; the filter that worker
// drives holds another), so the sampling counter needs no atomics. All
// recorders of a shard write the same padded block — the histogram adds
// are the only cross-thread writes, and those are atomic.
//
// A nil *StageRecorder is valid and records nothing, so call sites need no
// telemetry-enabled branch of their own.
type StageRecorder struct {
	stages *ShardStages
	mask   uint64 // sample when ctr&mask == 0; every = mask+1 bursts
	ctr    uint64
}

// Sample advances the burst counter and reports whether this burst should
// be timed. One increment, one mask — no atomics.
func (r *StageRecorder) Sample() bool {
	if r == nil {
		return false
	}
	r.ctr++
	return r.ctr&r.mask == 0
}

// Record counts one stage duration for a sampled burst.
func (r *StageRecorder) Record(s Stage, d time.Duration) {
	if r == nil {
		return
	}
	r.stages.hists[s].Record(d)
}
