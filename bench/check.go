package main

import (
	"encoding/binary"
	"math"

	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/sketch"
)

// check is the correctness gate, run before anything is timed. It injects
// the head of the pool losslessly with each packet's pool index in Ref,
// compares the set the sink received against the reference, then seals an
// epoch and audits the authenticated logs against sketches rebuilt from
// what was injected and what was delivered. Every mismatch counts as a
// failed operation.
func (b *bench) check() {
	// Start a clean audit epoch: setup's first burst is already in the logs.
	for v := range b.filters {
		if _, err := b.eng.RotateEpoch(v); err != nil {
			b.fail(1, "check: rotate victim %d: %v", v, err)
		}
	}
	n := min(checkPackets, len(b.pool))
	for i := 0; i < n; i++ {
		b.pool[i].Ref = packet.Ref(i)
	}
	b.sink.checking = true
	first := b.checkPass(n)
	b.compareReference(first, n)
	b.audit(first, n)

	if hashed := b.w.pAllow > 0 && b.w.pAllow < 1; hashed {
		// The audit's rotation promoted every hashed flow to the exact
		// table. A verdict must be a pure function of (five-tuple, rules,
		// secret): the same flows must fare the same through the new path.
		second := b.checkPass(n)
		for i := range first {
			if first[i] != second[i] {
				b.fail(1, "packet %d: verdict changed across promotion", i)
			}
		}
		// The reference could not predict hashed verdicts; from here on the
		// observed ones stand in for it.
		copy(b.allow[:n], first)
	}

	b.sink.checking = false
	for i := 0; i < n; i++ {
		b.pool[i].Ref = packet.NoRef
	}
	b.cur = 0
	b.placeMarks()
	b.checkIdentities("check")
}

// checkPass injects pool[:n] burst by burst, draining after each so no
// ring can overflow, and returns which indices the sink received.
func (b *bench) checkPass(n int) []bool {
	b.sink.seen = make([]bool, n)
	b.cur = 0
	for i := 0; i < n; i += burstSize {
		if got := b.inject(-1, 0); got != burstSize {
			b.fail(uint64(burstSize-got), "check burst %d: %d of %d accepted", i/burstSize, got, burstSize)
		}
		b.eng.WaitDrained()
	}
	b.attempted += uint64(n)
	if b.sink.dups > 0 {
		b.fail(b.sink.dups, "%d packets delivered twice", b.sink.dups)
		b.sink.dups = 0
	}
	return b.sink.seen
}

// compareReference holds the delivered set against the reference matcher.
// Flows decided by a probabilistic rule are only bounded: every packet of
// a flow fares alike, and the allowed share of flows lies within six
// standard deviations of PAllow (the secret is the enclave's own, so the
// exact split is not the benchmark's to know).
func (b *bench) compareReference(seen []bool, n int) {
	hashedFlows, hashedAllowed := 0, 0
	for i := 0; i < n; i += b.w.train {
		want := b.refs[b.pool[i].NS].verdict(b.pool[i].Tuple)
		for j := 1; j < b.w.train; j++ {
			if seen[i+j] != seen[i] {
				b.fail(1, "packet %d: verdict differs within its flow", i+j)
			}
		}
		switch want {
		case refHashed:
			hashedFlows++
			if seen[i] {
				hashedAllowed++
			}
		default:
			if seen[i] != (want == refAllow) {
				b.fail(uint64(b.w.train), "packet %d (%v): delivered=%t, reference says %t", i, b.pool[i].Tuple, seen[i], want == refAllow)
			}
		}
	}
	if hashedFlows > 0 {
		p := b.w.pAllow
		share := float64(hashedAllowed) / float64(hashedFlows)
		if tol := 6 * math.Sqrt(p*(1-p)/float64(hashedFlows)); math.Abs(share-p) > tol {
			b.fail(1, "hashed flows: %.4f allowed, want %.2f±%.4f", share, p, tol)
		}
	}
}

// audit seals each victim's epoch and verifies what the paper's verifiers
// would: the snapshots' MACs under the enclave's key, the incoming log
// against every packet injected for the victim, and the outgoing log
// against every packet the sink received.
func (b *bench) audit(seen []bool, n int) {
	type logs struct {
		in, out  *sketch.Sketch
		injected uint64
	}
	local := make([]logs, b.w.victims)
	for v := range local {
		local[v] = logs{in: sketch.NewDefault(), out: sketch.NewDefault()}
	}
	var src [4]byte
	for i := 0; i < n; i++ {
		l := &local[b.pool[i].NS]
		binary.BigEndian.PutUint32(src[:], b.pool[i].Tuple.SrcIP)
		l.in.Add(src[:], 1)
		l.injected++
		if seen[i] {
			key := b.pool[i].Tuple.Key()
			l.out.Add(key[:], 1)
		}
	}
	for v, l := range local {
		epochs, err := b.eng.RotateEpoch(v)
		if err != nil {
			b.fail(1, "audit victim %d: rotate: %v", v, err)
			continue
		}
		key := b.filters[v].Enclave().MACKey()
		if in := b.auditLog(v, key, epochs[0].Incoming, l.in); in != nil && in.Total() != l.injected {
			b.fail(1, "audit victim %d: incoming log holds %d packets, %d injected", v, in.Total(), l.injected)
		}
		b.auditLog(v, key, epochs[0].Outgoing, l.out)
	}
}

// auditLog verifies one sealed log and diffs it against the benchmark's
// own sketch of the same packets. It returns the verified log, nil when
// the MAC or the encoding is bad.
func (b *bench) auditLog(v int, key [32]byte, snap *filter.SignedSnapshot, local *sketch.Sketch) *sketch.Sketch {
	logged, err := filter.VerifySnapshot(key, snap)
	if err != nil {
		b.fail(1, "audit victim %d: %v log: %v", v, snap.Kind, err)
		return nil
	}
	d, err := logged.Diff(local)
	switch {
	case err != nil:
		b.fail(1, "audit victim %d: %v log: %v", v, snap.Kind, err)
	case !d.Empty():
		b.fail(1, "audit victim %d: %v log differs from what the benchmark saw: excess %d missing %d", v, snap.Kind, d.Excess, d.Missing)
	}
	return logged
}
