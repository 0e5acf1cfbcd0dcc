package enclave

// CostVector accumulates the cost-model terms of a whole burst of packets
// so the meter is charged once per batch instead of ~6 atomic adds per
// packet. The filter's batch path fills one on the stack while deciding a
// burst and hands it to ChargeBatch; every field is a count (or byte
// count) of operations actually performed, so the virtual-time total is
// identical to what per-packet charging would have produced, minus only
// the per-charge rounding.
type CostVector struct {
	// FixedPackets counts packets paying the fixed SGX data-path cost.
	FixedPackets int
	// CopyInBytes counts bytes copied across the boundary (descriptors on
	// the near-zero-copy path).
	CopyInBytes int
	// FullCopies and FullCopyBytes count wholesale packet copies into the
	// enclave and their bytes (the naive full-copy path).
	FullCopies    int
	FullCopyBytes int
	// SketchRows counts count-min sketch row updates.
	SketchRows int
	// ExactProbes counts exact-match table probes (hit or miss).
	ExactProbes int
	// SHA256Hashes and SHA256Bytes count probabilistic-filter hash
	// evaluations and their input bytes.
	SHA256Hashes int
	SHA256Bytes  int
	// HotRefs counts lookup-table references priced as cache hits (the
	// index roots every packet touches).
	HotRefs int
	// ColdRefs counts footprint-dependent references at enclave (MEE/EPC)
	// rates; NativeColdRefs the same at no-SGX rates.
	ColdRefs       int
	NativeColdRefs int
	// NativeNs accumulates raw model-computed nanoseconds.
	NativeNs float64
}

// ChargeBatch applies an accumulated cost vector to the meter with a
// single atomic update. The footprint-dependent access costs are priced at
// the current working-set size, evaluated once per batch — the same value
// per-packet charging would see, since the decision path never allocates.
func (e *Enclave) ChargeBatch(v CostVector) {
	m := e.model
	ns := float64(v.FixedPackets)*m.SGXFixedNs +
		float64(v.CopyInBytes)*m.CopyInPerByteNs +
		float64(v.FullCopies)*m.FullCopyFixedNs +
		float64(v.FullCopyBytes)*m.CopyInPerByteNs +
		float64(v.SketchRows)*m.SketchUpdateNs +
		float64(v.ExactProbes)*m.ExactMatchNs +
		float64(v.SHA256Hashes)*m.SHA256FixedNs +
		float64(v.SHA256Bytes)*m.SHA256PerByteNs +
		float64(v.HotRefs)*m.MemRefNs +
		v.NativeNs
	if v.ColdRefs > 0 {
		ns += float64(v.ColdRefs) * m.AccessCostBudgeted(e.MemoryUsed(), e.EPCBudget())
	}
	if v.NativeColdRefs > 0 {
		ns += float64(v.NativeColdRefs) * m.NativeAccessCost(e.MemoryUsed())
	}
	e.charge(ns)
}
