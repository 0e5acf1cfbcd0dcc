package enclave

// CostModel holds the calibrated per-operation costs (in virtual
// nanoseconds) of the simulated SGX platform. The paper's data-plane
// results (Figures 3a, 8, 13, 14 and the latency table) are properties of
// these costs — enclave-boundary copies, memory-encryption-engine (MEE)
// overhead on cache misses, and EPC paging — rather than of any particular
// NIC, so reproducing the cost structure reproduces the curves.
//
// The constants are drawn from published SGX microbenchmarks (Costan &
// Devadas "Intel SGX Explained"; the SCONE/Eleos/HotCalls measurements) and
// from the throughput anchors the paper itself reports, as documented per
// field. They are deliberately exported and pluggable so the benchmark
// harness can run ablations (e.g. "what if OCalls were free").
type CostModel struct {
	// ECallNs and OCallNs are the enclave transition costs. VIF's data
	// plane avoids them entirely after initialization (§V-A "Reducing the
	// number of context switches"); they price the control plane and the
	// naive design ablation. ~8µs matches published SGX1 transition costs.
	ECallNs float64
	OCallNs float64

	// PipelineNs is the fixed per-packet cost of the DPDK-style pipeline
	// outside any enclave work: NIC DMA + descriptor handling + two ring
	// hops. Calibrated so the native filter saturates 10 GbE at 64-byte
	// frames (14.88 Mpps → ≤ 67 ns/pkt), as in Figure 8/13.
	PipelineNs float64

	// SGXFixedNs is the additional fixed per-packet cost of the enclave
	// data path (ring polling from inside, verdict write-back, pointer
	// bookkeeping). Calibrated against the paper's near-zero-copy 64 B
	// anchor (≈ 8 Gb/s ≈ 12 Mpps → ~84 ns total per packet).
	SGXFixedNs float64

	// FullCopyFixedNs is the fixed part of copying a whole packet into
	// enclave memory (buffer management + write setup through the MEE).
	// Figure 13's signature — a ~6 Mpps cap at 64 B *and* line rate at
	// ≥256 B — implies the full-copy penalty is dominated by this fixed
	// cost, not by bytes.
	FullCopyFixedNs float64

	// CopyInPerByteNs prices the per-byte part of boundary crossings.
	CopyInPerByteNs float64

	// MemRefNs is a cache-hit memory reference.
	MemRefNs float64

	// HotVisits is the number of lookup-table accesses per packet assumed
	// cache-resident regardless of table size (the classifier's index
	// roots; for the paper's structure, the upper trie levels — what
	// every packet touches and which therefore never leaves cache).
	HotVisits int

	// MEEMissNs prices an enclave LLC miss: the line is fetched from DRAM
	// and decrypted/integrity-checked by the MEE (~3-5x a native miss).
	MEEMissNs float64

	// NativeMissNs is the no-SGX LLC miss cost, amortized by prefetching
	// and out-of-order execution on the DPDK hot loop.
	NativeMissNs float64

	// PageFaultNs is the amortized per-access cost once the enclave's
	// working set exceeds the EPC and pages are evicted/re-encrypted by
	// the kernel (EWB/ELDU), ~tens of µs per fault amortized over the
	// accesses that share the faulted page.
	PageFaultNs float64

	// SHA256FixedNs and SHA256PerByteNs price the hash-based probabilistic
	// filter (SHA-NI hardware hashing; Appendix F's ≤25% degradation at
	// 64 B anchors the fixed cost).
	SHA256FixedNs   float64
	SHA256PerByteNs float64

	// SketchUpdateNs prices one count-min sketch row update ("only 4
	// linear hash function operations ... negligible", §V-A).
	SketchUpdateNs float64

	// ExactMatchNs prices a hash-table exact-match lookup.
	ExactMatchNs float64

	// LLCBytes is the last-level cache size shared by enclave and host
	// (8 MiB on the paper's i7-6700).
	LLCBytes int

	// EPCBytes is the usable Enclave Page Cache (the paper observes the
	// ~92 MB limit of SGX1, Figure 3b).
	EPCBytes int
}

// DefaultCostModel returns the calibrated model described on each field.
func DefaultCostModel() CostModel {
	return CostModel{
		ECallNs:         8000,
		OCallNs:         7600,
		PipelineNs:      25,
		SGXFixedNs:      38,
		FullCopyFixedNs: 80,
		CopyInPerByteNs: 0.12,
		MemRefNs:        1.5,
		HotVisits:       2,
		MEEMissNs:       360,
		NativeMissNs:    15,
		PageFaultNs:     2800,
		SHA256FixedNs:   21,
		SHA256PerByteNs: 0.12,
		SketchUpdateNs:  1.5,
		ExactMatchNs:    5,
		LLCBytes:        8 << 20,
		EPCBytes:        92 << 20,
	}
}

// missRatio estimates the fraction of accesses to a working set of w bytes
// that miss a cache of c bytes, under the uniform-reuse approximation
// 1 - c/w (zero when the set fits).
func missRatio(w, c int) float64 {
	if w <= c || w == 0 {
		return 0
	}
	return 1 - float64(c)/float64(w)
}

// AccessCost returns the virtual cost of one memory reference into a
// working set of wss bytes held in enclave memory: base reference plus the
// expected MEE miss penalty plus, beyond the EPC, the expected paging
// penalty for the portion of the set that cannot be resident.
func (m CostModel) AccessCost(wss int) float64 {
	return m.AccessCostBudgeted(wss, m.EPCBytes)
}

// AccessCostBudgeted is AccessCost with an explicit EPC allowance instead
// of the platform's full EPCBytes. It prices multi-tenant paging pressure:
// when several victims' enclaves share one machine's EPC, each namespace
// is apportioned a budget (enclave.EPCBudgeter) and a working set beyond
// that budget pays the paging penalty even though the machine's total EPC
// might have held it — the tenant's pages are the ones the kernel evicts
// first, because the other tenants' budgets are spoken for.
func (m CostModel) AccessCostBudgeted(wss, epc int) float64 {
	cost := m.MemRefNs + missRatio(wss, m.LLCBytes)*m.MEEMissNs
	if epc <= 0 || epc > m.EPCBytes {
		epc = m.EPCBytes
	}
	if wss > epc {
		pagedFrac := float64(wss-epc) / float64(wss)
		cost += pagedFrac * m.PageFaultNs
	}
	return cost
}

// PagedFraction returns the fraction of a wss-byte working set that cannot
// be EPC-resident under an epc-byte allowance — the per-namespace paging
// pressure the budgeter surfaces (0 when the set fits).
func (m CostModel) PagedFraction(wss, epc int) float64 {
	if epc <= 0 || epc > m.EPCBytes {
		epc = m.EPCBytes
	}
	if wss <= epc || wss == 0 {
		return 0
	}
	return float64(wss-epc) / float64(wss)
}

// NativeAccessCost is AccessCost without MEE or EPC effects, for the
// no-SGX baseline.
func (m CostModel) NativeAccessCost(wss int) float64 {
	return m.MemRefNs + missRatio(wss, m.LLCBytes)*m.NativeMissNs
}

// FullCopyCost returns the cost of copying an n-byte packet wholesale into
// the enclave.
func (m CostModel) FullCopyCost(n int) float64 {
	return m.FullCopyFixedNs + float64(n)*m.CopyInPerByteNs
}

// CopyInCost returns the cost of copying n bytes into the enclave.
func (m CostModel) CopyInCost(n int) float64 {
	return float64(n) * m.CopyInPerByteNs
}

// SHA256Cost returns the cost of hashing n bytes (hardware SHA).
func (m CostModel) SHA256Cost(n int) float64 {
	return m.SHA256FixedNs + float64(n)*m.SHA256PerByteNs
}
