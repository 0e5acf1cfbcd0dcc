package enclave

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// ErrOutOfEPC is returned when an allocation exceeds the hard commitment
// cap (4x EPC) past which the SGX driver refuses memory.
var ErrOutOfEPC = errors.New("enclave: allocation exceeds EPC hard cap")

// CodeIdentity describes the binary loaded into an enclave. Its digest is
// the enclave measurement (MRENCLAVE analogue) that remote attestation
// proves. Version changes change the measurement, so a victim pinning a
// measurement rejects silently-modified filter code.
type CodeIdentity struct {
	// Name of the enclave binary, e.g. "vif-filter".
	Name string
	// Version of the filter implementation.
	Version string
	// Config is the canonical encoding of security-relevant configuration
	// baked into the enclave (sketch geometry, hash function). Two enclaves
	// with different filtering semantics must measure differently.
	Config string
	// BinarySize is the enclave binary size in bytes; attestation latency
	// scales with it (Appendix G measures a 1 MB binary).
	BinarySize int
}

// Measurement returns the SHA-256 digest identifying this code.
func (c CodeIdentity) Measurement() [32]byte {
	h := sha256.New()
	// Length-prefixed fields so no two identities collide by concatenation.
	for _, s := range []string{c.Name, c.Version, c.Config} {
		var n [4]byte
		n[0] = byte(len(s) >> 24)
		n[1] = byte(len(s) >> 16)
		n[2] = byte(len(s) >> 8)
		n[3] = byte(len(s))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Enclave is one simulated SGX enclave instance. It is the unit the paper
// parallelizes: ≤ ~10 Gb/s and ~3,000 rules each.
//
// The meter (virtual nanoseconds) is updated by Charge* methods as the
// hosted filter does work; the pipeline turns accumulated virtual time into
// throughput figures. Charge methods use atomics so a measurement reader
// can sample concurrently with the filter thread.
type Enclave struct {
	id       uint64
	identity CodeIdentity
	model    CostModel

	// secret is the in-enclave filtering secret (Appendix A's "enclave's
	// secrecy" for hash-based probabilistic filtering). It never crosses
	// the boundary.
	secret [32]byte
	// macKey authenticates packet-log snapshots released to verifiers.
	macKey [32]byte

	epcUsed   atomic.Int64
	virtualNs atomic.Uint64 // fixed-point: 1/16 ns units
	ticks     atomic.Uint64 // in-enclave monotonic clock (never read by the filter)

	// epcBudget is this enclave's apportioned share of the machine's EPC
	// when several tenants' enclaves share the platform (0 = unbudgeted,
	// the whole EPC). Set by the control plane (enclave.EPCBudgeter via the
	// engine); read by the charging paths, so it is atomic.
	epcBudget atomic.Int64
}

var nextEnclaveID atomic.Uint64

// New creates an initialized enclave running the given code identity under
// the given cost model. Key material is drawn from crypto/rand (standing in
// for SGX's EGETKEY hardware keys).
func New(identity CodeIdentity, model CostModel) (*Enclave, error) {
	e := &Enclave{
		id:       nextEnclaveID.Add(1),
		identity: identity,
		model:    model,
	}
	if _, err := rand.Read(e.secret[:]); err != nil {
		return nil, fmt.Errorf("enclave: derive secret: %w", err)
	}
	if _, err := rand.Read(e.macKey[:]); err != nil {
		return nil, fmt.Errorf("enclave: derive mac key: %w", err)
	}
	// Loading the binary consumes EPC before any runtime allocation.
	e.epcUsed.Store(int64(identity.BinarySize))
	return e, nil
}

// ID returns a process-unique enclave identifier (for cluster membership;
// not security-relevant).
func (e *Enclave) ID() uint64 { return e.id }

// Identity returns the loaded code identity.
func (e *Enclave) Identity() CodeIdentity { return e.identity }

// Measurement returns the enclave measurement remote parties verify.
func (e *Enclave) Measurement() [32]byte { return e.identity.Measurement() }

// Model returns the platform cost model.
func (e *Enclave) Model() CostModel { return e.model }

// Secret exposes the in-enclave filtering secret TO IN-ENCLAVE CODE ONLY
// (package filter). By convention — enforced by review, as in the real
// system by hardware — host-side packages never call this.
func (e *Enclave) Secret() [32]byte { return e.secret }

// MACKey exposes the log-authentication key to in-enclave code only.
func (e *Enclave) MACKey() [32]byte { return e.macKey }

// Alloc charges n bytes against the EPC accounting. Going beyond EPCBytes
// is allowed — SGX pages, it does not fail — but every access then pays the
// paging penalty via AccessCost. A hard cap of 4x EPC models the point
// where the SGX driver refuses further commitment.
func (e *Enclave) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative alloc %d", n)
	}
	if e.epcUsed.Load()+int64(n) > 4*int64(e.model.EPCBytes) {
		return ErrOutOfEPC
	}
	e.epcUsed.Add(int64(n))
	return nil
}

// Free returns n bytes to the EPC accounting.
func (e *Enclave) Free(n int) {
	if v := e.epcUsed.Add(-int64(n)); v < 0 {
		e.epcUsed.Store(0)
	}
}

// SetMemoryUsed sets the runtime allocation to exactly n bytes (plus the
// binary). The filter calls this after rebuilding its lookup table, whose
// size it knows precisely.
func (e *Enclave) SetMemoryUsed(n int) {
	e.epcUsed.Store(int64(e.identity.BinarySize) + int64(n))
}

// MemoryUsed returns the current EPC consumption in bytes.
func (e *Enclave) MemoryUsed() int { return int(e.epcUsed.Load()) }

// MeterSnapshot is one consistent-enough read of the enclave's live
// meters, for telemetry exporters that publish several of them per scrape
// without four separate accessor calls at every site. Each field is an
// independent atomic load, like any monitoring counter.
type MeterSnapshot struct {
	// VirtualNs is the accumulated modeled SGX time in nanoseconds.
	VirtualNs float64
	// Ticks counts data-path packets the enclave clocked.
	Ticks uint64
	// MemoryUsed and EPCBudget are the live working set and its usable
	// EPC cap, in bytes.
	MemoryUsed, EPCBudget int
	// PagingPressure is the working-set fraction beyond the budget.
	PagingPressure float64
}

// Meter snapshots the enclave's live meters. Safe from any goroutine.
func (e *Enclave) Meter() MeterSnapshot {
	return MeterSnapshot{
		VirtualNs:      e.VirtualNs(),
		Ticks:          e.Ticks(),
		MemoryUsed:     e.MemoryUsed(),
		EPCBudget:      e.EPCBudget(),
		PagingPressure: e.PagingPressure(),
	}
}

// SetEPCBudget caps this enclave's usable EPC at n bytes — the tenant's
// apportioned share of the shared platform EPC in a multi-victim
// deployment (enclave.EPCBudgeter computes the shares). n <= 0 removes
// the cap (the whole EPC). The cap changes only the *cost* of accesses (a
// working set beyond the budget pays paging), never a verdict: it is pure
// performance modeling, so the filter's statelessness is untouched.
func (e *Enclave) SetEPCBudget(n int) {
	if n < 0 {
		n = 0
	}
	e.epcBudget.Store(int64(n))
}

// EPCBudget returns the effective usable EPC in bytes: the apportioned
// budget when one is set, otherwise the platform's full EPCBytes.
func (e *Enclave) EPCBudget() int {
	if b := e.epcBudget.Load(); b > 0 && b < int64(e.model.EPCBytes) {
		return int(b)
	}
	return e.model.EPCBytes
}

// PagingPressure returns the fraction of this enclave's working set that
// cannot be EPC-resident under its budget — 0 when everything fits, and
// the accesses' expected paging exposure otherwise. Safe from any
// goroutine (both inputs are atomics).
func (e *Enclave) PagingPressure() float64 {
	return e.model.PagedFraction(e.MemoryUsed(), e.EPCBudget())
}

// EPCExceeded reports whether the working set has outgrown the usable EPC
// (the regime where Figure 3a's throughput collapse steepens). Under an
// apportioned budget the cliff arrives at the budget, not the platform
// total.
func (e *Enclave) EPCExceeded() bool {
	return e.epcUsed.Load() > int64(e.EPCBudget())
}

const nsFixedPoint = 16 // virtual-time resolution: 1/16 ns

// charge adds virtual nanoseconds to the meter.
func (e *Enclave) charge(ns float64) {
	if ns <= 0 {
		return
	}
	e.virtualNs.Add(uint64(ns*nsFixedPoint + 0.5))
}

// VirtualNs returns accumulated virtual time in nanoseconds.
func (e *Enclave) VirtualNs() float64 {
	return float64(e.virtualNs.Load()) / nsFixedPoint
}

// ResetMeter zeroes the virtual-time meter (between experiment runs).
func (e *Enclave) ResetMeter() { e.virtualNs.Store(0) }

// Tick advances the in-enclave monotonic clock. The data plane ticks it per
// packet; the *filter logic never reads it* — that is the arrival-time
// independence property of §III-A, and the test suite asserts decisions are
// invariant under clock manipulation.
func (e *Enclave) Tick() { e.ticks.Add(1) }

// TickN advances the clock by a whole burst at once (the batch data path's
// amortized equivalent of per-packet Tick).
func (e *Enclave) TickN(n uint64) { e.ticks.Add(n) }

// Ticks returns the clock, for control-plane bookkeeping only.
func (e *Enclave) Ticks() uint64 { return e.ticks.Load() }

// ChargeECall charges one host→enclave transition.
func (e *Enclave) ChargeECall() { e.charge(e.model.ECallNs) }

// ChargeOCall charges one enclave→host transition.
func (e *Enclave) ChargeOCall() { e.charge(e.model.OCallNs) }

// ChargeCopyIn charges copying n bytes across the boundary.
func (e *Enclave) ChargeCopyIn(n int) { e.charge(e.model.CopyInCost(n)) }

// ChargeFullCopy charges a wholesale packet copy into the enclave.
func (e *Enclave) ChargeFullCopy(n int) { e.charge(e.model.FullCopyCost(n)) }

// ChargeAccesses charges k memory references into the current working set
// (priced under the enclave's EPC budget, if one is apportioned).
func (e *Enclave) ChargeAccesses(k int) {
	e.charge(float64(k) * e.model.AccessCostBudgeted(e.MemoryUsed(), e.EPCBudget()))
}

// ChargeSHA256 charges hashing n bytes inside the enclave.
func (e *Enclave) ChargeSHA256(n int) { e.charge(e.model.SHA256Cost(n)) }

// ChargeSketchUpdate charges r count-min row updates.
func (e *Enclave) ChargeSketchUpdate(r int) {
	e.charge(float64(r) * e.model.SketchUpdateNs)
}

// ChargeExactMatch charges one exact-match table probe.
func (e *Enclave) ChargeExactMatch() { e.charge(e.model.ExactMatchNs) }

// ChargeFixed charges the fixed per-packet enclave data-path cost.
func (e *Enclave) ChargeFixed() { e.charge(e.model.SGXFixedNs) }

// ChargeNative charges raw model-computed nanoseconds. The no-SGX baseline
// filter uses it so that all variants share one meter.
func (e *Enclave) ChargeNative(ns float64) { e.charge(ns) }
