package vif

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/innetworkfiltering/vif/internal/attest"
	"github.com/innetworkfiltering/vif/internal/bgp"
	"github.com/innetworkfiltering/vif/internal/bypass"
	"github.com/innetworkfiltering/vif/internal/cluster"
	"github.com/innetworkfiltering/vif/internal/faults"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/secure"
)

// Session is one victim's filtering contract with a Deployment: an
// attested fleet of enclaves running the victim's rules, plus the victim-
// side state needed to verify the contract is honored (the paper's §VI-B
// workflow: authorize → attest → secure channel → submit rules → filter →
// audit logs).
type Session struct {
	victim     bgp.ASN
	deployment *Deployment
	cluster    *cluster.Cluster

	// macKeys holds each attested enclave's log-authentication key,
	// received over the attested channels.
	macKeys map[uint64][32]byte

	verifier *bypass.VictimVerifier
	seq      uint64

	// engine, when non-nil and running, owns the fleet's data plane (see
	// engine.go); the serial methods refuse until it stops.
	engine *Engine

	// attached is set while the session is attached to the deployment's
	// shared multi-victim engine as a rule namespace (StartEngine with
	// Deployment.SharedEngine up). One atomic pointer, swapped whole, so
	// a producer in InjectBatch can never observe the engine of one
	// attachment paired with the namespace id of another while StopEngine
	// detaches concurrently.
	attached atomic.Pointer[attachment]

	// faults is the deterministic fault-injection harness for chaos
	// testing (SetFaultInjector); nil in production. The session consults
	// it on the audit path only — engine-level points ride in through
	// engine.Config.Faults.
	faults *faults.Injector
}

// SetFaultInjector threads the chaos harness through the session's audit
// path (the AuditFailure point). Call before driving traffic; nil (the
// default) disables injection.
func (s *Session) SetFaultInjector(in *faults.Injector) { s.faults = in }

// attachment binds the shared engine and the session's namespace id on it.
type attachment struct {
	eng *Engine
	ns  int
}

// Tolerance is re-exported for callers tuning benign-loss budgets.
func (s *Session) SetLossTolerance(frac float64) { s.verifier.Tolerance = frac }

// RequestFiltering executes the full session-establishment workflow from
// the victim's perspective:
//
//  1. The deployment validates the request against RPKI (§VII: only the
//     prefix owner may have its traffic filtered).
//  2. The deployment spins up an enclave fleet sized for the rules.
//  3. The victim challenges every enclave with a fresh nonce; each quote
//     must chain to the pinned attestation-service root and carry the
//     expected measurement, and binds the enclave's ephemeral channel key.
//  4. Over each attested channel the enclave releases its log-MAC key.
//
// Any failure aborts the session: an unattested enclave is a filtering
// network lying about its filter code.
func RequestFiltering(victim ASN, d *Deployment, set *RuleSet) (*Session, error) {
	if err := d.authorize(victim, set); err != nil {
		return nil, err
	}
	c, err := d.startCluster(set)
	if err != nil {
		return nil, fmt.Errorf("vif: start fleet: %w", err)
	}
	s := &Session{
		victim:     victim,
		deployment: d,
		cluster:    c,
		verifier:   bypass.NewVictimVerifier(),
	}
	if err := s.attestFleet(); err != nil {
		return nil, err
	}
	return s, nil
}

// attestFleet performs step 3-4 for every current enclave. It is rerun
// after reconfigurations that changed the fleet.
func (s *Session) attestFleet() error {
	want := s.deployment.Identity().Measurement()
	root := s.deployment.ServiceRoot()
	s.macKeys = make(map[uint64][32]byte, s.cluster.Size())

	for _, f := range s.cluster.Filters() {
		var nonce [32]byte
		if _, err := rand.Read(nonce[:]); err != nil {
			return fmt.Errorf("vif: nonce: %w", err)
		}

		// Enclave side: ephemeral key share, bound into the quote.
		enclaveKey, err := secure.NewKeyPair()
		if err != nil {
			return err
		}
		rd := secure.BindingReportData(enclaveKey.PublicBytes())
		q, err := s.deployment.platform.GenerateQuote(f.Enclave(), nonce, rd)
		if err != nil {
			return fmt.Errorf("vif: quote enclave %d: %w", f.Enclave().ID(), err)
		}

		// Victim side: verify the chain, the measurement, and the binding.
		if err := attest.VerifyQuote(root, s.deployment.service, q, nonce, want); err != nil {
			return fmt.Errorf("vif: enclave %d failed attestation: %w", f.Enclave().ID(), err)
		}
		if !secure.VerifyBinding(q.ReportData, enclaveKey.PublicBytes()) {
			return fmt.Errorf("vif: enclave %d channel key not bound to quote", f.Enclave().ID())
		}
		victimKey, err := secure.NewKeyPair()
		if err != nil {
			return err
		}
		enclaveChan, err := secure.Establish(enclaveKey, victimKey.PublicBytes(), secure.RoleEnclave)
		if err != nil {
			return err
		}
		victimChan, err := secure.Establish(victimKey, enclaveKey.PublicBytes(), secure.RoleVictim)
		if err != nil {
			return err
		}

		// The enclave releases its log-MAC key through the sealed channel;
		// the untrusted host only ever relays ciphertext.
		mk := f.Enclave().MACKey()
		record := enclaveChan.Seal(mk[:])
		plain, err := victimChan.Open(record)
		if err != nil {
			return fmt.Errorf("vif: enclave %d key release: %w", f.Enclave().ID(), err)
		}
		var key [32]byte
		copy(key[:], plain)
		s.macKeys[f.Enclave().ID()] = key
	}
	return nil
}

// Process pushes one packet through the deployment's data plane and
// returns the verdict (what the filtering network forwards toward the
// victim). Experiment harnesses and examples drive traffic through this.
// An aborted session forwards nothing; while an engine owns the data
// plane (StartEngine), inject through the engine instead — Process then
// refuses by dropping, since the filters are worker-owned.
func (s *Session) Process(d Descriptor) Verdict {
	if s.Aborted() || s.EngineRunning() {
		return VerdictDrop
	}
	return s.cluster.Process(d)
}

// ObserveDelivered records a packet that actually arrived at the victim
// network (the victim's local log for bypass detection). In a deployment
// this is the victim's capture path; in simulations the caller invokes it
// for packets that survive the downstream path.
func (s *Session) ObserveDelivered(t FiveTuple) {
	s.verifier.Observe(t)
}

// AuditOutgoing fetches authenticated outgoing logs from every enclave,
// merges them, and compares against the victim's local log — the §III-B
// bypass check. A non-Clean verdict is evidence of injection-after-filter
// or drop-after-filter misbehavior by the filtering network.
func (s *Session) AuditOutgoing() (bypass.Verdict, error) {
	if s.Aborted() {
		return bypass.Verdict{}, ErrAborted
	}
	if s.EngineRunning() {
		return bypass.Verdict{}, ErrEngineRunning
	}
	s.seq++
	snaps, _, err := s.deployment.snapshot(s.cluster, filter.LogOutgoing, s.seq)
	if err != nil {
		return bypass.Verdict{}, fmt.Errorf("vif: fetch logs: %w", err)
	}
	merged, err := bypass.MergeSnapshots(s.macKeys, snaps)
	if err != nil {
		return bypass.Verdict{}, err
	}
	return s.verifier.CheckSketch(merged)
}

// MisrouteReports returns the number of load-balancer misrouting events
// the enclaves detected and reported (§IV-B). Safe to call while the
// engine runs (the filters' counters are atomic blocks).
func (s *Session) MisrouteReports() uint64 {
	return s.cluster.TotalStats().Misrouted
}

// Stats exposes fleet-wide filtering counters. Safe to call while the
// engine runs: the workers publish counters once per burst through
// atomics, so live monitoring never races the data plane.
func (s *Session) Stats() filter.Stats { return s.cluster.TotalStats() }

// FleetSize returns the number of enclaves currently filtering.
func (s *Session) FleetSize() int { return s.cluster.Size() }

// Reconfigure runs one Figure 5 redistribution round from the fleet's
// measured per-rule traffic, then re-attests any newly spawned enclaves.
func (s *Session) Reconfigure() error {
	if s.Aborted() {
		return ErrAborted
	}
	if s.EngineRunning() {
		return ErrEngineRunning
	}
	measured := s.cluster.MeasuredBytes(true)
	if err := s.cluster.Reconfigure(measured); err != nil {
		return err
	}
	return s.attestFleet()
}

// ReconfigureDelta pushes an incremental rule-set change — "add these
// prefixes, drop those" — without rerunning the optimizer or spawning
// enclaves: each member filter patches its immutable compiled
// classifier (sharing untouched attribute tables, patching only the
// intervals the delta touches, with an amortized densify recompile
// bounding priority growth), removals are routed to every shard holding
// the rule, adds are placed greedily on the lightest member, and the
// balancer programme is rebuilt to cover the new set. Planning itself is
// O(rules) control-plane map/copy work (membership, foreign views,
// shares — no lookup-table work); what a full Reconfigure additionally
// pays and a delta skips is the optimizer, N classifier recompiles,
// learned-state loss, and — since the fleet never changes shape — the
// whole re-attestation round. That is what makes mid-attack rule updates
// a data-plane-speed operation (§IV: updates must not stall the enclave
// path).
//
// Unlike the serial-only Reconfigure, this works in BOTH modes: serially
// it applies directly to the fleet; in engine mode (private or attached
// to a shared engine) the per-shard deltas are executed by the shard
// workers at batch boundaries (Engine.ReconfigureNamespaceDelta) while
// every victim keeps filtering, and the refreshed balancer swaps in with
// the rules. Adds carrying ID 0 get fresh IDs assigned. On error the
// fleet may hold the delta on some shards only; Reconfigure (the
// full-rebuild oracle) is the repair.
func (s *Session) ReconfigureDelta(adds, removes []Rule) error {
	if s.Aborted() {
		return ErrAborted
	}
	eng, ns, _ := s.liveEngine()
	if eng == nil {
		return s.cluster.ApplyDelta(adds, removes)
	}
	plan, err := s.cluster.PlanDelta(adds, removes)
	if err != nil {
		return err
	}
	bal := plan.Balancer()
	if err := eng.ReconfigureNamespaceDelta(int(ns), plan.PerShard, bal.Route, bal.RouteBatch); err != nil {
		return fmt.Errorf("vif: delta reconfigure: %w", err)
	}
	s.cluster.CommitDelta(plan)
	return nil
}

// NewRound starts a fresh audit window on both sides (the paper suggests
// short rounds — a few minutes — so victims can abort quickly). In engine
// mode, AuditEngineEpoch's rotation plays this role; NewRound is a no-op
// while the engine owns the logs.
func (s *Session) NewRound() {
	if s.EngineRunning() {
		return
	}
	for _, f := range s.cluster.Filters() {
		f.ResetLogs()
	}
	s.verifier.Reset()
}

// Abort tears down the session (the victim's remedy once misbehavior is
// detected: §VII "any one of them can abort the temporary contract"). A
// running engine is stopped first so no worker touches a dead fleet.
func (s *Session) Abort() {
	s.StopEngine()
	s.cluster = nil
	s.macKeys = nil
}

// Aborted reports whether the session has been torn down.
func (s *Session) Aborted() bool { return s.cluster == nil }

// ErrAborted is returned when using a torn-down session.
var ErrAborted = errors.New("vif: session aborted")
