// Package filter implements VIF's auditable in-enclave traffic filter —
// the paper's core contribution (§III).
//
// The decision function is stateless in the sense of Eq. 2: the verdict
// for a packet depends only on the packet's five-tuple, the installed rule
// set, and the enclave's sealed secret — never on arrival time, packet
// order, or any previous packet. That property (asserted by this package's
// tests) is what makes the filter auditable: the untrusted host controls
// packet timing and can inject traffic, but cannot steer decisions.
//
// Probabilistic rules ("drop 50% of HTTP flows") are executed
// connection-preservingly via hash-based filtering (Appendix A): a flow is
// allowed iff the leading 64 bits of SHA-256(fiveTuple ‖ secret) fall
// under PAllow·2^64, so all packets of a flow share one fate, the host
// cannot predict or bias fates without the secret, and the empirical allow
// rate converges to PAllow. The hybrid design (Appendix F) additionally
// promotes newly observed flows to exact-match entries in batches, trading
// per-packet hashing for lookup-table growth.
//
// # Data path
//
// The data path is batch-first: ProcessBatch decides a whole burst against
// an immutable rule-table snapshot, deduplicates the burst's flows so a
// packet train costs one decision, accumulates sketch updates and per-rule
// byte counts per batch, and charges the enclave cost meter once per
// burst. Process is the one-packet special case of the same path.
//
// Rule installation has two speeds, both publishing with ONE atomic
// view-pointer store so readers never see a torn table:
//
//   - Reconfigure compiles the classifier from scratch under dense
//     priorities 0..n-1 (the oracle path; resets learned state and
//     counters);
//   - ReconfigureDelta applies an incremental changeset via
//     classify.Program.Delta — survivors keep their priorities, adds are
//     numbered after every priority the lineage has used, untouched
//     attribute tables are shared by reference — so live mid-attack rule
//     updates cost the delta, not the rule count. Surviving rules keep
//     their byte counters; learned exact-match entries survive adds-only
//     deltas.
//
// The compiled classifier is the one lookup structure a rule set has: it
// is what packets probe, what RuleMemoryBytes weighs, and what the EPC
// meter charges. ProcessBatch is ClassifyBurst → ApplyBurst → ChargeBurst
// (burst.go) and times nothing; stage timing belongs to the engine's
// module chain.
//
// # Concurrency contract
//
//   - Data-path methods (Process, ProcessBatch, Decision, Promote) and
//     the reconfiguration methods (Reconfigure, ReconfigureDelta,
//     ResetLogs, Snapshot) must all run on the single filter thread: the
//     owner is the control plane in serial mode, or the shard worker in
//     engine mode (which executes reconfigure deltas as batch-boundary
//     tickets precisely to honor this).
//   - Monitoring methods (Stats, ExactEntries, PendingFlows, HashRatio,
//     RuleCount, RuleMemoryBytes) are safe from any goroutine while the
//     data plane runs: counters live in an atomic block the data path
//     updates once per burst, and the rule view is one atomic load.
//
// # Invariants
//
//   - Statelessness (Eq. 2): calling Decision any number of times, in any
//     order, yields identical verdicts; promotion is a pure performance
//     optimization and cannot change any decision.
//   - View atomicity: set, foreign set, compiled classifier, priority
//     map and priority counter travel in one ruleView value; no reader
//     can pair a rule set with the wrong lookup table.
//   - Priority allocation: priorities are strictly increasing in
//     installed order and never reused within a lineage; the domain is
//     bounded by densifyFactor x the live rules.
//   - Delta equivalence: after ReconfigureDelta the filter is verdict-
//     equivalent to a filter fully Reconfigured with the successor set
//     (survivors in order + adds appended), with identical
//     RuleMemoryBytes.
package filter
