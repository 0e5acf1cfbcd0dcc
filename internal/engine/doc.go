// Package engine is VIF's concurrent data-plane runtime: the scalable
// architecture of §IV-B (Figure 4) executing for real instead of being
// modeled analytically. N enclaved filter shards each run on their own
// worker goroutine, fed by a bounded multi-producer/single-consumer ring
// (package pipeline's MPSCRing) that any number of RX threads may enqueue
// into concurrently. Workers drain their ring in bursts (default 64
// packets), run the stateless filter verdict plus the count-min-sketch
// log updates for each packet, and maintain an atomic metrics block that
// the control plane reads without synchronizing with the hot path.
//
// # Multi-victim namespaces
//
// One engine serves many victims at once — the paper's actual deployment
// model, where a transit AS or IXP filters for N downstream victims with
// heterogeneous rule sets. Each victim is a *namespace*: a set of filters
// (one per shard), a routing programme, independent epoch/audit cadence,
// and an apportioned share of the machines' EPC (enclave.EPCBudgeter,
// rebalanced on every attach/detach/reconfigure). packet.Descriptor
// carries the namespace id, stamped at ingress (e.g. lb.VictimMap); each
// shard worker holds a flat copy-on-write view slice indexed by namespace
// id and dispatches per-burst runs with zero locks on the hot path.
// Namespace 0 is the default, so single-victim callers never see any of
// this. Detached victims' final counters are retained as a bounded
// tombstone history (Tombstones) so long-lived shared engines stay
// auditable after tenants leave.
//
// # Control actions at batch boundaries
//
// Everything the control plane asks of a running worker is delivered as a
// ticket the worker serves between two bursts, so the data plane never
// stalls for the control plane and no filter is ever touched by two
// goroutines:
//
//   - RotateEpoch seals a namespace's sketch logs (authenticated, via the
//     enclave MAC key) so merged per-epoch snapshots form a consistent
//     audit window; rotations of different namespaces run concurrently.
//   - ReconfigureNamespaceDelta applies an incremental rule changeset
//     (filter.ReconfigureDelta, a classifier patch underneath) on the
//     worker goroutine — the live rule-update path that must not stall
//     the enclave data path (§IV). ReconfigureNamespace remains the
//     full-rebuild fallback and oracle.
//   - Attach/Detach/Reconfigure swap copy-on-write view tables with
//     single atomic stores and use a fence ticket to prove quiescence
//     before old filters are released.
//
// # Idle strategy
//
// A worker that finds its ring empty climbs one ladder: a bounded
// busy-poll (about a microsecond), a few runtime.Gosched yields, then it
// parks in a select on its wake, ticket and stop channels, so an engine
// below saturation costs the CPU its packets cost and an idle one none.
// Producers read the shard's parked flag after every publish and send the
// wake token when it is set; the worker stores parked before re-reading
// the ring's length, so one side always sees the other and no wake-up is
// lost (shard.unpark). parked and the park counters have a cache line to
// themselves, written only on park/unpark edges. The ladder's bounds are
// constants: a spin longer than the gap between bursts never parks.
// WaitDrained polls down the same ladder, sleeping on its last rung.
//
// # Concurrency contract
//
//   - Inject/InjectBatch: any number of producer goroutines, any time;
//     they refuse once Stop begins. InjectBatch's count is accounting,
//     NOT a resumable prefix — unaccepted descriptors are dropped
//     NIC-style (see its comment).
//   - Attached filters are owned exclusively by the engine between Start
//     and Stop; no other goroutine may call filter data-path methods in
//     that window. Filter monitoring methods stay safe throughout.
//   - Control methods (Attach/Detach/Reconfigure*/RotateEpoch) may be
//     called from any goroutine; nsMu serializes namespace-table
//     mutation, lifeMu orders them against Start/Stop, per-namespace
//     mutexes order rotations against detach.
//   - Metrics/Tombstones/EPCShares are safe from any goroutine and never
//     contend with workers.
//
// # Invariants
//
//   - accepted == processed once WaitDrained returns: every descriptor
//     counted as accepted is filtered exactly once, by exactly one
//     namespace's filter, or counted (orphaned / nsDrops) — never
//     misattributed to another victim.
//   - Every packet is logged in exactly one epoch per (namespace, shard).
//   - EPC shares of attached namespaces always sum to the machine EPC.
package engine
