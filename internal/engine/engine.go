package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/faults"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/pipeline"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// Defaults.
const (
	// DefaultRingSize is each shard's ingress ring capacity.
	DefaultRingSize = 4096
	// DefaultBatch is the worker burst size (the engine's dequeue batching,
	// double the classic 32-packet DPDK burst because the worker amortizes
	// a rotation poll per burst).
	DefaultBatch = 64
	// idleSpins and idleYields bound the idle ladder's first two rungs
	// (idleBackoff), in empty polls. Constants, not settings: a spin longer
	// than the gap between bursts (10.7 µs at 6 Mpps) never parks, so it
	// stays near 1 µs whatever the load.
	idleSpins  = 64
	idleYields = 4
	// drainPoll is WaitDrained's last rung: its sleep between polls.
	drainPoll = 50 * time.Microsecond
	// MaxNamespaces bounds attached victim namespaces (Descriptor.NS is a
	// uint16).
	MaxNamespaces = 1 << 16
	// DefaultTombstoneLimit is how many detached namespaces' final
	// counters a long-lived shared engine retains for operators.
	DefaultTombstoneLimit = 64
)

// Errors.
var (
	ErrNotRunning       = errors.New("engine: not running")
	ErrRunning          = errors.New("engine: already running")
	ErrNoShards         = errors.New("engine: no filter shards")
	ErrUnknownNamespace = errors.New("engine: unknown namespace")
	ErrShardMismatch    = errors.New("engine: namespace needs one filter per shard")
)

// Sink observes packets the filter allowed, called on the shard's worker
// goroutine (keep it cheap; nil discards). The descriptor carries the
// namespace id of the victim it was filtered for.
type Sink func(shard int, d packet.Descriptor)

// Config assembles an Engine.
type Config struct {
	// Filters, when set, become the default namespace (id 0): one enclave
	// shard per filter, with Route/RouteBatch/Sink as its programme. The
	// engine owns attached filters exclusively between Start and Stop (and
	// between attach and detach while running): no other goroutine may call
	// filter methods during that window.
	Filters []*filter.Filter
	// Shards fixes the shard count for an engine assembled empty (no
	// Filters) so victim namespaces can be attached later — the shared
	// multi-victim deployment shape. Ignored when Filters is set (the shard
	// count is then len(Filters)).
	Shards int
	// Route maps a flow to its shard index for the default namespace,
	// returning ok=false when the (untrusted, possibly faulty) balancer
	// drops the packet. Typically lb.Balancer.Route. Nil falls back to
	// five-tuple hashing.
	Route func(packet.FiveTuple) (int, bool)
	// RouteBatch, when set, routes a whole burst of the default namespace
	// in one call (typically lb.Balancer.RouteBatch), writing each
	// descriptor's shard index to shards[i] (-1 when the balancer drops
	// it). InjectBatch prefers it over per-packet Route calls so the
	// balancer can amortize its per-packet costs (the faulty paths' lock,
	// the call overhead) across the burst. Nil falls back to looping Route.
	RouteBatch func(ds []packet.Descriptor, shards []int32)
	// RingSize is each shard's ingress ring capacity. Default
	// DefaultRingSize.
	RingSize int
	// Batch is the worker burst size. Default DefaultBatch.
	Batch int
	// Sink observes allowed packets of every namespace. Nil discards.
	// Namespaces may additionally attach their own sink.
	Sink Sink
	// EPCBytes is each shard machine's usable EPC, apportioned across
	// attached namespaces by rule-set memory weight (enclave.EPCBudgeter).
	// 0 defaults to the first attached filter's platform model.
	EPCBytes int
	// TombstoneLimit bounds the retained history of detached namespaces'
	// final counters (Engine.Tombstones): the newest TombstoneLimit
	// detaches are kept, older ones fall off. 0 defaults to
	// DefaultTombstoneLimit; negative disables retention.
	TombstoneLimit int
	// Telemetry, when set, threads the observability layer through the
	// engine: sampled per-shard stage histograms, journal events for every
	// control action, 1-in-N packet traces, and the engine's metric
	// families registered for /metrics. It must be sized for this engine
	// (telemetry.New with Shards equal to the shard count). Nil disables
	// all instrumentation; the hot path then carries only nil checks.
	Telemetry *telemetry.Telemetry
	// Admission, when set, gates every namespace's ingress behind a
	// weighted token bucket (see AdmissionConfig) so one victim's
	// volumetric flood throttles itself instead of starving its
	// neighbors' ring and EPC shares. Nil disables admission.
	Admission *AdmissionConfig
	// Faults threads the deterministic fault-injection harness through
	// the engine's hooks (ring-full storms, paging spikes, delta-apply
	// failures, module faults). Nil — the production default — disables
	// every hook at the cost of one nil check each.
	Faults *faults.Injector
	// Modules, when set, appends extra burst modules to the default
	// namespace's per-shard chains, after the core stages (so they see
	// verdicts). Called once per shard at attach; instances must not be
	// shared across shards (chains are worker-owned). The capture tap
	// rides here.
	Modules func(shard int) []module.Module
}

func (c *Config) fillDefaults() {
	if c.RingSize == 0 {
		c.RingSize = DefaultRingSize
	}
	if c.Batch == 0 {
		c.Batch = DefaultBatch
	}
}

// NamespaceConfig attaches one victim's rule namespace to a running (or
// not-yet-started) engine.
type NamespaceConfig struct {
	// Filters holds the victim's enclave filters, one per engine shard
	// (len must equal Engine.Shards()). The engine owns them exclusively
	// while the namespace is attached and the engine runs.
	Filters []*filter.Filter
	// Route maps a flow to its shard index (the victim's balancer
	// programme). Nil falls back to five-tuple hashing.
	Route func(packet.FiveTuple) (int, bool)
	// RouteBatch routes a whole burst at once; nil falls back to Route.
	RouteBatch func(ds []packet.Descriptor, shards []int32)
	// Sink observes this namespace's allowed packets (in addition to the
	// engine-wide Config.Sink). Nil discards.
	Sink Sink
	// Weight is the namespace's admission weight when Config.Admission
	// sets an engine-wide TotalPps budget: admitted rates are apportioned
	// weight/Σweights across attached namespaces. <= 0 defaults to 1.
	// Ignored without Config.Admission.
	Weight int
	// AdmitPps, when > 0, caps this namespace's admitted packet rate
	// explicitly, overriding any weighted share — the knob an operator
	// turns on an attacked victim. Ignored without Config.Admission.
	AdmitPps float64
	// Modules appends extra burst modules to this namespace's per-shard
	// chains, after the core stages. Called once per shard at attach (and
	// again on a full ReconfigureNamespace); instances must not be shared
	// across shards.
	Modules func(shard int) []module.Module
}

// rotateTicket asks one worker to act at its next batch boundary: seal the
// ticket's namespace epoch; run an apply closure (a rule-set delta — on
// the worker goroutine, so the filter's single-thread discipline holds
// without parking the data plane); or — for a fence — just acknowledge,
// proving the worker has moved past any burst dispatched under a previous
// view.
type rotateTicket struct {
	ns    *nsShard
	nsID  int
	seq   uint64
	fence bool
	apply func() error
	reply chan shardEpoch
}

type shardEpoch struct {
	log EpochLog
	err error
}

// EpochLog is one (namespace, shard) sealed audit window: authenticated
// snapshots of both packet logs covering exactly the packets the shard
// processed for that victim while the epoch was current.
type EpochLog struct {
	// Namespace is the victim namespace id.
	Namespace int
	// Shard is the shard index.
	Shard int
	// Seq is the epoch sequence number (monotonic per namespace).
	Seq uint64
	// Incoming is the per-source-IP log snapshot (drop-before-filter
	// evidence for neighbors).
	Incoming *filter.SignedSnapshot
	// Outgoing is the per-five-tuple log snapshot (injection/drop-after-
	// filter evidence for the victim).
	Outgoing *filter.SignedSnapshot
}

// nsShard is one (namespace, shard) cell: the victim's filter on that
// shard plus the per-cell counters the worker publishes. The worker-
// written counters share the cell with nothing producer-written, so the
// per-burst updates stay on lines only the owning worker dirties.
type nsShard struct {
	f *filter.Filter
	// chain is the cell's burst-module pipeline (the classify/sketch/
	// charge stages plus any configured extras). Immutable once the cell
	// is published; swapped
	// with the copy-on-write views exactly like the filter, so a worker
	// burst always runs one consistent (filter, chain) pair.
	chain *module.Chain
	// sink is the namespace's allowed-packet observer (nil discards),
	// copied here so the worker needs no second table lookup.
	sink Sink

	// baseVirtualNs is the enclave meter reading when the engine took
	// ownership (float64 bits), so NsPerPacket reflects only work done
	// under this engine. Atomic: metrics may be polled concurrently.
	baseVirtualNs atomic.Uint64

	_         [64]byte
	processed atomic.Uint64
	allowed   atomic.Uint64
	dropped   atomic.Uint64
	epochs    atomic.Uint64
	promoted  atomic.Uint64
	_         [24]byte
}

// namespace is one victim's attachment: filters (one per shard), routing
// programme, and independent epoch state.
type namespace struct {
	id         int
	route      func(packet.FiveTuple) (int, bool)
	routeBatch func(ds []packet.Descriptor, shards []int32)
	sink       Sink
	shards     []*nsShard // indexed by shard id
	// adm is the victim's ingress admission gate (nil without
	// Config.Admission). Like the nsShard cells it survives routing
	// swaps: successor namespace objects carry the same pointer.
	adm *admission

	mu       sync.Mutex // serializes this namespace's rotations vs its detach
	epoch    uint64     // last sealed epoch seq, under mu
	detached bool       // set under mu once DetachNamespace wins
}

// shard is one worker: an MPSC ring drained into per-namespace filters.
// An idle worker parks on wake (see loop); the parked flag producers read
// after every publish has the struct's last cache line to itself.
type shard struct {
	id   int
	ring *pipeline.MPSCRing

	// views is the flat copy-on-write namespace table, indexed by
	// namespace id (nil holes for detached ids). The worker loads it once
	// per burst; attach/detach swap it with one atomic store.
	views atomic.Pointer[[]*nsShard]

	rotate chan *rotateTicket
	done   chan struct{}
	// wake carries the unpark token: one slot, sent without blocking, so a
	// stale token is a spurious wake-up at worst.
	wake chan struct{}

	// verdicts is the pooled verdict slice the worker hands the chain
	// every burst (allocated once, reused for the shard's lifetime).
	verdicts []filter.Verdict

	// bctx is the worker's burst-module scratch arena, reset per
	// namespace run and handed to the cell's chain.
	bctx module.BurstCtx

	// claimed is the worker-owned scratch holding packet traces claimed
	// from the tracer for the current burst (normally empty; tracing is
	// 1-in-N inject batches).
	claimed []claimedTrace

	// Panic-supervision scratch, touched only by the owning worker (its
	// loop and the recover in the same goroutine): how much of the burst
	// in flight has been attributed to verdict counters, and which ticket
	// is being served, so a panicked burst is folded into processed/
	// faulted and an in-flight control caller gets an error instead of a
	// hang.
	inflight  int
	accounted int
	curTicket *rotateTicket

	// Atomic metrics block. The worker-owned counters and the producer-
	// written backpressure counter live on separate cache lines: producers
	// hammering backpressure on a full ring must not invalidate the line
	// the worker updates once per burst (the false sharing that made
	// adding shards slow the whole fleet down).
	_         [64]byte
	processed atomic.Uint64 // worker-written line
	allowed   atomic.Uint64
	dropped   atomic.Uint64
	epochs    atomic.Uint64
	batches   atomic.Uint64
	promoted  atomic.Uint64
	orphaned  atomic.Uint64 // packets whose namespace detached while they sat in the ring
	faulted   atomic.Uint64 // packets lost to a worker panic mid-burst (counted processed, no verdict)
	restarts  atomic.Uint64 // worker panic recoveries
	_         [56]byte
	// backpressure is written by any producer whose enqueue hit a full
	// ring — the only cross-thread counter in the block.
	backpressure atomic.Uint64
	// bpActive edge-detects backpressure onset for the journal: the first
	// producer to hit the full ring CASes it true (and emits one event);
	// the worker clears it when the ring drains. It shares the producer-
	// written line deliberately — producers only touch it on the enqueue-
	// failure slow path.
	bpActive atomic.Bool
	_        [55]byte
	// The park line: producers load parked after every publish, so all of
	// it is written on park/unpark edges only (by the worker, and by the one
	// producer whose CAS wins the wake).
	parked   atomic.Bool
	parks    atomic.Uint64 // times the worker blocked
	wakes    atomic.Uint64 // tokens producers sent
	parkedNs atomic.Uint64 // time spent blocked
	_        [32]byte
}

// claimedTrace is one pending packet trace a worker claimed out of the
// current burst, remembered until the burst's verdicts are known.
type claimedTrace struct {
	idx int
	p   *telemetry.Pending
}

// Engine runs the sharded multi-victim data plane.
type Engine struct {
	cfg    Config
	shards []*shard

	// nss is the engine-level copy-on-write namespace table (indexed by
	// namespace id, nil holes), consulted by the injection paths for
	// routing. Swapped wholesale under nsMu.
	nss atomic.Pointer[[]*namespace]

	// budget apportions each shard machine's EPC across attached
	// namespaces, weighted by rule-set memory. Created lazily at the
	// first attach (the EPC size may come from that filter's platform
	// model) and only ever written under nsMu; an atomic pointer because
	// the metrics paths read it without any lock.
	budget atomic.Pointer[enclave.EPCBudgeter]

	// scratch pools the per-producer scatter buffers InjectBatch stages
	// bursts in, so the hot path allocates nothing per call.
	scratch sync.Pool

	// accepted and lbDrops are each on their own cache line: every
	// producer updates accepted once per burst, and sharing its line with
	// anything else would put that write on every producer's critical path.
	_        [64]byte
	accepted atomic.Uint64 // descriptors successfully enqueued
	_        [56]byte
	lbDrops  atomic.Uint64 // descriptors a namespace's balancer discarded
	_        [56]byte
	nsDrops  atomic.Uint64 // descriptors stamped with an unattached namespace
	_        [56]byte

	// tombMu guards tombstones, the bounded history of detached
	// namespaces' final counters (oldest first). Its own mutex: readers
	// (Tombstones) must not contend with nsMu-holding control actions.
	tombMu     sync.Mutex
	tombstones []NamespaceTombstone

	// lifeMu orders the lifecycle against in-flight control actions:
	// Start/Stop take the write side; rotations and attach/detach fences
	// take the read side, so any number of victims rotate concurrently
	// while workers are guaranteed alive to serve their tickets.
	lifeMu sync.RWMutex
	// nsMu serializes namespace-table mutations (attach/detach/
	// reconfigure).
	nsMu sync.Mutex

	running  atomic.Bool
	stopping atomic.Bool // set at Stop entry: Inject refuses from here on
	stopped  bool
	stop     chan struct{}
	started  time.Time

	// tel is the observability layer (Config.Telemetry; nil disables).
	// tracer and traceMask are cached off it so the injection paths pay a
	// nil check, not two pointer chases, per burst.
	tel       *telemetry.Telemetry
	tracer    *telemetry.Tracer
	traceMask uint64
}

// injectScratch is one producer's staging area for a burst: the routing
// output and the per-shard descriptor runs the burst is scattered into
// before each run is flushed with a single ring reservation.
type injectScratch struct {
	shards []int32
	runs   [][]packet.Descriptor
	// traceCtr is this scratch's packet-trace sampling counter. It lives
	// in the pooled scratch — not on the engine — so sampling adds no
	// shared write to the injection path; each pooled scratch samples its
	// own 1-in-N of the bursts it stages.
	traceCtr uint64
}

// shard markers inside injectScratch.shards beyond valid indices.
const (
	shardLBDrop  int32 = -1 // balancer discarded the packet
	shardNSDrop  int32 = -2 // no such namespace attached
	shardAdmDrop int32 = -3 // admission throttled the packet at ingress
)

// New assembles an engine; call Start to launch the workers. When
// cfg.Filters is set they become namespace 0 (the single-victim shape);
// an empty engine (cfg.Shards > 0) starts with no namespaces and serves
// whatever AttachNamespace installs.
func New(cfg Config) (*Engine, error) {
	cfg.fillDefaults()
	n := len(cfg.Filters)
	if n == 0 {
		n = cfg.Shards
	}
	if n == 0 {
		return nil, ErrNoShards
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("engine: batch size %d", cfg.Batch)
	}
	e := &Engine{cfg: cfg, tel: cfg.Telemetry}
	if e.tel != nil {
		if e.tel.Shards() != n {
			return nil, fmt.Errorf("engine: telemetry sized for %d shards, engine has %d", e.tel.Shards(), n)
		}
		e.tracer = e.tel.Tracer()
		if mask, ok := e.tracer.SampleMask(); ok {
			e.traceMask = mask
		}
		e.registerCollector()
	}
	e.scratch.New = func() any {
		return &injectScratch{runs: make([][]packet.Descriptor, n)}
	}
	for i := 0; i < n; i++ {
		ring, err := pipeline.NewMPSCRing(cfg.RingSize)
		if err != nil {
			return nil, err
		}
		s := &shard{
			id:     i,
			ring:   ring,
			rotate: make(chan *rotateTicket, 1),
			done:   make(chan struct{}),
			wake:   make(chan struct{}, 1),
		}
		empty := make([]*nsShard, 0)
		s.views.Store(&empty)
		e.shards = append(e.shards, s)
	}
	emptyNS := make([]*namespace, 0)
	e.nss.Store(&emptyNS)
	if len(cfg.Filters) > 0 {
		if _, err := e.AttachNamespace(NamespaceConfig{
			Filters:    cfg.Filters,
			Route:      cfg.Route,
			RouteBatch: cfg.RouteBatch,
			Modules:    cfg.Modules,
		}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Telemetry returns the engine's observability layer (nil when disabled).
// Session/cluster layers emit their own events — audits, for one — through
// its journal.
func (e *Engine) Telemetry() *telemetry.Telemetry { return e.tel }

// emit journals one structured event; a no-op without telemetry.
func (e *Engine) emit(t telemetry.EventType, ns, shard int, detail string) {
	e.tel.Journal().Emit(telemetry.Event{Type: t, NS: ns, Shard: shard, Detail: detail})
}

// noteBackpressure edge-detects a shard ring filling up: the first
// producer refused by the full ring journals the onset; the worker clears
// the flag once the ring drains (emitting the matching off event). Called
// only on the enqueue-failure slow path.
func (e *Engine) noteBackpressure(s *shard) {
	if e.tel == nil {
		return
	}
	if s.bpActive.CompareAndSwap(false, true) {
		e.emit(telemetry.EvBackpressureOn, -1, s.id, "ring full")
		// Only an empty poll closes the episode, and a refusal that left
		// nothing in the ring (an injected storm, a producer stalled just
		// before this line) may find the worker parked.
		s.unpark()
	}
}

// unpark wakes the worker if it is parked; producers call it after every
// publish. The worker stores parked and then reads the ring's length, the
// producer claims its slots and then reads parked, and the atomics are
// sequentially consistent, so one sees the other: the worker does not
// block, or the producer sends the token. The CAS makes it one send
// however many producers race.
func (s *shard) unpark() {
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.wakes.Add(1)
		select {
		case s.wake <- struct{}{}:
		default: // a stale token is in the slot, and wakes the worker as well
		}
	}
}

// Filter returns shard i's default-namespace filter (nil when namespace 0
// is not attached). For attestation and post-Stop queries; do not call
// filter methods while the engine runs.
func (e *Engine) Filter(i int) *filter.Filter {
	ns := e.lookup(0)
	if ns == nil {
		return nil
	}
	return ns.shards[i].f
}

// NamespaceFilters returns a namespace's filters in shard order, or nil if
// it is not attached. Same ownership caveat as Filter.
func (e *Engine) NamespaceFilters(ns int) []*filter.Filter {
	n := e.lookup(ns)
	if n == nil {
		return nil
	}
	out := make([]*filter.Filter, len(n.shards))
	for i, t := range n.shards {
		out[i] = t.f
	}
	return out
}

// Namespaces returns the attached namespace ids in ascending order.
func (e *Engine) Namespaces() []int {
	nss := *e.nss.Load()
	out := make([]int, 0, len(nss))
	for id, ns := range nss {
		if ns != nil {
			out = append(out, id)
		}
	}
	return out
}

// lookup resolves a namespace id against the current table (nil if
// detached or never attached).
func (e *Engine) lookup(id int) *namespace {
	nss := *e.nss.Load()
	if id < 0 || id >= len(nss) {
		return nil
	}
	return nss[id]
}

// buildNamespace validates a NamespaceConfig and assembles the namespace
// object (routing defaults mirror the engine's historical single-victim
// behavior).
func (e *Engine) buildNamespace(id int, cfg NamespaceConfig) (*namespace, error) {
	n := len(e.shards)
	if len(cfg.Filters) != n {
		return nil, fmt.Errorf("%w: got %d filters for %d shards", ErrShardMismatch, len(cfg.Filters), n)
	}
	ns := &namespace{
		id:         id,
		route:      cfg.Route,
		routeBatch: cfg.RouteBatch,
		sink:       cfg.Sink,
		shards:     make([]*nsShard, n),
		adm:        newAdmission(e.cfg.Admission, cfg.Weight, cfg.AdmitPps),
	}
	for i, f := range cfg.Filters {
		if f == nil {
			return nil, fmt.Errorf("engine: namespace shard %d: nil filter", i)
		}
		t := &nsShard{f: f, sink: cfg.Sink}
		t.baseVirtualNs.Store(math.Float64bits(f.Enclave().VirtualNs()))
		// The cell's module chain: the core stages, then any configured
		// extras. Built per cell so chains swap with the copy-on-write
		// views.
		mods := []module.Module{&module.Classify{F: f}, &module.Sketch{F: f}, &module.Charge{F: f}}
		if cfg.Modules != nil {
			mods = append(mods, cfg.Modules(i)...)
		}
		t.chain = module.NewChain(e.cfg.Faults, mods...)
		ns.shards[i] = t
	}
	ns.finishRouting(n)
	return ns, nil
}

// finishRouting fills the namespace's routing defaults for an n-shard
// engine (shared by attach and the delta-reconfigure routing swap).
func (ns *namespace) finishRouting(n int) {
	if ns.route == nil {
		ns.route = func(t packet.FiveTuple) (int, bool) {
			return int(t.Hash64() % uint64(n)), true
		}
		if ns.routeBatch == nil {
			// Both hooks defaulted: the five-tuple hash route is pure, so a
			// run of consecutive packets of one flow (a packet train) is
			// routed once — a 16-byte compare instead of a hash per packet.
			// A user-supplied Route is NOT run-cached below: it may be
			// impure (fault injection drops per packet), so it is called
			// per packet.
			ns.routeBatch = func(ds []packet.Descriptor, shards []int32) {
				for i := range ds {
					if i > 0 && ds[i].Tuple == ds[i-1].Tuple {
						shards[i] = shards[i-1]
						continue
					}
					shards[i] = int32(ds[i].Tuple.Hash64() % uint64(n))
				}
			}
		}
	}
	if ns.routeBatch == nil {
		route := ns.route
		ns.routeBatch = func(ds []packet.Descriptor, shards []int32) {
			for i := range ds {
				j, ok := route(ds[i].Tuple)
				if !ok {
					shards[i] = shardLBDrop
					continue
				}
				shards[i] = int32(j)
			}
		}
	}
}

// AttachNamespace installs a victim namespace — one filter per shard plus
// its routing programme — and returns its namespace id (the value ingress
// stamps into Descriptor.NS). Safe while the engine runs: the shard
// workers observe the new copy-on-write view at their next burst, and the
// injection paths the moment the engine table is swapped. The machine EPC
// budget is re-apportioned across all attached namespaces, weighted by
// rule-set memory.
func (e *Engine) AttachNamespace(cfg NamespaceConfig) (int, error) {
	e.nsMu.Lock()
	defer e.nsMu.Unlock()
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()

	cur := *e.nss.Load()
	id := -1
	for i, ns := range cur {
		if ns == nil {
			id = i
			break
		}
	}
	if id < 0 {
		if len(cur) >= MaxNamespaces {
			return 0, fmt.Errorf("engine: namespace limit %d reached", MaxNamespaces)
		}
		id = len(cur)
	}
	ns, err := e.buildNamespace(id, cfg)
	if err != nil {
		return 0, err
	}

	// Publish to the workers first, then to the injection paths: no
	// descriptor can be routed to a namespace a worker cannot dispatch.
	for i, s := range e.shards {
		s.views.Store(cowSet(s.views.Load(), id, ns.shards[i]))
	}
	e.nss.Store(cowSet(&cur, id, ns))
	e.rebalanceEPC()
	e.rebalanceAdmission()
	e.emit(telemetry.EvAttach, id, -1, fmt.Sprintf("filters=%d", len(cfg.Filters)))
	return id, nil
}

// DetachNamespace removes a victim namespace, releases its EPC budget
// share back to the remaining tenants, and returns once no worker will
// touch its filters again (the caller may then reuse them on the serial
// path). The returned NamespaceMetrics is the victim's final, exact
// accounting — taken after the workers quiesced, so nothing can bump it
// afterwards. Descriptors of the namespace still in flight are dropped —
// never misattributed: in-ring packets count as shard "orphaned", and
// injections racing the detach count as engine nsDrops. Concurrent
// RotateEpoch calls on the same namespace either complete before the
// detach or fail with ErrUnknownNamespace.
func (e *Engine) DetachNamespace(id int) (NamespaceMetrics, error) {
	e.nsMu.Lock()
	defer e.nsMu.Unlock()
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()

	ns := e.lookup(id)
	if ns == nil {
		return NamespaceMetrics{}, ErrUnknownNamespace
	}
	// Win the race against in-flight rotations of this namespace: after
	// this flag flips under ns.mu, no new rotation sends tickets. The
	// table swap commits under the same critical section, so a rotation
	// that observes detached=true also observes the id gone from the
	// table — it can always tell this detach from a reconfigure (which
	// publishes a fresh object instead) and retries or errors correctly.
	// Injection unpublishes before the workers so no descriptor can be
	// routed to a namespace a worker cannot dispatch.
	ns.mu.Lock()
	ns.detached = true
	cur := *e.nss.Load()
	e.nss.Store(cowSet(&cur, id, (*namespace)(nil)))
	for _, s := range e.shards {
		s.views.Store(cowSet(s.views.Load(), id, (*nsShard)(nil)))
	}
	ns.mu.Unlock()
	e.fence()
	// Quiesced: fold the victim's final counters before anything about it
	// is released.
	final := NamespaceMetrics{NS: id}
	var virtual float64
	for _, t := range ns.shards {
		final.Processed += t.processed.Load()
		final.Allowed += t.allowed.Load()
		final.Dropped += t.dropped.Load()
		final.Epochs += t.epochs.Load()
		final.Promoted += t.promoted.Load()
		virtual += t.virtualDelta()
	}
	if final.Processed > 0 {
		final.NsPerPacket = virtual / float64(final.Processed)
	}
	if ns.adm != nil {
		final.Admitted = ns.adm.admitted.Load()
		final.Throttled = ns.adm.throttled.Load()
		final.AdmitRatePps = ns.adm.rate()
	}
	if budget := e.budget.Load(); budget != nil {
		final.EPCShareBytes = budget.Share(id)
	}
	// The filters leave the engine's ownership: lift their tenant EPC cap.
	for _, t := range ns.shards {
		t.f.Enclave().SetEPCBudget(0)
	}
	if budget := e.budget.Load(); budget != nil {
		budget.Remove(id)
	}
	e.rebalanceEPC()
	e.rebalanceAdmission()
	e.recordTombstone(final)
	e.emit(telemetry.EvDetach, id, -1, fmt.Sprintf(
		"processed=%d allowed=%d dropped=%d tombstoned", final.Processed, final.Allowed, final.Dropped))
	return final, nil
}

// recordTombstone appends a detached victim's final counters to the
// bounded history (oldest evicted first).
func (e *Engine) recordTombstone(final NamespaceMetrics) {
	limit := e.cfg.TombstoneLimit
	if limit == 0 {
		limit = DefaultTombstoneLimit
	}
	if limit < 0 {
		return
	}
	e.tombMu.Lock()
	defer e.tombMu.Unlock()
	if len(e.tombstones) >= limit {
		drop := len(e.tombstones) - limit + 1
		copy(e.tombstones, e.tombstones[drop:])
		e.tombstones = e.tombstones[:len(e.tombstones)-drop]
	}
	e.tombstones = append(e.tombstones, NamespaceTombstone{
		Final:      final,
		DetachedAt: time.Now(),
	})
}

// Tombstones returns the retained final counters of detached victim
// namespaces, oldest first — the audit trail that keeps a long-lived
// shared engine accountable after tenants leave. Each entry is exact: it
// is the NamespaceMetrics DetachNamespace returned, taken after the
// workers quiesced, so no later traffic can have touched it. Bounded by
// Config.TombstoneLimit; namespace ids recycle, so entries for one id can
// recur across tenancies. Safe from any goroutine.
func (e *Engine) Tombstones() []NamespaceTombstone {
	e.tombMu.Lock()
	defer e.tombMu.Unlock()
	return append([]NamespaceTombstone(nil), e.tombstones...)
}

// ReconfigureNamespace atomically replaces a namespace's filters and
// routing programme — the engine-level analogue of Filter.Reconfigure's
// view swap. Counters carry over; epoch state continues (the old filters'
// unsealed log contents are abandoned with them, so rotate first if the
// current window matters). Returns once no worker will touch the old
// filters again.
func (e *Engine) ReconfigureNamespace(id int, cfg NamespaceConfig) error {
	e.nsMu.Lock()
	defer e.nsMu.Unlock()
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()

	old := e.lookup(id)
	if old == nil {
		return ErrUnknownNamespace
	}
	ns, err := e.buildNamespace(id, cfg)
	if err != nil {
		return err
	}
	// Retire the old object and publish the new one in one ns.mu critical
	// section: a rotation racing this call either completes on the old
	// filters first (this lock waits for it; the new object then inherits
	// the advanced epoch), or sees detached=true together with the fresh
	// object already in the table and retries against it — it never
	// reports a still-attached namespace as unknown.
	old.mu.Lock()
	ns.epoch = old.epoch
	old.detached = true
	for i, s := range e.shards {
		s.views.Store(cowSet(s.views.Load(), id, ns.shards[i]))
	}
	cur := *e.nss.Load()
	e.nss.Store(cowSet(&cur, id, ns))
	old.mu.Unlock()
	e.fence()
	// Old cells are quiesced now; fold their final counters into the new
	// cells so per-victim totals survive the swap (atomic adds: workers
	// may already be bumping the new cells).
	for i, t := range ns.shards {
		o := old.shards[i]
		t.processed.Add(o.processed.Load())
		t.allowed.Add(o.allowed.Load())
		t.dropped.Add(o.dropped.Load())
		t.epochs.Add(o.epochs.Load())
		t.promoted.Add(o.promoted.Load())
		o.f.Enclave().SetEPCBudget(0)
	}
	if ns.adm != nil && old.adm != nil {
		// Per-victim SLO counters ride through a full reconfigure like the
		// verdict cells; the bucket itself starts fresh under the new
		// weight/cap.
		ns.adm.admitted.Add(old.adm.admitted.Load())
		ns.adm.throttled.Add(old.adm.throttled.Load())
	}
	e.rebalanceEPC()
	e.rebalanceAdmission()
	e.emit(telemetry.EvReconfigure, id, -1, "full rebuild")
	return nil
}

// ReconfigureNamespaceDelta applies an incremental rule-set change to a
// live namespace WITHOUT replacing its filters: each shard's filter.Delta
// is executed by that shard's worker goroutine at its next batch boundary
// (a rotate-channel apply ticket), so the filter's single-thread data-path
// discipline holds while every other namespace — and every other shard of
// this one — keeps filtering. This is the paper's live rule-update path
// (§IV: updates must not stall the enclave data path): a victim pushing
// "add these 50 prefixes, drop these 20" pays the delta's path copies,
// not a full table rebuild, and counters, epochs, and learned state ride
// through (see Filter.ReconfigureDelta for what survives).
//
// deltas must hold one entry per shard, in shard order — rule sets are
// distributed across shards, so each shard receives its own changeset
// (identical entries are fine when every shard holds the full set). When
// route/routeBatch are non-nil the namespace's routing programme is
// swapped after the deltas apply, so a rebuilt balancer programme
// covering the added rules takes over atomically for subsequent
// injections (in-flight bursts complete under the old programme, exactly
// as with ReconfigureNamespace). The EPC budget is rebalanced from the
// filters' changed rule-memory weights before returning.
//
// On error (an invalid delta refused by some shard's filter, or an
// injected fault) the namespace is REPAIRED AUTOMATICALLY: every shard is
// rolled back to its pre-delta rule view through the full-rebuild oracle
// path (Filter.Reconfigure on the worker goroutine), a delta_rollback
// event is journaled, and the error is returned. The rollback restores
// the rule sets exactly; learned exact-match state and pending
// promotions are sacrificed, as any full reconfigure does. The routing
// swap is skipped in that case.
func (e *Engine) ReconfigureNamespaceDelta(id int, deltas []filter.Delta, route func(packet.FiveTuple) (int, bool), routeBatch func(ds []packet.Descriptor, shards []int32)) error {
	e.nsMu.Lock()
	defer e.nsMu.Unlock()
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()

	ns := e.lookup(id)
	if ns == nil {
		return ErrUnknownNamespace
	}
	if len(deltas) != len(e.shards) {
		return fmt.Errorf("%w: got %d deltas for %d shards", ErrShardMismatch, len(deltas), len(e.shards))
	}

	// Capture every shard's pre-delta rule view first: on a partial
	// failure the rollback below restores exactly this, even on shards
	// whose filter state a failed apply corrupted.
	saved := make([]savedRules, len(e.shards))
	for i := range e.shards {
		f := ns.shards[i].f
		saved[i] = savedRules{set: f.Rules(), foreign: f.ForeignRules()}
	}

	var errs []error
	if e.running.Load() {
		tickets := make([]*rotateTicket, len(e.shards))
		for i, s := range e.shards {
			f, d := ns.shards[i].f, deltas[i]
			t := &rotateTicket{
				apply: func() error {
					if e.cfg.Faults.Should(faults.DeltaApply) {
						return fmt.Errorf("engine: delta apply: %w", faults.ErrInjected)
					}
					return f.ReconfigureDelta(d)
				},
				reply: make(chan shardEpoch, 1),
			}
			tickets[i] = t
			s.rotate <- t
		}
		for i, t := range tickets {
			if se := <-t.reply; se.err != nil {
				errs = append(errs, fmt.Errorf("engine: shard %d delta: %w", i, se.err))
			}
		}
	} else {
		// Workers are not running: the control plane owns the filters.
		for i := range e.shards {
			if e.cfg.Faults.Should(faults.DeltaApply) {
				errs = append(errs, fmt.Errorf("engine: shard %d delta: %w", i, faults.ErrInjected))
				continue
			}
			if err := ns.shards[i].f.ReconfigureDelta(deltas[i]); err != nil {
				errs = append(errs, fmt.Errorf("engine: shard %d delta: %w", i, err))
			}
		}
	}
	if len(errs) > 0 {
		// Partial failure: some shards applied, others refused (or were
		// left mid-apply). Roll every shard back to its captured pre-delta
		// view through the full-rebuild path, on the worker goroutines, so
		// the namespace is never left split-brained; then rebalance EPC
		// from the restored weights and surface the error (routing swap
		// skipped).
		rbErrs := e.rollbackDelta(ns, saved)
		e.rebalanceEPC()
		e.emit(telemetry.EvDeltaRollback, id, -1, fmt.Sprintf(
			"failed_shards=%d rollback_errs=%d", len(errs), len(rbErrs)))
		if len(rbErrs) > 0 {
			errs = append(errs, rbErrs...)
			return fmt.Errorf("engine: delta failed and rollback incomplete: %w", errors.Join(errs...))
		}
		return fmt.Errorf("engine: delta failed, namespace rolled back to pre-delta rules: %w", errors.Join(errs...))
	}

	if route != nil || routeBatch != nil {
		// Swap only the routing programme: a successor namespace object
		// sharing the same cells (filters, counters, admission gate),
		// published with the same retire-then-commit critical section
		// ReconfigureNamespace uses so concurrent rotations retry against
		// the successor. No fence and no counter folding — the workers'
		// views are unchanged.
		ns2 := &namespace{id: id, route: route, routeBatch: routeBatch, sink: ns.sink, shards: ns.shards, adm: ns.adm}
		ns2.finishRouting(len(e.shards))
		ns.mu.Lock()
		ns2.epoch = ns.epoch
		ns.detached = true
		cur := *e.nss.Load()
		e.nss.Store(cowSet(&cur, id, ns2))
		ns.mu.Unlock()
	}
	e.rebalanceEPC()
	if e.tel != nil {
		adds, removes := 0, 0
		for i := range deltas {
			adds += len(deltas[i].Adds)
			removes += len(deltas[i].Removes)
		}
		e.emit(telemetry.EvReconfigureDelta, id, -1, fmt.Sprintf(
			"adds=%d removes=%d routing_swap=%t", adds, removes, route != nil || routeBatch != nil))
	}
	return nil
}

// savedRules is one shard's captured pre-delta rule view — everything
// Filter.Reconfigure needs to restore it.
type savedRules struct {
	set, foreign *rules.Set
}

// rollbackDelta restores every shard of a namespace to its captured
// pre-delta view via the full-rebuild path, on the worker goroutines when
// they run (the same apply-ticket discipline as the delta itself), so a
// partial ReconfigureNamespaceDelta failure never leaves the namespace
// split-brained. Called under nsMu + lifeMu.RLock.
func (e *Engine) rollbackDelta(ns *namespace, saved []savedRules) []error {
	var errs []error
	if e.running.Load() {
		tickets := make([]*rotateTicket, len(e.shards))
		for i, s := range e.shards {
			f, sv := ns.shards[i].f, saved[i]
			t := &rotateTicket{
				apply: func() error { return f.Reconfigure(sv.set, sv.foreign) },
				reply: make(chan shardEpoch, 1),
			}
			tickets[i] = t
			s.rotate <- t
		}
		for i, t := range tickets {
			if se := <-t.reply; se.err != nil {
				errs = append(errs, fmt.Errorf("engine: shard %d rollback: %w", i, se.err))
			}
		}
		return errs
	}
	for i := range e.shards {
		if err := ns.shards[i].f.Reconfigure(saved[i].set, saved[i].foreign); err != nil {
			errs = append(errs, fmt.Errorf("engine: shard %d rollback: %w", i, err))
		}
	}
	return errs
}

// cowSet returns a copy of *p with index id set to v, growing as needed —
// the copy-on-write step behind every namespace table swap.
func cowSet[T any](p *[]T, id int, v T) *[]T {
	old := *p
	n := len(old)
	if id >= n {
		n = id + 1
	}
	next := make([]T, n)
	copy(next, old)
	next[id] = v
	return &next
}

// fence waits until every live worker has passed a batch boundary, which
// proves no burst dispatched under a previously published view is still
// in flight. No-op when the workers are not running (then nobody touches
// views at all — lifeMu excludes Stop's final sweep).
func (e *Engine) fence() {
	if !e.running.Load() {
		return
	}
	tickets := make([]*rotateTicket, len(e.shards))
	for i, s := range e.shards {
		t := &rotateTicket{fence: true, reply: make(chan shardEpoch, 1)}
		tickets[i] = t
		s.rotate <- t
	}
	for _, t := range tickets {
		<-t.reply
	}
}

// RebalanceEPC re-apportions the machine EPC across attached namespaces
// from their enclaves' OBSERVED working sets — the live demand signal
// behind PagingPressure — instead of the static rule-memory weights the
// attach-time split starts from. A victim whose learned flows, pending
// promotions, and packet logs outgrow its share pulls budget toward
// itself at the operator's (or audit cadence's) next call, which is what
// drives its paging pressure back down; a shrinking victim releases
// budget the same way. Safe to call from any goroutine at any time: it
// takes only the namespace-table lock, so it composes with a concurrent
// rotation or audit without ordering against the engine lifecycle.
func (e *Engine) RebalanceEPC() {
	e.nsMu.Lock()
	defer e.nsMu.Unlock()
	e.rebalanceEPC()
}

// rebalanceEPC recomputes every namespace's EPC share and pushes the
// allowance into each enclave, where the cost model prices accesses
// beyond it as paging. The weight is the namespace's observed demand:
// the sum of its enclaves' live working sets (enclave.MemoryUsed — rule
// tables plus learned flows plus the packet logs), which at attach time
// equals the rule-memory footprint and then tracks what the victim
// actually keeps resident. A PagingSpike fault inflates one victim's
// demand to chaos-test the reapportionment. Called under nsMu (the only
// budget writer).
func (e *Engine) rebalanceEPC() {
	nss := *e.nss.Load()
	budget := e.budget.Load()
	if budget == nil {
		epc := e.cfg.EPCBytes
		if epc == 0 {
			for _, ns := range nss {
				if ns != nil {
					epc = ns.shards[0].f.Enclave().Model().EPCBytes
					break
				}
			}
		}
		if epc == 0 {
			return
		}
		budget = enclave.NewEPCBudgeter(epc)
		e.budget.Store(budget)
	}
	for _, ns := range nss {
		if ns == nil {
			continue
		}
		w := 0
		for _, t := range ns.shards {
			w += t.f.Enclave().MemoryUsed()
		}
		if e.cfg.Faults.Should(faults.PagingSpike) {
			// Injected paging spike: this victim's working set "blew up"
			// eightfold; the apportionment must absorb it without
			// disturbing the shares-sum-to-EPC invariant.
			w *= 8
		}
		budget.Set(ns.id, w)
	}
	attached := 0
	for _, ns := range nss {
		if ns == nil {
			continue
		}
		attached++
		share := budget.Share(ns.id)
		for _, t := range ns.shards {
			t.f.Enclave().SetEPCBudget(share)
		}
	}
	e.emit(telemetry.EvEPCRebalance, -1, -1, fmt.Sprintf(
		"epc_bytes=%d namespaces=%d", budget.EPCBytes(), attached))
}

// EPCShares returns each attached namespace's EPC allowance in bytes.
// Shares sum to exactly the machine EPC whenever a namespace is attached.
func (e *Engine) EPCShares() map[int]int {
	budget := e.budget.Load()
	if budget == nil {
		return map[int]int{}
	}
	return budget.Shares()
}

// EPCBytes returns the per-machine EPC the engine apportions (0 until the
// first namespace attaches when Config.EPCBytes was unset).
func (e *Engine) EPCBytes() int {
	budget := e.budget.Load()
	if budget == nil {
		return e.cfg.EPCBytes
	}
	return budget.EPCBytes()
}

// Start launches one worker goroutine per shard. An engine runs at most
// once; after Stop it cannot be restarted (build a new one — filters can
// be reused once the old engine has fully stopped).
func (e *Engine) Start() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.running.Load() || e.stopped {
		return ErrRunning
	}
	e.stop = make(chan struct{})
	e.started = time.Now()
	for _, ns := range *e.nss.Load() {
		if ns == nil {
			continue
		}
		for _, t := range ns.shards {
			t.baseVirtualNs.Store(math.Float64bits(t.f.Enclave().VirtualNs()))
		}
	}
	e.running.Store(true)
	for _, s := range e.shards {
		go s.run(e)
	}
	e.emit(telemetry.EvEngineStart, -1, -1, fmt.Sprintf("shards=%d", len(e.shards)))
	return nil
}

// Stop drains every shard ring and terminates the workers. Idempotent.
// Producers should stop injecting first (Inject refuses from the moment
// Stop begins); any descriptor accepted before that is still processed —
// by its worker, or by the final sweep below once the workers have
// exited and the filters are safe to drive from this goroutine.
func (e *Engine) Stop() {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if !e.running.Load() {
		return
	}
	e.stopping.Store(true)
	close(e.stop)
	for _, s := range e.shards {
		<-s.done
	}
	// Final sweep: a producer that raced Stop's flag may have published
	// entries after its worker's last poll. Len counts claimed-but-
	// unpublished slots too, so spin those few stores out.
	for _, s := range e.shards {
		batch := make([]packet.Descriptor, e.cfg.Batch)
		for s.ring.Len() > 0 {
			if n := s.ring.DequeueBatch(batch); n > 0 {
				s.process(e, batch[:n], nil, false)
			} else {
				runtime.Gosched()
			}
		}
	}
	e.running.Store(false)
	e.stopped = true
	e.emit(telemetry.EvEngineStop, -1, -1, "")
}

// Running reports whether workers are live.
func (e *Engine) Running() bool { return e.running.Load() }

// Inject routes one descriptor to its namespace's shard and enqueues it.
// Safe for any number of concurrent producer goroutines (the rings are
// MPSC). It reports false when the descriptor names an unattached
// namespace (counted as an ns drop — the InjectBatch-racing-Detach case),
// the namespace's balancer dropped the packet, the shard ring is full (a
// backpressure event: the producer drops, as a NIC does when a descriptor
// ring backs up), or the engine is stopping — late injections are refused
// uncounted so the accepted==processed drain invariant holds.
func (e *Engine) Inject(d packet.Descriptor) bool {
	if e.stopping.Load() {
		return false
	}
	ns := e.lookup(int(d.NS))
	if ns == nil {
		e.nsDrops.Add(1)
		return false
	}
	if a := ns.adm; a != nil {
		if a.take(1) == 0 {
			e.noteThrottle(ns.id, a, 1)
			return false
		}
		a.noteAdmitted()
	}
	j, ok := ns.route(d.Tuple)
	if !ok {
		e.lbDrops.Add(1)
		return false
	}
	s := e.shards[j]
	if e.cfg.Faults.Should(faults.RingFull) || !s.ring.Enqueue(d) {
		s.backpressure.Add(1)
		e.noteBackpressure(s)
		return false
	}
	e.accepted.Add(1)
	s.unpark()
	return true
}

// InjectBatch routes a whole burst, scatters it into per-shard runs, and
// flushes each run with a single ring reservation — one route pass and one
// CAS per (producer, shard, burst) instead of one of each per packet, the
// producer-side analogue of the workers' batched drain. A burst may mix
// namespaces: it is split into namespace runs and each run is routed by
// its own victim's balancer in one call (single-victim producers pay
// exactly one route pass, as before). It returns how many descriptors
// were accepted; the remainder were discarded by a balancer (counted as
// lb drops), stamped with an unattached namespace (counted as ns drops —
// a detach racing the injection), or refused by a full shard ring
// (counted as backpressure, per packet, exactly as scalar Inject would),
// and in all cases they are DROPPED, as a NIC drops on ring overflow.
// The count is for accounting, not resumption: refusals happen per shard,
// so the unaccepted descriptors may sit anywhere in ds — retrying ds[n:]
// would re-inject accepted packets. A producer that must deliver a burst
// losslessly sizes the rings for it, or falls back to scalar Inject with
// retry. Partial acceptance keeps the accepted==processed drain
// invariant: only descriptors that actually landed in a ring are counted
// as accepted. Safe for any number of concurrent producer goroutines;
// returns 0 without touching any counter once the engine is stopping,
// like Inject.
func (e *Engine) InjectBatch(ds []packet.Descriptor) int {
	if len(ds) == 0 || e.stopping.Load() {
		return 0
	}
	sc := e.scratch.Get().(*injectScratch)
	if cap(sc.shards) < len(ds) {
		sc.shards = make([]int32, len(ds))
	}
	shards := sc.shards[:len(ds)]

	// Packet tracing: 1-in-N inject batches (per pooled scratch) follow
	// their first descriptor through the engine. The unsampled path pays
	// one local increment; the sampled path allocates its Pending here.
	var pend *telemetry.Pending
	if e.tracer != nil {
		sc.traceCtr++
		if sc.traceCtr&e.traceMask == 0 {
			pend = &telemetry.Pending{Trace: telemetry.Trace{
				InjectNS: telemetry.Now(), RulePrio: -1,
			}}
		}
	}

	nss := *e.nss.Load()
	var nsDrops uint64
	for i := 0; i < len(ds); {
		id := ds[i].NS
		j := i + 1
		for j < len(ds) && ds[j].NS == id {
			j++
		}
		var ns *namespace
		if int(id) < len(nss) {
			ns = nss[id]
		}
		if ns == nil {
			for k := i; k < j; k++ {
				shards[k] = shardNSDrop
			}
			nsDrops += uint64(j - i)
		} else {
			// Admission gate, once per namespace run: the throttled tail of
			// the run is marked and never routed — an overdriven victim's
			// excess costs its neighbors a marker write per packet, not a
			// route + ring reservation.
			admit := j - i
			if a := ns.adm; a != nil {
				admit = a.take(j - i)
				if admit < j-i {
					e.noteThrottle(int(id), a, j-i-admit)
					for k := i + admit; k < j; k++ {
						shards[k] = shardAdmDrop
					}
				} else {
					a.noteAdmitted()
				}
			}
			if admit > 0 {
				ns.routeBatch(ds[i:i+admit], shards[i:i+admit])
			}
		}
		i = j
	}
	if pend != nil {
		// The traced descriptor is ds[0]: routed (or not) by the loop
		// above. It is the first descriptor scattered into its shard's
		// run, so below it is accepted iff that run accepts >= 1.
		if j := shards[0]; j >= 0 {
			pend.Hash = ds[0].Tuple.Hash64()
			pend.Trace.Flow = ds[0].Tuple.String()
			pend.Trace.NS = int(ds[0].NS)
			pend.Trace.Shard = int(j)
			pend.Trace.RouteNS = telemetry.Now()
		} else {
			pend = nil // balancer or namespace drop: journey ends here
		}
	}
	var lbDrops uint64
	for i := range ds {
		j := shards[i]
		if j < 0 {
			if j == shardLBDrop {
				lbDrops++
			}
			continue
		}
		sc.runs[j] = append(sc.runs[j], ds[i])
	}
	accepted := 0
	for j := range sc.runs {
		run := sc.runs[j]
		if len(run) == 0 {
			continue
		}
		s := e.shards[j]
		traced := pend != nil && pend.Trace.Shard == j
		if traced {
			// Publish before the enqueue: the worker may dequeue the
			// descriptor the instant it lands, and must find the Pending.
			// After Publish only Abandon may touch pend.
			pend.Trace.EnqueueNS = telemetry.Now()
			e.tracer.Publish(pend)
		}
		n := 0
		if !e.cfg.Faults.Should(faults.RingFull) {
			n = s.ring.EnqueueBatch(run)
		}
		if n < len(run) {
			s.backpressure.Add(uint64(len(run) - n))
			e.noteBackpressure(s)
			if traced && n == 0 {
				// The traced descriptor heads its run: refused with it.
				e.tracer.Abandon(pend)
			}
		}
		s.unpark()
		accepted += n
		sc.runs[j] = run[:0]
	}
	if lbDrops > 0 {
		e.lbDrops.Add(lbDrops)
	}
	if nsDrops > 0 {
		e.nsDrops.Add(nsDrops)
	}
	if accepted > 0 {
		e.accepted.Add(uint64(accepted))
	}
	e.scratch.Put(sc)
	return accepted
}

// idleBackoff is the idle ladder the shard worker and WaitDrained share.
// After the n-th consecutive empty poll it returns false to poll again —
// at once on the busy-poll rung, after a Gosched on the yield rung — and
// true once the caller should block (the worker parks, WaitDrained sleeps).
func idleBackoff(n int) (block bool) {
	if n <= idleSpins {
		return false
	}
	if n <= idleSpins+idleYields {
		runtime.Gosched()
		return false
	}
	return true
}

// WaitDrained polls down the idle ladder until every accepted descriptor
// has been processed. Call after producers finish and before reading final
// counters or rotating a final epoch.
func (e *Engine) WaitDrained() {
	for idle := 1; ; idle++ {
		var processed uint64
		for _, s := range e.shards {
			processed += s.processed.Load()
		}
		if processed >= e.accepted.Load() {
			return
		}
		if idleBackoff(idle) {
			time.Sleep(drainPoll)
		}
	}
}

// RotateEpoch seals the namespace's current epoch on every shard and
// returns the per-shard authenticated log snapshots, ordered by shard
// index. Workers rotate at their next batch boundary; the data plane never
// stops, and rotations of different namespaces proceed concurrently — one
// victim's audit cadence never blocks another's. The returned logs of one
// epoch, merged across shards (bypass.MergeSnapshots), cover exactly the
// packets the fleet processed for this victim between this rotation and
// the previous one.
func (e *Engine) RotateEpoch(id int) ([]EpochLog, error) {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if !e.running.Load() {
		return nil, ErrNotRunning
	}
	var ns *namespace
	for {
		ns = e.lookup(id)
		if ns == nil {
			return nil, ErrUnknownNamespace
		}
		ns.mu.Lock()
		if !ns.detached {
			break
		}
		// Retired object: its detach/reconfigure committed the table swap
		// in the same critical section, so the next lookup either finds
		// the id gone (a real detach — unknown) or the reconfigured
		// replacement (retry against it).
		ns.mu.Unlock()
	}
	defer ns.mu.Unlock()
	ns.epoch++
	seq := ns.epoch
	tickets := make([]*rotateTicket, len(e.shards))
	for i, s := range e.shards {
		t := &rotateTicket{
			ns:    ns.shards[i],
			nsID:  id,
			seq:   seq,
			reply: make(chan shardEpoch, 1),
		}
		tickets[i] = t
		s.rotate <- t
	}
	logs := make([]EpochLog, len(e.shards))
	for i, t := range tickets {
		se := <-t.reply
		if se.err != nil {
			return nil, fmt.Errorf("engine: shard %d rotate: %w", i, se.err)
		}
		logs[i] = se.log
	}
	return logs, nil
}

// Epoch returns a namespace's last sealed epoch sequence number (0 when
// the namespace is unknown).
func (e *Engine) Epoch(id int) uint64 {
	ns := e.lookup(id)
	if ns == nil {
		return 0
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.epoch
}

// run is the shard worker supervisor: it launches the loop and re-enters
// it after a recovered panic, so a poisoned packet, a panicking sink, or
// a filter bug degrades one burst — accounted as faulted, journaled as a
// worker_restart — instead of silently killing the shard and parking the
// data plane. Views, the ring, and every counter survive the restart
// untouched.
func (s *shard) run(e *Engine) {
	defer close(s.done)
	batch := make([]packet.Descriptor, e.cfg.Batch)
	rec := e.tel.Recorder(s.id)
	for s.loop(e, batch, rec) {
	}
}

// recoverWorker repairs the books after a worker panic: an in-flight
// control ticket gets an error reply (its caller must not hang on a
// channel nobody will ever send to), and the interrupted burst's
// unattributed remainder is folded into processed — as faulted, since no
// verdict exists for it — so the accepted==processed drain invariant
// holds exactly across the restart.
func (s *shard) recoverWorker(e *Engine, r any) {
	if t := s.curTicket; t != nil {
		s.curTicket = nil
		t.reply <- shardEpoch{err: fmt.Errorf("engine: shard %d worker panic: %v", s.id, r)}
	}
	if n := s.inflight; n > 0 {
		if rem := n - s.accounted; rem > 0 {
			s.faulted.Add(uint64(rem))
		}
		s.processed.Add(uint64(n))
		s.inflight, s.accounted = 0, 0
	}
	s.restarts.Add(1)
	e.emit(telemetry.EvWorkerRestart, -1, s.id, fmt.Sprintf("recovered: %v", r))
}

// loop is one supervised incarnation of the worker: burst-dequeue,
// filter, honor rotation and fence tickets at batch boundaries, drain on
// stop. It returns false on clean shutdown; a panic anywhere inside is
// recovered and accounted, and the supervisor re-enters. With telemetry
// the worker holds its own stage recorder: a sampled burst additionally
// pays the clock reads bounding its stages; every other burst pays one
// counter increment (Sample) and one atomic tracer load (inside process).
func (s *shard) loop(e *Engine, batch []packet.Descriptor, rec *telemetry.StageRecorder) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			s.recoverWorker(e, r)
			again = true
		}
	}()
	// idle counts empty polls up the ladder, zero outside an idle gap;
	// idleStart is when the current gap opened.
	idle := 0
	var idleStart time.Time
	for {
		n := s.ring.DequeueBatch(batch)
		if n > 0 {
			sampled := rec.Sample()
			if idle > 0 {
				idle = 0
				if sampled {
					rec.Record(telemetry.StageDequeueWait, time.Since(idleStart))
				}
			}
			s.process(e, batch[:n], rec, sampled)
			s.drainTickets(e)
			continue
		}
		// The ring is empty: any backpressure episode is over, and its
		// edge is journaled before any rung can block.
		if s.bpActive.Load() && s.bpActive.CompareAndSwap(true, false) {
			e.emit(telemetry.EvBackpressureOff, -1, s.id, "ring drained")
		}
		if idle == 0 && rec != nil {
			idleStart = time.Now()
		}
		idle++
		var t *rotateTicket
		if idleBackoff(idle) {
			t = s.park(e)
			idle = 1 // the gap goes on; the ladder starts over
		} else {
			select {
			case t = <-s.rotate:
			default:
			}
		}
		if t != nil {
			s.serveTicket(e, t)
			continue
		}
		select {
		case <-e.stop:
			// Final drain: producers may have raced descriptors in after
			// the stop signal.
			for {
				n := s.ring.DequeueBatch(batch)
				if n == 0 {
					return
				}
				s.process(e, batch[:n], rec, false)
			}
		default:
		}
	}
}

// park is the ladder's last rung: block until a producer's token, a
// control ticket (returned for the caller to serve) or Stop. parked is
// stored before the ring is re-read (see unpark), and Len counts slots
// claimed but not yet published, so the check errs towards staying awake.
func (s *shard) park(e *Engine) (t *rotateTicket) {
	s.parked.Store(true)
	if s.ring.Len() == 0 {
		start := time.Now()
		s.parks.Add(1)
		select {
		case <-s.wake:
		case t = <-s.rotate:
		case <-e.stop:
		}
		s.parkedNs.Add(uint64(time.Since(start)))
	}
	s.parked.Store(false)
	return t
}

// drainTickets serves every pending ticket at a batch boundary, so
// concurrent rotations of several namespaces all land between the same
// two bursts instead of one per burst.
func (s *shard) drainTickets(e *Engine) {
	for {
		select {
		case t := <-s.rotate:
			s.serveTicket(e, t)
		default:
			return
		}
	}
}

func (s *shard) serveTicket(e *Engine, t *rotateTicket) {
	// Remember the ticket across the call: if serving it panics (an apply
	// closure, a snapshot), the recovery path replies with the error so
	// the control-plane caller never hangs. Replies are buffered, and
	// every path below replies exactly once as its last action, so the
	// recovery reply can never double-send.
	s.curTicket = t
	switch {
	case t.fence:
		t.reply <- shardEpoch{}
	case t.apply != nil:
		t.reply <- shardEpoch{err: t.apply()}
	default:
		s.doRotate(e, t)
	}
	s.curTicket = nil
}

// process pushes one burst through the per-namespace module chains,
// splitting it into namespace runs: each run is one chain execution over
// the worker's burst arena — one pooled verdict slice, one cost-meter
// charge — so the multi-victim dispatch costs a 2-byte compare per
// packet and one atomic view load per burst, nothing on the per-packet
// path. Packets of detached namespaces are dropped and counted as
// orphaned (never attributed to any victim). Verdict counters publish
// per run (worker-owned lines, so the extra adds are cheap) and
// inflight/accounted track progress, so a panic mid-burst — including a
// panic inside a module — leaves recoverWorker an exact picture:
// completed runs keep their verdicts, the remainder counts as faulted.
func (s *shard) process(e *Engine, batch []packet.Descriptor, rec *telemetry.StageRecorder, sampled bool) {
	views := *s.views.Load()
	s.inflight, s.accounted = len(batch), 0

	// Packet tracing: one atomic load per burst; only when a sampled
	// descriptor is actually in flight does the worker hash-scan the burst
	// to claim it (DequeueNS now, verdict after its run is processed).
	s.claimed = s.claimed[:0]
	if e.tracer.Outstanding() {
		now := telemetry.Now()
		for i := range batch {
			if p := e.tracer.Claim(batch[i].Tuple.Hash64(), s.id); p != nil {
				p.Trace.DequeueNS = now
				s.claimed = append(s.claimed, claimedTrace{idx: i, p: p})
			}
		}
	}

	// Stage timing on sampled bursts: StageFlush is everything process
	// adds around the filter — dispatch, sink fanout, counter publication
	// — so the burst total minus the timed ProcessBatch calls.
	var start time.Time
	var filterTime time.Duration
	if sampled {
		start = time.Now()
	}

	for i := 0; i < len(batch); {
		id := batch[i].NS
		j := i + 1
		for j < len(batch) && batch[j].NS == id {
			j++
		}
		run := batch[i:j]
		var t *nsShard
		if int(id) < len(views) {
			t = views[id]
		}
		if t == nil {
			s.orphaned.Add(uint64(len(run)))
			s.accounted += len(run)
			s.completeTraces(e, t, i, j, batch)
			i = j
			continue
		}
		ctx := &s.bctx
		ctx.Reset(s.id, int(id), run, s.verdicts)
		if sampled {
			fs := time.Now()
			t.chain.Run(ctx, rec, true)
			filterTime += time.Since(fs)
		} else {
			t.chain.Run(ctx, rec, false)
		}
		s.verdicts = ctx.Verdicts
		masked := ctx.MaskedDrops() > 0
		var runAllowed, runDropped uint64
		for k, v := range s.verdicts {
			// A drop-mask bit set after the verdict stage overrides an
			// allow (the verdict stage already folds earlier bits into
			// VerdictDrop); the default chain never masks, so the extra
			// check is off the common path.
			if v == filter.VerdictAllow && !(masked && ctx.Dropped(k)) {
				runAllowed++
				if e.cfg.Sink != nil {
					e.cfg.Sink(s.id, run[k])
				}
				if t.sink != nil {
					t.sink(s.id, run[k])
				}
			} else {
				runDropped++
			}
		}
		t.processed.Add(uint64(len(run)))
		t.allowed.Add(runAllowed)
		t.dropped.Add(runDropped)
		s.allowed.Add(runAllowed)
		s.dropped.Add(runDropped)
		s.accounted += len(run)
		s.completeTraces(e, t, i, j, batch)
		i = j
	}
	s.processed.Add(uint64(len(batch)))
	s.inflight = 0
	s.batches.Add(1)
	if sampled {
		rec.Record(telemetry.StageFlush, time.Since(start)-filterTime)
	}
}

// completeTraces finishes any claimed packet trace whose descriptor sits
// in the just-processed run [i, j): verdict from the run's verdict slice,
// rule provenance from the filter's Explain (we are on the filter's
// thread), both dropped runs and orphaned runs (t == nil) included.
func (s *shard) completeTraces(e *Engine, t *nsShard, i, j int, batch []packet.Descriptor) {
	if len(s.claimed) == 0 {
		return
	}
	for ci := range s.claimed {
		c := &s.claimed[ci]
		if c.p == nil || c.idx < i || c.idx >= j {
			continue
		}
		tr := &c.p.Trace
		tr.VerdictNS = telemetry.Now()
		if t == nil {
			tr.Verdict = "orphaned"
		} else {
			tr.Verdict = s.verdicts[c.idx-i].String()
			_, prio, origin := t.f.Explain(batch[c.idx].Tuple)
			tr.RulePrio = prio
			tr.Rule = origin
		}
		e.tracer.Complete(*tr)
		c.p = nil
	}
}

// doRotate seals the ticket namespace's epoch on this shard:
// authenticated snapshots of both logs, then reset. Runs on the worker
// goroutine, so it is ordered with ProcessBatch calls — no packet
// straddles the epoch boundary.
func (s *shard) doRotate(e *Engine, t *rotateTicket) {
	in, err := t.ns.f.Snapshot(filter.LogIncoming, t.seq)
	if err != nil {
		t.reply <- shardEpoch{err: err}
		return
	}
	out, err := t.ns.f.Snapshot(filter.LogOutgoing, t.seq)
	if err != nil {
		t.reply <- shardEpoch{err: err}
		return
	}
	t.ns.f.ResetLogs()
	// Promote pending flows to exact-match entries at the epoch boundary —
	// the hybrid design's learning step (Appendix F). Promotion is filter-
	// thread state, and the rotation ticket runs on the worker goroutine,
	// so engine mode gets the same periodic batch promotion the serial
	// path performs at rule-update boundaries.
	promoted := uint64(t.ns.f.Promote())
	t.ns.promoted.Add(promoted)
	t.ns.epochs.Add(1)
	s.promoted.Add(promoted)
	s.epochs.Add(1)
	e.emit(telemetry.EvEpochSeal, t.nsID, s.id, fmt.Sprintf("seq=%d promoted=%d", t.seq, promoted))
	t.reply <- shardEpoch{log: EpochLog{
		Namespace: t.nsID,
		Shard:     s.id,
		Seq:       t.seq,
		Incoming:  in,
		Outgoing:  out,
	}}
}
