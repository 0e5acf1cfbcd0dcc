package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/lb"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// setup_s is the median over timedBuilds engine builds, after warmBuilds
// untimed ones.
const (
	warmBuilds  = 2
	timedBuilds = 5
)

// admissionBurst is the token-bucket depth on churn_multi. It is sized so
// the capped victim's share of the lossless check phase (checkPackets/8)
// fits in the initial bucket: the check must see no throttling, or the
// reference could not say which packets were delivered.
const admissionBurst = 16384

// window is the length of the windows the timed figures are medians
// over: long enough that every window holds the workload's control-plane
// operations and a few of the host's scheduling gaps, so the median over
// windows drops a bad second and nothing that recurs.
const window = time.Second

// ringSlots sizes the shard's ingress ring: 44 ms of the fastest workload's
// traffic, where the engine's default of 4096 slots holds 0.7 ms. The
// default presumes cores that are the engine's alone. Here two busy threads
// share two vCPUs with the control goroutine, the collector and the
// hypervisor's other guests, and the shard worker is off its processor for
// 1 to 20 ms several times a second, and for 40 ms once a minute or two: at
// the default size 2% of a 6 Mpps run's packets are refused, at 32768 slots
// 0.4%, at 131072 still 0.1% in one run of five, and every run would report
// failed operations that say nothing about the code. A ring this deep turns
// those gaps into queueing, which the latency figures, timed from each
// burst's due time, then show in full, where a refused burst would have
// left no sample at all. A refusal now means the worker fell further
// behind than any gap the host imposes, and every one is counted.
const ringSlots = 262144

// dueSlots bounds the bursts in flight between generator and sink (the
// ring holds ringSlots/64 = 4096); a marked packet's Ref indexes this
// table.
const dueSlots = 8192

// latSample is one burst's delivery: when it was due and how long after
// that its last allowed packet reached the sink.
type latSample struct {
	due, lat int64
}

// sink is the engine's allowed-packet observer. It runs on the shard
// worker, so everything here is worker-owned; the control side touches it
// only while the engine is drained (WaitDrained orders the two through
// the engine's atomics).
type sink struct {
	delivered uint64

	// Check phase: every packet carries its pool index in Ref and the sink
	// records which indices arrived (and whether any arrived twice).
	checking bool
	seen     []bool
	dups     uint64

	// Timed phases: one packet per burst carries a due-table slot in Ref.
	// The generator writes a slot a full ring ahead of the worker reading
	// it, so the two never meet; atomics say so to the race detector.
	due [dueSlots]atomic.Int64
	lat []latSample
	n   int
}

func (s *sink) deliver(_ int, d packet.Descriptor) {
	s.delivered++
	if d.Ref == packet.NoRef {
		return
	}
	if s.checking {
		if s.seen[d.Ref] {
			s.dups++
		}
		s.seen[d.Ref] = true
		return
	}
	if s.n < len(s.lat) {
		due := s.due[d.Ref].Load()
		s.lat[s.n] = latSample{due: due, lat: nowNs() - due}
		s.n++
	}
}

// bench is one workload's run: generated inputs, the engine under test,
// and the books the phases are checked against.
type bench struct {
	w    *workload
	seed int64

	sets   []*rules.Set
	refs   []*refMatcher // per victim
	pool   []packet.Descriptor
	digest string
	// allow[i]: pool[i] is delivered when injected (reference verdict, or
	// for hashed rules the verdict the check phase observed). mark[s] is
	// the offset within burst slot s of the packet that carries the
	// latency marker: the last allowed one not subject to admission
	// throttling, -1 when the burst has none.
	allow []bool
	mark  []int16
	churn []*churner

	eng     *engine.Engine
	filters []*filter.Filter
	sink    *sink
	rec     *recorder // records engine.inject spans when non-nil

	cur               int    // pool cursor, burst-aligned
	offered, accepted uint64 // generator-side totals over every InjectBatch
	nextUpdate        int    // round-robin victim cursors
	nextRotate        int

	attempted, failed uint64
	problems          []string
}

// fail books n failed operations that are also wrong outputs: a verdict,
// audit or accounting mismatch. Any one makes the run incorrect.
func (b *bench) fail(n uint64, format string, args ...any) {
	b.failed += n
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// newBench generates the workload's inputs from the seed. Nothing here is
// timed.
func newBench(w *workload, seed int64) (*bench, error) {
	b := &bench{w: w, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	vmap := lb.NewVictimMap()
	for v := 0; v < w.victims; v++ {
		set, err := genRules(rng, w, v)
		if err != nil {
			return nil, fmt.Errorf("generate rules: %w", err)
		}
		b.sets = append(b.sets, set)
		b.churn = append(b.churn, newChurner(rng, v, set))
		// Namespace ids are handed out in attach order, so victim v is
		// namespace v on every build; build checks that.
		if err := vmap.Add(victimPrefix(v), uint16(v)); err != nil {
			return nil, err
		}
	}
	b.pool = genPool(rng, w, b.sets)
	if unmapped := vmap.Stamp(b.pool); unmapped != 0 {
		return nil, fmt.Errorf("%d pool packets have no victim", unmapped)
	}
	b.digest = poolDigest(b.pool)

	b.allow = make([]bool, len(b.pool))
	for _, set := range b.sets {
		b.refs = append(b.refs, newRefMatcher(set))
	}
	for i := 0; i < len(b.pool); i += w.train {
		a := b.refs[b.pool[i].NS].verdict(b.pool[i].Tuple) == refAllow
		for j := 0; j < w.train; j++ {
			b.allow[i+j] = a
		}
	}
	b.mark = make([]int16, len(b.pool)/burstSize)
	return b, nil
}

// placeMarks picks each burst slot's marker packet from b.allow, once the
// check phase has settled it.
func (b *bench) placeMarks() {
	for s := range b.mark {
		b.mark[s] = -1
		for off := burstSize - 1; off >= 0; off-- {
			i := s*burstSize + off
			if b.allow[i] && int(b.pool[i].NS) != b.w.cappedVictim {
				b.mark[s] = int16(off)
				break
			}
		}
	}
}

// build assembles and starts a fresh engine and returns how long that
// took, from the first constructor call until the first burst is accepted.
func (b *bench) build() (time.Duration, error) {
	start := time.Now()
	s := &sink{}
	cfg := engine.Config{Shards: 1, Sink: s.deliver, RingSize: ringSlots}
	if b.w.cappedVictim >= 0 {
		cfg.Admission = &engine.AdmissionConfig{Burst: admissionBurst}
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return 0, err
	}
	filters := make([]*filter.Filter, b.w.victims)
	for v := range filters {
		encl, err := enclave.New(enclave.CodeIdentity{
			Name: "vif-filter", Version: "bench", BinarySize: 1 << 20,
		}, enclave.DefaultCostModel())
		if err != nil {
			return 0, err
		}
		if filters[v], err = filter.New(encl, b.sets[v], filter.Config{}); err != nil {
			return 0, err
		}
		nc := engine.NamespaceConfig{Filters: filters[v : v+1]}
		if v == b.w.cappedVictim {
			nc.AdmitPps = b.w.rateMpps * 1e6 / float64(b.w.victims) / 10
		}
		id, err := eng.AttachNamespace(nc)
		if err != nil {
			return 0, err
		}
		if id != v {
			return 0, fmt.Errorf("victim %d attached as namespace %d", v, id)
		}
	}
	if err := eng.Start(); err != nil {
		return 0, err
	}
	b.eng, b.filters, b.sink = eng, filters, s
	b.cur, b.offered, b.accepted = 0, 0, 0
	for b.inject(-1, 0) == 0 {
	}
	return time.Since(start), nil
}

// setup builds the engine repeatedly, keeps the last build, and returns
// the median build time in seconds. The collector is held off during a
// build and run between builds, and the first warmBuilds builds are not
// timed. On this class of host a build that faults in fresh pages takes
// several times as long as one that reuses the heap its predecessors left
// (1.3 s against 0.2 s at 100,000 rules), a GC cycle falling into a small
// build triples it, and which of these a build gets is chance; it takes two
// builds before the freed heap fits the next one. What is timed is the
// work of building, which is what a later change can move.
func (b *bench) setup(short bool) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm, timed := warmBuilds, timedBuilds
	if short {
		warm, timed = 0, 1
	}
	secs := make([]float64, 0, timed)
	for i := 0; i < warm+timed; i++ {
		if b.eng != nil {
			b.eng.Stop()
			b.eng, b.filters, b.sink = nil, nil, nil
		}
		runtime.GC()
		d, err := b.build()
		if err != nil {
			return 0, fmt.Errorf("build engine: %w", err)
		}
		if i >= warm {
			secs = append(secs, d.Seconds())
		}
	}
	b.eng.WaitDrained()
	// Hand the builds' garbage back now, so the runtime's background
	// scavenger has nothing left to do while the phases are timed.
	debug.FreeOSMemory()
	return median(secs), nil
}

// inject offers the next pool burst. k >= 0 marks the burst for latency:
// its marker packet carries a due-table slot in Ref and the sink times
// its delivery from due.
func (b *bench) inject(k int, due int64) int {
	burst := b.pool[b.cur : b.cur+burstSize]
	if k >= 0 {
		if off := b.mark[b.cur/burstSize]; off >= 0 {
			slot := k % dueSlots
			burst[off].Ref = packet.Ref(slot)
			b.sink.due[slot].Store(due)
		}
	}
	var n int
	if b.rec != nil {
		sp := b.rec.open(layerInject, -1, int32(k), nowNs())
		n = b.eng.InjectBatch(burst)
		b.rec.close(sp, nowNs())
	} else {
		n = b.eng.InjectBatch(burst)
	}
	b.offered += burstSize
	b.accepted += uint64(n)
	if b.cur += burstSize; b.cur == len(b.pool) {
		b.cur = 0
	}
	return n
}

// snap is the generator's reading of every counter at one instant, taken
// at window edges.
type snap struct {
	t               int64
	m               engine.Metrics
	offered         uint64 // generator-side; m.Accepted is the engine's view
	procCPU, genCPU int64
	virtualNs       float64
}

func (s *snap) refused() uint64 { return s.m.Backpressure + s.m.LBDrops + s.m.NSDrops }

// snapshot must run on the generator's locked thread: genCPU is that
// thread's CPU time.
func (b *bench) snapshot(t int64) snap {
	s := snap{
		t: t, m: b.eng.Metrics(), offered: b.offered,
		procCPU: cpuNs(syscall.RUSAGE_SELF), genCPU: cpuNs(rusageThread),
	}
	for _, f := range b.filters {
		s.virtualNs += f.Enclave().VirtualNs()
	}
	return s
}

// phase is one timed stretch of load and everything observed during it.
type phase struct {
	name string
	open bool // open loop at the workload's rateMpps; else closed-loop saturation
	dur  time.Duration
	// quiet: none of the workload's control-plane operations (warm-up).
	// sampleDepth: the control goroutine also samples the ring's depth.
	quiet, sampleDepth bool

	win      time.Duration
	snaps    []snap // window edges: len = windows+1
	lat      []latSample
	late     []int64   // generator lateness per burst (open loop)
	updateMs []float64 // ReconfigureNamespaceDelta call → return
	rotateMs []float64 // RotateEpoch call → return
	depth    []float64 // ring occupancy, sampled at 100 Hz
	mallocs  uint64    // heap allocations during the phase
}

func (p *phase) windows() int { return len(p.snaps) - 1 }

// runPhase drives one phase: the generator on its own locked OS thread,
// the control loop on the calling goroutine (asleep between operations),
// then a drain and the accounting identities.
func (b *bench) runPhase(p *phase) {
	p.win = window
	if p.dur < 4*window {
		p.win = p.dur / 4
	}
	p.snaps = make([]snap, 0, int(p.dur/p.win)+2)
	if p.open {
		bursts := int(p.dur.Seconds()*b.w.rateMpps*1e6/burstSize) + 1
		p.lat = make([]latSample, bursts)
		p.late = make([]int64, bursts)
	}
	if e := b.w.updateEvery; e > 0 {
		p.updateMs = make([]float64, 0, int(p.dur/e)+1)
	}
	if e := b.w.rotateEvery; e > 0 {
		p.rotateMs = make([]float64, 0, int(p.dur/e)+1)
	}
	p.depth = make([]float64, 0, int(p.dur/depthEvery)+1)
	b.sink.lat, b.sink.n = p.lat, 0

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		b.generate(p)
	}()
	b.control(p, done)
	b.eng.WaitDrained()
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.lat = p.lat[:b.sink.n]
	// With no sample buffer the sink ignores the markers open-loop phases
	// leave in the pool, so closed-loop phases pay no clock read for them.
	b.sink.lat, b.sink.n = nil, 0
	b.checkIdentities(p.name)
}

func (b *bench) generate(p *phase) {
	start := nowNs()
	end := start + int64(p.dur)
	nextWin := start + int64(p.win)
	p.snaps = append(p.snaps, b.snapshot(start))
	if p.open {
		ol := openLoop{now: nowNs, start: start, interval: burstSize * 1e3 / b.w.rateMpps, late: p.late}
		n := ol.run(end, func(k int, due int64) {
			if due >= nextWin {
				p.snaps = append(p.snaps, b.snapshot(nowNs()))
				nextWin += int64(p.win)
			}
			b.inject(k, due)
		})
		p.late = p.late[:min(n, len(p.late))]
	} else {
		for t := start; t < end; t = nowNs() {
			if t >= nextWin {
				p.snaps = append(p.snaps, b.snapshot(t))
				nextWin += int64(p.win)
			}
			if b.inject(-1, 0) == 0 {
				runtime.Gosched() // ring full: the worker is the bottleneck
			}
		}
	}
	p.snaps = append(p.snaps, b.snapshot(nowNs()))
}

// depthEvery is the queue-depth sampling period of traced rate phases.
const depthEvery = 10 * time.Millisecond

// control runs the workload's control-plane operations on their cadences
// until the generator finishes. An operation that overruns its period
// delays the next one; operations never pile up.
func (b *bench) control(p *phase, done <-chan struct{}) {
	type job struct {
		every time.Duration
		next  time.Time
		run   func()
	}
	var jobs []*job
	add := func(on bool, every time.Duration, run func()) {
		if on {
			jobs = append(jobs, &job{every: every, next: time.Now().Add(every), run: run})
		}
	}
	add(!p.quiet && b.w.updateEvery > 0, b.w.updateEvery, func() { p.updateMs = append(p.updateMs, b.updateRules()) })
	add(!p.quiet && b.w.rotateEvery > 0, b.w.rotateEvery, func() { p.rotateMs = append(p.rotateMs, b.rotateEpoch()) })
	add(p.sampleDepth, depthEvery, func() { p.depth = append(p.depth, float64(b.eng.Metrics().QueueDepth)) })
	if len(jobs) == 0 {
		<-done
		return
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		next := jobs[0]
		for _, j := range jobs[1:] {
			if j.next.Before(next.next) {
				next = j
			}
		}
		timer.Reset(time.Until(next.next))
		select {
		case <-done:
			return
		case <-timer.C:
		}
		next.run()
		if next.next = next.next.Add(next.every); next.next.Before(time.Now()) {
			next.next = time.Now()
		}
	}
}

// updateRules pushes the next 1% add+remove delta to the next victim and
// returns the call's duration in ms: the victim's time-to-mitigate.
func (b *bench) updateRules() float64 {
	v := b.nextUpdate % b.w.victims
	b.nextUpdate++
	d := b.churn[v].next()
	start := time.Now()
	err := b.eng.ReconfigureNamespaceDelta(v, []filter.Delta{d}, nil, nil)
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		b.fail(1, "rule update on victim %d: %v", v, err)
	}
	return ms
}

// rotateEpoch seals the next victim's audit epoch and returns the call's
// duration in ms.
func (b *bench) rotateEpoch() float64 {
	v := b.nextRotate % b.w.victims
	b.nextRotate++
	start := time.Now()
	_, err := b.eng.RotateEpoch(v)
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		b.fail(1, "epoch rotation on victim %d: %v", v, err)
	}
	return ms
}

// checkIdentities asserts the engine's books against the generator's and
// the sink's. The engine must be drained.
func (b *bench) checkIdentities(where string) {
	m := b.eng.Metrics()
	refused := m.Backpressure + m.LBDrops + m.NSDrops + m.Throttled
	check := func(ok bool, format string, args ...any) {
		if !ok {
			b.fail(1, where+": "+format, args...)
		}
	}
	check(b.offered == b.accepted+refused, "offered %d != accepted %d + refused %d", b.offered, b.accepted, refused)
	check(b.accepted == m.Accepted, "generator saw %d accepted, engine %d", b.accepted, m.Accepted)
	check(m.Accepted == m.Processed, "accepted %d != processed %d", m.Accepted, m.Processed)
	check(m.Processed == m.Allowed+m.Dropped+m.Orphaned+m.Faulted,
		"processed %d != allowed %d + dropped %d + orphaned %d + faulted %d",
		m.Processed, m.Allowed, m.Dropped, m.Orphaned, m.Faulted)
	check(b.sink.delivered == m.Allowed, "sink saw %d, engine allowed %d", b.sink.delivered, m.Allowed)
}
