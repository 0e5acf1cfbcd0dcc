package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/innetworkfiltering/vif/internal/classify"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/pipeline"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/sketch"
	"github.com/innetworkfiltering/vif/internal/trie"
)

// replayBursts is how many pool bursts each replay pass drives: one cycle
// of the largest pool, sixteen of the smallest. A fixed count, so the
// counted figures repeat exactly.
const replayBursts = 16384

// replayCounts is what the replay passes counted, the denominators of the
// per-layer figures.
type replayCounts struct {
	packets   int // packets per pass
	hashed    int // tuples the router would hash (first of each train)
	distinct  int // distinct flows summed over namespace runs
	compileMs float64
	routeHash uint64 // the route hashes folded together, so the loop is live
}

// burst returns the k-th burst of the pool, cycling.
func (b *bench) burst(k int) []packet.Descriptor {
	off := k * burstSize % len(b.pool)
	return b.pool[off : off+burstSize]
}

// nsRuns calls f for each maximal run of one namespace in burst, as the
// shard worker splits it.
func nsRuns(burst []packet.Descriptor, f func(ns int, run []packet.Descriptor)) {
	for i := 0; i < len(burst); {
		j := i + 1
		for j < len(burst) && burst[j].NS == burst[i].NS {
			j++
		}
		f(int(burst[i].NS), burst[i:j])
		i = j
	}
}

// replay drives the pool's bursts, single-threaded, through each layer's
// public functions in the order the engine calls them, one span per call.
// It needs the engine stopped: it runs the engine's own (warm) filters.
//
// Pass A is the engine's path: route hash → ring enqueue → ring dequeue →
// per namespace run BurstCtx.Reset + classify, sketch, charge stages →
// verdict fan-out to a sink. Pass B runs the same bursts through the
// default module chain, to price the chain against its three stages.
// Passes C and D isolate the two inner structures the stages lean on: the
// compiled classifier's batch probe and the sketch's batched update.
func (b *bench) replay(rec *recorder, bursts int) replayCounts {
	var rc replayCounts
	ring, err := pipeline.NewMPSCRing(ringSlots)
	if err != nil {
		panic(err) // unreachable: the size is a valid constant
	}
	buf := make([]packet.Descriptor, burstSize)
	verdicts := make([]filter.Verdict, 0, burstSize)
	var ctx module.BurstCtx
	out := &sink{}

	// Per victim: the three core stages, and the default chain over them.
	type stages struct {
		classify module.Classify
		sketch   module.Sketch
		charge   module.Charge
		chain    *module.Chain
	}
	st := make([]*stages, len(b.filters))
	for v, f := range b.filters {
		s := &stages{classify: module.Classify{F: f}, sketch: module.Sketch{F: f}, charge: module.Charge{F: f}}
		s.chain = module.NewChain(nil, &s.classify, &s.sketch, &s.charge)
		st[v] = s
	}
	// step closes the running span and opens the next at one clock read, so
	// consecutive stages leave no gap to land in the parent's self time.
	step := func(prev int32, next layer, parent, id int32) int32 {
		t := nowNs()
		rec.close(prev, t)
		return rec.open(next, parent, id, t)
	}

	// Pass A.
	var hashSink uint64
	for k := 0; k < bursts; k++ {
		burst := b.burst(k)
		id := int32(k)
		root := rec.open(layerBurst, -1, id, nowNs())
		sp := rec.open(layerHash, root, id, nowNs())
		for i := range burst {
			if i == 0 || burst[i].Tuple != burst[i-1].Tuple {
				hashSink ^= burst[i].Tuple.Hash64()
				rc.hashed++
			}
		}
		sp = step(sp, layerEnqueue, root, id)
		ring.EnqueueBatch(burst)
		sp = step(sp, layerDequeue, root, id)
		n := ring.DequeueBatch(buf)
		nsRuns(buf[:n], func(ns int, run []packet.Descriptor) {
			s := st[ns]
			sp = step(sp, layerClassify, root, id)
			ctx.Reset(0, ns, run, verdicts)
			s.classify.ProcessBurst(&ctx)
			sp = step(sp, layerApply, root, id)
			s.sketch.ProcessBurst(&ctx)
			sp = step(sp, layerCharge, root, id)
			s.charge.ProcessBurst(&ctx)
			sp = step(sp, layerSink, root, id)
			verdicts = ctx.Verdicts
			for i, v := range verdicts {
				if v == filter.VerdictAllow {
					out.deliver(0, run[i])
				}
			}
		})
		t := nowNs()
		rec.close(sp, t)
		rec.close(root, t)
		rc.packets += n
	}
	rc.routeHash = hashSink

	// Pass B.
	for k := 0; k < bursts; k++ {
		nsRuns(b.burst(k), func(ns int, run []packet.Descriptor) {
			sp := rec.open(layerChain, -1, int32(k), nowNs())
			ctx.Reset(0, ns, run, verdicts)
			st[ns].chain.Run(&ctx, nil, false)
			rec.close(sp, nowNs())
			verdicts = ctx.Verdicts
		})
	}

	// Pass C: the burst's distinct flows through a freshly compiled program.
	progs := make([]*classify.Program, len(b.sets))
	var compile []float64
	for v, set := range b.sets {
		compile = append(compile, timeMs(3, func() {
			progs[v] = classify.Compile(set.Rules, nil, int32(set.Len()-1))
		}))
	}
	rc.compileMs = median(compile)
	var scratch classify.BatchScratch
	tuples := make([]packet.FiveTuple, 0, burstSize)
	weights := make([]uint64, 0, burstSize)
	index := make(map[packet.FiveTuple]int, burstSize)
	// distinct fills tuples/weights with run's distinct flows and their
	// packet counts.
	distinct := func(run []packet.Descriptor) {
		tuples, weights = tuples[:0], weights[:0]
		clear(index)
		for i := range run {
			j, ok := index[run[i].Tuple]
			if !ok {
				j = len(tuples)
				index[run[i].Tuple] = j
				tuples = append(tuples, run[i].Tuple)
				weights = append(weights, 0)
			}
			weights[j]++
		}
	}
	for k := 0; k < bursts; k++ {
		nsRuns(b.burst(k), func(ns int, run []packet.Descriptor) {
			distinct(run)
			rc.distinct += len(tuples)
			sp := rec.open(layerClassifyBatch, -1, int32(k), nowNs())
			progs[ns].ClassifyBatch(tuples, &scratch)
			rec.close(sp, nowNs())
		})
	}

	// Pass D: the same distinct flows, as five-tuple keys, into a sketch.
	sk := sketch.NewDefault()
	keyMem := make([]byte, 0, burstSize*packet.KeySize)
	keys := make([][]byte, 0, burstSize)
	for k := 0; k < bursts; k++ {
		nsRuns(b.burst(k), func(ns int, run []packet.Descriptor) {
			distinct(run)
			keyMem, keys = keyMem[:0], keys[:0]
			for _, t := range tuples {
				key := t.Key()
				keyMem = append(keyMem, key[:]...)
				keys = append(keys, keyMem[len(keyMem)-packet.KeySize:])
			}
			sp := rec.open(layerAddMany, -1, int32(k), nowNs())
			sk.AddMany(keys, weights)
			rec.close(sp, nowNs())
		})
	}
	return rc
}

// timeMs returns the median duration of reps calls of f in ms, under
// setup's discipline: the collector runs between calls, not during one,
// and (unless reps is 1, for calls that cannot be repeated) two calls
// before them are not timed, so the heap they need is already mapped.
func timeMs(reps int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := warmBuilds
	if reps == 1 {
		warm = 0
	}
	ms := make([]float64, 0, reps)
	for i := 0; i < warm+reps; i++ {
		runtime.GC()
		start := time.Now()
		f()
		if d := time.Since(start); i >= warm {
			ms = append(ms, float64(d)/1e6)
		}
	}
	return median(ms)
}

// controlCosts times the control-plane building blocks on private copies
// at the workload's rule count, off the engine: what rule_update_ms,
// epoch_rotate_ms and setup_s are made of before any ticket or scheduling
// wait is added.
func (b *bench) controlCosts(m map[string]float64) error {
	set := b.sets[0]
	rng := rand.New(rand.NewSource(b.seed + 1))

	var snap *trie.Snapshot
	var buildErr error
	m["trie.build_ms"] = timeMs(3, func() {
		tbl, err := trie.New(trie.DefaultStride)
		if err != nil {
			buildErr = err
			return
		}
		tbl.InsertSet(set)
		snap = tbl.Snapshot()
	})
	if buildErr != nil {
		return buildErr
	}
	d := newChurner(rng, 0, set).next()
	var diffErr error
	m["trie.diff_ms"] = timeMs(3, func() { _, diffErr = snap.Diff(d.Adds, d.Removes) })
	if diffErr != nil {
		return diffErr
	}

	// The same 1% step, spelled the way Filter.ReconfigureDelta hands it to
	// the classifier: survivors keep priorities 0..n-k-1, adds follow the
	// old maximum.
	n, k := set.Len(), len(d.Adds)
	next := append(append([]rules.Rule(nil), set.Rules[:n-k]...), d.Adds...)
	prios := make([]int32, n)
	removedPrios := make([]int32, k)
	for i := range prios {
		prios[i] = int32(i)
		if i >= n-k {
			prios[i] = int32(i + k)
			removedPrios[i-(n-k)] = int32(i)
		}
	}
	prog := classify.Compile(set.Rules, nil, int32(n-1))
	m["classify.delta_ms"] = timeMs(3, func() {
		prog.Delta(classify.Delta{
			Rules: next, Prios: prios, MaxPrio: int32(n + k - 1), AddStart: n - k,
			RemovedRules: set.Rules[n-k:], RemovedPrios: removedPrios,
		})
	})

	encl, err := enclave.New(enclave.CodeIdentity{Name: "vif-filter", Version: "bench", BinarySize: 1 << 20}, enclave.DefaultCostModel())
	if err != nil {
		return err
	}
	f, err := filter.New(encl, set, filter.Config{})
	if err != nil {
		return err
	}
	ch := newChurner(rng, 0, set)
	var deltaErr error
	m["filter.reconfigure_delta_ms"] = timeMs(3, func() {
		if err := f.ReconfigureDelta(ch.next()); err != nil {
			deltaErr = err
		}
	})
	if deltaErr != nil {
		return deltaErr
	}

	// Promotion: feed the head of the pool through the private filter so
	// every hashed flow is pending, then time the batch insertion.
	var verdicts []filter.Verdict
	for i := 0; i+burstSize <= min(checkPackets, len(b.pool)); i += burstSize {
		verdicts = f.ProcessBatch(b.pool[i:i+burstSize], verdicts)
	}
	m["filter.promote_ms"] = timeMs(1, func() { f.Promote() })

	var snapErr error
	m["filter.snapshot_ms"] = timeMs(3, func() {
		for _, kind := range []filter.LogKind{filter.LogIncoming, filter.LogOutgoing} {
			if _, err := b.filters[0].Snapshot(kind, 0); err != nil {
				snapErr = err
			}
		}
	})
	return snapErr
}
