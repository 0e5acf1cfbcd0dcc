package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/innetworkfiltering/vif/internal/faults"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

// The idle-path tests are schedule-dependent by construction (they assert
// on what workers do when nothing arrives), so every wait has a deadline
// and a failure names what was being waited for.
const idleDeadline = 10 * time.Second

// waitParked blocks until every worker sits on the park rung. parked is
// stored before the worker blocks and cleared by whatever wakes it, so
// "all set" means no worker is running or about to run a burst.
func waitParked(t *testing.T, eng *Engine) {
	t.Helper()
	deadline := time.Now().Add(idleDeadline)
	for {
		parked := 0
		for _, s := range eng.shards {
			if s.parked.Load() {
				parked++
			}
		}
		if parked == len(eng.shards) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d idle workers parked: %v", parked, len(eng.shards), eng.Metrics())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within runs f under a watchdog: a control call against parked workers
// that hangs is the failure these tests exist to catch.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(idleDeadline):
		t.Fatalf("%s did not return within %v", what, idleDeadline)
	}
}

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleEngineBurnsNoCPU: a started engine with no traffic parks every
// worker and then costs (almost) no CPU. With the always-Gosched idle loop
// this measured 799 ms of CPU per 500 ms of wall on a 2-vCPU host.
func TestIdleEngineBurnsNoCPU(t *testing.T) {
	set := testRules(t, 8)
	eng, err := New(Config{Filters: testFilters(t, set, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	waitParked(t, eng)

	const wall, budget = 500 * time.Millisecond, 25 * time.Millisecond
	before := processCPU(t)
	time.Sleep(wall)
	if used := processCPU(t) - before; used > budget {
		t.Fatalf("idle 4-shard engine used %v of CPU in %v of wall (budget %v)", used, wall, budget)
	}
	if m := eng.Metrics(); m.Parks != 4 || m.Wakes != 0 {
		t.Fatalf("idle engine: parks %d wakes %d, want 4 and 0", m.Parks, m.Wakes)
	}
}

// TestNoLostWakeup hammers the park/unpark handshake. Four producers mix
// scalar Inject and InjectBatch, and each waits for the engine to drain
// before its next offer, then for a seeded gap that straddles the spin and
// yield rungs: the publishes of a round race one another for the parked
// CAS and land all around the worker's parked store, tens of thousands of
// times. Because every producer waits for the drain, no later publish can
// mask a lost wake-up: it leaves an accepted descriptor in the ring of a
// parked worker, the drain never comes, and the watchdog names it.
func TestNoLostWakeup(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			set := testRules(t, 64)
			eng, err := New(Config{Filters: testFilters(t, set, 4)})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			descs := testDescriptors(t, set, 4096)
			drained := func() bool {
				var processed uint64
				for _, s := range eng.shards {
					processed += s.processed.Load()
				}
				return processed >= eng.accepted.Load()
			}

			const wantParks = 20000
			var stop atomic.Bool
			var accepted atomic.Uint64
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100*procs + p)))
					for !stop.Load() {
						start := time.Now()
						for polls := 1; !drained(); polls++ {
							if polls%1024 == 0 && time.Since(start) > idleDeadline {
								if stop.CompareAndSwap(false, true) {
									t.Errorf("no drain in %v, a wake-up was lost: %v", idleDeadline, eng.Metrics())
								}
								return
							}
							runtime.Gosched()
						}
						// 0 to 130 µs, short gaps as likely as long ones: the
						// ladder takes 1.5 µs, or 50 under the race detector.
						gap := time.Duration(rng.Int63n(1<<uint(rng.Intn(18)) + 1))
						for start = time.Now(); time.Since(start) < gap; {
							runtime.Gosched()
						}
						lo := rng.Intn(len(descs) - 16)
						if rng.Intn(2) == 0 {
							if eng.Inject(descs[lo]) {
								accepted.Add(1)
							}
						} else {
							accepted.Add(uint64(eng.InjectBatch(descs[lo : lo+1+rng.Intn(16)])))
						}
					}
				}(p)
			}
			deadline := time.Now().Add(idleDeadline)
			for eng.Metrics().Parks < wantParks && !stop.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			wg.Wait()
			if t.Failed() {
				return
			}
			within(t, "WaitDrained after the producers stopped (lost wake-up?)", eng.WaitDrained)

			m := eng.Metrics()
			t.Logf("parks %d, wakes %d, accepted %d", m.Parks, m.Wakes, m.Accepted)
			if m.Accepted != accepted.Load() || m.Processed != m.Accepted {
				t.Fatalf("producers saw %d accepted, engine %d, processed %d", accepted.Load(), m.Accepted, m.Processed)
			}
			if m.Parks == 0 || m.Wakes == 0 {
				t.Fatalf("workers never parked (parks %d, wakes %d): the test exercised nothing", m.Parks, m.Wakes)
			}
		})
	}
}

// TestControlWhileParked: every control action is delivered through the
// same select the parked worker blocks in, so each returns promptly when
// all workers are parked at the moment of the call; and a worker that
// panics on its first burst after a park re-enters its loop, drains, and
// parks again.
func TestControlWhileParked(t *testing.T) {
	set := testRules(t, 64)
	in := faults.New(3)
	tel := chaosTelemetry(2)
	eng, err := New(Config{Filters: testFilters(t, set, 2), Telemetry: tel, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	other, err := eng.AttachNamespace(NamespaceConfig{Filters: testFilters(t, set, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	waitParked(t, eng)
	within(t, "RotateEpoch", func() {
		if logs, err := eng.RotateEpoch(0); err != nil || len(logs) != 2 {
			t.Errorf("RotateEpoch against parked workers: %d logs, err %v", len(logs), err)
		}
	})

	waitParked(t, eng)
	within(t, "ReconfigureNamespaceDelta", func() {
		d := filter.Delta{Adds: []rules.Rule{{
			ID: 9001, Src: rules.MustParsePrefix("198.51.100.0/24"),
			Dst: rules.MustParsePrefix("192.0.2.0/24"), Proto: packet.ProtoUDP,
		}}}
		if err := eng.ReconfigureNamespaceDelta(0, []filter.Delta{d, d}, nil, nil); err != nil {
			t.Errorf("ReconfigureNamespaceDelta against parked workers: %v", err)
		}
	})

	waitParked(t, eng)
	within(t, "DetachNamespace", func() {
		if _, err := eng.DetachNamespace(other); err != nil {
			t.Errorf("DetachNamespace against parked workers: %v", err)
		}
	})

	// One injected module fault: the burst that wakes a worker panics it.
	waitParked(t, eng)
	in.Enable(faults.ModuleFault, faults.Spec{Every: 1, Limit: 1})
	descs := testDescriptors(t, set, 512)
	accepted := eng.InjectBatch(descs[:256])
	within(t, "WaitDrained across the worker panic", eng.WaitDrained)
	accepted += eng.InjectBatch(descs[256:])
	within(t, "WaitDrained after the restart", eng.WaitDrained)
	waitParked(t, eng)
	m := eng.Metrics()
	if m.Restarts != 1 || m.Faulted == 0 {
		t.Fatalf("restarts %d faulted %d, want one restart with a faulted burst", m.Restarts, m.Faulted)
	}
	if m.Accepted != uint64(accepted) || m.Processed != m.Accepted || m.Allowed+m.Dropped+m.Faulted != m.Processed {
		t.Fatalf("books after the restart: %v (faulted %d)", m, m.Faulted)
	}
	if m.Allowed+m.Dropped == 0 {
		t.Fatal("the restarted worker decided nothing")
	}

	waitParked(t, eng)
	within(t, "Stop", eng.Stop)
	if m := eng.Metrics(); m.ParkedNs == 0 || m.Parks < 2*5 {
		t.Fatalf("parks %d, parked %v: two workers parked before each of five steps", m.Parks, time.Duration(m.ParkedNs))
	}
}

// TestBackpressureEpisodeClosesBeforePark: a ring-full storm followed by
// silence journals exactly one backpressure_on/off pair, the off edge
// before the worker parks. A refusal that reaches a worker already parked
// (an injected storm: nothing was enqueued, so no producer wakes it) must
// not leave its on edge dangling either.
func TestBackpressureEpisodeClosesBeforePark(t *testing.T) {
	set := testRules(t, 8)
	in := faults.New(1)
	tel := telemetry.New(telemetry.Config{Shards: 1, SampleEvery: 1, TraceEvery: -1, JournalSize: 256})
	gate := make(chan struct{})
	var inSink atomic.Bool
	eng, err := New(Config{
		Filters: testFilters(t, set, 1), RingSize: 8, Telemetry: tel, Faults: in,
		Sink: func(int, packet.Descriptor) { inSink.Store(true); <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	edges := func() (on, off int, last telemetry.EventType) {
		for _, ev := range tel.Journal().Events() {
			switch ev.Type {
			case telemetry.EvBackpressureOn:
				on, last = on+1, ev.Type
			case telemetry.EvBackpressureOff:
				off, last = off+1, ev.Type
			}
		}
		return
	}

	// Hold the worker in the sink (odd descriptors miss every rule and are
	// allowed), so the 8-slot ring fills behind it and stays full.
	descs := testDescriptors(t, set, 64)
	eng.Inject(descs[1])
	deadline := time.Now().Add(idleDeadline)
	for !inSink.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the worker never reached the sink")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for eng.Metrics().Backpressure == 0 {
		eng.InjectBatch(descs)
	}
	if on, off, _ := edges(); on != 1 || off != 0 {
		t.Fatalf("ring full behind a blocked worker: %d on, %d off", on, off)
	}
	close(gate)
	within(t, "WaitDrained after the storm", eng.WaitDrained)
	waitParked(t, eng)
	if on, off, last := edges(); on != 1 || off != 1 || last != telemetry.EvBackpressureOff {
		t.Fatalf("storm then silence: %d on, %d off, last %q; want exactly one pair", on, off, last)
	}
	// The idle gap the storm ended with is one dequeue_wait sample however
	// the worker spent it; the next burst closes it, parked time included.
	idleFor := 20 * time.Millisecond
	time.Sleep(idleFor)
	before := tel.StageSnapshot()[0][telemetry.StageDequeueWait]
	eng.InjectBatch(descs[:8])
	within(t, "WaitDrained after the idle gap", eng.WaitDrained)
	after := tel.StageSnapshot()[0][telemetry.StageDequeueWait]
	if n, ns := after.Count-before.Count, after.SumNS-before.SumNS; n == 0 || time.Duration(ns) < idleFor/2 {
		t.Fatalf("dequeue_wait over a parked gap of %v: %d samples, %v", idleFor, n, time.Duration(ns))
	}

	// Refusals against a parked worker.
	waitParked(t, eng)
	in.Enable(faults.RingFull, faults.Spec{Every: 1})
	if eng.Inject(descs[0]) {
		t.Fatal("injected ring-full storm accepted a descriptor")
	}
	in.Disable(faults.RingFull)
	waitParked(t, eng)
	if on, off, last := edges(); on != 2 || off != 2 || last != telemetry.EvBackpressureOff {
		t.Fatalf("refusal against a parked worker: %d on, %d off, last %q; want a second closed pair", on, off, last)
	}
}
