package filter

import (
	"maps"
	"math/rand"
	"testing"

	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// fuzzChainRule draws a rule from a small nested prefix space (/8, /16 and
// /24 sources over two /8s) so rules overlap and first-match order — the
// thing the priority allocator must preserve — actually decides verdicts.
func fuzzChainRule(rng *rand.Rand, id uint32) rules.Rule {
	lens := [...]uint8{8, 16, 24, 24}
	pAllows := [...]float64{0, 1, 0.5, 0}
	addr := uint32(10+rng.Intn(2))<<24 | uint32(rng.Intn(4))<<16 | uint32(rng.Intn(4))<<8
	return rules.Rule{
		ID:     id,
		Src:    rules.Prefix{Addr: addr, Len: lens[rng.Intn(len(lens))]}.Canonical(),
		Dst:    rules.MustParsePrefix("192.0.2.0/24"),
		Proto:  packet.ProtoUDP,
		PAllow: pAllows[rng.Intn(len(pAllows))],
	}
}

// chainProgram encodes a delta chain for FuzzReconfigureDeltaChain: per
// step one byte of removes (mod 17), one byte of adds (mod 17), then one
// index byte per remove (taken modulo the shrinking live list).
func chainProgram(steps int, step func(i int) (removes []byte, adds int)) []byte {
	var prog []byte
	for i := 0; i < steps; i++ {
		removes, adds := step(i)
		prog = append(prog, byte(len(removes)), byte(adds))
		prog = append(prog, removes...)
	}
	return prog
}

// FuzzReconfigureDeltaChain is the guard on the filter's priority
// allocator: an arbitrary chain of add/remove deltas must leave the filter
// indistinguishable from a fresh Reconfigure of the same successor set —
// same decisions, same rule-memory weight — while survivors keep their
// byte counters, the sparse priority domain stays within densifyFactor of
// the live rules, and priorities stay strictly increasing in installed
// order and are the ones Explain reports.
func FuzzReconfigureDeltaChain(f *testing.F) {
	// The shapes of TestReconfigureDeltaMatchesFullRebuild (30 steps of ≤2
	// removes and ≤3 adds at random positions) and
	// TestReconfigureDeltaDensifyBound (16-for-16 churn of the newest
	// rules, which crosses the densify bound every other round).
	rng := rand.New(rand.NewSource(91))
	f.Add(int64(91), uint8(63), chainProgram(30, func(int) ([]byte, int) {
		removes := make([]byte, rng.Intn(3))
		for i := range removes {
			removes[i] = byte(rng.Intn(256))
		}
		return removes, rng.Intn(4)
	}))
	f.Add(int64(23), uint8(31), chainProgram(40, func(i int) ([]byte, int) {
		if i == 0 {
			return nil, 16
		}
		removes := make([]byte, 16)
		for j := range removes {
			removes[j] = byte(47 - j) // the previous round's adds
		}
		return removes, 16
	}))
	f.Add(int64(1), uint8(0), []byte{0, 1, 1, 0, 0})

	f.Fuzz(func(t *testing.T, seed int64, initial uint8, prog []byte) {
		const maxLive, maxSteps = 128, 64
		rng := rand.New(rand.NewSource(seed))
		nextID := uint32(1)
		var live []rules.Rule
		for i := 0; i < int(initial)%maxLive+1; i++ {
			live = append(live, fuzzChainRule(rng, nextID))
			nextID++
		}
		set, err := rules.NewSet(live, true)
		if err != nil {
			t.Fatal(err)
		}
		encl := testEnclave(t) // shared: both filters hash with one secret
		deltaF, err := New(encl, set, Config{DisablePromotion: true})
		if err != nil {
			t.Fatal(err)
		}
		oracleF, err := New(encl, set, Config{DisablePromotion: true})
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := map[uint32]uint64{}

		for step := 0; step < maxSteps && len(prog) >= 2; step++ {
			nRemoves, nAdds := int(prog[0])%17, int(prog[1])%17
			prog = prog[2:]
			var removes []rules.Rule
			for ; nRemoves > 0 && len(prog) > 0 && len(live) > 1; nRemoves-- {
				j := int(prog[0]) % len(live)
				prog = prog[1:]
				removes = append(removes, live[j])
				delete(wantBytes, live[j].ID)
				live = append(live[:j:j], live[j+1:]...)
			}
			var adds []rules.Rule
			for ; nAdds > 0 && len(live)+len(adds) < maxLive; nAdds-- {
				adds = append(adds, fuzzChainRule(rng, nextID))
				nextID++
			}
			live = append(live, adds...)

			if err := deltaF.ReconfigureDelta(Delta{Adds: adds, Removes: removes}); err != nil {
				t.Fatalf("step %d: ReconfigureDelta: %v", step, err)
			}
			if len(adds)+len(removes) > 0 {
				// A non-empty delta resynced the shared enclave's meter; check
				// before the oracle's Reconfigure resyncs it again.
				checkMeterIdentity(t, deltaF, "after delta")
			}
			oracleSet, err := rules.NewSet(live, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracleF.Reconfigure(oracleSet, nil); err != nil {
				t.Fatalf("step %d: Reconfigure: %v", step, err)
			}
			if got, want := deltaF.RuleMemoryBytes(), oracleF.RuleMemoryBytes(); got != want {
				t.Fatalf("step %d: RuleMemoryBytes %d, oracle %d", step, got, want)
			}

			view := deltaF.view.Load()
			n := view.set.Len()
			if n != len(live) {
				t.Fatalf("step %d: %d rules installed, want %d", step, n, len(live))
			}
			if domain := int(view.maxPrio) + 1; domain > densifyFactor*n || domain != len(deltaF.ruleBytes) {
				t.Fatalf("step %d: priority domain %d (ruleBytes %d) for %d rules", step, domain, len(deltaF.ruleBytes), n)
			}
			for i := 0; i < n; i++ {
				if view.set.Rules[i].ID != live[i].ID {
					t.Fatalf("step %d: rule %d is id %d, want %d", step, i, view.set.Rules[i].ID, live[i].ID)
				}
				if p := view.prio(i); p > view.maxPrio || (i > 0 && p <= view.prio(i-1)) {
					t.Fatalf("step %d: prio(%d) = %d after %d (max %d): not strictly increasing", step, i, p, view.prio(i-1), view.maxPrio)
				}
			}
			if got := deltaF.RuleBytes(false); !maps.Equal(got, wantBytes) {
				t.Fatalf("step %d: RuleBytes after delta = %v, want %v", step, got, wantBytes)
			}

			// One probe inside every rule's source prefix, plus strays.
			for i := 0; i <= n; i++ {
				tuple := packet.FiveTuple{
					SrcIP: rng.Uint32(), DstIP: packet.MustParseIP("192.0.2.9"),
					SrcPort: uint16(rng.Intn(60000) + 1), DstPort: 53, Proto: packet.ProtoUDP,
				}
				if i < n {
					r := &view.set.Rules[i]
					tuple.SrcIP = r.Src.Addr | (tuple.SrcIP &^ r.Src.Mask())
				}
				if got, want := deltaF.Decision(tuple), oracleF.Decision(tuple); got != want {
					t.Fatalf("step %d: Decision %v, oracle %v for %v", step, got, want, tuple)
				}
				first := -1
				for j := range view.set.Rules {
					if view.set.Rules[j].Matches(tuple) {
						first = j
						break
					}
				}
				_, prio, source := deltaF.Explain(tuple)
				if first < 0 {
					if source != "default" || prio != -1 {
						t.Fatalf("step %d: Explain(%v) = (%d, %s), want the default action", step, tuple, prio, source)
					}
					continue
				}
				if source != "rule" || prio != view.prio(first) {
					t.Fatalf("step %d: Explain(%v) = (%d, %s), want rule %d at prio %d", step, tuple, prio, source, first, view.prio(first))
				}
				deltaF.Process(desc(tuple, 100))
				wantBytes[view.set.Rules[first].ID] += 100
			}
		}
	})
}
