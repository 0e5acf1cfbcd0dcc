package module_test

import (
	"math/rand"
	"testing"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/engine/module/moduletest"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// confFilter builds a deterministic filter (k drop rules over the
// victim prefix, default-allow) for the conformance runs.
func confFilter(t *testing.T, k int) *filter.Filter {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	rs := make([]rules.Rule, k)
	dst := rules.MustParsePrefix("192.0.2.0/24")
	for i := range rs {
		rs[i] = rules.Rule{
			Src:   rules.Prefix{Addr: rng.Uint32(), Len: 24}.Canonical(),
			Dst:   dst,
			Proto: packet.ProtoUDP,
		}
	}
	set, err := rules.NewSet(rs, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "conformance", BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	f, err := filter.New(e, set, filter.Config{DisablePromotion: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// seq composes sub-modules in order, the way a chain would, so the
// harness can exercise the full classify→sketch→charge data path as one
// unit (sketch and charge consume the burst classify staged).
type seq struct{ mods []module.Module }

func (s *seq) Name() string { return "seq" }
func (s *seq) ProcessBurst(ctx *module.BurstCtx) {
	for _, m := range s.mods {
		m.ProcessBurst(ctx)
	}
}
func (s *seq) Flush() {
	for _, m := range s.mods {
		m.Flush()
	}
}

// nop is the minimal conforming module: observes nothing, touches
// nothing.
type nop struct{}

func (nop) Name() string                  { return "nop" }
func (nop) ProcessBurst(*module.BurstCtx) {}
func (nop) Flush()                        {}

// panicky fails on odd-sized bursts, modeling a module bug the worker
// supervisor must absorb as faulted packets.
type panicky struct{}

func (panicky) Name() string { return "panicky" }
func (panicky) ProcessBurst(ctx *module.BurstCtx) {
	if ctx.Len()%2 == 1 {
		panic("panicky: injected module failure")
	}
}
func (panicky) Flush() {}

// TestConformance runs the moduletest property suite over every shipped
// module (and a few adversarial ones), one table entry each — the same
// single-entry cost a third-party module pays.
func TestConformance(t *testing.T) {
	t.Run("classify", func(t *testing.T) {
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				return &module.Classify{F: confFilter(t, 64)}
			},
			VerdictStage: true,
			PreMask:      true,
		})
	})

	t.Run("sketch", func(t *testing.T) {
		// Standalone (nothing staged): must be a verdict-neutral no-op.
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				return &module.Sketch{F: confFilter(t, 8)}
			},
			VerdictNeutral: true,
			PreVerdict:     true,
			PreMask:        true,
		})
	})

	t.Run("charge", func(t *testing.T) {
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				return &module.Charge{F: confFilter(t, 8)}
			},
			VerdictNeutral: true,
			PreVerdict:     true,
			PreMask:        true,
		})
	})

	t.Run("classify+sketch+charge", func(t *testing.T) {
		// The full default chain as one unit: sketch and charge apply the
		// burst classify staged, so filter stats and the enclave meter
		// advance. Observe proves the applied state is copies, not
		// references into the burst arena.
		var f *filter.Filter
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				f = confFilter(t, 64)
				return &seq{mods: []module.Module{
					&module.Classify{F: f},
					&module.Sketch{F: f},
					&module.Charge{F: f},
				}}
			},
			Observe: func(module.Module) any {
				return struct {
					Stats filter.Stats
					Mem   int
				}{f.Stats(), f.Enclave().Meter().MemoryUsed}
			},
			VerdictStage: true,
			PreMask:      true,
		})
		if f.Stats().Processed == 0 {
			t.Fatal("composite chain processed nothing through the filter")
		}
	})

	t.Run("admission-uncapped", func(t *testing.T) {
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				return &module.Admission{Take: func(n int) int { return n }}
			},
			VerdictNeutral: true,
			PreVerdict:     true,
			PreMask:        true,
		})
	})

	t.Run("admission-capped", func(t *testing.T) {
		var throttled int
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				return &module.Admission{
					Take:       func(n int) int { return min(n, 11) },
					OnThrottle: func(refused int) { throttled += refused },
				}
			},
			PreVerdict: true,
			PreMask:    true,
		})
		if throttled == 0 {
			t.Fatal("capped admission never throttled — workload never exceeded the cap")
		}
	})

	t.Run("capture", func(t *testing.T) {
		var tap *module.Capture
		moduletest.Run(t, moduletest.Config{
			New: func(t *testing.T) module.Module {
				tap = module.NewCapture(3, 16)
				return tap
			},
			Observe: func(module.Module) any {
				return struct {
					Total uint64
					Snap  []module.CapturedPacket
				}{tap.Captured(), tap.Snapshot()}
			},
			VerdictNeutral: true,
			PreVerdict:     true,
			PreMask:        true,
		})
		if tap.Captured() == 0 {
			t.Fatal("capture tap sampled nothing")
		}
	})

	t.Run("nop", func(t *testing.T) {
		moduletest.Run(t, moduletest.Config{
			New:            func(*testing.T) module.Module { return nop{} },
			VerdictNeutral: true,
			PreVerdict:     true,
			PreMask:        true,
		})
	})

	t.Run("panicky", func(t *testing.T) {
		// A buggy module's panics must fold into faulted without breaking
		// the accounting identity.
		moduletest.Run(t, moduletest.Config{
			New: func(*testing.T) module.Module { return panicky{} },
		})
	})
}
