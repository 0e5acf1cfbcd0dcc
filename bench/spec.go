package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/innetworkfiltering/vif/internal/engine"
)

// metric is one declared benchmark figure.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// figure may worsen before it counts as a regression (and by which two
	// passes of one binary may differ under -aa). Per-layer figures have
	// none.
	Bound float64 `json:"bound"`
}

// declaration is BENCHMARK.json at the root of the repository, the one
// place the figures' names, units, directions and bounds are written. The
// program reads it at start-up and prints exactly what it declares;
// README.md defines each figure.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// loadDeclaration reads BENCHMARK.json from path, or, with no path given,
// from the working directory or its parent (the repository root, when the
// program is run or tested from bench/). It refuses a declaration whose
// workloads are not the ones this program runs.
func loadDeclaration(path string) (*declaration, error) {
	var raw []byte
	var err error
	if path != "" {
		raw, err = os.ReadFile(path)
	} else if raw, err = os.ReadFile("BENCHMARK.json"); errors.Is(err, fs.ErrNotExist) {
		raw, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(d.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	return &d, nil
}

// burstSize is the generator's InjectBatch size, the same as the engine's
// worker burst.
const burstSize = engine.DefaultBatch

// checkPackets is how many pool descriptors the lossless check phase
// injects and compares against the reference.
const checkPackets = 64 << 10

// churnFrac is the share of a victim's rules one update replaces.
const churnFrac = 0.01

// workload is one seeded traffic mix. Rules and descriptor pools are
// generated from the seed before the clock starts; the engine only ever
// sees descriptors.
type workload struct {
	name string
	// rateMpps is the fixed open-loop offered rate, about half of the
	// reference host's saturation rate. It is a constant, never derived from a
	// measurement of the same run.
	rateMpps float64

	victims        int
	rulesPerVictim int
	pAllow         float64 // action of every rule: 1 allow, 0 drop, between: hashed
	poolSize       int     // descriptors, a multiple of burstSize
	train          int     // consecutive packets per flow
	matchFrac      float64 // share of flows drawn from inside a rule
	nsRun          int     // packets per namespace run (multi-victim only)

	// cappedVictim has its admission capped at a tenth of its offered
	// share (-1: admission control off).
	cappedVictim int

	// Control-plane operations that run beside the traffic in the sat and
	// rate phases, each round-robin over the victims: a 1% add+remove rule
	// delta every updateEvery, one RotateEpoch every rotateEvery. Zero: the
	// workload has no such operation.
	updateEvery, rotateEvery time.Duration
}

// workloads are chosen to pull the layers apart; README.md gives the
// reasoning per workload, BENCHMARK.json the one-line version.
var workloads = []workload{
	{
		name: "train_allow", rateMpps: 6.0,
		victims: 1, rulesPerVictim: 3000, pAllow: 1,
		poolSize: 64 << 10, train: 4, matchFrac: 1, cappedVictim: -1,
	},
	{
		name: "flood_drop", rateMpps: 1.5,
		victims: 1, rulesPerVictim: 100000, pAllow: 0,
		poolSize: 1 << 20, train: 1, matchFrac: 0.8, cappedVictim: -1,
	},
	{
		name: "hash_promote", rateMpps: 5.0,
		victims: 1, rulesPerVictim: 3000, pAllow: 0.5,
		poolSize: 64 << 10, train: 2, matchFrac: 1, cappedVictim: -1,
		rotateEvery: 500 * time.Millisecond,
	},
	{
		name: "churn_multi", rateMpps: 3.5,
		victims: 8, rulesPerVictim: 3000, pAllow: 0,
		poolSize: 128 << 10, train: 4, matchFrac: 0.5, nsRun: 16,
		cappedVictim: 7,
		updateEvery:  50 * time.Millisecond,
		rotateEvery:  125 * time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
