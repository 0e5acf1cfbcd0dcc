// Command bench is the repository's benchmark driver: four seeded
// workloads against the sharded engine, end-to-end figures from an
// untraced pass and a per-layer budget from a traced one. README.md in
// this directory defines every figure; ../BENCHMARK.json declares them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	short    bool
	spans    string
	decl     *declaration
}

// plan splits a run's measured time across its phases.
type plan struct {
	warm, sat, satTraced, rate time.Duration
	replayBursts               int
}

func (o *options) plan() plan {
	if o.short {
		d := 200 * time.Millisecond
		return plan{warm: d / 2, sat: d, satTraced: d, rate: d, replayBursts: 512}
	}
	s := time.Duration(o.seconds) * time.Second
	if o.trace != 0 {
		// A quarter of the time is left for the replay passes.
		return plan{warm: 2 * time.Second, sat: s * 25 / 100, satTraced: s * 10 / 100, rate: s * 40 / 100, replayBursts: replayBursts}
	}
	// Every end-to-end figure that is timed comes from the rate phase.
	return plan{warm: 2 * time.Second, rate: s}
}

// metricValue and result are the output contract: the last line of
// standard output is one result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: one of the four names, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for rules and packets, the run's only entropy besides the enclave keys")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass, prints the per-layer figures; 0: end-to-end figures")
	flag.BoolVar(&o.aa, "aa", false, "run each workload twice on this binary and compare the two within the bounds")
	flag.BoolVar(&o.short, "short", false, "200 ms phases: a smoke run, figures not meaningful")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1 and one workload: write the spans to this file as JSON lines")
	declPath := flag.String("decl", "", "path of BENCHMARK.json (default: in the working directory or its parent)")
	flag.Parse()
	var err error
	if o.decl, err = loadDeclaration(*declPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(out io.Writer, o options) error {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("need 2 CPUs (one generator thread, one shard worker), have %d with GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	var ws []*workload
	if o.workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		ws = append(ws, w)
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.aa && o.trace != 0 {
		return errors.New("-aa compares the end-to-end figures: use it with -trace 0")
	}
	if o.spans != "" && (o.trace == 0 || len(ws) != 1) {
		return errors.New("-spans needs -trace 1 and a single -workload")
	}

	host, _ := json.Marshal(readHost())
	fmt.Fprintf(out, "# host %s\n", host)
	// Under -aa each workload is run twice back to back, so that the two
	// runs being compared are a minute apart and not a whole pass: this
	// host's memory speed drifts by 10-20% over tens of minutes.
	var first, second []*result
	var err error
	for _, w := range ws {
		r, runErr := runWorkload(out, w, o)
		if runErr != nil {
			return fmt.Errorf("%s: %w", w.name, runErr)
		}
		if !r.Correct {
			err = errIncorrect
		}
		first = append(first, r)
		if o.aa {
			if r, runErr = runWorkload(out, w, o); runErr != nil {
				return fmt.Errorf("%s: %w", w.name, runErr)
			}
			second = append(second, r)
		}
	}
	if o.aa && !compareAA(out, o.decl.EndToEnd, ws, first, second) {
		return errors.New("A/A: the two runs of a workload disagree beyond the bounds")
	}
	return err
}

// runWorkload runs one workload start to finish and prints its result.
func runWorkload(out io.Writer, w *workload, o options) (*result, error) {
	b, err := newBench(w, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# workload %s seed %d pool_digest %s rate_mpps %g rules %dx%d\n",
		w.name, o.seed, b.digest, w.rateMpps, w.victims, w.rulesPerVictim)
	setupS, err := b.setup(o.short)
	if err != nil {
		return nil, err
	}
	defer func() { b.eng.Stop() }()
	b.check()

	pl := o.plan()
	warm := &phase{name: "warmup", dur: pl.warm, quiet: true}
	b.runPhase(warm)
	var m map[string]float64
	if o.trace == 0 {
		m = b.endToEndPass(pl, setupS, warm)
	} else if m, err = b.tracedPass(pl, o.spans); err != nil {
		return nil, err
	}

	r := &result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	decl := o.decl.EndToEnd
	if o.trace != 0 {
		decl = o.decl.PerLayer
	}
	for _, d := range decl {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "%-28s %14.4f %s\n", d.Name, v, d.Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return r, nil
}

// edges are the phase's first and last snapshots: whole-phase figures are
// differences between the two.
func (p *phase) edges() (first, last *snap) { return &p.snaps[0], &p.snaps[len(p.snaps)-1] }

// perWindow reduces a phase to the median over its windows of f applied
// to each window's two edge snapshots.
func (p *phase) perWindow(f func(a, b *snap) (float64, bool)) float64 {
	return windowMedian(p.windows(), func(i int) (float64, bool) { return f(&p.snaps[i], &p.snaps[i+1]) })
}

// mpps is packets processed per wall second between two snapshots, in Mpps.
func mpps(a, b *snap) (float64, bool) {
	return float64(b.m.Processed-a.m.Processed) / float64(b.t-a.t) * 1e3, b.t > a.t
}

// pastGate is the packets offered between two snapshots that the
// admission gate let through: deliberate throttling is not loss.
func pastGate(a, b *snap) float64 {
	return float64(b.offered-a.offered) - float64(b.m.Throttled-a.m.Throttled)
}

// lossFrac is the unintended refusals (ring backpressure, balancer and
// namespace drops) between two snapshots over the packets offered past the
// admission gate.
func lossFrac(a, b *snap) (float64, bool) {
	past := pastGate(a, b)
	return float64(b.refused()-a.refused()) / past, past > 0
}

// latencyWindows buckets the phase's latency samples, in µs, by the
// window their burst was due in.
func (p *phase) latencyWindows() [][]float64 {
	byWin := make([][]float64, p.windows())
	t0 := p.snaps[0].t
	for _, s := range p.lat {
		if w := int((s.due - t0) / int64(p.win)); w >= 0 && w < len(byWin) {
			byWin[w] = append(byWin[w], float64(s.lat)/1e3)
		}
	}
	return byWin
}

// windowQuantile is the median over windows of each window's q-quantile.
func windowQuantile(byWin [][]float64, q float64) float64 {
	return windowMedian(len(byWin), func(i int) (float64, bool) {
		return percentile(byWin[i], q), len(byWin[i]) > 0
	})
}

// countLoss books the rate phase's packets past the admission gate as
// attempted operations and every one the engine refused as a failed one:
// the whole phase, nothing filtered.
func (b *bench) countLoss(rate *phase) {
	first, last := rate.edges()
	b.attempted += uint64(pastGate(first, last))
	b.failed += last.refused() - first.refused()
}

func (b *bench) endToEndPass(pl plan, setupS float64, warm *phase) map[string]float64 {
	rate := &phase{name: "rate", dur: pl.rate, open: true}
	b.runPhase(rate)
	b.countLoss(rate)
	var epc float64
	for _, f := range b.filters {
		epc += float64(f.Enclave().MemoryUsed())
	}
	w0, w1 := warm.edges()
	r0, r1 := rate.edges()
	goodput, _ := mpps(r0, r1)
	return map[string]float64{
		"setup_s":            setupS,
		"goodput_mpps":       goodput,
		"cpu_ns_per_pkt":     float64((r1.procCPU-r0.procCPU)-(r1.genCPU-r0.genCPU)) / float64(r1.m.Processed-r0.m.Processed),
		"modeled_ns_per_pkt": (w1.virtualNs - w0.virtualNs) / float64(w1.m.Processed-w0.m.Processed),
		"epc_used_mb":        epc / (1 << 20),
	}
}

// compareAA prints, per workload and end-to-end figure, both runs'
// values, their relative difference and the bound, and reports whether
// every difference is within its bound and the failure rates agree.
func compareAA(out io.Writer, endToEnd []metric, ws []*workload, first, second []*result) bool {
	ok := true
	fmt.Fprintf(out, "# A/A %-14s %-20s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, w := range ws {
		a, b := first[i], second[i]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(out, "# A/A %-14s %-20s %12.4f %12.4f %8.4f %8.4f%s\n", w.name, d.Name, va, vb, diff, d.Bound, verdict)
		}
		fa, fb := float64(a.Failed)/float64(a.Attempted), float64(b.Failed)/float64(b.Attempted)
		if math.Abs(fa-fb) > 0.002 {
			fmt.Fprintf(out, "# A/A %-14s failed/attempted %.5f vs %.5f  EXCEEDS 0.002\n", w.name, fa, fb)
			ok = false
		}
	}
	return ok
}
