// Command vif-filter runs a standalone VIF filter node: one simulated SGX
// enclave hosting the auditable filter, fed by synthetic attack traffic,
// reporting throughput, verdict counters, and authenticated log digests.
//
// It is the single-box demonstrator of the paper's §V testbed:
//
//	vif-filter -rules rules.txt -pps 2000000 -duration 5s
//	vif-filter -rules rules.txt -mode full-copy -size 64
//
// With -shards N it instead runs the live concurrent engine of §IV-B: N
// enclave shards behind MPSC rings, fed by -producers generator threads
// through a uniform load-balancer programme, with per-shard metrics, the
// aggregate modeled fleet capacity, and an end-of-run epoch rotation whose
// authenticated per-shard log digests are printed:
//
//	vif-filter -rules rules.txt -shards 4 -producers 2 -duration 2s
//
// The rules file uses the textual rule form, one per line, with an
// optional leading "default allow|drop" line:
//
//	default allow
//	drop udp from 10.0.0.0/8 to 192.0.2.0/24 dport 53
//	drop 50% tcp from any to 192.0.2.0/24 dport 80
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/engine"
	"github.com/innetworkfiltering/vif/internal/engine/module"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/lb"
	"github.com/innetworkfiltering/vif/internal/netsim"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/pipeline"
	"github.com/innetworkfiltering/vif/internal/rules"
	"github.com/innetworkfiltering/vif/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vif-filter:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vif-filter", flag.ContinueOnError)
	var (
		rulesPath = fs.String("rules", "", "path to rules file (default: built-in demo rules)")
		ruleShape = fs.String("rule-shape", "", "synthesize the rule set in a named workload shape: "+shapeNames+" (overrides -rules)")
		ruleCount = fs.Int("rule-count", 1000, "rules to synthesize for -rule-shape")
		modeStr   = fs.String("mode", "near-zero-copy", "data path: native | full-copy | near-zero-copy")
		size      = fs.Int("size", 64, "frame size in bytes")
		duration  = fs.Duration("duration", 2*time.Second, "how long to generate traffic")
		seed      = fs.Int64("seed", 1, "traffic generator seed")
		shards    = fs.Int("shards", 0, "run the live sharded engine with this many enclaves (0: classic single-enclave pipeline)")
		producers = fs.Int("producers", 2, "engine mode: concurrent traffic-generator goroutines")
		victims   = fs.Int("victims", 1, "engine mode: serve this many victim namespaces (distinct rule sets, per-victim traffic mixes) through one shared engine")
		overload  = fs.Bool("overload", false, "engine mode: overload scenario — one flooded, admission-capped victim (-attack-pps) shares the engine with -victims quiet namespaces; prints per-victim admit/throttle/drop SLO lines")
		attackPps = fs.Float64("attack-pps", 50000, "overload mode: the attacked victim's admitted-rate cap in packets/s")
		churn     = fs.Duration("churn", 0, "engine mode: push a live rule delta (add/remove a batch) at this interval while traffic runs (0: off)")
		churnN    = fs.Int("churn-rules", 64, "engine mode: rules added (and, after the first delta, removed) per -churn reinstall")
		captureS  = fs.String("capture", "", "engine mode: pdump-style sampled capture tap on every shard's burst chain — \"1/N\" records one packet in N with its flow key and verdict (e.g. 1/64; empty: off)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /events, /traces and /debug/pprof on this address (e.g. :9090; empty: off)")
		statsIvl  = fs.Duration("stats-interval", 0, "print a periodic stats line from the live metrics snapshot at this interval (0: off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	oc := obsConfig{metricsAddr: *metrics, statsInterval: *statsIvl}
	captureEvery, err := parseCapture(*captureS)
	if err != nil {
		return err
	}

	var set *rules.Set
	if *ruleShape != "" {
		if *rulesPath != "" {
			fmt.Fprintln(out, "note: -rule-shape synthesizes the rule set; -rules is ignored")
		}
		set, err = shapeRules(*ruleShape, *ruleCount, *seed)
	} else {
		set, err = loadRules(*rulesPath)
	}
	if err != nil {
		return err
	}
	mode, err := parseMode(*modeStr)
	if err != nil {
		return err
	}
	if *shards < 0 || *producers < 1 || *victims < 1 {
		return fmt.Errorf("bad -shards %d / -producers %d / -victims %d", *shards, *producers, *victims)
	}
	if captureEvery > 0 && *shards == 0 {
		return fmt.Errorf("-capture needs the engine: pass -shards N")
	}
	if captureEvery > 0 && (*overload || *victims > 1) {
		fmt.Fprintln(out, "note: -capture applies to the single-victim engine mode; ignored here")
	}
	if *overload {
		if *shards == 0 {
			return fmt.Errorf("-overload needs the engine: pass -shards N")
		}
		if *attackPps <= 0 {
			return fmt.Errorf("bad -attack-pps %v", *attackPps)
		}
		if *rulesPath != "" || *ruleShape != "" {
			fmt.Fprintln(out, "note: -overload synthesizes one rule set per victim; -rules/-rule-shape are ignored")
		}
		if *churn > 0 {
			fmt.Fprintln(out, "note: -churn applies to the single-victim engine mode; ignored with -overload")
		}
		return runOverload(out, mode, *shards, *producers, *victims, *size, *duration, *seed, oc, *attackPps)
	}
	if *victims > 1 {
		if *shards == 0 {
			return fmt.Errorf("-victims %d needs the engine: pass -shards N", *victims)
		}
		if *rulesPath != "" || *ruleShape != "" {
			fmt.Fprintln(out, "note: -victims synthesizes one rule set per victim; -rules/-rule-shape are ignored")
		}
		if *churn > 0 {
			fmt.Fprintln(out, "note: -churn applies to the single-victim engine mode; ignored with -victims")
		}
		return runMultiVictim(out, mode, *shards, *producers, *victims, *size, *duration, *seed, oc)
	}
	if *churn > 0 && *shards == 0 {
		return fmt.Errorf("-churn needs the engine: pass -shards N")
	}
	if *shards > 0 {
		return runEngine(out, set, mode, *shards, *producers, *size, *duration, *seed, *churn, *churnN, oc, *ruleShape, captureEvery)
	}

	e, err := enclave.New(enclave.CodeIdentity{
		Name: "vif-filter", Version: "1.0.0", Config: *modeStr, BinarySize: 1 << 20,
	}, enclave.DefaultCostModel())
	if err != nil {
		return err
	}
	f, err := filter.New(e, set, filter.Config{Mode: mode})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "enclave %d measurement %x\n", e.ID(), e.Measurement())
	fmt.Fprintf(out, "rules: %d, default %s, mode %s\n",
		set.Len(), defaultWord(set.DefaultAllow), mode)

	p, err := pipeline.New(f, nil, pipeline.Config{})
	if err != nil {
		return err
	}
	if err := p.Start(); err != nil {
		return err
	}
	defer p.Stop()

	// Observability for the classic single-enclave pipeline: the pipeline's
	// counters publish through the same collector/exposition machinery the
	// engine uses (no shard histograms here — no shards).
	if oc.metricsAddr != "" {
		tel := telemetry.New(telemetry.Config{})
		tel.Register(telemetry.CollectorFunc(p.Collect))
		closeTel, err := serveTelemetry(out, tel, oc.metricsAddr)
		if err != nil {
			return err
		}
		defer closeTel()
	}
	stopStats := startStats(out, oc.statsInterval, p.String)
	defer stopStats()

	gen := netsim.NewFlowGen(*seed, victimBase(set), 24)
	frame := make([]byte, *size)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	injected := 0
	for time.Now().Before(deadline) {
		for burst := 0; burst < 256; burst++ {
			packet.SynthesizeInto(frame, gen.Next())
			if p.Inject(frame) {
				injected++
			}
		}
	}
	p.WaitDrained()
	stopStats()
	elapsed := time.Since(start)

	c := p.Counters()
	st := f.Stats()
	pps := float64(c.RxPackets) / elapsed.Seconds()
	fmt.Fprintf(out, "\nwall-clock: %v, injected %d frames (%.2f Mpps, %.2f Gb/s at %dB)\n",
		elapsed.Round(time.Millisecond), injected, pps/1e6,
		pipeline.ThroughputBps(pps, *size)/1e9, *size)
	fmt.Fprintf(out, "verdicts: allowed %d, dropped %d (rule hits %d, hash evals %d, default %d)\n",
		st.Allowed, st.Dropped, st.RuleHits, st.Hashed, st.DefaultHits)
	if *ruleShape != "" {
		idxB, setB, build := f.ClassifierStats()
		fmt.Fprintf(out, "%s\n", shapeStatsLine(*ruleShape, set.Len(), st, idxB, setB, build))
	}
	fmt.Fprintf(out, "modeled enclave time: %.0f ns/pkt; EPC in use: %.1f MB\n",
		e.VirtualNs()/float64(st.Processed), float64(e.MemoryUsed())/1e6)

	for _, kind := range []filter.LogKind{filter.LogIncoming, filter.LogOutgoing} {
		snap, err := f.Snapshot(kind, 1)
		if err != nil {
			return err
		}
		digest := sha256.Sum256(snap.Data)
		fmt.Fprintf(out, "%s log: %d bytes, digest %x..., MAC %x...\n",
			kind, len(snap.Data), digest[:8], snap.MAC[:8])
	}
	return nil
}

func loadRules(path string) (*rules.Set, error) {
	if path == "" {
		return rules.NewSet([]rules.Rule{
			rules.MustParse("drop udp from any to 192.0.2.0/24 dport 53"),
			rules.MustParse("drop 50% tcp from any to 192.0.2.0/24 dport 80"),
		}, true)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseRulesFile(string(text))
}

// parseRulesFile accepts plain one-rule-per-line files with an optional
// "default allow|drop" first line and # comments.
func parseRulesFile(text string) (*rules.Set, error) {
	defaultAllow := true
	var rs []rules.Rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "default ") {
			switch strings.TrimPrefix(line, "default ") {
			case "allow":
				defaultAllow = true
			case "drop":
				defaultAllow = false
			default:
				return nil, fmt.Errorf("line %d: bad default %q", i+1, line)
			}
			continue
		}
		r, err := rules.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		rs = append(rs, r)
	}
	return rules.NewSet(rs, defaultAllow)
}

// parseCapture reads the -capture sampling spec "1/N" (one packet in N),
// returning N, or 0 for the empty (disabled) spec.
func parseCapture(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "1/%d", &n); err != nil || n < 1 {
		return 0, fmt.Errorf("bad -capture %q: want 1/N with N >= 1", s)
	}
	return n, nil
}

func parseMode(s string) (filter.CopyMode, error) {
	switch s {
	case "native":
		return filter.CopyModeNative, nil
	case "full-copy":
		return filter.CopyModeFull, nil
	case "near-zero-copy":
		return filter.CopyModeNearZero, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// obsConfig carries the observability flags every run shape honours.
type obsConfig struct {
	metricsAddr   string
	statsInterval time.Duration
}

// buildTelemetry sizes a telemetry registry for an engine run, or returns
// nil when no observability endpoint was requested (the hot path then pays
// only nil checks).
func (oc obsConfig) buildTelemetry(shards int) *telemetry.Telemetry {
	if oc.metricsAddr == "" {
		return nil
	}
	return telemetry.New(telemetry.Config{Shards: shards})
}

// serveTelemetry binds the -metrics-addr HTTP server around tel and
// returns its closer. No-op when addr is empty or tel is nil.
func serveTelemetry(out io.Writer, tel *telemetry.Telemetry, addr string) (func(), error) {
	if addr == "" || tel == nil {
		return func() {}, nil
	}
	srv, err := telemetry.NewServer(tel, addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "telemetry: serving /metrics, /events, /traces, /debug/pprof on %s\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// startStats prints one stats line per interval from the same live
// snapshot path /metrics scrapes, until the returned stop function runs.
func startStats(out io.Writer, every time.Duration, line func() string) func() {
	if every <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(out, "stats: %s\n", line())
			case <-stop:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); wg.Wait() }
}

func defaultWord(allow bool) string {
	if allow {
		return "allow"
	}
	return "drop"
}

// parkedPct is the share of the run a shard's worker spent parked at the
// end of its idle ladder — how far below saturation the shard ran.
func parkedPct(sm engine.ShardMetrics, elapsed time.Duration) float64 {
	return 100 * float64(sm.ParkedNs) / float64(elapsed)
}

// victimBase picks the destination prefix traffic should target: the first
// rule's destination, falling back to TEST-NET-1.
func victimBase(set *rules.Set) uint32 {
	for _, r := range set.Rules {
		if !r.Dst.IsAny() {
			return r.Dst.Addr
		}
	}
	return packet.MustParseIP("192.0.2.0")
}

// runEngine drives the live sharded engine: n enclave shards (each holding
// the full rule set) behind a uniform load-balancer programme, fed by
// `producers` concurrent flow generators for `duration`. With churnEvery
// > 0 a control-plane goroutine concurrently exercises the live
// delta-reconfigure path: every interval it pushes a changeset adding
// churnN fresh drop rules and removing the previous interval's batch
// (Engine.ReconfigureNamespaceDelta — applied by the shard workers at
// batch boundaries, so the data plane never stops), and the reinstall
// latencies are reported at the end.
func runEngine(out io.Writer, set *rules.Set, mode filter.CopyMode, n, producers, size int, duration time.Duration, seed int64, churnEvery time.Duration, churnN int, oc obsConfig, ruleShape string, captureEvery int) error {
	filters := make([]*filter.Filter, n)
	for i := range filters {
		e, err := enclave.New(enclave.CodeIdentity{
			Name: "vif-filter", Version: "1.0.0", Config: fmt.Sprintf("shard=%d/%d", i, n), BinarySize: 1 << 20,
		}, enclave.DefaultCostModel())
		if err != nil {
			return err
		}
		f, err := filter.New(e, set, filter.Config{Mode: mode})
		if err != nil {
			return err
		}
		filters[i] = f
	}

	// Uniform rule shares: every shard serves 1/n of each rule's flows —
	// the lb programme a fresh deployment starts from before any traffic
	// measurements skew the distribution.
	shares := make(map[uint32][]float64, set.Len())
	for _, r := range set.Rules {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1 / float64(n)
		}
		shares[r.ID] = row
	}
	bal, err := lb.New(lb.Config{FullSet: set, Shares: shares, N: n})
	if err != nil {
		return err
	}

	tel := oc.buildTelemetry(n)
	// The capture taps ride the burst-module chain, one worker-owned
	// instance per shard, appended after the core stages so each sampled
	// packet records its verdict.
	var taps []*module.Capture
	var modulesFn func(shard int) []module.Module
	if captureEvery > 0 {
		taps = make([]*module.Capture, n)
		modulesFn = func(shard int) []module.Module {
			taps[shard] = module.NewCapture(captureEvery, module.DefaultCaptureBuf)
			return []module.Module{taps[shard]}
		}
	}
	eng, err := engine.New(engine.Config{
		Filters: filters, Route: bal.Route, RouteBatch: bal.RouteBatch,
		Telemetry: tel, Modules: modulesFn,
	})
	if err != nil {
		return err
	}
	closeTel, err := serveTelemetry(out, tel, oc.metricsAddr)
	if err != nil {
		return err
	}
	defer closeTel()
	if err := eng.Start(); err != nil {
		return err
	}
	stopStats := startStats(out, oc.statsInterval, func() string { return eng.Metrics().String() })
	defer stopStats()
	fmt.Fprintf(out, "engine: %d shards, %d producers, rules %d, mode %s\n",
		n, producers, set.Len(), mode)
	fmt.Fprintf(out, "measurement %x (all shards load the same identity)\n",
		filters[0].Enclave().Measurement())

	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := netsim.NewFlowGen(seed+int64(p), victimBase(set), 24)
			// Burst-first producer loop: synthesize a 256-descriptor burst,
			// then hand it to the engine in one InjectBatch call — one
			// routing pass and one ring reservation per (shard, burst)
			// instead of per packet. Unaccepted descriptors were dropped by
			// the balancer or a full ring (counted as lb drops or
			// backpressure), as a NIC drops on ring overflow.
			burst := make([]packet.Descriptor, 256)
			for time.Now().Before(deadline) {
				gen.DescriptorsInto(burst, size)
				eng.InjectBatch(burst)
			}
		}(p)
	}

	// Live churn: the victim keeps re-installing rules mid-attack while the
	// producers hammer the rings — the paper's §IV requirement that rule
	// updates never stall the enclave data path, exercised for real.
	var (
		churnCount int
		churnTotal time.Duration
		churnMax   time.Duration
	)
	if churnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := victimBase(set)
			var prev []rules.Rule
			nextID := uint32(1 << 20)
			for round := 0; ; round++ {
				time.Sleep(churnEvery)
				if !time.Now().Before(deadline) {
					return
				}
				adds := make([]rules.Rule, churnN)
				for i := range adds {
					// Fresh /24 source prefixes per round: some overlap the
					// generators' source space, so a slice of the live
					// traffic genuinely changes fate each reinstall.
					adds[i] = rules.Rule{
						ID:    nextID,
						Src:   rules.Prefix{Addr: uint32(round*churnN+i) << 8, Len: 24},
						Dst:   rules.Prefix{Addr: base, Len: 24},
						Proto: packet.ProtoUDP,
					}
					nextID++
				}
				d := filter.Delta{Adds: adds, Removes: prev}
				deltas := make([]filter.Delta, n)
				for i := range deltas {
					deltas[i] = d // every shard holds the full set here
				}
				t0 := time.Now()
				if err := eng.ReconfigureNamespaceDelta(0, deltas, nil, nil); err != nil {
					fmt.Fprintf(out, "churn round %d failed: %v\n", round, err)
					return
				}
				lat := time.Since(t0)
				churnCount++
				churnTotal += lat
				if lat > churnMax {
					churnMax = lat
				}
				prev = adds
			}
		}()
	}
	wg.Wait()
	eng.WaitDrained()
	stopStats()
	elapsed := time.Since(start)

	m := eng.Metrics()
	fmt.Fprintf(out, "\nwall-clock: %v, accepted %d descriptors (%.2f Mpps aggregate)\n",
		elapsed.Round(time.Millisecond), m.Accepted, m.PPS/1e6)
	fmt.Fprintf(out, "verdicts: allowed %d, dropped %d; backpressure drops %d\n",
		m.Allowed, m.Dropped, m.Backpressure)
	fmt.Fprintf(out, "aggregate modeled fleet capacity: %.2f Mpps (%.2f Gb/s at %dB) — §IV-B scaling\n",
		eng.AggregateModeledPps(size)/1e6,
		pipeline.ThroughputBps(eng.AggregateModeledPps(size), size)/1e9, size)
	for _, sm := range m.Shards {
		fmt.Fprintf(out, "  shard %d: processed %d (%.2f Mpps), allowed %d, dropped %d, backpressure %d, queue %d, avg batch %.1f, parked %.0f%%, %.0f ns/pkt modeled\n",
			sm.Shard, sm.Processed, sm.PPS/1e6, sm.Allowed, sm.Dropped, sm.Backpressure, sm.QueueDepth, sm.AvgBatch, parkedPct(sm, m.Elapsed), sm.NsPerPacket)
	}
	fmt.Fprintf(out, "lb drops: %d (balancer discards, before any shard)\n", m.LBDrops)
	if captureEvery > 0 {
		var captured uint64
		for _, tap := range taps {
			captured += tap.Captured()
		}
		fmt.Fprintf(out, "capture: sampled %d of %d processed (1/%d per shard)\n",
			captured, m.Processed, captureEvery)
		for shard, tap := range taps {
			snap := tap.Snapshot()
			if len(snap) == 0 {
				continue
			}
			last := snap[len(snap)-1]
			fmt.Fprintf(out, "  shard %d: %d sampled, ring %d; newest: %s verdict=%s size=%dB\n",
				shard, tap.Captured(), len(snap), last.Flow, last.Verdict, last.Size)
		}
	}
	if ruleShape != "" {
		// Aggregate the per-shard filter counters so shaped engine runs end
		// with the same comparable verdict line the classic pipeline prints.
		var agg filter.Stats
		var aggIdx, aggSets int
		var maxBuild time.Duration
		for _, f := range filters {
			st := f.Stats()
			agg.Allowed += st.Allowed
			agg.Dropped += st.Dropped
			agg.RuleHits += st.RuleHits
			agg.ExactHits += st.ExactHits
			agg.DefaultHits += st.DefaultHits
			idxB, setB, build := f.ClassifierStats()
			aggIdx += idxB
			aggSets += setB
			if build > maxBuild {
				maxBuild = build
			}
		}
		fmt.Fprintf(out, "%s\n", shapeStatsLine(ruleShape, set.Len(), agg, aggIdx, aggSets, maxBuild))
	}
	if churnCount > 0 {
		final := 0
		var idxB, setB int
		var build time.Duration
		if f := eng.Filter(0); f != nil {
			final = f.RuleCount()
			idxB, setB, build = f.ClassifierStats()
		}
		fmt.Fprintf(out, "churn: %d live delta reinstalls (+%d/-%d rules each) under load: avg %.2f ms, max %.2f ms; final rule count %d; classifier: index %d B, sets %d B, last patch %.2f ms\n",
			churnCount, churnN, churnN,
			float64(churnTotal.Microseconds())/float64(churnCount)/1e3,
			float64(churnMax.Microseconds())/1e3, final,
			idxB, setB, float64(build.Microseconds())/1e3)
	}

	// Seal the run as one epoch and print the authenticated log digests a
	// victim would fetch for the bypass audit.
	logs, err := eng.RotateEpoch(0)
	if err != nil {
		return err
	}
	for _, l := range logs {
		inDigest := sha256.Sum256(l.Incoming.Data)
		outDigest := sha256.Sum256(l.Outgoing.Data)
		fmt.Fprintf(out, "epoch %d shard %d: incoming %d bytes digest %x..., outgoing %d bytes digest %x...\n",
			l.Seq, l.Shard, len(l.Incoming.Data), inDigest[:8], len(l.Outgoing.Data), outDigest[:8])
	}
	// Workers promote pending probabilistic flows to exact-match entries at
	// each epoch boundary (the hybrid design's learning step, now on the
	// engine path too).
	var promoted uint64
	for _, sm := range eng.Metrics().Shards {
		promoted += sm.Promoted
	}
	fmt.Fprintf(out, "flows promoted to exact-match at epoch boundary: %d\n", promoted)
	eng.Stop()
	return nil
}

// runOverload is the admission-control scenario: victim 0 is under a
// volumetric flood but carries an explicit admitted-rate cap (the knob an
// operator turns mid-attack), while the quiet victims share the same
// engine uncapped. Every producer interleaves one flood burst per quiet
// burst — a 1:1 offered-load attack — so the printed per-victim SLO lines
// (admitted / throttled / allowed / dropped) show the flood being clipped
// at ingress while the quiet victims keep filtering at full rate.
func runOverload(out io.Writer, mode filter.CopyMode, n, producers, quiet, size int, duration time.Duration, seed int64, oc obsConfig, attackPps float64) error {
	if quiet < 1 || quiet > 249 {
		return fmt.Errorf("-victims %d: overload mode needs 1..249 quiet victims", quiet)
	}
	model := enclave.DefaultCostModel()
	tel := oc.buildTelemetry(n)
	eng, err := engine.New(engine.Config{
		Shards: n, EPCBytes: model.EPCBytes, Telemetry: tel,
		Admission: &engine.AdmissionConfig{},
	})
	if err != nil {
		return err
	}
	closeTel, err := serveTelemetry(out, tel, oc.metricsAddr)
	if err != nil {
		return err
	}
	defer closeTel()

	type victimState struct {
		ns     int
		prefix rules.Prefix
	}
	victims := quiet + 1 // index 0 is the attacked victim
	vmap := lb.NewVictimMap()
	vs := make([]victimState, victims)
	for v := range vs {
		prefix := rules.Prefix{Addr: 10<<24 | uint32(v+1)<<16, Len: 16}
		set, err := rules.NewSet([]rules.Rule{
			rules.MustParse(fmt.Sprintf("drop udp from any to %s dport 53", prefix)),
			rules.MustParse(fmt.Sprintf("drop 50%% tcp from any to %s dport 80", prefix)),
		}, true)
		if err != nil {
			return err
		}
		filters := make([]*filter.Filter, n)
		for i := range filters {
			e, err := enclave.New(enclave.CodeIdentity{
				Name: "vif-filter", Version: "1.0.0",
				Config:     fmt.Sprintf("overload victim=%d shard=%d/%d", v, i, n),
				BinarySize: 1 << 20,
			}, model)
			if err != nil {
				return err
			}
			f, err := filter.New(e, set, filter.Config{Mode: mode})
			if err != nil {
				return err
			}
			filters[i] = f
		}
		bal, err := uniformBalancer(set, n)
		if err != nil {
			return err
		}
		nc := engine.NamespaceConfig{Filters: filters, Route: bal.Route, RouteBatch: bal.RouteBatch}
		if v == 0 {
			nc.AdmitPps = attackPps
		}
		ns, err := eng.AttachNamespace(nc)
		if err != nil {
			return err
		}
		if err := vmap.Add(prefix, uint16(ns)); err != nil {
			return err
		}
		vs[v] = victimState{ns: ns, prefix: prefix}
	}
	if err := eng.Start(); err != nil {
		return err
	}
	stopStats := startStats(out, oc.statsInterval, func() string { return eng.Metrics().String() })
	defer stopStats()
	fmt.Fprintf(out, "overload: %d shards, %d producers, 1 attacked + %d quiet victims, attacked cap %.0f pps, mode %s\n",
		n, producers, quiet, attackPps, mode)

	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gens := make([]*netsim.FlowGen, victims)
			for v := range gens {
				gens[v] = netsim.NewFlowGen(seed+int64(p*victims+v), vs[v].prefix.Addr, int(vs[v].prefix.Len))
			}
			flood := make([]packet.Descriptor, 256)
			burst := make([]packet.Descriptor, 256)
			for v := 1; time.Now().Before(deadline); v++ {
				if v >= victims {
					v = 1
				}
				// The flood rides ahead of every quiet burst: same
				// offered load as all quiet victims combined.
				gens[0].DescriptorsInto(flood, size)
				vmap.Stamp(flood)
				eng.InjectBatch(flood)
				gens[v].DescriptorsInto(burst, size)
				vmap.Stamp(burst)
				eng.InjectBatch(burst)
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	stopStats()
	elapsed := time.Since(start)

	m := eng.Metrics()
	fmt.Fprintf(out, "\nwall-clock: %v, accepted %d descriptors (%.2f Mpps aggregate), throttled %d at ingress\n",
		elapsed.Round(time.Millisecond), m.Accepted, m.PPS/1e6, m.Throttled)
	// Per-victim SLO lines: what each tenant's operator dashboard reads.
	for v, st := range vs {
		var nm engine.NamespaceMetrics
		for _, cand := range m.Namespaces {
			if cand.NS == st.ns {
				nm = cand
				break
			}
		}
		role, capLbl := "quiet   ", "uncapped"
		if v == 0 {
			role = "attacked"
			capLbl = fmt.Sprintf("cap %.0f pps", nm.AdmitRatePps)
		}
		fmt.Fprintf(out, "%s ns=%d %v: admitted %d, throttled %d (%s), allowed %d, dropped %d\n",
			role, st.ns, st.prefix, nm.Admitted, nm.Throttled, capLbl, nm.Allowed, nm.Dropped)
	}
	eng.Stop()
	return nil
}

// uniformBalancer builds the lb programme a fresh fleet starts from:
// every shard serves 1/n of each rule's flows.
func uniformBalancer(set *rules.Set, n int) (*lb.Balancer, error) {
	shares := make(map[uint32][]float64, set.Len())
	for _, r := range set.Rules {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1 / float64(n)
		}
		shares[r.ID] = row
	}
	return lb.New(lb.Config{FullSet: set, Shares: shares, N: n})
}

// runMultiVictim drives the shared multi-victim engine: one fleet of n
// enclave shards concurrently serving `victims` independent rule
// namespaces. Each victim v owns the prefix 10.v.0.0/16 with its own
// synthesized rule set (drop DNS, drop half of HTTP) and its own uniform
// balancer programme; producers generate each victim's traffic mix and
// stamp descriptors through the dst-prefix → namespace map exactly as the
// untrusted ingress fabric would. The run ends with per-victim verdicts,
// EPC budget shares, and one sealed epoch per victim — rotated
// independently, the way each victim's audit cadence would drive it.
func runMultiVictim(out io.Writer, mode filter.CopyMode, n, producers, victims, size int, duration time.Duration, seed int64, oc obsConfig) error {
	if victims > 250 {
		return fmt.Errorf("-victims %d: demo prefixes support at most 250", victims)
	}
	model := enclave.DefaultCostModel()
	tel := oc.buildTelemetry(n)
	eng, err := engine.New(engine.Config{Shards: n, EPCBytes: model.EPCBytes, Telemetry: tel})
	if err != nil {
		return err
	}
	closeTel, err := serveTelemetry(out, tel, oc.metricsAddr)
	if err != nil {
		return err
	}
	defer closeTel()

	type victimState struct {
		ns     int
		prefix rules.Prefix
	}
	vmap := lb.NewVictimMap()
	vs := make([]victimState, victims)
	for v := range vs {
		prefix := rules.Prefix{Addr: 10<<24 | uint32(v+1)<<16, Len: 16}
		set, err := rules.NewSet([]rules.Rule{
			rules.MustParse(fmt.Sprintf("drop udp from any to %s dport 53", prefix)),
			rules.MustParse(fmt.Sprintf("drop 50%% tcp from any to %s dport 80", prefix)),
		}, true)
		if err != nil {
			return err
		}
		filters := make([]*filter.Filter, n)
		for i := range filters {
			e, err := enclave.New(enclave.CodeIdentity{
				Name: "vif-filter", Version: "1.0.0",
				Config:     fmt.Sprintf("victim=%d shard=%d/%d", v, i, n),
				BinarySize: 1 << 20,
			}, model)
			if err != nil {
				return err
			}
			f, err := filter.New(e, set, filter.Config{Mode: mode})
			if err != nil {
				return err
			}
			filters[i] = f
		}
		bal, err := uniformBalancer(set, n)
		if err != nil {
			return err
		}
		ns, err := eng.AttachNamespace(engine.NamespaceConfig{
			Filters: filters, Route: bal.Route, RouteBatch: bal.RouteBatch,
		})
		if err != nil {
			return err
		}
		if err := vmap.Add(prefix, uint16(ns)); err != nil {
			return err
		}
		vs[v] = victimState{ns: ns, prefix: prefix}
	}
	if err := eng.Start(); err != nil {
		return err
	}
	stopStats := startStats(out, oc.statsInterval, func() string { return eng.Metrics().String() })
	defer stopStats()
	fmt.Fprintf(out, "engine: %d shards, %d producers, %d victim namespaces, mode %s\n",
		n, producers, victims, mode)
	epcShares := eng.EPCShares()
	var epcTotal int
	for _, s := range epcShares {
		epcTotal += s
	}
	fmt.Fprintf(out, "EPC budget: %.1f MB per shard machine apportioned across %d victims (shares sum %.1f MB)\n",
		float64(eng.EPCBytes())/1e6, victims, float64(epcTotal)/1e6)

	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// One generator per victim so every namespace sees its own
			// traffic mix; bursts rotate victims and are stamped through
			// the dst-prefix map before the batched injection.
			gens := make([]*netsim.FlowGen, victims)
			for v := range gens {
				gens[v] = netsim.NewFlowGen(seed+int64(p*victims+v), vs[v].prefix.Addr, int(vs[v].prefix.Len))
			}
			burst := make([]packet.Descriptor, 256)
			for v := 0; time.Now().Before(deadline); v = (v + 1) % victims {
				gens[v].DescriptorsInto(burst, size)
				vmap.Stamp(burst)
				eng.InjectBatch(burst)
			}
		}(p)
	}
	wg.Wait()
	eng.WaitDrained()
	stopStats()
	elapsed := time.Since(start)

	m := eng.Metrics()
	fmt.Fprintf(out, "\nwall-clock: %v, accepted %d descriptors (%.2f Mpps aggregate)\n",
		elapsed.Round(time.Millisecond), m.Accepted, m.PPS/1e6)
	fmt.Fprintf(out, "verdicts: allowed %d, dropped %d; backpressure drops %d, lb drops %d, ns drops %d\n",
		m.Allowed, m.Dropped, m.Backpressure, m.LBDrops, m.NSDrops)
	for _, sm := range m.Shards {
		fmt.Fprintf(out, "  shard %d: processed %d (%.2f Mpps), allowed %d, dropped %d, avg batch %.1f, parked %.0f%%, %.0f ns/pkt modeled\n",
			sm.Shard, sm.Processed, sm.PPS/1e6, sm.Allowed, sm.Dropped, sm.AvgBatch, parkedPct(sm, m.Elapsed), sm.NsPerPacket)
	}

	// Per-victim accounting and one independently sealed epoch each: the
	// digests are what each victim would fetch for its own bypass audit.
	// Rotation runs first so the per-victim line reflects the promotions
	// the epoch boundary performed.
	for _, v := range vs {
		logs, err := eng.RotateEpoch(v.ns)
		if err != nil {
			return err
		}
		var nm engine.NamespaceMetrics
		for _, cand := range eng.Metrics().Namespaces {
			if cand.NS == v.ns {
				nm = cand
				break
			}
		}
		fmt.Fprintf(out, "victim ns=%d %v: processed %d, allowed %d, dropped %d, promoted %d, EPC share %.1f MB, paging %.2f\n",
			v.ns, v.prefix, nm.Processed, nm.Allowed, nm.Dropped, nm.Promoted,
			float64(nm.EPCShareBytes)/1e6, nm.PagingPressure)
		for _, l := range logs {
			outDigest := sha256.Sum256(l.Outgoing.Data)
			fmt.Fprintf(out, "  epoch %d shard %d: outgoing %d bytes digest %x...\n",
				l.Seq, l.Shard, len(l.Outgoing.Data), outDigest[:8])
		}
	}

	// Tenants leave: detach every victim and show the engine-side
	// tombstone history an operator of a long-lived shared engine audits
	// after the fact — each entry is the victim's exact final accounting.
	for _, v := range vs {
		if _, err := eng.DetachNamespace(v.ns); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\ntombstones (detached victims' final counters, oldest first, retained %d):\n", len(eng.Tombstones()))
	for _, tb := range eng.Tombstones() {
		fmt.Fprintf(out, "  tombstone ns=%d: processed %d, allowed %d, dropped %d, epochs %d, EPC share was %.1f MB\n",
			tb.Final.NS, tb.Final.Processed, tb.Final.Allowed, tb.Final.Dropped,
			tb.Final.Epochs, float64(tb.Final.EPCShareBytes)/1e6)
	}
	eng.Stop()
	return nil
}
