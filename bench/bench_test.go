package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowMedianSkipsEmptyWindowsAndOutliers(t *testing.T) {
	// One cold window, one stalled window, one empty one: the median is a
	// typical window, not the mean.
	vals := []float64{3.9, 12.0, 12.1, 0, 11.9, 2.0, 12.0}
	got := windowMedian(len(vals), func(i int) (float64, bool) { return vals[i], vals[i] != 0 })
	if got != 11.95 {
		t.Errorf("windowMedian = %v, want 11.95", got)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder(8)
	root := r.open(layerBurst, -1, 0, 100)
	a := r.open(layerClassify, root, 0, 110)
	r.close(a, 140)
	b := r.open(layerApply, root, 0, 130) // overlaps a by 10: counted once
	r.close(b, 160)
	c := r.open(layerSink, root, 0, 190) // runs past the parent: clipped
	r.close(c, 250)
	r.close(root, 200)
	other := r.open(layerInject, -1, 1, 300)
	r.close(other, 305)

	self := selfTimes(r.spans, 0)
	want := []int64{100 - 30 - 20 - 10, 30, 30, 60, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	tot := layerTotals(r.spans, 0)
	if tot[layerBurst] != 40 || tot[layerClassify] != 30 || tot[layerInject] != 5 {
		t.Errorf("layerTotals = %+v", tot)
	}
	// A tail of the recorder, parents relative to its base.
	if tail := selfTimes(r.spans[4:], 4); len(tail) != 1 || tail[0] != 5 {
		t.Errorf("selfTimes of tail = %v", tail)
	}

	if r.open(layerHash, -1, 0, 0); len(r.spans) != 6 {
		t.Fatalf("recorder holds %d spans, want 6", len(r.spans))
	}
	r.limit = 6
	if i := r.open(layerHash, -1, 0, 0); i != -1 || r.dropped != 1 {
		t.Errorf("open past the limit = %d, dropped %d; want -1, 1", i, r.dropped)
	}
	r.close(-1, 0) // must not panic

	var buf bytes.Buffer
	if err := writeSpans(&buf, r.spans[:2]); err != nil {
		t.Fatal(err)
	}
	want0 := `{"name":"replay.burst","start_ns":100,"end_ns":200,"parent":-1,"burst_id":0}`
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 2 || lines[0] != want0 {
		t.Errorf("span file:\n%s", buf.String())
	}
}

// fakeClock advances by step on every read and can be told to jump.
type fakeClock struct {
	t, step int64
	jumpAt  int64 // once t passes this, jump by jump (0: never)
	jump    int64
}

func (c *fakeClock) now() int64 {
	c.t += c.step
	if c.jumpAt != 0 && c.t >= c.jumpAt {
		c.t += c.jump
		c.jumpAt = 0
	}
	return c.t
}

func TestOpenLoopSchedule(t *testing.T) {
	// 10 bursts, one per 1000 ns, clock ticking 100 ns per read, and a
	// 3500 ns stall while waiting for burst 3.
	clk := &fakeClock{step: 100, jumpAt: 2500, jump: 3500}
	ol := openLoop{now: clk.now, start: 0, interval: 1000, late: make([]int64, 10)}
	type sent struct {
		k        int
		due, at  int64
		lateness int64
	}
	var got []sent
	n := ol.run(10000, func(k int, due int64) {
		got = append(got, sent{k: k, due: due, at: clk.t, lateness: ol.late[k]})
	})
	if n != 10 || len(got) != 10 {
		t.Fatalf("sent %d bursts (%d callbacks), want 10", n, len(got))
	}
	for k, s := range got {
		// Due times stay on the original grid whatever the clock did.
		if s.k != k || s.due != int64(k)*1000 {
			t.Errorf("burst %d: k=%d due=%d, want due %d", k, s.k, s.due, k*1000)
		}
		if s.at < s.due {
			t.Errorf("burst %d sent at %d, before it was due at %d", k, s.at, s.due)
		}
		if s.lateness != s.at-s.due {
			t.Errorf("burst %d: lateness %d, want %d", k, s.lateness, s.at-s.due)
		}
	}
	// Before the stall bursts go out within one clock step of due.
	for k := 0; k < 3; k++ {
		if got[k].lateness > 100 {
			t.Errorf("burst %d late by %d before any stall", k, got[k].lateness)
		}
	}
	// The stall lands on burst 3; the bursts that fell due meanwhile are
	// sent back to back (one clock read apart), each less late than the
	// one before, until the generator is back on schedule.
	if got[3].lateness < 3000 {
		t.Errorf("burst 3 late by %d, want the 3500 ns stall", got[3].lateness)
	}
	caughtUp := false
	for k := 4; k < 10; k++ {
		switch {
		case got[k].lateness <= 100:
			caughtUp = true
		case caughtUp:
			t.Errorf("burst %d late by %d after catching up", k, got[k].lateness)
		default:
			if gap := got[k].at - got[k-1].at; gap != 100 {
				t.Errorf("catch-up burst %d sent %d after the previous one, want back to back", k, gap)
			}
			if got[k].lateness >= got[k-1].lateness {
				t.Errorf("catch-up burst %d: lateness %d did not shrink from %d", k, got[k].lateness, got[k-1].lateness)
			}
		}
	}
	if !caughtUp {
		t.Error("generator never caught up")
	}
}

// ruleShapes are the rule forms the reference is held to: the workloads'
// own (source prefix of mixed length), and forms they do not use but the
// matcher must still get right.
var ruleShapes = map[string]func(*rand.Rand, uint32) rules.Rule{
	"workload": func(rng *rand.Rand, id uint32) rules.Rule { return genRule(rng, 0, float64(rng.Intn(2)), id) },
	"wide-src": func(rng *rand.Rand, id uint32) rules.Rule {
		r := genRule(rng, 0, float64(rng.Intn(2)), id)
		r.Src = rules.Prefix{Addr: rng.Uint32(), Len: uint8(rng.Intn(20))}.Canonical()
		return r
	},
	"ports": func(rng *rand.Rand, id uint32) rules.Rule {
		r := genRule(rng, 0, float64(rng.Intn(2)), id)
		r.Src = rules.Prefix{Addr: rng.Uint32(), Len: uint8(8 + rng.Intn(12))}.Canonical()
		lo := uint16(rng.Intn(60000))
		r.SrcPort = rules.PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(5000))}
		if rng.Intn(2) == 0 {
			r.Proto = 0
		}
		return r
	},
	"hashed": func(rng *rand.Rand, id uint32) rules.Rule { return genRule(rng, 0, 0.5, id) },
}

// shapeTuples draws n tuples, every other one placed inside a rule of the
// set (which an earlier rule may still claim first), the rest anywhere.
func shapeTuples(rng *rand.Rand, set *rules.Set, n int) []packet.FiveTuple {
	ts := make([]packet.FiveTuple, n)
	for i := range ts {
		t := packet.FiveTuple{
			SrcIP: rng.Uint32(), DstIP: victimPrefix(0).Addr | 77,
			SrcPort: uint16(rng.Intn(65536)), DstPort: 53,
			Proto: []packet.Protocol{packet.ProtoUDP, packet.ProtoTCP}[rng.Intn(2)],
		}
		if i%2 == 0 {
			r := set.Rules[rng.Intn(set.Len())]
			t.SrcIP = r.Src.Addr | t.SrcIP&^r.Src.Mask()
			t.SrcPort = r.SrcPort.Lo + uint16(rng.Intn(int(r.SrcPort.Hi-r.SrcPort.Lo)+1))
			if r.Proto != 0 {
				t.Proto = r.Proto
			}
		}
		ts[i] = t
	}
	return ts
}

func TestRefMatcher(t *testing.T) {
	for name, shape := range ruleShapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			rs := make([]rules.Rule, 500)
			for i := range rs {
				rs[i] = shape(rng, uint32(i+1))
			}
			set, err := rules.NewSet(rs, rng.Intn(2) == 0)
			if err != nil {
				t.Fatal(err)
			}
			encl, err := enclave.New(enclave.CodeIdentity{Name: "vif-filter", Version: "test"}, enclave.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			f, err := filter.New(encl, set, filter.Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefMatcher(set)
			matched := 0
			for _, tu := range shapeTuples(rng, set, 1000) {
				// Against the plain linear scan the bucketing must not change.
				want, ok := set.Match(tu)
				i := ref.match(tu)
				if ok != (i >= 0) || (ok && set.Rules[i].ID != want.ID) {
					t.Fatalf("%v: reference matched rule index %d, linear scan %v (%t)", tu, i, want, ok)
				}
				if ok {
					matched++
				}
				// Against the system under test.
				got := f.Decision(tu)
				switch v := ref.verdict(tu); v {
				case refAllow, refDrop:
					if (got == filter.VerdictAllow) != (v == refAllow) {
						t.Fatalf("%v: filter says %v, reference %d", tu, got, v)
					}
				case refHashed:
					if name != "hashed" {
						t.Fatalf("%v: reference says hashed under deterministic rules", tu)
					}
				}
			}
			if matched < 400 {
				t.Errorf("only %d of 1000 tuples matched a rule: the test is not exercising rule hits", matched)
			}
		})
	}
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              *float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON holds ../BENCHMARK.json to the driver's limits and to
// this benchmark's own rules: no bound above 10%, setup_s bounded loosest.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if _, err := loadDeclaration(""); err != nil {
		t.Errorf("the program refuses the declaration: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("%s %q: bad or repeated name", kind, n)
		}
		seen[n] = true
	}
	for _, w := range bj.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, decl []declared, limit int, bounded bool) {
		if len(decl) < 1 || len(decl) > limit {
			t.Errorf("%s: %d declared, want 1..%d", kind, len(decl), limit)
		}
		for _, d := range decl {
			name(kind, d.Name)
			if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s %s: bad unit or direction", kind, d.Name)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.10):
				t.Errorf("%s %s: bound must be in (0, 0.10]", kind, d.Name)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, 16, true)
	check("per_layer", bj.PerLayer, 128, false)
	var setup *declared
	for i, d := range bj.EndToEnd {
		if d.Name == "setup_s" {
			setup = &bj.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("end_to_end must hold setup_s, in s, lower is better")
	}
	for _, d := range bj.EndToEnd {
		if d.Bound != nil && setup.Bound != nil && *d.Bound > *setup.Bound {
			t.Errorf("%s is bounded looser than setup_s", d.Name)
		}
	}
}

// TestSmoke runs every workload through both passes with 200 ms phases and
// holds the output to the contract: the last line is the result object,
// and it and the table name every declared metric exactly once, with its
// unit.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark needs 2 CPUs")
	}
	d, err := loadDeclaration("")
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		for trace, decl := range [][]metric{d.EndToEnd, d.PerLayer} {
			var out bytes.Buffer
			r, err := runWorkload(&out, w, options{seed: 3, seconds: 1, trace: trace, short: true, decl: d})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d\n%s", w.name, trace, r.Correct, r.Attempted, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]metricValue
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", w.name, trace, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(decl) {
				t.Errorf("%s trace=%d: result has %d metrics, want %d, and all of correct/attempted/failed", w.name, trace, len(last.Metrics), len(decl))
			}
			for _, d := range decl {
				mv, ok := last.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %t), want unit %s", w.name, trace, d.Name, mv, ok, d.Unit)
				}
				rows := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
						rows++
					}
				}
				if rows != 1 {
					t.Errorf("%s trace=%d: %s printed %d times, want once", w.name, trace, d.Name, rows)
				}
			}
		}
	}
}
