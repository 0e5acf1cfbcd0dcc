package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Config { return Config{Quick: true, Seed: 1} }

func runExperiment(t *testing.T, id string) *Result {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := r.Run(quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || len(res.Rows) == 0 || len(res.Header) == 0 {
		t.Fatalf("%s: malformed result %+v", id, res)
	}
	for i, row := range res.Rows {
		if len(row) != len(res.Header) {
			t.Fatalf("%s row %d: %d cells for %d columns", id, i, len(row), len(res.Header))
		}
	}
	if !strings.Contains(res.Render(), res.Title) {
		t.Fatalf("%s: Render missing title", id)
	}
	return res
}

func cell(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(res.Rows[row][col], "s"), 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not numeric: %v", res.ID, row, col, res.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered.
	want := []string{
		"fig3a", "fig3b", "fig8", "fig13", "latency", "fig14",
		"table1", "table2", "table3", "gap", "fig9", "fig11", "attest",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestFig3aShape(t *testing.T) {
	res := runExperiment(t, "fig3a")
	// Claim: throughput at the smallest rule count is much higher than at
	// the largest (the paper's cliff).
	first := cell(t, res, 0, 2)
	last := cell(t, res, len(res.Rows)-1, 2)
	if first < 2*last {
		t.Fatalf("no cliff: %.2f Mpps at few rules vs %.2f at many", first, last)
	}
}

func TestFig3bShape(t *testing.T) {
	res := runExperiment(t, "fig3b")
	// Column 1 is the paper's trie, column 2 the live classifier.
	for col := 1; col <= 2; col++ {
		prev := 0.0
		for i := range res.Rows {
			mb := cell(t, res, i, col)
			if mb < prev {
				t.Fatalf("memory not monotone at row %d col %d", i, col)
			}
			prev = mb
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res := runExperiment(t, "fig8")
	// Row 0 is 64 B: native ≥ near-zero-copy > full-copy.
	native, full, zero := cell(t, res, 0, 1), cell(t, res, 0, 2), cell(t, res, 0, 3)
	if !(native >= zero && zero > full) {
		t.Fatalf("64 B ordering violated: native=%.2f full=%.2f zero=%.2f", native, full, zero)
	}
	// Paper: all three at line rate for ≥256 B (row 2 = 256 B).
	line := cell(t, res, 2, 4)
	for col := 1; col <= 3; col++ {
		if v := cell(t, res, 2, col); v < line*0.99 {
			t.Fatalf("256 B col %d below line rate: %.2f < %.2f", col, v, line)
		}
	}
	// Near-zero-copy at 64 B ≈ 8 Gb/s (paper anchor; accept 6-8.5).
	if zero < 6.0 || zero > 8.6 {
		t.Fatalf("near-zero-copy 64 B = %.2f Gb/s, want ≈8", zero)
	}
}

func TestFig13FullCopyCap(t *testing.T) {
	res := runExperiment(t, "fig13")
	// Paper: full copy capped ≈6 Mpps at 64 B (accept 4-8).
	full := cell(t, res, 0, 2)
	if full < 4 || full > 8 {
		t.Fatalf("full-copy 64 B = %.2f Mpps, want ≈6", full)
	}
}

func TestLatencyShape(t *testing.T) {
	res := runExperiment(t, "latency")
	prev := 0.0
	for i := range res.Rows {
		modeled := cell(t, res, i, 1)
		paper := cell(t, res, i, 2)
		if modeled <= prev {
			t.Fatalf("latency not monotone in size at row %d", i)
		}
		prev = modeled
		// Within 30% of each paper point.
		if ratio := modeled / paper; ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("row %d: modeled %.1f µs vs paper %.0f µs", i, modeled, paper)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	res := runExperiment(t, "fig14")
	// 64 B column (col 1) must degrade from first to last row; 1500 B
	// column (col 6) must stay at line rate.
	first64 := cell(t, res, 0, 1)
	last64 := cell(t, res, len(res.Rows)-1, 1)
	if last64 >= first64 {
		t.Fatalf("64 B no degradation: %.2f -> %.2f", first64, last64)
	}
	first1500 := cell(t, res, 0, 6)
	last1500 := cell(t, res, len(res.Rows)-1, 6)
	if last1500 < first1500*0.99 {
		t.Fatalf("1500 B degraded: %.2f -> %.2f", first1500, last1500)
	}
}

func TestTable2Shape(t *testing.T) {
	res := runExperiment(t, "table2")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestTable1GreedyWins(t *testing.T) {
	res := runExperiment(t, "table1")
	for i, row := range res.Rows {
		if !strings.Contains(row[4], "x") {
			t.Fatalf("row %d: no speedup reported: %v", i, row)
		}
	}
}

func TestGapSmall(t *testing.T) {
	res := runExperiment(t, "gap")
	for i := range res.Rows {
		gap := cell(t, res, i, 4)
		if gap > 30 {
			t.Fatalf("row %d: gap %.1f%% too large", i, gap)
		}
	}
}

func TestFig9UnderPaperCeiling(t *testing.T) {
	res := runExperiment(t, "fig9")
	for i := range res.Rows {
		mean := cell(t, res, i, 1)
		if mean > 40 {
			t.Fatalf("row %d: %.1fs exceeds the paper's 40 s ceiling", i, mean)
		}
	}
}

func TestFig11PaperAnchors(t *testing.T) {
	res := runExperiment(t, "fig11")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (2 datasets x top1..5)", len(res.Rows))
	}
	for _, dsRowBase := range []int{0, 5} {
		top1 := cell(t, res, dsRowBase, 4)   // median at top-1
		top5 := cell(t, res, dsRowBase+4, 4) // median at top-5
		if top5 < top1 {
			t.Fatalf("median fell with more IXPs: %.2f -> %.2f", top1, top5)
		}
		if top1 < 0.35 {
			t.Fatalf("top-1 median %.2f too low (paper ≈0.6)", top1)
		}
		if top5 < 0.6 {
			t.Fatalf("top-5 median %.2f too low (paper ≥0.75)", top5)
		}
	}
}

func TestAttestMatchesAppendixG(t *testing.T) {
	res := runExperiment(t, "attest")
	var endToEnd string
	for _, row := range res.Rows {
		if row[0] == "end to end" {
			endToEnd = row[1]
		}
	}
	if endToEnd == "" {
		t.Fatal("no end-to-end row")
	}
}

func TestTable3Complete(t *testing.T) {
	res := runExperiment(t, "table3")
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(res.Rows))
	}
}
