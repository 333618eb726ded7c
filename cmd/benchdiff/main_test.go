package main

import (
	"path/filepath"
	"strings"
	"testing"

	"xqtp/internal/bench"
)

func cell(alg, query string, ns float64) bench.Cell {
	return bench.Cell{
		Labels:  map[string]string{"alg": alg, "query": query},
		Metrics: map[string]float64{"ns_per_op": ns},
	}
}

func report(cells ...bench.Cell) *bench.Report {
	return &bench.Report{Exp: "table1", Seed: 1, Repeats: 1, CPUs: 1, Cells: cells}
}

func TestPairIgnoresOrder(t *testing.T) {
	old := report(cell("SC", "QE1", 10), cell("TJ", "QE1", 20), cell("SC", "QE2", 30))
	new := report(cell("SC", "QE2", 31), cell("SC", "QE1", 11), cell("TJ", "QE1", 21))
	match := pair(old, new)
	want := []int{1, 2, 0}
	for i := range want {
		if match[i] != want[i] {
			t.Fatalf("match = %v, want %v", match, want)
		}
	}
}

func TestDiffListsNewAndMissingCells(t *testing.T) {
	old := report(cell("SC", "QE1", 10), cell("TJ", "QE1", 20))
	new := report(cell("SC", "QE1", 10), cell("NL", "QE1", 50))
	var b strings.Builder
	diff(&b, old, new, pair(old, new))
	out := b.String()
	for _, want := range []string{
		"alg=NL query=QE1  (new cell)",
		"alg=TJ query=QE1  (missing from new report)",
		"1 cells matched, 1 new, 1 missing",
		"+0.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestGateMedian(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios []float64
		median string
		fail   bool
	}{
		{"odd", []float64{1.0, 1.5, 0.5}, "ratio 1.0000 over 3 cells", false},
		{"even", []float64{1.0, 1.02, 1.04, 2.0}, "ratio 1.0300 over 4 cells", true},
		{"even-pass", []float64{0.9, 1.0, 1.01, 3.0}, "ratio 1.0050 over 4 cells", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var oldCells, newCells []bench.Cell
			for i, r := range tc.ratios {
				q := string(rune('a' + i))
				oldCells = append(oldCells, cell("SC", q, 1000))
				newCells = append(newCells, cell("SC", q, 1000*r))
			}
			old, new := report(oldCells...), report(newCells...)
			var b strings.Builder
			err := gate(&b, old, new, pair(old, new), 2, nil)
			if !strings.Contains(b.String(), tc.median) {
				t.Errorf("gate output %q, want %q", b.String(), tc.median)
			}
			if (err != nil) != tc.fail {
				t.Errorf("gate error = %v, want failure %v", err, tc.fail)
			}
		})
	}
}

// Only the cells whose alg label is selected count toward the median: a
// large NL regression does not fail an SC,TJ gate.
func TestGateAlgSelection(t *testing.T) {
	old := report(cell("SC", "QE1", 100), cell("TJ", "QE1", 100), cell("NL", "QE1", 100))
	new := report(cell("SC", "QE1", 100), cell("TJ", "QE1", 101), cell("NL", "QE1", 500))
	var b strings.Builder
	if err := gate(&b, old, new, pair(old, new), 2, map[string]bool{"SC": true, "TJ": true}); err != nil {
		t.Fatalf("SC,TJ gate failed on an NL-only regression: %v", err)
	}
	if !strings.Contains(b.String(), "over 2 cells") {
		t.Errorf("gate counted the wrong cells: %s", b.String())
	}
	if err := gate(&b, old, new, pair(old, new), 2, map[string]bool{"NL": true}); err == nil {
		t.Fatal("NL gate passed a 5x NL regression")
	}
}

// A new report that lacks gated baseline cells fails the gate instead of
// computing the median over the cells that remain.
func TestGateFailsOnMissingCells(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := report(cell("SC", "QE1", 10), cell("TJ", "QE1", 20), cell("SC", "QE2", 30), cell("TJ", "QE2", 40)).WriteFile(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := report(cell("SC", "QE1", 10), cell("SC", "QE2", 30)).WriteFile(newPath); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run(&b, oldPath, newPath, 2, "SC,TJ")
	if err == nil || !strings.Contains(err.Error(), "2 gated baseline cells missing") {
		t.Fatalf("gate with TJ cells removed = %v, want a missing-cells failure\n%s", err, b.String())
	}
	// Without the gate the diff only reports them.
	if err := run(&b, oldPath, newPath, 0, ""); err != nil {
		t.Fatalf("report-only diff failed: %v", err)
	}
}

func TestRunRejectsDifferentExperiments(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	other := report(cell("SC", "QE1", 10))
	other.Exp = "serve"
	if err := report(cell("SC", "QE1", 10)).WriteFile(a); err != nil {
		t.Fatal(err)
	}
	if err := other.WriteFile(b); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, a, b, 0, ""); err == nil {
		t.Fatal("diffing table1 against serve succeeded")
	}
}
