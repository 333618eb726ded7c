package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Every committed baseline is a Report: it decodes strictly (no field
// outside the schema), names its experiment, and every cell carries labels
// and metrics.
func TestCommittedReportsDecode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := ReadReport(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var strict Report
			if err := dec.Decode(&strict); err != nil {
				t.Fatalf("%s: not in the Report schema: %v", path, err)
			}
			keys := map[string]bool{}
			for i, c := range r.Cells {
				if len(c.Labels) == 0 || len(c.Metrics) == 0 {
					t.Errorf("cell %d has no labels or no metrics", i)
				}
				if keys[c.Key()] {
					t.Errorf("cell %d repeats label set %s", i, c.Key())
				}
				keys[c.Key()] = true
			}
		})
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	in := &Report{Exp: "table1", Seed: 1, Repeats: 3, CPUs: 2, Cells: []Cell{{
		Labels:  map[string]string{"alg": "SC", "query": "QE1"},
		Metrics: map[string]float64{"ns_per_op": 1234, "mb_per_sec": 31.23602967587556},
	}}}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Exp != in.Exp || out.CPUs != 2 || out.Cells[0].Metrics["mb_per_sec"] != 31.23602967587556 ||
		out.Cells[0].Key() != "alg=SC query=QE1" {
		t.Fatalf("round trip changed the report: %+v", out)
	}
	if err := os.WriteFile(path, []byte(`{"cells": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("ReadReport accepted a report without exp or cells")
	}
}
