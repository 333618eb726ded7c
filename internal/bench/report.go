// Package bench is the measurement harness behind cmd/treebench. It
// regenerates the paper's §5 evaluation (the §5.1 plan validation, Fig. 4,
// Table 1, Fig. 6 and the §5.3 positional chains) and the later serving,
// ingest, corpus, optimizer and snapshot experiments. Every experiment that
// writes machine-readable output writes one Report shape, which
// cmd/benchdiff diffs and gates without knowing which experiment produced
// it.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Report is the one machine-readable output of every experiment: a header
// naming the experiment and its measurement conditions, and one cell per
// measurement.
type Report struct {
	Exp     string `json:"exp"`
	Seed    int64  `json:"seed"`
	Repeats int    `json:"repeats"`
	// CPUs is the number of CPUs available to the measuring process.
	CPUs int `json:"cpus"`
	// Note records measurement caveats (single-CPU hosts, platform gaps).
	Note  string `json:"note"`
	Cells []Cell `json:"cells"`
}

// Cell is one measurement. Labels identify it — two reports' cells with the
// same label set measure the same thing — and Metrics carry the numbers.
type Cell struct {
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
}

// newReport starts the report of experiment exp under opts.
func newReport(exp string, opts Options) *Report {
	return &Report{Exp: exp, Seed: opts.Seed, Repeats: opts.Repeats, CPUs: runtime.NumCPU()}
}

func (r *Report) add(labels map[string]string, metrics map[string]float64) {
	r.Cells = append(r.Cells, Cell{Labels: labels, Metrics: metrics})
}

// Key renders the cell's label set in sorted key order: the identity cells
// are matched by across reports.
func (c Cell) Key() string {
	keys := make([]string, 0, len(c.Labels))
	for k := range c.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + c.Labels[k]
	}
	return strings.Join(parts, " ")
}

// WriteFile writes the report to path as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile. A report without an
// experiment name or without cells is rejected.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Exp == "" || len(r.Cells) == 0 {
		return nil, fmt.Errorf("%s: not a benchmark report (no exp or no cells)", path)
	}
	return &r, nil
}
