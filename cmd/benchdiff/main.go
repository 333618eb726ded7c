// Command benchdiff compares two benchmark reports written by treebench
// -json (any experiment: BENCH_table1.json, BENCH_serve.json, ...) and
// prints, for every cell, each metric's old→new value and its change. Cells
// are matched by their label set; cells only in the new report are marked
// new, and baseline cells missing from it are listed. It exits non-zero on
// malformed input, when the two files hold different experiments, or when
// the gate fails, so it can gate CI and Makefile comparisons.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//	benchdiff -gate-ns 2 -gate-algs SC,TJ OLD.json NEW.json   # fail if the
//	    median ns/op ratio over the cells labeled alg=SC or alg=TJ regressed
//	    by more than 2%, or if any of those baseline cells is missing
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"xqtp/internal/bench"
)

// pair matches every old cell to the first not yet matched new cell with
// the same label set: match[i] is the new index of old cell i, or -1 when
// the new report lacks it.
func pair(old, new *bench.Report) []int {
	byKey := make(map[string][]int, len(new.Cells))
	for j, c := range new.Cells {
		k := c.Key()
		byKey[k] = append(byKey[k], j)
	}
	match := make([]int, len(old.Cells))
	for i, c := range old.Cells {
		k := c.Key()
		match[i] = -1
		if js := byKey[k]; len(js) > 0 {
			match[i], byKey[k] = js[0], js[1:]
		}
	}
	return match
}

// num renders a metric value: integers exactly, fractions to four
// significant digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func pct(old, new float64) string {
	switch {
	case old == new:
		return "+0.0%"
	case old == 0:
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func sortedMetrics(cells ...bench.Cell) []string {
	seen := map[string]bool{}
	var names []string
	for _, c := range cells {
		for k := range c.Metrics {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

// diff prints every cell of new with its metrics against the matching old
// cell, then the baseline cells new lacks.
func diff(w io.Writer, old, new *bench.Report, match []int) {
	oldOf := make(map[int]int, len(match))
	for i, j := range match {
		if j >= 0 {
			oldOf[j] = i
		}
	}
	fresh := 0
	for j, nc := range new.Cells {
		i, ok := oldOf[j]
		if !ok {
			fresh++
			fmt.Fprintf(w, "%s  (new cell)\n", nc.Key())
			continue
		}
		oc := old.Cells[i]
		fmt.Fprintln(w, nc.Key())
		for _, m := range sortedMetrics(oc, nc) {
			ov, inOld := oc.Metrics[m]
			nv, inNew := nc.Metrics[m]
			switch {
			case !inOld:
				fmt.Fprintf(w, "    %-18s %14s → %-14s (new metric)\n", m, "", num(nv))
			case !inNew:
				fmt.Fprintf(w, "    %-18s %14s → %-14s (missing)\n", m, num(ov), "")
			default:
				fmt.Fprintf(w, "    %-18s %14s → %-14s %8s\n", m, num(ov), num(nv), pct(ov, nv))
			}
		}
	}
	missing := 0
	for i, j := range match {
		if j < 0 {
			missing++
			fmt.Fprintf(w, "%s  (missing from new report)\n", old.Cells[i].Key())
		}
	}
	fmt.Fprintf(w, "\n%d cells matched, %d new, %d missing\n", len(match)-missing, fresh, missing)
}

// gate computes the median new/old ns_per_op ratio over the baseline cells
// whose alg label is in algs (empty: every cell with an ns_per_op metric)
// and fails when the median regressed by more than pct percent, or when any
// of those baseline cells has no counterpart in the new report. The median
// — not the mean or the max — keeps one noisy cell from failing a run while
// still catching a systematic slowdown across the matrix.
func gate(w io.Writer, old, new *bench.Report, match []int, pct float64, algs map[string]bool) error {
	var ratios []float64
	var missing []string
	for i, oc := range old.Cells {
		if len(algs) > 0 && !algs[strings.ToUpper(oc.Labels["alg"])] {
			continue
		}
		o, ok := oc.Metrics["ns_per_op"]
		if !ok || o == 0 {
			continue
		}
		n, found := 0.0, false
		if j := match[i]; j >= 0 {
			n, found = new.Cells[j].Metrics["ns_per_op"]
		}
		if !found {
			missing = append(missing, oc.Key())
			continue
		}
		ratios = append(ratios, n/o)
	}
	if len(missing) > 0 {
		return fmt.Errorf("gate: %d gated baseline cells missing from the new report (first: %s)",
			len(missing), missing[0])
	}
	if len(ratios) == 0 {
		return fmt.Errorf("gate: no comparable ns_per_op cells for the selected algorithms")
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	fmt.Fprintf(w, "\ngate: median ns/op ratio %.4f over %d cells (threshold %.4f)\n",
		median, len(ratios), 1+pct/100)
	if median > 1+pct/100 {
		return fmt.Errorf("gate: median ns/op regressed %.1f%% (> %.1f%% allowed)",
			(median-1)*100, pct)
	}
	return nil
}

// run loads both reports, prints the diff and applies the gate when
// gateNs > 0.
func run(w io.Writer, oldPath, newPath string, gateNs float64, gateAlgs string) error {
	old, err := bench.ReadReport(oldPath)
	if err != nil {
		return err
	}
	new, err := bench.ReadReport(newPath)
	if err != nil {
		return err
	}
	if old.Exp != new.Exp {
		return fmt.Errorf("reports are of different experiments (%s vs %s)", old.Exp, new.Exp)
	}
	match := pair(old, new)
	diff(w, old, new, match)
	if gateNs <= 0 {
		return nil
	}
	algs := map[string]bool{}
	for _, a := range strings.Split(gateAlgs, ",") {
		if a = strings.ToUpper(strings.TrimSpace(a)); a != "" {
			algs[a] = true
		}
	}
	return gate(w, old, new, match, gateNs, algs)
}

func main() {
	gateNs := flag.Float64("gate-ns", 0, "fail when the median ns_per_op regression exceeds this percentage (0: report only)")
	gateAlgs := flag.String("gate-algs", "", "comma-separated alg labels the gate considers (e.g. SC,TJ; empty: all)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate-ns PCT [-gate-algs SC,TJ]] OLD.json NEW.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *gateNs, *gateAlgs); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
