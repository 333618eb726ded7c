package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"xqtp"
)

// plans is the harness's one plan cache: every experiment prepares its
// queries through it, so a query compiled for one experiment is reused by
// the next, and its prepared joins stay warm across them.
var plans = xqtp.NewPlanCache(xqtp.DefaultPlanCacheSize)

// Options scales the experiments. The defaults reproduce the paper's
// parameters; tests and quick runs pass smaller values (the reproduction
// targets the shape of the results, not absolute numbers).
type Options struct {
	Seed int64
	// Table1Sizes are the MemBeR document sizes in bytes (paper: 2.1, 4.3,
	// 6.5, 8.7, 11 MB).
	Table1Sizes []int
	// Fig4People scales the XMark documents of the Fig. 4 series.
	Fig4People []int
	// Fig6People scales the XMark document of the Fig. 6 experiment.
	Fig6People int
	// DeepNodes and DeepDepth shape the §5.3 document (paper: 50 000 nodes,
	// depth 15).
	DeepNodes, DeepDepth int
	// CollectionSizes are the corpus member counts of the collection
	// experiment (documents per corpus).
	CollectionSizes []int
	// Repeats is the number of timed runs per measurement (the median is
	// reported).
	Repeats int
	// Algorithms overrides the algorithm list of the Table 1 and Fig. 6
	// experiments (nil: the paper's NL, TJ, SC columns). Auto is a valid
	// entry, measuring the cost-based per-pattern choice.
	Algorithms []xqtp.Algorithm
	// Procs are the GOMAXPROCS settings of the in-process serving rows
	// (nil: one processor and, when more are available, every processor).
	Procs []int
	// Load shapes the HTTP serving rows of the serve experiment.
	Load LoadOptions
	// Context, when non-nil, lets the caller abandon a sweep: the drivers
	// check it between measurements and return its error once it is done.
	// The measured operations themselves run without an execution context,
	// so every cell stays comparable to baselines recorded before
	// cancellation existed.
	Context context.Context
}

// checkpoint returns the options context's error, checked by the experiment
// drivers between measurements (never inside a timed region).
func (o Options) checkpoint() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// algorithms resolves the per-cell algorithm list.
func (o Options) algorithms() []xqtp.Algorithm {
	if len(o.Algorithms) > 0 {
		return o.Algorithms
	}
	return xqtp.Algorithms
}

// DefaultOptions reproduces the paper's experiment parameters.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		Table1Sizes:     []int{2_100_000, 4_300_000, 6_500_000, 8_700_000, 11_000_000},
		Fig4People:      []int{250, 500, 1000, 2000, 4000},
		Fig6People:      2000,
		DeepNodes:       50_000,
		DeepDepth:       15,
		CollectionSizes: []int{10, 100, 1000, 3000},
		Repeats:         3,
		Load:            LoadOptions{People: 100, Clients: []int{1, 4, 16}, CellDuration: 2 * time.Second},
	}
}

// QuickOptions is a scaled-down configuration for smoke runs and tests.
func QuickOptions() Options {
	return Options{
		Seed:            1,
		Table1Sizes:     []int{200_000, 400_000},
		Fig4People:      []int{100, 200},
		Fig6People:      300,
		DeepNodes:       10_000,
		DeepDepth:       15,
		CollectionSizes: []int{10, 50},
		Repeats:         1,
		Load:            LoadOptions{People: 25, Clients: []int{1, 4}, CellDuration: 400 * time.Millisecond},
	}
}

// sample is one measured operation: the median wall time over the timed
// runs and the per-run allocation footprint.
type sample struct {
	d             time.Duration
	allocs, bytes int64
}

// metrics returns the sample's ns/op, allocs/op and bytes/op; experiments
// add their own rates to the returned map.
func (s sample) metrics() map[string]float64 {
	return map[string]float64{
		"ns_per_op":     float64(s.d.Nanoseconds()),
		"allocs_per_op": float64(s.allocs),
		"bytes_per_op":  float64(s.bytes),
	}
}

// measure runs op once to warm up (populating plan and index caches, so the
// deltas reflect serving state, not first-run setup), then repeats timed
// runs, returning the median wall time, the per-run allocation footprint
// from MemStats deltas, and the warm-up run's count.
func measure(op func() (int, error), repeats int) (sample, int, error) {
	if repeats < 1 {
		repeats = 1
	}
	n, err := op()
	if err != nil {
		return sample{}, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if _, err := op(); err != nil {
			return sample{}, 0, err
		}
		times = append(times, time.Since(start))
	}
	runtime.ReadMemStats(&after)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return sample{
		d:      times[len(times)/2],
		allocs: int64(after.Mallocs-before.Mallocs) / int64(repeats),
		bytes:  int64(after.TotalAlloc-before.TotalAlloc) / int64(repeats),
	}, n, nil
}

// measureQuery measures one prepared query over one document.
func measureQuery(q *xqtp.Query, doc *xqtp.Document, alg xqtp.Algorithm, repeats int) (sample, error) {
	s, _, err := measure(func() (int, error) {
		_, err := q.Run(doc, alg)
		return 0, err
	}, repeats)
	return s, err
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.5f", d.Seconds()) }

// Table1 regenerates Table 1: evaluation time of QE1–QE6 under NLJoin,
// TwigJoin and SCJoin over MemBeR documents of growing size. The fastest
// algorithm per cell row group is marked with '*'. The report carries
// ns/op, allocs/op and bytes/op per (query, alg, document_bytes) cell.
func Table1(w io.Writer, opts Options) (*Report, error) {
	fmt.Fprintf(w, "Table 1: QE1-QE6 evaluation time (seconds), MemBeR documents (depth 4, 100 tags)\n\n")
	docs := make([]*xqtp.Document, len(opts.Table1Sizes))
	fmt.Fprintf(w, "%-10s", "doc size")
	for i, sz := range opts.Table1Sizes {
		docs[i] = xqtp.NewMemberDocument(opts.Seed+int64(i), sz)
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%.1fMB", float64(sz)/1e6))
	}
	fmt.Fprintln(w)
	algs := opts.algorithms()
	report := newReport("table1", opts)
	for _, pq := range xqtp.QEQueries {
		q, err := plans.Prepare(pq.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pq.Name, err)
		}
		// Measure all cells first to mark the per-column winner.
		cells := make([][]time.Duration, len(algs))
		for ai, alg := range algs {
			cells[ai] = make([]time.Duration, len(docs))
			for di, doc := range docs {
				if err := opts.checkpoint(); err != nil {
					return nil, err
				}
				s, err := measureQuery(q, doc, alg, opts.Repeats)
				if err != nil {
					return nil, fmt.Errorf("%s/%v: %w", pq.Name, alg, err)
				}
				cells[ai][di] = s.d
				report.add(map[string]string{
					"query":          pq.Name,
					"alg":            alg.Short(),
					"document_bytes": strconv.Itoa(opts.Table1Sizes[di]),
				}, s.metrics())
			}
		}
		for ai, alg := range algs {
			label := pq.Name
			if ai > 0 {
				label = ""
			}
			fmt.Fprintf(w, "%-4s %-5s", label, alg.Short())
			for di := range docs {
				best := true
				for aj := range algs {
					if cells[aj][di] < cells[ai][di] {
						best = false
						break
					}
				}
				mark := " "
				if best {
					mark = "*"
				}
				fmt.Fprintf(w, "%11s%s", seconds(cells[ai][di]), mark)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\n(* = fastest algorithm for that query and document size)")
	return report, nil
}

// Figure4 regenerates Fig. 4: the §5.1 path expression written as a
// FLWOR, evaluated with and without the tree-pattern rewrites over growing
// XMark documents.
func Figure4(w io.Writer, opts Options) error {
	fmt.Fprintf(w, "Figure 4: FLWOR-written path, with vs without tree-pattern rewrites (seconds)\n\n")
	flwor := xqtp.Fig4Variants()[7] // a fully exploded FLWOR variant
	oldQ, err := xqtp.PrepareWithOptions(flwor, xqtp.StandardEngineOptions)
	if err != nil {
		return err
	}
	newQ, err := plans.Prepare(flwor)
	if err != nil {
		return err
	}
	if newQ.TreePatterns() != 1 {
		return fmt.Errorf("figure4: rewritten variant has %d patterns", newQ.TreePatterns())
	}
	fmt.Fprintf(w, "%-12s %-10s %-12s %-12s %-12s %-12s\n",
		"people", "size", "no-rewrite", "TTP(NL)", "TTP(TJ)", "TTP(SC)")
	for i, people := range opts.Fig4People {
		if err := opts.checkpoint(); err != nil {
			return err
		}
		doc := xqtp.NewXMarkDocument(opts.Seed+int64(i), people)
		told, err := measureQuery(oldQ, doc, xqtp.NestedLoop, opts.Repeats)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-12d %-10s %-12s", people, fmt.Sprintf("%.1fMB", float64(doc.SizeBytes())/1e6), seconds(told.d))
		for _, alg := range xqtp.Algorithms {
			tn, err := measureQuery(newQ, doc, alg, opts.Repeats)
			if err != nil {
				return err
			}
			row += fmt.Sprintf(" %-12s", seconds(tn.d))
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "\n(query: %s)\n", flwor)
	return nil
}

// Figure6 regenerates Fig. 6: XMark queries in child form and in the
// equivalent descendant form, under the three algorithms.
func Figure6(w io.Writer, opts Options) error {
	doc := xqtp.NewXMarkDocument(opts.Seed, opts.Fig6People)
	fmt.Fprintf(w, "Figure 6: XMark queries, child vs descendant steps (seconds, %.1fMB document)\n\n",
		float64(doc.SizeBytes())/1e6)
	algs := opts.algorithms()
	fmt.Fprintf(w, "%-14s %-6s", "query", "form")
	for _, alg := range algs {
		fmt.Fprintf(w, " %-12s", alg.Short())
	}
	fmt.Fprintln(w)
	for _, pair := range xqtp.Figure6Queries {
		for _, form := range []struct {
			label string
			src   string
		}{{"child", pair.Child}, {"desc", pair.Descendant}} {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := plans.Prepare(form.src)
			if err != nil {
				return fmt.Errorf("%s: %w", pair.Name, err)
			}
			fmt.Fprintf(w, "%-14s %-6s", pair.Name, form.label)
			for _, alg := range algs {
				s, err := measureQuery(q, doc, alg, opts.Repeats)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %-12s", seconds(s.d))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Section53 regenerates the §5.3 table: the highly selective positional
// chain (/t1[1])^k on a deep single-tag document, where the nested loop's
// cursor-style early exit beats the set-at-a-time algorithms.
func Section53(w io.Writer, opts Options) error {
	doc := xqtp.NewDeepDocument(opts.Seed, opts.DeepNodes, opts.DeepDepth, "t1")
	fmt.Fprintf(w, "Section 5.3: (/t1[1])^k on a %d-node depth-%d document (seconds)\n\n",
		opts.DeepNodes, opts.DeepDepth)
	ks := []int{5, 10, 15}
	if opts.DeepDepth < 15 {
		ks = []int{3, opts.DeepDepth / 2, opts.DeepDepth - 1}
	}
	fmt.Fprintf(w, "%-10s", "")
	for _, k := range ks {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintln(w)
	for _, alg := range xqtp.Algorithms {
		fmt.Fprintf(w, "%-10s", alg.String())
		for _, k := range ks {
			if err := opts.checkpoint(); err != nil {
				return err
			}
			q, err := plans.Prepare(xqtp.Section53Query(k))
			if err != nil {
				return err
			}
			s, err := measureQuery(q, doc, alg, opts.Repeats)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12s", seconds(s.d))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Validation regenerates the §5.1 robustness check: all syntactic
// variants of the Fig. 4 path compile to the identical single-pattern plan.
func Validation(w io.Writer) error {
	variants := xqtp.Fig4Variants()
	fmt.Fprintf(w, "Section 5.1 validation: %d syntactic variants of\n  %s\n\n", len(variants), xqtp.Fig4Query)
	var refPlan string
	identical := 0
	for i, v := range variants {
		q, err := plans.Prepare(v)
		if err != nil {
			return fmt.Errorf("variant %d: %w", i, err)
		}
		if i == 0 {
			refPlan = q.Plan()
		}
		same := q.Plan() == refPlan && q.TreePatterns() == 1
		if same {
			identical++
		}
		status := "ok "
		if !same {
			status = "DIFF"
		}
		fmt.Fprintf(w, "  [%s] %s\n", status, v)
	}
	fmt.Fprintf(w, "\n%d/%d variants compile to the identical plan:\n  %s\n", identical, len(variants), refPlan)
	if identical != len(variants) {
		return fmt.Errorf("validation failed: %d/%d variants diverged", len(variants)-identical, len(variants))
	}
	return nil
}

// All runs every experiment that prints a table, in paper order, followed
// by the corpus experiments; their reports are discarded.
func All(w io.Writer, opts Options) error {
	steps := []func() error{
		func() error { return Validation(w) },
		func() error { return Figure4(w, opts) },
		func() error { _, err := Table1(w, opts); return err },
		func() error { return Figure6(w, opts) },
		func() error { return Section53(w, opts) },
		func() error { _, err := Collection(w, opts); return err },
		func() error { _, err := Snapshot(w, opts); return err },
	}
	for i, step := range steps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
