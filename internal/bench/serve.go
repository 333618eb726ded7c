package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"xqtp"
)

// The serve experiment measures the serving path twice over. The in-process
// rows (labels alg, procs) run the mixed XMark workload from cached plans
// against one shared document at several GOMAXPROCS settings; the HTTP rows
// (labels alg, clients, result_cache; see loadgen.go) drive the real network
// tier with closed-loop clients. Both carry xmark_people and the workload
// name, queries=fig6-child: the Fig. 6 XMark paths in child form, the shape
// of a read-mostly query service over a loaded document.

// serveQueries is the mixed workload: the Fig. 6 XMark paths in child form.
func serveQueries() ([]*xqtp.Query, error) {
	qs := make([]*xqtp.Query, 0, len(xqtp.Figure6Queries))
	for _, pair := range xqtp.Figure6Queries {
		q, err := xqtp.PrepareCached(pair.Child)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pair.Name, err)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// benchServe measures the mixed workload with procs processors. Queries are
// dispatched round-robin across the benchmark's goroutines; ns/op counts
// individual query executions, so QPS is 1e9/NsPerOp regardless of procs.
func benchServe(doc *xqtp.Document, queries []*xqtp.Query, alg xqtp.Algorithm, procs int) (testing.BenchmarkResult, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var benchErr atomic.Value
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var next uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q := queries[int(atomic.AddUint64(&next, 1))%len(queries)]
				if _, err := q.Run(doc, alg); err != nil {
					benchErr.Store(err)
					return
				}
			}
		})
	})
	if err, ok := benchErr.Load().(error); ok {
		return res, err
	}
	return res, nil
}

// Serve measures the compile-once/index-once serving path in process —
// concurrent mixed XMark queries from cached plans against one shared
// document, at each of opts.Procs (nil: one processor and, when more are
// available, every processor) — and then the HTTP serving tier under
// opts.Load.
func Serve(w io.Writer, opts Options) (*Report, error) {
	doc := xqtp.NewXMarkDocument(opts.Seed, opts.Fig6People)
	queries, err := serveQueries()
	if err != nil {
		return nil, err
	}
	procsList := []int{1}
	if maxProcs := runtime.GOMAXPROCS(0); maxProcs > 1 {
		procsList = append(procsList, maxProcs)
	}
	if len(opts.Procs) > 0 {
		procsList = opts.Procs
	}
	report := newReport("serve", opts)
	report.Repeats = 0 // testing.Benchmark picks its own iteration counts
	report.Note = fmt.Sprintf("measured with %d CPU(s) available", report.CPUs)
	if report.CPUs == 1 {
		report.Note += "; rows with procs > 1 oversubscribe a single core, so qps and speedup_vs_serial measure scheduling overhead, not parallel scaling" +
			"; HTTP rows with clients > 1 time-share a single core, so their qps bounds overhead, not scaling"
	}
	fmt.Fprintf(w, "Serving: %d mixed XMark queries, cached plans, shared %.1fMB document\n\n",
		len(queries), float64(doc.SizeBytes())/1e6)
	fmt.Fprintf(w, "%-6s %-7s %-12s %-12s %-10s %-10s %-8s\n",
		"alg", "procs", "ns/op", "qps", "B/op", "allocs/op", "speedup")
	for _, alg := range []xqtp.Algorithm{xqtp.NestedLoop, xqtp.Twig, xqtp.Staircase, xqtp.Auto} {
		// Warm every (query, document, algorithm) combination — the physical
		// lowering and the prepared joins — so the timed region measures the
		// steady serving state: slot-addressed plans, one field store per run.
		for _, q := range queries {
			if _, err := q.Run(doc, alg); err != nil {
				return nil, err
			}
		}
		var serial float64
		for _, procs := range procsList {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			res, err := benchServe(doc, queries, alg, procs)
			if err != nil {
				return nil, err
			}
			ns := float64(res.NsPerOp())
			if res.N > 0 && ns == 0 {
				ns = float64(res.T.Nanoseconds()) / float64(res.N)
			}
			if procs == 1 {
				serial = ns
			}
			speedup := 0.0
			if serial > 0 {
				speedup = serial / ns
			}
			report.add(map[string]string{
				"alg":          alg.Short(),
				"procs":        strconv.Itoa(procs),
				"xmark_people": strconv.Itoa(opts.Fig6People),
				"queries":      "fig6-child",
			}, map[string]float64{
				"document_bytes":    float64(doc.SizeBytes()),
				"ns_per_op":         ns,
				"allocs_per_op":     float64(res.AllocsPerOp()),
				"bytes_per_op":      float64(res.AllocedBytesPerOp()),
				"qps":               1e9 / ns,
				"speedup_vs_serial": speedup,
			})
			fmt.Fprintf(w, "%-6s %-7d %-12.0f %-12.0f %-10d %-10d %-8.2f\n",
				alg.Short(), procs, ns, 1e9/ns, res.AllocedBytesPerOp(), res.AllocsPerOp(), speedup)
		}
	}
	cells, err := httpLoad(w, opts)
	if err != nil {
		return nil, err
	}
	report.Cells = append(report.Cells, cells...)
	return report, nil
}
