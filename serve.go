package xqtp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// ServeResult is one measurement of the concurrent serving experiment: a
// mixed XMark query workload over a shared document, executed from cached
// plans on a fixed number of processors.
type ServeResult struct {
	Algorithm   string  `json:"algorithm"`
	Procs       int     `json:"procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	QPS         float64 `json:"qps"`
	// Speedup is this measurement's QPS over the same algorithm's
	// single-proc QPS (1.0 for the single-proc row itself).
	Speedup float64 `json:"speedup_vs_serial"`
}

// HTTPServeCell is one measurement of the HTTP serving experiment: a fixed
// number of closed-loop clients issuing the mixed XMark workload as POST
// /query requests against the network serving tier (admission control,
// streamed NDJSON, optional result cache). Latency percentiles come from the
// sorted per-request samples, not a histogram.
type HTTPServeCell struct {
	Algorithm   string  `json:"algorithm"`
	Clients     int     `json:"clients"`
	ResultCache string  `json:"result_cache"` // "off" or "on"
	Requests    int     `json:"requests"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Rows        int64   `json:"rows"`
	Shed        uint64  `json:"shed"`
	CacheHits   uint64  `json:"cache_hits"`
}

// ServeReport is the machine-readable output of RunServeReport.
type ServeReport struct {
	People        int      `json:"xmark_people"`
	DocumentBytes int      `json:"document_bytes"`
	Queries       []string `json:"queries"`
	MaxProcs      int      `json:"max_procs"`
	CPUs          []int    `json:"cpus"`
	// Note documents the measurement environment caveats (in particular:
	// on a single-CPU host the multi-processor rows oversubscribe one core,
	// so speedup_vs_serial reflects scheduling overhead, not parallelism).
	Note    string        `json:"note"`
	Results []ServeResult `json:"results"`
	// HTTPCells are the network-tier rows (treebench -exp serve drives the
	// HTTP server after the in-process sweep and merges its cells here).
	HTTPCells []HTTPServeCell `json:"serve_cells,omitempty"`
}

// WriteJSON writes the report to path as indented JSON.
func (r *ServeReport) WriteJSON(w io.Writer, path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n(report written to %s)\n", path)
	return nil
}

// serveQueries is the mixed workload: the Fig. 6 XMark paths in child form,
// the shape of a read-mostly query service over a loaded document.
func serveQueries() ([]*Query, []string, error) {
	qs := make([]*Query, 0, len(Figure6Queries))
	srcs := make([]string, 0, len(Figure6Queries))
	for _, pair := range Figure6Queries {
		q, err := PrepareCached(pair.Child)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", pair.Name, err)
		}
		qs = append(qs, q)
		srcs = append(srcs, pair.Child)
	}
	return qs, srcs, nil
}

// benchServe measures the mixed workload with procs processors. Queries are
// dispatched round-robin across the benchmark's goroutines; ns/op counts
// individual query executions, so QPS is 1e9/NsPerOp regardless of procs.
func benchServe(doc *Document, queries []*Query, alg Algorithm, procs int) (testing.BenchmarkResult, error) {
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

// RunServeReport measures the compile-once/index-once serving path:
// concurrent mixed XMark queries from cached plans against one shared
// document. The cpus list gives the GOMAXPROCS settings to measure (nil
// measures one processor and, when more are available, every processor).
// It returns the report so a caller (cmd/treebench) can append the HTTP
// serving cells before serializing it with WriteJSON.
func RunServeReport(w io.Writer, opts ExperimentOptions, cpus []int) (*ServeReport, error) {
	doc := NewXMarkDocument(opts.Seed, opts.Fig6People)
	queries, srcs, err := serveQueries()
	if err != nil {
		return nil, err
	}
	maxProcs := runtime.GOMAXPROCS(0)
	procsList := []int{1}
	if maxProcs > 1 {
		procsList = append(procsList, maxProcs)
	}
	if len(cpus) > 0 {
		procsList = procsList[:0]
		for _, c := range cpus {
			if c >= 1 {
				procsList = append(procsList, c)
			}
		}
		if len(procsList) == 0 {
			return nil, fmt.Errorf("serve: no usable cpu count in %v", cpus)
		}
	}
	note := fmt.Sprintf("measured with %d CPU(s) available", runtime.NumCPU())
	if runtime.NumCPU() == 1 {
		note += "; rows with procs > 1 oversubscribe a single core, so qps and speedup_vs_serial measure scheduling overhead, not parallel scaling"
	}
	report := ServeReport{
		People:        opts.Fig6People,
		DocumentBytes: doc.SizeBytes(),
		Queries:       srcs,
		MaxProcs:      maxProcs,
		CPUs:          procsList,
		Note:          note,
	}
	fmt.Fprintf(w, "Serving: %d mixed XMark queries, cached plans, shared %.1fMB document\n\n",
		len(queries), float64(doc.SizeBytes())/1e6)
	fmt.Fprintf(w, "%-6s %-7s %-12s %-12s %-10s %-10s %-8s\n",
		"alg", "procs", "ns/op", "qps", "B/op", "allocs/op", "speedup")
	for _, alg := range []Algorithm{NestedLoop, Twig, Staircase, Auto} {
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
			r := ServeResult{
				Algorithm:   shortAlg(alg),
				Procs:       procs,
				NsPerOp:     ns,
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				QPS:         1e9 / ns,
			}
			if procs == 1 {
				serial = ns
			}
			if serial > 0 {
				r.Speedup = serial / ns
			}
			report.Results = append(report.Results, r)
			fmt.Fprintf(w, "%-6s %-7d %-12.0f %-12.0f %-10d %-10d %-8.2f\n",
				r.Algorithm, r.Procs, r.NsPerOp, r.QPS, r.BytesPerOp, r.AllocsPerOp, r.Speedup)
		}
	}
	return &report, nil
}
