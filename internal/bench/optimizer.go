package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"xqtp"
	"xqtp/internal/gen"
)

// The optimizer experiment scores the cost model itself rather than the
// kernels: per-step estimated vs actual cardinalities (q-error) for the
// paper workload, and the count-based emptiness proof's member skip rates
// over the mixed collection corpus.

// qError is max((est+1)/(act+1), (act+1)/(est+1)): 1.0 is a perfect
// estimate, and the factor reads the same whichever side is off.
func qError(est float64, act int) float64 {
	a := float64(act) + 1
	e := est + 1
	if e > a {
		return e / a
	}
	return a / e
}

// Optimizer measures the cost model: per-step q-errors for the Table 1
// workload over the MemBeR documents and the Fig. 1/Fig. 4 queries over an
// XMark document (kind=step cells: est, act, q_error), then the emptiness
// proof's member skip counts over the mixed collection corpus (kind=skip
// cells). Estimates and counts are exact, so nothing is repeated.
func Optimizer(w io.Writer, opts Options) (*Report, error) {
	fmt.Fprintf(w, "Optimizer: per-step cardinality estimates vs actuals, and corpus member skipping\n\n")
	report := newReport("optimizer", opts)
	report.Repeats = 0
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	type workloadDoc struct {
		label string
		doc   *xqtp.Document
		qs    []xqtp.PaperQuery
	}
	var docs []workloadDoc
	for i, sz := range opts.Table1Sizes {
		docs = append(docs, workloadDoc{
			label: fmt.Sprintf("member-%d", sz),
			doc:   xqtp.NewMemberDocument(opts.Seed+int64(i), sz),
			qs:    xqtp.QEQueries,
		})
	}
	xmarkQs := append(append([]xqtp.PaperQuery{}, xqtp.Figure1Queries...), xqtp.PaperQuery{Name: "Fig4", Query: xqtp.Fig4Query})
	docs = append(docs, workloadDoc{
		label: fmt.Sprintf("xmark-%d", opts.Fig6People),
		doc:   xqtp.NewXMarkDocument(opts.Seed, opts.Fig6People),
		qs:    xmarkQs,
	})

	fmt.Fprintf(w, "%-6s %-16s %-40s %12s %10s %8s\n",
		"query", "doc", "step", "est", "act", "q-err")
	for _, wd := range docs {
		for _, pq := range wd.qs {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			q, err := xqtp.PrepareCached(pq.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pq.Name, err)
			}
			steps, err := q.StepEstimates(ctx, wd.doc)
			if err != nil {
				return nil, fmt.Errorf("%s over %s: %w", pq.Name, wd.label, err)
			}
			for _, st := range steps {
				if st.Act < 0 {
					continue
				}
				qe := qError(st.Est, st.Act)
				fmt.Fprintf(w, "%-6s %-16s %-40s %12.1f %10d %8.2f\n",
					pq.Name, wd.label, st.Step, st.Est, st.Act, qe)
				report.add(
					map[string]string{"kind": "step", "query": pq.Name, "doc": wd.label, "step": st.Step},
					map[string]float64{"est": st.Est, "act": float64(st.Act), "q_error": qe})
			}
		}
	}

	// Skip rows: the mixed MemBeR/XMark corpus, where each root-bound query
	// provably cannot match roughly half the members.
	fmt.Fprintf(w, "\n%-16s %-8s %-8s %-8s\n", "query", "docs", "skipped", "evaluated")
	workers := runtime.NumCPU()
	for _, nDocs := range opts.CollectionSizes {
		corpus, err := xqtp.LoadCorpus(gen.MixedCorpus(nDocs, opts.Seed), 0)
		if err != nil {
			return nil, err
		}
		for _, pq := range collectionQueries {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			q, err := xqtp.Prepare(pq.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pq.Name, err)
			}
			_, rs, err := corpus.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: workers})
			if err != nil {
				return nil, fmt.Errorf("%s over %d docs: %w", pq.Name, nDocs, err)
			}
			fmt.Fprintf(w, "%-16s %-8d %-8d %-8d\n",
				pq.Name, rs.Members, rs.Skipped, rs.Members-rs.Skipped)
			report.add(
				map[string]string{"kind": "skip", "query": pq.Name, "members": strconv.Itoa(rs.Members)},
				map[string]float64{"skipped": float64(rs.Skipped)})
		}
	}
	return report, nil
}
