package bench

import (
	"bytes"
	"fmt"
	"io"

	"xqtp/internal/gen"
	"xqtp/internal/xmlstore"
	"xqtp/internal/xmlstore/stdxml"
)

// The ingest experiment measures document loading throughput: the fused
// zero-copy scanner (Ingest: one pass producing tree, columns, and index)
// against the encoding/xml reference path (ParseStd + BuildIndex — the
// serving path before the fast scanner existed). Both sides are measured
// end to end from the same document bytes to a ready-to-query index.

// ingestDoc is one benchmark document: its display name and serialized
// bytes.
type ingestDoc struct {
	name string
	data []byte
}

// ingestDocuments builds the benchmark corpus: MemBeR documents at the
// Table 1 sizes plus an XMark document calibrated to ≈1.0 MB (≈250 KB in
// quick runs), the acceptance-gate row.
func ingestDocuments(opts Options) []ingestDoc {
	var docs []ingestDoc
	for i, sz := range opts.Table1Sizes {
		root := gen.MemberRoot(gen.MemberConfig{
			Seed: opts.Seed + int64(i), Depth: 4, NumTags: 100, NumNodes: sz / 9,
		})
		docs = append(docs, ingestDoc{
			name: fmt.Sprintf("member-%.1fMB", float64(sz)/1e6),
			data: gen.XML(root, sz+sz/8),
		})
	}
	xmarkTarget := 1_000_000
	if len(opts.Table1Sizes) > 0 && opts.Table1Sizes[0] < 1_000_000 {
		xmarkTarget = 250_000 // quick scale
	}
	// Calibrate the people count against a probe document, then regenerate
	// at the scaled size.
	probePeople := 200
	probe := gen.XML(gen.XMarkRoot(gen.XMarkConfig{Seed: opts.Seed, People: probePeople}), 0)
	people := probePeople * xmarkTarget / len(probe)
	if people < 1 {
		people = 1
	}
	docs = append(docs, ingestDoc{
		name: fmt.Sprintf("xmark-%.1fMB", float64(xmarkTarget)/1e6),
		data: gen.XML(gen.XMarkRoot(gen.XMarkConfig{Seed: opts.Seed, People: people}), xmarkTarget+xmarkTarget/8),
	})
	return docs
}

// Ingest measures ingest throughput (fast scanner vs encoding/xml
// reference) over the benchmark corpus: MB/s, ns/op, B/op, allocs/op per
// (document, parser) cell.
func Ingest(w io.Writer, opts Options) (*Report, error) {
	fmt.Fprintf(w, "Ingest: XML bytes to queryable index, fast scanner vs encoding/xml\n\n")
	fmt.Fprintf(w, "%-16s %-6s %10s %12s %12s %14s %12s\n",
		"document", "parser", "MB/s", "ms/op", "nodes", "B/op", "allocs/op")
	report := newReport("ingest", opts)
	for _, doc := range ingestDocuments(opts) {
		data := doc.data
		sides := []struct {
			name string
			op   func() (int, error)
		}{
			{"fast", func() (int, error) {
				ix, err := xmlstore.Ingest(data)
				if err != nil {
					return 0, err
				}
				return ix.Tree.CountNodes(), nil
			}},
			{"std", func() (int, error) {
				t, err := stdxml.ParseStd(bytes.NewReader(data))
				if err != nil {
					return 0, err
				}
				ix := xmlstore.BuildIndex(t)
				return ix.Tree.CountNodes(), nil
			}},
		}
		for _, side := range sides {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			s, nodes, err := measure(side.op, opts.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", doc.name, side.name, err)
			}
			mbps := float64(len(data)) / s.d.Seconds() / 1e6
			fmt.Fprintf(w, "%-16s %-6s %10.1f %12.2f %12d %14d %12d\n",
				doc.name, side.name, mbps, float64(s.d.Nanoseconds())/1e6, nodes, s.bytes, s.allocs)
			m := s.metrics()
			m["document_bytes"] = float64(len(data))
			m["nodes"] = float64(nodes)
			m["mb_per_sec"] = mbps
			report.add(map[string]string{"document": doc.name, "parser": side.name}, m)
		}
	}
	return report, nil
}
