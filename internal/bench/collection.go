package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"xqtp"
	"xqtp/internal/gen"
)

// The collection experiment measures the corpus layer: parallel ingest
// throughput (MB/s, one bounded worker pool over the fused scanner) and
// fan-out query throughput (corpus queries per second) as the corpus grows,
// each at one worker and at one worker per CPU.

// collectionQueries are the query rows: a root-bound XMark pattern (fans out
// per member, skipping the MemBeR members via the name table), a root-bound
// MemBeR pattern, and an fn:collection() form (evaluated once over the
// corpus, parallel across member roots).
var collectionQueries = []xqtp.PaperQuery{
	{Name: "fanout-xmark", Query: `$input//person[emailaddress]/name`},
	{Name: "fanout-member", Query: `$input//t01[t02]`},
	{Name: "collection-fn", Query: `fn:collection()//person[emailaddress]/name`},
}

// collectionWorkerCounts returns the measured worker settings: 1 and one per
// CPU (deduplicated on single-CPU hosts).
func collectionWorkerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// Collection measures corpus ingest MB/s, snapshot save/load MB/s and
// fan-out query QPS against corpus size and worker count. Cells are labeled
// by phase, docs and workers (and query, for query rows).
func Collection(w io.Writer, opts Options) (*Report, error) {
	fmt.Fprintf(w, "Collection: parallel corpus ingest and fan-out query throughput\n\n")
	report := newReport("collection", opts)
	if report.CPUs == 1 {
		report.Note = "single-CPU host: workers>1 rows are absent and parallel speedups cannot manifest; treat these as single-proc baselines"
	}
	workerCounts := collectionWorkerCounts()
	cellLabels := func(phase string, docs, workers int) map[string]string {
		return map[string]string{"phase": phase, "docs": strconv.Itoa(docs), "workers": strconv.Itoa(workers)}
	}

	fmt.Fprintf(w, "%-8s %-8s %10s %12s %12s %14s %12s\n",
		"docs", "workers", "MB/s", "ms/op", "nodes", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		sources := gen.MixedCorpus(nDocs, opts.Seed)
		totalBytes := sourceBytes(sources)
		for _, workers := range workerCounts {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			s, nodes, err := measure(func() (int, error) {
				c, err := xqtp.LoadCorpus(sources, workers)
				if err != nil {
					return 0, err
				}
				return c.NumNodes(), nil
			}, opts.Repeats)
			if err != nil {
				return nil, fmt.Errorf("ingest %d docs: %w", nDocs, err)
			}
			mbps := float64(totalBytes) / s.d.Seconds() / 1e6
			fmt.Fprintf(w, "%-8d %-8d %10.1f %12.2f %12d %14d %12d\n",
				nDocs, workers, mbps, float64(s.d.Nanoseconds())/1e6, nodes, s.bytes, s.allocs)
			m := s.metrics()
			m["corpus_bytes"] = float64(totalBytes)
			m["nodes"] = float64(nodes)
			m["mb_per_sec"] = mbps
			report.add(cellLabels("ingest", nDocs, workers), m)
		}
	}

	// Snapshot phases: serialize the loaded corpus and load it back. MB/s is
	// normalized to the corpus's XML size, so the load rows state directly
	// how much faster opening a snapshot is than re-ingesting the XML.
	fmt.Fprintf(w, "\n%-16s %-8s %10s %12s %16s %14s %12s\n",
		"phase", "docs", "MB/s", "ms/op", "snapshot_bytes", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		sources := gen.MixedCorpus(nDocs, opts.Seed)
		totalBytes := sourceBytes(sources)
		corpus, err := xqtp.LoadCorpus(sources, 0)
		if err != nil {
			return nil, err
		}
		var blob []byte
		s, snapBytes, err := measure(func() (int, error) {
			var buf bytes.Buffer
			if err := corpus.SaveSnapshot(&buf); err != nil {
				return 0, err
			}
			blob = buf.Bytes()
			return len(blob), nil
		}, opts.Repeats)
		if err != nil {
			return nil, fmt.Errorf("snapshot-save %d docs: %w", nDocs, err)
		}
		mbps := float64(totalBytes) / s.d.Seconds() / 1e6
		fmt.Fprintf(w, "%-16s %-8d %10.1f %12.2f %16d %14d %12d\n",
			"snapshot-save", nDocs, mbps, float64(s.d.Nanoseconds())/1e6, snapBytes, s.bytes, s.allocs)
		m := s.metrics()
		m["corpus_bytes"] = float64(totalBytes)
		m["snapshot_bytes"] = float64(snapBytes)
		m["mb_per_sec"] = mbps
		report.add(cellLabels("snapshot-save", nDocs, 1), m)

		s, nodes, err := measure(func() (int, error) {
			c, err := xqtp.OpenCorpusSnapshot(blob)
			if err != nil {
				return 0, err
			}
			return c.NumNodes(), nil
		}, opts.Repeats)
		if err != nil {
			return nil, fmt.Errorf("snapshot-load %d docs: %w", nDocs, err)
		}
		mbps = float64(totalBytes) / s.d.Seconds() / 1e6
		fmt.Fprintf(w, "%-16s %-8d %10.1f %12.2f %16d %14d %12d\n",
			"snapshot-load", nDocs, mbps, float64(s.d.Nanoseconds())/1e6, len(blob), s.bytes, s.allocs)
		m = s.metrics()
		m["corpus_bytes"] = float64(totalBytes)
		m["snapshot_bytes"] = float64(len(blob))
		m["nodes"] = float64(nodes)
		m["mb_per_sec"] = mbps
		report.add(cellLabels("snapshot-load", nDocs, 1), m)
	}

	fmt.Fprintf(w, "\n%-16s %-8s %-8s %10s %12s %8s %8s %14s %12s\n",
		"query", "docs", "workers", "qps", "ms/op", "items", "skipped", "B/op", "allocs/op")
	for _, nDocs := range opts.CollectionSizes {
		corpus, err := xqtp.LoadCorpus(gen.MixedCorpus(nDocs, opts.Seed), 0)
		if err != nil {
			return nil, err
		}
		for _, pq := range collectionQueries {
			q, err := xqtp.Prepare(pq.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pq.Name, err)
			}
			for _, workers := range workerCounts {
				if err := opts.checkpoint(); err != nil {
					return nil, err
				}
				items, skipped := 0, 0
				s, _, err := measure(func() (int, error) {
					seq, rs, err := corpus.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: workers})
					if err != nil {
						return 0, err
					}
					items = len(seq)
					skipped = rs.Skipped
					return items, nil
				}, opts.Repeats)
				if err != nil {
					return nil, fmt.Errorf("%s over %d docs: %w", pq.Name, nDocs, err)
				}
				qps := 1 / s.d.Seconds()
				fmt.Fprintf(w, "%-16s %-8d %-8d %10.1f %12.2f %8d %8d %14d %12d\n",
					pq.Name, nDocs, workers, qps, float64(s.d.Nanoseconds())/1e6, items, skipped, s.bytes, s.allocs)
				labels := cellLabels("query", nDocs, workers)
				labels["query"] = pq.Name
				m := s.metrics()
				m["corpus_bytes"] = float64(corpus.SizeBytes())
				m["items"] = float64(items)
				m["skipped"] = float64(skipped)
				m["qps"] = qps
				report.add(labels, m)
			}
		}
	}
	return report, nil
}

// sourceBytes is the total XML size of a generated corpus.
func sourceBytes(sources []xqtp.CorpusSource) int {
	n := 0
	for _, s := range sources {
		n += len(s.Data)
	}
	return n
}
