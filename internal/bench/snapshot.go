package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"xqtp"
	"xqtp/internal/gen"
)

// The snapshot experiment measures the paging behavior of the file-backed
// snapshot store: cold-open latency (file to queryable corpus), first-query
// latency on a cold store (the one member the query touches pages in and
// parses; everything else stays on disk), and the resident set those two
// operations leave behind — each in "mmap" mode (OpenCorpusFile) against
// the "readall" baseline (read the whole file, then open the buffer).

// Snapshot cells are labeled by phase, mode and docs (and query, for the
// query phases). The phases:
//
//   - "cold-open": open the snapshot file into a queryable corpus.
//   - "first-query": one needle query against a freshly opened corpus
//     (open outside the timed region) — the latency of faulting in and
//     parsing exactly the members the query needs.
//   - "warm-query": the same query repeated on the same corpus, members
//     already loaded — the steady-state floor.
//
// The resident_bytes metric is present for mmap rows on hosts that can
// report it (Linux): the snapshot mapping's resident set after the phase
// ran, the direct measure of how little of the file the operation touched.

// snapshotNeedleURI / snapshotNeedleQuery: one extra corpus member carrying
// a tag that occurs nowhere else, and the query that finds it. The name
// table prunes every other member, so a first-query measurement touches
// exactly one member's pages — the experiment's larger-than-RAM story in
// miniature.
const (
	snapshotNeedleURI   = "mem://needle.xml"
	snapshotNeedleXML   = `<needle><pin note="x">hit</pin></needle>`
	snapshotNeedleQuery = `$input//needle/pin`
)

// snapshotCorpusFile writes the generated corpus (plus the needle member)
// as a snapshot file under dir and returns its path and size.
func snapshotCorpusFile(dir string, nDocs int, seed int64) (string, int, error) {
	sources := gen.MixedCorpus(nDocs, seed)
	sources = append(sources, xqtp.CorpusSource{URI: snapshotNeedleURI, Data: []byte(snapshotNeedleXML)})
	corpus, err := xqtp.LoadCorpus(sources, 0)
	if err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("corpus-%d.xqts", nDocs))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := corpus.SaveSnapshot(f); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, int(st.Size()), nil
}

// snapshotOpen opens the snapshot file in the given mode. "readall" goes
// through the buffer-owning path directly rather than the environment
// variable, so the two modes are measured in one process.
func snapshotOpen(path, mode string) (*xqtp.Corpus, error) {
	if mode == "readall" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return xqtp.OpenCorpusSnapshot(data)
	}
	return xqtp.OpenCorpusFile(path)
}

// measureCold times op against a fresh state each repeat: setup runs
// outside the timed region, op inside, teardown after. The median, with
// allocation deltas averaged across repeats, mirroring measure.
func measureCold(repeats int, setup func() error, op func() error, teardown func()) (sample, error) {
	if repeats < 1 {
		repeats = 1
	}
	times := make([]time.Duration, 0, repeats)
	var before, after runtime.MemStats
	var allocs, bytes int64
	for i := 0; i < repeats; i++ {
		if err := setup(); err != nil {
			return sample{}, err
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := op(); err != nil {
			teardown()
			return sample{}, err
		}
		times = append(times, time.Since(start))
		runtime.ReadMemStats(&after)
		allocs += int64(after.Mallocs - before.Mallocs)
		bytes += int64(after.TotalAlloc - before.TotalAlloc)
		teardown()
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return sample{d: times[len(times)/2], allocs: allocs / int64(repeats), bytes: bytes / int64(repeats)}, nil
}

// Snapshot measures snapshot cold-open, first-query and warm-query
// latency, mmap against read-all, with the mapping's resident set where the
// host reports it.
func Snapshot(w io.Writer, opts Options) (*Report, error) {
	fmt.Fprintf(w, "Snapshot: file-backed corpus paging — cold open, first query, resident set\n\n")
	report := newReport("snapshot", opts)
	if runtime.GOOS != "linux" {
		report.Note = "resident-set bytes are reported on Linux only; rows on this host omit them"
	}
	dir, err := os.MkdirTemp("", "xqtp-snapshot-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	q, err := xqtp.Prepare(snapshotNeedleQuery)
	if err != nil {
		return nil, err
	}
	// cell records one row; resident is omitted when the host cannot
	// report it, items/skipped only belong to the query phases.
	cell := func(phase, mode string, nDocs, snapBytes int, s sample, resident int64, haveRes bool, items, skipped int) {
		labels := map[string]string{"phase": phase, "mode": mode, "docs": strconv.Itoa(nDocs)}
		m := s.metrics()
		m["snapshot_bytes"] = float64(snapBytes)
		if haveRes {
			m["resident_bytes"] = float64(resident)
		}
		if phase != "cold-open" {
			labels["query"] = snapshotNeedleQuery
			m["items"] = float64(items)
			m["skipped"] = float64(skipped)
		}
		report.add(labels, m)
	}

	fmt.Fprintf(w, "%-12s %-8s %-8s %12s %16s %16s %10s %10s\n",
		"phase", "mode", "docs", "ms/op", "snapshot_bytes", "resident_bytes", "items", "skipped")
	for _, nDocs := range opts.CollectionSizes {
		path, snapBytes, err := snapshotCorpusFile(dir, nDocs, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d docs: %w", nDocs, err)
		}
		for _, mode := range []string{"mmap", "readall"} {
			if err := opts.checkpoint(); err != nil {
				return nil, err
			}
			// cold-open: file path to queryable corpus, nothing loaded.
			var c *xqtp.Corpus
			s, err := measureCold(opts.Repeats,
				func() error { return nil },
				func() error { c, err = snapshotOpen(path, mode); return err },
				func() { c.Close() })
			if err != nil {
				return nil, fmt.Errorf("cold-open %s %d docs: %w", mode, nDocs, err)
			}
			// The resident set right after an open (measured once, outside
			// the timed loop).
			c, err = snapshotOpen(path, mode)
			if err != nil {
				return nil, err
			}
			resident, haveRes := c.SnapshotResident()
			c.Close()
			cell("cold-open", mode, nDocs, snapBytes, s, resident, haveRes, 0, 0)
			fmt.Fprintf(w, "%-12s %-8s %-8d %12.3f %16d %16s %10s %10s\n",
				"cold-open", mode, nDocs, float64(s.d.Nanoseconds())/1e6, snapBytes,
				residentString(resident, haveRes), "", "")

			// first-query: a cold corpus answers the needle query. The open
			// is setup; only the query is timed.
			items, skipped := 0, 0
			var lastRes int64
			var lastHaveRes bool
			s, err = measureCold(opts.Repeats,
				func() error { c, err = snapshotOpen(path, mode); return err },
				func() error {
					seq, rs, err := c.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: 1})
					if err != nil {
						return err
					}
					items = len(seq)
					skipped = rs.Skipped
					return nil
				},
				func() {
					lastRes, lastHaveRes = c.SnapshotResident()
					c.Close()
				})
			if err != nil {
				return nil, fmt.Errorf("first-query %s %d docs: %w", mode, nDocs, err)
			}
			cell("first-query", mode, nDocs, snapBytes, s, lastRes, lastHaveRes, items, skipped)
			fmt.Fprintf(w, "%-12s %-8s %-8d %12.3f %16d %16s %10d %10d\n",
				"first-query", mode, nDocs, float64(s.d.Nanoseconds())/1e6, snapBytes,
				residentString(lastRes, lastHaveRes), items, skipped)

			// warm-query: the same corpus, needle member already loaded.
			c, err = snapshotOpen(path, mode)
			if err != nil {
				return nil, err
			}
			if _, err := c.Run(q, xqtp.Auto); err != nil {
				c.Close()
				return nil, err
			}
			s, err = measureCold(opts.Repeats,
				func() error { return nil },
				func() error {
					_, err := c.Run(q, xqtp.Auto)
					return err
				},
				func() {})
			c.Close()
			if err != nil {
				return nil, fmt.Errorf("warm-query %s %d docs: %w", mode, nDocs, err)
			}
			cell("warm-query", mode, nDocs, snapBytes, s, 0, false, items, skipped)
			fmt.Fprintf(w, "%-12s %-8s %-8d %12.3f %16d %16s %10d %10d\n",
				"warm-query", mode, nDocs, float64(s.d.Nanoseconds())/1e6, snapBytes,
				"", items, skipped)
		}
	}
	return report, nil
}

func residentString(res int64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%d", res)
}
