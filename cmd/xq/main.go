// Command xq evaluates an XQuery expression against an XML document — or a
// whole collection of them — using the tree-pattern compilation pipeline.
//
// Usage:
//
//	xq -query '$d//person[emailaddress]/name' -file doc.xml [-alg nl|sc|twig|auto] [-serialize]
//	xq -query '$d//person/name' -file doc.xml -alg auto -explain   # physical plan + cost-model choice
//	xq -query '$d//item/name' -file big.xml -timeout 2s -limit 100 # bounded run: wall clock + row budget
//	echo '<a><b/></a>' | xq -query '$d/a/b'
//
// Collections: naming several inputs (positional files, repeated use of the
// same pattern via the shell, or -dir with a directory of *.xml) loads them
// as one corpus in argument order. Root-bound queries fan out across the
// members; fn:collection() sees every member and fn:doc($uri) resolves the
// input paths:
//
//	xq -query 'fn:collection()//person/name' a.xml b.xml c.xml
//	xq -query '$d//item/name' -dir corpus/ -workers 8 -with-uri
//
// Snapshots: -save-snapshot serializes the loaded inputs (one document or a
// whole corpus) in the columnar binary snapshot format; -snapshot reads one
// back, skipping parsing and index building. A snapshot named by path is
// memory-mapped: members page in as the query touches them, so corpora
// larger than RAM are queryable and the open cost is independent of corpus
// size. -query may be omitted when converting:
//
//	xq -dir corpus/ -save-snapshot corpus.snap
//	xq -snapshot -query 'fn:collection()//person/name' corpus.snap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"xqtp"
)

func main() {
	var (
		query     = flag.String("query", "", "XQuery expression (required unless -save-snapshot converts)")
		file      = flag.String("file", "", "XML input file (default: stdin; positional arguments add more)")
		dir       = flag.String("dir", "", "load every *.xml file of a directory (sorted) into the collection")
		workers   = flag.Int("workers", runtime.NumCPU(), "ingest and query parallelism for collections")
		withURI   = flag.Bool("with-uri", false, "prefix every result line with the URI of the document holding it")
		algName   = flag.String("alg", "sc", "tree-pattern algorithm: nl, sc, twig, auto")
		snapshot  = flag.Bool("snapshot", false, "input is a binary corpus snapshot (see -save-snapshot, xmlgen -format snapshot)")
		saveSnap  = flag.String("save-snapshot", "", "write the loaded input as a binary corpus snapshot to this path")
		serialize = flag.Bool("serialize", false, "serialize node results as XML")
		noTP      = flag.Bool("no-tree-patterns", false, "disable tree-pattern detection (standard engine)")
		explain   = flag.Bool("explain", false, "print the physical plan (with the per-pattern cost-model choice under -alg auto) before the results")
		timeout   = flag.Duration("timeout", 0, "abort the query after this wall-clock time (0: no limit)")
		limit     = flag.Int64("limit", 0, "stop after this many result items, in document order (0: no limit)")
	)
	flag.Parse()
	if *query == "" && *saveSnap == "" {
		fmt.Fprintln(os.Stderr, "xq: -query is required")
		flag.Usage()
		os.Exit(2)
	}

	paths, err := inputPaths(*file, *dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *snapshot && len(paths) > 1 {
		fatal(fmt.Errorf("-snapshot supports a single input (a snapshot already holds a whole corpus)"))
	}

	// Load the input: a corpus snapshot, a multi-file corpus, or one document.
	// A one-member corpus (including single-document snapshots) runs through
	// the document path so -explain sees the document context.
	var (
		corpus *xqtp.Corpus
		doc    *xqtp.Document
		uri    string
	)
	switch {
	case *snapshot:
		corpus, err = loadSnapshotInput(paths)
	case len(paths) > 1:
		corpus, err = xqtp.LoadCorpusFiles(paths, *workers)
	default:
		doc, uri, err = loadSingle(paths)
	}
	if err != nil {
		fatal(err)
	}
	if corpus != nil {
		// A file snapshot is memory-mapped (pages fault in per query);
		// release the mapping on the way out.
		defer corpus.Close()
	}
	if corpus != nil && corpus.Len() == 1 {
		doc = corpus.DocumentAt(0)
		uri = corpus.URIs()[0]
	}

	if *saveSnap != "" {
		if err := writeSnapshotFile(*saveSnap, corpus, doc); err != nil {
			fatal(err)
		}
		if *query == "" {
			return
		}
	}

	alg, err := xqtp.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	opts := xqtp.DefaultOptions
	opts.TreePatterns = !*noTP
	q, err := xqtp.PrepareWithOptions(*query, opts)
	if err != nil {
		fatal(err)
	}

	print := func(uri string, it xqtp.Item) {
		var text string
		if *serialize {
			text = xqtp.SerializeItem(it)
		} else {
			text = xqtp.ItemString(it)
		}
		if *withURI {
			fmt.Printf("%s\t%s\n", uri, text)
		} else {
			fmt.Println(text)
		}
	}

	runOpts := xqtp.RunOptions{Workers: *workers, Timeout: *timeout, MaxRows: *limit}

	if doc == nil {
		if *explain {
			phys, err := q.ExplainPhysical(context.Background(), alg, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Print(phys)
		}
		items, _, err := corpus.RunWith(context.Background(), q, alg, runOpts)
		if err != nil && !limitReached(err, *limit) {
			fatal(err)
		}
		for _, it := range items {
			uri, _ := corpus.URIOf(it)
			print(uri, it)
		}
		return
	}

	if *explain {
		phys, err := q.ExplainPhysical(context.Background(), alg, doc)
		if err != nil {
			fatal(err)
		}
		fmt.Print(phys)
	}
	items, _, err := q.RunWith(context.Background(), doc, alg, runOpts)
	if err != nil && !limitReached(err, *limit) {
		fatal(err)
	}
	for _, it := range items {
		print(uri, it)
	}
}

// limitReached reports whether err is the expected budget stop of an
// explicit -limit (printing the collected prefix is then the point, not a
// failure).
func limitReached(err error, limit int64) bool {
	return limit > 0 && errors.Is(err, xqtp.ErrBudgetExceeded)
}

// inputPaths merges the -file flag, positional arguments, and -dir scan into
// one ordered path list (empty: read stdin).
func inputPaths(file, dir string, args []string) ([]string, error) {
	var paths []string
	if file != "" {
		paths = append(paths, file)
	}
	paths = append(paths, args...)
	if dir != "" {
		matches, err := filepath.Glob(filepath.Join(dir, "*.xml"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("no *.xml files in %s", dir)
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths, nil
}

// loadSnapshotInput opens a corpus snapshot from the named file or stdin.
func loadSnapshotInput(paths []string) (*xqtp.Corpus, error) {
	if len(paths) == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return xqtp.OpenCorpusSnapshot(data)
	}
	return xqtp.OpenCorpusFile(paths[0])
}

// loadSingle loads the one-document case: a named file or stdin.
func loadSingle(paths []string) (*xqtp.Document, string, error) {
	if len(paths) == 0 {
		doc, err := xqtp.LoadXML(os.Stdin)
		return doc, "(stdin)", err
	}
	f, err := os.Open(paths[0])
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	doc, err := xqtp.LoadXML(f)
	if err != nil {
		return nil, "", err
	}
	doc.SetURI(paths[0])
	return doc, paths[0], nil
}

// writeSnapshotFile saves the loaded input — corpus or single document — as
// a snapshot at path.
func writeSnapshotFile(path string, corpus *xqtp.Corpus, doc *xqtp.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if corpus != nil {
		err = corpus.SaveSnapshot(f)
	} else {
		err = doc.SaveSnapshot(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xq:", err)
	os.Exit(1)
}
