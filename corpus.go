package xqtp

import (
	"context"
	"io"
	"sync/atomic"

	"xqtp/internal/collection"
	"xqtp/internal/execctx"
	"xqtp/internal/physical"
	"xqtp/internal/xdm"
)

// ErrClosed reports use of a corpus or document after Close.
var ErrClosed = collection.ErrClosed

// CorpusSource is one document for corpus ingest: its URI and, optionally,
// its content. Nil Data means the URI is a file path to read during ingest.
type CorpusSource = collection.Source

// Corpus is an immutable collection of documents behind one query surface:
// ingest parses the members concurrently, and Run fans a compiled query out
// across them, merging per-document results in corpus order. A Corpus is
// safe for concurrent Run calls; Extend returns a grown snapshot without
// disturbing the original.
type Corpus struct {
	c *collection.Corpus
}

// LoadCorpusFiles ingests the given files on a bounded worker pool (workers
// <= 0 means one worker per file). The corpus order is the argument order,
// whatever the pool's scheduling.
func LoadCorpusFiles(paths []string, workers int) (*Corpus, error) {
	c, err := collection.Ingest(collection.FileSources(paths), workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// LoadCorpus ingests in-memory or file-backed sources on a bounded worker
// pool. As with LoadXMLBytes, the corpus takes ownership of the data slices.
func LoadCorpus(sources []CorpusSource, workers int) (*Corpus, error) {
	c, err := collection.Ingest(sources, workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Extend ingests additional sources and returns a new corpus with the
// existing members followed by the new ones. The receiver is unchanged, so
// queries running against it concurrently are unaffected.
func (c *Corpus) Extend(sources []CorpusSource, workers int) (*Corpus, error) {
	grown, err := c.c.Extend(sources, workers)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: grown}, nil
}

// SaveSnapshot writes the corpus in the columnar binary snapshot format:
// every member's region columns, symbol table and tag-stream index, plus
// the corpus name table, serialized as they sit in memory. Reloading with
// OpenCorpusSnapshot skips parsing, index building and name interning
// entirely.
func (c *Corpus) SaveSnapshot(w io.Writer) error {
	return c.c.WriteSnapshot(w)
}

// OpenCorpusSnapshot loads a corpus written by SaveSnapshot. It takes
// ownership of data: the loaded members' strings and columns alias the
// buffer, so the caller must not modify it afterwards.
func OpenCorpusSnapshot(data []byte) (*Corpus, error) {
	c, err := collection.OpenSnapshot(data)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// OpenCorpusFile opens a corpus snapshot from a file by memory-mapping it:
// only the header, offset table and corpus name table are read at open, so
// the cost is O(open) regardless of corpus size, and member pages fault in
// as queries touch them — a corpus larger than RAM stays queryable. The
// corpus owns the mapping; call Close to release it. To read the whole file
// into memory instead, pass its bytes to OpenCorpusSnapshot.
func OpenCorpusFile(path string) (*Corpus, error) {
	c, err := collection.OpenSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Close poisons the corpus and releases its snapshot file mapping (if any).
// After Close every Run/Document entry point returns ErrClosed; so does a
// second Close. Closing while queries are in flight is a caller bug, exactly
// as with os.File. Close on an ingested (non-mapped) corpus only poisons it.
func (c *Corpus) Close() error { return c.c.Close() }

// Closed reports whether Close has been called.
func (c *Corpus) Closed() bool { return c.c.Closed() }

// Mapped reports whether the corpus is backed by a live file mapping (true
// only for OpenCorpusFile corpora on mmap-capable builds, before Close).
func (c *Corpus) Mapped() bool {
	m := c.c.Mapping()
	return m != nil && m.Mapped()
}

// SnapshotResident returns the number of bytes of the snapshot mapping
// currently resident in physical memory (ok=false when the corpus is not
// file-backed or the platform cannot report residency). This is the
// measurement behind the paging experiments: after a cold open it is a few
// pages; after a single-member query it is roughly that member's size.
func (c *Corpus) SnapshotResident() (int64, bool) {
	m := c.c.Mapping()
	if m == nil {
		return 0, false
	}
	return m.Resident()
}

// Len returns the number of member documents.
func (c *Corpus) Len() int { return c.c.Len() }

// Epoch returns the corpus's extension epoch: 0 for a freshly ingested or
// snapshot-loaded corpus, and one more than the receiver for every Extend
// result. It orders the snapshots of one Extend lineage only: an unrelated
// corpus starts over at 0, so a cache that must tell two corpora apart
// cannot key on the epoch alone.
func (c *Corpus) Epoch() uint64 { return c.c.Epoch() }

// URIs returns the member URIs in corpus order.
func (c *Corpus) URIs() []string {
	out := make([]string, c.c.Len())
	for i, d := range c.c.Docs() {
		out[i] = d.URI
	}
	return out
}

// Document returns the member with the given URI as a standalone Document
// whose runs use the corpus as their store (so its indexes are never
// rebuilt).
func (c *Corpus) Document(uri string) (*Document, bool) {
	d, ok := c.c.ByURI(uri)
	if !ok {
		return nil, false
	}
	return c.wrap(d), true
}

// DocumentAt returns member i (in corpus order) as a standalone Document.
func (c *Corpus) DocumentAt(i int) *Document {
	return c.wrap(c.c.Doc(i))
}

func (c *Corpus) wrap(d *collection.Doc) *Document {
	return &Document{
		tree:    d.Tree(),
		index:   d.Index,
		rootSeq: xdm.Singleton(d.Root()),
		uri:     d.URI,
		corpus:  c.c,
	}
}

// NumNodes returns the total node count across members.
func (c *Corpus) NumNodes() int { return c.c.NumNodes() }

// SizeBytes returns the total serialized size of the members.
func (c *Corpus) SizeBytes() int { return c.c.SizeBytes() }

// Run evaluates the query against every member, one member at a time, and
// returns the merged results in corpus order (which is cross-document
// document order). It is RunWith with a background context and one worker.
func (c *Corpus) Run(q *Query, alg Algorithm) (Sequence, error) {
	var col execctx.Collector
	if _, err := c.runCore(nil, q, alg, 1, &col); err != nil {
		return nil, err
	}
	return col.Seq, nil
}

// RunWith evaluates the query against the corpus with up to opts.Workers
// goroutines (<= 0: one per available CPU), in one of two shapes chosen by
// the plan itself:
//
// Root-bound plans (no fn:doc/fn:collection) fan out one evaluation per
// member — the context item and every free variable bound to the member's
// document node, exactly as Query.Run binds a single Document — and the
// per-document results merge in corpus order, so the output is byte-identical
// at any worker count. Members where some required step of the plan
// (physical.RequiredSteps over the conjunctive patterns) has an empty rank
// stream — the name absent entirely, or present only as the wrong node kind
// — are skipped without evaluation and counted in RunInfo.Skipped; the
// members that do run pick their algorithm per member through the cost model
// when alg is Auto.
//
// Plans that call fn:doc or fn:collection see the whole corpus at once: they
// evaluate once with the corpus bound as the document resolver, and workers
// instead caps the pattern operators' per-context-node parallelism (a
// fn:collection()-rooted pattern's context nodes are the member roots, so
// cross-document parallelism falls out of the existing fan-out). Both shapes
// reuse the query's plan and preparation caches, keyed per member document.
//
// The run honors ctx and the options' deadline and budgets. Member results
// flow to opts.Sink in corpus order as the merge admits them (a nil Sink
// collects into the returned Sequence). Budgets are charged at the merge
// point, so a stopped run's delivered items are exactly the first rows of
// the full corpus-order result; in-flight member evaluations past the stop
// are cut short and discarded, and the error matches ErrCanceled or
// ErrBudgetExceeded.
func (c *Corpus) RunWith(ctx context.Context, q *Query, alg Algorithm, opts RunOptions) (Sequence, RunInfo, error) {
	ctx, cancel := opts.context(ctx)
	defer cancel()
	ec := execctx.From(ctx, opts.MaxRows, opts.MaxBytes)
	sink := opts.Sink
	var col *execctx.Collector
	if sink == nil {
		col = &execctx.Collector{}
		sink = col
	}
	skipped, err := c.runCore(ec, q, alg, opts.Workers, sink)
	info := RunInfo{
		Rows:    ec.Rows(),
		Bytes:   ec.Bytes(),
		Members: c.c.Len(),
		Skipped: skipped,
	}
	var seq Sequence
	if col != nil {
		seq = col.Seq
	}
	return seq, info, err
}

// runCore is the single evaluation path behind every corpus run shape: it
// compiles the plan, picks the corpus-wide or fan-out strategy, and streams
// result items to sink under the execution context. Member evaluations run
// under a cancel-only view of ec — they observe the stop but never charge
// the budgets; the merge charges each delivered item in corpus order, so
// budget cutoffs land on the exact corpus-order prefix regardless of how
// the worker pool interleaved. It returns the number of members the
// emptiness proof skipped.
func (c *Corpus) runCore(ec *execctx.Ctx, q *Query, alg Algorithm, workers int, sink execctx.Sink) (int, error) {
	workers = normalizeWorkers(workers)
	p, err := q.physicalPlan(alg)
	if err != nil {
		return 0, err
	}
	if p.UsesDocAccess() {
		rt := &physical.Runtime{
			Store:    c.c,
			Preps:    q.preps,
			Parallel: workers,
			EC:       ec,
		}
		return 0, p.RunSink(rt, sink)
	}
	var skip func(int) bool
	var skipped atomic.Int64
	if required := p.RequiredSteps(); len(required) > 0 {
		// Hoist the name-table lookups: one symbol column per required
		// step, then the per-member test is an array index plus a stream
		// length — no string hashing anywhere in the fan-out.
		nt := c.c.Names()
		cols := make([][]xdm.Sym, len(required))
		for k, r := range required {
			cols[k] = nt.SymColumn(r.Name)
		}
		docs := c.c.Docs()
		skip = func(i int) bool {
			ix := docs[i].Index
			for k, r := range required {
				col := cols[k]
				if col == nil || col[i] == xdm.NoSym {
					skipped.Add(1)
					return true
				}
				// StreamLen answers from the loaded index or, for a deferred
				// member, from its section directory — a definite count either
				// way, without paging in the member's data. ok=false means the
				// directory itself is unreadable: admit the member so its load
				// error surfaces as a query error instead of a silent skip.
				if n, ok := ix.StreamLen(col[i], r.Attr); ok && n == 0 {
					skipped.Add(1)
					return true
				}
			}
			// The member will run: hint the kernel to page its region in
			// ahead of the parse (no-op once loaded or unmapped).
			ix.Prefetch()
			return false
		}
	}
	memberEC := ec.CancelOnly()
	err = c.c.RunAllCtx(ec, workers, skip, func(d *collection.Doc) (Sequence, error) {
		// A deferred member parses and validates here, on the worker that
		// evaluates it; a corrupt member becomes this member's query error.
		if err := d.Ensure(); err != nil {
			return nil, err
		}
		rt := &physical.Runtime{
			Store: c.c,
			Preps: q.preps,
			Root:  xdm.Singleton(d.Root()),
			EC:    memberEC,
		}
		return p.Run(rt)
	}, func(seq Sequence) error {
		return execctx.Deliver(ec, sink, seq)
	})
	return int(skipped.Load()), err
}

// URIOf attributes a result item back to the member document holding it
// (ok=false for atomic items and nodes from outside the corpus).
func (c *Corpus) URIOf(it Item) (string, bool) {
	n, isNode := it.(*xdm.Node)
	if !isNode {
		return "", false
	}
	d, ok := c.c.ByTree(n.Doc)
	if !ok {
		return "", false
	}
	return d.URI, true
}
