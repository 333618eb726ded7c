// Package xqtp is an XQuery-subset compiler and evaluation engine that
// reproduces "Put a Tree Pattern in Your Algebra" (Michiels, Mihăilă,
// Siméon; ICDE 2007).
//
// Queries are compiled through the paper's pipeline: parsing, normalization
// into the XQuery Core, rewriting into TPNF′ (type rewritings, FLWOR
// rewritings, document-order rewritings, loop splitting), compilation into
// a tuple algebra, and algebraic optimization that detects maximal
// TupleTreePattern operators. Detected patterns evaluate under one of three
// physical algorithms: nested-loop navigation, staircase join, or holistic
// twig join.
//
// Quick start:
//
//	doc, _ := xqtp.LoadXMLString("<doc><person><emailaddress/><name>Ann</name></person></doc>")
//	q, _ := xqtp.Prepare(`$d//person[emailaddress]/name`)
//	items, _ := q.Run(doc, xqtp.Staircase)
package xqtp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xqtp/internal/algebra"
	"xqtp/internal/ast"
	"xqtp/internal/collection"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/pattern"
	"xqtp/internal/physical"
	"xqtp/internal/rewrite"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Item is a single XDM item: a *Node or an atomic value.
type Item = xdm.Item

// Node is an XML tree node with its region encoding.
type Node = xdm.Node

// Sequence is an ordered sequence of items.
type Sequence = xdm.Sequence

// Atomic item types, for binding variables and inspecting results.
type (
	// String is an xs:string item.
	String = xdm.String
	// Integer is an xs:integer item.
	Integer = xdm.Integer
	// Float is an xs:double item.
	Float = xdm.Float
	// Bool is an xs:boolean item.
	Bool = xdm.Bool
)

// Algorithm selects the physical tree-pattern algorithm.
type Algorithm = join.Algorithm

// The physical tree-pattern algorithms of the paper's evaluation, plus the
// cost-based chooser the paper's conclusion calls for.
const (
	NestedLoop = join.NestedLoop // NLJoin: navigational, cursor-style
	Staircase  = join.Staircase  // SCJoin: staircase join over region-encoded streams
	Twig       = join.Twig       // TwigJoin: holistic twig join
	Auto       = join.Auto       // per-pattern cost-based choice among the three
)

// Algorithms lists all physical algorithms, in the paper's table order
// (NL, TJ, SC).
var Algorithms = []Algorithm{NestedLoop, Twig, Staircase}

// ParseAlgorithm resolves an algorithm name ("nl", "sc", "twig"/"tj",
// "auto", …) as accepted by the command-line tools.
func ParseAlgorithm(name string) (Algorithm, error) {
	return join.ParseAlgorithm(name)
}

// Document is a loaded XML document with its index structures. A Document
// is immutable after load and safe for concurrent Run calls; every engine
// run against it uses its one prebuilt index.
type Document struct {
	tree  *xdm.Tree
	index *xmlstore.Index
	// rootSeq is the document node as a singleton sequence, allocated once:
	// the uniform binding Run hands to every free variable.
	rootSeq xdm.Sequence
	// uri names the document for fn:doc resolution ("" when loaded from a
	// reader or string without a name).
	uri string
	// corpus, when the document is a corpus member, is its run-time store:
	// fn:doc and fn:collection resolve against the whole corpus. Nil
	// documents are their own store (the degenerate one-document
	// collection).
	corpus *collection.Corpus
	// mapping is the file mapping behind a document opened with
	// OpenSnapshotFile; nil otherwise. Close releases it.
	mapping *xmlstore.Mapping
	closed  atomic.Bool
}

// LoadXML parses an XML document through the fused ingest path: one pass
// over the input builds the tree, its columns, and the tag-stream index
// together (no separate finalize or index walk).
func LoadXML(r io.Reader) (*Document, error) {
	ix, err := xmlstore.IngestReader(r)
	if err != nil {
		return nil, err
	}
	return newDocumentIndexed(ix), nil
}

// LoadXMLBytes ingests an XML document held in a byte slice. It takes
// ownership of data: the document's text values alias the buffer, so the
// caller must not modify it afterwards.
func LoadXMLBytes(data []byte) (*Document, error) {
	ix, err := xmlstore.Ingest(data)
	if err != nil {
		return nil, err
	}
	return newDocumentIndexed(ix), nil
}

// LoadXMLString ingests an XML document held in a string.
func LoadXMLString(s string) (*Document, error) {
	ix, err := xmlstore.IngestString(s)
	if err != nil {
		return nil, err
	}
	return newDocumentIndexed(ix), nil
}

// newDocument wraps an already-built tree (used by the generators and the
// benchmark harness).
func newDocument(t *xdm.Tree) *Document {
	return newDocumentIndexed(xmlstore.BuildIndex(t))
}

// newDocumentIndexed wraps a fused ingest result; its already-built index is
// the one every engine run uses.
func newDocumentIndexed(ix *xmlstore.Index) *Document {
	return &Document{tree: ix.Tree, index: ix, rootSeq: xdm.Singleton(ix.Tree.RootNode())}
}

// docStore is a standalone document as a run's physical.Store: it resolves
// fn:doc/fn:collection against the document itself and holds only its own
// index.
type docStore struct{ *Document }

func (s docStore) Index(t *xdm.Tree) *xmlstore.Index {
	if t == s.tree {
		return s.index
	}
	return nil
}

// Root returns the document node.
func (d *Document) Root() *Node { return d.tree.Root }

// URI returns the document's name for fn:doc resolution ("" when loaded
// without one).
func (d *Document) URI() string { return d.uri }

// SetURI names the document for fn:doc resolution. Call before sharing the
// document across goroutines.
func (d *Document) SetURI(uri string) { d.uri = uri }

// ResolveDoc implements xdm.DocResolver for a standalone document — the
// degenerate one-document collection: only the document's own URI resolves.
func (d *Document) ResolveDoc(uri string) (*xdm.Node, error) {
	if d.uri != "" && uri == d.uri {
		return d.tree.Root, nil
	}
	return nil, fmt.Errorf("doc(%q): no such document", uri)
}

// ResolveCollection implements xdm.DocResolver for a standalone document:
// the default collection is the document itself.
func (d *Document) ResolveCollection(name string) (xdm.Sequence, error) {
	if name != "" {
		return nil, fmt.Errorf("collection(%q): no such collection (only the default collection is defined)", name)
	}
	return d.rootSeq, nil
}

// NumNodes returns the number of nodes in the document (including the
// document node and attributes).
func (d *Document) NumNodes() int { return d.tree.CountNodes() }

// SizeBytes returns the serialized size of the document.
func (d *Document) SizeBytes() int {
	return len(xmlstore.AppendXML(nil, d.tree.Root))
}

// XML serializes the document.
func (d *Document) XML() string { return xmlstore.SerializeString(d.tree.Root) }

// WriteXML serializes the document to w without materializing the whole
// document as a string first.
func (d *Document) WriteXML(w io.Writer) error {
	return xmlstore.Serialize(w, d.tree.Root)
}

// SaveSnapshot writes the document in the columnar binary snapshot format:
// the region columns and index streams go out as-is, so loading skips both
// the parse and the index build.
func (d *Document) SaveSnapshot(w io.Writer) error {
	// A one-member corpus snapshot carrying the document's URI, so a
	// file-mapped reopen (OpenSnapshotFile) restores fn:doc resolution.
	return xmlstore.WriteCorpus(w, &xmlstore.CorpusSnapshot{
		URIs:    []string{d.uri},
		Indexes: []*xmlstore.Index{d.index},
	})
}

// LoadSnapshot reads a document written by SaveSnapshot. The tree and its
// tag-stream index come straight from the stored columns — no region
// encoding or index rebuild.
func LoadSnapshot(r io.Reader) (*Document, error) {
	ix, err := xmlstore.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newDocumentIndexed(ix), nil
}

// OpenSnapshotFile opens a single-document snapshot by memory-mapping the
// file: the columns, symbol table and rank streams alias the mapping
// directly, so no copy of the document is made and cold pages load on
// demand. The document owns the mapping — call Close to release it; after
// Close the Run entry points return ErrClosed. Unlike the deferred corpus
// open, the single member is validated here (the open reports corruption
// immediately rather than at first query).
func OpenSnapshotFile(path string) (*Document, error) {
	m, err := xmlstore.MapFile(path)
	if err != nil {
		return nil, err
	}
	s, err := xmlstore.OpenCorpusMapping(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	if len(s.Indexes) != 1 {
		m.Close()
		return nil, fmt.Errorf("xqtp: snapshot holds %d members; use OpenCorpusFile for corpora", len(s.Indexes))
	}
	if err := s.Indexes[0].Ensure(); err != nil {
		m.Close()
		return nil, err
	}
	d := newDocumentIndexed(s.Indexes[0])
	d.mapping = m
	if len(s.URIs) == 1 {
		d.uri = s.URIs[0]
	}
	return d, nil
}

// Close poisons the document and releases its snapshot file mapping (if
// any). After Close the Run entry points return ErrClosed; so does a second
// Close. Closing while queries are in flight is a caller bug, exactly as
// with os.File. Close on a parsed (non-mapped) document only poisons it.
func (d *Document) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if d.mapping != nil {
		return d.mapping.Close()
	}
	return nil
}

// Closed reports whether Close has been called.
func (d *Document) Closed() bool { return d.closed.Load() }

// Mapped reports whether the document is backed by a live file mapping
// (true only for OpenSnapshotFile documents on mmap-capable builds, before
// Close).
func (d *Document) Mapped() bool {
	return d.mapping != nil && d.mapping.Mapped()
}

// closedErr is the entry-point check used by the Run paths.
func (d *Document) closedErr() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return nil
}

// CompileOptions configures query preparation.
type CompileOptions struct {
	// TreePatterns enables the algebraic tree-pattern detection (Fig. 3
	// rules). Disabling it yields plans that keep their navigational maps.
	TreePatterns bool
	// Rewrites enables the TPNF′ core rewritings (§3). Disabling both
	// Rewrites and TreePatterns reproduces the paper's "standard engine"
	// baseline, whose plans depend on the syntactic form of the query.
	Rewrites bool
	// ContextVar names the variable bound to the context item for "." and
	// absolute paths. Defaults to "dot".
	ContextVar string

	// Ablation knobs (benchmarks measure the value of individual design
	// choices; leave false for normal use).
	DisablePositionalFirst bool // keep MapIndex/Select instead of Head (§5.3 early exit)
	DisableBulkConversion  bool // force the per-tuple fallback instead of rule (b)
}

// DefaultOptions is the configuration used by Prepare.
var DefaultOptions = CompileOptions{TreePatterns: true, Rewrites: true, ContextVar: "dot"}

// StandardEngineOptions reproduces the paper's baseline engine: no core
// rewritings, no tree-pattern detection — nested maps with navigational
// TreeJoins and explicit ddo calls.
var StandardEngineOptions = CompileOptions{TreePatterns: false, Rewrites: false, ContextVar: "dot"}

// Query is a compiled query, retaining every intermediate compilation phase
// for inspection.
type Query struct {
	Source string

	surface   ast.Expr
	coreExpr  core.Expr // normalized
	rewritten core.Expr // TPNF′
	plan      algebra.Expr
	optimized algebra.Expr

	// preps caches (pattern, document, algorithm) join preparations across
	// runs of this query, so serving workloads resolve each pattern's tag
	// streams once per document instead of once per Run call.
	preps *physical.PrepCache
	// phys memoizes the physical lowering of the optimized plan, one entry
	// per algorithm: slots resolved, builtins bound, patterns annotated —
	// compiled on first use and shared by every subsequent Run.
	phys sync.Map // Algorithm -> *physical.Plan
}

// Prepare compiles a query with the default options.
func Prepare(query string) (*Query, error) {
	return PrepareWithOptions(query, DefaultOptions)
}

// PrepareWithOptions compiles a query through all phases of Fig. 2.
func PrepareWithOptions(query string, opts CompileOptions) (*Query, error) {
	return prepare(query, opts, nil)
}

// prepare is the one compile pipeline behind every Prepare form: parse,
// normalize, TPNF′ rewrite, compile to the algebra, and tree-pattern
// detection. A non-nil tr records the state after every rewriting pass and
// every algebraic rule application; with tr nil no trace hook is installed.
func prepare(query string, opts CompileOptions, tr *Trace) (*Query, error) {
	if opts.ContextVar == "" {
		opts.ContextVar = "dot"
	}
	surface, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	normalized, err := core.Normalize(surface, opts.ContextVar)
	if err != nil {
		return nil, err
	}
	singletons := map[string]bool{}
	for _, v := range core.FreeVars(normalized) {
		// Run binds every free variable to a single node, so the
		// rewriter's singleton assumption is discharged by construction.
		singletons[v] = true
	}
	rwOpts := rewrite.Options{SingletonVars: singletons}
	optOpts := optimize.Options{
		SingletonVars:          singletons,
		DisablePositionalFirst: opts.DisablePositionalFirst,
		DisableBulkConversion:  opts.DisableBulkConversion,
	}
	if tr != nil {
		tr.Core = core.String(normalized)
		rwOpts.Trace = tr.coreStep
		optOpts.Trace = tr.planStep
	}
	rewritten := normalized
	if opts.Rewrites {
		rewritten = rewrite.Rewrite(normalized, rwOpts)
	}
	plan, err := compile.Compile(rewritten)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Plan = algebra.String(plan)
	}
	q := &Query{
		Source:    query,
		surface:   surface,
		coreExpr:  normalized,
		rewritten: rewritten,
		plan:      plan,
		optimized: plan,
		preps:     physical.NewPrepCache(),
	}
	if opts.TreePatterns {
		q.optimized = optimize.Optimize(plan, optOpts)
	}
	return q, nil
}

// MustPrepare compiles a query and panics on error (for fixed query sets).
func MustPrepare(query string) *Query {
	q, err := Prepare(query)
	if err != nil {
		panic(err)
	}
	return q
}

// physicalPlan returns the query's compiled physical plan for alg, lowering
// the optimized logical plan on first use and memoizing it. The compiled
// plan is immutable and shared by concurrent runs.
func (q *Query) physicalPlan(alg Algorithm) (*physical.Plan, error) {
	if v, ok := q.phys.Load(alg); ok {
		return v.(*physical.Plan), nil
	}
	p, err := physical.Compile(q.optimized, alg)
	if err != nil {
		return nil, err
	}
	v, _ := q.phys.LoadOrStore(alg, p)
	return v.(*physical.Plan), nil
}

// runtime builds the per-call runtime: the document's store, the query's
// prepared-pattern cache, and the variable environment. Free-variable slot
// resolution happened at plan compile time, so the uniform document binding
// is a single field store, not a map.
func (q *Query) runtime(doc *Document, workers int) *physical.Runtime {
	var store physical.Store = docStore{doc}
	if doc.corpus != nil {
		// A corpus member resolves fn:doc/fn:collection corpus-wide.
		store = doc.corpus
	}
	return &physical.Runtime{
		Store:    store,
		Preps:    q.preps,
		Parallel: workers,
		Root:     doc.rootSeq,
	}
}

// Run evaluates the query against a document with the given algorithm.
// Every free variable of the query ($d, $input, …) and the context item are
// bound to the document node. Run is safe to call concurrently from many
// goroutines on the same Query and Document.
func (q *Query) Run(doc *Document, alg Algorithm) (Sequence, error) {
	if err := doc.closedErr(); err != nil {
		return nil, err
	}
	p, err := q.physicalPlan(alg)
	if err != nil {
		return nil, err
	}
	return p.Run(q.runtime(doc, 0))
}

// RunWithVars evaluates the query with explicit variable bindings.
func (q *Query) RunWithVars(doc *Document, alg Algorithm, vars map[string]Sequence) (Sequence, error) {
	if err := doc.closedErr(); err != nil {
		return nil, err
	}
	p, err := q.physicalPlan(alg)
	if err != nil {
		return nil, err
	}
	rt := q.runtime(doc, 0)
	rt.Root = nil
	rt.Vars = p.BindVars(vars)
	return p.Run(rt)
}

// Plan returns the optimized plan in the paper's functional notation.
func (q *Query) Plan() string { return algebra.String(q.optimized) }

// PlanTree returns the optimized plan with one operator per line.
func (q *Query) PlanTree() string { return algebra.Pretty(q.optimized) }

// UnoptimizedPlan returns the plan before tree-pattern detection (the
// paper's P1 shape).
func (q *Query) UnoptimizedPlan() string { return algebra.String(q.plan) }

// Core returns the normalized XQuery Core (the paper's Q1a-n shape).
func (q *Query) Core() string { return core.Pretty(q.coreExpr) }

// Rewritten returns the TPNF′ core after the §3 rewritings (the paper's
// Q1-tp shape).
func (q *Query) Rewritten() string { return core.Pretty(q.rewritten) }

// Operators returns the operator counts of the optimized plan.
func (q *Query) Operators() map[string]int { return algebra.CountOperators(q.optimized) }

// TreePatterns returns the number of TupleTreePattern operators in the
// optimized plan.
func (q *Query) TreePatterns() int { return q.Operators()["TupleTreePattern"] }

// Explain renders every compilation phase (the Fig. 2 pipeline, extended
// with the physical lowering) for inspection. The physical phase shows the
// default algorithm's plan; ExplainPhysical renders other algorithms and
// per-document Auto choices.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query:\n  %s\n\n", q.Source)
	fmt.Fprintf(&b, "Parsed (surface syntax):\n  %s\n\n", ast.String(q.surface))
	fmt.Fprintf(&b, "Normalized (XQuery Core):\n%s\n\n", indentLines(core.Pretty(q.coreExpr)))
	fmt.Fprintf(&b, "Rewritten (TPNF'):\n%s\n\n", indentLines(core.Pretty(q.rewritten)))
	fmt.Fprintf(&b, "Compiled plan:\n%s\n", indentLines(algebra.Pretty(q.plan)))
	fmt.Fprintf(&b, "Optimized plan:\n%s\n\n", indentLines(algebra.Pretty(q.optimized)))
	if phys, err := q.ExplainPhysical(context.Background(), Staircase, nil); err != nil {
		fmt.Fprintf(&b, "Physical plan:\n  (error: %v)", err)
	} else {
		fmt.Fprintf(&b, "Physical plan:\n%s", indentLines(phys))
	}
	return b.String()
}

// ExplainPhysical renders the compiled physical plan for alg: one operator
// per line, with the frame slot every dependent field and variable was
// compiled to and each pattern operator's algorithm annotation. When doc is
// non-nil and alg is Auto, every pattern line additionally records the
// algorithm the cost model chooses for that document (evaluated from the
// document root, the context the optimized plans feed their patterns) and,
// per spine step, the estimated next to the actual cardinality. Those
// actuals are full pattern runs — the expensive part of an Auto explain on a
// large document — so they poll ctx, and the explain aborts with ErrCanceled
// once it is done. A closed doc returns ErrClosed.
func (q *Query) ExplainPhysical(ctx context.Context, alg Algorithm, doc *Document) (string, error) {
	if doc != nil {
		if err := doc.closedErr(); err != nil {
			return "", err
		}
	}
	p, err := q.physicalPlan(alg)
	if err != nil {
		return "", err
	}
	if doc == nil || alg != Auto {
		return p.Explain(), nil
	}
	ests, err := q.StepEstimates(ctx, doc)
	if err != nil {
		return "", err
	}
	// The detail lines put the cost model on trial: per spine step, the
	// model's predicted cardinality next to the exact count from evaluating
	// the corresponding pattern prefix.
	pats := p.Patterns()
	choices := make(map[*pattern.Pattern]string)
	details := make(map[*pattern.Pattern][]string)
	for _, e := range ests {
		pat := pats[e.Pattern]
		choices[pat] = e.Choice
		details[pat] = append(details[pat], fmt.Sprintf("step %s est=%s act=%d",
			e.Step, formatEst(e.Est), e.Act))
	}
	return p.ExplainDetail(
		func(pat *pattern.Pattern) string { return choices[pat] },
		func(pat *pattern.Pattern) []string { return details[pat] }), nil
}

// StepEstimate is the cost model on trial for one spine step of a
// root-bound pattern operator under Auto: the algorithm the model picks for
// the pattern on a concrete document, and the step's estimated next to its
// actual cardinality (distinct nodes matching the spine prefix up to the
// step, predicates included).
type StepEstimate struct {
	Pattern int    // index of the pattern operator, in physical-plan order
	Choice  string // Auto's algorithm for the pattern, or "skip(empty)"
	Step    string // the rendered spine step
	Est     float64
	Act     int // -1 when the prefix could not be evaluated
}

// StepEstimates runs the cost model and the exact per-prefix counts for
// every pattern operator of the Auto plan that is fed directly by the root
// binding; downstream operators (after a positional head, say) consume
// derived bindings, and their per-document choice is made per context at
// run time. The actuals are full pattern runs, so they poll ctx and the call
// returns ErrCanceled once it is done. A closed doc returns ErrClosed.
func (q *Query) StepEstimates(ctx context.Context, doc *Document) ([]StepEstimate, error) {
	if err := doc.closedErr(); err != nil {
		return nil, err
	}
	p, err := q.physicalPlan(Auto)
	if err != nil {
		return nil, err
	}
	ec := execctx.From(ctx, 0, 0)
	var out []StepEstimate
	rootBound := p.RootBoundPatterns()
	for pi, pat := range p.Patterns() {
		if !rootBound[pi] {
			continue
		}
		est := join.ChooseEstimate(doc.index, doc.tree.Root, pat)
		choice := est.Alg.String()
		if est.Empty {
			choice = "skip(empty)"
		}
		acts := join.StepActualsCtx(ec, doc.index, doc.tree.Root, pat)
		for i, se := range est.Steps {
			act := -1
			if i < len(acts) {
				act = acts[i]
			}
			out = append(out, StepEstimate{
				Pattern: pi, Choice: choice, Step: se.Step.StepString(), Est: se.Out, Act: act,
			})
		}
	}
	if err := ec.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// formatEst renders a cardinality estimate compactly: whole numbers without
// a fraction, small fractional estimates with two decimals.
func formatEst(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	if v < 10 {
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprintf("%.0f", v)
}

func indentLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

// ItemString renders an item for display.
func ItemString(it Item) string { return xdm.ItemString(it) }

// SerializeItem renders a node item as XML, and atomics as their lexical
// value.
func SerializeItem(it Item) string {
	if n, ok := it.(*xdm.Node); ok {
		return xmlstore.SerializeString(n)
	}
	return xdm.ItemString(it)
}
