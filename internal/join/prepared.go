package join

import (
	"sort"

	"xqtp/internal/execctx"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Prepared is a tree pattern compiled against one document's index: the
// pattern is validated once, algorithm applicability is decided once, and
// every step's node test is resolved to its pre-sorted integer rank stream
// and its columnar test (interned symbol + principal kind) once — the
// compile-once half of the serving path. After that, Eval per context node
// does no string hashing and no per-run setup, and the set-at-a-time kernels
// run entirely on int32 ranks against the tree's columns; nodes materialize
// only in the returned bindings.
//
// A Prepared is immutable and safe for concurrent Eval/EvalFirst calls from
// many goroutines (the evaluation scratch comes from internal pools).
type Prepared struct {
	alg Algorithm
	ix  *xmlstore.Index
	pat *pattern.Pattern

	fields    []string // output fields, root-to-leaf (cached: OutputFields walks)
	single    bool     // single output annotation at the extraction point
	scOK      bool     // staircase supports every axis
	twigOK    bool     // twig supports every edge/test
	childOnly bool     // spine has child/attribute/self steps only
	empty     bool     // some required step's stream is empty document-wide

	cols    *xdm.Cols                 // the document's region-encoding columns
	spine   []cstep                   // compiled steps, spine order
	streams map[*pattern.Step][]int32 // per-step streams for the cost model
}

// cstep is one compiled pattern step: the axis, the columnar node test, the
// resolved rank stream, and the compiled predicate chains. The spine and
// each predicate chain are flat slices, so the kernels walk plain arrays —
// no map lookups and no step-pointer chasing in the hot loops.
type cstep struct {
	axis   xdm.Axis
	test   rankTest
	stream []int32
	out    bool
	preds  [][]cstep
}

// compileChain compiles a step chain (the spine or a predicate branch).
// Each step's predicate branches are ordered smallest total stream first:
// predicates are conjunctive existential checks (patterns cannot carry
// outputs inside predicates), so their order is free, and checking the
// scarcest branch first fail-fasts both the staircase semi-joins and the
// twig stack's child-support probes. The pattern itself is never mutated —
// only the compiled form is reordered.
func compileChain(ix *xmlstore.Index, s *pattern.Step) []cstep {
	var out []cstep
	for c := s; c != nil; c = c.Next {
		cs := cstep{
			axis:   c.Axis,
			test:   compileRankTest(ix, c.Axis, c.Test),
			stream: ix.RanksFor(c.Axis, c.Test),
			out:    c.Out != "",
		}
		for _, pr := range c.Preds {
			cs.preds = append(cs.preds, compileChain(ix, pr))
		}
		if len(cs.preds) > 1 {
			sort.SliceStable(cs.preds, func(i, j int) bool {
				return chainStream(cs.preds[i]) < chainStream(cs.preds[j])
			})
		}
		out = append(out, cs)
	}
	return out
}

// chainStream totals the stream lengths of a compiled chain (branch cost
// proxy for the smallest-first ordering).
func chainStream(chain []cstep) int {
	n := 0
	for i := range chain {
		n += len(chain[i].stream)
		for _, pr := range chain[i].preds {
			n += chainStream(pr)
		}
	}
	return n
}

// rankTest is a node test compiled against one document: the name resolved
// to its interned symbol, the principal node kind fixed by the axis. A match
// is at most two integer compares against the columns.
type rankTest struct {
	kind      xdm.TestKind
	principal uint8 // element, or attribute on the attribute axis
	sym       int32 // resolved name; int32(xdm.NoSym) when absent from the doc
}

// matches reports whether the node at pre rank r satisfies the test.
func (t rankTest) matches(cols *xdm.Cols, r int32) bool {
	switch t.kind {
	case xdm.TestName:
		return cols.Sym[r] == t.sym && cols.Kind[r] == t.principal
	case xdm.TestStar:
		return cols.Kind[r] == t.principal
	case xdm.TestNode:
		return true
	case xdm.TestText:
		return cols.Kind[r] == uint8(xdm.TextNode)
	}
	return false
}

// compileRankTest resolves a step's test against the document's symbols.
func compileRankTest(ix *xmlstore.Index, axis xdm.Axis, test xdm.NodeTest) rankTest {
	rt := rankTest{kind: test.Kind, principal: uint8(xdm.ElementNode), sym: int32(xdm.NoSym)}
	if axis == xdm.AxisAttribute {
		rt.principal = uint8(xdm.AttributeNode)
	}
	if test.Kind == xdm.TestName {
		rt.sym = int32(ix.ResolveName(test.Name))
	}
	return rt
}

// Prepare resolves pat against ix for evaluation under alg. The index may be
// nil only for algorithms that never touch streams (pure nested-loop
// evaluation).
func Prepare(alg Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*Prepared, error) {
	if err := checkPattern(pat); err != nil {
		return nil, err
	}
	// A deferred snapshot member loads and validates here, on its first
	// preparation — the error-returning boundary every kernel path passes
	// through, so a corrupt member turns into a query error instead of a
	// fault inside a join loop.
	if ix != nil {
		if err := ix.Ensure(); err != nil {
			return nil, err
		}
	}
	p := &Prepared{alg: alg, ix: ix, pat: pat}
	p.fields = pat.OutputFields()
	_, p.single = pat.SingleOutput()
	p.scOK = scSupported(pat.Root)
	p.twigOK = twigSupported(pat.Root)
	p.childOnly = spineChildOnly(pat.Root)
	if ix != nil && alg != NestedLoop {
		p.cols = ix.Tree.Cols
		p.spine = compileChain(ix, pat.Root)
		// The cost model walks the pattern's step pointers; give it a
		// side table (cold path: consulted once per Auto evaluation).
		p.streams = make(map[*pattern.Step][]int32, pat.Size())
		var walk func(*pattern.Step)
		walk = func(s *pattern.Step) {
			for c := s; c != nil; c = c.Next {
				p.streams[c] = ix.RanksFor(c.Axis, c.Test)
				for _, pr := range c.Preds {
					walk(pr)
				}
			}
		}
		walk(pat.Root)
		// The conjunctive emptiness proof: one required step with an empty
		// document-wide stream means no binding can exist anywhere in this
		// document, so the kernels never need to run (generalizes the
		// corpus layer's name-presence skip to counts).
		p.empty = provablyEmpty(pat.Root, p.stream)
	}
	return p, nil
}

// Pattern returns the prepared pattern.
func (p *Prepared) Pattern() *pattern.Pattern { return p.pat }

// OutputFields returns the pattern's output fields, root-to-leaf, resolved
// once at preparation time.
func (p *Prepared) OutputFields() []string { return p.fields }

// stream returns the resolved rank stream of a step (cost-model side table;
// the kernels read streams off the compiled spine instead).
func (p *Prepared) stream(s *pattern.Step) []int32 { return p.streams[s] }

// materialize crosses the output boundary: rank results become node
// bindings. This is the only place the set-at-a-time kernels touch nodes.
func (p *Prepared) materialize(ranks []int32) []*xdm.Node {
	return p.ix.Tree.Materialize(ranks)
}

// Eval returns every binding of the pattern from context node ctx.
// Single-output patterns run on the selected algorithm; patterns outside an
// algorithm's supported fragment fall back to nested-loop evaluation, which
// is fully general.
func (p *Prepared) Eval(ctx *xdm.Node) []Binding { return p.EvalCtx(nil, ctx) }

// EvalCtx is Eval under an execution context: the kernels poll ec at
// bounded intervals and bail out once it stops. A stopped evaluation
// returns a partial (possibly empty) binding set — callers that thread a
// non-nil ec must check ec.Err() afterwards and discard the result on stop
// (the physical operator layer does exactly that).
func (p *Prepared) EvalCtx(ec *execctx.Ctx, ctx *xdm.Node) []Binding {
	alg := p.alg
	if p.empty && alg != NestedLoop {
		// Provably empty document-wide. Plain NestedLoop stays fully
		// general (it is the differential oracle); every other algorithm —
		// Auto included — takes the skip.
		return nil
	}
	if alg == Auto {
		alg = p.choose(ctx)
	}
	if p.single {
		switch alg {
		case Staircase:
			if p.scOK {
				return wrapNodes(scEval(p, ec, ctx))
			}
		case Twig:
			if p.twigOK {
				return wrapNodes(twigEval(p, ec, ctx))
			}
		}
	}
	return nlEval(ec, ctx, p.pat)
}

// EvalFirst returns the first binding in document order, allowing the
// nested-loop algorithm its cursor-style early exit (§5.3). The
// set-at-a-time algorithms evaluate fully and take the head — that cost
// difference is precisely the paper's §5.3 observation. The early exit is
// only taken for child/attribute-only spines, where the nested loop's
// lexical first binding is also the document-order first.
func (p *Prepared) EvalFirst(ctx *xdm.Node) (Binding, bool) { return p.EvalFirstCtx(nil, ctx) }

// EvalFirstCtx is EvalFirst under an execution context, with the same
// partial-result contract as EvalCtx.
func (p *Prepared) EvalFirstCtx(ec *execctx.Ctx, ctx *xdm.Node) (Binding, bool) {
	alg := p.alg
	if p.empty && alg != NestedLoop {
		return nil, false
	}
	if alg == Auto && p.childOnly {
		// First-match over a non-nesting spine: the §5.3 heuristic —
		// always take the nested loop's cursor-style early exit.
		alg = NestedLoop
	}
	if alg == NestedLoop && p.childOnly {
		return nlFirst(ec, ctx, p.pat)
	}
	all := p.EvalCtx(ec, ctx)
	if len(all) == 0 {
		return nil, false
	}
	return all[0], true
}

// choose runs the cost model over the pre-resolved streams.
func (p *Prepared) choose(ctx *xdm.Node) Algorithm {
	return estimate(p.ix, ctx, p.pat, p.single, p.stream).Alg
}

// Estimate runs the full cost model for ctx over the pre-resolved streams:
// the algorithm Auto would pick, the per-algorithm costs, the emptiness
// proof, and per-spine-step cardinality predictions. Requires an index
// (Prepare with alg != NestedLoop); without one it returns a NestedLoop
// estimate with no step data.
func (p *Prepared) Estimate(ctx *xdm.Node) Estimate {
	if p.streams == nil {
		return Estimate{Alg: NestedLoop, CostNL: costNL(ctx, p.pat)}
	}
	return estimate(p.ix, ctx, p.pat, p.single, p.stream)
}

// ProvablyEmpty reports whether the prepared pattern can match nowhere in
// its document (some required step's stream is empty).
func (p *Prepared) ProvablyEmpty() bool { return p.empty }
