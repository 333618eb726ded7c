// Package physical compiles algebraic plans (internal/algebra) into
// slot-addressed physical operator trees. The lowering pass runs once per
// (plan, algorithm): it resolves every Field/In/VarRef to an integer slot in
// a flat tuple frame, binds every Call to its builtin function pointer
// (funcs.Resolve), and annotates every TupleTreePattern with its validated
// pattern, output-field slots and physical algorithm choice — so evaluation
// performs no string comparisons for tuple fields or variables, no name
// dispatch for builtins, and no per-run pattern analysis.
//
// A Plan is immutable after Compile and safe for concurrent Run calls; all
// per-run state lives in the Runtime and in frames allocated per call.
package physical

import (
	"fmt"
	"sync"

	"xqtp/internal/execctx"
	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// frame is one tuple of the physical executor: a flat, plan-wide array of
// field sequences indexed by compile-time slot numbers. A nil entry means
// the binder for that slot has not executed on this tuple's path (reading it
// through its op yields the empty sequence, matching the persistent-chain
// semantics where such a field was simply absent from an enclosing scope).
type frame []xdm.Sequence

// value is the result of one operator: an item sequence or a tuple-frame
// sequence, mirroring the algebra's two-sorted typing.
type value struct {
	items    xdm.Sequence
	frames   []frame
	isFrames bool
}

func itemsValue(s xdm.Sequence) value { return value{items: s} }
func framesValue(fs []frame) value    { return value{frames: fs, isFrames: true} }

// itemsVal returns the item sequence, or an error if the value is tuples.
func (v value) itemsVal() (xdm.Sequence, error) {
	if v.isFrames {
		return nil, fmt.Errorf("exec: expected an item sequence, got %d tuples", len(v.frames))
	}
	return v.items, nil
}

// framesVal returns the tuple frames, or an error if the value is items.
func (v value) framesVal() ([]frame, error) {
	if !v.isFrames {
		return nil, fmt.Errorf("exec: expected a tuple sequence, got %d items", len(v.items))
	}
	return v.frames, nil
}

// op is a compiled physical operator.
type op interface {
	eval(rt *Runtime, fr frame) (value, error)
}

// Store is the document side of a run: it resolves fn:doc($uri) and
// fn:collection() to document nodes, and hands the pattern operators the
// prebuilt index of every tree it holds. A corpus is a Store over its
// members; a standalone document is a Store over itself.
type Store interface {
	xdm.DocResolver
	// Index returns the index of t, or nil when the store does not hold t.
	Index(t *xdm.Tree) *xmlstore.Index
}

// Runtime is the execution environment of a compiled plan. It
// carries only what varies between runs: the document side (store, prep
// cache) and the variable bindings. A Runtime may be shared by concurrent
// Run calls as long as its fields are not mutated.
type Runtime struct {
	// Store resolves fn:doc/fn:collection and the indexes of its trees. Nil
	// makes both functions evaluation errors (a plan that never calls them
	// needs no corpus); a nil store, or a tree it does not hold, falls back
	// to building an index per pattern preparation.
	Store Store
	// Preps caches prepared joins across plans and documents. Nil falls back
	// to the plan's private per-operator cache plus one-shot preparation.
	Preps *PrepCache
	// Parallel caps the goroutines evaluating one TupleTreePattern's context
	// nodes concurrently (<=1: sequential).
	Parallel int
	// Vars holds the free-variable bindings by the plan's variable slots
	// (Plan.BindVars). A nil entry is an unbound variable. Nil Vars with a
	// non-nil Root binds every variable to Root.
	Vars []*xdm.Sequence
	// Root, when non-nil, is the uniform binding used when Vars is nil: the
	// serving path binds every free variable (and the context item) to the
	// document node, so per-run setup is storing one field.
	Root xdm.Sequence
	// CountCards turns on the pattern operators' actual-cardinality
	// counters (evaluations, emitted rows, emptiness skips per opTTP; read
	// back via Plan.TTPStats). Off by default: the hot path pays nothing.
	CountCards bool
	// EC is the run's execution context: cancellation, deadline, and
	// row/byte budgets. Operators poll it at bounded intervals and abort
	// with its typed error once it stops. Nil (the default) disables every
	// check beyond a nil-test branch.
	EC *execctx.Ctx
}

// varBinding resolves variable slot i.
func (rt *Runtime) varBinding(i int) (xdm.Sequence, bool) {
	if rt.Vars == nil {
		if rt.Root != nil {
			return rt.Root, true
		}
		return nil, false
	}
	if p := rt.Vars[i]; p != nil {
		return *p, true
	}
	return nil, false
}

// Plan is a compiled physical plan: the operator tree plus its frame and
// variable layouts.
type Plan struct {
	root op
	alg  join.Algorithm

	// slotNames maps each frame slot to the field name it was allocated
	// for (explain output; never consulted at run time).
	slotNames []string
	// varNames maps each variable slot to its name, sorted by first use.
	varNames []string
	// ttps lists the plan's pattern operators in lowering order (explain).
	ttps []*opTTP
	// usesDocs records (at lowering time) whether the plan contains an
	// fn:doc/fn:collection operator, i.e. needs a Runtime document resolver
	// and may reach nodes outside its root binding.
	usesDocs bool

	// reqOnce/reqSteps memoize RequiredSteps (the analysis is per-plan, not
	// per-run).
	reqOnce  sync.Once
	reqSteps []RequiredStep
}

// UsesDocAccess reports whether the plan calls fn:doc or fn:collection, and
// therefore must be evaluated against a corpus-wide runtime rather than
// fanned out per document.
func (p *Plan) UsesDocAccess() bool { return p.usesDocs }

// Algorithm returns the physical tree-pattern algorithm the plan was
// compiled for.
func (p *Plan) Algorithm() join.Algorithm { return p.alg }

// NumSlots returns the width of the plan's tuple frame.
func (p *Plan) NumSlots() int { return len(p.slotNames) }

// Vars returns the plan's free-variable names in slot order.
func (p *Plan) Vars() []string { return p.varNames }

// Patterns returns the pattern of each TupleTreePattern operator, in
// lowering order.
func (p *Plan) Patterns() []*pattern.Pattern {
	out := make([]*pattern.Pattern, len(p.ttps))
	for i, t := range p.ttps {
		out[i] = t.pat
	}
	return out
}

// RootBoundPatterns reports, per pattern operator (lowering order, matching
// Patterns), whether the operator's input tuples are built directly from a
// free-variable binding — the document root under the uniform binding — so
// document-rooted cardinality estimates and actuals are meaningful for it.
// Downstream pattern operators (e.g. after a positional head) consume
// derived bindings, and scoring them from the root would be nonsense.
func (p *Plan) RootBoundPatterns() []bool {
	out := make([]bool, len(p.ttps))
	for i, t := range p.ttps {
		if m, ok := t.input.(*opMapFromItem); ok {
			if _, isVar := m.input.(*opVar); isVar {
				out[i] = true
			}
		}
	}
	return out
}

// TTPStats is one pattern operator's accumulated actual cardinalities,
// collected across every Run whose Runtime set CountCards.
type TTPStats struct {
	Pattern   *pattern.Pattern
	Minimized bool  // lowering-time minimization changed the pattern
	Evals     int64 // context nodes evaluated
	Rows      int64 // bindings emitted (before dedup)
	Skips     int64 // evaluations answered by the emptiness proof
}

// TTPStats returns the per-pattern-operator cardinality counters in
// lowering order. Counters only advance under runtimes with CountCards set.
func (p *Plan) TTPStats() []TTPStats {
	out := make([]TTPStats, len(p.ttps))
	for i, t := range p.ttps {
		out[i] = TTPStats{
			Pattern:   t.pat,
			Minimized: t.minimized,
			Evals:     t.actEvals.Load(),
			Rows:      t.actRows.Load(),
			Skips:     t.actSkips.Load(),
		}
	}
	return out
}

// BindVars resolves a name-keyed variable environment to the plan's slot
// layout once per run; unbound names stay nil and error lazily on use.
func (p *Plan) BindVars(vars map[string]xdm.Sequence) []*xdm.Sequence {
	out := make([]*xdm.Sequence, len(p.varNames))
	for i, n := range p.varNames {
		if v, ok := vars[n]; ok {
			v := v
			out[i] = &v
		}
	}
	return out
}

// Run evaluates the plan to an item sequence.
func (p *Plan) Run(rt *Runtime) (xdm.Sequence, error) {
	if err := rt.EC.Err(); err != nil {
		return nil, err
	}
	v, err := p.root.eval(rt, nil)
	if err != nil {
		return nil, err
	}
	return v.itemsVal()
}

// RunSink evaluates the plan, delivering result items to sink through the
// runtime's execution context (budget charging, typed early abort). When
// the plan's root is the usual MapToItem output boundary, the dependent
// item expression is evaluated tuple by tuple and each tuple's items are
// delivered before the next tuple is touched — so a spent budget or a
// canceled context stops further evaluation, not just further delivery,
// and the sink observes exactly the document-order prefix. Other root
// shapes evaluate fully, then deliver.
func (p *Plan) RunSink(rt *Runtime, sink execctx.Sink) error {
	if err := rt.EC.Err(); err != nil {
		return err
	}
	if m, ok := p.root.(*opMapToItem); ok {
		in, err := evalFrames(m.input, rt, nil)
		if err != nil {
			return err
		}
		for _, t := range in {
			if err := rt.EC.Err(); err != nil {
				return err
			}
			v, err := evalItems(m.dep, rt, t)
			if err != nil {
				return err
			}
			if err := execctx.Deliver(rt.EC, sink, v); err != nil {
				return err
			}
		}
		return nil
	}
	seq, err := p.Run(rt)
	if err != nil {
		return err
	}
	return execctx.Deliver(rt.EC, sink, seq)
}

// newFrame clones fr into a fresh frame of the plan's width (fr may be nil:
// the top-level context).
func (p *Plan) newFrame(fr frame) frame {
	nf := make(frame, len(p.slotNames))
	copy(nf, fr)
	return nf
}
