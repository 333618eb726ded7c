package physical

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// opTTP is the physical TupleTreePattern: a dependent join that matches its
// compiled pattern from the context nodes in the input slot of each input
// tuple and emits one output tuple per binding, in root-to-leaf lexical
// document order with duplicate bindings removed (§4.1). The operator
// carries everything resolvable before the first run — the validated
// pattern, the input and output slots, and the algorithm annotation (a
// fixed algorithm, or Auto for the per-context cost-model choice inside
// join.Prepared) — so evaluation resolves only the per-document prepared
// join, through a single-entry cache sized for the one-document serving
// path.
type opTTP struct {
	p      *Plan
	input  op
	pat    *pattern.Pattern
	inSlot int // slot of the pattern's input field; -1: unbound (lazy error)
	// outSlots maps the pattern's output fields (root-to-leaf) to frame
	// slots.
	outSlots []int
	alg      join.Algorithm
	// first limits evaluation to the first binding in document order: the
	// lowering of Head(TupleTreePattern), which hands the nested-loop
	// algorithm its cursor-style early exit (§5.3).
	first bool
	// minimized records that logical minimization changed the pattern at
	// lowering time (explain annotation only).
	minimized bool

	// cache is the last (document, prepared join) this operator resolved;
	// with one document — the serving case — every run after the first is a
	// single pointer compare.
	cache atomic.Pointer[ttpEntry]

	// Actual-cardinality counters, maintained only when the Runtime sets
	// CountCards: evaluations (context nodes evaluated), rows emitted, and
	// evaluations skipped by the emptiness proof. They make the cost model's
	// est=/act= regression visible without any cost on the default path.
	actEvals atomic.Int64
	actRows  atomic.Int64
	actSkips atomic.Int64
}

type ttpEntry struct {
	tree *xdm.Tree
	prep *join.Prepared
}

// prepFor resolves the prepared join for one document, consulting the
// operator's last-document cache, then the runtime's shared prep cache.
func (o *opTTP) prepFor(rt *Runtime, t *xdm.Tree) (*join.Prepared, error) {
	if e := o.cache.Load(); e != nil && e.tree == t {
		return e.prep, nil
	}
	var ix *xmlstore.Index
	if rt.Store != nil {
		ix = rt.Store.Index(t)
	}
	if ix == nil {
		ix = xmlstore.BuildIndex(t)
	}
	var p *join.Prepared
	var err error
	if rt.Preps != nil {
		p, err = rt.Preps.Prepared(o.alg, ix, o.pat)
	} else {
		p, err = join.Prepare(o.alg, ix, o.pat)
	}
	if err != nil {
		return nil, err
	}
	o.cache.Store(&ttpEntry{tree: t, prep: p})
	return p, nil
}

// row pairs an input frame with one pattern binding.
type row struct {
	fr      frame
	binding join.Binding
}

func (o *opTTP) eval(rt *Runtime, fr frame) (value, error) {
	if err := rt.EC.Err(); err != nil {
		return value{}, err
	}
	in, err := evalFrames(o.input, rt, fr)
	if err != nil {
		return value{}, err
	}
	if o.inSlot < 0 && len(in) > 0 {
		return value{}, fmt.Errorf("exec: pattern input field %s unbound", o.pat.Input)
	}
	// Collect the (frame, context node) work list.
	type work struct {
		fr   frame
		ctx  *xdm.Node
		prep *join.Prepared
	}
	var items []work
	for _, t := range in {
		for _, it := range t[o.inSlot] {
			ctx, ok := it.(*xdm.Node)
			if !ok {
				return value{}, fmt.Errorf("exec: pattern context is atomic value %T", it)
			}
			items = append(items, work{fr: t, ctx: ctx})
		}
	}
	// Resolve the prepared join once per distinct document (with a single
	// document — the common case — this is one cache lookup for the whole
	// work list).
	var lastTree *xdm.Tree
	var lastPrep *join.Prepared
	for i := range items {
		if t := items[i].ctx.Doc; t != lastTree {
			p, err := o.prepFor(rt, t)
			if err != nil {
				return value{}, err
			}
			lastTree, lastPrep = t, p
		}
		items[i].prep = lastPrep
	}
	if rt.CountCards {
		o.actEvals.Add(int64(len(items)))
		for i := range items {
			if items[i].prep.ProvablyEmpty() {
				o.actSkips.Add(1)
			}
		}
	}
	if o.first && len(items) == 1 {
		b, found := items[0].prep.EvalFirstCtx(rt.EC, items[0].ctx)
		var rows []row
		if found {
			rows = append(rows, row{fr: items[0].fr, binding: b})
		}
		return o.emit(rt, rows)
	}
	if len(items) == 1 {
		// One context node (the common case after rewrites root the pattern
		// at the document): no per-item fan-out bookkeeping.
		bs := items[0].prep.EvalCtx(rt.EC, items[0].ctx)
		rows := make([]row, len(bs))
		for i, b := range bs {
			rows[i] = row{fr: items[0].fr, binding: b}
		}
		return o.emit(rt, rows)
	}
	perItem := make([][]join.Binding, len(items))
	if rt.Parallel > 1 && len(items) > 1 {
		workers := rt.Parallel
		if workers > len(items) {
			workers = len(items)
		}
		var wg sync.WaitGroup
		next := int64(-1)
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					// A stopped execution context halts the fan-out: no new
					// context node is admitted, and the kernels cut the
					// in-flight ones short at their own checkpoints.
					if i >= len(items) || rt.EC.Stopped() {
						return
					}
					perItem[i] = items[i].prep.EvalCtx(rt.EC, items[i].ctx)
				}
			}()
		}
		wg.Wait()
	} else {
		for i, w := range items {
			if rt.EC.Stopped() {
				break
			}
			perItem[i] = w.prep.EvalCtx(rt.EC, w.ctx)
		}
	}
	total := 0
	for _, bs := range perItem {
		total += len(bs)
	}
	rows := make([]row, 0, total)
	for i, bs := range perItem {
		for _, b := range bs {
			rows = append(rows, row{fr: items[i].fr, binding: b})
		}
	}
	return o.emit(rt, rows)
}

// emit records the actual row cardinality when the runtime asks for it, then
// hands off to output. A stopped execution context surfaces here as the
// typed abort error — this is the single point every evaluation shape above
// funnels through, so partial kernel results are never emitted.
func (o *opTTP) emit(rt *Runtime, rows []row) (value, error) {
	if err := rt.EC.Err(); err != nil {
		return value{}, err
	}
	if rt.CountCards {
		o.actRows.Add(int64(len(rows)))
	}
	return o.output(rows)
}

// output sorts the rows into root-to-leaf lexical document order, drops
// duplicate bindings, and emits output frames from a single backing arena:
// each frame copies its input frame and writes the binding nodes into the
// pattern's output slots as singleton sequences cut from an item arena.
func (o *opTTP) output(rows []row) (value, error) {
	slices.SortStableFunc(rows, func(a, b row) int {
		return compareBindings(a.binding, b.binding)
	})
	w := len(o.p.slotNames)
	nf := len(o.outSlots)
	backing := make([]xdm.Sequence, len(rows)*w)
	itemArena := make([]xdm.Item, len(rows)*nf)
	out := make([]frame, 0, len(rows))
	ti := 0
	for i, r := range rows {
		if i > 0 && compareBindings(rows[i-1].binding, r.binding) == 0 {
			continue
		}
		row := backing[len(out)*w : (len(out)+1)*w : (len(out)+1)*w]
		copy(row, r.fr)
		for k, slot := range o.outSlots {
			itemArena[ti] = r.binding[k]
			row[slot] = itemArena[ti : ti+1 : ti+1]
			ti++
		}
		out = append(out, row)
	}
	if o.first && len(out) > 1 {
		out = out[:1]
	}
	return framesValue(out), nil
}

func compareBindings(a, b join.Binding) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if c := xdm.CompareOrder(a[i], b[i]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}
