// Package join implements the physical tree-pattern algorithms behind the
// TupleTreePattern operator (paper §5):
//
//   - NestedLoop (NLJoin): navigational, node-at-a-time evaluation with
//     cursor-style early exit — the baseline every XQuery engine has;
//   - Staircase (SCJoin, Grust & van Keulen): set-at-a-time staircase join
//     over the pre/size region encoding, one pass per location step with
//     context pruning, scanning pre-sorted tag streams;
//   - Twig (TwigJoin, Bruno et al.): holistic twig join with one stream and
//     one stack per query node, linking candidate matches via region
//     containment, with a refinement pass that enforces child edges.
//
// All three implement the same contract: given a context node and a tree
// pattern, return the bindings of the pattern's annotated output steps.
package join

import (
	"fmt"

	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// Algorithm selects the physical tree-pattern algorithm.
type Algorithm int

// The available algorithms.
const (
	NestedLoop Algorithm = iota
	Staircase
	Twig
)

// String names the algorithm as in the paper's tables.
func (a Algorithm) String() string {
	switch a {
	case NestedLoop:
		return "NLJoin"
	case Staircase:
		return "SCJoin"
	case Twig:
		return "TwigJoin"
	case Auto:
		return "Auto"
	}
	return "?"
}

// ParseAlgorithm resolves an algorithm name ("nl", "sc", "twig", and the
// paper's table labels).
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "nl", "nljoin", "nested-loop", "NL":
		return NestedLoop, nil
	case "sc", "scjoin", "staircase", "SC":
		return Staircase, nil
	case "twig", "twigjoin", "tj", "TJ":
		return Twig, nil
	case "auto", "Auto":
		return Auto, nil
	}
	return 0, fmt.Errorf("join: unknown algorithm %q", name)
}

// Binding is one pattern match: the matched node for each annotated output
// step, in pattern.OutputFields() order.
type Binding []*xdm.Node

// Eval returns every binding of pat evaluated from context node ctx. It is
// the one-shot form of Prepare followed by Prepared.Eval; callers that
// evaluate the same pattern from many context nodes of one document should
// Prepare once instead.
func Eval(alg Algorithm, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) ([]Binding, error) {
	p, err := Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}
	return p.Eval(ctx), nil
}

// EvalFirst returns the first binding in document order — the one-shot form
// of Prepare followed by Prepared.EvalFirst.
func EvalFirst(alg Algorithm, ix *xmlstore.Index, ctx *xdm.Node, pat *pattern.Pattern) (Binding, bool, error) {
	p, err := Prepare(alg, ix, pat)
	if err != nil {
		return nil, false, err
	}
	b, ok := p.EvalFirst(ctx)
	return b, ok, nil
}

// wrapNodes views a freshly built node list as single-field bindings; the
// bindings alias the input slice (two allocations for the whole result set
// instead of one per binding).
func wrapNodes(nodes []*xdm.Node) []Binding {
	out := make([]Binding, len(nodes))
	for i := range nodes {
		out[i] = nodes[i : i+1 : i+1]
	}
	return out
}

// checkPattern rejects output annotations inside predicate branches, which
// the operator does not produce bindings for.
func checkPattern(pat *pattern.Pattern) error {
	var checkPreds func(s *pattern.Step) error
	var checkChain func(s *pattern.Step, inPred bool) error
	checkChain = func(s *pattern.Step, inPred bool) error {
		for c := s; c != nil; c = c.Next {
			if inPred && c.Out != "" {
				return fmt.Errorf("join: output annotation {%s} inside a predicate branch", c.Out)
			}
			if err := checkPreds(c); err != nil {
				return err
			}
		}
		return nil
	}
	checkPreds = func(s *pattern.Step) error {
		for _, p := range s.Preds {
			if err := checkChain(p, true); err != nil {
				return err
			}
		}
		return nil
	}
	return checkChain(pat.Root, false)
}

// scSupported reports whether the staircase join supports every axis in the
// pattern (forward axes only).
func scSupported(s *pattern.Step) bool {
	for c := s; c != nil; c = c.Next {
		if !c.Axis.Forward() {
			return false
		}
		for _, p := range c.Preds {
			if !scSupported(p) {
				return false
			}
		}
	}
	return true
}

// twigSupported reports whether the twig join supports the pattern:
// child/descendant/attribute edges with name or star tests.
func twigSupported(s *pattern.Step) bool {
	for c := s; c != nil; c = c.Next {
		switch c.Axis {
		case xdm.AxisChild, xdm.AxisDescendant, xdm.AxisAttribute:
		default:
			return false
		}
		switch c.Test.Kind {
		case xdm.TestName, xdm.TestStar:
		default:
			return false
		}
		for _, p := range c.Preds {
			if !twigSupported(p) {
				return false
			}
		}
	}
	return true
}

// spineChildOnly reports whether every spine step is a child or attribute
// step (results cannot nest, so lexical order equals document order).
func spineChildOnly(s *pattern.Step) bool {
	for c := s; c != nil; c = c.Next {
		switch c.Axis {
		case xdm.AxisChild, xdm.AxisAttribute, xdm.AxisSelf:
		default:
			return false
		}
	}
	return true
}
