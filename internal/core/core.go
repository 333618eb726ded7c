// Package core defines the XQuery Core — the normalized form that queries
// are lowered into before rewriting (paper §2). Normalization exposes the
// implicit iteration of XPath's E1/E2 and E1[E2] expressions as explicit
// for-loops with context, position and last bindings, inserts
// fs:distinct-doc-order (ddo) calls, and compiles predicates into typeswitch
// expressions, exactly as in the paper's worked example Q1a-n.
//
// The package also contains a naive reference interpreter for the core; the
// rewriting and optimization phases are differentially tested against it.
package core

import (
	"sort"

	"xqtp/internal/xdm"
)

// Expr is an XQuery Core expression.
type Expr interface {
	isCore()
}

// Var is a variable reference.
type Var struct {
	Name string
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
	IsInt bool
}

// EmptySeq is the empty sequence.
type EmptySeq struct{}

// Step is an axis step applied to an input expression. Normalization always
// produces steps whose input is the current context variable; the explicit
// input makes compilation into TreeJoin operators direct.
type Step struct {
	Input Expr
	Axis  xdm.Axis
	Test  xdm.NodeTest
}

// For is the core iteration construct, with an optional positional variable
// and an optional where condition (evaluated via its effective boolean
// value).
type For struct {
	Var    string
	Pos    string // positional variable, "" if absent
	In     Expr
	Where  Expr // nil if absent
	Return Expr
}

// Let binds a variable.
type Let struct {
	Var    string
	In     Expr
	Return Expr
}

// If is a two-branch conditional (the else branch is the empty sequence when
// normalization introduces it for a where clause over a let).
type If struct {
	Cond Expr // tested via effective boolean value
	Then Expr
	Else Expr
}

// SeqType is the small type algebra used by typeswitch and the static
// typing judgment of the type rewritings.
type SeqType uint8

// Core sequence types.
const (
	TypeUnknown SeqType = iota
	TypeEmpty
	TypeNodes
	TypeNumeric
	TypeString
	TypeBoolean
)

// String names the type as it appears in typeswitch cases.
func (t SeqType) String() string {
	switch t {
	case TypeEmpty:
		return "empty()"
	case TypeNodes:
		return "node()*"
	case TypeNumeric:
		return "numeric()"
	case TypeString:
		return "xs:string"
	case TypeBoolean:
		return "xs:boolean"
	}
	return "item()*"
}

// TypeSwitch is the core typeswitch expression produced when normalizing
// XPath predicates: the numeric case turns the predicate into a positional
// test, the default case into an effective-boolean-value test.
type TypeSwitch struct {
	Input   Expr
	Cases   []TSCase
	DefVar  string // "" when the default expression ignores the value
	Default Expr
}

// TSCase is one case clause of a typeswitch.
type TSCase struct {
	Type SeqType
	Var  string
	Body Expr
}

// Call is a call to one of the core builtin functions: "ddo"
// (fs:distinct-doc-order), "count", "boolean", "not", "empty", "exists",
// "root".
type Call struct {
	Name string
	Args []Expr
}

// Compare is a general comparison.
type Compare struct {
	Op   xdm.CompareOp
	L, R Expr
}

// Sequence is sequence concatenation (E1, E2, …).
type Sequence struct {
	Items []Expr
}

// Arith is binary arithmetic over atomized singleton operands.
type Arith struct {
	Op   xdm.ArithOp
	L, R Expr
}

// And is conjunction over effective boolean values.
type And struct {
	L, R Expr
}

// Or is disjunction over effective boolean values.
type Or struct {
	L, R Expr
}

func (*Var) isCore()        {}
func (*StringLit) isCore()  {}
func (*NumberLit) isCore()  {}
func (*EmptySeq) isCore()   {}
func (*Step) isCore()       {}
func (*For) isCore()        {}
func (*Let) isCore()        {}
func (*If) isCore()         {}
func (*TypeSwitch) isCore() {}
func (*Call) isCore()       {}
func (*Compare) isCore()    {}
func (*Sequence) isCore()   {}
func (*Arith) isCore()      {}
func (*And) isCore()        {}
func (*Or) isCore()         {}

// Children returns the direct subexpressions of e, in evaluation order.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *Step:
		return []Expr{x.Input}
	case *For:
		out := []Expr{x.In}
		if x.Where != nil {
			out = append(out, x.Where)
		}
		return append(out, x.Return)
	case *Let:
		return []Expr{x.In, x.Return}
	case *If:
		return []Expr{x.Cond, x.Then, x.Else}
	case *TypeSwitch:
		out := []Expr{x.Input}
		for _, c := range x.Cases {
			out = append(out, c.Body)
		}
		return append(out, x.Default)
	case *Call:
		return x.Args
	case *Compare:
		return []Expr{x.L, x.R}
	case *Sequence:
		return x.Items
	case *Arith:
		return []Expr{x.L, x.R}
	case *And:
		return []Expr{x.L, x.R}
	case *Or:
		return []Expr{x.L, x.R}
	}
	return nil
}

// Usage counts the number of free occurrences of variable name in e,
// respecting shadowing by for/let/typeswitch bindings.
func Usage(e Expr, name string) int {
	switch x := e.(type) {
	case *Var:
		if x.Name == name {
			return 1
		}
		return 0
	case *For:
		n := Usage(x.In, name)
		if x.Var == name || x.Pos == name {
			return n
		}
		if x.Where != nil {
			n += Usage(x.Where, name)
		}
		return n + Usage(x.Return, name)
	case *Let:
		n := Usage(x.In, name)
		if x.Var == name {
			return n
		}
		return n + Usage(x.Return, name)
	case *TypeSwitch:
		n := Usage(x.Input, name)
		for _, c := range x.Cases {
			if c.Var != name {
				n += Usage(c.Body, name)
			}
		}
		if x.DefVar != name {
			n += Usage(x.Default, name)
		}
		return n
	}
	n := 0
	for _, c := range Children(e) {
		n += Usage(c, name)
	}
	return n
}

// FreeVars returns the names of the variables that occur free in e, sorted,
// respecting shadowing by for/let/typeswitch bindings.
func FreeVars(e Expr) []string {
	free := map[string]bool{}
	binders := map[string]int{} // enclosing bindings per name
	var walk func(Expr)
	scoped := func(body Expr, names ...string) {
		for _, n := range names {
			binders[n]++
		}
		walk(body)
		for _, n := range names {
			binders[n]--
		}
	}
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Var:
			if binders[x.Name] == 0 {
				free[x.Name] = true
			}
		case *For:
			walk(x.In)
			if x.Where != nil {
				scoped(x.Where, x.Var, x.Pos)
			}
			scoped(x.Return, x.Var, x.Pos)
		case *Let:
			walk(x.In)
			scoped(x.Return, x.Var)
		case *TypeSwitch:
			walk(x.Input)
			for _, c := range x.Cases {
				scoped(c.Body, c.Var)
			}
			scoped(x.Default, x.DefVar)
		default:
			for _, c := range Children(e) {
				walk(c)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(free))
	for v := range free {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Subst returns e with every free occurrence of variable name replaced by
// repl. Normalization generates globally unique variable names, so no
// capture can occur; Subst still respects shadowing for safety.
func Subst(e Expr, name string, repl Expr) Expr {
	switch x := e.(type) {
	case *Var:
		if x.Name == name {
			return repl
		}
		return x
	case *StringLit, *NumberLit, *EmptySeq:
		return x
	case *Step:
		return &Step{Input: Subst(x.Input, name, repl), Axis: x.Axis, Test: x.Test}
	case *For:
		out := &For{Var: x.Var, Pos: x.Pos, In: Subst(x.In, name, repl), Where: x.Where, Return: x.Return}
		if x.Var != name && x.Pos != name {
			if x.Where != nil {
				out.Where = Subst(x.Where, name, repl)
			}
			out.Return = Subst(x.Return, name, repl)
		}
		return out
	case *Let:
		out := &Let{Var: x.Var, In: Subst(x.In, name, repl), Return: x.Return}
		if x.Var != name {
			out.Return = Subst(x.Return, name, repl)
		}
		return out
	case *If:
		return &If{Cond: Subst(x.Cond, name, repl), Then: Subst(x.Then, name, repl), Else: Subst(x.Else, name, repl)}
	case *TypeSwitch:
		out := &TypeSwitch{Input: Subst(x.Input, name, repl), DefVar: x.DefVar, Default: x.Default}
		for _, c := range x.Cases {
			if c.Var != name {
				c.Body = Subst(c.Body, name, repl)
			}
			out.Cases = append(out.Cases, c)
		}
		if x.DefVar != name {
			out.Default = Subst(x.Default, name, repl)
		}
		return out
	case *Call:
		out := &Call{Name: x.Name, Args: make([]Expr, len(x.Args))}
		for i, a := range x.Args {
			out.Args[i] = Subst(a, name, repl)
		}
		return out
	case *Compare:
		return &Compare{Op: x.Op, L: Subst(x.L, name, repl), R: Subst(x.R, name, repl)}
	case *Sequence:
		out := &Sequence{Items: make([]Expr, len(x.Items))}
		for i, it := range x.Items {
			out.Items[i] = Subst(it, name, repl)
		}
		return out
	case *Arith:
		return &Arith{Op: x.Op, L: Subst(x.L, name, repl), R: Subst(x.R, name, repl)}
	case *And:
		return &And{L: Subst(x.L, name, repl), R: Subst(x.R, name, repl)}
	case *Or:
		return &Or{L: Subst(x.L, name, repl), R: Subst(x.R, name, repl)}
	}
	return e
}
