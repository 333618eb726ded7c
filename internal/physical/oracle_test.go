package physical

import (
	"math/rand"
	"testing"

	"xqtp/internal/algebra"
	"xqtp/internal/core"
	"xqtp/internal/join"
	"xqtp/internal/parser"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// oracle evaluates the unrewritten core directly.
func oracle(t *testing.T, q string, tr *xdm.Tree) (xdm.Sequence, error) {
	t.Helper()
	e, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %s: %v", q, err)
	}
	c, err := core.Normalize(e, "dot")
	if err != nil {
		t.Fatalf("normalize %s: %v", q, err)
	}
	env := (*core.Env)(nil).
		Bind("dot", xdm.Singleton(tr.Root)).
		Bind("d", xdm.Singleton(tr.Root)).
		Bind("input", xdm.Singleton(tr.Root))
	return core.Eval(c, env)
}

// docRuntime builds a runtime for p with $dot, $d and $input bound to the
// document node, no store and a private prepared-join cache.
func docRuntime(p *Plan, tr *xdm.Tree) *Runtime {
	return &Runtime{
		Preps: NewPrepCache(),
		Vars: p.BindVars(map[string]xdm.Sequence{
			"dot":   xdm.Singleton(tr.Root),
			"d":     xdm.Singleton(tr.Root),
			"input": xdm.Singleton(tr.Root),
		}),
	}
}

// runPlan lowers plan for alg and evaluates it against tr.
func runPlan(plan algebra.Expr, alg join.Algorithm, tr *xdm.Tree) (xdm.Sequence, error) {
	p, err := Compile(plan, alg)
	if err != nil {
		return nil, err
	}
	return p.Run(docRuntime(p, tr))
}

func seqEqual(a, b xdm.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomDoc(rng *rand.Rand, n int) *xdm.Tree {
	tags := []string{"person", "name", "emailaddress", "profile", "interest", "site", "people", "t1", "a", "b"}
	root := xdm.NewElement("site")
	nodes := []*xdm.Node{root}
	for i := 0; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		el := xdm.NewElement(tags[rng.Intn(len(tags))])
		if rng.Intn(4) == 0 {
			el.SetAttr("id", "x")
		}
		if rng.Intn(3) == 0 {
			el.AppendChild(xdm.NewText([]string{"John", "Mary", "x"}[rng.Intn(3)]))
		}
		parent.AppendChild(el)
		nodes = append(nodes, el)
	}
	return xdm.Finalize(root)
}

var differentialQueries = []string{
	// The paper's queries.
	`$d//person[emailaddress]/name`,
	`(for $x in $d//person[emailaddress] return $x)/name`,
	`let $x := for $y in $d//person where $y/emailaddress return $y return $x/name`,
	`$d//person[name = "John"]/emailaddress`,
	`$d//person[1]/name`,
	`$d//person[name = "John"]/emailaddress[1]`,
	`for $x in $d//person[emailaddress] return $x/name`,
	// §5.1 variants.
	`$input/site/people/person[emailaddress]/profile/interest`,
	`for $x1 in $input/site, $x2 in $x1/people, $x3 in $x2/person[emailaddress] return $x3/profile/interest`,
	// QE shapes (on the site/person tags).
	`$input/desc::person[child::name[child::interest]]`,
	`$input/desc::person/child::name[1]`,
	`$input/desc::person[desc::name]`,
	`$input/desc::person[child::name]/desc::interest`,
	`$input/desc::person[child::name/child::interest]`,
	// §5.3 chains.
	`/site/t1[1]/t1[1]`,
	`/site[1]`,
	// Positional and mixed.
	`$d//person[2]/name`,
	`$d//person[position() = last()]/name`,
	`$d//name[@id]`,
	`$d//person[@id][name]/name`,
	`$d//person[not(emailaddress)]/name`,
	`count($d//person)`,
	`exists($d//person[name = "John"])`,
	`$d//person[name = "John" and emailaddress]/name`,
	`$d//person[name = "Zoe" or name = "Mary"]/name`,
	`for $x at $i in $d//person where $i = 2 return $x/name`,
	`for $x in $d//person where $x/name = "John" return $x/emailaddress`,
	`$d//people/person/name`,
	`$d//person/name/text()`,
	// Extended fragment: sequences, union, arithmetic, conditionals,
	// quantifiers, function library.
	`($d//name, $d//emailaddress)`,
	`$d//name | $d//emailaddress`,
	`($d//person/name | $d//person[emailaddress]/name)[1]`,
	`count($d//person) - count($d//emailaddress)`,
	`$d//person[position() = last() - 1]/name`,
	`$d//person[count(name) + count(emailaddress) = 2]/name`,
	`if ($d//person[name = "John"]) then $d//person[1]/name else ()`,
	`some $x in $d//person satisfies $x/emailaddress`,
	`every $x in $d//person satisfies $x/name`,
	`some $x in $d//person, $y in $x/person satisfies $y/name = $x/name`,
	`$d//person[contains(name, "J")]/name`,
	`$d//person[starts-with(name, "M")]/name`,
	`concat("n=", count($d//name))`,
	`string($d//person[1]/name)`,
	`sum(for $x in $d//person return count($x/name))`,
	`$d//name[string-length(.) > 3]`,
	`max((0, for $x in $d//person return count($x/emailaddress)))`,
	`(1, 2, 3, count($d//person))`,
	`-count($d//person)`,
	`2 * 3 + 4 div 2`,
}

// The central correctness test: for every query, the optimized plan under
// each physical algorithm and the unoptimized plan all agree with the core
// interpreter on randomized documents.
func TestPlansMatchOracle(t *testing.T) {
	algs := []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig}
	for _, q := range differentialQueries {
		optPlan := pipeline(t, q, true)
		rawPlan := pipeline(t, q, false)
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed * 77))
			tr := randomDoc(rng, 4+rng.Intn(70))
			want, werr := oracle(t, q, tr)
			// Unoptimized plan, NL only (no patterns to dispatch).
			got, gerr := runPlan(rawPlan, join.NestedLoop, tr)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s seed %d (raw): error mismatch %v vs %v", q, seed, werr, gerr)
			}
			if werr == nil && !seqEqual(want, got) {
				t.Fatalf("%s seed %d (raw plan):\n want %v\n got  %v\n plan %s",
					q, seed, want, got, algebra.String(rawPlan))
			}
			for _, alg := range algs {
				got, gerr := runPlan(optPlan, alg, tr)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s seed %d (%v): error mismatch %v vs %v", q, seed, alg, werr, gerr)
				}
				if werr != nil {
					continue
				}
				if !seqEqual(want, got) {
					t.Errorf("%s seed %d (%v):\n want %v\n got  %v\n plan %s",
						q, seed, alg, want, got, algebra.String(optPlan))
					break
				}
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	tr, _ := xmlstore.ParseString(`<a><b/></a>`)
	// Unbound variable.
	if _, err := runPlan(&algebra.VarRef{Name: "nope"}, join.NestedLoop, tr); err == nil {
		t.Error("unbound variable should fail")
	}
	// Field outside a tuple context.
	if _, err := runPlan(&algebra.Field{Name: "dot"}, join.NestedLoop, tr); err == nil {
		t.Error("unbound field should fail")
	}
	// Tuples where items expected.
	p := &algebra.MapFromItem{Bind: "x", Input: &algebra.VarRef{Name: "d"}}
	if _, err := runPlan(p, join.NestedLoop, tr); err == nil {
		t.Error("tuple result at top level should fail")
	}
	// TreeJoin over atomics.
	tj := &algebra.TreeJoin{Axis: xdm.AxisChild, Test: xdm.NameTest("b"),
		Input: &algebra.Const{Item: xdm.String("zap")}}
	if _, err := runPlan(tj, join.NestedLoop, tr); err == nil {
		t.Error("TreeJoin over atomic should fail")
	}
}

func TestHeadEarlyExitMatchesFull(t *testing.T) {
	// Head(TTP) with the limit path must equal full evaluation + head.
	doc := `<site><t1><t1/><t1/></t1><t1><t1/></t1></site>`
	tr, err := xmlstore.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	q := `/site/t1[1]/t1[1]`
	plan := pipeline(t, q, true)
	want, err := oracle(t, q, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig} {
		got, err := runPlan(plan, alg, tr)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !seqEqual(want, got) {
			t.Errorf("%v: want %v got %v", alg, want, got)
		}
	}
}
