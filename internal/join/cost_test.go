package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

func TestAutoAgreesWithFixedAlgorithms(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTree(rng, 3+rng.Intn(60))
		ix := xmlstore.BuildIndex(tr)
		pat := randomPattern(rng)
		ref, err := Eval(NestedLoop, ix, tr.Root, pat)
		if err != nil {
			return false
		}
		refSet := map[*xdm.Node]bool{}
		for _, b := range ref {
			refSet[b[0]] = true
		}
		got, err := Eval(Auto, ix, tr.Root, pat)
		if err != nil {
			return false
		}
		gotSet := map[*xdm.Node]bool{}
		for _, b := range got {
			if !refSet[b[0]] {
				return false
			}
			gotSet[b[0]] = true
		}
		return len(gotSet) == len(refSet)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestChooseHeuristics(t *testing.T) {
	// A large document where set-at-a-time evaluation must win for a bulk
	// rooted path.
	rng := rand.New(rand.NewSource(4))
	tr := randomTree(rng, 4000)
	ix := xmlstore.BuildIndex(tr)
	bulk := chain("dot", st(xdm.AxisDescendant, "b"))
	if alg := Choose(ix, tr.Root, bulk); alg == NestedLoop {
		t.Errorf("Choose picked NLJoin for a bulk rooted path")
	}
	// Patterns outside the set-at-a-time fragment fall back to the fully
	// general nested loop.
	rev := chain("dot", st(xdm.AxisDescendant, "b"), st(xdm.AxisParent, "a"))
	if alg := Choose(ix, tr.Root, rev); alg != NestedLoop {
		t.Errorf("Choose picked %v for a reverse-axis pattern, want NLJoin", alg)
	}
	// First-match over a child spine: Auto takes the NL early exit.
	p := chain("dot", st(xdm.AxisChild, "a"), st(xdm.AxisChild, "b"))
	if _, _, err := EvalFirst(Auto, ix, tr.Root, p); err != nil {
		t.Fatal(err)
	}
}

func TestParseAlgorithmAuto(t *testing.T) {
	a, err := ParseAlgorithm("auto")
	if err != nil || a != Auto {
		t.Fatalf("ParseAlgorithm(auto) = %v, %v", a, err)
	}
	if Auto.String() != "Auto" {
		t.Errorf("Auto.String() = %q", Auto.String())
	}
}

// Short labels round-trip through ParseAlgorithm, so a report's alg label
// names the algorithm that produced it.
func TestShortRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{NestedLoop, Twig, Staircase, Auto} {
		got, err := ParseAlgorithm(a.Short())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.Short(), got, err, a)
		}
	}
}
