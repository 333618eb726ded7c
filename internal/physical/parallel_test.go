package physical

import (
	"math/rand"
	"sync"
	"testing"

	"xqtp/internal/join"
	"xqtp/internal/xdm"
)

// Parallel TupleTreePattern evaluation is deterministic and identical to
// sequential evaluation on every algorithm (run with -race to validate the
// synchronization).
func TestParallelTTPMatchesSequential(t *testing.T) {
	queries := []string{
		`for $x in $d//person[emailaddress] return $x/name`, // per-tuple patterns
		`$d//person[name]/name`,
		`$d//site//person//name`,
	}
	for _, q := range queries {
		plan := pipeline(t, q, true)
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := randomDoc(rng, 100+rng.Intn(200))
			for _, alg := range []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig} {
				want, err1 := runPlan(plan, alg, tr)
				p, err := Compile(plan, alg)
				if err != nil {
					t.Fatal(err)
				}
				par := docRuntime(p, tr)
				par.Parallel = 4
				got, err2 := p.Run(par)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s/%v seed %d: error mismatch %v vs %v", q, alg, seed, err1, err2)
				}
				if !seqEqual(want, got) {
					t.Errorf("%s/%v seed %d: parallel result differs", q, alg, seed)
				}
			}
		}
	}
}

// One compiled plan and one runtime, many concurrent Run calls: the serving
// pattern. The prepared-pattern cache is hit from every goroutine; results
// must match the single-threaded run (run with -race to validate the
// synchronization).
func TestConcurrentRunsShareEngine(t *testing.T) {
	queries := []string{
		`$d//person[emailaddress]/name`,
		`for $x in $d//person[emailaddress] return $x/name`,
		`$d//site//person//name`,
	}
	rng := rand.New(rand.NewSource(7))
	trees := []*xdm.Tree{randomDoc(rng, 150), randomDoc(rng, 250)}
	for _, alg := range []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig, join.Auto} {
		for _, q := range queries {
			p, err := Compile(pipeline(t, q, true), alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trees {
				rt := docRuntime(p, tr)
				want, werr := p.Run(rt)
				const goroutines = 8
				outs := make([]xdm.Sequence, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						outs[g], errs[g] = p.Run(rt)
					}(g)
				}
				wg.Wait()
				for g := 0; g < goroutines; g++ {
					if (werr == nil) != (errs[g] == nil) {
						t.Fatalf("%s/%v: goroutine %d error mismatch %v vs %v", q, alg, g, werr, errs[g])
					}
					if !seqEqual(want, outs[g]) {
						t.Errorf("%s/%v: goroutine %d result differs", q, alg, g)
					}
				}
			}
		}
	}
}
