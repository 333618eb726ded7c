package xqtp

// Ablation benchmarks quantifying individual design choices, referenced by
// DESIGN.md and EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkAblationPositionalFirst measures the value of the Head rewrite
// (the §5.3 cursor-style early exit): the positional chain with and without
// the positional-first rule, under the nested loop.
func BenchmarkAblationPositionalFirst(b *testing.B) {
	doc := deepDoc(b)
	src := Section53Query(10)
	withRule := MustPrepare(src)
	withoutRule, err := PrepareWithOptions(src, CompileOptions{
		TreePatterns: true, Rewrites: true, ContextVar: "dot",
		DisablePositionalFirst: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("head-on/NL", func(b *testing.B) { runQuery(b, withRule, doc, NestedLoop) })
	b.Run("head-off/NL", func(b *testing.B) { runQuery(b, withoutRule, doc, NestedLoop) })
	b.Run("head-on/SC", func(b *testing.B) { runQuery(b, withRule, doc, Staircase) })
	b.Run("head-off/SC", func(b *testing.B) { runQuery(b, withoutRule, doc, Staircase) })
}

// BenchmarkAblationBulkConversion measures the value of rule (b): the §5.1
// path with bulk set-at-a-time patterns vs. per-tuple patterns inside maps.
func BenchmarkAblationBulkConversion(b *testing.B) {
	doc := xmarkDoc(b, 1000)
	bulk := MustPrepare(Fig4Query)
	perTuple, err := PrepareWithOptions(Fig4Query, CompileOptions{
		TreePatterns: true, Rewrites: true, ContextVar: "dot",
		DisableBulkConversion: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
		b.Run(fmt.Sprintf("bulk/%s", alg.Short()), func(b *testing.B) {
			runQuery(b, bulk, doc, alg)
		})
		b.Run(fmt.Sprintf("per-tuple/%s", alg.Short()), func(b *testing.B) {
			runQuery(b, perTuple, doc, alg)
		})
	}
}

// BenchmarkParallel measures the parallel TupleTreePattern evaluation on a
// per-tuple workload (Q5-shaped maps evaluate one pattern per person).
func BenchmarkParallel(b *testing.B) {
	doc := xmarkDoc(b, 1000)
	// The residual Select leaves the profile/interest pattern with many
	// input tuples (one per selected person), which is where per-context
	// parallelism applies.
	q := MustPrepare(`$input//person[string-length(name) > 3]/profile/interest`)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := q.RunWith(ctx, doc, NestedLoop, RunOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAuto compares the cost-based chooser against each fixed
// algorithm on a mixed workload (bulk twigs + a selective positional
// chain).
func BenchmarkAuto(b *testing.B) {
	member := memberDoc(b, 1_000_000)
	deep := deepDoc(b)
	queries := []struct {
		name string
		q    *Query
		doc  *Document
	}{
		{"QE1", MustPrepare(QEQueries[0].Query), member},
		{"QE5", MustPrepare(QEQueries[4].Query), member},
		{"chain", MustPrepare(Section53Query(10)), deep},
	}
	algs := []Algorithm{NestedLoop, Twig, Staircase, Auto}
	for _, tc := range queries {
		for _, alg := range algs {
			name := alg.String()
			b.Run(fmt.Sprintf("%s/%s", tc.name, name), func(b *testing.B) {
				runQuery(b, tc.q, tc.doc, alg)
			})
		}
	}
}
