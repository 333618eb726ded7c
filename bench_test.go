package xqtp

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Document sizes are scaled down from the paper's (a benchmark iteration
// should be milliseconds, not seconds); cmd/treebench runs the experiments
// at full paper scale. The comparisons that matter — which algorithm wins,
// by what factor, where the crossovers are — are preserved at this scale.
import (
	"fmt"
	"testing"
)

// benchDoc caches generated documents across benchmark invocations.
var benchDocs = map[string]*Document{}

func memberDoc(b *testing.B, bytes int) *Document {
	b.Helper()
	key := fmt.Sprintf("member-%d", bytes)
	if d, ok := benchDocs[key]; ok {
		return d
	}
	d := NewMemberDocument(1, bytes)
	benchDocs[key] = d
	return d
}

func xmarkDoc(b *testing.B, people int) *Document {
	b.Helper()
	key := fmt.Sprintf("xmark-%d", people)
	if d, ok := benchDocs[key]; ok {
		return d
	}
	d := NewXMarkDocument(1, people)
	benchDocs[key] = d
	return d
}

func deepDoc(b *testing.B) *Document {
	b.Helper()
	if d, ok := benchDocs["deep"]; ok {
		return d
	}
	d := NewDeepDocument(1, 50_000, 15, "t1")
	benchDocs["deep"] = d
	return d
}

func runQuery(b *testing.B, q *Query, doc *Document, alg Algorithm) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(doc, alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: QE1–QE6 × {NL, TJ, SC} × document
// sizes (scaled to 0.5 and 1 MB; treebench runs the paper's 2.1–11 MB).
func BenchmarkTable1(b *testing.B) {
	sizes := []int{500_000, 1_000_000}
	for _, pq := range QEQueries {
		q := MustPrepare(pq.Query)
		for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
			for _, sz := range sizes {
				name := fmt.Sprintf("%s/%s/%.1fMB", pq.Name, alg.Short(), float64(sz)/1e6)
				b.Run(name, func(b *testing.B) {
					runQuery(b, q, memberDoc(b, sz), alg)
				})
			}
		}
	}
}

// BenchmarkFigure4 regenerates Fig. 4: the FLWOR-written path with and
// without the tree-pattern rewrites, over growing XMark documents.
func BenchmarkFigure4(b *testing.B) {
	flwor := Fig4Variants()[7]
	oldQ, err := PrepareWithOptions(flwor, StandardEngineOptions)
	if err != nil {
		b.Fatal(err)
	}
	newQ := MustPrepare(flwor)
	for _, people := range []int{250, 500, 1000} {
		doc := xmarkDoc(b, people)
		b.Run(fmt.Sprintf("no-rewrite/p%d", people), func(b *testing.B) {
			runQuery(b, oldQ, doc, NestedLoop)
		})
		for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
			b.Run(fmt.Sprintf("ttp-%s/p%d", alg.Short(), people), func(b *testing.B) {
				runQuery(b, newQ, doc, alg)
			})
		}
	}
}

// BenchmarkFigure6 regenerates Fig. 6: XMark queries in child form and the
// equivalent descendant form under the three algorithms.
func BenchmarkFigure6(b *testing.B) {
	doc := xmarkDoc(b, 1000)
	for _, pair := range Figure6Queries {
		for _, form := range []struct{ label, src string }{
			{"child", pair.Child}, {"desc", pair.Descendant},
		} {
			q := MustPrepare(form.src)
			for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
				b.Run(fmt.Sprintf("%s/%s/%s", pair.Name, form.label, alg.Short()), func(b *testing.B) {
					runQuery(b, q, doc, alg)
				})
			}
		}
	}
}

// BenchmarkSection53 regenerates the §5.3 table: (/t1[1])^k for k = 5, 10,
// 15 on the 50 000-node depth-15 document.
func BenchmarkSection53(b *testing.B) {
	doc := deepDoc(b)
	for _, k := range []int{5, 10, 15} {
		q := MustPrepare(Section53Query(k))
		for _, alg := range []Algorithm{NestedLoop, Twig, Staircase} {
			b.Run(fmt.Sprintf("k%d/%s", k, alg.Short()), func(b *testing.B) {
				runQuery(b, q, doc, alg)
			})
		}
	}
}

// BenchmarkValidation measures the §5.1 compilation itself: all syntactic
// variants through the full pipeline.
func BenchmarkValidation(b *testing.B) {
	variants := Fig4Variants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			if _, err := Prepare(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompile measures compilation time per phase-2 query shape.
func BenchmarkCompile(b *testing.B) {
	for _, pq := range Figure1Queries {
		b.Run(pq.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(pq.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
