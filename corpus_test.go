package xqtp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xqtp/internal/gen"
	"xqtp/internal/xdm"
)

// genCorpusSources builds a mixed corpus: MemBeR-style and XMark-like
// members interleaved, with per-member seeds and sizes so no two members are
// identical.
func genCorpusSources(n int, seed int64) []CorpusSource {
	out := make([]CorpusSource, n)
	for i := 0; i < n; i++ {
		var root *xdm.Node
		if i%2 == 0 {
			root = gen.MemberRoot(gen.MemberConfig{
				Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 150 + 37*i,
			})
		} else {
			root = gen.XMarkRoot(gen.XMarkConfig{Seed: seed + int64(i), People: 4 + i%7})
		}
		out[i] = CorpusSource{
			URI:  fmt.Sprintf("mem://corpus-%03d.xml", i),
			Data: generatedXML(root, 0),
		}
	}
	return out
}

// corpusDiffQueries is the query set of the corpus differential: root-bound
// paper queries that exercise the pattern algorithms. XMark names are absent
// from the MemBeR members (and vice versa), so the set also exercises the
// name-table skip path.
func corpusDiffQueries() []PaperQuery {
	return []PaperQuery{
		{"person-email", `$input//person[emailaddress]/name`},
		{"interest", `$input//person[profile/interest]/name`},
		{"t01", `$input//t01`},
		{"t01-t02", `$input//t01[t02]`},
		{"bidder", `$input//open_auction[bidder/increase]/current`},
	}
}

// runCorpus runs q over c with workers goroutines under a background
// context.
func runCorpus(c *Corpus, q *Query, alg Algorithm, workers int) (Sequence, error) {
	seq, _, err := c.RunWith(context.Background(), q, alg, RunOptions{Workers: workers})
	return seq, err
}

// A corpus run over a mixed corpus equals the concatenation of per-member
// nested-loop oracle runs, for every set-at-a-time algorithm and the
// chooser — at one worker and at eight.
func TestCorpusDifferential(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(12, 42), 4)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{Staircase, Twig, Auto}
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		// The oracle: one nested-loop run per member, concatenated in corpus
		// order.
		var oracle Sequence
		for i := 0; i < corpus.Len(); i++ {
			part, err := q.Run(corpus.DocumentAt(i), NestedLoop)
			if err != nil {
				t.Fatalf("%s/member-%d/NL: %v", pq.Name, i, err)
			}
			oracle = append(oracle, part...)
		}
		for _, alg := range algs {
			for _, workers := range []int{1, 8} {
				got, err := runCorpus(corpus, q, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", pq.Name, alg, workers, err)
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%s/%v/workers=%d differs from NL oracle: %v", pq.Name, alg, workers, err)
				}
			}
		}
	}
}

// fn:collection() queries — evaluated once over the whole corpus — match the
// concatenation of per-member runs of the equivalent root-bound query, and
// are identical at every worker count.
func TestCollectionFunctionDifferential(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(10, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name       string
		collection string
		perDoc     string
	}{
		{"names", `fn:collection()//person[emailaddress]/name`, `$input//person[emailaddress]/name`},
		{"tags", `fn:collection()//t01[t02]`, `$input//t01[t02]`},
	}
	algs := []Algorithm{NestedLoop, Staircase, Twig, Auto}
	for _, pair := range pairs {
		qc := MustPrepare(pair.collection)
		qd := MustPrepare(pair.perDoc)
		var oracle Sequence
		for i := 0; i < corpus.Len(); i++ {
			part, err := qd.Run(corpus.DocumentAt(i), NestedLoop)
			if err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, part...)
		}
		for _, alg := range algs {
			for _, workers := range []int{1, 8} {
				got, err := runCorpus(corpus, qc, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", pair.name, alg, workers, err)
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%s/%v/workers=%d differs from per-member oracle: %v", pair.name, alg, workers, err)
				}
			}
		}
	}
}

// fn:doc resolves members by URI, both through Corpus.Run and on a member
// Document; unknown URIs and unbound documents fail cleanly.
func TestDocFunction(t *testing.T) {
	corpus, err := LoadCorpus(genCorpusSources(6, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	uri := corpus.URIs()[1] // an XMark member
	q := MustPrepare(fmt.Sprintf(`fn:doc(%q)//person[emailaddress]/name`, uri))
	member, _ := corpus.Document(uri)
	oracle, err := MustPrepare(`$input//person[emailaddress]/name`).Run(member, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpus.Run(q, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameItems(oracle, got); err != nil {
		t.Errorf("doc() through the corpus differs: %v", err)
	}
	// A member Document resolves corpus-wide.
	got, err = q.Run(member, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameItems(oracle, got); err != nil {
		t.Errorf("doc() on a member document differs: %v", err)
	}
	// Unknown URI errors.
	if _, err := corpus.Run(MustPrepare(`fn:doc("mem://nope.xml")//a`), Staircase); err == nil {
		t.Error("doc() of an unknown URI should fail")
	}
	// A standalone document is the degenerate one-document collection.
	solo, err := LoadXMLString(`<doc><a>x</a></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	solo.SetURI("mem://solo.xml")
	seq, err := MustPrepare(`fn:collection()//a`).Run(solo, Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 {
		t.Errorf("collection() on a standalone document: %d items, want 1", len(seq))
	}
	seq, err = MustPrepare(`fn:doc("mem://solo.xml")//a`).Run(solo, Staircase)
	if err != nil || len(seq) != 1 {
		t.Errorf("doc() on a standalone document: %d items, err %v", len(seq), err)
	}
}

// The required-name analysis feeding the corpus skip path: conjunctive
// pattern names are required, aggregates and collection access void the
// claim.
func TestRequiredNamesAnalysis(t *testing.T) {
	reqOf := func(src string) []string {
		q := MustPrepare(src)
		p, err := q.physicalPlan(Staircase)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return p.RequiredNames()
	}
	got := reqOf(`$input//person[emailaddress]/name`)
	for _, want := range []string{"person", "emailaddress", "name"} {
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("RequiredNames missing %q: %v", want, got)
		}
	}
	if got := reqOf(`count($input//person)`); got != nil {
		t.Errorf("count() result can be non-empty on any document; got required names %v", got)
	}
	if got := reqOf(`fn:collection()//person`); got != nil {
		t.Errorf("collection access voids per-document claims; got %v", got)
	}
}

// Concurrent corpus use under -race: many goroutines run queries while
// Extend snapshots grow the corpus; old snapshots keep answering with their
// member set.
func TestCorpusConcurrentExtend(t *testing.T) {
	base, err := LoadCorpus(genCorpusSources(8, 99), 4)
	if err != nil {
		t.Fatal(err)
	}
	q := MustPrepare(`$input//person[emailaddress]/name`)
	oracle, err := base.Run(q, NestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		alg := []Algorithm{Staircase, Twig, Auto}[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := runCorpus(base, q, alg, 4)
				if err != nil {
					t.Errorf("%v during Extend: %v", alg, err)
					return
				}
				if err := sameItems(oracle, got); err != nil {
					t.Errorf("%v during Extend differs: %v", alg, err)
					return
				}
			}
		}()
	}
	grown := base
	for round := 0; round < 4; round++ {
		extra := genCorpusSources(3, int64(1000+100*round))
		for i := range extra {
			extra[i].URI = fmt.Sprintf("mem://extend-%d-%d.xml", round, i)
		}
		next, err := grown.Extend(extra, 2)
		if err != nil {
			t.Fatal(err)
		}
		grown = next
	}
	close(stop)
	wg.Wait()
	if base.Len() != 8 || grown.Len() != 20 {
		t.Fatalf("snapshot sizes: base %d (want 8), grown %d (want 20)", base.Len(), grown.Len())
	}
	// The grown snapshot answers over all members, strictly extending the
	// base result.
	all, err := runCorpus(grown, q, Staircase, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(oracle) {
		t.Fatalf("grown corpus returned fewer items (%d) than its base (%d)", len(all), len(oracle))
	}
	if err := sameItems(oracle, all[:len(oracle)]); err != nil {
		t.Errorf("grown corpus does not extend the base result: %v", err)
	}
	if !strings.HasPrefix(grown.URIs()[8], "mem://extend-") {
		t.Errorf("extended members should follow the base members, got %q at position 8", grown.URIs()[8])
	}
}
