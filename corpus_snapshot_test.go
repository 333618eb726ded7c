package xqtp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xqtp/internal/xdm"
)

// equivItems is sameItems across trees: the loaded corpus holds structurally
// identical but distinct trees, so nodes compare by preorder rank and owning
// member (resolved through each corpus's own URI attribution) instead of by
// pointer.
func equivItems(a, b Sequence, uriA, uriB func(Item) (string, bool)) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		an, aIsNode := a[i].(*xdm.Node)
		bn, bIsNode := b[i].(*xdm.Node)
		if aIsNode != bIsNode {
			return fmt.Errorf("item %d: node-ness differs", i)
		}
		if !aIsNode {
			if a[i] != b[i] {
				return fmt.Errorf("item %d: %s vs %s", i, ItemString(a[i]), ItemString(b[i]))
			}
			continue
		}
		if an.Pre != bn.Pre || an.Kind != bn.Kind || an.Name != bn.Name || an.Text != bn.Text {
			return fmt.Errorf("item %d: %s vs %s", i, ItemString(a[i]), ItemString(b[i]))
		}
		ua, oka := uriA(a[i])
		ub, okb := uriB(b[i])
		if oka != okb || ua != ub {
			return fmt.Errorf("item %d: member %q vs %q", i, ua, ub)
		}
	}
	return nil
}

// A corpus loaded from a snapshot must be indistinguishable from the
// freshly-ingested corpus it was saved from: same members, same name table,
// and — the part that matters — identical query results for every pattern
// algorithm, at one worker and at eight. This is the load-path analogue of
// TestCorpusDifferential.
func TestCorpusSnapshotQueryDifferential(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(12, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != fresh.Len() {
		t.Fatalf("loaded %d members, want %d", loaded.Len(), fresh.Len())
	}
	if !reflect.DeepEqual(loaded.URIs(), fresh.URIs()) {
		t.Fatalf("URIs differ:\n  %v\n  %v", loaded.URIs(), fresh.URIs())
	}
	if loaded.NumNodes() != fresh.NumNodes() {
		t.Fatalf("node count %d, want %d", loaded.NumNodes(), fresh.NumNodes())
	}
	algs := []Algorithm{Staircase, Twig, Auto}
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range algs {
			want, err := runCorpus(fresh, q, alg, 1)
			if err != nil {
				t.Fatalf("%s/%v/fresh: %v", pq.Name, alg, err)
			}
			for _, workers := range []int{1, 8} {
				got, err := runCorpus(loaded, q, alg, workers)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d/loaded: %v", pq.Name, alg, workers, err)
				}
				if err := equivItems(want, got, fresh.URIOf, loaded.URIOf); err != nil {
					t.Errorf("%s/%v/workers=%d: loaded corpus differs from fresh: %v",
						pq.Name, alg, workers, err)
				}
			}
		}
	}
}

// Single-document snapshots: save/load through the Document API preserves
// query results and serialization.
func TestDocumentSnapshotRoundTrip(t *testing.T) {
	doc, err := LoadXMLString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.XML() != doc.XML() {
		t.Fatalf("serialization differs:\n  %s\n  %s", doc.XML(), doc2.XML())
	}
	if doc2.NumNodes() != doc.NumNodes() {
		t.Fatalf("node count %d, want %d", doc2.NumNodes(), doc.NumNodes())
	}
	q, err := Prepare(`$input//b[c]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		want, err := q.Run(doc, alg)
		if err != nil {
			t.Fatalf("%v/fresh: %v", alg, err)
		}
		got, err := q.Run(doc2, alg)
		if err != nil {
			t.Fatalf("%v/loaded: %v", alg, err)
		}
		same := func(Item) (string, bool) { return "", true }
		if err := equivItems(want, got, same, same); err != nil {
			t.Errorf("%v: loaded document differs from fresh: %v", alg, err)
		}
	}
}

// Extending a snapshot-loaded corpus works like extending a fresh one (the
// loaded trees participate in the global ID order).
func TestCorpusSnapshotExtend(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(4, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := loaded.Extend([]CorpusSource{
		{URI: "mem://extra.xml", Data: []byte(`<doc><t01><t02/></t01></doc>`)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Len() != 5 {
		t.Fatalf("grown corpus has %d members, want 5", grown.Len())
	}
	q, err := Prepare(`$input//t01[t02]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCorpus(grown, q, Auto, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range res {
		if uri, ok := grown.URIOf(it); ok && uri == "mem://extra.xml" {
			found = true
		}
	}
	if !found {
		t.Fatal("query did not reach the member added after snapshot load")
	}
}

// The file-mapped open is the same corpus again: identical query results,
// identical skip accounting (the deferred members answer the emptiness probe
// from their section directories), and a typed error after Close. This is
// TestCorpusSnapshotQueryDifferential over OpenCorpusFile.
func TestCorpusFileQueryDifferential(t *testing.T) {
	fresh, err := LoadCorpus(genCorpusSources(12, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != fresh.Len() {
		t.Fatalf("loaded %d members, want %d", loaded.Len(), fresh.Len())
	}
	// Directory-backed accounting before any member load.
	if loaded.NumNodes() != fresh.NumNodes() {
		t.Fatalf("node count %d, want %d", loaded.NumNodes(), fresh.NumNodes())
	}
	algs := []Algorithm{Staircase, Twig, Auto}
	ctx := context.Background()
	for _, pq := range corpusDiffQueries() {
		q, err := Prepare(pq.Query)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, alg := range algs {
			want, wantStats, err := fresh.RunWith(ctx, q, alg, RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%v/fresh: %v", pq.Name, alg, err)
			}
			for _, workers := range []int{1, 8} {
				got, gotStats, err := loaded.RunWith(ctx, q, alg, RunOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%v/workers=%d/mapped: %v", pq.Name, alg, workers, err)
				}
				if err := equivItems(want, got, fresh.URIOf, loaded.URIOf); err != nil {
					t.Errorf("%s/%v/workers=%d: mapped corpus differs from fresh: %v",
						pq.Name, alg, workers, err)
				}
				// The deferred skip test must prove exactly what the loaded
				// one proves — a deferred member silently skipped when its
				// stream is non-empty would drop results.
				if gotStats.Skipped != wantStats.Skipped {
					t.Errorf("%s/%v/workers=%d: skipped %d members, fresh skipped %d",
						pq.Name, alg, workers, gotStats.Skipped, wantStats.Skipped)
				}
			}
		}
	}

	if err := loaded.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := loaded.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	q, err := Prepare(`$input//doc`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Run(q, Auto); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// Single-document file mapping through the public Document API.
func TestDocumentOpenSnapshotFile(t *testing.T) {
	doc, err := LoadXMLString(`<a id="1"><b x="y"><c>hello</c></b><c>world</c><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetURI("mem://one.xml")
	var buf bytes.Buffer
	if err := doc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xqts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	doc2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.URI() != doc.URI() {
		t.Fatalf("URI = %q, want %q", doc2.URI(), doc.URI())
	}
	if doc2.XML() != doc.XML() {
		t.Fatalf("serialization differs:\n  %s\n  %s", doc.XML(), doc2.XML())
	}
	q, err := Prepare(`$input//b[c]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{NestedLoop, Staircase, Twig, Auto} {
		want, err := q.Run(doc, alg)
		if err != nil {
			t.Fatalf("%v/fresh: %v", alg, err)
		}
		got, err := q.Run(doc2, alg)
		if err != nil {
			t.Fatalf("%v/mapped: %v", alg, err)
		}
		same := func(Item) (string, bool) { return "", true }
		if err := equivItems(want, got, same, same); err != nil {
			t.Errorf("%v: mapped document differs from fresh: %v", alg, err)
		}
	}
	if err := doc2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := doc2.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := q.Run(doc2, Auto); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if _, err := q.RunWithVars(doc2, Auto, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunWithVars after Close = %v, want ErrClosed", err)
	}
	// The Auto explain consults the document's symbols and streams, which
	// the closed mapping no longer backs.
	if _, err := q.ExplainPhysical(context.Background(), Auto, doc2); !errors.Is(err, ErrClosed) {
		t.Fatalf("ExplainPhysical after Close = %v, want ErrClosed", err)
	}
	// A truncated single-document snapshot is rejected at open (the member
	// is validated eagerly on this path).
	trunc := filepath.Join(t.TempDir(), "trunc.xqts")
	if err := os.WriteFile(trunc, buf.Bytes()[:buf.Len()-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(trunc); err == nil {
		t.Fatal("open of a truncated document snapshot should fail")
	}
}
