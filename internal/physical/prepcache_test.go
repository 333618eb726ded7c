package physical

import (
	"fmt"
	"sync"
	"testing"

	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

func prepDoc(t *testing.T, tag string) *xmlstore.Index {
	t.Helper()
	ix, err := xmlstore.IngestString(fmt.Sprintf("<doc><%s><b/></%s></doc>", tag, tag))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func prepPattern(tag string) *pattern.Pattern {
	s := pattern.NewStep(xdm.AxisDescendant, xdm.NameTest(tag))
	s.Out = "v"
	return pattern.New("dot", s)
}

func TestPrepCacheHitsAndEviction(t *testing.T) {
	pc := NewPrepCacheSize(3)
	pat := prepPattern("a")
	docs := make([]*xmlstore.Index, 5)
	for i := range docs {
		docs[i] = prepDoc(t, "a")
	}
	// Warm: every document misses once.
	for _, ix := range docs[:3] {
		if _, err := pc.Prepared(join.Staircase, ix, pat); err != nil {
			t.Fatal(err)
		}
	}
	if st := pc.Stats(); st.Size != 3 || st.Misses != 3 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("after warm: %+v", st)
	}
	// Re-requesting cached keys hits without growing.
	for _, ix := range docs[:3] {
		if _, err := pc.Prepared(join.Staircase, ix, pat); err != nil {
			t.Fatal(err)
		}
	}
	if st := pc.Stats(); st.Size != 3 || st.Hits != 3 {
		t.Fatalf("after re-request: %+v", st)
	}
	// Two more documents overflow the cap and evict the two least recently
	// used (docs[0], docs[1]).
	for _, ix := range docs[3:] {
		if _, err := pc.Prepared(join.Staircase, ix, pat); err != nil {
			t.Fatal(err)
		}
	}
	if st := pc.Stats(); st.Size != 3 || st.Evictions != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	// The evicted key re-prepares (a miss, displacing the now-oldest
	// docs[2]), while the most recent key still hits.
	before := pc.Stats()
	if _, err := pc.Prepared(join.Staircase, docs[0], pat); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Misses != before.Misses+1 {
		t.Fatalf("evicted key should re-prepare: %+v", st)
	}
	if _, err := pc.Prepared(join.Staircase, docs[4], pat); err != nil {
		t.Fatal(err)
	}
	if st := pc.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("retained key should hit: %+v", st)
	}
}

func TestPrepCacheDistinctKeys(t *testing.T) {
	pc := NewPrepCache()
	ix := prepDoc(t, "a")
	pat := prepPattern("a")
	p1, err := pc.Prepared(join.Staircase, ix, pat)
	if err != nil {
		t.Fatal(err)
	}
	// Same key returns the same preparation; a different algorithm or
	// document is a different key.
	p2, err := pc.Prepared(join.Staircase, ix, pat)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same key should share one preparation")
	}
	p3, err := pc.Prepared(join.Twig, ix, pat)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different algorithms must not share a preparation")
	}
	if st := pc.Stats(); st.Size != 2 || st.Capacity != DefaultPrepCacheSize {
		t.Fatalf("stats: %+v", st)
	}
}

// Concurrent lookups across a churning key set, run under -race: the LRU
// mutations (map, list, counters) must be fully synchronized, and every
// caller for one key must observe a usable preparation.
func TestPrepCacheConcurrent(t *testing.T) {
	pc := NewPrepCacheSize(8) // smaller than the working set, so eviction churns
	pats := []*pattern.Pattern{prepPattern("a"), prepPattern("b")}
	docs := make([]*xmlstore.Index, 6)
	for i := range docs {
		docs[i] = prepDoc(t, "a")
	}
	algs := []join.Algorithm{join.NestedLoop, join.Staircase, join.Twig}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix := docs[(g+i)%len(docs)]
				pat := pats[i%len(pats)]
				alg := algs[(g+i)%len(algs)]
				p, err := pc.Prepared(alg, ix, pat)
				if err != nil {
					errs <- err
					return
				}
				if p == nil {
					errs <- fmt.Errorf("nil preparation")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := pc.Stats()
	if st.Size > 8 {
		t.Fatalf("cache exceeded its cap: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("churning working set should evict: %+v", st)
	}
}
