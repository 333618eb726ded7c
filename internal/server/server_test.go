package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xqtp"
)

// testCorpus builds a small corpus from inline documents.
func testCorpus(t *testing.T, docs ...string) *xqtp.Corpus {
	t.Helper()
	sources := make([]xqtp.CorpusSource, len(docs))
	for i, d := range docs {
		sources[i] = xqtp.CorpusSource{
			URI:  fmt.Sprintf("mem://doc-%d.xml", i),
			Data: []byte(d),
		}
	}
	c, err := xqtp.LoadCorpus(sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// fiveNames is a document with five result rows for $input//person/name.
const fiveNames = `<site><people>` +
	`<person><name>ada</name></person>` +
	`<person><name>grace</name></person>` +
	`<person><name>edsger</name></person>` +
	`<person><name>barbara</name></person>` +
	`<person><name>donald</name></person>` +
	`</people></site>`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.AddCorpus("main", testCorpus(t, fiveNames))
	return s
}

// postQuery sends one POST /query through the handler and returns the
// recorded response.
func postQuery(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// parseNDJSON splits a response into item lines and the summary.
func parseNDJSON(t *testing.T, body string) ([]wireItem, wireSummary) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var items []wireItem
	var sum wireSummary
	for i, line := range lines {
		if i == len(lines)-1 {
			var wrap struct {
				Summary wireSummary `json:"summary"`
			}
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				t.Fatalf("bad summary line %q: %v", line, err)
			}
			sum = wrap.Summary
			continue
		}
		var it wireItem
		if err := json.Unmarshal([]byte(line), &it); err != nil {
			t.Fatalf("bad item line %q: %v", line, err)
		}
		items = append(items, it)
	}
	return items, sum
}

// Request validation: every malformed request maps to its specific status
// code without consuming a worker slot, and the compile error carries the
// compiler's text.
func TestHandleQueryValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name     string
		method   string
		body     string
		wantCode int
		wantSub  string // substring of the response body
	}{
		{"method", http.MethodGet, `{"query": "$input//person"}`, http.StatusMethodNotAllowed, "POST only"},
		{"bad-json", http.MethodPost, `{"query": `, http.StatusBadRequest, "bad request body"},
		{"missing-query", http.MethodPost, `{}`, http.StatusBadRequest, "missing query"},
		{"unknown-corpus", http.MethodPost, `{"query": "$input//a", "corpus": "nope"}`, http.StatusNotFound, `no corpus \"nope\"`},
		{"bad-alg", http.MethodPost, `{"query": "$input//a", "alg": "quantum"}`, http.StatusBadRequest, "quantum"},
		{"stream-alg", http.MethodPost, `{"query": "$input//a", "alg": "stream"}`, http.StatusBadRequest, "stream"},
		{"bad-format", http.MethodPost, `{"query": "$input//a", "format": "csv"}`, http.StatusBadRequest, "csv"},
		{"bad-timeout", http.MethodPost, `{"query": "$input//a", "timeout": "soon"}`, http.StatusBadRequest, "soon"},
		{"compile-error", http.MethodPost, `{"query": "$input//person["}`, http.StatusBadRequest, ""},
		{"too-large", http.MethodPost, `{"query": "$input//a", "corpus": "` + strings.Repeat("x", 300) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/query", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantCode, rec.Body.String())
			}
			if tc.wantSub != "" && !strings.Contains(rec.Body.String(), tc.wantSub) {
				t.Fatalf("body %q does not mention %q", rec.Body.String(), tc.wantSub)
			}
			if tc.name == "compile-error" && len(rec.Body.String()) < 10 {
				t.Fatalf("compile error carries no compiler text: %q", rec.Body.String())
			}
		})
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("validation failures consumed worker slots: inflight = %d", got)
	}
}

// The streamed NDJSON body must agree with a direct engine run: same rows in
// the same order, then an ok summary with the exact row count.
func TestQueryStreamsEngineResult(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postQuery(t, s, `{"query": "$input//person/name", "alg": "sc"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type = %q", ct)
	}
	items, sum := parseNDJSON(t, rec.Body.String())

	corpus, _ := s.Corpus("main")
	q, err := xqtp.Prepare(`$input//person/name`)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := corpus.Run(q, xqtp.Staircase)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(seq) {
		t.Fatalf("streamed %d items, engine returned %d", len(items), len(seq))
	}
	for i, it := range items {
		if want := xqtp.SerializeItem(seq[i]); it.Value != want {
			t.Fatalf("item %d = %q, want %q", i, it.Value, want)
		}
	}
	if sum.Status != statusOK || sum.Rows != int64(len(seq)) || sum.Cached {
		t.Fatalf("summary = %+v, want ok with %d rows, uncached", sum, len(seq))
	}
}

// XML format: a <results> stream of <item> elements closed by a <summary/>
// carrying the same status fields.
func TestQueryXMLFormat(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postQuery(t, s, `{"query": "$input//person/name", "format": "xml"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "xml") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "<results>\n") || !strings.HasSuffix(body, "</results>\n") {
		t.Fatalf("body not wrapped in <results>: %q", body)
	}
	if got := strings.Count(body, "<item"); got != 5 {
		t.Fatalf("%d <item> elements, want 5", got)
	}
	if !strings.Contains(body, `<summary status="ok" rows="5"`) {
		t.Fatalf("missing ok summary: %q", body)
	}
	if !strings.Contains(body, "<name>ada</name>") {
		t.Fatalf("items do not carry node XML: %q", body)
	}
}

// A row budget stops the stream after exactly the limit and reports
// limit-reached; a deadline stop reports timeout. The two must never be
// conflated — limit-reached is deterministic and cacheable, timeout is not.
func TestLimitVersusTimeout(t *testing.T) {
	s := newTestServer(t, Config{})

	rec := postQuery(t, s, `{"query": "$input//person/name", "limit": 2}`)
	items, sum := parseNDJSON(t, rec.Body.String())
	if len(items) != 2 {
		t.Fatalf("limit 2 streamed %d items", len(items))
	}
	if sum.Status != statusLimit {
		t.Fatalf("limit summary status = %q, want %q", sum.Status, statusLimit)
	}

	rec = postQuery(t, s, `{"query": "$input//person/name", "timeout": "1ns"}`)
	_, sum = parseNDJSON(t, rec.Body.String())
	if sum.Status != statusTimeout {
		t.Fatalf("timeout summary status = %q, want %q", sum.Status, statusTimeout)
	}
}

// The server-side row cap applies even when the request asks for more (or
// for no limit at all).
func TestServerRowCap(t *testing.T) {
	s := newTestServer(t, Config{MaxRows: 3})
	rec := postQuery(t, s, `{"query": "$input//person/name", "limit": 100}`)
	items, sum := parseNDJSON(t, rec.Body.String())
	if len(items) != 3 || sum.Status != statusLimit {
		t.Fatalf("server cap 3: streamed %d items, status %q", len(items), sum.Status)
	}
}

// Result-cache lifecycle over HTTP: a repeat of the same request is a hit
// served byte-for-byte with cached=true; an /extend bumps the corpus epoch,
// so the same request misses and sees the new member's rows.
func TestResultCacheHitThenExtendInvalidates(t *testing.T) {
	s := newTestServer(t, Config{})
	reqBody := `{"query": "$input//person/name", "alg": "sc"}`

	first := postQuery(t, s, reqBody)
	if got := first.Header().Get("X-Result-Cache"); got != "miss" {
		t.Fatalf("first request X-Result-Cache = %q, want miss", got)
	}
	firstItems, firstSum := parseNDJSON(t, first.Body.String())

	second := postQuery(t, s, reqBody)
	if got := second.Header().Get("X-Result-Cache"); got != "hit" {
		t.Fatalf("second request X-Result-Cache = %q, want hit", got)
	}
	secondItems, secondSum := parseNDJSON(t, second.Body.String())
	if len(secondItems) != len(firstItems) {
		t.Fatalf("cached replay has %d items, original %d", len(secondItems), len(firstItems))
	}
	for i := range secondItems {
		if secondItems[i] != firstItems[i] {
			t.Fatalf("cached item %d = %+v, original %+v", i, secondItems[i], firstItems[i])
		}
	}
	if !secondSum.Cached || secondSum.Rows != firstSum.Rows {
		t.Fatalf("cached summary = %+v, want cached with %d rows", secondSum, firstSum.Rows)
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}

	ext := httptest.NewRequest(http.MethodPost, "/extend", strings.NewReader(
		`{"corpus": "main", "documents": [{"uri": "mem://extra.xml", "xml": "<site><people><person><name>alan</name></person></people></site>"}]}`))
	extRec := httptest.NewRecorder()
	s.Handler().ServeHTTP(extRec, ext)
	if extRec.Code != http.StatusOK {
		t.Fatalf("extend status = %d: %s", extRec.Code, extRec.Body.String())
	}
	var extResp struct {
		Members int    `json:"members"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(extRec.Body.Bytes(), &extResp); err != nil {
		t.Fatal(err)
	}
	if extResp.Members != 2 || extResp.Epoch != 1 {
		t.Fatalf("extend response = %+v, want 2 members at epoch 1", extResp)
	}

	third := postQuery(t, s, reqBody)
	if got := third.Header().Get("X-Result-Cache"); got != "miss" {
		t.Fatalf("post-extend request X-Result-Cache = %q, want miss (epoch must invalidate)", got)
	}
	thirdItems, thirdSum := parseNDJSON(t, third.Body.String())
	if len(thirdItems) != len(firstItems)+1 {
		t.Fatalf("post-extend streamed %d items, want %d", len(thirdItems), len(firstItems)+1)
	}
	if thirdSum.Cached {
		t.Fatalf("post-extend summary claims cached: %+v", thirdSum)
	}
}

// A request that resolved a corpus before AddCorpus replaced it, and that
// finishes after the replacement, must not leave its rows cached for the
// new corpus — whose epoch restarts at 0, like the old one's.
func TestResultCacheReplacedCorpus(t *testing.T) {
	s := newTestServer(t, Config{})
	reqBody := `{"query": "$input//person/name"}`

	bw := newBlockingWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(reqBody))
		s.Handler().ServeHTTP(bw, req)
	}()
	<-bw.entered // streaming the old corpus's rows
	s.AddCorpus("main", testCorpus(t, `<site><people><person><name>alan</name></person></people></site>`))
	close(bw.release)
	<-done

	rec := postQuery(t, s, reqBody)
	items, sum := parseNDJSON(t, rec.Body.String())
	if len(items) != 1 || sum.Cached {
		t.Fatalf("after replacement: %d items (X-Result-Cache %q, cached=%v), want 1 fresh item",
			len(items), rec.Header().Get("X-Result-Cache"), sum.Cached)
	}
}

// Requests that differ only in worker count share one cache entry (the
// corpus-order merge makes the bytes identical), while a different format or
// budget is a distinct key.
func TestCacheKeyIgnoresWorkers(t *testing.T) {
	s := newTestServer(t, Config{MaxWorkers: 4})
	postQuery(t, s, `{"query": "$input//person/name", "workers": 1}`)
	rec := postQuery(t, s, `{"query": "$input//person/name", "workers": 4}`)
	if got := rec.Header().Get("X-Result-Cache"); got != "hit" {
		t.Fatalf("different worker count missed the cache (X-Result-Cache = %q)", got)
	}
	rec = postQuery(t, s, `{"query": "$input//person/name", "limit": 2}`)
	if got := rec.Header().Get("X-Result-Cache"); got != "miss" {
		t.Fatalf("different limit hit the cache (X-Result-Cache = %q)", got)
	}
}

// An empty corpus name resolves if and only if exactly one corpus is
// registered.
func TestDefaultCorpusResolution(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postQuery(t, s, `{"query": "$input//person/name"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-corpus default failed: %d %s", rec.Code, rec.Body.String())
	}
	s.AddCorpus("other", testCorpus(t, `<r/>`))
	rec = postQuery(t, s, `{"query": "$input//person/name"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("ambiguous empty corpus resolved: %d", rec.Code)
	}
}

// /metrics exposes the request counters, the latency histogram, and all
// three cache counter families in the Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	postQuery(t, s, `{"query": "$input//person/name"}`)
	postQuery(t, s, `{"query": "$input//person/name"}`) // cache hit
	postQuery(t, s, `{"query": "$input//person/name", "limit": 1}`)
	postQuery(t, s, `{"query": "("}`) // 400

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`xqd_requests_total{outcome="ok"} 2`,
		`xqd_requests_total{outcome="limit_reached"} 1`,
		`xqd_requests_total{outcome="bad_request"} 1`,
		`xqd_request_seconds_bucket{le="+Inf"} 3`,
		"xqd_request_seconds_sum",
		`xqd_request_seconds_quantile{q="0.99"}`,
		"xqd_rows_total 11",
		"xqd_result_cache_served_total 1",
		"xqd_plan_cache_hits_total",
		"xqd_prep_cache_entries",
		"xqd_result_cache_hits_total 1",
		"xqd_result_cache_bytes",
		`xqd_corpus_members{corpus="main"} 1`,
		`xqd_corpus_epoch{corpus="main"} 0`,
		"xqd_shed_total 0",
		"xqd_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// The histogram quantile estimator: with all mass in known buckets the
// interpolated quantiles stay inside those buckets' bounds.
func TestMetricsQuantile(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 90; i++ {
		m.observe(2 * time.Millisecond) // bucket (0.001, 0.0025]
	}
	for i := 0; i < 10; i++ {
		m.observe(400 * time.Millisecond) // bucket (0.25, 0.5]
	}
	if p50 := m.quantile(0.5); p50 < 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %v, want within (0.001, 0.0025]", p50)
	}
	if p99 := m.quantile(0.99); p99 < 0.25 || p99 > 0.5 {
		t.Fatalf("p99 = %v, want within (0.25, 0.5]", p99)
	}
}

// The result cache respects both bounds: entry count and total bytes, with
// per-entry oversize bodies never stored.
func TestResultCacheBounds(t *testing.T) {
	rc := newResultCache(2, 1000)
	entry := func(q string, n int) *cacheEntry {
		return &cacheEntry{
			key:    cacheKey{corpus: "c", query: q},
			body:   bytes.Repeat([]byte("x"), n),
			status: statusOK,
		}
	}
	rc.put(entry("a", 50))
	rc.put(entry("b", 50))
	rc.put(entry("c", 50)) // evicts a (LRU)
	if _, ok := rc.get(cacheKey{corpus: "c", query: "a"}); ok {
		t.Fatal("count bound did not evict the oldest entry")
	}
	if _, ok := rc.get(cacheKey{corpus: "c", query: "b"}); !ok {
		t.Fatal("entry b evicted prematurely")
	}

	rc.put(entry("big", 500)) // over maxBytes/8 = 125: never stored
	if _, ok := rc.get(cacheKey{corpus: "c", query: "big"}); ok {
		t.Fatal("oversized entry was stored")
	}

	rc.put(entry("d", 100)) // bytes: b(50)+c(50)+d(100)=200 > ... still under 1000, count evicts b? b was just touched by get, so c goes
	st := rc.stats()
	if st.Size != 2 {
		t.Fatalf("entries = %d, want 2", st.Size)
	}
	rc.invalidateCorpus("c")
	if st := rc.stats(); st.Size != 0 || st.Bytes != 0 {
		t.Fatalf("invalidateCorpus left %d entries, %d bytes", st.Size, st.Bytes)
	}

	// Nil receiver (cache disabled) is a no-op everywhere.
	var nilRC *resultCache
	nilRC.put(entry("x", 1))
	if _, ok := nilRC.get(cacheKey{}); ok {
		t.Fatal("nil cache returned a hit")
	}
	nilRC.invalidateCorpus("c")
}
