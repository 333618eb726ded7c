// Package server is the network serving tier over the xqtp engine: an HTTP
// query endpoint that amortizes one compiled plan across millions of
// requests. POST /query streams results as NDJSON or XML, each request
// running under an execution budget derived from both the client's ask and
// the server's caps; around the engine sit admission control (a bounded
// worker pool with a bounded wait queue — overload sheds with 429 instead of
// queueing unboundedly), a bounded LRU result cache keyed by (query, corpus
// name, corpus registration) so Extend and AddCorpus invalidate by
// construction, and a /metrics endpoint in the Prometheus text format built
// from the engine's own cache counters plus the server's latency histogram.
//
// The package deliberately sits above the public xqtp surface: everything it
// needs of the engine — the plan cache, Corpus.RunWith streaming with
// budgets, Corpus.Epoch — is exported engine API, so the server is a client
// of the engine, not a backdoor into it. Its one internal import is
// internal/lru, the generic container behind its result cache.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"xqtp"
)

// Config sizes the server. The zero value of any field falls back to the
// default noted on it, so Config{} is a usable single-tenant configuration.
type Config struct {
	// MaxConcurrent is the worker-pool size: queries evaluating at once
	// (default: one per available CPU).
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a worker slot beyond
	// MaxConcurrent (default: 4× MaxConcurrent). Everything past the queue
	// sheds with 429.
	MaxQueue int
	// QueueWait bounds how long a queued request waits before shedding
	// (default: 2s).
	QueueWait time.Duration
	// MaxBodyBytes caps the request body size (default: 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout applies when a request asks for no timeout
	// (default: 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the timeout a request may ask for (default: 2m).
	MaxTimeout time.Duration
	// MaxRows / MaxBytes, when positive, cap every request's row/byte budget
	// regardless of what it asked for (default: unbounded).
	MaxRows  int64
	MaxBytes int64
	// MaxWorkers caps the per-request evaluation parallelism a client may
	// request (default: one per available CPU). The default per-request
	// worker count is 1: cross-request parallelism comes from the pool.
	MaxWorkers int
	// ResultCacheEntries / ResultCacheBytes bound the result cache
	// (defaults: 1024 entries, 64 MiB). NoResultCache disables it.
	ResultCacheEntries int
	ResultCacheBytes   int64
	NoResultCache      bool
	// PlanCacheSize bounds the compiled-query cache (default:
	// xqtp.DefaultPlanCacheSize).
	PlanCacheSize int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ResultCacheEntries <= 0 {
		c.ResultCacheEntries = 1024
	}
	if c.ResultCacheBytes <= 0 {
		c.ResultCacheBytes = 64 << 20
	}
	return c
}

// Server is one serving process: a registry of named corpora, the shared
// plan cache, admission control, the result cache, and the metrics set. All
// methods are safe for concurrent use.
type Server struct {
	cfg     Config
	plans   *xqtp.PlanCache
	adm     *admission
	cache   *resultCache // nil when disabled
	metrics *metrics

	mu      sync.RWMutex
	corpora map[string]registration
	lastGen uint64 // the generation of the latest registration

	// base is canceled to hard-stop every in-flight evaluation once the
	// graceful-shutdown drain deadline has passed; each request's execution
	// context is tied to it.
	base       context.Context
	baseCancel context.CancelFunc

	hs       *http.Server
	inflight sync.WaitGroup
}

// New builds a server with no corpora; register them with AddCorpus.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		plans:   xqtp.NewPlanCache(cfg.PlanCacheSize),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
		metrics: newMetrics(),
		corpora: make(map[string]registration),
	}
	if !cfg.NoResultCache {
		s.cache = newResultCache(cfg.ResultCacheEntries, cfg.ResultCacheBytes)
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	s.hs = &http.Server{Handler: s.Handler()}
	return s
}

// registration is one corpus as registered under a name. gen is unique per
// registration across the server's life, so a result cached against one
// registration can never be served for another — not after an Extend, and
// not after AddCorpus replaces the name with an unrelated corpus whose epoch
// starts over at 0.
type registration struct {
	c   *xqtp.Corpus
	gen uint64
}

// register installs c under name with a fresh generation; s.mu is held.
func (s *Server) register(name string, c *xqtp.Corpus) {
	s.lastGen++
	s.corpora[name] = registration{c: c, gen: s.lastGen}
}

// AddCorpus registers (or replaces) a corpus under name. Replacing drops the
// name's result-cache entries.
func (s *Server) AddCorpus(name string, c *xqtp.Corpus) {
	s.mu.Lock()
	s.register(name, c)
	s.mu.Unlock()
	s.cache.invalidateCorpus(name)
}

// Corpus returns the corpus registered under name.
func (s *Server) Corpus(name string) (*xqtp.Corpus, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.corpora[name]
	return r.c, ok
}

// resolveCorpus looks up a request's corpus registration: an empty name
// resolves when exactly one corpus is registered (the single-tenant
// convenience).
func (s *Server) resolveCorpus(name string) (registration, string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" && len(s.corpora) == 1 {
		for n, r := range s.corpora {
			return r, n, true
		}
	}
	r, ok := s.corpora[name]
	return r, name, ok
}

// ExtendCorpus ingests additional sources into the named corpus and swaps
// the grown snapshot into the registry. In-flight queries keep the corpus
// they resolved; new requests see the new membership, and the new
// registration's generation retires every cached result of the old one.
func (s *Server) ExtendCorpus(name string, sources []xqtp.CorpusSource, workers int) (*xqtp.Corpus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.corpora[name]
	if !ok {
		return nil, fmt.Errorf("no corpus %q", name)
	}
	grown, err := cur.c.Extend(sources, workers)
	if err != nil {
		return nil, err
	}
	s.register(name, grown)
	// The generation key already unreaches the old entries; sweep them so
	// their bytes return to the cache budget immediately.
	s.cache.invalidateCorpus(name)
	return grown, nil
}

// CacheStats returns the result-cache counters.
func (s *Server) CacheStats() xqtp.CacheStats { return s.cache.stats() }

// InFlight returns the number of requests holding worker slots.
func (s *Server) InFlight() int { return s.adm.InFlight() }

// QueueDepth returns the number of requests waiting for a slot.
func (s *Server) QueueDepth() int { return s.adm.QueueDepth() }

// Handler returns the server's routing handler:
//
//	POST /query    evaluate a query, streaming NDJSON or XML
//	POST /extend   grow a corpus; invalidates its cached results
//	GET  /corpora  list registered corpora (name, members, epoch)
//	GET  /metrics  Prometheus text-format metrics
//	GET  /healthz  liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/extend", s.handleExtend)
	mux.HandleFunc("/corpora", s.handleCorpora)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a Shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown drains the server: the listener closes immediately, in-flight
// requests run to completion, and once ctx expires (the drain deadline) the
// remaining evaluations are cut through the engine's cancellation protocol —
// their handlers observe ErrCanceled, write their summary, and unwind. A
// drain-deadline stop is still a clean shutdown: Shutdown returns nil either
// way, reserving errors for transport failures.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	// Whether or not the drain completed, cut any remaining evaluations so
	// nothing outlives the server (no-op when the drain got everything).
	s.baseCancel()
	if err == nil {
		return nil
	}
	// Drain deadline passed: the canceled handlers need a moment to stream
	// their summaries and return; then force-close whatever connections are
	// left.
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	s.hs.Close()
	return nil
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Query is the XQuery expression (required).
	Query string `json:"query"`
	// Corpus names the target corpus; may be empty when exactly one corpus
	// is registered.
	Corpus string `json:"corpus"`
	// Alg picks the tree-pattern algorithm: nl, sc, twig, auto
	// (default auto).
	Alg string `json:"alg"`
	// Workers caps this request's evaluation parallelism (default 1,
	// clamped to the server's MaxWorkers).
	Workers int `json:"workers"`
	// Limit / MaxBytes bound the result (0: only the server caps apply).
	Limit    int64 `json:"limit"`
	MaxBytes int64 `json:"max_bytes"`
	// Timeout is a Go duration string ("250ms", "5s"); empty means the
	// server default, and the server's MaxTimeout caps it either way.
	Timeout string `json:"timeout"`
	// Format selects the stream encoding: ndjson (default) or xml.
	Format string `json:"format"`
}

// wireSummary is the terminal object of every query response: the last
// NDJSON line ({"summary": {...}}), or the <summary/> element closing an XML
// stream. Status distinguishes how the stream ended: ok, limit-reached,
// timeout, canceled, or error.
type wireSummary struct {
	Status    string  `json:"status"`
	Rows      int64   `json:"rows"`
	Bytes     int64   `json:"bytes"`
	Members   int     `json:"members,omitempty"`
	Skipped   int     `json:"skipped,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Cached    bool    `json:"cached"`
	Error     string  `json:"error,omitempty"`
}

const (
	statusOK       = "ok"
	statusLimit    = "limit-reached"
	statusTimeout  = "timeout"
	statusCanceled = "canceled"
	statusError    = "error"
)

// handleQuery is the serving hot path. The order of the checks is the
// production story: validate cheaply, answer from the result cache without
// taking a worker slot, and only then pass admission and touch the engine.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	start := time.Now()
	if r.Method != http.MethodPost {
		s.metrics.refuse(outMethod)
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.refuse(outTooLarge)
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.metrics.refuse(outBadRequest)
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Query == "" {
		s.metrics.refuse(outBadRequest)
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	reg, corpusName, ok := s.resolveCorpus(req.Corpus)
	if !ok {
		s.metrics.refuse(outNotFound)
		writeError(w, http.StatusNotFound, fmt.Sprintf("no corpus %q", req.Corpus))
		return
	}
	corpus := reg.c
	algName := req.Alg
	if algName == "" {
		algName = "auto"
	}
	alg, err := xqtp.ParseAlgorithm(algName)
	if err != nil {
		s.metrics.refuse(outBadRequest)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	format := req.Format
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "xml" {
		s.metrics.refuse(outBadRequest)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (ndjson or xml)", req.Format))
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			s.metrics.refuse(outBadRequest)
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", req.Timeout))
			return
		}
		timeout = d
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	maxRows := capBudget(req.Limit, s.cfg.MaxRows)
	maxBytes := capBudget(req.MaxBytes, s.cfg.MaxBytes)
	workers := req.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}

	// The compile is cheap to verify before admission (plan-cache hit on
	// every repeat), and a compile error must be a 400, not a consumed
	// worker slot.
	q, err := s.plans.Prepare(req.Query)
	if err != nil {
		s.metrics.refuse(outBadRequest)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	key := cacheKey{
		corpus: corpusName,
		gen:    reg.gen,
		query:  req.Query,
		alg:    alg.String(),
		format: format,
		rows:   maxRows,
		bytes:  maxBytes,
	}
	if e, ok := s.cache.get(key); ok {
		s.metrics.cacheServed.Add(1)
		w.Header().Set("X-Result-Cache", "hit")
		st := newStreamer(w, format, corpus, 0)
		st.writeRaw(e.body)
		st.writeSummary(wireSummary{
			Status:    e.status,
			Rows:      e.info.Rows,
			Bytes:     e.info.Bytes,
			Members:   e.info.Members,
			Skipped:   e.info.Skipped,
			ElapsedMs: msSince(start),
			Cached:    true,
		})
		s.metrics.record(outcomeOf(e.status), time.Since(start), e.info.Rows, e.info.Bytes)
		return
	}
	w.Header().Set("X-Result-Cache", "miss")

	release, err := s.adm.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errShed) {
			s.metrics.refuse(outShed)
			w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfter()))
			writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		// The client gave up while queued; nothing useful to write.
		s.metrics.refuse(outCanceled)
		return
	}
	defer release()

	// The run stops when the client disconnects, when the request deadline
	// passes, or when the server's drain deadline cuts the base context.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.base, cancel)
	defer stopAfter()
	if s.base.Err() != nil {
		// Already drained: AfterFunc fires asynchronously, so cancel here to
		// guarantee the run observes it before its first checkpoint.
		cancel()
	}

	capture := int64(0)
	if s.cache != nil {
		capture = s.cache.perEntry
	}
	st := newStreamer(w, format, corpus, capture)
	_, info, runErr := corpus.RunWith(ctx, q, alg, xqtp.RunOptions{
		Workers:  workers,
		Timeout:  timeout,
		MaxRows:  maxRows,
		MaxBytes: maxBytes,
		Sink:     st,
	})

	status := classify(runErr)
	if status == statusError && !st.wrote {
		// Nothing streamed yet: a real evaluation error can still be a clean
		// HTTP error instead of a 200 with an error summary.
		s.metrics.record(outError, time.Since(start), 0, 0)
		writeError(w, http.StatusInternalServerError, runErr.Error())
		return
	}
	sum := wireSummary{
		Status:    status,
		Rows:      info.Rows,
		Bytes:     info.Bytes,
		Members:   info.Members,
		Skipped:   info.Skipped,
		ElapsedMs: msSince(start),
	}
	if status == statusError {
		sum.Error = runErr.Error()
	}
	st.writeSummary(sum)
	if (status == statusOK || status == statusLimit) && st.captured() {
		// Only deterministic outcomes are cached: a timeout's prefix depends
		// on wall clock, so replaying it would serve one slow moment forever.
		s.cache.put(&cacheEntry{key: key, body: st.capture, info: info, status: status})
	}
	s.metrics.record(outcomeOf(status), time.Since(start), info.Rows, info.Bytes)
}

// classify maps a RunWith error to the wire status.
func classify(err error) string {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, xqtp.ErrBudgetExceeded):
		return statusLimit
	case errors.Is(err, context.DeadlineExceeded):
		return statusTimeout
	case errors.Is(err, xqtp.ErrCanceled):
		return statusCanceled
	default:
		return statusError
	}
}

func outcomeOf(status string) outcome {
	switch status {
	case statusOK:
		return outOK
	case statusLimit:
		return outLimit
	case statusTimeout:
		return outTimeout
	case statusCanceled:
		return outCanceled
	default:
		return outError
	}
}

// capBudget combines the client's ask with the server cap: the smaller
// positive bound wins; zero means unbounded only when the server itself has
// no cap.
func capBudget(asked, serverCap int64) int64 {
	if asked < 0 {
		asked = 0
	}
	if serverCap <= 0 {
		return asked
	}
	if asked == 0 || asked > serverCap {
		return serverCap
	}
	return asked
}

// extendRequest is the POST /extend body.
type extendRequest struct {
	Corpus    string `json:"corpus"`
	Workers   int    `json:"workers"`
	Documents []struct {
		URI string `json:"uri"`
		XML string `json:"xml"`
	} `json:"documents"`
}

func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req extendRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Documents) == 0 {
		writeError(w, http.StatusBadRequest, "no documents")
		return
	}
	sources := make([]xqtp.CorpusSource, len(req.Documents))
	for i, d := range req.Documents {
		if d.URI == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("document %d has no uri", i))
			return
		}
		sources[i] = xqtp.CorpusSource{URI: d.URI, Data: []byte(d.XML)}
	}
	name := req.Corpus
	if _, resolved, ok := s.resolveCorpus(name); ok {
		name = resolved
	}
	grown, err := s.ExtendCorpus(name, sources, req.Workers)
	if err != nil {
		if _, ok := s.Corpus(name); !ok {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":  name,
		"members": grown.Len(),
		"epoch":   grown.Epoch(),
	})
}

func (s *Server) handleCorpora(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type corpusInfo struct {
		Name    string `json:"name"`
		Members int    `json:"members"`
		Epoch   uint64 `json:"epoch"`
		Nodes   int    `json:"nodes"`
	}
	s.mu.RLock()
	out := make([]corpusInfo, 0, len(s.corpora))
	for name, r := range s.corpora {
		out = append(out, corpusInfo{Name: name, Members: r.c.Len(), Epoch: r.c.Epoch(), Nodes: r.c.NumNodes()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the Prometheus text format from stdlib pieces only:
// the server's own counters plus the plan cache's and its queries'
// prepared-join cache stats — no client library.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w)

	fmt.Fprintf(w, "# HELP xqd_inflight Requests currently holding worker slots.\n")
	fmt.Fprintf(w, "# TYPE xqd_inflight gauge\n")
	fmt.Fprintf(w, "xqd_inflight %d\n", s.adm.InFlight())
	fmt.Fprintf(w, "# HELP xqd_queue_depth Requests waiting for a worker slot.\n")
	fmt.Fprintf(w, "# TYPE xqd_queue_depth gauge\n")
	fmt.Fprintf(w, "xqd_queue_depth %d\n", s.adm.QueueDepth())
	fmt.Fprintf(w, "# HELP xqd_shed_total Requests refused by admission control.\n")
	fmt.Fprintf(w, "# TYPE xqd_shed_total counter\n")
	fmt.Fprintf(w, "xqd_shed_total %d\n", s.adm.Shed())

	writeCacheCounters(w, "plan", "Compiled-query plan cache", s.plans.Stats())
	writeCacheCounters(w, "prep", "Prepared-join caches aggregated over cached queries", s.plans.PrepStats())
	cs := s.cache.stats()
	writeCacheCounters(w, "result", "Rendered-result cache", cs)
	fmt.Fprintf(w, "# HELP xqd_result_cache_bytes Bytes held by the result cache.\n")
	fmt.Fprintf(w, "# TYPE xqd_result_cache_bytes gauge\n")
	fmt.Fprintf(w, "xqd_result_cache_bytes %d\n", cs.Bytes)

	s.mu.RLock()
	names := make([]string, 0, len(s.corpora))
	for name := range s.corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP xqd_corpus_members Member documents per corpus.\n")
	fmt.Fprintf(w, "# TYPE xqd_corpus_members gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "xqd_corpus_members{corpus=%q} %d\n", name, s.corpora[name].c.Len())
	}
	fmt.Fprintf(w, "# HELP xqd_corpus_epoch Extension epoch per corpus.\n")
	fmt.Fprintf(w, "# TYPE xqd_corpus_epoch gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "xqd_corpus_epoch{corpus=%q} %d\n", name, s.corpora[name].c.Epoch())
	}
	s.mu.RUnlock()
}

// writeCacheCounters emits one cache's hit/miss/eviction/size metrics under
// xqd_<kind>_cache_*.
func writeCacheCounters(w io.Writer, kind, help string, st xqtp.CacheStats) {
	fmt.Fprintf(w, "# HELP xqd_%s_cache_hits_total %s: lookups served from cache.\n", kind, help)
	fmt.Fprintf(w, "# TYPE xqd_%s_cache_hits_total counter\n", kind)
	fmt.Fprintf(w, "xqd_%s_cache_hits_total %d\n", kind, st.Hits)
	fmt.Fprintf(w, "# TYPE xqd_%s_cache_misses_total counter\n", kind)
	fmt.Fprintf(w, "xqd_%s_cache_misses_total %d\n", kind, st.Misses)
	fmt.Fprintf(w, "# TYPE xqd_%s_cache_evictions_total counter\n", kind)
	fmt.Fprintf(w, "xqd_%s_cache_evictions_total %d\n", kind, st.Evictions)
	fmt.Fprintf(w, "# TYPE xqd_%s_cache_entries gauge\n", kind)
	fmt.Fprintf(w, "xqd_%s_cache_entries %d\n", kind, st.Size)
	fmt.Fprintf(w, "# TYPE xqd_%s_cache_capacity gauge\n", kind)
	fmt.Fprintf(w, "xqd_%s_cache_capacity %d\n", kind, st.Capacity)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
