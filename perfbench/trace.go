package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"xqtp"
	"xqtp/internal/algebra"
	"xqtp/internal/compile"
	"xqtp/internal/core"
	"xqtp/internal/optimize"
	"xqtp/internal/parser"
	"xqtp/internal/physical"
	"xqtp/internal/rewrite"
	"xqtp/internal/server"
)

// span is one timed call at a layer boundary. The children of a request
// span run right after its HTTP exchange, against the benchmark's
// in-process mirror, so their intervals follow the parent's instead of
// nesting inside it; Parent records the logical relation.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name, req, parent, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// compilePhases are Prepare's passes in order, plus the physical lowering
// the first run of a plan performs.
var compilePhases = []string{"parse", "normalize", "rewrite", "algebra", "optimize", "lower"}

// replayCompile runs query through the compile pipeline one exported pass
// at a time, in Prepare's order and with Prepare's default options, timing
// each pass as a child of parent. It returns the optimized plan's text,
// which must equal Query.Plan() for the replay to be the pipeline Prepare
// runs.
func replayCompile(tr *tracer, req, parent int, query string, took map[string]time.Duration) (string, error) {
	t := time.Now()
	mark := func(phase string) {
		now := time.Now()
		tr.add("compile."+phase, req, parent, t, now)
		took[phase] += now.Sub(t)
		t = now
	}
	surface, err := parser.Parse(query)
	if err != nil {
		return "", err
	}
	mark("parse")
	normalized, err := core.Normalize(surface, "dot")
	if err != nil {
		return "", err
	}
	mark("normalize")
	singletons := map[string]bool{}
	for _, v := range freeVariables(normalized) {
		singletons[v] = true
	}
	rewritten := rewrite.Rewrite(normalized, rewrite.Options{SingletonVars: singletons})
	mark("rewrite")
	plan, err := compile.Compile(rewritten)
	if err != nil {
		return "", err
	}
	mark("algebra")
	optimized := optimize.Optimize(plan, optimize.Options{SingletonVars: singletons})
	mark("optimize")
	if _, err := physical.Compile(optimized, xqtp.Auto); err != nil {
		return "", err
	}
	mark("lower")
	return algebra.String(optimized), nil
}

// freeVariables lists the free variables of a core expression, which
// Prepare binds as singletons for the rewriter.
func freeVariables(e core.Expr) []string {
	set := map[string]bool{}
	var walk func(core.Expr, map[string]bool)
	with := func(bound map[string]bool, names ...string) map[string]bool {
		out := make(map[string]bool, len(bound)+len(names))
		for k := range bound {
			out[k] = true
		}
		for _, n := range names {
			if n != "" {
				out[n] = true
			}
		}
		return out
	}
	walk = func(e core.Expr, bound map[string]bool) {
		switch x := e.(type) {
		case *core.Var:
			if !bound[x.Name] {
				set[x.Name] = true
			}
			return
		case *core.For:
			walk(x.In, bound)
			b2 := with(bound, x.Var, x.Pos)
			if x.Where != nil {
				walk(x.Where, b2)
			}
			walk(x.Return, b2)
			return
		case *core.Let:
			walk(x.In, bound)
			walk(x.Return, with(bound, x.Var))
			return
		case *core.TypeSwitch:
			walk(x.Input, bound)
			for _, c := range x.Cases {
				walk(c.Body, with(bound, c.Var))
			}
			walk(x.Default, with(bound, x.DefVar))
			return
		}
		for _, c := range core.Children(e) {
			walk(c, bound)
		}
	}
	walk(e, map[string]bool{})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// countSink is the benchmark's own result sink: RunInfo.Rows stays 0 on a
// run with neither deadline nor budget, so rows are counted here.
type countSink struct{ rows int64 }

func (s *countSink) Push(xqtp.Item) error { s.rows++; return nil }

// mirror is the in-process copy of the serving stack the traced run times:
// a server.Server with the workload's configuration over the benchmark's
// own corpora, served on a loopback listener so its handler pays the same
// per-flush socket writes as xqd's, and a plan cache of xqd's size fed the
// same queries, so its hits and misses are xqd's.
type mirror struct {
	srv     *server.Server
	plans   *xqtp.PlanCache
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	conn    *conn
	resp    response
	handler atomic.Int64 // duration of the last ServeHTTP, in ns
	epoch   int
}

func (b *bench) startMirror() (*mirror, error) {
	cfg := server.Config{}
	for _, f := range b.w.flags {
		if f == "-no-result-cache" {
			cfg.NoResultCache = true
		}
	}
	m := &mirror{srv: server.New(cfg), plans: xqtp.NewPlanCache(xqtp.DefaultPlanCacheSize), served: make(chan struct{})}
	for _, c := range b.corpora {
		m.srv.AddCorpus(c.name, c.corpus)
	}
	h := m.srv.Handler()
	m.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		m.handler.Store(int64(time.Since(t)))
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		m.hs.Serve(ln)
		close(m.served)
	}()
	m.conn = newConn(ln.Addr().String())
	return m, nil
}

func (m *mirror) stop() {
	m.conn.close()
	m.hs.Close()
	<-m.served
}

// serve runs one request through the mirror and checks it. It returns the
// response and the time the handler spent.
func (b *bench) serve(m *mirror, r *request) (*response, time.Duration) {
	err := m.conn.do(http.MethodPost, r.path, r.body, &m.resp)
	if err == nil {
		if r.path == "/extend" {
			err = checkExtend(&m.resp, r.batch)
			m.epoch = r.batch
		} else {
			_, err = r.exp.check(&m.resp, m.epoch, m.epoch)
		}
	}
	if err != nil {
		err = fmt.Errorf("in-process: %w", err)
	}
	b.record(r, err)
	return &m.resp, time.Duration(m.handler.Load())
}

// layerTotals accumulates the traced pass's per-request attribution.
type layerTotals struct {
	requests, compiled, engineRuns int
	request, compile, engine       time.Duration
	handler, render, transport     time.Duration
	phases                         map[string]time.Duration
	prepare                        time.Duration
	engineAllocs, serverAllocs     uint64
	rows, rowsServed               int64
	members, skipped               int
	chunks, bytes                  int
	prepHits, prepLookups          uint64
	// Reconciliation over NDJSON requests, whose summary carries xqd's own
	// handler time.
	recRequests          int
	recRequest, recParts time.Duration
	reqLat               []time.Duration
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedRequest sends r to xqd and then replays it against the mirror,
// layer by layer: handler, compile (on a plan-cache miss), engine (on a
// result-cache miss).
func (b *bench) tracedRequest(tr *tracer, m *mirror, c *conn, resp *response, i int, r *request, lt *layerTotals) {
	sum, err := b.send(c, r, resp)
	if err != nil {
		return
	}
	root := tr.add("request", i, -1, resp.sent, resp.last)
	reqDur := resp.last.Sub(resp.sent)
	if r.path == "/extend" {
		b.serve(m, r)
		return
	}
	lt.requests++
	lt.request += reqDur
	lt.reqLat = append(lt.reqLat, reqDur)
	lt.chunks += resp.chunks
	lt.bytes += len(resp.body)
	lt.rowsServed += sum.Rows

	a0 := mallocs()
	t := time.Now()
	mresp, handler := b.serve(m, r)
	tr.add("server.handler", i, root, t, t.Add(handler))
	handlerAllocs := mallocs() - a0
	lt.handler += handler

	// Compile: the mirror plan cache sees every query xqd's does.
	misses := m.plans.Stats().Misses
	t = time.Now()
	q, err := m.plans.Prepare(r.query)
	prep := time.Since(t)
	if err != nil {
		b.record(r, err)
		return
	}
	var compileDur time.Duration
	if m.plans.Stats().Misses > misses {
		cs := tr.add("compile", i, root, t, t.Add(prep))
		lt.compiled++
		lt.prepare += prep
		compileDur = prep
		plan, err := replayCompile(tr, i, cs, r.query, lt.phases)
		if err == nil && plan != q.Plan() {
			err = fmt.Errorf("phase-by-phase replay planned %s, Prepare planned %s", plan, q.Plan())
		}
		b.record(r, err)
	}

	// Engine: only a result-cache miss reaches it.
	var engineDur time.Duration
	var engineAllocs uint64
	if mresp.resultCache != "hit" {
		corpus, _ := m.srv.Corpus(r.corpus)
		sink := &countSink{}
		ps0 := q.PrepStats()
		a0 := mallocs()
		t = time.Now()
		_, info, err := corpus.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{
			Workers: 1, Timeout: 30 * time.Second, MaxRows: r.limit, Sink: sink})
		engineDur = time.Since(t)
		engineAllocs = mallocs() - a0
		ps1 := q.PrepStats()
		if errors.Is(err, xqtp.ErrBudgetExceeded) {
			err = nil // the request's own row limit
		}
		b.record(r, err)
		tr.add("engine", i, root, t, t.Add(engineDur))
		lt.engineRuns++
		lt.engine += engineDur
		lt.engineAllocs += engineAllocs
		lt.rows += sink.rows
		lt.members += info.Members - info.Skipped
		lt.skipped += info.Skipped
		lt.prepHits += ps1.Hits - ps0.Hits
		lt.prepLookups += ps1.Hits - ps0.Hits + ps1.Misses - ps0.Misses
	}
	if handlerAllocs > engineAllocs {
		lt.serverAllocs += handlerAllocs - engineAllocs
	}

	// Attribution: render is what the mirror's handler spent beyond
	// compile and engine, its socket writes included; transport is the
	// exchange beyond xqd's own handler time, which NDJSON summaries report
	// (XML ones do not: the mirror's handler stands in).
	render := handler - engineDur - compileDur
	xqdHandler := handler
	if sum.ElapsedMs >= 0 {
		xqdHandler = time.Duration(sum.ElapsedMs * float64(time.Millisecond))
	}
	transport := reqDur - xqdHandler
	lt.compile += compileDur
	lt.render += render
	lt.transport += transport
	if sum.ElapsedMs >= 0 {
		lt.recRequests++
		lt.recRequest += reqDur
		lt.recParts += compileDur + engineDur + render + transport
	}
}

// Traced-run pass lengths as shares of the measured seconds, and the cap
// on requests in each unloaded pass.
const (
	untracedShare = 0.2
	tracedShare   = 0.45
	loadedShare   = 0.3
	passCap       = 300
)

// runTraced produces the per-layer metrics. After the storage layer is
// timed in-process, xqd is launched and warmed, then three passes run over
// the continuing request sequence: an untraced unloaded pass (baseline
// latency per shape), a traced unloaded pass (every request sent to xqd,
// then replayed layer by layer on the mirror), and a loaded pass at the
// nominal rate (admission wait and generator lag).
func (b *bench) runTraced() (*result, error) {
	w := b.w
	res := &result{valid: true}
	dur := func(share float64) time.Duration { return time.Duration(b.seconds * share * float64(time.Second)) }
	loadedDur := dur(loadedShare)
	if err := b.prepare(2*passCap + int(w.nominal*loadedDur.Seconds())); err != nil {
		return nil, err
	}
	b.corrupt(b.corruptN)
	if err := b.storageMetrics(res); err != nil {
		return nil, err
	}
	m, err := b.startMirror()
	if err != nil {
		return nil, err
	}
	defer m.stop()
	p, setup, err := b.setUp(1)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	for _, r := range b.warm {
		b.serve(m, r)
		// Run each warm-up query once on the mirror's plans too, so the
		// traced engine runs start from the state xqd's warm-up left.
		q, err := m.plans.Prepare(r.query)
		if err != nil {
			return nil, err
		}
		corpus, _ := m.srv.Corpus(r.corpus)
		corpus.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: 1, Sink: &countSink{}})
	}
	m0, err := p.metrics()
	if err != nil {
		return nil, err
	}
	c := newConn(p.addr)
	defer c.close()
	var resp response

	// Pass A: untraced and unloaded; the mirror follows along untimed.
	unloaded := map[string][]time.Duration{}
	var untraced []time.Duration
	end := time.Now().Add(dur(untracedShare))
	for n := 0; n < passCap && time.Now().Before(end); n++ {
		r := b.take(1)[0]
		if _, err := b.send(c, r, &resp); err == nil && r.path == "/query" {
			d := resp.last.Sub(resp.sent)
			untraced = append(untraced, d)
			unloaded[r.shape] = append(unloaded[r.shape], d)
		}
		b.serve(m, r)
		if r.path == "/query" {
			m.plans.Prepare(r.query)
		}
	}

	// Pass B: traced.
	tr := &tracer{t0: time.Now()}
	lt := &layerTotals{phases: map[string]time.Duration{}}
	end = time.Now().Add(dur(tracedShare))
	for n := 0; n < passCap && time.Now().Before(end); n++ {
		b.tracedRequest(tr, m, c, &resp, n, b.take(1)[0], lt)
	}
	c.close()

	// Pass C: loaded, at the nominal rate.
	conns := b.conns(p)
	defer closeAll(conns)
	shed0, _ := p.metrics()
	loaded := b.openLoop(p, conns, w.nominal, loadedDur, 2*w.limit)
	m1, err := p.metrics()
	if err != nil {
		return nil, err
	}
	res.printf("%s", windowLine(loaded, w.limit))
	var waits []time.Duration
	for shape, lats := range loaded.shapeLat {
		base := unloaded[shape]
		if len(base) == 0 {
			continue
		}
		ub := pct(base, 0.5)
		for _, l := range lats {
			waits = append(waits, l-ub)
		}
	}

	if err := tr.write(fmt.Sprintf(".bench_build/reports/%s-seed%d-spans.jsonl", w.name, b.seed)); err != nil {
		return nil, err
	}
	b.layerMetrics(res, lt, m0, m1, shed0)
	res.add("admission.wait_p50_ms", ms(pct(waits, 0.5)), "ms", len(waits))
	res.add("gen.lag_p99_ms", ms(pct(loaded.lag, 0.99)), "ms", len(loaded.lag))
	p50A, p50B := pct(untraced, 0.5), pct(lt.reqLat, 0.5)
	res.add("trace.overhead_pct", 100*ratio(float64(p50B-p50A), float64(p50A)), "%", len(lt.reqLat))
	res.printf("set-up %.3f s (one launch); untraced unloaded p50 %.3f ms (n=%d), traced p50 %.3f ms (n=%d)",
		setup, ms(p50A), len(untraced), ms(p50B), len(lt.reqLat))
	if pct(loaded.lag, 0.99) > genLagLimit {
		res.valid = false
		res.printf("INVALID: generator lag p99 %.2f ms exceeds %v in the loaded pass", ms(pct(loaded.lag, 0.99)), genLagLimit)
	}
	return res, nil
}

// layerMetrics turns the traced pass's totals and xqd's /metrics deltas
// into the per-layer metrics.
func (b *bench) layerMetrics(res *result, lt *layerTotals, m0, m1, shed0 map[string]float64) {
	delta := func(name string) float64 { return m1[name] - m0[name] }
	meanUs := func(d time.Duration, n int) float64 { return ratio(us(d), float64(n)) }
	for _, ph := range compilePhases {
		res.add("compile."+ph+"_us", meanUs(lt.phases[ph], lt.compiled), "us", lt.compiled)
	}
	res.add("compile.prepare_us", meanUs(lt.prepare, lt.compiled), "us", lt.compiled)
	var replay time.Duration
	for _, ph := range compilePhases[:5] {
		replay += lt.phases[ph]
	}
	res.printf("compile cross-check: phases parse..optimize %.1f us vs Prepare %.1f us per compiled request (n=%d)",
		meanUs(replay, lt.compiled), meanUs(lt.prepare, lt.compiled), lt.compiled)

	for _, c := range []struct{ name, prom string }{{"plancache", "plan"}, {"resultcache", "result"}} {
		hits := delta("xqd_" + c.prom + "_cache_hits_total")
		lookups := hits + delta("xqd_"+c.prom+"_cache_misses_total")
		res.add(c.name+".hit_ratio", ratio(hits, lookups), "fraction", int(lookups))
		res.add(c.name+".lookups", lookups, "count", 0)
	}
	res.add("prepcache.hit_ratio", ratio(float64(lt.prepHits), float64(lt.prepLookups)), "fraction", int(lt.prepLookups))
	res.add("prepcache.lookups", float64(lt.prepLookups), "count", 0)
	inval := 0.0
	for _, c := range b.corpora {
		inval += delta(fmt.Sprintf("xqd_corpus_epoch{corpus=%q}", c.name))
	}
	res.add("resultcache.invalidations", inval, "count", 0)

	res.add("engine.run_us", meanUs(lt.engine, lt.engineRuns), "us", lt.engineRuns)
	res.add("engine.allocs_per_req", ratio(float64(lt.engineAllocs), float64(lt.engineRuns)), "count", lt.engineRuns)
	res.add("engine.rows", ratio(float64(lt.rows), float64(lt.engineRuns)), "count", lt.engineRuns)
	res.add("collection.members_run", ratio(float64(lt.members), float64(lt.engineRuns)), "count", lt.engineRuns)
	res.add("collection.members_skipped", ratio(float64(lt.skipped), float64(lt.engineRuns)), "count", lt.engineRuns)

	res.add("server.handler_us", meanUs(lt.handler, lt.requests), "us", lt.requests)
	res.add("server.render_us", meanUs(lt.render, lt.requests), "us", lt.requests)
	res.add("server.allocs_per_row", ratio(float64(lt.serverAllocs), float64(lt.rowsServed)), "count", int(lt.rowsServed))
	res.add("http.transport_us", meanUs(lt.transport, lt.requests), "us", lt.requests)
	res.add("http.chunks_per_req", ratio(float64(lt.chunks), float64(lt.requests)), "count", lt.requests)
	res.add("http.bytes_per_req", ratio(float64(lt.bytes), float64(lt.requests)), "bytes", lt.requests)
	res.add("admission.shed", m1["xqd_shed_total"]-shed0["xqd_shed_total"], "count", 0)

	res.add("trace.request_us", meanUs(lt.request, lt.requests), "us", lt.requests)
	share := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(lt.request)) }
	res.add("trace.share_compile_pct", share(lt.compile), "%", lt.requests)
	res.add("trace.share_engine_pct", share(lt.engine), "%", lt.requests)
	res.add("trace.share_render_pct", share(lt.render), "%", lt.requests)
	res.add("trace.share_transport_pct", share(lt.transport), "%", lt.requests)
	unattributed := lt.recRequest - lt.recParts
	res.add("trace.unattributed_us", meanUs(unattributed, lt.recRequests), "us", lt.recRequests)
	rec := 100 * ratio(float64(lt.recParts-lt.recRequest), float64(lt.recRequest))
	res.add("trace.reconcile_pct", rec, "%", lt.recRequests)
	parts := map[string]time.Duration{"compile": lt.compile, "engine": lt.engine, "render": lt.render, "transport": lt.transport}
	names := []string{"compile", "engine", "render", "transport"}
	slices.SortFunc(names, func(x, y string) int { return int(parts[y] - parts[x]) })
	res.printf("largest share of request time: %s (%.1f%%); compile share of xqd handler time %.1f%%",
		names[0], share(parts[names[0]]), 100*ratio(float64(lt.compile), float64(lt.handler)))
	if lt.recRequests > 0 && (rec > 10 || rec < -10) {
		res.valid = false
		res.printf("INVALID: layer parts sum to %.1f%% off the request latency (limit ±10%%)", rec)
	}
}

// storageMetrics times the storage layer in-process on the workload's own
// corpora: XML ingest, snapshot open, the first query after open, the
// resident share of the mapping, and an extend.
func (b *bench) storageMetrics(res *result) error {
	res.add("ingest.load_mb_s", ratio(float64(b.ingestBytes)/(1<<20), b.ingestTime.Seconds()), "MB/s", 0)
	var open, first, extend time.Duration
	var resident int64
	for _, ci := range b.corpora {
		path := ci.path
		if !ci.snapshot {
			path = ci.path + ".snap"
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := ci.corpus.SaveSnapshot(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		t := time.Now()
		c, err := xqtp.OpenCorpusFile(path)
		if err != nil {
			return err
		}
		open += time.Since(t)
		for _, r := range b.warm {
			if r.corpus != ci.name {
				continue
			}
			q, err := xqtp.Prepare(r.query)
			if err != nil {
				c.Close()
				return err
			}
			t = time.Now()
			if _, _, err := c.RunWith(context.Background(), q, xqtp.Auto, xqtp.RunOptions{Workers: 1, Sink: &countSink{}}); err != nil {
				c.Close()
				return err
			}
			first += time.Since(t)
			break
		}
		if n, ok := c.SnapshotResident(); ok {
			resident += n
		}
		batch := []xqtp.CorpusSource{}
		if len(b.batches) > 0 {
			batch = b.batches[0]
		} else {
			for j := 0; j < extendDocs; j++ {
				batch = append(batch, corpusMember(b.seed, j, fmt.Sprintf("mem://extend-%d.xml", j)))
			}
		}
		t = time.Now()
		grown, err := c.Extend(batch, 1)
		if err != nil {
			c.Close()
			return err
		}
		extend += time.Since(t)
		_ = grown // shares c's mapping; closing c releases both
		c.Close()
	}
	res.add("xmlstore.open_ms", ms(open), "ms", len(b.corpora))
	res.add("xmlstore.first_touch_ms", ms(first), "ms", len(b.corpora))
	res.add("xmlstore.resident_mb", float64(resident)/(1<<20), "MiB", 0)
	res.add("ingest.extend_ms", ms(extend), "ms", len(b.corpora))
	return nil
}
