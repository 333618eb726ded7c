package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xqtp"
	"xqtp/internal/server"
)

// LoadOptions shapes the HTTP rows of the serve experiment.
type LoadOptions struct {
	// People scales the single-member XMark corpus the server loads.
	People int
	// Clients are the concurrency levels to sweep (closed loop: each client
	// has exactly one request outstanding).
	Clients []int
	// CellDuration is the measured window per cell after warmup.
	CellDuration time.Duration
}

// httpLoadAlgorithms are the algorithms measured with the result cache off.
var httpLoadAlgorithms = []string{"sc", "auto"}

// httpLoad measures the network serving tier end to end: it starts the
// real *server.Server on a loopback listener, then drives it with
// closed-loop HTTP clients issuing the Fig. 6 child-form XMark queries
// round-robin as POST /query NDJSON requests. Each cell fixes (algorithm,
// client count) with the result cache off; one final cell repeats the
// largest client count with the cache on, bounding what the cache is worth
// when the working set repeats. Latency percentiles are computed from the
// sorted per-request samples, not a histogram.
func httpLoad(w io.Writer, opts Options) ([]Cell, error) {
	load := opts.Load
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	doc := xqtp.NewXMarkDocument(opts.Seed, load.People)
	corpus, err := xqtp.LoadCorpus([]xqtp.CorpusSource{
		{URI: "mem://xmark.xml", Data: []byte(doc.XML())},
	}, 1)
	if err != nil {
		return nil, err
	}
	defer corpus.Close()

	queries := make([]string, 0, len(xqtp.Figure6Queries))
	for _, pair := range xqtp.Figure6Queries {
		queries = append(queries, pair.Child)
	}
	maxClients := slices.Max(load.Clients)

	fmt.Fprintf(w, "\nHTTP serving: %d mixed XMark queries over POST /query (NDJSON), closed loop\n\n", len(queries))
	fmt.Fprintf(w, "%-6s %-8s %-7s %-9s %-9s %-9s %-9s %-8s\n",
		"alg", "clients", "cache", "qps", "p50ms", "p95ms", "p99ms", "reqs")

	var cells []Cell
	run := func(alg string, clients int, noCache bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cell, err := runLoadCell(ctx, corpus, queries, alg, clients, noCache, load.CellDuration)
		if err != nil {
			return err
		}
		cell.Labels["xmark_people"] = strconv.Itoa(load.People)
		cell.Labels["queries"] = "fig6-child"
		cells = append(cells, cell)
		m := cell.Metrics
		fmt.Fprintf(w, "%-6s %-8d %-7s %-9.0f %-9.2f %-9.2f %-9.2f %-8.0f\n",
			alg, clients, cell.Labels["result_cache"], m["qps"],
			m["p50_ms"], m["p95_ms"], m["p99_ms"], m["requests"])
		return nil
	}
	for _, alg := range httpLoadAlgorithms {
		for _, clients := range load.Clients {
			if err := run(alg, clients, true); err != nil {
				return cells, err
			}
		}
	}
	// The cache-on cell: same workload, so after one warm pass every request
	// is a cache hit — the ceiling of what epoch-keyed result caching buys.
	if err := run("auto", maxClients, false); err != nil {
		return cells, err
	}
	return cells, nil
}

// runLoadCell measures one (algorithm, clients, cache) cell: a fresh server
// on a loopback listener, closed-loop clients, latencies from every request
// in the measured window.
func runLoadCell(ctx context.Context, corpus *xqtp.Corpus, queries []string, alg string, clients int, noCache bool, d time.Duration) (Cell, error) {
	cache := "on"
	if noCache {
		cache = "off"
	}
	cell := Cell{Labels: map[string]string{
		"alg":          alg,
		"clients":      strconv.Itoa(clients),
		"result_cache": cache,
	}}

	// A fresh server per cell keeps the cells independent: no carried-over
	// cache contents or metrics. Admission is sized to the client count so a
	// closed loop never sheds; a 429 therefore flags a real bug and fails
	// the cell (doLoadRequest).
	s := server.New(server.Config{
		MaxConcurrent: clients,
		MaxQueue:      clients,
		NoResultCache: noCache,
	})
	s.AddCorpus("xmark", corpus)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cell, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		s.Serve(ln)
	}()
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(shCtx)
		<-serveDone
	}()

	url := "http://" + ln.Addr().String() + "/query"
	transport := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(loadRequest{Query: q, Corpus: "xmark", Alg: alg})
		if err != nil {
			return cell, err
		}
		bodies[i] = b
	}

	// Warmup: one pass over the workload compiles the plans (and, cache on,
	// populates the result cache) outside the measured window.
	for _, b := range bodies {
		if _, err := doLoadRequest(ctx, client, url, b); err != nil {
			return cell, fmt.Errorf("warmup: %w", err)
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rows      int64
		firstErr  error
	)
	var next atomic.Uint64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			var localRows int64
			for time.Now().Before(deadline) && ctx.Err() == nil {
				b := bodies[int(next.Add(1))%len(bodies)]
				start := time.Now()
				n, err := doLoadRequest(ctx, client, url, b)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(start))
				localRows += n
			}
			mu.Lock()
			latencies = append(latencies, local...)
			rows += localRows
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return cell, firstErr
	}
	if err := ctx.Err(); err != nil {
		return cell, err
	}
	if len(latencies) == 0 {
		return cell, fmt.Errorf("load cell alg=%s clients=%d: no requests completed", alg, clients)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	// Closed-loop throughput: clients / mean latency.
	cell.Metrics = map[string]float64{
		"requests":   float64(len(latencies)),
		"qps":        float64(clients) * float64(len(latencies)) / total.Seconds(),
		"p50_ms":     pct(0.50),
		"p95_ms":     pct(0.95),
		"p99_ms":     pct(0.99),
		"rows":       float64(rows),
		"cache_hits": float64(s.CacheStats().Hits),
	}
	return cell, nil
}

// loadRequest and loadSummary are the client's view of the POST /query
// wire format: the request fields the load generator sets, and the summary
// line that ends every NDJSON stream.
type loadRequest struct {
	Query  string `json:"query"`
	Corpus string `json:"corpus"`
	Alg    string `json:"alg"`
}

type loadSummary struct {
	Status string `json:"status"`
	Rows   int64  `json:"rows"`
	Error  string `json:"error,omitempty"`
}

// doLoadRequest issues one POST /query and drains the NDJSON stream,
// returning the row count from the summary line. Any non-200 status — a 429
// shed included — fails the request.
func doLoadRequest(ctx context.Context, client *http.Client, url string, body []byte) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	last := lines[len(lines)-1]
	var sum struct {
		Summary loadSummary `json:"summary"`
	}
	if err := json.Unmarshal(last, &sum); err != nil {
		return 0, fmt.Errorf("bad summary line %q: %w", last, err)
	}
	if sum.Summary.Status != "ok" && sum.Summary.Status != "limit-reached" {
		return 0, fmt.Errorf("query ended %s: %s", sum.Summary.Status, sum.Summary.Error)
	}
	return sum.Summary.Rows, nil
}
