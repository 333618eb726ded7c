package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"xqtp"
)

// corpusInfo is one corpus xqd serves, with the benchmark's own in-process
// copy of it: the oracle's input and, in the traced run, the mirror the
// per-layer calls run against.
type corpusInfo struct {
	name, path string
	snapshot   bool
	corpus     *xqtp.Corpus
	bytes      int64
	nodes      int
	members    int
}

// bench is one run of one workload: generated inputs, the request
// sequence with its oracle answers, and the run's failure accounting.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	dir     string // generated inputs, relative to the checkout root
	xqdBin  string
	rng     *rand.Rand
	corpora []*corpusInfo

	distinct map[string]*request
	order    []*request // distinct query requests, first-use order
	warm     []*request // one request per distinct shape
	seq      []*request // the measured sequence
	cursor   int
	batches  [][]xqtp.CorpusSource // extend batch n is batches[n-1]

	templates   []adhocTemplate
	block       []int // the rest of the current shuffled block (nextInBlock)
	zipfQueries []string
	zipf        *rand.Zipf

	// Corpus epochs as the generator sees them: extends run one at a
	// time, so a read overlapping one may observe either epoch.
	extMu        sync.Mutex
	epochStarted atomic.Int64
	epochDone    atomic.Int64

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	// XML ingest of the inputs, for ingest.load_mb_s.
	ingestBytes int64
	ingestTime  time.Duration

	proc atomic.Pointer[xqdProc] // the running xqd, for the interrupt handler
	args []string                // its command line

	prov     map[string]any // provenance recorded in the report
	corruptN int            // self-test: expected results to corrupt
}

func newBench(w *workload, seed int64, seconds float64, xqdBin string) (*bench, error) {
	dir := fmt.Sprintf(".bench_build/data/%s-%d-%d", w.name, seed, os.Getpid())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		w: w, seed: seed, seconds: seconds, dir: dir, xqdBin: xqdBin,
		rng:      rand.New(rand.NewSource(seed)),
		distinct: map[string]*request{},
		prov:     map[string]any{},
	}, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.dir) }

func (b *bench) loadXMLCorpus(name, path string) error {
	t := time.Now()
	c, err := xqtp.LoadCorpusFiles([]string{path}, 1)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	b.ingestTime += time.Since(t)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.ingestBytes += st.Size()
	b.corpora = append(b.corpora, &corpusInfo{name: name, path: path, corpus: c,
		bytes: st.Size(), nodes: c.NumNodes(), members: c.Len()})
	return nil
}

// saveSnapshot ingests sources and writes them as a corpus snapshot file.
func (b *bench) saveSnapshot(name string, sources []xqtp.CorpusSource) (string, error) {
	for _, s := range sources {
		b.ingestBytes += int64(len(s.Data))
	}
	t := time.Now()
	c, err := xqtp.LoadCorpus(sources, runtime.NumCPU())
	if err != nil {
		return "", err
	}
	b.ingestTime += time.Since(t)
	defer c.Close()
	path := b.dir + "/" + name
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := c.SaveSnapshot(f); err != nil {
		f.Close()
		return "", err
	}
	return path, syncClose(f)
}

// syncClose flushes a generated input to disk before closing it, so the
// kernel's deferred writeback of it does not fall into a measured window.
func syncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (b *bench) openSnapshotCorpus(name, path string) error {
	c, err := xqtp.OpenCorpusFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.corpora = append(b.corpora, &corpusInfo{name: name, path: path, snapshot: true, corpus: c,
		bytes: st.Size(), nodes: c.NumNodes(), members: c.Len()})
	return nil
}

func (b *bench) corpus(name string) *corpusInfo {
	for _, c := range b.corpora {
		if c.name == name {
			return c
		}
	}
	panic("no corpus " + name) // workloads only name corpora they built
}

// prepare generates the inputs and n requests of measured sequence, and
// computes every distinct request's expected answer.
func (b *bench) prepare(n int) error {
	t := time.Now()
	if err := b.w.build(b); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		b.seq = append(b.seq, b.w.next(b, i))
	}
	b.prov["inputs_s"] = time.Since(t).Seconds()
	t = time.Now()
	if err := b.computeOracle(); err != nil {
		return err
	}
	b.prov["oracle_s"] = time.Since(t).Seconds()
	b.prov["distinct_queries"] = len(b.order)
	return nil
}

// computeOracle evaluates every distinct query request with the
// NestedLoop kernel: once on the corpus as loaded and once on each extend
// batch, on a pool of one goroutine per CPU.
func (b *bench) computeOracle() error {
	var batchCorpora []*xqtp.Corpus
	for _, batch := range b.batches {
		c, err := xqtp.LoadCorpus(batch, 1)
		if err != nil {
			return err
		}
		batchCorpora = append(batchCorpora, c)
	}
	work := make(chan *request, len(b.order))
	for _, r := range b.order {
		work <- r
	}
	close(work)
	errc := make(chan error, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				e := &expected{format: r.format}
				items, rows, status, err := oracle(b.corpus(r.corpus).corpus, r.query, r.format, r.limit)
				if err != nil {
					errc <- err
					return
				}
				e.status = status
				e.segs, e.rows = append(e.segs, items), append(e.rows, rows)
				for _, bc := range batchCorpora {
					items, rows, _, err := oracle(bc, r.query, r.format, r.limit)
					if err != nil {
						errc <- err
						return
					}
					e.segs, e.rows = append(e.segs, items), append(e.rows, rows)
				}
				r.exp = e
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return err
	}
	return b.checkConcatenation()
}

// checkConcatenation proves the per-batch oracle on the fully extended
// mirror: for every warm-up query, a NestedLoop run over the corpus with
// all batches applied must answer with the base items followed by each
// batch's.
func (b *bench) checkConcatenation() error {
	if len(b.batches) == 0 {
		return nil
	}
	for _, ci := range b.corpora {
		c := ci.corpus
		for _, batch := range b.batches {
			grown, err := c.Extend(batch, 1)
			if err != nil {
				return err
			}
			c = grown
		}
		for _, r := range b.warm {
			if r.corpus != ci.name {
				continue
			}
			items, rows, _, err := oracle(c, r.query, r.format, r.limit)
			if err != nil {
				return err
			}
			last := len(r.exp.segs) - 1
			if rows != r.exp.rowsAt(last) || !hasSegs(items, r.exp.segs) {
				return fmt.Errorf("oracle: %q on the extended mirror is not base + batch results", r.query)
			}
		}
	}
	return nil
}

// dropCorpora releases the in-process corpora once the oracle has run, so
// the generator's heap is small and its garbage collections short.
func (b *bench) dropCorpora() {
	for _, c := range b.corpora {
		c.corpus.Close()
		c.corpus = nil
	}
	runtime.GC()
	debug.FreeOSMemory()
}

// corrupt alters n expected results, the first requests sent that have an
// item to alter, for the self-test that a wrong answer is reported.
func (b *bench) corrupt(n int) {
	for _, r := range b.order {
		if n == 0 {
			return
		}
		if r.exp != nil && r.exp.corrupt() {
			n--
		}
	}
}

// take returns the next n requests of the measured sequence.
func (b *bench) take(n int) []*request {
	if b.cursor+n > len(b.seq) {
		panic(fmt.Sprintf("request sequence exhausted: %d+%d > %d", b.cursor, n, len(b.seq)))
	}
	r := b.seq[b.cursor : b.cursor+n]
	b.cursor += n
	return r
}

// send issues one request on c and checks the answer. Every call counts as
// one attempt; a transport error, a non-200, a shed, a timeout or error
// summary, or a result that differs from the oracle counts as a failure.
func (b *bench) send(c *conn, r *request, resp *response) (summary, error) {
	var sum summary
	var err error
	if r.path == "/extend" {
		b.extMu.Lock()
		b.epochStarted.Store(int64(r.batch))
		err = c.do("POST", "/extend", r.body, resp)
		if err == nil {
			err = checkExtend(resp, r.batch)
		}
		b.epochDone.Store(int64(r.batch))
		b.extMu.Unlock()
	} else {
		lo := int(b.epochDone.Load())
		err = c.do("POST", "/query", r.body, resp)
		hi := int(b.epochStarted.Load())
		if err == nil {
			sum, err = r.exp.check(resp, lo, hi)
		}
	}
	b.record(r, err)
	return sum, err
}

// record counts one checked attempt at r, and err, when not nil, as a
// failure; the first few failures are kept for the report.
func (b *bench) record(r *request, err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf("%s %.120s: %v", r.path, r.query, err))
	}
}

func checkExtend(resp *response, batch int) error {
	if resp.status != 200 {
		return fmt.Errorf("HTTP %d: %.200s", resp.status, resp.body)
	}
	var out struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("extend response: %w", err)
	}
	if out.Epoch != batch {
		return fmt.Errorf("extend: epoch %d, want %d", out.Epoch, batch)
	}
	return nil
}

// launch starts xqd on the workload's corpora and flags and waits for
// /healthz.
func (b *bench) launch() (*xqdProc, error) {
	args := append([]string(nil), b.w.flags...)
	for _, c := range b.corpora {
		args = append(args, "-corpus", c.name+"="+c.path)
	}
	p, err := startXQD(b.xqdBin, args, b.dir+"/xqd.log")
	if err != nil {
		return nil, err
	}
	if err := p.waitHealthy(); err != nil {
		p.stop()
		return nil, err
	}
	b.args = p.args
	b.proc.Store(p)
	return p, nil
}

// warmUp sends every distinct request shape once, in order, on one
// connection, and resets the epoch counters xqd starts from.
func (b *bench) warmUp(p *xqdProc) {
	b.epochStarted.Store(0)
	b.epochDone.Store(0)
	c := newConn(p.addr)
	defer c.close()
	var resp response
	for _, r := range b.warm {
		b.send(c, r, &resp)
	}
}

// setUp launches xqd and warms it, setupRepeats times, and returns the
// last, still running, process with the median set-up time.
func (b *bench) setUp(repeats int) (*xqdProc, float64, error) {
	var p *xqdProc
	var times []float64
	for k := 0; k < repeats; k++ {
		if p != nil {
			p.stop()
		}
		t := time.Now()
		var err error
		if p, err = b.launch(); err != nil {
			return nil, 0, err
		}
		b.warmUp(p)
		times = append(times, time.Since(t).Seconds())
	}
	b.prov["setup_s_each"] = append([]float64(nil), times...)
	return p, median(times), nil
}
