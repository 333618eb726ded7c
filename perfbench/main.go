// Command perfbench is the repository benchmark: it drives the real cmd/xqd
// binary over loopback HTTP with an open-loop generator and reports
// end-to-end metrics per workload, or, with -trace 1, a per-layer breakdown
// timed around calls into each layer's exported functions.
//
// Usage (from the repository root, after building xqd into
// .bench_build/bin; perfbench/run.sh does both):
//
//	perfbench -workload twig-count -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. samples is the count a timing rests on
// (0 where the number is not a statistic over samples).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type result struct {
	metrics []metric
	lines   []string // human-readable detail printed before the metrics
	valid   bool
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times a run launches and warms xqd; setup_s is
// the median.
const setupRepeats = 5

// nominalShare is the part of the measured seconds spent at the nominal
// rate; the rest runs at twice that rate.
const nominalShare = 0.8

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed: inputs and request sequence derive from it")
		seconds = flag.Float64("seconds", 25, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
		corrupt = flag.Int("corrupt", 0, "self-test: corrupt this many expected results before the run")
		xqdBin  = flag.String("xqd", ".bench_build/bin/xqd", "xqd binary under test")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(*xqdBin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: xqd binary: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b, err := newBench(w, *seed, *seconds, *xqdBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.cleanup()
	go func() {
		// An interrupted run still stops xqd and removes its inputs.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		if p := b.proc.Load(); p != nil {
			p.stop()
		}
		b.cleanup()
		os.Exit(130)
	}()
	b.corruptN = *corrupt
	var res *result
	if *trace == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runE2E()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := b.failed.Load() == 0
	b.print(os.Stdout, res, *trace, correct)
	if !correct {
		return 1
	}
	return 0
}

// runE2E measures the end-to-end metrics with tracing off: set-up time,
// latency and time to first byte at the nominal rate, then the ladder's
// second rate for the highest sustained rate, and xqd's CPU per request
// over both windows and peak RSS.
func (b *bench) runE2E() (*result, error) {
	w := b.w
	res := &result{valid: true}
	nomDur := time.Duration(b.seconds * nominalShare * float64(time.Second))
	rungDur := time.Duration(b.seconds*float64(time.Second)) - nomDur
	if err := b.prepare(int(w.nominal*nomDur.Seconds()) + int(2*w.nominal*rungDur.Seconds())); err != nil {
		return nil, err
	}
	b.corrupt(b.corruptN)
	b.dropCorpora()
	p, setup, err := b.setUp(setupRepeats)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	conns := b.conns(p)
	defer closeAll(conns)

	grace := 2 * w.limit
	nom := b.openLoop(p, conns, w.nominal, nomDur, grace)
	res.printf("%s", windowLine(nom, w.limit))
	cpu, done := nom.cpu, nom.done
	sustained := 0.0
	if nom.sustained(w.limit) {
		sustained = nom.throughput()
		time.Sleep(200 * time.Millisecond) // let the nominal window's tail drain
		win := b.openLoop(p, conns, 2*w.nominal, rungDur, grace)
		res.printf("%s", windowLine(win, w.limit))
		cpu, done = cpu+win.cpu, done+win.done
		if win.sustained(w.limit) {
			sustained = win.throughput()
		}
	}
	hwm, err := p.status("VmHWM")
	if err != nil {
		return nil, err
	}
	lagP99 := pct(nom.lag, 0.99)
	if lagP99 > genLagLimit {
		res.valid = false
		res.printf("INVALID: generator lag p99 %.2f ms exceeds %v at the nominal rate", ms(lagP99), genLagLimit)
	}
	res.add("setup_s", setup, "s", setupRepeats)
	p50, shapes := nom.shapeMedian()
	res.add("latency_p50_ms", p50, "ms", len(nom.lat))
	res.add("sustained_qps", sustained, "req/s", 0)
	res.add("cpu_ms_per_req", ratio(ms(cpu), float64(done)), "ms", done)
	res.add("peak_rss_mb", float64(hwm)/(1<<20), "MiB", 0)
	// Reported, not gated: on a shared 2-CPU host the spread of these
	// between runs exceeds any usable regression bound.
	res.printf("latency_p90_ms %.3f ms, latency_p99_ms %.3f ms, ttfb_p50_ms %.3f ms, ttfb_p90_ms %.3f ms, ttfb_p99_ms %.3f ms (n=%d, median of %d-request slices)",
		nom.quantile(nom.lat, 0.90), nom.quantile(nom.lat, 0.99), nom.quantile(nom.ttfb, 0.50),
		nom.quantile(nom.ttfb, 0.90), nom.quantile(nom.ttfb, 0.99), len(nom.lat), sliceSamples)
	res.printf("gen.lag_p99_ms %.3f ms (n=%d)", ms(lagP99), len(nom.lag))
	res.printf("latency_p50_ms is the geometric mean of the median latencies of %d request shapes; slice p50 %.3f ms",
		shapes, nom.quantile(nom.lat, 0.50))
	return res, nil
}

// genLagLimit is how late the generator may dispatch (p99) before a run is
// marked invalid because the generator, not xqd, fell behind. Scheduler
// jitter alone reaches about 5 ms p99 when xqd and the generator share two
// CPUs.
const genLagLimit = 10 * time.Millisecond

// conns opens one keep-alive connection per CPU: the generator never has
// more requests in flight than there are CPUs.
func (b *bench) conns(p *xqdProc) []*conn {
	cs := make([]*conn, runtime.NumCPU())
	for i := range cs {
		cs[i] = newConn(p.addr)
	}
	return cs
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

func windowLine(w *window, limit time.Duration) string {
	verdict := "sustained"
	if !w.sustained(limit) {
		verdict = "NOT sustained"
	}
	return fmt.Sprintf("window %.0f req/s x %.1fs: scheduled %d done %d failed %d backlog %d; p50 %.2f ms p99 %.2f ms (median of %d-request slices; limit %v); %.1f req/s; gen lag p99 %.2f ms; %s",
		w.rate, w.dur.Seconds(), w.n, w.done, w.failed, w.backlog,
		w.quantile(w.lat, 0.5), w.quantile(w.lat, 0.99), sliceSamples, limit, w.throughput(), ms(pct(w.lag, 0.99)), verdict)
}

// print writes the human-readable report, saves it with the provenance as
// JSON under .bench_build/reports, and ends with the one-line result.
func (b *bench) print(out io.Writer, res *result, trace int, correct bool) {
	prov := b.provenance()
	prov["trace"] = trace
	prov["valid"] = res.valid
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s source=%s\n",
		b.w.name, b.seed, trace, b.seconds, prov["nproc"], prov["gomaxprocs"], prov["go"], prov["commit"], prov["source_sha256"])
	for _, c := range b.corpora {
		fmt.Fprintf(out, "corpus %s: %s, %d bytes, %d nodes, %d members\n", c.name, c.path, c.bytes, c.nodes, c.members)
	}
	fmt.Fprintf(out, "xqd %s\n", strings.Join(b.args, " "))
	fmt.Fprintf(out, "offered rates: nominal %g req/s, ladder %g %g req/s, p99 limit %v, %d connections\n",
		b.w.nominal, b.w.nominal, 2*b.w.nominal, b.w.limit, runtime.NumCPU())
	for _, l := range res.lines {
		fmt.Fprintln(out, l)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	fmt.Fprintf(out, "error_ratio %.6f fraction (%d of %d failed)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	for _, e := range b.errs {
		fmt.Fprintf(out, "failure: %s\n", e)
	}
	metrics := map[string]any{}
	jm := map[string]map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%-28s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		jm[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
	}
	if !res.valid {
		fmt.Fprintln(out, "run INVALID (see above)")
	}
	report := map[string]any{"provenance": prov, "metrics": metrics, "detail": res.lines,
		"attempted": attempted, "failed": failed, "failures": b.errs, "correct": correct}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		dir := ".bench_build/reports"
		if os.MkdirAll(dir, 0o755) == nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.seed, trace))
			if err := os.WriteFile(path, data, 0o644); err == nil {
				fmt.Fprintf(out, "report: %s\n", path)
			}
		}
	}
	line, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": jm})
	fmt.Fprintf(out, "%s\n", line)
}

// provenance records what every number depends on: CPU count, Go version,
// source revision, corpora and the xqd command line.
func (b *bench) provenance() map[string]any {
	p := map[string]any{}
	for k, v := range b.prov {
		p[k] = v
	}
	p["workload"] = b.w.name
	p["seed"] = b.seed
	p["seconds"] = b.seconds
	p["nproc"] = runtime.NumCPU()
	p["gomaxprocs"] = runtime.GOMAXPROCS(0)
	p["go"] = runtime.Version()
	p["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	p["commit"] = gitCommit()
	p["source_sha256"] = sourceDigest(".")
	p["xqd_args"] = b.args
	p["nominal_rate"] = b.w.nominal
	p["ladder_rates"] = []float64{b.w.nominal, 2 * b.w.nominal}
	p["p99_limit_ms"] = ms(b.w.limit)
	p["connections"] = runtime.NumCPU()
	var cs []map[string]any
	for _, c := range b.corpora {
		cs = append(cs, map[string]any{"name": c.name, "path": c.path, "snapshot": c.snapshot,
			"bytes": c.bytes, "nodes": c.nodes, "members": c.members})
	}
	p["corpora"] = cs
	return p
}

// gitCommit is HEAD's hash, read from .git in the working directory, or
// "none" outside a git checkout (sourceDigest identifies the source either
// way). It reads the files itself: running git would search parent
// directories and the user's configuration.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), so a report names the exact code it measured even
// outside git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
