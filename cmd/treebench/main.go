// Command treebench regenerates the paper's evaluation: the §5.1 plan
// validation, Fig. 4, Table 1 (QE1–QE6), Fig. 6, and the §5.3 positional
// chains, printing the same rows and series the paper reports, plus the
// serving, ingest, corpus, optimizer and snapshot experiments. Experiments
// with a report write it with -json in the one schema cmd/benchdiff reads.
//
// Usage:
//
//	treebench -exp all            # every experiment at paper scale
//	treebench -exp table1 -quick  # one experiment at reduced scale
//	treebench -exp table1 -json BENCH_table1.json  # per-cell ns/allocs/bytes
//	treebench -exp table1 -algs nl,sc,auto         # choose the measured algorithms
//	treebench -exp serve -json BENCH_serve.json -cpus 1,2,4  # serving QPS
//	treebench -exp ingest -json BENCH_ingest.json  # parse throughput fast vs std
//	treebench -exp collection -json BENCH_collection.json  # corpus ingest MB/s + fan-out QPS
//	treebench -exp optimizer -json BENCH_optimizer.json  # cost-model est vs act + member skips
//	treebench -exp snapshot -json BENCH_snapshot.json  # mmap cold open + paging vs read-all
//
// A per-experiment flag (-json, -algs, -cpus, -clients) given to an
// experiment that does not read it is an error (exit 2).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"xqtp"
	"xqtp/internal/bench"
)

// experiment is one -exp value: its driver and the per-experiment flags it
// reads. Drivers without a report return nil.
type experiment struct {
	run   func(io.Writer, bench.Options) (*bench.Report, error)
	flags []string
}

func noReport(f func(io.Writer, bench.Options) error) func(io.Writer, bench.Options) (*bench.Report, error) {
	return func(w io.Writer, o bench.Options) (*bench.Report, error) { return nil, f(w, o) }
}

var experiments = map[string]experiment{
	"validate":   {run: noReport(func(w io.Writer, _ bench.Options) error { return bench.Validation(w) })},
	"fig4":       {run: noReport(bench.Figure4)},
	"table1":     {run: bench.Table1, flags: []string{"json", "algs"}},
	"fig6":       {run: noReport(bench.Figure6), flags: []string{"algs"}},
	"sec53":      {run: noReport(bench.Section53)},
	"serve":      {run: bench.Serve, flags: []string{"json", "cpus", "clients"}},
	"ingest":     {run: bench.Ingest, flags: []string{"json"}},
	"collection": {run: bench.Collection, flags: []string{"json"}},
	"optimizer":  {run: bench.Optimizer, flags: []string{"json"}},
	"snapshot":   {run: bench.Snapshot, flags: []string{"json"}},
	"all":        {run: noReport(bench.All), flags: []string{"algs"}},
}

// perExperimentFlags are the flags only some experiments read.
var perExperimentFlags = []string{"json", "algs", "cpus", "clients"}

// checkFlags rejects a per-experiment flag that was set for an experiment
// that does not read it, instead of silently ignoring it.
func checkFlags(exp string, e experiment, set map[string]bool) error {
	for _, name := range perExperimentFlags {
		if set[name] && !slices.Contains(e.flags, name) {
			return fmt.Errorf("-%s is not read by -exp %s", name, exp)
		}
	}
	return nil
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "treebench:", err)
	os.Exit(2)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: validate, fig4, table1, fig6, sec53, serve, ingest, collection, optimizer, snapshot, all")
		quick    = flag.Bool("quick", false, "reduced document sizes for a fast run")
		seed     = flag.Int64("seed", 1, "generator seed")
		repeats  = flag.Int("repeats", 3, "timed runs per measurement (median reported)")
		jsonPath = flag.String("json", "", "write the report as JSON to this file (table1, serve, ingest, collection, optimizer, snapshot)")
		cpusFlag = flag.String("cpus", "", "comma-separated GOMAXPROCS settings to measure (serve only, e.g. 1,2,4)")
		clients  = flag.String("clients", "", "comma-separated HTTP client counts for the serve experiment (default 1,4,16; quick 1,4)")
		algsFlag = flag.String("algs", "", "comma-separated algorithms for table1/fig6/all (nl, sc, twig, auto; default nl,twig,sc)")
	)
	flag.Parse()

	e, ok := experiments[*exp]
	if !ok {
		usageError(fmt.Errorf("unknown experiment %q", *exp))
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*exp, e, set); err != nil {
		usageError(err)
	}

	opts := bench.DefaultOptions()
	if *quick {
		opts = bench.QuickOptions()
	}
	opts.Seed = *seed
	opts.Repeats = *repeats
	var err error
	if *cpusFlag != "" {
		if opts.Procs, err = parseCounts("cpus", *cpusFlag); err != nil {
			usageError(err)
		}
	}
	if *clients != "" {
		if opts.Load.Clients, err = parseCounts("clients", *clients); err != nil {
			usageError(err)
		}
	}
	if *algsFlag != "" {
		for _, part := range strings.Split(*algsFlag, ",") {
			alg, err := xqtp.ParseAlgorithm(strings.TrimSpace(part))
			if err != nil {
				usageError(err)
			}
			opts.Algorithms = append(opts.Algorithms, alg)
		}
	}

	// An interrupt abandons the sweep at the next between-cell checkpoint
	// instead of grinding through the remaining measurements; a second
	// interrupt (after ctx is done) kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	report, err := e.run(w, opts)
	if err == nil && *jsonPath != "" {
		if err = report.WriteFile(*jsonPath); err == nil {
			fmt.Fprintf(w, "(report written to %s)\n", *jsonPath)
		}
	}
	if err != nil {
		w.Flush()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "treebench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "treebench:", err)
		os.Exit(1)
	}
}
