// Command treebench regenerates the paper's evaluation: the §5.1 plan
// validation, Fig. 4, Table 1 (QE1–QE6), Fig. 6, and the §5.3 positional
// chains, printing the same rows and series the paper reports.
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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xqtp"
	"xqtp/internal/server"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: validate, fig4, table1, fig6, sec53, serve, ingest, collection, optimizer, snapshot, all")
		quick    = flag.Bool("quick", false, "reduced document sizes for a fast run")
		seed     = flag.Int64("seed", 1, "generator seed")
		repeats  = flag.Int("repeats", 3, "timed runs per measurement (median reported)")
		jsonPath = flag.String("json", "", "write the report as JSON to this file (table1 and serve)")
		cpusFlag = flag.String("cpus", "", "comma-separated GOMAXPROCS settings to measure (serve only, e.g. 1,2,4)")
		clients  = flag.String("clients", "", "comma-separated HTTP client counts for the serve experiment (default 1,4,16; quick 1,4)")
		algsFlag = flag.String("algs", "", "comma-separated algorithms for table1/fig6 (nl, sc, twig, auto; default nl,twig,sc)")
	)
	flag.Parse()

	var cpus []int
	if *cpusFlag != "" {
		for _, part := range strings.Split(*cpusFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "treebench: bad -cpus entry %q\n", part)
				os.Exit(2)
			}
			cpus = append(cpus, n)
		}
	}

	// An interrupt abandons the sweep at the next between-cell checkpoint
	// instead of grinding through the remaining measurements; a second
	// interrupt (after ctx is done) kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := xqtp.DefaultExperimentOptions()
	if *quick {
		opts = xqtp.QuickExperimentOptions()
	}
	opts.Seed = *seed
	opts.Repeats = *repeats
	opts.Context = ctx
	if *algsFlag != "" {
		for _, part := range strings.Split(*algsFlag, ",") {
			alg, err := xqtp.ParseAlgorithm(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "treebench: %v\n", err)
				os.Exit(2)
			}
			opts.Algorithms = append(opts.Algorithms, alg)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	var err error
	switch *exp {
	case "validate":
		err = xqtp.RunValidation(w)
	case "fig4":
		err = xqtp.RunFigure4(w, opts)
	case "table1":
		err = xqtp.RunTable1(w, opts, *jsonPath)
	case "fig6":
		err = xqtp.RunFigure6(w, opts)
	case "sec53":
		err = xqtp.RunSection53(w, opts)
	case "serve":
		err = runServeWithHTTP(w, opts, *jsonPath, cpus, *clients, *quick)
	case "ingest":
		err = xqtp.RunIngest(w, opts, *jsonPath)
	case "collection":
		err = xqtp.RunCollection(w, opts, *jsonPath)
	case "optimizer":
		err = xqtp.RunOptimizer(w, opts, *jsonPath)
	case "snapshot":
		err = xqtp.RunSnapshot(w, opts, *jsonPath)
	case "all":
		err = xqtp.RunAll(w, opts)
	default:
		fmt.Fprintf(os.Stderr, "treebench: unknown experiment %q\n", *exp)
		os.Exit(2)
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

// runServeWithHTTP runs the in-process serving sweep, then drives the real
// HTTP serving tier (internal/server on a loopback listener) with closed-loop
// clients and merges those cells into the same report before writing JSON.
func runServeWithHTTP(w io.Writer, opts xqtp.ExperimentOptions, jsonPath string, cpus []int, clientsFlag string, quick bool) error {
	report, err := xqtp.RunServeReport(w, opts, cpus)
	if err != nil {
		return err
	}

	clientCounts := []int{1, 4, 16}
	people := 100
	cellDur := 2 * time.Second
	if quick {
		clientCounts = []int{1, 4}
		people = 25
		cellDur = 400 * time.Millisecond
	}
	if clientsFlag != "" {
		clientCounts = clientCounts[:0]
		for _, part := range strings.Split(clientsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -clients entry %q", part)
			}
			clientCounts = append(clientCounts, n)
		}
	}

	cells, err := server.RunHTTPLoad(w, server.LoadOptions{
		Seed:         opts.Seed,
		People:       people,
		Clients:      clientCounts,
		CellDuration: cellDur,
		Context:      opts.Context,
	})
	if err != nil {
		return err
	}
	report.HTTPCells = cells
	if runtime.NumCPU() == 1 {
		report.Note += "; serve_cells rows with clients > 1 time-share a single core, so their qps bounds overhead, not scaling"
	}

	if jsonPath != "" {
		return report.WriteJSON(w, jsonPath)
	}
	return nil
}
