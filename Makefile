GO ?= go

# Packages with concurrency-sensitive paths (shared catalog, prepared-join
# caches, shared compiled physical plans, parallel TupleTreePattern workers)
# plus the unsafe-aliasing ingest scanner and the parallel corpus layer get a
# dedicated -race run.
RACE_PKGS = ./internal/collection ./internal/join ./internal/physical ./internal/server ./internal/xmlstore

.PHONY: all build vet test race check bench serve run-server bench-compare bench-smoke fuzz-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags race ./...
	$(GO) build -tags nommap ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks SA ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS) .

check: build vet test race

# Single-threaded paper benchmarks (Table 1, Fig. 4, ...).
bench:
	$(GO) test -bench 'Table1|Figure4' -benchmem -benchtime 1x .

# Concurrent serving benchmark; -cpu exercises the QPS scaling.
serve:
	$(GO) test -bench Serve -benchmem -cpu 1,4 .

# Run the HTTP query server over a corpus:
#   make run-server CORPUS=corpus.snap            (snapshot, mmap)
#   make run-server CORPUS=xmldir/ ADDR=:9090     (directory of *.xml)
ADDR ?= :8080
run-server:
	@test -n "$(CORPUS)" || \
		{ echo "usage: make run-server CORPUS=path/to/corpus.snap [ADDR=:8080]"; exit 2; }
	$(GO) run ./cmd/xqd -addr $(ADDR) -corpus main=$(CORPUS)

# Quick benchmark smoke: re-measure Table 1 at reduced scale and diff it
# against the committed quick-scale baseline. The gating row fails when the
# SC/TJ cells' median ns/op regressed more than 2% — the bound the
# cancellation checkpoints must stay under; the remaining diffs are
# report-only (the leading `-` ignores their exit status), surfacing drift
# without gating on per-cell noise of shared CI machines.
bench-smoke:
	$(GO) run ./cmd/treebench -exp table1 -quick -json /tmp/bench_table1_quick.json
	$(GO) run ./cmd/benchdiff -gate-ns 2 -gate-algs SC,TJ BENCH_table1_quick.json /tmp/bench_table1_quick.json
	$(GO) run ./cmd/treebench -exp ingest -quick -json /tmp/bench_ingest_quick.json
	-$(GO) run ./cmd/benchdiff BENCH_ingest_quick.json /tmp/bench_ingest_quick.json
	$(GO) run ./cmd/treebench -exp collection -quick -json /tmp/bench_collection_quick.json
	-$(GO) run ./cmd/benchdiff BENCH_collection_quick.json /tmp/bench_collection_quick.json
	$(GO) run ./cmd/treebench -exp optimizer -quick -json /tmp/bench_optimizer_quick.json
	-$(GO) run ./cmd/benchdiff BENCH_optimizer_quick.json /tmp/bench_optimizer_quick.json
	$(GO) run ./cmd/treebench -exp snapshot -quick -json /tmp/bench_snapshot_quick.json
	-$(GO) run ./cmd/benchdiff BENCH_snapshot_quick.json /tmp/bench_snapshot_quick.json

# Short differential fuzz of the ingest scanner against the encoding/xml
# oracle, and of the snapshot reader against corrupted/truncated bytes (the
# committed seed corpus always runs as part of `make test`; this also
# explores new inputs for a bounded time).
fuzz-smoke:
	$(GO) test ./internal/xmlstore -run FuzzScanVsStd -fuzz FuzzScanVsStd -fuzztime 30s
	$(GO) test ./internal/xmlstore -run FuzzSnapshot -fuzz FuzzSnapshot -fuzztime 30s

# Compare two treebench JSON reports of the same experiment (any of them):
#   make bench-compare OLD=BENCH_table1.json NEW=/tmp/new.json
bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || \
		{ echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

clean:
	$(GO) clean ./...
