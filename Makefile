# Repo gates. `make lint` runs exactly what CI's lint job runs and
# writes the same *-report.txt files CI uploads as artifacts.
# staticcheck and govulncheck are skipped gracefully when the binaries
# are not installed (CI installs them, so there they always run and
# block); lshvet and allocheck build from this repo and always run.

SHELL := /bin/bash
GO ?= go

.PHONY: build test test-procs examples-smoke perfbench-test perfbench-smoke lint gofmt lshvet allocheck staticcheck govulncheck fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# core.Run's set-up (signing, index build, first assignment) and the
# K-Modes engine's table build and per-pass fold run on GOMAXPROCS
# goroutines, so the core, kmodes, stream (whose training runs the
# engine), facade and CLI tests run at fixed CPU counts, whatever the
# machine: one goroutine, and an uneven three-way split.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/core/ ./internal/kmodes/ ./internal/stream/ . ./cmd/lshcluster/
	GOMAXPROCS=3 $(GO) test -count=1 ./internal/core/ ./internal/kmodes/ ./internal/stream/ . ./cmd/lshcluster/

# Runs every program under examples/ at its defaults; each must exit 0.
# The streaming example, the one that drives the stream's band table
# (each Add probes every band, scores, then files its cluster) and its
# mode postings, is deterministic, so its output must also match the
# checked-in examples/streaming/expected_output.txt byte for byte.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done
	set -o pipefail; $(GO) run ./examples/streaming | diff -u examples/streaming/expected_output.txt -

# The benchmark (perfbench/) is a nested module that builds against this
# checkout, so the root ./... patterns never compile it; a driver change
# that breaks its decorators surfaces here instead of at benchmark time.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -race ./...

# Bit-identity and work gate: one short traced run of every benchmark
# workload at seed 1, the seed whose final assignment, iteration count
# and purity the benchmark pins. Each run's result line must report
# "correct":true and "failed":0, and its deterministic work counters
# must equal the committed work ledger, scripts/workledger/ledger.json.
# A change that alters the work on purpose updates the ledger and says
# why in CHANGES.md.
perfbench-smoke:
	@for w in kmodes-cold kmodes-warm stream-ingest kmeans-simhash; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 | tail -n 1); \
		echo "$$w: $$(echo "$$line" | cut -c1-60)"; \
		echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -Eq '"failed":0[,}]' || \
			{ echo "perfbench-smoke: $$w is incorrect or failed"; exit 1; }; \
		echo "$$line" | $(GO) run ./scripts/workledger -ledger scripts/workledger/ledger.json -workload $$w || exit 1; \
	done

lint: gofmt lshvet allocheck staticcheck govulncheck

# Every Go file must be gofmt-clean, except testdata/ fixtures (and the
# benchmark's build directory).
gofmt:
	@listed=$$(gofmt -l .) || exit 1; \
	files=$$(echo "$$listed" | grep -v -e '^\.bench_build/' -e '\(^\|/\)testdata/'); \
	if [ -n "$$files" ]; then echo "gofmt: not formatted:"; echo "$$files"; exit 1; fi; \
	echo "gofmt: clean"

lshvet:
	set -o pipefail; $(GO) run ./cmd/lshvet ./... | tee lshvet-report.txt

allocheck:
	set -o pipefail; $(GO) run ./scripts/allocheck | tee allocheck-report.txt

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		set -o pipefail; staticcheck ./... | tee staticcheck-report.txt; \
	else \
		echo "staticcheck not installed; skipped (CI installs and enforces it)" | tee staticcheck-report.txt; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		set -o pipefail; govulncheck ./... | tee govulncheck-report.txt; \
	else \
		echo "govulncheck not installed; skipped (CI installs and enforces it)" | tee govulncheck-report.txt; \
	fi

fuzz-smoke:
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzBuildFrozenIdentity -fuzztime=30s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzClusterSummaries -fuzztime=30s
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzPersistRoundTrip -fuzztime=30s
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzOpenCraftedIndex -fuzztime=30s
	$(GO) test ./internal/lsh/persist -run='^$$' -fuzz=FuzzOpen -fuzztime=30s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzRestoreRunState -fuzztime=30s
	$(GO) test ./internal/dataset -run='^$$' -fuzz=FuzzReadCSV -fuzztime=30s
	$(GO) test ./internal/dataset -run='^$$' -fuzz=FuzzOpenBinary -fuzztime=30s
	$(GO) test ./internal/kmodes -run='^$$' -fuzz=FuzzFreqTable -fuzztime=30s
	$(GO) test ./internal/kmodes -run='^$$' -fuzz=FuzzNearestScan -fuzztime=30s
	$(GO) test ./internal/kmodes -run='^$$' -fuzz=FuzzLoadModel -fuzztime=30s
	$(GO) test ./internal/minhash -run='^$$' -fuzz=FuzzSign -fuzztime=30s
	$(GO) test ./internal/kernel -run='^$$' -fuzz=FuzzMismatches -fuzztime=30s
	$(GO) test ./internal/kernel -run='^$$' -fuzz=FuzzHamming -fuzztime=30s
	$(GO) test ./internal/kernel -run='^$$' -fuzz=FuzzNearestSquaredDot4 -fuzztime=30s
	$(GO) test ./internal/stream -run='^$$' -fuzz=FuzzStreamMatchesNaive -fuzztime=30s

clean:
	rm -f *-report.txt bench-*.txt
