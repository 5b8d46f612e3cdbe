# Repo gates. `make lint` runs exactly what CI's lint job runs and
# writes the same *-report.txt files CI uploads as artifacts.
# staticcheck and govulncheck are skipped gracefully when the binaries
# are not installed (CI installs them, so there they always run and
# block); lshvet and allocheck build from this repo and always run.

SHELL := /bin/bash
GO ?= go

.PHONY: build test perfbench-test lint gofmt lshvet allocheck staticcheck govulncheck fuzz-smoke chaos persist-bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark (perfbench/) is a nested module that builds against this
# checkout, so the root ./... patterns never compile it; a driver change
# that breaks its decorators surfaces here instead of at benchmark time.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -race ./...

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

# Fault-injection gate: the resilience/chaos test suite under the race
# detector, then a degraded-mode soak — 100k items at S=4 with 5%
# transient backend errors and one permanently dead shard — which must
# complete and report its degradation accounting in
# chaos-soak-stats.csv (shard_retries … skipped_shards columns; CI
# uploads it as an artifact).
chaos:
	$(GO) test -race -count=1 \
		-run 'Backend|Chaos|Stream|Resilien|Degraded' \
		./internal/lsh/ ./internal/lsh/serve/ ./internal/core/ ./internal/stream/ ./cmd/lshcluster/ .
	$(GO) run ./cmd/datagen -items 100000 -clusters 2000 -attrs 60 -domain 20000 -seed 1 -o chaos-soak-in.csv
	$(GO) run ./cmd/lshcluster -in chaos-soak-in.csv -k 2000 -bands 20 -rows 5 -shards 4 \
		-chaos-spec "seed=1;err=0.05;shard2.dead" -maxiter 10 -stats chaos-soak-stats.csv
	rm -f chaos-soak-in.csv
	@grep -q ',skipped_shards' chaos-soak-stats.csv || { echo "chaos: stats CSV missing resilience columns"; exit 1; }

fuzz-smoke:
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzBuildFrozenIdentity -fuzztime=30s
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzForeignEmptyBitmap -fuzztime=30s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzReorderIdentity -fuzztime=30s
	$(GO) test ./internal/lsh -run='^$$' -fuzz=FuzzPersistRoundTrip -fuzztime=30s

# Warm-start A/B: the cold save-and-scan bootstrap against the mmap and
# heap warm starts on the 100k/S=4 workload, with the derived headline
# numbers (warm_start_speedup, mmap_vs_heap) in BENCH_10.json — the
# same capture CI uploads as an artifact.
persist-bench:
	set -o pipefail; $(GO) test -run XXX -bench 'BenchmarkPersist' -benchtime 2x . | tee bench-persist.txt
	$(GO) run ./scripts/benchjson -in bench-persist.txt -out BENCH_10.json

clean:
	rm -f *-report.txt bench-*.txt BENCH_*.json chaos-soak-in.csv chaos-soak-stats.csv
