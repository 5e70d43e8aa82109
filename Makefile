# Repo-wide checks. `make check` is the pre-commit gate: build, gofmt, vet, the
# lunavet analysis suite, the full test suite under the race detector (the
# parallel runner is the main customer; every differential and scenario
# gate is a test), and a short benchmark smoke to catch perf-metric
# regressions. `make bench` runs the repository benchmark (benchmark/) once.

GO ?= go

# Pinned external-tool versions. The tools are optional locally (the
# targets skip with an install hint when the binary is absent — the repo
# must build and check with nothing beyond the Go toolchain, so there is
# no tools.go/go.sum pin); CI installs exactly these versions so the
# enforced toolchain is reproducible.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build fmt vet lint staticcheck govulncheck test race cover fuzz-smoke bench bench-compare bench-smoke check

build:
	$(GO) build ./...

# gofmt prints the files it would rewrite; any name is a failure. The lint
# fixtures under testdata/ are deliberately odd and not gofmt's business.
fmt:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lunavet: the repo's own five analyzers (determinism, maporder, slabown,
# hotalloc, partown — see internal/lint), one mode. Zero non-suppressed
# diagnostics is a hard gate; a suppression needs a justified //lint:allow
# that still absorbs a finding.
lint:
	$(GO) run ./cmd/lunavet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not found; skipping. Install with:"; \
		echo "  $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not found; skipping. Install with:"; \
		echo "  $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Statement coverage of the whole tree by the whole suite, so dormant code
# stays visible: cover.txt holds the total and every function no test
# reaches (0.0 %) outside benchmark/, cmd/ and internal/lint. Informational;
# nothing gates on it.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out > cover.func
	@{ grep '^total:' cover.func; \
	  grep -E '[[:space:]]0\.0%$$' cover.func | grep -vE '^lunasolar/(benchmark|cmd|internal/lint)/' || true; } > cover.txt
	@rm -f cover.func
	@head -1 cover.txt; echo "$$(($$(wc -l < cover.txt) - 1)) functions at 0.0% (cover.txt)"

# Ten seconds of real fuzzing per target (`go test` alone only replays the
# seed corpora). CI runs it; it stays out of `check` so the pre-commit gate
# does not grow.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCRCCombine$$' -fuzztime 10s ./internal/crc
	$(GO) test -run '^$$' -fuzz '^FuzzRawMatchesBitwise$$' -fuzztime 10s ./internal/crc
	$(GO) test -run '^$$' -fuzz '^FuzzFeedback$$' -fuzztime 10s ./internal/cc
	$(GO) test -run '^$$' -fuzz '^FuzzControlPlaneOps$$' -fuzztime 10s ./ebs
	$(GO) test -run '^$$' -fuzz '^FuzzRecordReader$$' -fuzztime 10s ./internal/tcpstack
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/sim

# One quick experiment benchmark, the raw event-loop benchmark, the
# 4 KiB write path (the Solar FN half, its RDMA-into-chunk-server BN
# twin and the Luna tcpstack FN half), the Solar 4 KiB read path, the
# coupled storm at four window workers, the hybrid
# diurnal campaign, and the CDF lookup benchmark guarding the sort.Search
# fix: enough to verify the events/sec, sim-µs/wall-ms, copies/op and
# allocs/op metrics still report. The quick fig6 run exports the merged
# observability registry (CI publishes METRICS.json) and doubles as its
# schema smoke test.
bench-smoke:
	$(GO) test -run xxx -bench 'Fig6|SimulatorEventRate|WritePath4K|ReadPath4K|BNWrite4K|BlockServerWrite4K|LunaWrite4K|Coupled4|DiurnalHybrid' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'CDFAt' -benchtime 1x -benchmem ./internal/stats
	$(GO) run ./cmd/ebsbench -exp fig6 -quick -workers 1 -metrics-out METRICS.json > /dev/null
	grep -q '"schema": "lunasolar.metrics/v1"' METRICS.json

# The wall-cost ledger: every workload of the repository benchmark, once,
# in the benchmark's own report schema (see benchmark/README.md).
bench:
	bash benchmark/run.sh -all -out bench_ci.json

# Verdict per (workload, metric) between two reports `benchmark -out` wrote,
# by the bounds of BENCHMARK.json: make bench-compare NEW=new.json. BASE
# defaults to the committed baseline, ledger/base.json (every workload, seeds
# 1-3: bash benchmark/run.sh -all -runs 3 -out ledger/base.json); a PR that
# claims a gain refreshes it.
BASE ?= ledger/base.json

bench-compare:
	bash benchmark/run.sh -compare $(BASE) $(NEW)

check: build fmt vet lint staticcheck govulncheck race bench-smoke
