# Repo-wide checks. `make check` is the pre-commit gate: build, vet, the
# lunavet analysis suite, the full test suite under the race detector (the
# parallel runner is the main customer), and a short benchmark smoke to
# catch perf-metric regressions.

GO ?= go

# Pinned external-tool versions. The tools are optional locally (the
# targets skip with an install hint when the binary is absent — the repo
# must build and check with nothing beyond the Go toolchain, so there is
# no tools.go/go.sum pin); CI installs exactly these versions so the
# enforced toolchain is reproducible.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build vet lint lint-report staticcheck govulncheck test race bench bench-smoke coupled-diff ff-diff ctrl-diff check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lunavet: the repo's own analyzers (determinism, maporder, slabown,
# hotalloc, partown, fluiddet — see internal/lint). Zero non-suppressed
# diagnostics is a hard gate; suppressions need a justified //lint:allow. Also runnable as `go vet -vettool=$$(go env GOPATH)/bin/lunavet
# ./...` after `go install ./cmd/lunavet`.
lint:
	$(GO) run ./cmd/lunavet ./...

# Machine-readable lint report: the JSON findings (CI's diff annotations
# read .diagnostics[].file/.line), the SARIF 2.1.0 log for code-scanning
# upload, and the //lint:allow inventory (file, keys, justification, usage
# count — a directive at 0 is drift).
lint-report:
	$(GO) run ./cmd/lunavet -json -sarif lunavet.sarif ./... > lunavet.json
	$(GO) run ./cmd/lunavet -suppressions ./...

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

# One quick experiment benchmark, the raw event-loop benchmark, the
# 4 KiB write path, and the CDF lookup benchmark guarding the sort.Search
# fix: enough to verify the events/sec, sim-µs/wall-ms, copies/op and
# allocs/op metrics still report. The quick fig6 run exports the merged
# observability registry (CI publishes METRICS.json) and doubles as its
# schema smoke test.
bench-smoke:
	$(GO) test -run xxx -bench 'Fig6|SimulatorEventRate|WritePath4K' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'CDFAt' -benchtime 1x -benchmem ./internal/stats
	$(GO) run ./cmd/ebsbench -exp fig6 -quick -workers 1 -metrics-out METRICS.json > /dev/null
	grep -q '"schema": "lunasolar.metrics/v1"' METRICS.json

# The coupled runner must not change any experiment output: the partitioned
# experiments driven by four window workers have to match the serial
# (one-worker) run byte-for-byte once the wall-clock lines are stripped.
# This is the conservative-sync determinism gate.
coupled-diff:
	$(GO) run ./cmd/ebsbench -exp coupled,coupledfail -quick -coupled-workers 1 | grep -v 'perf:\|completed in' > /tmp/lunasolar-coupled-serial.txt
	$(GO) run ./cmd/ebsbench -exp coupled,coupledfail -quick -coupled-workers 4 | grep -v 'perf:\|completed in' > /tmp/lunasolar-coupled-parallel.txt
	diff /tmp/lunasolar-coupled-serial.txt /tmp/lunasolar-coupled-parallel.txt

# Hybrid fidelity must track packet fidelity on the diurnal campaign:
# -ff-bench-out runs both modes under one seed and enforces the
# differential gate internally (exact start/completion/drop counts, ≤1%
# completion-time quantiles and goodput). The quick run here is the CI
# tripwire; `make bench` runs the full-scale version whose report also
# enforces the ≥10x wall-clock speedup. On top of that, clusters that
# carry no bulk flows must be byte-identical under -fidelity hybrid.
ff-diff:
	$(GO) run ./cmd/ebsbench -quick -ff-bench-out /tmp/lunasolar-BENCH_ff.json
	grep -q '"schema": "lunasolar.fluid/v1"' /tmp/lunasolar-BENCH_ff.json
	$(GO) run ./cmd/ebsbench -exp fig6,incast -quick -workers 1 | grep -v 'perf:\|completed in' > /tmp/lunasolar-fid-packet.txt
	$(GO) run ./cmd/ebsbench -exp fig6,incast -quick -workers 1 -fidelity hybrid | grep -v 'perf:\|completed in' | diff /tmp/lunasolar-fid-packet.txt -

# The control plane is serial management logic riding on the shared
# worker pool: the provisioning storm, the planned drain and the
# noisy-neighbor matrix must produce byte-identical tables whether their
# cells run serially or on four workers. This is the control-plane
# worker-determinism gate; the quick report run also enforces the
# zero-failed-I/O drain gate and the 2x noisy-neighbor isolation gate; it
# names two non-adjacent report flags, so both files existing also checks
# that every requested report stage runs.
ctrl-diff:
	$(GO) run ./cmd/ebsbench -exp provision-storm,drain,noisyneighbor -quick -workers 1 | grep -v 'perf:\|completed in' > /tmp/lunasolar-ctrl-serial.txt
	$(GO) run ./cmd/ebsbench -exp provision-storm,drain,noisyneighbor -quick -workers 4 | grep -v 'perf:\|completed in' > /tmp/lunasolar-ctrl-parallel.txt
	diff /tmp/lunasolar-ctrl-serial.txt /tmp/lunasolar-ctrl-parallel.txt
	rm -f /tmp/lunasolar-BENCH_cc.json /tmp/lunasolar-BENCH_ctrl.json
	$(GO) run ./cmd/ebsbench -quick -cc-bench-out /tmp/lunasolar-BENCH_cc.json -ctrl-bench-out /tmp/lunasolar-BENCH_ctrl.json
	grep -q '"schema": "lunasolar.ccmatrix/v1"' /tmp/lunasolar-BENCH_cc.json
	grep -q '"schema": "lunasolar.ctrl/v1"' /tmp/lunasolar-BENCH_ctrl.json

# Bench reports CI uploads: the coupled-scaling report (events/sec at
# 1/2/4/8 window workers, with a built-in byte-identity gate) in
# BENCH_pr6.json, the congestion-control incast matrix (static/dcqcn/swift
# under one seed) in BENCH_pr7.json, the full-scale diurnal fidelity
# comparison (packet vs hybrid wall time, with the differential and ≥10x
# speedup gates built in) in BENCH_pr8.json, and the control-plane report
# (drain cutover latency and noisy-neighbor isolation ratio, with the
# zero-failed-I/O and 2x-isolation gates built in) in BENCH_pr10.json.
bench:
	$(GO) run ./cmd/ebsbench -quick -coupled-bench-out BENCH_pr6.json
	$(GO) run ./cmd/ebsbench -quick -cc-bench-out BENCH_pr7.json
	$(GO) run ./cmd/ebsbench -ff-bench-out BENCH_pr8.json
	$(GO) run ./cmd/ebsbench -ctrl-bench-out BENCH_pr10.json

check: build vet lint staticcheck govulncheck race bench-smoke coupled-diff ff-diff ctrl-diff
