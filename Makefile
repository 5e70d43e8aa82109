# Repo-wide checks. `make check` is the pre-commit gate: build, gofmt, vet, the
# lunavet analysis suite, the full test suite under the race detector (the
# parallel runner is the main customer; every differential and scenario
# gate is a test), and a metrics smoke that exports the quick Fig 6 run's
# registry. `make bench` runs the repository benchmark (benchmark/) once.

GO ?= go

# Pinned external-tool versions. The tools are optional locally (the
# targets skip with an install hint when the binary is absent — the repo
# must build and check with nothing beyond the Go toolchain, so there is
# no tools.go/go.sum pin); CI installs exactly these versions so the
# enforced toolchain is reproducible.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build fmt vet lint staticcheck govulncheck test race cover progcover fuzz-smoke golden full-golden bench bench-compare ledger-gate metrics-smoke check

build:
	$(GO) build ./...

# gofmt prints the files it would rewrite; any name is a failure. The lint
# fixtures under testdata/ are deliberately odd and not gofmt's business.
fmt:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lunavet: the repo's own four analyzers (determinism, maporder, slabown,
# hotalloc — see internal/lint), one mode. Zero non-suppressed
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

# The other half of `cover`: which code no program run reaches, so only
# tests do. Builds ebsbench, ebsfio, ebstopo and the benchmark with -cover,
# runs the quick `-exp all` (writing its METRICS.json), three ebsfio loads,
# the four ebstopo drills and `benchmark -all -seconds 1`, merges their
# counters with `go tool covdata` and writes progcover.txt: the total and
# every function at 0.0 %.
# Then it checks the functions outside benchmark/ against the reviewed list
# progcover.list, keyed by file and function name (one line per function,
# so a name a file holds twice is listed twice), and fails naming each
# function that no program reaches and the list lacks, and each listed
# function that a program now reaches or that no longer exists. Every list
# line carries one reason: fault (an error or fault path tests reach), ctrl
# (the control plane and its hooks), contract (what benchmark/ needs, a
# transport.Stack method, or the code behind a flag the run does not pass)
# or gate (read by a test or Example in another package, named on the
# line). A package outside benchmark/ that none of the four programs links
# leaves no coverage data at all, so `go list -deps` finds those instead:
# each needs a `package <dir>` line whose reason is tool (a program CI runs
# by another target) or gate (a harness or fixture only tests import), and
# a listed package that a program now links, or that is gone, fails too.
# CI runs it; about 3 min on two vCPUs.
PROGCOVER = .progcover

progcover:
	@rm -rf $(PROGCOVER) && mkdir -p $(PROGCOVER)/bin $(PROGCOVER)/data
	$(GO) build -cover -coverpkg=./... -o $(PROGCOVER)/bin/ ./cmd/ebsbench ./cmd/ebsfio ./cmd/ebstopo ./benchmark
	GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/ebsbench -exp all -quick -metrics-out $(PROGCOVER)/METRICS.json > /dev/null
	GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/ebsfio > /dev/null
	GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/ebsfio -stack kernel -read 0.7 > /dev/null
	GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/ebsfio -stack luna -bs 65536 -read 0 -cores 2 > /dev/null
	for d in tor spine core blackhole; do \
		GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/ebstopo -drill $$d > /dev/null || exit 1; \
	done
	GOCOVERDIR=$(PROGCOVER)/data $(PROGCOVER)/bin/benchmark -all -seconds 1 > /dev/null
	$(GO) tool covdata textfmt -i=$(PROGCOVER)/data -o $(PROGCOVER)/cover.out
	@$(GO) tool cover -func=$(PROGCOVER)/cover.out > $(PROGCOVER)/cover.func
	@{ grep '^total:' $(PROGCOVER)/cover.func; \
	  grep -E '[[:space:]]0\.0%$$' $(PROGCOVER)/cover.func || true; } > progcover.txt
	@head -1 progcover.txt; echo "$$(($$(wc -l < progcover.txt) - 1)) functions no program run reaches (progcover.txt)"
	@$(GO) list -deps ./cmd/ebsbench ./cmd/ebsfio ./cmd/ebstopo ./benchmark | LC_ALL=C sort > $(PROGCOVER)/linked
	@{ sed -n 's|^lunasolar/\([^:]*\):[0-9]*:[[:space:]]*\([^[:space:]]*\).*|\1 \2|p' progcover.txt; \
	  $(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | LC_ALL=C sort \
		| LC_ALL=C comm -23 - $(PROGCOVER)/linked | sed -n 's|^lunasolar/|package |p'; \
	} | grep -v '^\(package \)\{0,1\}benchmark/' | LC_ALL=C sort > $(PROGCOVER)/found
	@awk '/^#/ || !NF { next } \
		$$1 == "package" && ($$3 !~ /^(tool|gate)$$/ || NF < 4) { \
			print "progcover.list:" NR ": want package <dir> tool|gate <note>: " $$0 > "/dev/stderr"; bad = 1 } \
		$$1 != "package" && ($$3 !~ /^(fault|ctrl|contract|gate)$$/ || ($$3 == "gate" && NF < 4)) { \
			print "progcover.list:" NR ": want <file> <function> fault|ctrl|contract|gate <test>: " $$0 > "/dev/stderr"; bad = 1 } \
		{ print $$1, $$2 } END { exit bad }' progcover.list > $(PROGCOVER)/listed.raw
	@LC_ALL=C sort $(PROGCOVER)/listed.raw > $(PROGCOVER)/listed
	@{ LC_ALL=C comm -23 $(PROGCOVER)/found $(PROGCOVER)/listed | sed 's/^/progcover: no program reaches, progcover.list lacks: /'; \
	  LC_ALL=C comm -13 $(PROGCOVER)/found $(PROGCOVER)/listed | sed 's/^/progcover: progcover.list lists, but a program reaches or it is gone: /'; \
	} > $(PROGCOVER)/diff
	@if [ -s $(PROGCOVER)/diff ]; then cat $(PROGCOVER)/diff; exit 1; fi
	@echo "progcover.list names all $$(wc -l < $(PROGCOVER)/found) of them"

# Ten seconds of real fuzzing per target (`go test` alone only replays the
# seed corpora). CI runs it; it stays out of `check` so the pre-commit gate
# does not grow.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCRCCombine$$' -fuzztime 10s ./internal/crc
	$(GO) test -run '^$$' -fuzz '^FuzzRawMatchesBitwise$$' -fuzztime 10s ./internal/crc
	$(GO) test -run '^$$' -fuzz '^FuzzFeedback$$' -fuzztime 10s ./internal/cc
	$(GO) test -run '^$$' -fuzz '^FuzzControlPlaneOps$$' -fuzztime 10s ./ebs
	$(GO) test -run '^$$' -fuzz '^FuzzRecordReader$$' -fuzztime 10s ./internal/tcpstack
	$(GO) test -run '^$$' -fuzz '^FuzzRDMAMessages$$' -fuzztime 10s ./internal/rdma
	$(GO) test -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDriverShadow$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzRoute$$' -fuzztime 10s ./internal/simnet
	$(GO) test -run '^$$' -fuzz '^FuzzECMPPick$$' -fuzztime 10s ./internal/simnet
	$(GO) test -run '^$$' -fuzz '^FuzzTenantCap$$' -fuzztime 10s ./internal/sa

# The quick fig6 run exports the merged observability registry (CI
# publishes METRICS.json), and the grep is its schema smoke test.
metrics-smoke:
	$(GO) run ./cmd/ebsbench -exp fig6 -quick -workers 1 -metrics-out METRICS.json > /dev/null
	grep -q '"schema": "lunasolar.metrics/v1"' METRICS.json

# The identity artifacts of a behaviour-preserving change: make golden
# OUT=<dir> writes the quick `-exp all -seed 1` tables (tables.txt, with the
# wall-clock `completed in` lines dropped and each `perf:` line cut to its
# shard and event counts) and the merged registry (METRICS.json). Run it at
# the parent and at the change, then `diff -r` the two directories. About
# half a minute; not part of `check`.
golden:
	@test -n "$(OUT)" || { echo "usage: make golden OUT=<dir>"; exit 2; }
	@mkdir -p "$(OUT)"
	$(GO) run ./cmd/ebsbench -exp all -quick -seed 1 -metrics-out "$(OUT)/METRICS.json" > "$(OUT)/tables.raw"
	$(call strip_wall,$(OUT)/tables.raw) > "$(OUT)/tables.txt"
	@rm -f "$(OUT)/tables.raw"

# The committed full-scale results: make full-golden reruns `-exp all
# -workers 2 -seed 1` at full scale, strips it as `golden` strips
# tables.txt, and diffs it against experiments_full.txt (about 80 s on two
# vCPUs; CI runs it). On a difference the fresh run stays in
# experiments_full.new; a change that moves a full-scale table on purpose
# moves that file over experiments_full.txt and lists the moved rows in
# CHANGES.md.
full-golden:
	$(GO) run ./cmd/ebsbench -exp all -workers 2 -seed 1 > experiments_full.raw
	$(call strip_wall,experiments_full.raw) > experiments_full.new
	@rm -f experiments_full.raw
	diff -u experiments_full.txt experiments_full.new
	@rm -f experiments_full.new

# strip_wall prints ebsbench's table output $(1) without its wall clock: the
# `completed in` lines go and each `perf:` line keeps its shard and event
# counts.
strip_wall = grep -v '^\[[^ ]* completed in ' "$(1)" \
	| sed -E 's/^(\[[^ ]* perf: [0-9]+ shards, [0-9.]+M events).*/\1]/'

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

# The ledger's hard gate on the metrics that are exact counts, not wall
# time: make ledger-gate NEW=new.json. For every (workload, seed) run in
# both NEW and BASE it fails when allocs_per_op or alloc_bytes_per_op rises
# by more than 1 %, or when sim_lat_p50_us, sim_lat_p999_us, sim_kops or
# op_ok_share differs at all (ledger/gate.jq).
ledger-gate:
	@test -n "$(NEW)" || { echo "usage: make ledger-gate NEW=<report> [BASE=<report>]"; exit 2; }
	jq -n -r --slurpfile base $(BASE) --slurpfile new $(NEW) -f ledger/gate.jq

check: build fmt vet lint staticcheck govulncheck race metrics-smoke
