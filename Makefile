# Developer entry points. `make ci` is the full gate: tier-1 verify
# (build + all tests), go vet and the osap-vet static analyzers
# (DESIGN.md §8), formatting, the race-detector sweep, the figures' run-to-run
# identity, the served set rebuilt byte for byte and served, and the chaos
# (both fault scripts), rollout and learn selftests — the same steps CI runs.

GO ?= go

# Version stamp baked into every binary (`osap-serve -version`).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X osap/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build build-cross test verify vet lint fmt-check race fuzz-smoke figures-check results-check models-check ci loc footprint bench bench-e2e bench-compare bench-pairs chaos rollout-selftest learn-selftest

all: build

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# The assembly kernels are amd64-only; every other architecture runs
# the portable loops, and 32-bit ones lay 64-bit fields out on 4-byte
# boundaries. Building for one of each keeps both compiling, and vetting
# for each type-checks the test files (the runnable examples among them)
# there too. The binary transport's raw socket I/O is Linux-only, so a
# darwin build keeps its net.Conn fallback compiling; bench/ stays out
# of it (getrusage and sched_setaffinity make it Linux-only).
build-cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) build . ./cmd/... ./internal/...

# Tier-1 verify (ROADMAP.md).
verify: build build-cross test

vet:
	$(GO) vet ./...

# Static analysis gate: the stock go vet suite (its copylocks check is
# the lock-copy rule) plus the six project-specific analyzers —
# zero-alloc hot paths and their call-graph closure, typed atomics
# only, //osap:guardedby lock discipline, determinism, and no function
# without a caller (DESIGN.md §8, §12). Fixture
# packages under testdata/ are excluded by ./... expansion; deadcode
# needs the whole module, so lint always runs ./... at the root.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/osap-vet ./...

# Fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Race sweep over every package with tests: the root integration
# package, the command smoke tests, and the internals.
race:
	$(GO) test -race . ./cmd/... ./internal/...

# Every fuzz target in the tree, 10 s each: FuzzStepRequest (the HTTP
# step decoder against encoding/json), FuzzHTTPHead (the owned
# connection's step-head parser against http.ReadRequest), FuzzFrame,
# FuzzExperienceLog (internal/learn: internal/wal's replay and
# recovery under the record codec), FuzzManifest, FuzzArtifactPayload, FuzzReadCooked, FuzzReadMahiMahi,
# FuzzTriggerStatistic, FuzzEnvStep (abr.Env over both links).
# A target is found by its declaration, so a new one is run without
# being listed here.
fuzz-smoke:
	@grep -rl --include='*_test.go' '^func Fuzz' . | sort | while read f; do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$(dirname $$f) $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s $$(dirname $$f) || exit 1; \
		done; \
	done

# The figures are a pure function of their seeds (DESIGN.md §5): three
# runs of the quick-scale reproduction must print the same bytes, so
# nondeterminism anywhere from training to rendering fails here. On
# amd64, whose kernels the figures were pinned on (DESIGN.md §10), the
# bytes must also hash to FIGURES_SHA256: a change that moves any figure
# fails here and prints the new digest.
FIGURES_SHA256 := cmd/osap-repro/testdata/figures-quick.sha256
figures-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/osap-repro" ./cmd/osap-repro && \
	for i in 1 2 3; do "$$dir/osap-repro" -scale quick -fig all > "$$dir/run$$i.txt" || exit 1; done && \
	cmp "$$dir/run1.txt" "$$dir/run2.txt" && cmp "$$dir/run1.txt" "$$dir/run3.txt" && \
	sum=$$(sha256sum < "$$dir/run1.txt" | cut -d' ' -f1) && \
	if [ "$$($(GO) env GOARCH)" = amd64 ] && [ "$$sum" != "$$(cat $(FIGURES_SHA256))" ]; then \
		echo "figures-check: sha256 $$sum, pinned $$(cat $(FIGURES_SHA256)) in $(FIGURES_SHA256)"; exit 1; \
	fi && \
	echo "figures-check: 3 runs byte-identical, sha256 $$sum"

# The recorded paper-scale run (results/README.md): rebuilds
# results/paper-scale-figures.txt and compares it byte for byte with the
# committed copy. About 90 s on two vCPUs, so it stays out of `make ci`.
results-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/osap-repro" ./cmd/osap-repro && \
	"$$dir/osap-repro" -scale paper -fig all > "$$dir/paper.txt" && \
	cmp "$$dir/paper.txt" results/paper-scale-figures.txt && \
	echo "results-check: results/paper-scale-figures.txt reproduced byte for byte"

# The served set: cmd/osap-serve/testdata/norway.json, the paper-scale
# Norway artifacts the load selftest (TestSelfTestSmallScale) serves and
# the artifact fixture of the serve, registry, loadgen and
# cmd/osap-serve tests, which read it at this path.
# osap-train rebuilds it (~15 s on two vCPUs) and the rebuild must equal
# the committed file byte for byte. Artifact bits are per platform
# (DESIGN.md §10), so the bytes are compared on amd64, where the file was
# written, as TestSaveArtifactsPinnedBytes does; elsewhere the rebuild
# only has to succeed. Then the load selftest serves the committed file
# through its transport × procs matrix and logs ND's fallback share on
# Norway and on Belgium viewers (~3 s).
SERVED_SET := cmd/osap-serve/testdata/norway.json
models-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run $(LDFLAGS) ./cmd/osap-train -scale paper -dataset norway -out "$$dir" && \
	sum=$$(sha256sum < "$$dir/norway.json" | cut -d' ' -f1) && \
	if [ "$$($(GO) env GOARCH)" = amd64 ] && ! cmp -s "$$dir/norway.json" $(SERVED_SET); then \
		echo "models-check: osap-train wrote sha256 $$sum, $(SERVED_SET) differs"; exit 1; \
	fi && \
	echo "models-check: osap-train rebuilt $(SERVED_SET), sha256 $$sum" && \
	$(GO) test -count=1 -v -run '^TestSelfTestSmallScale$$' ./cmd/osap-serve

ci: verify lint fmt-check race figures-check models-check chaos rollout-selftest learn-selftest

# Non-test lines of Go and assembly per package and in total — the size
# ROADMAP.md tracks. Counts every line of each .go and .s file that is
# not a _test.go file and not under a testdata/ directory, then the
# lines of those .go files carrying an //osap:hotpath-stop or an
# //osap:ignore directive, then per package the settable options: the
# exported fields of exported *Config structs in the same files (a
# field line `A, B int` counts two).
loc:
	@find . -name testdata -prune -o -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@for d in hotpath-stop ignore; do \
		printf '%7d //osap:%s lines\n' "$$(find . -name testdata -prune -o -type f -name '*.go' ! -name '*_test.go' -print \
			| xargs grep -h "//osap:$$d" | wc -l)" "$$d"; \
	done
	@find . -name testdata -prune -o -type f -name '*.go' ! -name '*_test.go' -print \
		| xargs awk 'FNR == 1 { cfg = 0 } \
			/^type ([A-Z][A-Za-z0-9_]*)?Config struct \{/ { cfg = 1; d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d] += 0; next } \
			cfg && /^}/ { cfg = 0; next } \
			cfg && /^\t[A-Z]/ { f = $$0; c = 1; while (sub(/^\t?[A-Z][A-Za-z0-9_]*, /, "", f)) c++; n[d] += c; t += c } \
			END { for (d in n) printf "%7d %s Config fields\n", n[d], d; printf "%7d Config fields in total\n", t }' | sort -k2

# Heap the guard server retains per session, by scheme and for a
# learning session, and per generation, with its artifact set and
# without it — the memory ROADMAP.md tracks beside non-test LOC. The
# footprint tests log the bytes; `make verify` is what gates them.
footprint:
	$(GO) test -count=1 -v -run '^Test(Session|Generation)Footprint$$' ./internal/serve

# Full benchmark suite (figures, ablations, latency, and the set-up
# layer: BenchmarkArtifactsTrain/Save/Load on the bench's recipe).
bench:
	$(GO) test -bench=. -benchmem .

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# workloads, end-to-end and per-layer metrics, every decision checked.
# For a before/after, write a result set on each commit
# (`go run ./bench -runs 3 -out A.json`) and compare them:
#   make bench-compare A=A.json B=B.json
bench-e2e:
	$(GO) run ./bench

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# The before/after protocol of a claim on the benchmark (ROADMAP.md
# fact 1): N pairs of runs of workload W on seed SEED, the bench built
# from BASE against the one built from the working tree, in alternating
# order, each from its own checkout; prints each pair's gated metrics,
# the medians, the median pair ratio and the pairs each side won.
#   make bench-pairs BASE=HEAD W=nd_steady SEED=41 N=10
N ?= 10
bench-pairs:
	GO=$(GO) sh scripts/bench-pairs.sh "$(BASE)" "$(W)" "$(SEED)" "$(N)"

# The selftests are cmd/osap-serve's tests, small scale by default
# (`go test ./cmd/osap-serve`); these targets run them at full scale
# through the test flags in cmd/osap-serve/harness_test.go.
#
# Fault-injection selftest (DESIGN.md §9, §13) under the race detector:
# 1000 concurrent sessions, once per fault script and transport. The
# chaos script plays seeded inference panics, NaN/Inf scores, injected
# overload, slow and aborting clients; the recovery script plays the
# demote → recover → re-demote → latch pattern cycle under probation.
# Both assert no crash, no dropped step, every session's demoted flag
# at every step against the schedule's replay of the session state
# machine, the replay's exact totals on /metrics, /healthz and
# /dashboard, and a clean drain. Overload is injected by HTTP
# middleware on one transport and per frame on the other; the totals
# are the same.
chaos:
	$(GO) test -race -count=1 -v -run '^TestChaosSmallScale$$/^(chaos|recovery)-(http|binary)$$' ./cmd/osap-serve \
		-args -clients 1000 -steps 48 -seed 20200713 -dataset norway

# Hot-reload/canary selftest (DESIGN.md §11): publish versions into a
# throwaway registry, stage a 10% canary under a 1000-client wave and
# auto-promote it (asserting pinned sessions decide bit-identically
# across the swap and /dashboard drift quantiles match a sequential
# reference), then auto-roll-back a poisoned candidate and refuse a
# bit-flipped one — zero dropped steps throughout.
rollout-selftest:
	$(GO) test -count=1 -v -run '^TestRolloutSmallScale$$' ./cmd/osap-serve -args -clients 1000 -dataset norway

# Gated online-learning selftest (DESIGN.md §14): an adversarial fleet
# drifts its reported throughput 0.1%/step against a frozen-baseline
# trust gate while honest and cooperatively-drifting fleets ARE learned
# from. Asserts the gate's conservation laws exactly (decisions =
# checked + demoted; checked = admitted + rejected; log records =
# admissions), that the refit boundary stays within tolerance of the
# boot baseline on an honest hold-out grid, that refits land in the
# registry as PROPOSED versions (never served), and that serving
# decisions are bit-identical before and after a refit.
learn-selftest:
	$(GO) test -count=1 -v -run '^TestLearnSmallScale$$' ./cmd/osap-serve -args -clients 1000 -dataset norway
