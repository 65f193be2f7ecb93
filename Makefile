# Developer entry points. `make ci` is the full gate: tier-1 verify
# (build + all tests), vet, formatting, the osap-vet static analyzers
# (DESIGN.md §8), the race-detector sweep, and the chaos (both fault
# scripts), rollout and learn selftests — the same steps CI runs.

GO ?= go

# Version stamp baked into every binary (`osap-serve -version`).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X osap/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build build-cross test verify vet lint fmt-check race fuzz-smoke ci loc bench bench-e2e bench-compare chaos rollout-selftest learn-selftest

all: build

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# The assembly kernels are amd64-only; every other architecture runs
# the portable loops, and 32-bit ones also test the atomic-alignment
# layout. Building for one of each keeps both compiling.
build-cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

# Tier-1 verify (ROADMAP.md).
verify: build build-cross test

vet:
	$(GO) vet ./...

# Static analysis gate: the stock go vet suite plus the seven
# project-specific analyzers — zero-alloc hot paths and their
# call-graph closure, 32-bit atomic alignment, atomic mixed access,
# lock-copy hygiene, //osap:guardedby lock discipline, determinism
# (DESIGN.md §8, §12). Fixture packages under testdata/ are excluded
# by ./... expansion.
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
# step decoder against encoding/json), FuzzFrame, FuzzExperienceLog,
# FuzzManifest, FuzzArtifactPayload, FuzzReadCooked, FuzzReadMahiMahi.
# A target is found by its declaration, so a new one is run without
# being listed here.
fuzz-smoke:
	@grep -rl --include='*_test.go' '^func Fuzz' . | sort | while read f; do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "== $$(dirname $$f) $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s $$(dirname $$f) || exit 1; \
		done; \
	done

ci: verify vet lint fmt-check race chaos rollout-selftest learn-selftest

# Non-test lines of Go and assembly per package and in total — the size
# ROADMAP.md tracks. Counts every line of each .go and .s file that is
# not a _test.go file and not under a testdata/ directory.
loc:
	@find . -name testdata -prune -o -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

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

# Fault-injection selftest (DESIGN.md §9, §13) under the race detector:
# 1000 concurrent sessions, once per fault script and transport. -chaos
# plays seeded inference panics, NaN/Inf scores, injected overload,
# slow and aborting clients; -recovery plays the demote → recover →
# re-demote → latch pattern cycle under probation. Both assert no
# crash, no dropped step, every session's demoted flag at every step
# against the schedule's replay of the session state machine, the
# replay's exact totals on /metrics, /healthz and /dashboard, and a
# clean drain. Overload is injected by HTTP middleware on one transport
# and per frame on the other; the totals are the same.
chaos:
	$(GO) run -race $(LDFLAGS) ./cmd/osap-serve -chaos -transport http
	$(GO) run -race $(LDFLAGS) ./cmd/osap-serve -chaos -transport binary
	$(GO) run -race $(LDFLAGS) ./cmd/osap-serve -recovery -transport http
	$(GO) run -race $(LDFLAGS) ./cmd/osap-serve -recovery -transport binary

# Hot-reload/canary selftest (DESIGN.md §11): publish versions into a
# throwaway registry, stage a 10% canary under a 1000-client wave and
# auto-promote it (asserting pinned sessions decide bit-identically
# across the swap and /dashboard drift quantiles match a sequential
# reference), then auto-roll-back a poisoned candidate and refuse a
# bit-flipped one — zero dropped steps throughout.
rollout-selftest:
	$(GO) run $(LDFLAGS) ./cmd/osap-serve -rollout

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
	$(GO) run $(LDFLAGS) ./cmd/osap-serve -learn
