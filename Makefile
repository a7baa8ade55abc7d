GO ?= go

.PHONY: all build vet test race serve-race fork-race verify bench bench-device bench-tools fuzz-tools fuzz-smoke fuzz serve-tools serve-smoke dash-smoke surface-smoke loc fmt clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving plane runs every tenant operation on its request's
# goroutine under the tenant's lock, so its concurrency tests get five
# race-detector passes instead of the one `make race` gives them: the
# multi-tenant hammer, panic quarantine, the queue-depth shed and
# fork-under-load.
serve-race:
	$(GO) test -race -count=5 -run 'TestMultiTenantHammer|TestPanicQuarantinesTenant|TestQueueShedAtDepth|TestForkTenantUnderLoad' ./internal/serve/

# A forked controller shares its metadata caches and shadow mirrors
# with its parent copy-on-write, where an atomic holder count decides
# which side copies, and its device's page-directory chunks and pages,
# where owner tags do. So the fork tests get three race-detector
# passes: the cache's clone tests, the device's and the shadow
# mirrors' three-goroutine writer tests, the controller fork and
# crash-cost tests, and the recovery sweeps that fork one warm
# controller per crash point.
fork-race:
	$(GO) test -race -count=3 -run 'Clone|Fork|DropAll|RecoverySweep|RecoveryDeterministic' ./internal/cache/ ./internal/nvm/ ./internal/shadow/ ./internal/memctrl/ ./internal/figures/

# Tier-1 gate: everything compiles, vets clean, and the full suite
# passes both plainly (where the zero-alloc assertions and the seed-99
# golden test, internal/figures TestGoldenSeed99, run) and under the
# race detector (where they are skipped), with serve's concurrency tests
# and the fork tests repeated under it (serve-race, fork-race). The
# suite includes the root package's TestInternalFunctionsHaveCallers,
# which fails on any function under internal/ that no non-test code
# (perfbench/ included) names.
# bench-tools/fuzz-tools are build-only smokes for the tooling — no
# wall-clock gate.
verify: build vet test race serve-race fork-race bench-tools fuzz-tools serve-tools dash-smoke surface-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# NVM device micro-benchmarks: paged-store reads/writes and the
# WPQ/port scheduler, including the drain-watermark read path.
bench-device:
	$(GO) test -run xxx -bench 'BenchmarkDevice' -benchmem ./internal/nvm/

# Build-only smoke: anubis-bench keeps compiling, and the perfbench
# module (its own go.mod, so `go build ./...` never sees it) vets and
# passes its unit tests against the current packages. Deliberately runs
# no benchmarks (wall-clock is too noisy to gate tier-1 on).
bench-tools:
	$(GO) build -o /dev/null ./cmd/anubis-bench
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Build-only smoke: the crash-injection fuzzer CLI keeps compiling.
fuzz-tools:
	$(GO) build -o /dev/null ./cmd/anubis-fuzz

# Build-only smoke: the multi-tenant service and its kvstore client
# keep compiling.
serve-tools:
	$(GO) build -o /dev/null ./cmd/anubis-serve
	$(GO) build -o /dev/null ./examples/kvstore

# End-to-end service smoke: a real anubis-serve process with 8
# concurrent kvstore tenants, a mid-workload crash+recovery of one
# tenant, quota/WPQ sheds answered with 429 and counted in /metrics,
# and a graceful-shutdown → restart → audit-clean cycle (see
# scripts/serve_smoke.sh).
serve-smoke:
	bash scripts/serve_smoke.sh

# Headless dashboard + flight-recorder smoke: the embedded /dash page
# serves with every section marker, /debug/dash.json stays parseable
# and carries the recorder's events oldest first, and the serve plane
# records the full request/crash/recover event life cycle. Pure `go test` — no
# browser, no server process — so it is cheap enough for tier-1.
dash-smoke:
	$(GO) test -count=1 -run 'TestDash' ./internal/obs/
	$(GO) test -count=1 -run 'TestFlightRecorder|TestServeWithoutRecorder' ./internal/serve/

# Library-surface smoke: the examples and CLIs a user drives first,
# each of which exits non-zero on failure — quickstart, the four
# attacks (each must be detected), checkpoint, anubis-recover over every
# scheme name, and an anubis-fsck create → audit round trip of a Triad
# image in a temp dir.
surface-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attacks
	$(GO) run ./examples/checkpoint
	$(GO) run ./cmd/anubis-recover
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/anubis-fsck -scheme triad -create "$$tmp/triad.img" && \
		$(GO) run ./cmd/anubis-fsck -scheme triad "$$tmp/triad.img"

# Short native-fuzz run: each crashfuzz target gets 10 s of coverage-
# guided mutation on top of its seed corpus. Failures are shrunk by
# re-running the printed token through `anubis-fuzz -replay` (see
# EXPERIMENTS.md "Crash-injection fuzzing"). Then each word-parallel
# block kernel (SECDED, counter blocks, ASIT shadow entries) gets 5 s
# against the reference implementation in its test file, and so does
# the controller's open, which decrypts and SECDED-checks one 8-byte
# word at a time, against decrypting the whole block first.
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzTrial$$' -fuzztime 10s ./internal/crashfuzz/
	$(GO) test -run xxx -fuzz 'FuzzParseSchedule$$' -fuzztime 10s ./internal/crashfuzz/
	$(GO) test -run xxx -fuzz 'FuzzBlockKernels$$' -fuzztime 5s ./internal/ecc/
	$(GO) test -run xxx -fuzz 'FuzzCodecs$$' -fuzztime 5s ./internal/counter/
	$(GO) test -run xxx -fuzz 'FuzzSTEntryCodec$$' -fuzztime 5s ./internal/shadow/
	$(GO) test -run xxx -fuzz 'FuzzOpen$$' -fuzztime 5s ./internal/memctrl/

# Long differential fuzz: 500 seeded random schedules across every
# scheme × crash model combination (the PR acceptance run).
fuzz:
	$(GO) run ./cmd/anubis-fuzz -trials 500 -seed 99

# Non-test Go lines outside perfbench/: the size figure each change
# reports in CHANGES.md. Informational; nothing gates on it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

fmt:
	gofmt -w .

# Removes build and profiling output only; results/BENCH_*.json are
# checked-in history.
clean:
	rm -rf .bench_build *.pprof trace.out
