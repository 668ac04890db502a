# Local mirror of .github/workflows/ci.yml: each target matches one CI
# job, so `make ci` reproduces exactly what CI runs.

GO ?= go

.PHONY: build test race bench bench-json bench-compare kernel-equivalence lint chaos crash resume fleet-soak fuzz-smoke sketch-smoke topo-smoke cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race target certifies the deterministic parallel replication
# engine (internal/parallel) and every fan-out built on it. The
# experiments package re-runs whole artifact suites under the detector
# and sits near go test's default 10-minute per-package timeout, so the
# limit is raised explicitly.
race:
	$(GO) test -race -timeout 30m ./...

# One iteration per benchmark: a smoke run that keeps bench_test.go
# compiling and completing, matching the CI bench-smoke job. Full
# measurement runs are `go test -bench=. -benchmem` at the repo root.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-json measures the event-kernel and simulation suites (the
# deep-churn EventKernelChurn matrix, the internet-scale SimRun10M and
# the checkpoint encoder's Checkpoint10M) alongside the telemetry,
# gateway, fleet and topology suites, records name → ns/op, B/op,
# allocs/op in BENCH_PR10.json, and gates the steady-state
# zero-allocation contract: SimRun10M and the churn benchmarks of both
# kernels must record 0 allocs/op.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_PR10.json -benchtime 1s \
		./internal/des ./internal/sim \
		./internal/telemetry ./internal/gateway ./internal/fleet ./internal/topo
	$(GO) run ./cmd/benchjson gate \
		-pattern 'BenchmarkSimRun10M|BenchmarkEventKernelChurn' \
		-max-allocs 0 BENCH_PR10.json

# bench-compare re-measures the perf-critical benchmark suites (event
# kernel, samplers, simulation engines, gateway hot path), records them
# in BENCH_PR4.json, and fails if any benchmark regressed against the
# committed BENCH_PR4_BASELINE.json — more than 15% ns/op growth, or
# any allocs/op growth at all.
bench-compare:
	$(GO) run ./cmd/benchjson -out BENCH_PR4.json -benchtime 1s \
		./internal/des ./internal/dist ./internal/sim ./internal/gateway
	$(GO) run ./cmd/benchjson compare BENCH_PR4_BASELINE.json BENCH_PR4.json

# kernel-equivalence proves the timing-wheel kernel observationally
# identical to the heap reference: randomized kernel fire-sequence
# equality, golden-scenario fingerprint parity, and byte-identical
# experiment artifacts across backends and worker counts.
kernel-equivalence:
	$(GO) test -run 'Kernel|Wheel' -count=1 \
		./internal/des ./internal/sim ./internal/experiments

# The gateway and fleet chaos suites under the race detector across the
# same fault seeds CI sweeps. Override with CHAOS_SEEDS="42" for a
# single seed.
CHAOS_SEEDS ?= 1 7 1905
chaos:
	@for s in $(CHAOS_SEEDS); do \
		echo "chaos seed $$s"; \
		WORMGATE_CHAOS_SEED=$$s $(GO) test -race -run 'Chaos' -count=1 ./internal/gateway ./internal/fleet || exit 1; \
	done

# The crash suites under the race detector: every WAL write/fsync/
# snapshot/rename point is crashed in turn and recovery must reproduce
# an acknowledged prefix of the limiter's history (internal/durable),
# a fleet peer killed mid-gossip must restart from its WAL still
# enforcing and re-serving every alert it had acknowledged
# (internal/fleet), and the checkpoint directory/journal layer crashed
# at every filesystem operation must recover exactly the last
# acknowledged generation or record prefix (internal/simstate). Seeds
# match the CI matrix; override with CRASH_SEEDS="42" for a single
# seed.
CRASH_SEEDS ?= 1 7 1905
crash:
	@for s in $(CRASH_SEEDS); do \
		echo "crash seed $$s"; \
		WORMGATE_CRASH_SEED=$$s $(GO) test -race -run 'Crash' -count=1 ./internal/durable ./internal/fleet ./internal/simstate || exit 1; \
	done

# The resume-equivalence suite: checkpointed runs, kernel-crossing
# resumes and the sim-layer seed sweep (goldenSeeds 1/7/1905 × both
# kernels live inside the tests), the simstate directory/journal
# contracts, the Monte-Carlo progress journal, and the wormsim CLI
# end-to-end resume — swept across extra trajectory seeds to match the
# CI resume matrix. Override with RESUME_SEEDS="42" for a single seed.
RESUME_SEEDS ?= 1 7 1905
resume:
	$(GO) test -run 'Checkpoint|Resume|Journal|Dir' -count=1 \
		./internal/sim ./internal/simstate ./internal/experiments
	@for s in $(RESUME_SEEDS); do \
		echo "resume seed $$s"; \
		WORMSIM_RESUME_SEED=$$s $(GO) test -run 'RunCheckpoint' -count=1 ./cmd/wormsim || exit 1; \
	done

# The fleet soak: a seeded workload of randomized traffic, partitions
# and heals across a (seed × fleet size) matrix; every cell must
# converge to a byte-identical immunization set on every peer, twice,
# with identical final state both times. Matches the CI fleet-soak
# matrix; override either axis, e.g. FLEET_SIZES="8".
FLEET_SEEDS ?= 1 7 1905
FLEET_SIZES ?= 2 4 8
fleet-soak:
	@for s in $(FLEET_SEEDS); do \
		for n in $(FLEET_SIZES); do \
			echo "fleet soak seed $$s size $$n"; \
			WORMGATE_FLEET_SEED=$$s WORMGATE_FLEET_SIZE=$$n \
				$(GO) test -race -run 'FleetSoak' -count=1 ./internal/fleet || exit 1; \
		done; \
	done

# The sketch estimator's accuracy study in smoke mode, matching the CI
# sketch-accuracy job: the golden fingerprints in
# internal/experiments/testdata/golden_sketch.json pin the artifact's
# output byte-for-byte at fixed seeds, and the worker-invariance test
# re-runs it across worker counts. Regenerate the goldens only for an
# intentional sample-path change:
#   go test -run TestSketchAccuracyGolden -update-sketch ./internal/experiments
sketch-smoke:
	$(GO) test -run 'Sketch' -count=1 ./internal/experiments

# The topology suite in smoke mode, matching the CI topo-smoke job:
# graph-generation goldens, the spectral-threshold property tests, the
# infection-tree validators, and the topology-containment artifact's
# golden fingerprints plus worker invariance. Regenerate the goldens
# only for an intentional sample-path change:
#   go test -run TestTopo -update-topo ./internal/topo ./internal/experiments
topo-smoke:
	$(GO) test -run 'Topo' -count=1 ./internal/topo ./internal/sim ./internal/experiments

# Ten seconds of native fuzzing per target, matching the CI fuzz-smoke
# job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPrometheusWriter -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzReportLine -fuzztime 10s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzAdjacencyParser -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/sim

# Coverage floors: the deployable network path (internal/gateway), the
# durability layer (internal/durable), the containment policy plus
# sketch estimator (internal/core) and the graph topology layer
# (internal/topo). CI fails below 88.8% / 85% / 94% / 90%. Profiles are
# written into the gitignored coverage/ dir, never the repo root.
cover:
	@mkdir -p coverage
	$(GO) test -count=1 -coverprofile=coverage/cover.out ./internal/gateway
	@total=$$($(GO) tool cover -func=coverage/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/gateway coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 88.8) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the 88.8% floor" >&2; exit 1; }
	$(GO) test -count=1 -coverprofile=coverage/cover-durable.out ./internal/durable
	@total=$$($(GO) tool cover -func=coverage/cover-durable.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/durable coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 85.0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the 85% floor" >&2; exit 1; }
	$(GO) test -count=1 -coverprofile=coverage/cover-core.out ./internal/core
	@total=$$($(GO) tool cover -func=coverage/cover-core.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/core coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 94.0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the 94% floor" >&2; exit 1; }
	$(GO) test -count=1 -coverprofile=coverage/cover-topo.out ./internal/topo
	@total=$$($(GO) tool cover -func=coverage/cover-topo.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/topo coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 90.0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the 90% floor" >&2; exit 1; }

lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...

ci: lint build test race chaos crash resume fleet-soak sketch-smoke topo-smoke kernel-equivalence cover bench
