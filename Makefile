# Tier-1 gate: everything `make check` runs must stay green.
GO ?= go

.PHONY: all build check fmt vet staticcheck test race bench-scale-smoke memo-golden-smoke cli-smoke batch-race-smoke fuzz-smoke bench-smoke clean

all: build

build:
	$(GO) build ./...

# check is the tier-1 gate: formatting, vet, staticcheck (when
# installed), the full suite under the race detector (the telemetry
# hub and the insitu driver are concurrent by design), a single-
# iteration pass over the scale benchmarks so they cannot rot, a short
# run of each fuzz target, and a vet of the benchmark module.
check: fmt vet staticcheck race bench-scale-smoke memo-golden-smoke cli-smoke batch-race-smoke fuzz-smoke bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH and is skipped (with a
# note) otherwise, so `make check` works in offline environments; CI
# installs it and gets the full gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-scale-smoke runs every scale benchmark for one iteration — a
# correctness gate (part of `make check`), not a measurement. CI runs
# it once, at the runner's default GOMAXPROCS.
bench-scale-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/mpi/
	$(GO) test -run xxx -bench 'BenchmarkInsituScale/nodes=256' -benchtime 1x ./internal/insitu/
	$(GO) test -run xxx -bench 'BenchmarkTopologies/nodes=256' -benchtime 1x ./internal/workflow/
	$(GO) test -run xxx -bench 'BenchmarkRollouts/nodes=256' -benchtime 1x ./internal/rollout/
	$(GO) test -run xxx -bench 'BenchmarkHetero/nodes=256' -benchtime 1x ./internal/cosim/
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/telemetry/
	$(GO) test -run xxx -bench 'BenchmarkBuildNeighbors|BenchmarkComputeForces' -benchtime 1x ./internal/lammps/

# memo-golden-smoke pins at the CLI that observing does not change a
# result: the same small search grid, fault-free (memoized noise) and
# faulted (live draws), must print byte-identical reports with and
# without -telemetry (instrumented rollouts take the same pooled path as
# plain ones), and the telemetry stream must not be empty. Memoized
# against live draws is pinned by TestNoiseMemoGolden.
memo-golden-smoke:
	@tmp="$${TMPDIR:-/tmp}"; \
	args="-nodes 8 -steps 20 -budgets 105,110 -policies seesaw,time-aware -faults none,slow:0@5x2+5,kill:7@10"; \
	$(GO) run ./cmd/seesawctl search $$args > "$$tmp/seesaw-memo-on.txt" && \
	$(GO) run ./cmd/seesawctl search $$args -telemetry "$$tmp/ev.jsonl" > "$$tmp/seesaw-telemetry.txt" && \
	if ! cmp -s "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-telemetry.txt"; then \
		echo "memo-on vs telemetry reports diverge:"; \
		diff "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-telemetry.txt"; exit 1; \
	fi; \
	if [ ! -s "$$tmp/ev.jsonl" ]; then \
		echo "search -telemetry wrote no events"; exit 1; \
	fi; \
	rm -f "$$tmp/seesaw-memo-on.txt" "$$tmp/seesaw-telemetry.txt" "$$tmp/ev.jsonl"; \
	echo "memo golden smoke ok: memoized and instrumented reports are byte-identical"

# cli-smoke pins two CLI routing rules and two input checks. `trace
# -topology space-shared` runs the classic driver, as the default does,
# so the two print byte-identical CSV. A job file with a topology
# honours cap_mode: an in-transit job with "long+short" runs, and one
# with "none" exits non-zero, because the workflow engine always
# installs caps. `mdrun -dump FILE -dump-every 0` exits 1 with an
# error, not a panic, and `mdrun -temp 0` (a cold start, equilibrated
# at zero temperature) exits 0.
cli-smoke:
	@tmp="$${TMPDIR:-/tmp}"; bin="$$tmp/seesawctl-cli-smoke"; mdbin="$$tmp/mdrun-cli-smoke"; \
	job='{"nodes": 8, "dim": 8, "steps": 6, "analyses": [{"name": "msd1d"}], "topology": "in-transit", "cap_mode": '; \
	$(GO) build -o "$$bin" ./cmd/seesawctl || exit 1; \
	$(GO) build -o "$$mdbin" ./cmd/mdrun || exit 1; \
	"$$mdbin" -equil 0 -steps 2 -dump "$$tmp/mdrun-cli-smoke.xyz" -dump-every 0 > /dev/null 2> "$$tmp/mdrun-cli-smoke.err"; \
	code=$$?; \
	if [ "$$code" -ne 1 ] || grep -q panic "$$tmp/mdrun-cli-smoke.err"; then \
		echo "mdrun -dump-every 0 exited $$code, want 1 without a panic:"; head -5 "$$tmp/mdrun-cli-smoke.err"; exit 1; \
	fi; \
	"$$mdbin" -temp 0 -steps 1 > /dev/null || { echo "mdrun -temp 0 failed"; exit 1; }; \
	"$$bin" trace -nodes 8 -steps 20 > "$$tmp/seesaw-trace-default.csv" || exit 1; \
	"$$bin" trace -nodes 8 -steps 20 -topology space-shared > "$$tmp/seesaw-trace-space-shared.csv" || exit 1; \
	if ! cmp -s "$$tmp/seesaw-trace-default.csv" "$$tmp/seesaw-trace-space-shared.csv"; then \
		echo "trace -topology space-shared diverges from the default driver:"; \
		diff "$$tmp/seesaw-trace-default.csv" "$$tmp/seesaw-trace-space-shared.csv" | head; exit 1; \
	fi; \
	printf '%s"long+short"}\n' "$$job" > "$$tmp/seesaw-job-long-short.json"; \
	printf '%s"none"}\n' "$$job" > "$$tmp/seesaw-job-none.json"; \
	"$$bin" job "$$tmp/seesaw-job-long-short.json" || { echo 'in-transit job with cap_mode "long+short" failed'; exit 1; }; \
	if "$$bin" job "$$tmp/seesaw-job-none.json" > /dev/null 2>&1; then \
		echo 'in-transit job with cap_mode "none" was accepted'; exit 1; \
	fi; \
	rm -f "$$bin" "$$mdbin" "$$tmp/seesaw-trace-default.csv" "$$tmp/seesaw-trace-space-shared.csv" \
		"$$tmp/seesaw-job-long-short.json" "$$tmp/seesaw-job-none.json" \
		"$$tmp/mdrun-cli-smoke.xyz" "$$tmp/mdrun-cli-smoke.err"; \
	echo "cli smoke ok: trace space-shared matches the default driver; topology jobs honour cap_mode; mdrun rejects -dump-every 0 and runs at -temp 0"

# batch-race-smoke runs one 256-node batched grid sweep under the race
# detector: the per-worker pooled episodes, the shared trace cache and
# the campaign pool all on the hot path at real concurrency.
batch-race-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkRolloutsBatch/nodes=256/jobs=4' -benchtime 1x ./internal/rollout/

# fuzz-smoke runs each native fuzz target for a few seconds: the fault
# plan grammar (-faults, jobfile "faults"), the device class-map
# grammar (-classes, jobfile "classes"), the Box–Muller kernel against
# the math package on raw generator outputs, the allocators'
# capability-weighted cap division (dead nodes, per-node ranges, budget
# conservation) and the telemetry event codec (decode, encode, decode
# again). `go test` already replays their seed corpora; this
# explores beyond them. -fuzz takes one target per run, hence one line
# per target.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzParse$$' -fuzztime 3s ./internal/fault/
	$(GO) test -run xxx -fuzz '^FuzzParseClassMap$$' -fuzztime 3s ./internal/machine/
	$(GO) test -run xxx -fuzz '^FuzzNormKernel$$' -fuzztime 3s ./internal/rng/
	$(GO) test -run xxx -fuzz '^FuzzPartitionCaps$$' -fuzztime 3s ./internal/core/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 3s ./internal/telemetry/

# bench-smoke vets the benchmark module (benchmark/, a module of its
# own that builds against this one through a replace directive). Vet
# type-checks the module and its tests; the root module's `go test
# ./...` does not build it, so without this target an API change the
# benchmark's probes depend on (machine.JitterTrace,
# Node.SetNoiseTrace, the cosim JobState API, ...) would break the
# benchmark with no check failing. The benchmark's own smoke test
# (`go test ./...` in benchmark/) is not run here: its TestSmoke fails
# until a change to the benchmark mends it (ROADMAP, "mend
# TestSmoke").
bench-smoke:
	cd benchmark && $(GO) vet ./...

clean:
	$(GO) clean ./...
