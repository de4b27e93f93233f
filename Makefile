# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install lint test test-all bench bench-perf bench-baseline \
	figures figures-par figures-smoke ipc-smoke reliability-smoke \
	service-smoke \
	fabric-smoke autotune-smoke traffic-smoke check-docs examples clean

install:
	$(PYTHON) -m pip install -e .[dev]

# Lint with ruff when available; skip (successfully) when the
# environment doesn't ship it, so `make lint` is safe everywhere but
# still propagates real findings where ruff exists (e.g. CI).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

test:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Docs-consistency gate: every CLI verb and long option must be
# mentioned somewhere in README.md / EXPERIMENTS.md / docs/*.md.
check-docs:
	$(PYTHON) scripts/check_docs.py

test-all:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The CI performance-regression gate: measure injection-kernel
# throughput per backend (reference / batch / vector when numpy is
# installed) plus the autotune explorer's cold/warm-cache passes, then
# fail if anything regressed past the committed baseline
# (BENCH_reliability.json at the repo root, schema v5) or a speedup
# ratio fell under its floor.  See scripts/check_bench.py.
bench-perf:
	PYTHONPATH=src:benchmarks $(PYTHON) \
		benchmarks/bench_reliability_throughput.py \
		--out benchmarks/results/BENCH_reliability.json
	$(PYTHON) scripts/check_bench.py

# Refresh the committed schema-v5 baseline after an intentional kernel
# change (run with the [fast] extra installed so the vector backend is
# part of the baseline).
bench-baseline:
	PYTHONPATH=src:benchmarks $(PYTHON) \
		benchmarks/bench_reliability_throughput.py \
		--out BENCH_reliability.json

figures:
	$(PYTHON) -m repro figures

# Parallel figure regeneration through the sweep pool with the on-disk
# result cache (see EXPERIMENTS.md "Parallel sweeps").
JOBS ?= 4
figures-par:
	$(PYTHON) -m repro figures --jobs $(JOBS)

# Figure-determinism gate (EXPERIMENTS.md "Parallel sweeps"): the
# whole --json figure document, regenerated at a small size with the
# result cache off, must be byte-identical at --jobs 1 and --jobs 2.
FIGURES_SMOKE_ARGS = --no-ipc --no-cache --refs 6000 --warmup 2000
figures-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro figures --json $$tmp/jobs1.json \
		$(FIGURES_SMOKE_ARGS) --jobs 1 && \
	PYTHONPATH=src $(PYTHON) -m repro figures --json $$tmp/jobs2.json \
		$(FIGURES_SMOKE_ARGS) --jobs 2 && \
	cmp $$tmp/jobs1.json $$tmp/jobs2.json && \
	echo "figures-smoke: --jobs 1 and --jobs 2 documents are identical"; \
	status=$$?; rm -rf $$tmp; exit $$status

# IPC-table determinism gate: the `--fig ipc` org-vs-ours table (every
# benchmark through the out-of-order core, which figures-smoke skips
# with --no-ipc), regenerated at a small size with the result cache
# off, must be identical at --jobs 1 and --jobs 2.  The timing lines
# (`sweep:`, `profile:` and its per-phase rows) legitimately differ and
# are dropped before the comparison.
IPC_SMOKE_ARGS = --fig ipc --refs 6000 --warmup 2000 --no-cache
IPC_SMOKE_TIMING = '^(sweep|profile):|^  [a-z-]+: [0-9.]+s(,|$$)'
ipc-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro figures $(IPC_SMOKE_ARGS) --jobs 1 \
		> $$tmp/jobs1.out && \
	PYTHONPATH=src $(PYTHON) -m repro figures $(IPC_SMOKE_ARGS) --jobs 2 \
		> $$tmp/jobs2.out && \
	grep -Ev $(IPC_SMOKE_TIMING) $$tmp/jobs1.out > $$tmp/jobs1.table && \
	grep -Ev $(IPC_SMOKE_TIMING) $$tmp/jobs2.out > $$tmp/jobs2.table && \
	grep -q '^average ' $$tmp/jobs1.table && \
	cmp $$tmp/jobs1.table $$tmp/jobs2.table && \
	echo "ipc-smoke: --jobs 1 and --jobs 2 IPC tables are identical"; \
	status=$$?; rm -rf $$tmp; exit $$status

# A fast end-to-end reliability campaign (docs/reliability.md): auto
# stopping at a loose ±2% target so it finishes well under 30 s; run
# in CI to keep the CLI verb, engine and stopping rule exercised.
reliability-smoke:
	$(PYTHON) -m repro reliability --trials auto --target 0.02 \
		--trials-per-shard 250 --shards-per-round 4 --jobs 2 --no-cache

# End-to-end job-service gate (docs/service.md): start the HTTP
# server, submit one campaign twice (must dedupe onto one job), stream
# its progress, and assert the served result document is bit-identical
# to a direct repro.api call.
service-smoke:
	PYTHONPATH=src $(PYTHON) scripts/service_smoke.py

# Distributed-fabric gate (docs/architecture.md "Campaign fabric"):
# two replicas on one data dir split one campaign's shards and merge a
# bit-identical estimate; a dead replica's leased shards are stolen
# and finished by the survivor; a fresh replica serves the finished
# key from the cluster result cache without executing.
fabric-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fabric_smoke.py

# Autotune gate (docs/autotune.md): a tiny design grid explored at
# --jobs 1 and --jobs 4 must produce bit-identical Pareto fronts, the
# front must be exactly the non-dominated set, a mid-sweep resume must
# execute only the missing points, and the CLI JSON must match the
# facade document.
autotune-smoke:
	PYTHONPATH=src $(PYTHON) scripts/autotune_smoke.py

# Traffic-aware variant gate (docs/traffic.md): silent-write must
# elide stores (and never raise traffic), wb-compress must shrink the
# write-back stream, the standard path must keep every counter at
# zero, and an area/fit/traffic autotune grid must place at least one
# traffic-aware variant on the Pareto front.
traffic-smoke:
	PYTHONPATH=src $(PYTHON) scripts/traffic_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

clean:
	rm -rf build *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
