# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install lint test test-all bench bench-perf bench-baseline \
	figures figures-par figures-smoke claims-smoke perfbench-smoke \
	reliability-smoke service-smoke \
	fabric-smoke autotune-smoke traffic-smoke check-docs examples clean

install:
	$(PYTHON) -m pip install -e .[dev]

# Lint with ruff when available; skip (successfully) when the
# environment doesn't ship it, so `make lint` is safe everywhere but
# still propagates real findings where ruff exists (e.g. CI).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks scripts; \
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
# throughput per backend (reference / batch) plus the autotune
# explorer's cold/warm-cache passes, then fail if anything regressed
# past the committed baseline (BENCH_reliability.json at the repo root,
# schema v5) or a speedup ratio fell under its floor.  See
# scripts/check_bench.py.
bench-perf:
	PYTHONPATH=src:benchmarks $(PYTHON) \
		benchmarks/bench_reliability_throughput.py \
		--out benchmarks/results/BENCH_reliability.json
	$(PYTHON) scripts/check_bench.py

# Refresh the committed schema-v5 baseline after an intentional kernel
# change.
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
# whole --json figure document, IPC section included, regenerated at a
# small size with the result cache off, must be byte-identical at
# --jobs 1 and --jobs 2, and its IPC section must hold all 14
# benchmarks' org-vs-ours rows.
FIGURES_SMOKE_ARGS = --no-cache --refs 6000 --warmup 2000
FIGURES_SMOKE_IPC_ROWS = 'import json, sys; \
	ipc = [s for s in json.load(sys.stdin)["sections"] if s["title"].startswith("IPC")]; \
	sys.exit(len(ipc) != 1 or len(ipc[0]["series"]) != 14)'
figures-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro figures --json $$tmp/jobs1.json \
		$(FIGURES_SMOKE_ARGS) --jobs 1 && \
	PYTHONPATH=src $(PYTHON) -m repro figures --json $$tmp/jobs2.json \
		$(FIGURES_SMOKE_ARGS) --jobs 2 && \
	cmp $$tmp/jobs1.json $$tmp/jobs2.json && \
	$(PYTHON) -c $(FIGURES_SMOKE_IPC_ROWS) < $$tmp/jobs1.json && \
	echo "figures-smoke: --jobs 1 and --jobs 2 documents are identical" \
		"(14 IPC rows)"; \
	status=$$?; rm -rf $$tmp; exit $$status

# Paper-claims gate (EXPERIMENTS.md): regenerate the bench-size figures
# document with the result cache off, require it byte-identical to the
# committed benchmarks/results/figures.json, then check every paper
# claim against it and EXPERIMENTS.md's measured tables against it
# (scripts/check_claims.py).  ~1 min at --jobs 2.
CLAIMS_SMOKE_ARGS = --refs 120000 --warmup 40000 --jobs 2 --no-cache
claims-smoke:
	@tmp=$$(mktemp -d) && \
	PYTHONPATH=src $(PYTHON) -m repro figures --json $$tmp/figures.json \
		$(CLAIMS_SMOKE_ARGS) && \
	cmp $$tmp/figures.json benchmarks/results/figures.json && \
	$(PYTHON) scripts/check_claims.py; \
	status=$$?; rm -rf $$tmp; exit $$status

# perfbench correctness gate (perfbench/README.md): one traced `figures`
# run at --seconds 1 must report 0 failed operations — every pass with
# the same output digest, every reference-mode cell through
# check_invariants, the L2 replay ending in the recorded run's state.
# A correctness gate, not a timing gate (~50 s on a 2-vCPU VM).
PERFBENCH_SMOKE_ARGS = --workload figures --seed 1 --seconds 1 --trace 1
PERFBENCH_SMOKE_CHECK = 'import json, sys; sys.exit(json.load(sys.stdin)["failed"] != 0)'
perfbench-smoke:
	@last=$$($(PYTHON) perfbench/run.py $(PERFBENCH_SMOKE_ARGS) | tail -n 1); \
	if echo "$$last" | $(PYTHON) -c $(PERFBENCH_SMOKE_CHECK); then \
		echo "perfbench-smoke: 0 failed operations"; \
	else \
		echo "perfbench-smoke: FAILED: $$last"; exit 1; \
	fi

# Reliability determinism gate (docs/reliability.md), well under 30 s:
# a small auto campaign prints the same table at --jobs 1 and --jobs 2;
# a tiny fixed-trials rowcol campaign prints the same table under the
# batch and the reference kernel; a re-run from the auto campaign's
# checkpoint executes no shard and prints the first run's table, and so
# does a run resumed from the checkpoint's first six shards.
# Timing lines are dropped, and the resume
# comparison also drops the resumed / executed bookkeeping line.
RELIABILITY_SMOKE_AUTO = --trials auto --target 0.005 \
	--trials-per-shard 250 --shards-per-round 4 --no-cache
RELIABILITY_SMOKE_FIXED = --trials 1500 --trials-per-shard 250 \
	--scenario rowcol --codec rs-symbol --no-cache
RELIABILITY_SMOKE_TIMING = '^(sweep|profile):'
RELIABILITY_SMOKE_BOOKKEEPING = '^resumed / executed shards '
reliability-smoke:
	@tmp=$$(mktemp -d) && \
	run() { PYTHONPATH=src $(PYTHON) -m repro reliability "$$@"; } && \
	table() { grep -Ev $(RELIABILITY_SMOKE_TIMING) "$$1"; } && \
	run $(RELIABILITY_SMOKE_AUTO) --jobs 1 \
		--checkpoint $$tmp/ck.jsonl > $$tmp/jobs1.out && \
	run $(RELIABILITY_SMOKE_AUTO) --jobs 2 > $$tmp/jobs2.out && \
	table $$tmp/jobs1.out > $$tmp/jobs1.table && \
	table $$tmp/jobs2.out > $$tmp/jobs2.table && \
	grep -q '^uniform-ecc ' $$tmp/jobs1.table && \
	cmp $$tmp/jobs1.table $$tmp/jobs2.table && \
	run $(RELIABILITY_SMOKE_FIXED) --kernel batch > $$tmp/batch.out && \
	run $(RELIABILITY_SMOKE_FIXED) --kernel reference > $$tmp/ref.out && \
	table $$tmp/batch.out > $$tmp/batch.table && \
	table $$tmp/ref.out > $$tmp/ref.table && \
	grep -q '^uniform-ecc ' $$tmp/batch.table && \
	cmp $$tmp/batch.table $$tmp/ref.table && \
	run $(RELIABILITY_SMOKE_AUTO) --jobs 1 \
		--checkpoint $$tmp/ck.jsonl > $$tmp/resumed.out && \
	grep -Eq '^resumed / executed shards +[1-9][0-9]* / 0 *$$' \
		$$tmp/resumed.out && \
	table $$tmp/resumed.out | grep -Ev $(RELIABILITY_SMOKE_BOOKKEEPING) \
		> $$tmp/resumed.table && \
	grep -Ev $(RELIABILITY_SMOKE_BOOKKEEPING) $$tmp/jobs1.table \
		> $$tmp/first.table && \
	cmp $$tmp/first.table $$tmp/resumed.table && \
	head -n 7 $$tmp/ck.jsonl > $$tmp/prefix.jsonl && \
	run $(RELIABILITY_SMOKE_AUTO) --jobs 1 \
		--checkpoint $$tmp/prefix.jsonl > $$tmp/prefix.out && \
	table $$tmp/prefix.out | grep -Ev $(RELIABILITY_SMOKE_BOOKKEEPING) \
		> $$tmp/prefix.table && \
	cmp $$tmp/first.table $$tmp/prefix.table && \
	echo "reliability-smoke: --jobs 1/2, batch/reference and" \
		"checkpoint-resume tables are identical"; \
	status=$$?; rm -rf $$tmp; exit $$status

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
