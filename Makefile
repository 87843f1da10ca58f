PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test test-slow fuzz-smoke fault-smoke fuzz fuzz-corpus corpus-replay corpus-minimize lint ruff verify-examples profile profile-json bench bench-smoke cli-smoke cache-smoke history report

# Tier-1 suite (what CI runs).
test:
	$(PYTHON) -m pytest -x -q

# Tier-1 plus the raised-budget hypothesis variants.
test-slow:
	$(PYTHON) -m pytest -x -q --runslow

# The fixed-seed differential fuzzing pass that ships inside tier-1,
# plus a deterministic smoke-tier coverage-guided run (ephemeral
# corpus, fixed master seed).
fuzz-smoke:
	$(PYTHON) -m pytest -q -m fuzz_smoke
	$(PYTHON) -m repro fuzz run --tier smoke --budget 40 --master-seed 1

# Fault-injection matrix: crashing/hanging/erroring workers against
# the repro.exec runtime (docs/resilience.md).
fault-smoke:
	$(PYTHON) -m pytest -q -m fault_smoke

# Long-run fuzzing: many seeds, bigger DFGs, parallel workers.
# Failures shrink automatically and land in artifacts/ as repro
# scripts.  Tune with e.g. `make fuzz SEEDS=1000 JOBS=8`.
SEEDS ?= 200
JOBS ?= 4
OPS ?= 14
fuzz:
	$(PYTHON) -m repro fuzz --seeds $(SEEDS) --jobs $(JOBS) --ops $(OPS)

# Coverage-guided corpus fuzzing: mutate recipes, keep whatever lights
# new coverage in $(CORPUS), shrink failures into artifacts/.  Tune
# with e.g. `make fuzz-corpus TIER=deep JOBS=8 MASTER_SEED=3`.
CORPUS ?= .repro-corpus
TIER ?= standard
MASTER_SEED ?= 1
fuzz-corpus:
	$(PYTHON) -m repro fuzz run --corpus $(CORPUS) --tier $(TIER) \
		--master-seed $(MASTER_SEED) --jobs $(JOBS)

# Re-run every corpus entry (the checked-in regression corpus by
# default): each must synthesize clean, fingerprints must match.
corpus-replay:
	$(PYTHON) -m repro fuzz replay --corpus tests/corpus --jobs $(JOBS)

# Drop local-corpus entries that no longer add coverage.
corpus-minimize:
	$(PYTHON) -m repro fuzz minimize --corpus $(CORPUS) --jobs $(JOBS)

# Whole-pipeline linter (docs/static-analysis.md).  Fails only on
# error-severity findings (exit 2): warnings are legitimate on honest
# sources (e.g. diffeq's folded-away temporaries).  Also asserts that
# both seeded demos still trip the linter, and replays the fuzz
# corpus through the interval analysis (every simulated value must
# stay inside its inferred range).
lint:
	$(PYTHON) -m repro lint examples/sqrt.hls
	$(PYTHON) -m repro lint --workloads; test $$? -lt 2
	! $(PYTHON) -m repro lint examples/lint_demo.hls > /dev/null
	! $(PYTHON) -m repro lint examples/range_demo.hls > /dev/null
	$(PYTHON) -m pytest -q tests/test_ranges.py -k soundness

# Python-source lint (config in pyproject.toml: syntax errors and
# pyflakes-class defects only).  Skips quietly when ruff is not on
# PATH — the container image does not ship it; CI installs it.
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping"; \
	fi

# Per-stage timing of the paper's sqrt example (span tracing on).
profile:
	$(PYTHON) -m repro profile examples/sqrt.hls --fu 2

profile-json:
	$(PYTHON) -m repro profile examples/sqrt.hls --fu 2 --format json

# Full perf harness; writes BENCH_dse.json (store, narrow, directives).
bench:
	$(PYTHON) benchmarks/perf/run_bench.py

# Correctness smoke of the benchmark (perfbench/README.md): one short
# run per workload at a fixed seed, which co-simulates every design it
# synthesizes against references outside the synthesis path.  Fails
# unless each run's last line reports "correct": true; no timing gate.
# Traced dse and edit runs follow: the tracer wraps the allocators, the
# datapath planner, resynthesize, diff_cdfgs and the other layer entry
# points, so each must still run clean and report every per-layer
# metric BENCHMARK.json declares.
BENCH_CHECK := import json, sys; r = json.loads(sys.stdin.read()); \
	print({k: r[k] for k in ("correct", "attempted", "failed")}); \
	sys.exit(r["correct"] is not True)
BENCH_TRACE_CHECK := import json, sys; r = json.loads(sys.stdin.read()); \
	declared = json.load(open("BENCHMARK.json"))["per_layer"]; \
	missing = [m["name"] for m in declared \
		if m["name"] not in r["metrics"]]; \
	print({"correct": r["correct"], "missing": missing}); \
	sys.exit(r["correct"] is not True or bool(missing))
bench-smoke:
	@for workload in scale dse edit; do \
		echo "perfbench $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 1 --trace 0 | tail -n 1 \
			| $(PYTHON) -c '$(BENCH_CHECK)' || exit 1; \
	done
	@for workload in dse edit; do \
		echo "perfbench $$workload --trace 1"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 1 --trace 1 | tail -n 1 \
			| $(PYTHON) -c '$(BENCH_TRACE_CHECK)' || exit 1; \
	done

# Every CLI verb once, each in a fresh interpreter, checked against its
# documented exit code.  The verbs import what they run inside their
# own bodies, and tests/test_cli.py runs them in a process that has
# imported everything already, so only a fresh interpreter shows a
# missing import.
cli-smoke:
	$(PYTHON) benchmarks/cli_smoke.py

# Run-ledger views (docs/observability.md).  Tune with e.g.
# `make report LEDGER=.repro-ledger`.
LEDGER ?= .repro-ledger
history:
	$(PYTHON) -m repro history --ledger $(LEDGER)

# Exit codes: 0 clean, 1 warnings only, 2 regression.
report:
	$(PYTHON) -m repro report --ledger $(LEDGER)

# Cross-process smoke of the persistent design store: a cold sweep
# populates a throwaway store, a warm sweep must hit it and produce
# identical rows (docs/performance.md).
cache-smoke:
	$(PYTHON) benchmarks/perf/cache_smoke.py

# Stage contracts + full differential matrix on the example sources.
verify-examples:
	$(PYTHON) -c "from repro.workloads import SQRT_SOURCE; open('/tmp/sqrt.bsl','w').write(SQRT_SOURCE)"
	$(PYTHON) -m repro verify /tmp/sqrt.bsl --differential
