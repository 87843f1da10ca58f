"""Performance harness for the design store, datapath narrowing and
directive DSE.

Times cross-process store reuse, one-block incremental resynthesis,
range narrowing of diffeq and the directive-space funnel, and writes
the numbers to ``BENCH_dse.json`` at the repo root.  Every row also
checks that the fast side produces the same results as the slow side
(``equivalent``) — a speedup that changes answers is a bug, not a
win.  Per-stage and per-scheduler timings live elsewhere:
``repro profile`` prints the per-stage table, and ``perfbench/``
times every layer end to end.

Run it directly::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # full
    PYTHONPATH=src python benchmarks/perf/run_bench.py --budget smoke

The smoke budget (also exercised by ``tests/test_perf_smoke.py`` via
the ``perf-smoke`` marker) uses one repeat and trimmed workloads so it
stays test-suite fast; the full budget repeats each measurement and
keeps the minimum, which is robust against scheduler noise on busy
machines (noise only ever adds time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.obs import ledger as run_ledger
from repro.core import clear_synthesis_cache, resynthesize, synthesize
from repro.core.engine import SynthesisOptions
from repro.estimation import estimate_area
from repro.explore import explore_fu_range
from repro.explore.dse import measure_cycles
from repro.scheduling import ResourceConstraints
from repro.workloads.diffeq import DIFFEQ_SOURCE

REPO_ROOT = Path(__file__).resolve().parents[2]
OUTPUT = REPO_ROOT / "BENCH_dse.json"
STORE_WORKER = Path(__file__).resolve().with_name("_store_worker.py")

BUDGETS = {
    "smoke": {"repeats": 1, "store_limits": 4, "directive_limits": 3},
    "full": {"repeats": 5, "store_limits": 8, "directive_limits": 4},
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fresh(fn):
    """Run ``fn`` against a cold synthesis cache (each repeat must do
    real work, not replay the previous repeat)."""
    def wrapped():
        clear_synthesis_cache()
        return fn()
    return wrapped


# ----------------------------------------------------------------------
# Persistent-store and incremental-resynthesis benchmarks.

def _store_child(store_dir: str, limits: int) -> dict:
    """One ``_store_worker`` sweep in a child process; its JSON report."""
    env = dict(os.environ)
    env["REPRO_STORE_DIR"] = store_dir
    env.pop("REPRO_STORE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(STORE_WORKER),
         "--limits", ",".join(str(x) for x in range(1, limits + 1))],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bench_store_cross_process(limits: int, repeats: int) -> dict:
    """Cold vs warm sweep across process boundaries.

    Each cold run gets a fresh store directory; warm runs replay
    against the last cold directory.  Elapsed times come from inside
    the children, so interpreter start-up (identical on both sides)
    cannot mask the difference.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        colds = []
        for index in range(repeats):
            colds.append(
                _store_child(os.path.join(root, f"cold{index}"), limits)
            )
        warm_dir = os.path.join(root, f"cold{repeats - 1}")
        warms = [_store_child(warm_dir, limits) for _ in range(repeats)]
    cold = min(colds, key=lambda r: r["elapsed_s"])
    warm = min(warms, key=lambda r: r["elapsed_s"])
    rows = colds[0]["rows"]
    return {
        "workload": "diffeq",
        "points": len(rows),
        "cold_s": cold["elapsed_s"],
        "warm_s": warm["elapsed_s"],
        "speedup": cold["elapsed_s"] / warm["elapsed_s"],
        "cold_store_misses": cold["store_misses"],
        "warm_store_hits": warm["store_hits"],
        "warm_store_misses": warm["store_misses"],
        "equivalent": all(
            r["rows"] == rows for r in colds + warms
        ),
    }


#: Multi-block workload for the edit-resynthesize benchmark: a heavy
#: straight-line preamble, a data-dependent loop, and a small epilogue
#: holding the constant ``{c}`` the "edit" changes — so an incremental
#: run replays every block except the epilogue.
_RESYNTH_SOURCE = """
procedure pipe(input x: fixed<32,16>; input a: fixed<32,16>;
               output y: fixed<32,16>);
var t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14,
    p: fixed<32,16>;
begin
  t1 := x * x + 3.0 * x;
  t2 := t1 * x - 2.0 * t1;
  t3 := t2 * t1 + x * t2;
  t4 := t3 * t2 - t1 * t3;
  t5 := t4 * t3 + t2 * t4;
  t6 := t5 * t4 - t3 * t5;
  t7 := t6 * t5 + t4 * t6;
  t8 := t7 * t6 - t5 * t7;
  t9 := t8 * t7 + t6 * t8;
  t10 := t9 * t8 - t7 * t9;
  t11 := t10 * t9 + t8 * t10;
  t12 := t11 * t10 - t9 * t11;
  t13 := t12 * t11 + t10 * t12;
  t14 := t13 * t12 - t11 * t13;
  p := t14 + t13 * t14;
  while p < a do
  begin
    p := p + t1 * 0.125;
  end;
  y := p + {c};
end
"""


def _bench_edit_resynthesis(repeats: int) -> dict:
    """Full resynthesis vs incremental resynthesis of a one-block edit.

    ``equivalent`` is the differential-verify escape hatch: the
    incremental design's stage signatures must match a from-scratch
    synthesis of the edited source, stage by stage.
    """
    options = SynthesisOptions(
        scheduler="force-directed",
        constraints=ResourceConstraints({"fu": 2}),
    )
    base_source = _RESYNTH_SOURCE.format(c="0.5")
    edit_source = _RESYNTH_SOURCE.format(c="0.25")
    baseline = synthesize(base_source, options=options)
    verified = resynthesize(baseline, edit_source, options=options,
                            verify=True)
    full_s = _best_of(
        lambda: synthesize(edit_source, options=options), repeats
    )
    incremental_s = _best_of(
        lambda: resynthesize(baseline, edit_source, options=options),
        repeats,
    )
    return {
        "workload": "pipe (constant edit in epilogue block)",
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": full_s / incremental_s,
        "dirty_blocks": len(verified.delta.dirty),
        "replayed_blocks": len(verified.replayed_blocks),
        "rescheduled_blocks": len(verified.scheduled_blocks),
        "equivalent": bool(verified.verified),
    }


#: The diffeq operating contract (docs/static-analysis.md): every
#: input bounded to the paper's intended operating region, the step
#: size strictly positive so the loop terminates.
DIFFEQ_CONTRACT = (
    ("x0", 0.0, 1.0),
    ("y0", 0.0, 1.0),
    ("u0", 0.0, 1.0),
    ("dx", 0.0, 0.125),
    ("a", 0.0, 1.0),
)


def _bench_narrow(repeats: int) -> dict:
    """Datapath narrowing under the diffeq operating contract.

    Measures the estimated-area delta of ``--narrow --assume ...``
    against the plain pipeline, and differentially verifies that the
    narrowed design still computes the same outputs — a smaller
    datapath that changes answers is a bug, not a win.
    """
    from repro.verify import run_differential

    base_options = SynthesisOptions()
    narrow_options = SynthesisOptions(
        narrow=True, assume_ranges=DIFFEQ_CONTRACT
    )
    base = _fresh(
        lambda: synthesize(DIFFEQ_SOURCE, options=base_options)
    )()
    narrowed = _fresh(
        lambda: synthesize(DIFFEQ_SOURCE, options=narrow_options)
    )()
    base_area = estimate_area(base).total
    narrow_area = estimate_area(narrowed).total
    # The contract is *trusted*: a narrowed design only behaves for
    # inputs inside it, so both sides are measured on the same
    # in-contract vectors (full-range vectors would legitimately hang
    # the narrowed loop — see docs/static-analysis.md).
    vectors = [
        {"x0": 0.0, "y0": 1.0, "u0": 1.0, "dx": 0.125, "a": 0.5},
        {"x0": 0.25, "y0": 0.5, "u0": 0.75, "dx": 0.0625, "a": 1.0},
    ]
    base_cycles = measure_cycles(base, vectors)
    narrow_cycles = measure_cycles(narrowed, vectors)
    differential = run_differential(
        DIFFEQ_SOURCE,
        schedulers=["list"],
        allocators=["left-edge"],
        options=narrow_options,
        vectors=vectors,
    )
    baseline_s = _best_of(
        _fresh(lambda: synthesize(DIFFEQ_SOURCE, options=base_options)),
        repeats,
    )
    new_s = _best_of(
        _fresh(
            lambda: synthesize(DIFFEQ_SOURCE, options=narrow_options)
        ),
        repeats,
    )
    summary = next(
        (line for line in narrowed.log if line.startswith("narrow:")),
        "",
    )
    return {
        "workload": "diffeq (operating contract on every input)",
        "contract": {name: [lo, hi] for name, lo, hi in DIFFEQ_CONTRACT},
        "baseline_area": base_area,
        "narrowed_area": narrow_area,
        "area_saved": base_area - narrow_area,
        "area_saved_pct": (
            100.0 * (base_area - narrow_area) / base_area
            if base_area else 0.0
        ),
        "cycles": [base_cycles, narrow_cycles],
        "baseline_s": baseline_s,
        "new_s": new_s,
        "narrow_summary": summary,
        "equivalent": differential.ok,
    }


def _bench_directives(limits: list[int], repeats: int) -> dict:
    """Directive-space funnel vs the FU-only sweep on diffeq.

    Pins the tentpole's two acceptance properties: the directive sweep
    must **expand the Pareto front** (at least one point no FU-only
    point dominates) while running **at least 2× fewer** full
    synthesize+measure evaluations than the exhaustive
    configs × limits cross-product.  Measurement vectors are explicit
    in-contract inputs that actually run the integration loop — the
    default corner vectors all start at ``x0 == a``, so the loop never
    executes and every directive looks latency-identical.
    """
    from repro.explore import default_directive_space, explore_directives
    from repro.workloads import diffeq_inputs

    vectors = [diffeq_inputs(steps) for steps in (2, 4, 8)]
    configs = default_directive_space()
    baseline = _fresh(lambda: explore_fu_range(
        DIFFEQ_SOURCE, limits, vectors=vectors))()
    result = _fresh(lambda: explore_directives(
        DIFFEQ_SOURCE, limits, configs=configs, vectors=vectors))()
    funnel = result.funnel

    base_front = [(p.area, p.latency_ns) for p in baseline.pareto]
    new_nondominated = sum(
        1 for p in result.pareto
        if not any(a <= p.area and l <= p.latency_ns
                   for a, l in base_front)
    )
    # The baseline's configuration (no directives, list/left-edge) is
    # one cell of the directive space: wherever the funnel kept it,
    # both sweeps must have measured the very same design.
    plain = {
        str(p.constraints): (p.area, p.cycles, p.clock_ns)
        for p in result.points
        if p.config.transforms == (False, False, False)
        and p.config.scheduler == "list"
        and p.config.allocator == "left-edge"
    }
    equivalent = all(
        plain[str(p.constraints)] == (p.area, p.cycles, p.clock_ns)
        for p in baseline.points
        if str(p.constraints) in plain
    )
    new_s = _best_of(
        _fresh(lambda: explore_directives(
            DIFFEQ_SOURCE, limits, configs=configs, vectors=vectors)),
        repeats,
    )
    return {
        "workload": "diffeq (loop-exercising in-contract vectors)",
        "configs": len(configs),
        "limits": limits,
        "exhaustive": funnel["exhaustive"],
        "configs_evaluated": funnel["configs_evaluated"],
        "configs_pruned": funnel["configs_pruned"],
        "funnel": {
            key: funnel[key]
            for key in ("duplicates_pruned", "estimate_pruned",
                        "schedule_pruned", "schedule_failed")
        },
        "prune_ratio": (
            funnel["exhaustive"] / funnel["configs_evaluated"]
            if funnel["configs_evaluated"] else float("inf")
        ),
        "front_baseline": len(baseline.pareto),
        "front_directives": len(result.pareto),
        "new_nondominated": new_nondominated,
        "new_s": new_s,
        "equivalent": equivalent,
    }


def _ledger_records(report: dict) -> None:
    """One ``bench`` record per benchmark row when a ledger is active.

    Each row's comparable timing (the fast-path side of the
    comparison) becomes the record's ``wall_s``; the full row rides in
    ``extra`` so ``repro report`` can gate on ``wall_s`` while
    ``repro history --format json`` still shows speedups.
    """
    ledger = run_ledger.active_ledger()
    if ledger is None:
        return
    for section in ("directives", "store", "narrow"):
        for name, entry in report[section].items():
            wall = entry.get(
                "new_s",
                entry.get("incremental_s", entry.get("warm_s", 0.0)),
            )
            ledger.append(run_ledger.build_record(
                "bench", f"{section}/{name}",
                wall_s=wall,
                extra={"budget": report["budget"], **entry},
            ))


def run_benchmarks(budget: str = "full") -> dict:
    """Run every section at ``budget``; returns the report dict.

    Runs as one :func:`repro.obs.ledger.recorded_run` that names no
    workload, so neither it nor the syntheses below record anything;
    when a ledger is active the harness appends one ``bench`` record
    per benchmark row instead.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}")
    knobs = BUDGETS[budget]
    repeats = knobs["repeats"]

    with run_ledger.recorded_run("bench"):
        report = {
            "budget": budget,
            "repeats": repeats,
            "timer": "min over repeats of time.perf_counter",
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "store": {
                "cross_process_sweep": _bench_store_cross_process(
                    knobs["store_limits"], repeats,
                ),
                "edit_resynthesis": _bench_edit_resynthesis(repeats),
            },
            "narrow": {
                "diffeq_contract": _bench_narrow(repeats),
            },
            "directives": {
                "diffeq": _bench_directives(
                    list(range(1, knobs["directive_limits"] + 1)),
                    repeats,
                ),
            },
        }
    _ledger_records(report)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="time the design store, narrowing and directive "
                    "DSE; write BENCH_dse.json"
    )
    parser.add_argument("--budget", choices=sorted(BUDGETS),
                        default="full")
    parser.add_argument("--output", default=str(OUTPUT),
                        help=f"report path (default {OUTPUT})")
    parser.add_argument(
        "--ledger", nargs="?", const="", default=None, metavar="DIR",
        help="append one run record per benchmark row to the ledger "
             "at DIR (default directory when DIR is omitted)",
    )
    args = parser.parse_args(argv)

    if args.ledger is not None:
        run_ledger.configure_ledger(
            args.ledger or run_ledger.default_ledger_dir()
        )
    report = run_benchmarks(args.budget)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for name, entry in report["store"].items():
        print(f"store/{name}: {entry['speedup']:.2f}x "
              f"(results identical: {entry['equivalent']})")
    for name, entry in report["directives"].items():
        print(f"directives/{name}: {entry['exhaustive']} cells -> "
              f"{entry['configs_evaluated']} full evaluations "
              f"({entry['prune_ratio']:.1f}x pruned), "
              f"{entry['new_nondominated']} new Pareto points "
              f"(equivalent: {entry['equivalent']})")
    for name, entry in report["narrow"].items():
        print(f"narrow/{name}: area {entry['baseline_area']:.0f} -> "
              f"{entry['narrowed_area']:.0f} "
              f"({entry['area_saved_pct']:.1f}% saved; "
              f"equivalent: {entry['equivalent']})")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
