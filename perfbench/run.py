"""The repository's benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale|dse|edit --seed N \
        --seconds S --trace 0|1

``--seconds`` sizes a fixed, seeded job list so that its untraced job
loop takes about that long on the calibration host; every run with the
same arguments does identical work.  One client runs one job at a time.
Each job is timed between two timings of a fixed reference kernel and
reported in reference seconds (see ``timebase.py``); raw wall times are
printed as ``host.*`` diagnostics.  After each job's timed span its
output is checked against references outside the synthesis path
(``workloads.py``).

With ``--trace 0`` the last line of standard output is a JSON object
carrying the end-to-end metrics.  With ``--trace 1`` every job runs
under the layer wrappers of ``tracing.py`` (every fourth one untraced
as well) and the JSON carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import timebase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters launched per run to time set-up; the median counts.
SETUP_PROBES = 5
#: Kernel repeats a set-up probe times at start-up and when ready.
PROBE_KERNEL_REPEATS = 9
#: ``python -X importtime`` launches per traced run.
IMPORT_PROBES = 3
#: In a traced run every job runs traced; every this many jobs it also
#: runs untraced, which gives the tracing overhead and raw job times.
TRACE_PAIR_EVERY = 4
#: Packages whose import time the traced run attributes.
IMPORT_PACKAGES = (
    "networkx", "repro.ir", "repro.lang", "repro.analysis",
    "repro.transforms", "repro.scheduling", "repro.allocation",
    "repro.datapath", "repro.binding", "repro.controller", "repro.core",
    "repro.rtl", "repro.sim", "repro.estimation", "repro.explore",
    "repro.store", "repro.exec", "repro.obs", "repro.verify",
    "repro.workloads",
)
IMPORT_STATEMENT = (
    "import repro, repro.core, repro.explore, repro.rtl, repro.store, "
    "repro.estimation, repro.verify, repro.sim.behavior, "
    "repro.sim.rtl_sim"
)


def _load_library():
    """Import the library from this checkout's ``src``; exits if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    for var in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[var]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _workdir(tag: str) -> Path:
    return ROOT / ".perfbench-work" / f"{os.getpid()}-{tag}"


def _probe_command(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), *extra]


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Launch :data:`SETUP_PROBES` fresh interpreters that set the
    workload up; (reference seconds, wall seconds) until each was ready
    to start its first job.

    Each probe times the reference kernel itself, first thing after
    start-up and again once ready, so its interval is normalized by the
    speed its own process saw; the first kernel's run is taken out of
    the interval.
    """
    normalized, wall = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.run(_probe_command(args, "--setup-probe"),
                               capture_output=True, text=True, cwd=ROOT,
                               timeout=120, check=True)
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        interval = probe["ready"] - started - probe["kernel_wall"]
        wall.append(interval)
        normalized.append(timebase.normalize(interval, *probe["kernels"]))
    return normalized, wall


def measure_imports() -> dict[str, float]:
    """Median reference seconds of each package's own module imports,
    from ``python -X importtime`` launches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_PACKAGES}
    samples["total"] = []
    for _ in range(IMPORT_PROBES):
        before = timebase.reference_kernel()
        child = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
            check=True)
        after = timebase.reference_kernel()
        own = {name: 0.0 for name in samples}
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [part.strip() for part in line[12:].split("|")]
            if not fields[0].isdigit():
                continue
            self_s = int(fields[0]) * 1e-6
            module = fields[2]
            own["total"] += self_s
            for name in IMPORT_PACKAGES:
                if module == name or module.startswith(name + "."):
                    own[name] += self_s
        for name, value in own.items():
            samples[name].append(timebase.normalize(value, before, after))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


class Runner:
    """Runs one workload's job list and collects its measurements."""

    def __init__(self, workload, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.kernels: list[float] = []
        self.times: list[float] = []        # reference s, untraced
        self.walls: list[float] = []        # wall s, untraced
        #: (untraced, traced) reference s of the jobs run both ways.
        self.pairs: list[tuple[float, float]] = []
        self.factors: dict[int, float] = {}  # job -> reference s per wall s
        self.outcomes = []
        self.failures: list[str] = []
        self.recorder = None

    def _timed(self, job, traced: bool):
        """One execution of ``job``: (output, error, wall s, reference s).

        Garbage the previous job and its checks left is collected
        first, so no job pays for another's.
        """
        self.workload.before_job(job)
        gc.collect()
        before = timebase.reference_kernel()
        if traced:
            self.recorder.open_job(job.index)
        started = time.perf_counter()
        output, error = None, None
        try:
            output = self.workload.run(job)
        except Exception as exc:  # a failing job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        if traced:
            self.recorder.close_job()
        after = timebase.reference_kernel()
        self.kernels += [before, after]
        if traced:
            self.factors[job.index] = timebase.normalize(1.0, before, after)
        return output, error, wall, timebase.normalize(wall, before, after)

    def run(self) -> None:
        import workloads

        # Set-up objects (library modules, the job list) survive the
        # whole run; freezing them keeps collections during jobs from
        # traversing them again and again.
        gc.collect()
        gc.freeze()
        try:
            self._run_jobs(workloads)
        finally:
            gc.unfreeze()

    def _run_jobs(self, workloads) -> None:
        for job in self.workload.jobs:
            if not self.trace:
                order = (False,)
            elif job.index % TRACE_PAIR_EVERY:
                order = (True,)
            else:  # alternate which side runs first
                order = ((False, True) if job.index % (2 * TRACE_PAIR_EVERY)
                         else (True, False))
            timed = {}
            for traced in order:
                timed[traced] = self._timed(job, traced)
            output, error, wall, normalized_time = timed.get(False,
                                                             timed.get(True))
            if False in timed and error is None:
                self.times.append(normalized_time)
                self.walls.append(wall)
                if True in timed:
                    self.pairs.append((normalized_time, timed[True][3]))
            if error is None:
                try:
                    outcome = self.workload.check(job, output)
                except Exception as exc:
                    outcome = workloads.Outcome(
                        problems=[f"check raised {type(exc).__name__}: "
                                  f"{exc}"])
            else:
                outcome = workloads.Outcome(problems=[error])
            self.outcomes.append(outcome)
            status = "ok" if not outcome.problems else "FAIL"
            print(f"job {job.index:4d} {job.label:<32} "
                  f"t={normalized_time * 1e3:9.3f}ms "
                  f"in={','.join(job.digests)} "
                  f"qor={outcome.qor_digest()} {status}")
            for problem in outcome.problems:
                self.failures.append(
                    f"FAIL {self.workload.name} seed={self.workload.seed} "
                    f"job={job.index} ({job.label}, inputs "
                    f"{','.join(job.digests)}): {problem}")


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    designs = [d for o in runner.outcomes for d in o.designs]
    attempted = len(runner.outcomes)
    ok = sum(1 for o in runner.outcomes if not o.problems)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_s": (statistics.median(runner.times), "s"),
        "job_p90_s": (p90(runner.times), "s"),
        "jobs_per_s": (len(runner.times) / sum(runner.times), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "success_rate": (ok / attempted, "ratio"),
        "qor_latency_geo_ns": (geomean([lat for _, lat in designs]), "ns"),
        "qor_area_geo": (geomean([area for area, _ in designs]), "area"),
        "dse_front_hv": (statistics.fmean(
            o.hypervolume for o in runner.outcomes), "ratio"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(self time) against log(block ops);
    0 when the algorithm ran on fewer than two block sizes."""
    xs, ys = [], []
    for ops, seconds in points:
        if ops > 0 and seconds > 0:
            xs.append(math.log(ops))
            ys.append(math.log(seconds))
    if len(set(xs)) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys).slope


def per_layer(runner: Runner, setup_wall: list[float],
              imports: dict[str, float]) -> tuple[dict, dict]:
    """(per-layer metrics, self-time share per layer) of a traced run."""
    spans = runner.recorder.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    jobs = len(runner.workload.jobs)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    growth: dict[str, list[tuple[int, float]]] = {}
    job_self = job_total = 0.0
    for index, span in enumerate(spans):
        own = (span.duration - child_time[index]) * runner.factors[span.job]
        if span.layer == "bench":
            job_self += own
            job_total += span.duration * runner.factors[span.job]
            continue
        name = f"{span.layer}.{span.name}"
        info = span.info or {}
        if span.layer in ("scheduling", "allocation"):
            growth.setdefault(name, []).append((info["ops"], own))
        for key in (span.layer, name):
            self_s[key] = self_s.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
        for field, value in info.items():
            sums[f"{name}.{field}"] = (sums.get(f"{name}.{field}", 0.0)
                                       + float(value))

    def per_job(key: str) -> float:
        return self_s.get(key, 0.0) / jobs

    def count(key: str) -> float:
        return calls.get(key, 0) / jobs

    def total(key: str) -> float:
        return sums.get(key, 0.0)

    bound_ratios = [r for o in runner.outcomes for r in o.bound_ratios]
    metrics = {
        "allocation.calls": (count("allocation"), "count/job"),
        "allocation.self_s": (per_job("allocation"), "s"),
        "allocation.clique.self_s": (per_job("allocation.clique"), "s"),
        "allocation.left-edge.self_s": (per_job("allocation.left-edge"),
                                        "s"),
        "allocation.clique.growth_exp": (
            _growth_exponent(growth.get("allocation.clique", [])),
            "exponent"),
        "allocation.left-edge.growth_exp": (
            _growth_exponent(growth.get("allocation.left-edge", [])),
            "exponent"),
        "scheduling.calls": (count("scheduling"), "count/job"),
        "scheduling.ops": (sum(value for key, value in sums.items()
                               if key.startswith("scheduling.")
                               and key.endswith(".ops")) / jobs,
                           "count/job"),
        "scheduling.self_s": (per_job("scheduling"), "s"),
        "scheduling.force-directed.self_s": (
            per_job("scheduling.force-directed"), "s"),
        "scheduling.list.self_s": (per_job("scheduling.list"), "s"),
        "scheduling.force-directed.growth_exp": (
            _growth_exponent(growth.get("scheduling.force-directed", [])),
            "exponent"),
        "scheduling.list.growth_exp": (
            _growth_exponent(growth.get("scheduling.list", [])),
            "exponent"),
        "lang.calls": (count("lang"), "count/job"),
        "lang.self_s": (per_job("lang"), "s"),
        "lang.ir_ops_per_s": (_ratio(total("lang.compile_source.ops"),
                                     self_s.get("lang", 0.0)), "1/s"),
        "transforms.calls": (count("transforms"), "count/job"),
        "transforms.self_s": (per_job("transforms"), "s"),
        "transforms.ir_ratio": (_ratio(total("transforms.optimize.after"),
                                       total("transforms.optimize.before")),
                                "ratio"),
        "datapath.self_s": (per_job("datapath"), "s"),
        "binding.self_s": (per_job("binding"), "s"),
        "controller.self_s": (per_job("controller"), "s"),
        "controller.states": (total("controller.synthesize_fsm.states")
                              / jobs, "count/job"),
        "rtl.self_s": (per_job("rtl"), "s"),
        "rtl.lines": (total("rtl.emit_verilog.lines") / jobs, "count/job"),
        "sim.calls": (count("sim"), "count/job"),
        "sim.self_s": (per_job("sim"), "s"),
        "sim.cycles_per_s": (_ratio(total("sim.rtl_run.cycles"),
                                    self_s.get("sim", 0.0)), "1/s"),
        "estimation.self_s": (per_job("estimation"), "s"),
        "estimation.latency_bound_ratio": (
            statistics.fmean(bound_ratios) if bound_ratios else 0.0,
            "ratio"),
        "explore.self_s": (per_job("explore"), "s"),
        "explore.cells": (total("explore.explore_directives.cells") / jobs,
                          "count/job"),
        "explore.cells_evaluated": (
            total("explore.explore_directives.evaluated") / jobs,
            "count/job"),
        "explore.eval_ratio": (
            _ratio(total("explore.explore_directives.evaluated"),
                   total("explore.explore_directives.cells")), "ratio"),
        "core.cache.hit_ratio": (_ratio(total("core.cache.get.hit"),
                                        calls.get("core.cache.get", 0)),
                                 "ratio"),
        "core.incremental.self_s": (per_job("core.resynthesize"), "s"),
        "core.incremental.replay_ratio": (
            _ratio(total("core.resynthesize.replayed"),
                   total("core.resynthesize.hinted")), "ratio"),
        "analysis.diff.self_s": (per_job("analysis.diff_cdfgs"), "s"),
        "store.get.calls": (count("store.get"), "count/job"),
        "store.get.self_s": (per_job("store.get"), "s"),
        "store.put.calls": (count("store.put"), "count/job"),
        "store.put.self_s": (per_job("store.put"), "s"),
        "store.hit_ratio": (_ratio(total("store.get.hit"),
                                   calls.get("store.get", 0)), "ratio"),
    }
    for name, value in imports.items():
        metrics[f"setup.import_s.{name}"] = (value, "s")
    metrics.update({
        "host.ref_kernel_s": (statistics.median(runner.kernels), "s"),
        "host.wall_job_p50_s": (statistics.median(runner.walls), "s"),
        "host.wall_setup_s": (statistics.median(setup_wall), "s"),
        "bench.unattributed_share": (_ratio(job_self, job_total), "ratio"),
        "bench.tracing_overhead": (
            _ratio(sum(traced for _, traced in runner.pairs),
                   sum(untraced for untraced, _ in runner.pairs)), "ratio"),
    })
    layers = {key: value for key, value in self_s.items() if "." not in key}
    attributed = sum(layers.values())
    shares = {key: _ratio(value, attributed)
              for key, value in sorted(layers.items())}
    return metrics, shares


def setup_probe(args, first_kernel: float, kernel_wall: float) -> int:
    """Child side of :func:`measure_setup`."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, _workdir("probe"))
    try:
        workload.plan()
        workload.prepare()
        ready = time.perf_counter()
        last_kernel = timebase.reference_kernel(PROBE_KERNEL_REPEATS)
    finally:
        workload.close()
    print(json.dumps({"ready": ready, "kernel_wall": kernel_wall,
                      "kernels": [first_kernel, last_kernel]}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scale", "dse", "edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        started = time.perf_counter()
        first_kernel = timebase.reference_kernel(PROBE_KERNEL_REPEATS)
        kernel_wall = time.perf_counter() - started
        _load_library()
        return setup_probe(args, first_kernel, kernel_wall)
    _load_library()

    import tracing
    import workloads

    setup, setup_wall = measure_setup(args)
    print("set-up probes (reference s): "
          + " ".join(f"{value:.4f}" for value in setup))
    imports = measure_imports() if args.trace else {}

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, _workdir("run"), bounds=bool(args.trace))
    try:
        workload.plan()
        workload.prepare()
        runner = Runner(workload, bool(args.trace))
        installation = None
        if args.trace:
            runner.recorder = tracing.Recorder()
            installation = tracing.install(runner.recorder)
        try:
            print(f"perfbench {args.workload} seed={args.seed} "
                  f"jobs={len(workload.jobs)} trace={args.trace}")
            started = time.perf_counter()
            runner.run()
            print(f"job loop: {time.perf_counter() - started:.2f} s wall")
        finally:
            if installation is not None:
                installation.remove()
    finally:
        workload.close()

    for line in runner.failures:
        print(line)
    qor = hashlib.sha256("".join(
        o.qor_digest() for o in runner.outcomes).encode()).hexdigest()[:16]
    print(f"qor digest over {len(runner.outcomes)} jobs: {qor}")
    if args.trace:
        metrics, shares = per_layer(runner, setup_wall, imports)
        print("self-time share: " + " ".join(
            f"{layer}={share:.3f}" for layer, share in shares.items()))
    else:
        metrics = end_to_end(runner, setup)
    failed = sum(1 for o in runner.outcomes if o.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
