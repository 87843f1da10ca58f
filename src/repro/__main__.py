"""Command-line interface: ``python -m repro <command> …``.

Commands:

* ``synth FILE``    — synthesize a BSL file; print the design report
  and the decision log; optionally verify and emit Verilog.
* ``simulate FILE`` — synthesize, then run one activation with inputs
  given as ``name=value`` pairs; print outputs and cycle count.
* ``explore FILE``  — sweep a functional-unit budget and print the
  area/latency trade-off table.
* ``verify FILE``   — synthesize, run every stage contract, and
  optionally the full scheduler × allocator differential matrix.
* ``fuzz``          — differentially fuzz random DFGs; shrink failures
  and write repro scripts to ``artifacts/``.  ``fuzz run`` is the
  mutational, coverage-guided loop (``--corpus DIR`` persists it);
  ``--seeds N`` makes it a fixed-seed sweep with no mutations (replay
  one seed from a CI log with ``--seed``).  ``fuzz replay`` re-checks
  every stored entry and ``fuzz minimize`` drops entries that no
  longer add coverage.  ``--tier smoke|standard|deep`` picks the
  budget profile.
* ``lint FILE``     — run the whole-pipeline linter (source, schedule,
  allocation, netlist, controller rules); exit 2 on errors, 1 on
  warnings, 0 when clean.
* ``profile FILE``  — synthesize with tracing on and print the
  per-stage time/percentage table (``--format json`` for the
  machine-readable breakdown with latency percentiles).
* ``trace FILE``    — synthesize with tracing on and write a Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` or Perfetto).
* ``cache VERB``    — inspect or maintain the persistent design store
  (``stats``, ``gc``, ``clear``).
* ``history``       — list the QoR run ledger (filter by workload or
  kind, ``--format json`` for tooling).
* ``report``        — compare each group's latest ledger run against
  its median-of-N baseline; exit 0 clean, 1 warnings, 2 regression.

Any synthesis-running command accepts ``--ledger [DIR]`` to append its
run to the persistent QoR ledger (default directory when DIR is
omitted; ``REPRO_LEDGER_DIR`` works without the flag).

Examples::

    python -m repro synth design.bsl --fu 2 --verify -o design.v
    python -m repro synth design.bsl --narrow --assume X=0.0625:1.0
    python -m repro synth design.bsl --store --fu 2
    python -m repro synth design.bsl --ledger .repro-ledger
    python -m repro simulate design.bsl X=0.5 --fu 2
    python -m repro explore design.bsl --limits 1,2,3,4 --report
    python -m repro verify design.bsl --differential
    python -m repro fuzz --seeds 50 --jobs 4 --ops 14
    python -m repro fuzz --seed 17
    python -m repro fuzz run --corpus .repro-corpus --tier smoke
    python -m repro fuzz replay --corpus tests/corpus
    python -m repro fuzz minimize --corpus .repro-corpus
    python -m repro lint examples/lint_demo.hls --format json
    python -m repro lint examples/range_demo.hls --format sarif
    python -m repro lint --workloads
    python -m repro profile examples/sqrt.hls --fu 2
    python -m repro profile examples/sqrt.hls --fu 2 --format json
    python -m repro trace examples/sqrt.hls --out trace.json
    python -m repro cache stats --json
    python -m repro cache gc --max-entries 256 --max-age-days 30
    python -m repro history --ledger .repro-ledger --limit 10
    python -m repro report --ledger .repro-ledger --format markdown
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import HLSError

# Each verb imports what it runs, so ``--help`` and a mistyped
# argument cost no synthesis imports.
if TYPE_CHECKING:  # pragma: no cover
    from .core import SynthesisOptions


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="BSL source file")
    parser.add_argument(
        "--procedure", default=None,
        help="entry procedure (default: last defined)",
    )
    parser.add_argument(
        "--scheduler", default="list",
        help="scheduler name (asap, list, force-directed, "
        "freedom-based, branch-and-bound, ysc)",
    )
    parser.add_argument(
        "--allocator", default="left-edge",
        help="allocator name (clique, left-edge, greedy, coloring)",
    )
    parser.add_argument(
        "--fu", type=int, default=None,
        help="universal functional-unit limit (default: unlimited)",
    )
    parser.add_argument(
        "--no-optimize", action="store_true",
        help="skip the high-level transformation pipeline",
    )
    parser.add_argument(
        "--unroll", action="store_true",
        help="fully unroll constant-trip loops",
    )
    parser.add_argument(
        "--tree-height", action="store_true",
        help="rebalance associative operator chains (tree-height "
        "reduction)",
    )
    parser.add_argument(
        "--if-convert", action="store_true",
        help="convert small branches into predicated straight-line "
        "code (if-conversion)",
    )
    parser.add_argument(
        "--narrow", action="store_true",
        help="narrow value/register bitwidths to their proven ranges "
        "(sound interval analysis; see --assume for input contracts)",
    )
    parser.add_argument(
        "--assume", action="append", default=None, metavar="NAME=LO:HI",
        help="trusted input range contract for --narrow (repeatable, "
        "e.g. --assume X=0.0625:1.0); narrowing is only valid for "
        "executions honoring the contract",
    )
    parser.add_argument(
        "--store", action=argparse.BooleanOptionalAction, default=None,
        help="use the persistent design store (--store forces it on at "
        "the default directory, --no-store forces it off; default: "
        "honor REPRO_STORE_DIR / REPRO_STORE)",
    )
    _add_ledger_flag(parser)
    parser.add_argument(
        "--memory", action="store_true",
        help="record per-stage heap-peak gauges (tracemalloc) for "
        "this run",
    )


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", nargs="?", const="", default=None, metavar="DIR",
        help="append this run to the persistent QoR ledger (DIR, or "
        "the default ledger directory when omitted; default: honor "
        "REPRO_LEDGER_DIR / REPRO_LEDGER)",
    )


def _parse_assume(specs: list[str] | None) -> tuple:
    """``NAME=LO:HI`` flags → ``SynthesisOptions.assume_ranges``."""
    ranges = []
    for spec in specs or []:
        name, eq, bounds = spec.partition("=")
        lo, colon, hi = bounds.partition(":")
        if not eq or not colon or not name:
            raise HLSError(f"assume {spec!r} is not NAME=LO:HI")
        try:
            ranges.append((name, _parse_value(lo), _parse_value(hi)))
        except ValueError:
            raise HLSError(f"assume {spec!r} has non-numeric bounds")
    return tuple(ranges)


def _options(args: argparse.Namespace) -> SynthesisOptions:
    from .core import SynthesisOptions
    from .scheduling import ResourceConstraints

    constraints = (
        ResourceConstraints({"fu": args.fu})
        if args.fu is not None
        else None
    )
    return SynthesisOptions(
        scheduler=args.scheduler,
        allocator=args.allocator,
        constraints=constraints,
        optimize_ir=not args.no_optimize,
        unroll=args.unroll,
        tree_height=getattr(args, "tree_height", False),
        if_conversion=getattr(args, "if_convert", False),
        narrow=getattr(args, "narrow", False),
        assume_ranges=_parse_assume(getattr(args, "assume", None)),
        memory=getattr(args, "memory", False),
    )


def _read_source(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _parse_value(text: str) -> float | int:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _use_cache() -> bool:
    """Serve synth/simulate from the two-tier cache when a persistent
    store is active (profile/trace/verify always run the real pipeline
    — a cache hit would leave them nothing to measure)."""
    from .store import active_store

    return active_store() is not None


def cmd_synth(args: argparse.Namespace) -> int:
    from .core import synthesize

    source = _read_source(args.file)
    design = synthesize(source, args.procedure, _options(args),
                        use_cache=_use_cache())
    print(design.report())
    print()
    print("design process log:")
    for line in design.log:
        print(f"  {line}")
    if args.verify:
        from .sim.equivalence import check_equivalence, default_vectors

        # A narrowed design is only equivalent for inputs inside the
        # trusted --assume contract; verification vectors must respect
        # it or the narrowed loop registers wrap (and may never exit).
        contracts = _parse_assume(getattr(args, "assume", None))
        vectors = None
        if contracts:
            vectors = default_vectors(
                design.cdfg,
                assume={name: (lo, hi) for name, lo, hi in contracts},
            )
        report = check_equivalence(design, vectors=vectors)
        status = "PASS" if report.equivalent else "FAIL"
        print(f"\nco-simulation on {report.vectors} vectors: {status}")
        if not report.equivalent:
            return 1
    if args.output:
        from .rtl import emit_verilog

        with open(args.output, "w") as handle:
            handle.write(emit_verilog(design))
        print(f"\nVerilog written to {args.output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .core import synthesize
    from .sim.rtl_sim import RTLSimulator

    source = _read_source(args.file)
    design = synthesize(source, args.procedure, _options(args),
                        use_cache=_use_cache())
    inputs = {}
    for pair in args.inputs:
        if "=" not in pair:
            raise HLSError(f"input {pair!r} is not name=value")
        name, _, value = pair.partition("=")
        inputs[name] = _parse_value(value)
    simulator = RTLSimulator(design)
    outputs = simulator.run(inputs)
    for name, value in outputs.items():
        print(f"{name} = {value}")
    print(f"cycles = {simulator.cycles}")
    return 0


def _parse_limits(text: str) -> list[int]:
    """``--limits`` as integers; a malformed item is an input error."""
    limits = []
    for item in text.split(","):
        try:
            limits.append(int(item))
        except ValueError:
            raise HLSError(
                f"--limits item {item!r} is not an integer"
            ) from None
    return limits


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        default_directive_space,
        explore_directives,
        explore_fu_range,
    )

    source = _read_source(args.file)
    limits = _parse_limits(args.limits)
    if args.directives:
        configs = default_directive_space(
            schedulers=args.schedulers.split(","),
            allocators=args.allocators.split(","),
        )
        result = explore_directives(
            source, limits, configs=configs, options=_options(args),
            n_jobs=args.jobs, report=args.report,
            task_timeout_s=args.timeout,
            prune_margin=args.prune_margin,
        )
    else:
        result = explore_fu_range(source, limits,
                                  options=_options(args),
                                  n_jobs=args.jobs, report=args.report,
                                  task_timeout_s=args.timeout)
    print(result.table())
    return 1 if result.failures else 0


def _traced_run(args: argparse.Namespace):
    """Synthesize ``args.file`` with tracing on; returns (design,
    spans, latency-histogram deltas)."""
    from . import obs
    from .core import synthesize

    source = _read_source(args.file)
    obs.tracer().clear()
    before = obs.metrics().snapshot()
    with obs.tracing(True):
        design = synthesize(source, args.procedure, _options(args))
    deltas = obs.histogram_deltas(before, obs.metrics().snapshot())
    return design, obs.tracer().records(), deltas


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from . import obs

    design, records, histograms = _traced_run(args)
    options = _options(args)
    if args.format == "json":
        document = obs.profile_json(
            records, histograms,
            design=design.cdfg.name,
            scheduler=options.scheduler,
            allocator=options.allocator,
        )
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        title = (
            f"pipeline profile of '{design.cdfg.name}' "
            f"(scheduler={options.scheduler}, "
            f"allocator={options.allocator}):"
        )
        print(obs.profile_table(records, title=title,
                                histograms=histograms))
    if args.out:
        obs.write_chrome_trace(args.out, records,
                               process_name=f"repro {design.cdfg.name}")
        print(f"trace written to {args.out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from . import obs

    design, records, _ = _traced_run(args)
    obs.write_chrome_trace(args.out, records,
                           process_name=f"repro {design.cdfg.name}")
    print(f"{len(records)} spans written to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .core import synthesize
    from .core.engine import source_digest
    from .obs.ledger import recorded_run
    from .verify import run_differential, verify_design

    source = _read_source(args.file)
    options = _options(args)
    with recorded_run("verify", options=options,
                      source_digest=source_digest(source)) as run:
        design = synthesize(source, args.procedure, options)
        report = verify_design(design)
        print(report.render())
        failed = not report.ok
        if args.differential:
            print()
            diff = run_differential(source, options=options)
            print(diff.render())
            failed = failed or not diff.ok
        run.name(design.cdfg.name, design, ok=not failed,
                 differential=args.differential)
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis.lint import LintOptions, lint_source, sarif_document
    from .obs.ledger import recorded_run
    from .workloads import DIFFEQ_SOURCE, SQRT_SOURCE, fir_source

    options = LintOptions(
        procedure=args.procedure,
        scheduler=args.scheduler,
        allocator=args.allocator,
        model=args.model,
        optimize=not args.no_optimize,
    )

    sources: list[str] = []
    if args.file is not None:
        sources.append(_read_source(args.file))
    if args.workloads:
        sources.extend([SQRT_SOURCE, DIFFEQ_SOURCE, fir_source(4)])
    if not sources:
        raise HLSError("nothing to lint: give a FILE or --workloads")

    with recorded_run("lint") as run:
        reports = [lint_source(source, options) for source in sources]
        if args.format == "json":
            payload = [report.to_dict() for report in reports]
            print(json.dumps(payload[0] if len(payload) == 1 else payload,
                             indent=2))
        elif args.format == "sarif":
            print(json.dumps(sarif_document(reports, uri=args.file),
                             indent=2))
        else:
            print("\n\n".join(report.render() for report in reports))
        exit_code = max(report.exit_code for report in reports)
        rule_counts: dict[str, int] = {}
        for report in reports:
            for rule, count in report.rule_counts().items():
                rule_counts[rule] = rule_counts.get(rule, 0) + count
        run.name(
            args.file or "workloads",
            exit_code=exit_code,
            sources=len(sources),
            findings=sum(len(report.diagnostics) for report in reports),
            errors=sum(report.count("error") for report in reports),
            rule_counts=dict(sorted(rule_counts.items())),
        )
    return exit_code


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .obs.ledger import recorded_run
    from .verify import fuzz_corpus, minimize_corpus, replay_corpus

    with recorded_run("fuzz") as run:
        if args.mode == "replay":
            if args.corpus is None:
                raise HLSError("fuzz replay needs --corpus DIR")
            report = replay_corpus(args.corpus, jobs=args.jobs,
                                   timeout_s=args.timeout)
            exit_code = 0 if report.ok else 1
        elif args.mode == "minimize":
            if args.corpus is None:
                raise HLSError("fuzz minimize needs --corpus DIR")
            report = minimize_corpus(args.corpus, jobs=args.jobs,
                                     timeout_s=args.timeout)
            exit_code = 0
        else:
            seeds = None
            if args.seed is not None:
                seeds = [args.seed]
            elif args.seeds is not None:
                seeds = list(range(1, args.seeds + 1))
            budget = args.budget
            if budget is None and seeds is not None:
                budget = 0
            report = fuzz_corpus(
                args.corpus,
                tier=args.tier,
                budget=budget,
                seeds=seeds,
                master_seed=args.master_seed,
                jobs=args.jobs,
                ops=args.ops,
                inputs=args.inputs,
                artifacts_dir=args.artifacts,
                shrink=not args.no_shrink,
                timeout_s=args.timeout,
            )
            exit_code = 0 if report.ok else 1
        print(report.render())
        run.name(f"{args.mode}:{args.tier}", ok=exit_code == 0,
                 mode=args.mode, tier=args.tier, jobs=args.jobs)
    return exit_code


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .core import clear_synthesis_cache
    from .store import STORE_ACTIVATION

    store = STORE_ACTIVATION.resolve(args.dir)

    if args.verb == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            for key in sorted(stats):
                print(f"{key:>16}: {stats[key]}")
        return 0

    if args.verb == "gc":
        max_age_s = (
            args.max_age_days * 86400.0
            if args.max_age_days is not None
            else None
        )
        removed = store.gc(max_entries=args.max_entries,
                           max_age_s=max_age_s)
        if args.json:
            print(json.dumps(removed, indent=2, sort_keys=True))
        else:
            print(
                f"removed {removed['entries']} entries, "
                f"{removed['temp_files']} temp files, "
                f"{removed['stale_versions']} stale version dirs"
            )
        return 0

    # clear: drop the disk tier and the in-process LRU together so a
    # following run starts genuinely cold.
    store.clear()
    clear_synthesis_cache()
    if args.json:
        print(json.dumps({"cleared": str(store.root)}))
    else:
        print(f"cleared design store at {store.root}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    import json

    from .obs.ledger import LEDGER_ACTIVATION

    ledger = LEDGER_ACTIVATION.resolve(args.ledger)
    records = ledger.records()
    if args.workload is not None:
        records = [r for r in records if r.workload == args.workload]
    if args.kind is not None:
        records = [r for r in records if r.kind == args.kind]
    if args.limit is not None and args.limit >= 0:
        records = records[-args.limit:] if args.limit else []

    if args.format == "json":
        print(json.dumps([r.to_dict() for r in records], indent=2,
                         sort_keys=True))
        return 0
    if not records:
        print(f"history: no runs in {ledger.root}")
        return 0
    print(f"  {'when':<20} {'run':<16} {'kind':<8} {'workload':<12} "
          f"{'lat':>5} {'fu':>3} {'reg':>4} {'wall_s':>8}")
    for record in records:
        qor = record.qor
        print(
            f"  {record.created_at:<20} {record.run_id:<16} "
            f"{record.kind:<8} {record.workload:<12} "
            f"{_qor_cell(qor.get('latency_csteps')):>5} "
            f"{_qor_cell(qor.get('fu_total')):>3} "
            f"{_qor_cell(qor.get('registers')):>4} "
            f"{record.wall_s:>8.3f}"
        )
    return 0


def _qor_cell(value) -> str:
    return "-" if value is None else str(value)


def cmd_report(args: argparse.Namespace) -> int:
    import json

    from .obs.ledger import LEDGER_ACTIVATION
    from .obs.regression import compare, parse_threshold

    thresholds = {}
    for spec in args.threshold or []:
        try:
            family, threshold = parse_threshold(spec)
        except ValueError as error:
            raise HLSError(str(error))
        thresholds[family] = threshold

    ledger = LEDGER_ACTIVATION.resolve(args.ledger)
    report = compare(
        ledger.records(),
        window=args.window,
        thresholds=thresholds,
        workload=args.workload,
        kind=args.kind,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(report.to_markdown(), end="")
    else:
        print(report.render())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="High-level synthesis (DAC'88 tutorial flow)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synth", help="synthesize a design")
    _add_common(synth)
    synth.add_argument("--verify", action="store_true",
                       help="co-simulate RTL against the specification")
    synth.add_argument("-o", "--output", default=None,
                       help="write Verilog to this file")
    synth.set_defaults(handler=cmd_synth)

    simulate = subparsers.add_parser(
        "simulate", help="synthesize and run one activation"
    )
    _add_common(simulate)
    simulate.add_argument(
        "inputs", nargs="*",
        help="input values as name=value pairs",
    )
    simulate.set_defaults(handler=cmd_simulate)

    explore = subparsers.add_parser(
        "explore", help="sweep an FU budget and print the trade-offs"
    )
    _add_common(explore)
    explore.add_argument(
        "--limits", default="1,2,3",
        help="comma-separated FU limits to try (default 1,2,3)",
    )
    explore.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (default 1 = serial)",
    )
    explore.add_argument(
        "--report", action="store_true",
        help="append sweep telemetry (wall time, counter deltas)",
    )
    explore.add_argument(
        "--timeout", type=float, default=None,
        help="per-point wall-clock budget in seconds for parallel "
        "sweeps (default: env REPRO_TASK_TIMEOUT_S, else none)",
    )
    explore.add_argument(
        "--directives", action="store_true",
        help="search the directive space (transform switches x "
        "scheduler x allocator) x FU limits through the "
        "estimator-pruned funnel instead of the plain FU sweep; the "
        "table ends with the per-level pruning accounting",
    )
    explore.add_argument(
        "--schedulers", default="list,force-directed",
        help="comma-separated schedulers for --directives "
        "(default list,force-directed)",
    )
    explore.add_argument(
        "--allocators", default="left-edge",
        help="comma-separated allocators for --directives "
        "(default left-edge)",
    )
    explore.add_argument(
        "--prune-margin", type=float, default=0.0,
        help="estimate-dominance slack for --directives: prune a cell "
        "only when another beats it by this relative margin on both "
        "axes (default 0.0)",
    )
    explore.set_defaults(handler=cmd_explore)

    verify = subparsers.add_parser(
        "verify", help="run stage contracts on a synthesized design"
    )
    _add_common(verify)
    verify.add_argument(
        "--differential", action="store_true",
        help="also run the full scheduler x allocator matrix",
    )
    verify.set_defaults(handler=cmd_verify)

    fuzz = subparsers.add_parser(
        "fuzz", help="differentially fuzz random DFGs"
    )
    fuzz.add_argument(
        "mode", nargs="?", choices=("run", "replay", "minimize"),
        default="run",
        help="run: the coverage-guided loop (a fixed-seed sweep "
        "with --seeds/--seed); replay: re-check every corpus entry; "
        "minimize: drop corpus entries that no longer add coverage "
        "(default run)",
    )
    fuzz.add_argument(
        "--corpus", default=None,
        help="corpus directory (entries persist and accumulate "
        "across runs; default: in memory)",
    )
    fuzz.add_argument(
        "--tier", choices=("smoke", "standard", "deep"),
        default="standard",
        help="budget profile: seed/mutation counts and wall-clock "
        "cap (default standard)",
    )
    fuzz.add_argument(
        "--budget", type=int, default=None,
        help="mutation budget (default: the tier's, or 0 with "
        "--seeds/--seed)",
    )
    fuzz.add_argument(
        "--master-seed", type=int, default=1,
        help="seed of the mutational loop (default 1)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=None,
        help="sweep generator seeds 1..SEEDS, each under every "
        "scheduler x allocator pair, instead of the tier's seed phase",
    )
    fuzz.add_argument(
        "--seed", type=int, default=None,
        help="replay exactly this one seed (e.g. a failure from a CI "
        "log) instead of sweeping --seeds",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1 = serial)",
    )
    fuzz.add_argument(
        "--ops", type=int, default=12,
        help="operations per generated DFG (default 12)",
    )
    fuzz.add_argument(
        "--inputs", type=int, default=4,
        help="inputs per generated DFG (default 4)",
    )
    fuzz.add_argument(
        "--artifacts", default="artifacts",
        help="directory for repro scripts (default artifacts/)",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="keep raw failing recipes instead of shrinking",
    )
    fuzz.add_argument(
        "--timeout", type=float, default=None,
        help="per-case wall-clock budget in seconds for parallel "
        "runs (default: env REPRO_TASK_TIMEOUT_S, else none)",
    )
    _add_ledger_flag(fuzz)
    fuzz.set_defaults(handler=cmd_fuzz)

    lint = subparsers.add_parser(
        "lint", help="run the whole-pipeline linter"
    )
    lint.add_argument("file", nargs="?", default=None,
                      help="BSL source file")
    lint.add_argument(
        "--procedure", default=None,
        help="entry procedure (default: last defined)",
    )
    lint.add_argument(
        "--scheduler", default="list",
        help="scheduler used for the design-level rules (default list)",
    )
    lint.add_argument(
        "--allocator", default="left-edge",
        help="allocator used for the design-level rules "
        "(default left-edge)",
    )
    lint.add_argument(
        "--model", choices=("typed", "universal"), default="typed",
        help="resource model for the design-level rules "
        "(default typed: distinct single-cycle FU classes)",
    )
    lint.add_argument(
        "--no-optimize", action="store_true",
        help="lint the design without the transform pipeline",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text; sarif emits one SARIF "
        "2.1.0 document covering every linted source)",
    )
    lint.add_argument(
        "--workloads", action="store_true",
        help="also lint the built-in workloads (sqrt, diffeq, fir)",
    )
    _add_ledger_flag(lint)
    lint.set_defaults(handler=cmd_lint)

    profile = subparsers.add_parser(
        "profile", help="trace a synthesis and print per-stage timings"
    )
    _add_common(profile)
    profile.add_argument(
        "--out", default=None,
        help="also write the Chrome trace JSON to this file",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stage breakdown format (default text; json adds "
        "latency percentiles)",
    )
    profile.set_defaults(handler=cmd_profile)

    trace = subparsers.add_parser(
        "trace", help="trace a synthesis to Chrome trace-event JSON"
    )
    _add_common(trace)
    trace.add_argument(
        "--out", default="trace.json",
        help="output path for the trace JSON (default trace.json)",
    )
    trace.set_defaults(handler=cmd_trace)

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain the persistent design store"
    )
    cache.add_argument(
        "verb", choices=("stats", "gc", "clear"),
        help="stats: entry/byte counts; gc: prune old or excess "
        "entries and stale temp/version dirs; clear: remove everything",
    )
    cache.add_argument(
        "--dir", default=None,
        help="store directory (default: the active store, else the "
        "default directory)",
    )
    cache.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    cache.add_argument(
        "--max-entries", type=int, default=None,
        help="gc: keep at most this many newest entries",
    )
    cache.add_argument(
        "--max-age-days", type=float, default=None,
        help="gc: drop entries older than this many days",
    )
    cache.set_defaults(handler=cmd_cache)

    history = subparsers.add_parser(
        "history", help="list the QoR run ledger"
    )
    history.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger directory (default: the active ledger, else the "
        "default directory)",
    )
    history.add_argument(
        "--workload", default=None,
        help="only runs of this workload",
    )
    history.add_argument(
        "--kind", default=None,
        help="only runs of this kind (synth, explore, fuzz, lint, ...)",
    )
    history.add_argument(
        "--limit", type=int, default=20,
        help="show at most the newest N runs (default 20; -1 = all)",
    )
    history.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    history.set_defaults(handler=cmd_history)

    report = subparsers.add_parser(
        "report",
        help="compare the latest ledger runs against their baselines",
    )
    report.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger directory (default: the active ledger, else the "
        "default directory)",
    )
    report.add_argument(
        "--workload", default=None,
        help="only report on this workload",
    )
    report.add_argument(
        "--kind", default=None,
        help="only report on this run kind",
    )
    report.add_argument(
        "--window", type=int, default=5,
        help="baseline window: median of up to N prior runs "
        "(default 5)",
    )
    report.add_argument(
        "--threshold", action="append", default=None,
        metavar="FAMILY=WARN,FAIL",
        help="override a family's warn/fail percentages (either may "
        "be '-' to disable); repeatable",
    )
    report.add_argument(
        "--format", choices=("text", "json", "markdown"),
        default="text",
        help="output format (default text)",
    )
    report.set_defaults(handler=cmd_report)

    args = parser.parse_args(argv)
    store_flag = getattr(args, "store", None)
    if store_flag is not None:
        from .store import configure_store, default_store_dir

        configure_store(default_store_dir() if store_flag else None)
    if args.command not in ("history", "report"):
        ledger_flag = getattr(args, "ledger", None)
        if ledger_flag is not None:
            from .obs.ledger import configure_ledger, default_ledger_dir

            configure_ledger(ledger_flag or default_ledger_dir())
    try:
        return args.handler(args)
    except HLSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
