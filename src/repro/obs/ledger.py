"""Persistent QoR run ledger: every run leaves a structured record.

The paper frames synthesis as a search over cost/performance
trade-offs, but in-process telemetry evaporates on exit — no run is
comparable to any earlier run.  The ledger fixes that: an append-only
run-history store of one :class:`RunRecord` per synthesis / explore /
fuzz / lint invocation, holding the QoR extracted from the finished
design (schedule latency in control steps, FU counts per kind,
register and mux-input counts, :mod:`repro.estimation` area and
critical-path estimates), the metric deltas of the run, a per-stage
span breakdown, and an environment fingerprint (schema version, source
digest, value-level options token, python/platform) that groups
comparable runs for ``repro report``.

Storage mirrors the design store and fuzz corpus: each record is one
JSONL segment file under ``<ledger>/v<N>/``, named by the record's
content address (a sha256 of its canonical JSON) and published with
:func:`repro.store.atomic.atomic_write_bytes` — concurrent writers
(e.g. two :mod:`repro.exec` workers) race only on the atomic rename,
and a reader always sees whole records.  Corrupt or truncated segments
are skipped (counted in ``ledger.corrupt``), never fatal.

Like the store, and by the same rule (:class:`repro.store.Activation`),
the ledger is **off by default** and activates via
:func:`configure_ledger` (the CLI's ``--ledger DIR``) or env
``REPRO_LEDGER_DIR`` (``REPRO_LEDGER=0`` force-disables).  Every
record is written by one :func:`recorded_run` block, and only the
outermost open block writes one: a top-level :func:`repro.synthesize`
call leaves one ``synth`` record, while a DSE sweep, a ``verify``,
``lint`` or ``fuzz`` command leaves one summary record and none for
the syntheses inside — so "one invocation, one record" holds at every
granularity.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..store import (
    Activation,
    atomic_write_bytes,
    default_store_dir,
    options_token,
)
from .metrics import metrics
from .tracer import tracer, tracing_enabled

if TYPE_CHECKING:  # pragma: no cover
    from ..core.design import SynthesizedDesign
    from ..core.engine import SynthesisOptions

#: Bump when the RunRecord layout changes incompatibly.  Each version
#: writes under its own ``v<N>/`` directory, so old records are never
#: misread — only ignored.
LEDGER_SCHEMA_VERSION = 1

LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
LEDGER_ENV = "REPRO_LEDGER"

#: Fields of the canonical JSON rendering, in serialization order.
_RECORD_FIELDS = (
    "run_id", "schema", "kind", "workload", "created_at", "wall_s",
    "env", "qor", "metrics", "stages", "extra",
)


@dataclass
class RunRecord:
    """One ledger entry: the QoR and telemetry of a single run.

    ``run_id`` is the content address — a sha256 prefix over the
    canonical JSON of every other field — so identical records are
    idempotent on append and any mutation changes the id.
    """

    kind: str
    workload: str
    created_at: str
    wall_s: float = 0.0
    schema: int = LEDGER_SCHEMA_VERSION
    env: dict = field(default_factory=dict)
    qor: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    run_id: str = ""

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = self.compute_run_id()

    def compute_run_id(self) -> str:
        payload = json.dumps(
            {name: getattr(self, name) for name in _RECORD_FIELDS
             if name != "run_id"},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    def to_json(self) -> str:
        """The canonical single-line rendering stored in segments."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        kwargs = {name: data[name] for name in _RECORD_FIELDS
                  if name in data}
        return cls(**kwargs)


class RunLedger:
    """Append-only run history rooted at a directory.

    Append publishes one segment per record via the atomic
    temp-then-rename protocol; reads scan every segment, skipping
    anything unparseable.  Both directions are safe under concurrent
    writers from multiple processes.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)

    @property
    def segment_dir(self) -> str:
        return os.path.join(self.root, f"v{LEDGER_SCHEMA_VERSION}")

    def _segment_path(self, run_id: str) -> str:
        return os.path.join(self.segment_dir, f"{run_id}.jsonl")

    def append(self, record: RunRecord,
               fault_spec: str | None = None) -> str:
        """Persist ``record``; returns its run id.

        Idempotent: a record whose segment already exists (same
        content address) is not rewritten.  Filesystem failures are
        swallowed — the ledger is telemetry and must never fail the
        run it observes.
        """
        path = self._segment_path(record.run_id)
        if os.path.exists(path):
            metrics().counter("ledger.duplicates").inc()
            return record.run_id
        blob = (record.to_json() + "\n").encode("utf-8")
        if atomic_write_bytes(path, blob, fault_label="ledger.append",
                              fault_spec=fault_spec):
            metrics().counter("ledger.appends").inc()
        return record.run_id

    def records(self) -> list[RunRecord]:
        """Every parseable record, oldest first.

        Ordered by ``(created_at, run_id)`` — wall-clock with a
        deterministic tiebreak — so two scans of the same directory
        always agree.  Corrupt lines and segments bump the
        ``ledger.corrupt`` counter and are skipped.
        """
        records: list[RunRecord] = []
        try:
            names = sorted(os.listdir(self.segment_dir))
        except OSError:
            return records
        for name in names:
            if not name.endswith(".jsonl") or name.startswith("."):
                continue
            path = os.path.join(self.segment_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
            except (OSError, UnicodeDecodeError):
                metrics().counter("ledger.corrupt").inc()
                continue
            for line in lines:
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                    if not isinstance(data, dict):
                        raise TypeError("record is not an object")
                    record = RunRecord.from_dict(data)
                except (ValueError, TypeError, KeyError):
                    metrics().counter("ledger.corrupt").inc()
                    continue
                records.append(record)
        records.sort(key=lambda r: (r.created_at, r.run_id))
        return records

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.segment_dir)
                if name.endswith(".jsonl") and not name.startswith(".")
            )
        except OSError:
            return 0


# ----------------------------------------------------------------------
# Activation (the design store's rule)
# ----------------------------------------------------------------------

def default_ledger_dir() -> str:
    """Where ``--ledger`` records runs absent an explicit directory."""
    return os.environ.get(LEDGER_DIR_ENV) or os.path.join(
        os.path.dirname(default_store_dir()), "ledger"
    )


#: The process-global ledger (:class:`repro.store.Activation`):
#: ``configure_ledger`` / ``reset_ledger`` / ``active_ledger`` are its
#: methods.
LEDGER_ACTIVATION = Activation(RunLedger, LEDGER_DIR_ENV, LEDGER_ENV,
                               default_ledger_dir)
configure_ledger = LEDGER_ACTIVATION.configure
reset_ledger = LEDGER_ACTIVATION.reset
active_ledger = LEDGER_ACTIVATION.active


# ----------------------------------------------------------------------
# Recorded runs: one invocation, one record
# ----------------------------------------------------------------------

#: Recorded runs open in this process; only the outermost may claim.
_OPEN_RUNS = 0


class RecordedRun:
    """The ``with`` block of :func:`recorded_run`.

    ``claimed`` tells the body whether this run writes the record.  The
    body names what the record holds with :meth:`name`; a body that
    digests its source only when it must may set ``source_digest``.
    """

    def __init__(self, kind: str, options: "SynthesisOptions | None",
                 source_digest: str | None) -> None:
        self.kind = kind
        self.options = options
        self.source_digest = source_digest
        self.workload: str | None = None
        self.design: "SynthesizedDesign | None" = None
        self.extra: dict = {}
        self._ledger: RunLedger | None = None

    @property
    def claimed(self) -> bool:
        return self._ledger is not None

    def name(self, workload: str,
             design: "SynthesizedDesign | None" = None,
             **extra) -> None:
        """The record's workload, the design whose QoR it carries and
        its ``extra`` fields."""
        self.workload, self.design, self.extra = workload, design, extra

    def __enter__(self) -> "RecordedRun":
        global _OPEN_RUNS
        if _OPEN_RUNS == 0:
            self._ledger = active_ledger()
            if self._ledger is not None:
                self._before = metrics().snapshot()
                self._span_base = len(tracer())
                self._started = time.perf_counter()
        _OPEN_RUNS += 1
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        global _OPEN_RUNS
        _OPEN_RUNS -= 1
        if self._ledger is not None and exc_type is None \
                and self.workload is not None:
            wall_s = time.perf_counter() - self._started
            spans = (tracer().records(self._span_base)
                     if tracing_enabled() else None)
            record = build_record(
                self.kind, self.workload, design=self.design,
                source_digest=self.source_digest, options=self.options,
                metrics_before=self._before, span_records=spans,
                wall_s=wall_s, extra=self.extra,
            )
            self._ledger.append(record, fault_spec=(
                self.options.fault_spec if self.options else None))
        return False


def recorded_run(kind: str, *,
                 options: "SynthesisOptions | None" = None,
                 source_digest: str | None = None) -> RecordedRun:
    """A ``with`` block that is one run of the ledger.

    When a ledger is active, the outermost open run claims the record;
    the runs nested in it (a sweep's syntheses, the fuzzer's cases)
    claim nothing, so one invocation leaves one record.  On a clean
    exit, a claiming run whose body named a workload appends one
    ``kind`` record: the named design's QoR, the metrics delta since
    entry, the span breakdown when tracing was on, the wall time and
    the named ``extra``, under ``options.fault_spec``.  A body that
    raised or named no workload appends nothing, and a run that claims
    nothing takes no snapshot.
    """
    return RecordedRun(kind, options, source_digest)


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------

def utc_now() -> str:
    """The ledger's timestamp format: ISO-8601 UTC, second precision."""
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def environment_fingerprint(source_digest: str | None = None,
                            options: "SynthesisOptions | None" = None,
                            ) -> dict:
    """What must match for two runs to be comparable.

    The value-level options token (the store's key material) stands in
    for the full options object; runs whose token differs are never
    compared by ``repro report``.
    """
    import platform

    env = {
        "schema": LEDGER_SCHEMA_VERSION,
        "python": platform.python_version(),
        "platform": sys.platform,
        "pid": os.getpid(),
    }
    if source_digest is not None:
        env["source_digest"] = source_digest
    if options is not None:
        token = options_token(options)
        env["options"] = repr(token) if token is not None else None
    return env


def qor_from_design(design: "SynthesizedDesign") -> dict:
    """Extract the quality-of-results summary the ledger records.

    Latency is the summed schedule length in control steps (csteps);
    areas and the clock estimate come from :mod:`repro.estimation`;
    structural counts come straight off the design.  All plain data.
    """
    from ..allocation.interconnect import estimate_interconnect
    from ..estimation.area import estimate_area
    from ..estimation.timing import estimate_clock_period

    fu_counts: dict[str, int] = {}
    instances = set()
    for allocation in design.allocations.values():
        instances.update(allocation.fu_map.values())
    for fu in instances:
        fu_counts[fu.cls] = fu_counts.get(fu.cls, 0) + 1
    mux_inputs = sum(
        estimate_interconnect(allocation).mux_inputs
        for allocation in design.allocations.values()
    )
    area = estimate_area(design)
    return {
        "latency_csteps": sum(
            schedule.length for schedule in design.schedules.values()
        ),
        "fu_counts": {cls: fu_counts[cls] for cls in sorted(fu_counts)},
        "fu_total": len(instances),
        "registers": design.register_count,
        "mux_inputs": mux_inputs,
        "states": design.state_count,
        "area": {
            "functional_units": round(area.functional_units, 3),
            "registers": round(area.registers, 3),
            "multiplexers": round(area.multiplexers, 3),
            "controller": round(area.controller, 3),
            "total": round(area.total, 3),
        },
        "clock_ns": round(estimate_clock_period(design), 3),
    }


def metrics_delta(before: Mapping, after: Mapping) -> dict:
    """Counter deltas + gauge values between two registry snapshots.

    Histograms are summarized (count/mean/percentiles) rather than
    stored bucket-by-bucket — the ledger records QoR, not raw series.
    """
    from .metrics import histogram_deltas

    counters = {}
    before_counters = before.get("counters", {})
    for key, value in after.get("counters", {}).items():
        delta = value - before_counters.get(key, 0)
        if delta:
            counters[key] = delta
    gauges = {
        key: value
        for key, value in after.get("gauges", {}).items()
        if value
    }
    histograms = {
        key: {name: round(val, 4) if isinstance(val, float) else val
              for name, val in hist.summary().items()}
        for key, hist in histogram_deltas(before, after).items()
    }
    return {
        "counters": counters,
        "gauges": {k: round(v, 4) for k, v in gauges.items()},
        "histograms": histograms,
    }


def stage_breakdown(span_records: Iterable) -> dict:
    """Per-stage call counts and total time from recorded spans."""
    from .report import stage_totals

    return {
        stage: {"calls": entry["calls"],
                "total_us": round(entry["total_us"], 1)}
        for stage, entry in stage_totals(span_records).items()
    }


def build_record(kind: str, workload: str, *,
                 design: "SynthesizedDesign | None" = None,
                 source_digest: str | None = None,
                 options: "SynthesisOptions | None" = None,
                 metrics_before: Mapping | None = None,
                 span_records: Iterable | None = None,
                 wall_s: float = 0.0,
                 extra: Mapping | None = None) -> RunRecord:
    """Assemble a :class:`RunRecord` from live pipeline objects."""
    return RunRecord(
        kind=kind,
        workload=workload,
        created_at=utc_now(),
        wall_s=round(wall_s, 4),
        env=environment_fingerprint(source_digest, options),
        qor=qor_from_design(design) if design is not None else {},
        metrics=(metrics_delta(metrics_before, metrics().snapshot())
                 if metrics_before is not None else {}),
        stages=(stage_breakdown(span_records)
                if span_records is not None else {}),
        extra=dict(extra) if extra else {},
    )
