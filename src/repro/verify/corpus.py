"""Coverage-guided corpus fuzzing for the verification subsystem.

Every ``repro fuzz`` run is this module's loop, in the AFL/schemathesis
corpus style:

* a **case** (:class:`CorpusCase`) is a recipe plus the pipeline
  configuration it runs under — scheduler, allocator, FU budget —
  so the search space covers workload shape *and* pipeline paths;
* the **seed phase** evaluates deterministic cases first: the tier's
  ``init_seeds`` generator seeds, cycling the combo matrix, or — for
  a fixed-seed sweep (``seeds=``) — each listed seed's recipe under
  every scheduler × allocator pair.  A fixed-seed sweep is a run with
  a zero mutation budget;
* **mutators** (:data:`MUTATORS`) perturb a parent case: grow/shrink
  the op list, flip op kinds, rewire edges, change bit width or value
  domain, tighten/release the FU constraint, switch scheduler or
  allocator, or cross two corpus entries over.  Every mutator is
  deterministic given ``(case, seed)`` and always yields a buildable
  recipe (property-pinned in tests);
* a run's **coverage** is its :func:`repro.obs.coverage_fingerprint`:
  the counters that moved (scheduler/allocator invocations per
  algorithm, transform passes applied, contract stages checked,
  schedule/allocation magnitude classes, deferral branches), the span
  names reached and the per-combo differential statuses.  Timing
  never participates, so replaying an entry reproduces its
  fingerprint exactly;
* the **corpus** keeps only cases that light up a fingerprint nobody
  lit before, persisted as one content-addressed JSON file per entry
  (atomic temp+rename, same protocol as the design store) so runs
  accumulate across processes and CI caches the directory;
* failures never enter the corpus — they shrink to a minimal recipe
  and land in ``artifacts/`` as standalone repro scripts; a seed-phase
  finding names its generator seed, so ``repro fuzz --seed N``
  replays it.  Once fixed, a finding's case belongs in
  ``tests/corpus/`` as a permanent regression test.

Budgets are tiered (:data:`TIERS`): ``smoke`` for deterministic CI
gates, ``standard`` for local runs, ``deep`` for long hunts —
Hypothesis-profile style.  Case evaluation parallelizes through the
fault-tolerant :mod:`repro.exec` runtime, one task per case, so a
crashed worker costs only its own case; candidates are generated in
deterministic batches, so the corpus a run produces depends only on
``(existing corpus, master_seed, jobs)``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from ..core.engine import ALLOCATORS, SCHEDULERS, SynthesisOptions
from ..exec import TaskFailure, default_timeout_s, run_tasks
from ..obs import (
    coverage_atoms,
    coverage_fingerprint,
    metrics,
    trace_span,
    tracer,
    tracing,
    tracing_enabled,
)
from ..scheduling import ResourceConstraints
from ..store import atomic_write_bytes
from ..workloads.random_dfg import (
    RECIPE_KINDS,
    RECIPE_WIDTHS,
    DFGRecipe,
    RandomDFGSpec,
    _LCG,
    _delete_op,
    _rewire_operand,
    build_dfg,
    dfg_recipe,
)
from .differential import run_differential
from .shrink import describe_failure, recipe_fails, shrink_failure, write_repro_script

#: FU budgets the ``fu`` mutator cycles through (None = unlimited).
FU_CHOICES: tuple[int | None, ...] = (None, 1, 2, 3)

#: Logic kinds remapped when a mutation leaves the integer domain.
_TO_FIXED_KIND = {"AND": "ADD", "OR": "SUB", "XOR": "MUL"}

_CORPUS_SCHEMA = 1


def default_combos() -> list[tuple[str, str]]:
    """Every scheduler × allocator pair, in deterministic order."""
    return [(s, a) for s in sorted(SCHEDULERS) for a in sorted(ALLOCATORS)]


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    """One fuzzable unit: a recipe plus its pipeline configuration."""

    recipe: DFGRecipe
    scheduler: str = "list"
    allocator: str = "left-edge"
    fu_limit: int | None = None

    def options(self) -> SynthesisOptions:
        constraints = (
            ResourceConstraints({"fu": self.fu_limit})
            if self.fu_limit is not None
            else None
        )
        return SynthesisOptions(constraints=constraints)

    def to_dict(self) -> dict:
        return {
            "recipe": {
                "inputs": self.recipe.inputs,
                "ops": [list(op) for op in self.recipe.ops],
                "name": self.recipe.name,
                "width": self.recipe.width,
                "domain": self.recipe.domain,
            },
            "scheduler": self.scheduler,
            "allocator": self.allocator,
            "fu_limit": self.fu_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusCase":
        raw = data["recipe"]
        recipe = DFGRecipe(
            inputs=raw["inputs"],
            ops=tuple(tuple(op) for op in raw["ops"]),
            name=raw.get("name", "corpus"),
            width=raw.get("width", 16),
            domain=raw.get("domain", "fixed"),
        )
        return cls(
            recipe=recipe,
            scheduler=data.get("scheduler", "list"),
            allocator=data.get("allocator", "left-edge"),
            fu_limit=data.get("fu_limit"),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def key(self) -> str:
        """Content address (stable across processes and runs)."""
        import hashlib

        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        fu = "-" if self.fu_limit is None else str(self.fu_limit)
        return (
            f"{self.recipe.op_count} ops/{self.recipe.width}b/"
            f"{self.recipe.domain} {self.scheduler} x {self.allocator} "
            f"fu={fu}"
        )


def _seed_recipe(seed: int, ops: int, inputs: int) -> DFGRecipe:
    return dfg_recipe(RandomDFGSpec(ops=ops, inputs=inputs, seed=seed))


def seed_case(seed: int, ops: int = 12, inputs: int = 4) -> CorpusCase:
    """The deterministic seed-phase case for one generator seed.

    The combo cycles through the full matrix so the initial corpus
    already spans every scheduler/allocator path.
    """
    combos = default_combos()
    scheduler, allocator = combos[(seed - 1) % len(combos)]
    return CorpusCase(recipe=_seed_recipe(seed, ops, inputs),
                      scheduler=scheduler, allocator=allocator)


def fixed_seed_cases(budget: int, ops: int = 12,
                     inputs: int = 4) -> list[CorpusCase]:
    """The cycled seed phase stretched to ``budget`` seeds.

    One case per seed ``1..budget``, default-spec recipe, cycling the
    combo matrix, never constrained: the tier's seed phase when
    ``budget`` is its ``init_seeds``, and the coverage baseline the
    mutational loop must beat at equal budget.
    """
    return [seed_case(seed, ops, inputs)
            for seed in range(1, budget + 1)]


# ----------------------------------------------------------------------
# Mutators
# ----------------------------------------------------------------------

Mutator = Callable[[CorpusCase, _LCG, Sequence[CorpusCase]],
                   "CorpusCase | None"]


def _with_recipe(case: CorpusCase, recipe: DFGRecipe) -> CorpusCase:
    return replace(case, recipe=replace(recipe, name="corpus"))


def _legal_kind(kind: str, domain: str, rng: _LCG) -> str:
    if kind in RECIPE_KINDS[domain]:
        return kind
    return _TO_FIXED_KIND.get(kind) or rng.choice(RECIPE_KINDS[domain])


def mutate_grow(case: CorpusCase, rng: _LCG,
                population: Sequence[CorpusCase]) -> CorpusCase:
    """Append 1-3 random ops (same windowed wiring as the generator)."""
    recipe = case.recipe
    ops = list(recipe.ops)
    pool_size = recipe.inputs + len(ops)
    for _ in range(1 + rng.below(3)):
        window = min(6, pool_size)
        base = pool_size - window
        kind = rng.choice(RECIPE_KINDS[recipe.domain])
        ops.append((kind, base + rng.below(window),
                    base + rng.below(window)))
        pool_size += 1
    return _with_recipe(case, replace(recipe, ops=tuple(ops)))


def mutate_shrink(case: CorpusCase, rng: _LCG,
                  population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Delete one random op (rewiring consumers like the shrinker)."""
    if case.recipe.op_count <= 1:
        return None
    position = rng.below(case.recipe.op_count)
    return _with_recipe(case, _delete_op(case.recipe, position))


def mutate_opkind(case: CorpusCase, rng: _LCG,
                  population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Flip one op to a different kind legal in the recipe's domain."""
    recipe = case.recipe
    if not recipe.ops:
        return None
    position = rng.below(recipe.op_count)
    kind, left, right = recipe.ops[position]
    choices = [k for k in RECIPE_KINDS[recipe.domain] if k != kind]
    if not choices:
        return None
    ops = list(recipe.ops)
    ops[position] = (rng.choice(choices), left, right)
    return _with_recipe(case, replace(recipe, ops=tuple(ops)))


def mutate_rewire(case: CorpusCase, rng: _LCG,
                  population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Redirect one operand to a random earlier pool value."""
    recipe = case.recipe
    if not recipe.ops:
        return None
    position = rng.below(recipe.op_count)
    side = rng.below(2)
    target = rng.below(recipe.inputs + position)
    return _with_recipe(
        case, _rewire_operand(recipe, position, side, target)
    )


def mutate_width(case: CorpusCase, rng: _LCG,
                 population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Change the element bit width."""
    choices = [w for w in RECIPE_WIDTHS if w != case.recipe.width]
    if not choices:
        return None
    return _with_recipe(
        case, replace(case.recipe, width=rng.choice(choices))
    )


def mutate_domain(case: CorpusCase, rng: _LCG,
                  population: Sequence[CorpusCase]) -> CorpusCase:
    """Toggle fixed-point vs integer values (remapping illegal kinds)."""
    recipe = case.recipe
    domain = "int" if recipe.domain == "fixed" else "fixed"
    ops = tuple(
        (_legal_kind(kind, domain, rng), left, right)
        for kind, left, right in recipe.ops
    )
    return _with_recipe(case, replace(recipe, ops=ops, domain=domain))


def mutate_fu(case: CorpusCase, rng: _LCG,
              population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Tighten or release the universal FU budget."""
    choices = [fu for fu in FU_CHOICES if fu != case.fu_limit]
    return replace(case, fu_limit=rng.choice(choices))


def mutate_scheduler(case: CorpusCase, rng: _LCG,
                     population: Sequence[CorpusCase]) -> CorpusCase | None:
    choices = [s for s in sorted(SCHEDULERS) if s != case.scheduler]
    if not choices:
        return None
    return replace(case, scheduler=rng.choice(choices))


def mutate_allocator(case: CorpusCase, rng: _LCG,
                     population: Sequence[CorpusCase]) -> CorpusCase | None:
    choices = [a for a in sorted(ALLOCATORS) if a != case.allocator]
    if not choices:
        return None
    return replace(case, allocator=rng.choice(choices))


def mutate_crossover(case: CorpusCase, rng: _LCG,
                     population: Sequence[CorpusCase]) -> CorpusCase | None:
    """Splice another corpus entry's op tail onto this case's prefix.

    Operand indices of the grafted tail are folded modulo the valid
    pool prefix at each position, so the child is a DAG by
    construction whatever the parents' shapes were.
    """
    if len(population) < 2:
        return None
    other = population[rng.below(len(population))]
    recipe, donor = case.recipe, other.recipe
    if not recipe.ops or not donor.ops:
        return None
    keep = 1 + rng.below(recipe.op_count)
    ops = list(recipe.ops[:keep])
    tail_from = rng.below(donor.op_count)
    for kind, left, right in donor.ops[tail_from:]:
        limit = recipe.inputs + len(ops)
        ops.append((
            _legal_kind(kind, recipe.domain, rng),
            left % limit,
            right % limit,
        ))
    return _with_recipe(case, replace(recipe, ops=tuple(ops)))


MUTATORS: dict[str, Mutator] = {
    "grow": mutate_grow,
    "shrink": mutate_shrink,
    "opkind": mutate_opkind,
    "rewire": mutate_rewire,
    "width": mutate_width,
    "domain": mutate_domain,
    "fu": mutate_fu,
    "scheduler": mutate_scheduler,
    "allocator": mutate_allocator,
    "crossover": mutate_crossover,
}

_MUTATOR_ORDER = tuple(sorted(MUTATORS))


def mutate_case(case: CorpusCase, seed: int,
                population: Sequence[CorpusCase] = (),
                ) -> tuple[str, CorpusCase]:
    """One deterministic mutation of ``case``.

    Picks a mutator from ``seed``; a mutator that does not apply
    (e.g. crossover with a singleton population) falls through to the
    next in name order — ``grow`` always applies, so this terminates.
    Returns ``(mutator_name, mutated_case)``.
    """
    rng = _LCG(seed)
    # The seed is itself an LCG output, and LCG low bits correlate
    # across streams — modulo on the raw state would leave half the
    # mutators unreachable.  High bits mix properly.
    start = (rng.next() >> 16) % len(_MUTATOR_ORDER)
    for offset in range(len(_MUTATOR_ORDER)):
        name = _MUTATOR_ORDER[(start + offset) % len(_MUTATOR_ORDER)]
        mutated = MUTATORS[name](case, rng, population)
        if mutated is not None:
            return name, mutated
    raise AssertionError("no mutator applied (grow must always apply)")


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    """Outcome of evaluating one case: verdict plus coverage."""

    ok: bool
    summary: str
    atoms: frozenset[str]
    fingerprint: str


def evaluate_case(case: CorpusCase, vector_count: int = 3) -> CaseResult:
    """Run one case and compute its coverage fingerprint.

    The case's combo goes through the differential engine (contracts
    + behavioral/RTL agreement); coverage is the delta of the metrics
    registry, the span names recorded (tracing is force-enabled for
    the duration), and the per-combo statuses.  Everything observed
    is deterministic for a deterministic pipeline, so the fingerprint
    is reproducible — the property corpus replay relies on.
    """
    registry = metrics()
    before = registry.snapshot()
    spans = tracer()
    mark = len(spans)
    keep_spans = tracing_enabled()
    with tracing(True):
        report = run_differential(
            lambda: build_dfg(case.recipe),
            schedulers=[case.scheduler],
            allocators=[case.allocator],
            options=case.options(),
            vector_count=vector_count,
            label=case.recipe.name,
        )
    span_names = {record.name for record in spans.records(mark)}
    if not keep_spans:
        spans.truncate(mark)
    after = registry.snapshot()
    extra = set()
    for combo in report.combos:
        extra.add(
            f"combo:{combo.scheduler}x{combo.allocator}:{combo.status}"
        )
        if combo.stage:
            extra.add(f"stage:{combo.status}:{combo.stage}")
        for violation in combo.violations:
            extra.add(f"violation:{violation.kind}")
    atoms = coverage_atoms(before, after, sorted(span_names),
                           sorted(extra))
    return CaseResult(
        ok=report.ok,
        summary="" if report.ok else describe_failure(report),
        atoms=atoms,
        fingerprint=coverage_fingerprint(atoms),
    )


def _corpus_worker(payload: dict) -> dict:
    """Process-pool entry point: evaluate one case in a worker."""
    result = evaluate_case(CorpusCase.from_dict(payload))
    return {
        "ok": result.ok,
        "summary": result.summary,
        "atoms": sorted(result.atoms),
        "fingerprint": result.fingerprint,
    }


def _evaluate_batch(
    cases: Sequence[CorpusCase], jobs: int,
    timeout_s: float | None,
) -> tuple[list["CaseResult | None"], list[TaskFailure]]:
    """Evaluate cases, in order; a crashed case slot becomes None."""
    if jobs <= 1 or len(cases) <= 1:
        return [evaluate_case(case) for case in cases], []
    batch = run_tasks(
        _corpus_worker,
        [case.to_dict() for case in cases],
        labels=[case.key for case in cases],
        max_workers=jobs,
        timeout_s=(timeout_s if timeout_s is not None
                   else default_timeout_s()),
        fallback=None,
    )
    by_label = {
        outcome.label: outcome.value
        for outcome in batch.outcomes if outcome.ok
    }
    results: list[CaseResult | None] = []
    for case in cases:
        raw = by_label.get(case.key)
        if raw is None:
            results.append(None)
            continue
        results.append(CaseResult(
            ok=raw["ok"],
            summary=raw["summary"],
            atoms=frozenset(raw["atoms"]),
            fingerprint=raw["fingerprint"],
        ))
    return results, batch.failures


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted corpus member."""

    case: CorpusCase
    fingerprint: str
    found_by: str = "seed"
    parent: str | None = None

    @property
    def key(self) -> str:
        return self.case.key

    def to_dict(self) -> dict:
        return {
            "schema": _CORPUS_SCHEMA,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "found_by": self.found_by,
            "parent": self.parent,
            "case": self.case.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        return cls(
            case=CorpusCase.from_dict(data["case"]),
            fingerprint=data["fingerprint"],
            found_by=data.get("found_by", "seed"),
            parent=data.get("parent"),
        )


class Corpus:
    """A directory of content-addressed corpus entries.

    Layout: one ``<case-key>.json`` per entry, directly under
    ``root`` (corpora are hundreds of entries at most; no sharding).
    Writes go through the store's atomic temp+rename helper so
    concurrent fuzzing runs can share a corpus directory — last
    writer of one key wins with identical bytes.  ``root=None`` is an
    ephemeral in-memory corpus (the loop works without persistence).

    An undecodable entry is skipped and counted under
    ``fuzz.corpus.corrupt`` — never deleted, since corpus files may
    be hand-curated regression inputs.
    """

    def __init__(self, root: "str | os.PathLike | None") -> None:
        self.root = Path(root) if root is not None else None
        self._ephemeral: dict[str, CorpusEntry] = {}

    def load(self) -> list[CorpusEntry]:
        """Every valid entry, ordered by key (deterministic)."""
        if self.root is None:
            return [self._ephemeral[key]
                    for key in sorted(self._ephemeral)]
        if not self.root.is_dir():
            return []
        entries = []
        for path in sorted(self.root.glob("*.json")):
            try:
                entries.append(
                    CorpusEntry.from_dict(
                        json.loads(path.read_text())
                    )
                )
            except (OSError, ValueError, KeyError):
                metrics().counter("fuzz.corpus.corrupt").inc()
        return sorted(entries, key=lambda entry: entry.key)

    def add(self, entry: CorpusEntry) -> bool:
        """Persist one entry; True when it was published."""
        if self.root is None:
            self._ephemeral[entry.key] = entry
            return True
        blob = (json.dumps(entry.to_dict(), sort_keys=True, indent=2)
                + "\n").encode("utf-8")
        return atomic_write_bytes(
            self.root / f"{entry.key}.json", blob,
            fault_label="corpus.persist",
        )

    def remove(self, key: str) -> None:
        if self.root is None:
            self._ephemeral.pop(key, None)
            return
        try:
            (self.root / f"{key}.json").unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzTier:
    """One example-budget profile (Hypothesis-settings style)."""

    name: str
    #: Mutational budget of a corpus run.
    mutations: int
    #: Seed-phase cases evaluated before mutating, when no seed list
    #: is given.
    init_seeds: int
    #: Recipe size cap mutations may grow to.
    max_ops: int
    #: Wall-clock safety valve in seconds (budgets stay the
    #: determinism knob; the cap only stops runaway deep runs).
    wall_clock_s: float


TIERS: dict[str, FuzzTier] = {
    "smoke": FuzzTier("smoke", mutations=40, init_seeds=4,
                      max_ops=16, wall_clock_s=120.0),
    "standard": FuzzTier("standard", mutations=200, init_seeds=8,
                         max_ops=24, wall_clock_s=600.0),
    "deep": FuzzTier("deep", mutations=1000, init_seeds=16,
                     max_ops=32, wall_clock_s=3600.0),
}


# ----------------------------------------------------------------------
# The coverage-guided loop
# ----------------------------------------------------------------------


@dataclass
class CorpusFinding:
    """A case that broke the pipeline (shrunk, scripted)."""

    case: CorpusCase
    summary: str
    found_by: str
    shrunk: DFGRecipe | None = None
    script_path: str | None = None

    def render(self) -> str:
        line = (f"  {self.case.describe()} [{self.found_by}]: "
                f"{self.summary}")
        if self.shrunk is not None:
            line += (f" (shrunk {self.case.recipe.op_count} -> "
                     f"{self.shrunk.op_count} ops)")
        if self.script_path is not None:
            line += f" repro: {self.script_path}"
        return line


@dataclass
class CorpusReport:
    """Outcome of one coverage-guided fuzzing run."""

    tier: str
    master_seed: int
    #: Cases run, seed phase and mutations, crashed ones included.
    cases: int = 0
    mutations: int = 0
    corpus_size: int = 0
    new_entries: list[CorpusEntry] = field(default_factory=list)
    findings: list[CorpusFinding] = field(default_factory=list)
    task_failures: list[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.task_failures

    @property
    def fingerprints(self) -> set[str]:
        return {entry.fingerprint for entry in self.new_entries}

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        header = (
            f"corpus fuzz [{self.tier}]: {verdict} "
            f"({self.cases} cases, {self.mutations} mutations, "
            f"{len(self.new_entries)} new coverage, "
            f"{self.corpus_size} corpus entries, "
            f"{len(self.findings)} failing"
        )
        if self.task_failures:
            header += f", {len(self.task_failures)} crashed"
        lines = [header + ")"]
        lines.extend(
            f"  + {entry.fingerprint} {entry.case.describe()} "
            f"[{entry.found_by}]"
            for entry in self.new_entries
        )
        lines.extend(finding.render() for finding in self.findings)
        lines.extend(
            f"  case {failure.label}: worker {failure.kind}: "
            f"{failure.message}"
            for failure in self.task_failures
        )
        return "\n".join(lines)


def fuzz_corpus(
    corpus_dir: "str | os.PathLike | None" = None,
    *,
    tier: str = "standard",
    budget: int | None = None,
    seeds: Sequence[int] | None = None,
    master_seed: int = 1,
    jobs: int = 1,
    ops: int = 12,
    inputs: int = 4,
    artifacts_dir: str = "artifacts",
    shrink: bool = True,
    max_seconds: float | None = None,
    timeout_s: float | None = None,
) -> CorpusReport:
    """Run the mutational, coverage-guided fuzzing loop.

    Args:
        corpus_dir: persisted corpus directory (None = in-memory).
        tier: budget profile (:data:`TIERS`).
        budget: mutation count; overrides the tier's.
        seeds: generator seeds for the seed phase, each run under
            every scheduler × allocator pair (None: the tier's
            ``init_seeds``, cycling the pairs).  With ``budget=0``
            this is a fixed-seed sweep.
        master_seed: the run's single source of randomness — the
            corpus produced is a pure function of (existing corpus,
            master_seed, jobs, budget).
        jobs: worker processes; candidates are generated in
            deterministic batches and folded in batch order.
        ops / inputs: seed-phase recipe shape.
        artifacts_dir: repro scripts for findings go here — created
            only when the first finding is written, never on a clean
            run.
        shrink: delta-debug failing recipes before scripting them.
        max_seconds: wall-clock safety valve (default: the tier's).
        timeout_s: per-case budget for parallel evaluation.  A case
            whose worker crashed or hung is reported in
            ``report.task_failures`` under its key, never rerun in
            this process.
    """
    if tier not in TIERS:
        raise ValueError(
            f"unknown fuzz tier {tier!r}; expected one of "
            f"{sorted(TIERS)}"
        )
    tier_cfg = TIERS[tier]
    budget = tier_cfg.mutations if budget is None else budget
    max_seconds = (tier_cfg.wall_clock_s if max_seconds is None
                   else max_seconds)

    corpus = Corpus(corpus_dir)
    entries = corpus.load()
    seen = {entry.fingerprint for entry in entries}
    known_keys = {entry.key for entry in entries}
    population = list(entries)
    registry = metrics()
    report = CorpusReport(tier=tier, master_seed=master_seed)
    rng = _LCG(master_seed)
    deadline = (time.monotonic() + max_seconds
                if max_seconds else None)

    def fold(case: CorpusCase, result: "CaseResult | None",
             found_by: str, parent: str | None) -> None:
        if result is None:
            return  # crashed worker: reported via task_failures
        registry.counter("fuzz.corpus.cases").inc()
        if not result.ok:
            registry.counter("fuzz.corpus.failing").inc()
            finding = CorpusFinding(case, result.summary, found_by)
            report.findings.append(finding)
            minimal = case.recipe
            if shrink:
                shrunk = shrink_failure(
                    case.recipe,
                    lambda candidate: recipe_fails(
                        candidate, [case.scheduler],
                        [case.allocator], case.options(),
                    ),
                ).shrunk
                finding.shrunk = shrunk
                minimal = shrunk
            finding.script_path = write_repro_script(
                minimal, [case.scheduler], [case.allocator],
                os.path.join(artifacts_dir,
                             f"repro_corpus_{case.key}.py"),
                notes=f"Corpus case {case.key} [{found_by}]: "
                      f"{result.summary}",
                fu_limit=case.fu_limit,
            )
            return
        if result.fingerprint in seen:
            return
        seen.add(result.fingerprint)
        registry.counter("fuzz.corpus.new_coverage").inc()
        entry = CorpusEntry(case, result.fingerprint, found_by, parent)
        corpus.add(entry)
        known_keys.add(entry.key)
        population.append(entry)
        report.new_entries.append(entry)

    if seeds is None:
        seed_phase = list(enumerate(
            fixed_seed_cases(tier_cfg.init_seeds, ops, inputs), start=1))
    else:
        seed_phase = []
        for number in seeds:
            recipe = _seed_recipe(number, ops, inputs)
            seed_phase.extend(
                (number, CorpusCase(recipe, scheduler, allocator))
                for scheduler, allocator in default_combos()
            )

    with trace_span("fuzz.corpus", tier=tier, budget=budget,
                    jobs=jobs):
        # Seed phase: deterministic baseline population.  Already-known
        # cases (from a restored corpus) are not re-evaluated.
        seed_batch = [
            (case, f"seed {number}")
            for number, case in seed_phase
            if case.key not in known_keys
        ]
        report.cases += len(seed_batch)
        results, failures = _evaluate_batch(
            [case for case, _ in seed_batch], jobs, timeout_s)
        report.task_failures.extend(failures)
        for (case, found_by), result in zip(seed_batch, results):
            fold(case, result, found_by, None)

        # Mutation phase, batched for parallelism; candidate
        # generation only reads the population between batches, so
        # the evolution is deterministic for fixed (seed, jobs).
        batch_size = 1 if jobs <= 1 else jobs * 2
        while report.mutations < budget:
            if deadline is not None and time.monotonic() > deadline:
                registry.counter("fuzz.corpus.deadline").inc()
                break
            parent_pool = (
                [entry.case for entry in population]
                or [case for _, case in seed_phase]
            )
            batch: list[tuple[CorpusCase, str, str | None]] = []
            while (len(batch) < batch_size
                   and report.mutations + len(batch) < budget):
                parent = parent_pool[rng.below(len(parent_pool))]
                mutator, candidate = mutate_case(
                    parent, rng.next(), parent_pool
                )
                if candidate.recipe.op_count > tier_cfg.max_ops:
                    mutator, candidate = "shrink", _with_recipe(
                        candidate,
                        _delete_op(candidate.recipe,
                                   candidate.recipe.op_count - 1),
                    )
                batch.append((candidate, mutator, parent.key))
            report.mutations += len(batch)
            report.cases += len(batch)
            registry.counter("fuzz.corpus.mutations").inc(len(batch))
            results, failures = _evaluate_batch(
                [case for case, _, _ in batch], jobs, timeout_s)
            report.task_failures.extend(failures)
            for (case, mutator, parent_key), result in zip(batch,
                                                           results):
                fold(case, result, mutator, parent_key)

    report.corpus_size = len(population)
    registry.gauge("fuzz.corpus.entries").set(len(population))
    return report


# ----------------------------------------------------------------------
# Replay and minimization
# ----------------------------------------------------------------------


@dataclass
class ReplayRow:
    """One corpus entry's replay outcome."""

    key: str
    ok: bool
    summary: str
    stored_fingerprint: str
    fingerprint: str

    @property
    def drifted(self) -> bool:
        return self.fingerprint != self.stored_fingerprint

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        drift = "" if not self.drifted else (
            f" (fingerprint drift {self.stored_fingerprint} -> "
            f"{self.fingerprint})"
        )
        detail = f": {self.summary}" if self.summary else ""
        return f"  {status:<5} {self.key}{drift}{detail}"


@dataclass
class ReplayReport:
    """Outcome of replaying every corpus entry."""

    rows: list[ReplayRow] = field(default_factory=list)
    task_failures: list[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (all(row.ok for row in self.rows)
                and not self.task_failures)

    @property
    def fingerprints(self) -> set[str]:
        return {row.fingerprint for row in self.rows}

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        failing = sum(1 for row in self.rows if not row.ok)
        drifted = sum(1 for row in self.rows if row.drifted)
        lines = [
            f"corpus replay: {verdict} ({len(self.rows)} entries, "
            f"{failing} failing, {drifted} drifted)"
        ]
        lines.extend(row.render() for row in self.rows)
        lines.extend(
            f"  case {failure.label}: worker {failure.kind}: "
            f"{failure.message}"
            for failure in self.task_failures
        )
        return "\n".join(lines)


def replay_corpus(
    corpus_dir: "str | os.PathLike",
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
) -> ReplayReport:
    """Re-run every corpus entry; every one must synthesize clean.

    Fingerprint drift (the entry now lights different coverage —
    normal after pipeline changes) is reported but not fatal; a
    failing entry is.  Replay of an unchanged tree is hermetic: the
    fingerprints equal the stored ones bit-for-bit.
    """
    entries = Corpus(corpus_dir).load()
    report = ReplayReport()
    with trace_span("fuzz.corpus.replay", entries=len(entries)):
        results, failures = _evaluate_batch(
            [entry.case for entry in entries], jobs, timeout_s)
        report.task_failures.extend(failures)
        for entry, result in zip(entries, results):
            if result is None:
                continue
            metrics().counter("fuzz.corpus.replayed").inc()
            report.rows.append(ReplayRow(
                key=entry.key,
                ok=result.ok,
                summary=result.summary,
                stored_fingerprint=entry.fingerprint,
                fingerprint=result.fingerprint,
            ))
    return report


@dataclass
class MinimizeReport:
    """Outcome of corpus minimization."""

    kept: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    fingerprints: set[str] = field(default_factory=set)

    def render(self) -> str:
        return (
            f"corpus minimize: kept {len(self.kept)} of "
            f"{len(self.kept) + len(self.removed)} entries "
            f"({len(self.fingerprints)} fingerprints preserved)"
        )


def minimize_corpus(
    corpus_dir: "str | os.PathLike",
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
) -> MinimizeReport:
    """Drop corpus entries that no longer add coverage.

    Re-evaluates every entry, groups by *current* fingerprint and
    keeps exactly one entry per fingerprint — the smallest recipe,
    ties broken by key.  By construction no fingerprint present
    before minimization is lost.  Kept entries whose stored
    fingerprint drifted are rewritten in place; entries whose replay
    crashed are conservatively kept untouched.
    """
    corpus = Corpus(corpus_dir)
    entries = corpus.load()
    report = MinimizeReport()
    results, _failures = _evaluate_batch(
        [entry.case for entry in entries], jobs, timeout_s)
    groups: dict[str, list[tuple[CorpusEntry, "CaseResult"]]] = {}
    for entry, result in zip(entries, results):
        if result is None:
            report.kept.append(entry.key)
            continue
        groups.setdefault(result.fingerprint, []).append(
            (entry, result)
        )
    for fingerprint in sorted(groups):
        members = sorted(
            groups[fingerprint],
            key=lambda pair: (pair[0].case.recipe.op_count,
                              pair[0].key),
        )
        keeper, keeper_result = members[0]
        report.fingerprints.add(fingerprint)
        report.kept.append(keeper.key)
        if keeper.fingerprint != keeper_result.fingerprint:
            corpus.add(replace(keeper,
                               fingerprint=keeper_result.fingerprint))
        for entry, _result in members[1:]:
            corpus.remove(entry.key)
            report.removed.append(entry.key)
            metrics().counter("fuzz.corpus.minimized").inc()
    return report
