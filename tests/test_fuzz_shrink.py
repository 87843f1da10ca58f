"""Recipe-based DFG generation, the shrinking reducer, and fixed-seed
sweeps through the fuzz loop (including repro-script artifacts).
"""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import SCHEDULERS
from repro.errors import SchedulingError
from repro.scheduling import ListScheduler
from repro.sim import BehavioralSimulator, default_vectors
from repro.verify import (
    CorpusCase,
    default_combos,
    evaluate_case,
    fuzz_corpus,
    minimize_corpus,
    recipe_fails,
    replay_corpus,
    shrink_failure,
    write_repro_script,
)
from repro.workloads import (
    DFGRecipe,
    RandomDFGSpec,
    build_dfg,
    dfg_recipe,
    random_dfg,
    shrink_recipe,
)


class TestRecipes:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1234])
    def test_recipe_roundtrip_matches_random_dfg(self, seed):
        """random_dfg(spec) and build_dfg(dfg_recipe(spec)) are the
        same construction — same graph, same behavior."""
        spec = RandomDFGSpec(ops=12, seed=seed)
        direct = random_dfg(spec)
        rebuilt = build_dfg(dfg_recipe(spec))
        assert direct.name == rebuilt.name
        vectors = default_vectors(direct, count=3, seed=seed)
        for inputs in vectors:
            assert (BehavioralSimulator(direct).run(dict(inputs))
                    == BehavioralSimulator(rebuilt).run(dict(inputs)))

    def test_recipe_is_deterministic(self):
        spec = RandomDFGSpec(ops=10, seed=5)
        assert dfg_recipe(spec) == dfg_recipe(spec)

    def test_recipe_rejects_forward_reference(self):
        with pytest.raises(ValueError, match="reads pool index"):
            DFGRecipe(inputs=2, ops=(("ADD", 0, 5),))

    def test_recipe_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            DFGRecipe(inputs=2, ops=(("BOGUS", 0, 1),))

    def test_render_is_evaluable(self):
        recipe = dfg_recipe(RandomDFGSpec(ops=6, seed=3))
        rebuilt = eval(recipe.render(), {"DFGRecipe": DFGRecipe})
        assert rebuilt == recipe


def _has_mul(recipe: DFGRecipe) -> bool:
    return any(kind == "MUL" for kind, _, _ in recipe.ops)


class TestShrinker:
    def test_shrinks_to_single_op(self):
        """A failure predicate depending on one op kind shrinks to a
        one-op recipe."""
        recipe = dfg_recipe(RandomDFGSpec(ops=20, seed=2, mul_weight=2))
        assert _has_mul(recipe)
        shrunk = shrink_recipe(recipe, _has_mul)
        assert shrunk.op_count == 1
        assert _has_mul(shrunk)
        build_dfg(shrunk).validate()

    def test_result_is_locally_minimal(self):
        def fails(recipe: DFGRecipe) -> bool:
            muls = sum(1 for kind, _, _ in recipe.ops if kind == "MUL")
            return muls >= 2

        recipe = dfg_recipe(RandomDFGSpec(ops=18, seed=9, mul_weight=3))
        assert fails(recipe)
        shrunk = shrink_recipe(recipe, fails)
        assert fails(shrunk)
        assert shrunk.op_count == 2
        build_dfg(shrunk).validate()

    def test_never_returns_non_failing(self):
        recipe = dfg_recipe(RandomDFGSpec(ops=15, seed=4))
        shrunk = shrink_recipe(recipe, lambda r: r.op_count >= 5)
        assert shrunk.op_count == 5

    def test_shrink_failure_counts_attempts(self):
        recipe = dfg_recipe(RandomDFGSpec(ops=10, seed=6, mul_weight=2))
        result = shrink_failure(recipe, _has_mul)
        assert result.attempts > 0
        assert result.removed_ops == 10 - result.shrunk.op_count
        assert result.shrunk.op_count == 1


class _MulHatingScheduler(ListScheduler):
    """Injected bug: refuses any block containing a multiply."""

    def schedule(self):
        from repro.ir.opcodes import OpKind

        if any(op.kind is OpKind.MUL for op in self.problem.ops):
            raise SchedulingError("injected: cannot schedule MUL")
        return super().schedule()


class TestFuzzer:
    def test_clean_seeds_pass(self, tmp_path):
        """A clean sweep evaluates every seed under every pair, leaves
        no artifacts/, and its corpus replays and minimizes clean."""
        corpus = tmp_path / "corpus"
        artifacts = tmp_path / "artifacts"
        report = fuzz_corpus(corpus, seeds=[1, 2, 3], budget=0, ops=6,
                             artifacts_dir=str(artifacts))
        assert report.ok, report.render()
        assert report.cases == 3 * len(default_combos())
        assert report.mutations == 0
        assert {e.found_by for e in report.new_entries} <= {
            "seed 1", "seed 2", "seed 3"}
        assert not artifacts.exists()
        entries = len(report.new_entries)
        assert report.render().startswith(
            f"corpus fuzz [standard]: PASS ({report.cases} cases, "
            f"0 mutations, {entries} new coverage"
        )
        replay = replay_corpus(corpus)
        assert replay.render().startswith(
            f"corpus replay: PASS ({entries} entries, 0 failing, "
            f"0 drifted)"
        )
        assert minimize_corpus(corpus).render() == (
            f"corpus minimize: kept {entries} of {entries} entries "
            f"({entries} fingerprints preserved)"
        )

    def test_check_seed_reports_failure_summary(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "mul-hater",
                            _MulHatingScheduler)
        case = CorpusCase(dfg_recipe(RandomDFGSpec(ops=12, seed=1)),
                          "mul-hater", "left-edge")
        result = evaluate_case(case)
        assert not result.ok
        assert ("mul-hater" in result.summary
                and "scheduling" in result.summary)

    def test_injected_bug_shrinks_to_small_repro(self, monkeypatch,
                                                 tmp_path):
        """Acceptance: an artificially injected scheduler bug fuzzed
        at jobs=1 yields a shrunk repro of at most 8 ops, whose
        finding names its seed and whose script exits 1 while the bug
        is in."""
        monkeypatch.setitem(SCHEDULERS, "mul-hater",
                            _MulHatingScheduler)
        report = fuzz_corpus(
            None, seeds=[2], budget=0, ops=12, jobs=1,
            artifacts_dir=str(tmp_path),
        )
        assert not report.ok
        assert report.cases == len(default_combos())
        assert {f.case.scheduler for f in report.findings} == {
            "mul-hater"}
        failure = report.findings[0]
        assert failure.found_by == "seed 2"
        assert "[seed 2]" in failure.render()
        assert "mul-hater x" in failure.render()
        assert failure.shrunk is not None
        assert failure.shrunk.op_count <= 8
        assert _has_mul(failure.shrunk)
        script = Path(failure.script_path)
        assert script.exists()
        text = script.read_text()
        assert "mul-hater" in text and "DFGRecipe" in text
        assert "seed 2" in text
        assert runpy.run_path(str(script))["main"]() == 1

    def test_repro_script_runs_standalone(self, tmp_path):
        """A generated script is a complete program: on a recipe whose
        failure no longer reproduces (real combos), it exits 0."""
        recipe = dfg_recipe(RandomDFGSpec(ops=5, seed=11))
        path = write_repro_script(
            recipe, ["list"], ["left-edge"],
            str(tmp_path / "repro_test.py"),
            notes="generated by test_repro_script_runs_standalone",
        )
        completed = subprocess.run(
            [sys.executable, path],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert completed.returncode == 0, completed.stderr
        assert "PASS" in completed.stdout

    def test_recipe_fails_helper(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "mul-hater",
                            _MulHatingScheduler)
        mul_recipe = DFGRecipe(inputs=2, ops=(("MUL", 0, 1),))
        add_recipe = DFGRecipe(inputs=2, ops=(("ADD", 0, 1),))
        assert recipe_fails(mul_recipe, ["mul-hater"], ["left-edge"])
        assert not recipe_fails(add_recipe, ["mul-hater"],
                                ["left-edge"])
