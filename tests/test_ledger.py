"""Tests for the persistent QoR run ledger and regression reports.

Covers the record format (content-addressed, round-trippable), the
segment store (idempotent appends, corrupt-segment skip, concurrent
writers from two ``repro.exec`` processes), the engine integration
(exactly one record per synthesis invocation, none inside an enclosing
recorded run), the regression comparator (injected latency regression
fails, identical re-run passes), one record per ledger-writing CLI
verb, and the ``history``/``report`` CLI verbs.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.core import SynthesisOptions, synthesize
from repro.obs import ledger as run_ledger
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    build_record,
    configure_ledger,
    recorded_run,
)
from repro.obs.regression import (
    Threshold,
    compare,
    parse_threshold,
)
from repro.scheduling import ResourceConstraints
from repro.workloads import SQRT_SOURCE


def make_record(latency=10, wall=1.0, seq=0, workload="w",
                kind="synth", **qor_extra):
    """A synthetic comparable record (fixed group key, varying QoR)."""
    qor = {
        "latency_csteps": latency,
        "fu_total": 2,
        "registers": 4,
        "area": {"total": 100.0},
    }
    qor.update(qor_extra)
    return RunRecord(
        kind=kind,
        workload=workload,
        created_at=f"2026-01-01T00:00:{seq:02d}Z",
        wall_s=wall,
        env={"schema": 1, "source_digest": "d" * 16, "options": "()"},
        qor=qor,
    )


# ------------------------------------------------------------ RunRecord


class TestRunRecord:
    def test_round_trip_through_json(self):
        record = make_record(latency=7, wall=0.25)
        line = record.to_json()
        revived = RunRecord.from_dict(json.loads(line))
        assert revived == record
        assert revived.run_id == record.run_id

    def test_run_id_is_content_address(self):
        a = make_record(latency=7)
        b = make_record(latency=7)
        c = make_record(latency=8)
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert a.run_id == a.compute_run_id()

    def test_build_record_from_design(self):
        options = SynthesisOptions(
            constraints=ResourceConstraints({"fu": 2})
        )
        design = synthesize(SQRT_SOURCE, options=options)
        record = build_record("synth", design.cdfg.name, design=design,
                              source_digest="abc", options=options,
                              wall_s=0.125)
        assert record.kind == "synth"
        assert record.qor["latency_csteps"] > 0
        assert record.qor["fu_total"] == 2
        assert record.qor["registers"] == design.register_count
        assert record.qor["area"]["total"] > 0
        assert record.env["source_digest"] == "abc"
        assert record.env["options"]
        assert record.wall_s == 0.125


# ------------------------------------------------------------ RunLedger


class TestRunLedger:
    def test_append_then_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        first = make_record(latency=5, seq=0)
        second = make_record(latency=6, seq=1)
        ledger.append(second)
        ledger.append(first)
        got = ledger.records()
        # ordered by created_at regardless of append order
        assert [r.qor["latency_csteps"] for r in got] == [5, 6]
        assert len(ledger) == 2

    def test_append_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        record = make_record()
        ledger.append(record)
        ledger.append(record)
        assert len(ledger) == 1
        assert len(ledger.records()) == 1

    def test_corrupt_segments_are_skipped(self, tmp_path):
        from repro import obs

        ledger = RunLedger(tmp_path / "ledger")
        ledger.append(make_record(seq=0))
        ledger.append(make_record(seq=1, latency=11))
        seg = ledger.segment_dir
        with open(os.path.join(seg, "zz-truncated.jsonl"), "w") as fh:
            fh.write('{"kind": "synth", "workl')
        with open(os.path.join(seg, "zz-notdict.jsonl"), "w") as fh:
            fh.write('[1, 2, 3]\n')
        with open(os.path.join(seg, "zz-binary.jsonl"), "wb") as fh:
            fh.write(b"\x00\xff\xfe garbage")
        got = ledger.records()
        assert len(got) == 2
        assert obs.metrics().counters()["ledger.corrupt"] >= 3

    def test_missing_directory_reads_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "never-created")
        assert ledger.records() == []
        assert len(ledger) == 0


# ---------------------------------------------------- engine integration


class TestEngineIntegration:
    OPTIONS = dict(constraints=ResourceConstraints({"fu": 2}))

    def test_synthesis_appends_exactly_one_record(self, tmp_path):
        ledger = configure_ledger(tmp_path / "ledger")
        synthesize(SQRT_SOURCE,
                   options=SynthesisOptions(**self.OPTIONS))
        records = ledger.records()
        assert len(records) == 1
        record = records[0]
        assert record.kind == "synth"
        assert record.workload == "sqrt"
        assert record.qor["latency_csteps"] > 0
        assert record.extra["cached"] is False
        assert record.env["source_digest"]

    def test_cache_hit_still_records_and_marks_cached(self, tmp_path):
        ledger = configure_ledger(tmp_path / "ledger")
        synthesize(SQRT_SOURCE, use_cache=True,
                   options=SynthesisOptions(**self.OPTIONS))
        synthesize(SQRT_SOURCE, use_cache=True,
                   options=SynthesisOptions(**self.OPTIONS))
        records = ledger.records()
        assert len(records) == 2
        assert sorted(r.extra["cached"] for r in records) == [
            False, True,
        ]

    def test_ledger_scope_suppresses_engine_records(self, tmp_path):
        ledger = configure_ledger(tmp_path / "ledger")
        options = SynthesisOptions(**self.OPTIONS)
        # An enclosing run claims the record: the synthesis inside
        # writes none, and a run that names no workload writes none.
        with recorded_run("sweep") as outer:
            assert outer.claimed
            synthesize(SQRT_SOURCE, options=options)
        assert len(ledger.records()) == 0
        # No run is left open afterwards: the next top-level run claims.
        with recorded_run("sweep") as run:
            assert run.claimed
        # A body that raises appends nothing and leaves no run open.
        with pytest.raises(RuntimeError):
            with recorded_run("sweep") as run:
                run.name("sqrt")
                raise RuntimeError("body failed")
        assert len(ledger.records()) == 0
        synthesize(SQRT_SOURCE, options=options)
        assert [r.kind for r in ledger.records()] == ["synth"]

    def test_no_ledger_no_records(self, tmp_path):
        configure_ledger(None)
        synthesize(SQRT_SOURCE,
                   options=SynthesisOptions(**self.OPTIONS))
        assert run_ledger.active_ledger() is None

    def test_explore_appends_single_summary_record(self, tmp_path):
        from repro.explore import explore_fu_range

        ledger = configure_ledger(tmp_path / "ledger")
        explore_fu_range(SQRT_SOURCE, [1, 2])
        records = ledger.records()
        assert len(records) == 1
        assert records[0].kind == "explore"
        assert records[0].extra["points"]


# ------------------------------------------------- concurrent writers


def _worker_append(payload):
    """Append one record to the shared ledger (runs in a child
    process via repro.exec)."""
    root, index = payload
    ledger = RunLedger(root)
    return ledger.append(make_record(latency=10 + index, seq=index,
                                     workload=f"w{index}"))


class TestConcurrentAppends:
    def test_two_exec_workers_leave_parseable_ledger(self, tmp_path):
        from repro.exec import run_tasks

        root = str(tmp_path / "ledger")
        batch = run_tasks(
            _worker_append,
            [(root, index) for index in range(4)],
            max_workers=2,
        )
        assert batch.ok
        ledger = RunLedger(root)
        records = ledger.records()
        assert len(records) == 4
        assert sorted(r.workload for r in records) == [
            "w0", "w1", "w2", "w3",
        ]
        # every returned run id corresponds to a stored record
        assert sorted(batch.values()) == sorted(
            r.run_id for r in records
        )


# ------------------------------------------------------------ regression


class TestRegression:
    def test_identical_rerun_is_clean(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        report = compare(records)
        assert report.status == "ok"
        assert report.exit_code == 0

    def test_injected_latency_regression_fails(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        records.append(make_record(latency=12, seq=3))
        report = compare(records)
        assert report.status == "regression"
        assert report.exit_code == 2
        families = {
            v.family: v for v in report.groups[0].verdicts
        }
        assert families["latency_csteps"].status == "regression"
        assert families["latency_csteps"].change_pct == pytest.approx(20.0)

    def test_improvement_is_not_a_failure(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        records.append(make_record(latency=8, seq=3))
        report = compare(records)
        assert report.exit_code == 0
        families = {v.family: v for v in report.groups[0].verdicts}
        assert families["latency_csteps"].status == "improved"

    def test_first_run_of_a_group_is_new(self):
        report = compare([make_record(latency=10)])
        assert report.groups[0].status == "new"
        assert report.exit_code == 0

    def test_changed_options_start_a_fresh_group(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        changed = make_record(latency=99, seq=3)
        changed.env = dict(changed.env, options="(fu=1)")
        records.append(changed)
        report = compare(records)
        assert report.exit_code == 0  # never compared across groups
        assert len(report.groups) == 2

    def test_baseline_is_median_of_window(self):
        # history 10, 10, 40 (spike), latest 11: median 10 -> fails
        records = [make_record(latency=10, seq=0),
                   make_record(latency=10, seq=1),
                   make_record(latency=40, seq=2),
                   make_record(latency=11, seq=3)]
        report = compare(records)
        families = {v.family: v for v in report.groups[0].verdicts}
        assert families["latency_csteps"].baseline == 10
        assert families["latency_csteps"].status == "regression"

    def test_wall_clock_noise_floor(self):
        # sub-50ms baselines never fail, however large the ratio
        records = [make_record(latency=10, wall=0.01, seq=i)
                   for i in range(3)]
        records.append(make_record(latency=10, wall=0.04, seq=3))
        report = compare(records)
        assert report.exit_code == 0

    def test_threshold_override(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        records.append(make_record(latency=12, seq=3))
        report = compare(records, thresholds={
            "latency_csteps": Threshold(warn_pct=10.0, fail_pct=50.0),
        })
        assert report.status == "warn"
        assert report.exit_code == 1

    def test_parse_threshold(self):
        family, threshold = parse_threshold("wall_s=10,50")
        assert family == "wall_s"
        assert threshold.warn_pct == 10.0
        assert threshold.fail_pct == 50.0
        assert threshold.min_base == 0.05  # default floor kept
        _, disabled = parse_threshold("latency_csteps=-,5")
        assert disabled.warn_pct is None
        assert disabled.fail_pct == 5.0
        with pytest.raises(ValueError):
            parse_threshold("garbage")

    def test_lint_findings_growth_warns_and_errors_fail(self):
        def lint_record(findings, errors, seq):
            return RunRecord(
                kind="lint",
                workload="demo",
                created_at=f"2026-01-01T00:00:{seq:02d}Z",
                wall_s=0.2,
                env={"schema": 1, "source_digest": "d" * 16,
                     "options": "()"},
                extra={"findings": findings, "errors": errors,
                       "rule_counts": {"src.dead-store": findings}},
            )

        base = [lint_record(4, 0, seq) for seq in range(3)]
        report = compare(base + [lint_record(5, 0, 3)])
        families = {v.family: v for v in report.groups[0].verdicts}
        assert families["lint_findings"].status == "warn"
        assert report.exit_code == 1

        report = compare(base + [lint_record(4, 1, 3)])
        families = {v.family: v for v in report.groups[0].verdicts}
        assert families["lint_errors"].status == "regression"
        assert report.exit_code == 2

    def test_synth_records_skip_lint_families(self):
        records = [make_record(latency=10, seq=i) for i in range(3)]
        report = compare(records)
        families = {v.family for v in report.groups[0].verdicts}
        assert "lint_findings" not in families
        assert "lint_errors" not in families

    def test_markdown_and_text_renderings(self):
        records = [make_record(latency=10, seq=i) for i in range(2)]
        records.append(make_record(latency=12, seq=2))
        report = compare(records)
        text = report.render()
        assert "regression" in text
        assert "exit 2" in text
        markdown = report.to_markdown()
        assert markdown.startswith("## QoR regression report")
        assert "| synth:w | latency_csteps |" in markdown


# ------------------------------------------------------------------ CLI


@pytest.fixture
def sqrt_file(tmp_path):
    path = tmp_path / "sqrt.bsl"
    path.write_text(SQRT_SOURCE)
    return str(path)


class TestLedgerCLI:
    def test_synth_ledger_history_report_round_trip(
            self, sqrt_file, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        for _ in range(2):
            assert main(["synth", sqrt_file, "--fu", "2",
                         "--ledger", ledger_dir]) == 0
        capsys.readouterr()

        assert main(["history", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("synth") >= 2
        assert "sqrt" in out

        assert main(["history", "--ledger", ledger_dir,
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(row["kind"] == "synth" for row in rows)

        assert main(["report", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_report_detects_injected_regression(
            self, sqrt_file, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        for _ in range(2):
            assert main(["synth", sqrt_file, "--fu", "2",
                         "--ledger", ledger_dir]) == 0
        capsys.readouterr()

        # tamper: re-append the latest record with worse latency,
        # same group key, later timestamp
        ledger = RunLedger(ledger_dir)
        latest = ledger.records()[-1]
        data = latest.to_dict()
        data.pop("run_id")
        data["created_at"] = "2999-01-01T00:00:00Z"
        data["qor"] = dict(data["qor"],
                           latency_csteps=data["qor"]["latency_csteps"] + 3)
        ledger.append(RunRecord.from_dict(data))

        assert main(["report", "--ledger", ledger_dir]) == 2
        assert "regression" in capsys.readouterr().out

        assert main(["report", "--ledger", ledger_dir,
                     "--format", "json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 2
        assert doc["status"] == "regression"

        assert main(["report", "--ledger", ledger_dir,
                     "--format", "markdown"]) == 2
        assert "## QoR regression report" in capsys.readouterr().out

    def test_history_limit_and_filters(self, sqrt_file, tmp_path,
                                       capsys):
        ledger_dir = str(tmp_path / "ledger")
        assert main(["synth", sqrt_file, "--fu", "2",
                     "--ledger", ledger_dir]) == 0
        capsys.readouterr()
        assert main(["history", "--ledger", ledger_dir,
                     "--kind", "fuzz", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert main(["history", "--ledger", ledger_dir,
                     "--limit", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    SYNTH_KEYS = {"allocator", "cached", "scheduler"}
    EXPLORE_KEYS = {"failures", "limits", "pareto", "points",
                    "resource_class"}

    @pytest.mark.parametrize("verb, arguments, kind, workload, keys", [
        ("synth", ["--fu", "2"], "synth", "sqrt", SYNTH_KEYS),
        ("simulate", ["X=0.5", "--fu", "2"], "synth", "sqrt", SYNTH_KEYS),
        ("profile", ["--fu", "2"], "synth", "sqrt", SYNTH_KEYS),
        ("trace", [], "synth", "sqrt", SYNTH_KEYS),
        ("explore", ["--limits", "1,2"], "explore", "sqrt", EXPLORE_KEYS),
        ("explore", ["--directives", "--limits", "1,2"],
         "explore-directives", "sqrt",
         EXPLORE_KEYS | {"configs", "configs_evaluated", "configs_pruned",
                         "exhaustive", "funnel"}),
        ("verify", [], "verify", "sqrt", {"differential", "ok"}),
        ("lint", [], "lint", None,
         {"errors", "exit_code", "findings", "rule_counts", "sources"}),
        ("fuzz", ["--seeds", "1", "--ops", "6"], "fuzz", "run:standard",
         {"jobs", "mode", "ok", "tier"}),
    ], ids=["synth", "simulate", "profile", "trace", "explore",
            "explore-directives", "verify", "lint", "fuzz"])
    def test_each_verb_appends_one_record(self, verb, arguments, kind,
                                          workload, keys, sqrt_file,
                                          tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        if verb == "fuzz":
            arguments = arguments + ["--artifacts",
                                     str(tmp_path / "artifacts")]
        else:
            arguments = [sqrt_file] + arguments
        if verb == "trace":
            arguments = arguments + ["--out", str(tmp_path / "t.json")]
        assert main([verb, *arguments, "--ledger", ledger_dir]) == 0
        capsys.readouterr()

        (record,) = RunLedger(ledger_dir).records()
        assert record.kind == kind
        assert record.workload == (workload or sqrt_file)
        assert set(record.extra) == keys
        # Only the verbs that synthesize one named source carry its QoR
        # and digest; the linter and the fuzzer summarize many designs.
        summarizes = kind in ("lint", "fuzz")
        assert bool(record.qor) is not summarizes
        assert ("source_digest" in record.env) is not summarizes

    def test_report_empty_ledger_is_clean(self, tmp_path, capsys):
        assert main(["report", "--ledger",
                     str(tmp_path / "empty")]) == 0
        assert "no runs" in capsys.readouterr().out
