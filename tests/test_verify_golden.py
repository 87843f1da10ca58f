"""Golden-file tests: Violation rendering and ``repro verify`` output.

The golden files under ``tests/golden/`` pin the exact user-visible
text.  Violation renderings are built from hand-constructed records
(op/value ids in messages come from process-local counters, so goldens
of real corrupted designs pin *kinds*, not messages).
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.controller.fsm import Transition
from repro.core import SynthesisOptions, synthesize
from repro.scheduling import ResourceConstraints
from repro.verify import VerificationReport, Violation, verify_design
from repro.workloads import SQRT_SOURCE

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestViolationRenderGolden:
    def test_report_render_matches_golden(self):
        report = VerificationReport("corrupted")
        report.extend([
            Violation(
                "controller", "dead-state", "S4",
                "state S4 (body#4) can never reach the halt exit",
            ),
            Violation(
                "allocation", "register-overlap", "body",
                "register r2 holds v9 (0, 3] and v11 (2, 5] "
                "simultaneously",
            ),
            Violation(
                "scheduling", "precedence", "body",
                "op7@1 starts before its predecessor op5@2 allows "
                "(earliest legal start 3)",
            ),
            Violation(
                "allocation", "fu-double-booked", "body",
                "fu0 runs op3 [1,1] and op4 [1,1] in overlapping "
                "steps",
            ),
        ])
        assert report.render() + "\n" == read_golden(
            "violation_render.txt"
        )

    def test_single_violation_render(self):
        violation = Violation(
            "binding", "unbound-fu", "fu0",
            "fu0 executes ['add'] but has no library component",
        )
        assert violation.render() == (
            "[binding] unbound-fu @fu0: fu0 executes ['add'] but has "
            "no library component"
        )


class TestBrokenDesignGolden:
    def test_corrupted_sqrt_reports_expected_kinds(self):
        """Three hand-injected corruptions, one per layer; the kind
        set is pinned by a golden file."""
        design = synthesize(
            SQRT_SOURCE,
            options=SynthesisOptions(
                constraints=ResourceConstraints({"fu": 2})
            ),
        )
        schedule = next(iter(design.schedules.values()))
        schedule.start[next(iter(schedule.start))] = -1
        fu = next(iter(design.binding.components))
        design.binding.components.pop(fu)
        design.fsm.states[0].transition = Transition(999)

        report = verify_design(design)
        assert not report.ok
        expected = set(
            read_golden("broken_sqrt_kinds.txt").split()
        )
        assert report.kinds() == expected


class TestVerifyCLIGolden:
    @pytest.fixture
    def sqrt_file(self, tmp_path):
        path = tmp_path / "sqrt.bsl"
        path.write_text(SQRT_SOURCE)
        return str(path)

    def test_verify_output_matches_golden(self, sqrt_file, capsys):
        assert main(["verify", sqrt_file]) == 0
        out = capsys.readouterr().out
        assert out == read_golden("cli_verify_sqrt.txt")

    def test_verify_differential_flag(self, sqrt_file, capsys):
        assert main([
            "verify", sqrt_file, "--differential",
            "--scheduler", "list",
        ]) == 0
        out = capsys.readouterr().out
        assert "differential on 'sqrt': PASS" in out

    def test_fuzz_cli(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seeds", "2", "--ops", "6",
            "--artifacts", str(tmp_path / "artifacts"),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS (70 cases, 0 mutations" in out
        assert main([
            "fuzz", "--seed", "17", "--ops", "6",
            "--artifacts", str(tmp_path / "artifacts"),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS (35 cases, 0 mutations" in lines[0]
        assert all(line.endswith("[seed 17]") for line in lines[1:])
        assert not (tmp_path / "artifacts").exists()
