"""Tests for the command-line interface and the design-process log."""

import pytest

from repro.__main__ import main
from repro.core import synthesize
from repro.scheduling import ResourceConstraints
from repro.workloads import SQRT_SOURCE


@pytest.fixture
def sqrt_file(tmp_path):
    path = tmp_path / "sqrt.bsl"
    path.write_text(SQRT_SOURCE)
    return str(path)


class TestCLI:
    def test_synth(self, sqrt_file, capsys):
        assert main(["synth", sqrt_file, "--fu", "2"]) == 0
        out = capsys.readouterr().out
        assert "design sqrt" in out
        assert "design process log" in out

    def test_synth_verify_and_verilog(self, sqrt_file, tmp_path,
                                      capsys):
        output = tmp_path / "sqrt.v"
        assert main([
            "synth", sqrt_file, "--fu", "2", "--verify",
            "-o", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert output.read_text().startswith("// generated by repro-hls")

    def test_simulate(self, sqrt_file, capsys):
        assert main([
            "simulate", sqrt_file, "X=0.25", "--fu", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Y = 0.5" in out
        assert "cycles = 10" in out

    def test_explore(self, sqrt_file, capsys):
        assert main([
            "explore", sqrt_file, "--limits", "1,2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto" in out or "*" in out

    def test_unknown_scheduler_is_reported(self, sqrt_file, capsys):
        assert main([
            "synth", sqrt_file, "--scheduler", "bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown scheduler" in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--fu", "0"],
        ["synth", "--fu", "-1"],
        ["explore", "--limits", "0"],
        ["explore", "--limits", "1,0", "--jobs", "2"],
    ], ids=["synth-zero", "synth-negative", "explore-zero",
            "explore-parallel"])
    def test_unit_limit_below_one_is_reported(self, sqrt_file, capsys,
                                              argv):
        verb, *flags = argv
        assert main([verb, sqrt_file, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unit limit for class 'fu'")

    @pytest.mark.parametrize("limits,bad", [
        ("", ""), ("1,x", "x"), ("1,,2", ""),
    ], ids=["empty", "word", "empty-item"])
    def test_malformed_limits_are_reported(self, sqrt_file, capsys,
                                           limits, bad):
        assert main(["explore", sqrt_file, "--limits", limits]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --limits item {bad!r} is not an "
                              f"integer")

    def test_scheduler_choice_respected(self, sqrt_file, capsys):
        assert main([
            "synth", sqrt_file, "--fu", "2", "--scheduler", "asap",
        ]) == 0
        assert "scheduler=asap" in capsys.readouterr().out


class TestFuzzHelpGolden:
    def test_fuzz_help_matches_golden(self, capsys, monkeypatch):
        """The fuzz subcommand's --help is user-facing API surface:
        adding or renaming a flag must update the golden file."""
        from pathlib import Path

        # argparse wraps to the terminal width; pin it to the width
        # the golden file was captured at.
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("LINES", "24")
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        golden = (
            Path(__file__).resolve().parent / "golden"
            / "cli_fuzz_help.txt"
        ).read_text()
        assert out == golden


class TestDesignLog:
    def test_log_records_every_stage(self):
        design = synthesize(
            SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
        )
        text = design.log_text()
        assert "optimize:" in text
        assert "schedule[list]" in text
        assert "allocate[left-edge]" in text
        assert "bind:" in text
        assert "FSM with 4 states" in text

    def test_log_reflects_options(self):
        from repro.core import SynthesisOptions

        design = synthesize(
            SQRT_SOURCE,
            options=SynthesisOptions(
                scheduler="asap",
                allocator="clique",
                constraints=ResourceConstraints({"fu": 2}),
            ),
        )
        text = design.log_text()
        assert "schedule[asap]" in text
        assert "allocate[clique]" in text
