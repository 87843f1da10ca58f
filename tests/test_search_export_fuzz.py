"""Tests for constraint-driven search, JSON export and frontend fuzzing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthesize
from repro.errors import FrontendError
from repro.explore import dse, explore_fu_range, search_for_latency
from repro.lang import parse, tokenize
from repro.scheduling import ResourceConstraints
from repro.workloads import DIFFEQ_SOURCE, SQRT_SOURCE


class TestLatencySearch:
    def test_finds_smallest_budget(self):
        """sqrt needs 2 FUs for 10 cycles; 1 FU gives 19."""
        point = search_for_latency(SQRT_SOURCE, target_cycles=10,
                                   max_units=4)
        assert point is not None
        assert point.constraints.limit("fu") == 2
        assert point.cycles <= 10

    def test_loose_target_needs_one_unit(self):
        point = search_for_latency(SQRT_SOURCE, target_cycles=100,
                                   max_units=4)
        assert point is not None
        assert point.constraints.limit("fu") == 1

    def test_impossible_target(self):
        point = search_for_latency(SQRT_SOURCE, target_cycles=3,
                                   max_units=4)
        assert point is None

    def test_agrees_with_sweep(self):
        sweep = explore_fu_range(SQRT_SOURCE, [1, 2, 3])
        target = sweep.points[1].cycles  # what 2 FUs achieve
        found = search_for_latency(SQRT_SOURCE, target_cycles=target,
                                   max_units=3)
        assert found is not None
        assert found.constraints.limit("fu") == 2

    def test_impossible_target_consistent_across_jobs(self):
        """Regression pin: both the serial and the parallel search
        build the unconstrained ceiling first, so an impossible target
        returns None from *both* paths — neither may raise or return a
        partial point."""
        for n_jobs in (1, 2):
            point = search_for_latency(
                SQRT_SOURCE, target_cycles=3, max_units=4,
                n_jobs=n_jobs, use_cache=False,
            )
            assert point is None, f"n_jobs={n_jobs} found {point}"

    def test_feasible_target_consistent_across_jobs(self):
        serial = search_for_latency(SQRT_SOURCE, target_cycles=10,
                                    max_units=4, n_jobs=1,
                                    use_cache=False)
        parallel = search_for_latency(SQRT_SOURCE, target_cycles=10,
                                      max_units=4, n_jobs=2,
                                      use_cache=False)
        assert serial is not None and parallel is not None
        assert serial.constraints.limit("fu") == \
            parallel.constraints.limit("fu") == 2
        assert serial.cycles == parallel.cycles

    @pytest.mark.parametrize("source, target, max_units, limits, found", [
        (SQRT_SOURCE, 9, 5, [5], None),
        (SQRT_SOURCE, 10, 12, [12, 6, 3, 2, 1], 2),
        (SQRT_SOURCE, 19, 7, [7, 4, 2, 1], 1),
        (DIFFEQ_SOURCE, 3, 7, [7, 4, 2, 3], 3),
        (DIFFEQ_SOURCE, 3, 12, [12, 6, 3, 2], 3),
        (DIFFEQ_SOURCE, 3, 16, [16, 8, 4, 2, 3], 3),
        (DIFFEQ_SOURCE, 4, 5, [5, 3, 2, 1], 2),
    ])
    def test_serial_probe_sequence_is_the_bisection(
            self, monkeypatch, source, target, max_units, limits, found):
        """At n_jobs=1 the search builds the ceiling, then exactly the
        limits a binary search probes, in its order."""
        built = []
        build = dse._PointBuilder.build

        def recording_build(builder, limit):
            built.append(limit)
            return build(builder, limit)

        monkeypatch.setattr(dse._PointBuilder, "build", recording_build)
        point = search_for_latency(source, target, max_units=max_units)
        assert built == limits
        assert (None if point is None
                else point.constraints.limit("fu")) == found


class TestJSONExport:
    def test_round_trips_through_json(self):
        design = synthesize(
            SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
        )
        payload = design.to_dict()
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["name"] == "sqrt"
        assert restored["states"] == 4
        assert restored["functional_units"] == 2
        assert restored["scheduler"] == "list"

    def test_schedule_steps_match(self):
        design = synthesize(
            SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
        )
        payload = design.to_dict()
        for label, steps in payload["schedules"].items():
            schedule = next(
                s for s in design.schedules.values()
                if s.problem.label == label
            )
            assert len(steps) == schedule.length
            listed = sum(len(cells) for cells in steps)
            assert listed == len(schedule.problem.ops)

    def test_binding_section(self):
        design = synthesize(
            SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
        )
        payload = design.to_dict()
        assert any(
            entry["component"] == "universal"
            for entry in payload["binding"].values()
        )

    def test_log_preserved(self):
        design = synthesize(
            SQRT_SOURCE, constraints=ResourceConstraints({"fu": 2})
        )
        assert design.to_dict()["log"] == design.log


_TOKEN_POOL = [
    "procedure", "begin", "end", "if", "then", "else", "while", "do",
    "repeat", "until", "for", "to", "var", "input", "output",
    "int", "uint", "fixed", "(", ")", "<", ">", ";", ":", ",", ":=",
    "+", "-", "*", "/", "x", "y", "p", "0", "1", "8", "3.5", "[", "]",
]


class TestFrontendFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_TOKEN_POOL), max_size=40))
    def test_parser_never_crashes(self, pieces):
        """Arbitrary token soup either parses or raises a *frontend*
        error — never an unhandled exception."""
        source = " ".join(pieces)
        try:
            parse(source)
        except FrontendError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=60))
    def test_lexer_never_crashes(self, source):
        try:
            tokenize(source)
        except FrontendError:
            pass
