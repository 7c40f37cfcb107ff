"""Tests for the command-line interface: schemas, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ndsquare
from ndsquare import experiments, nd_matrix
from ndsquare.cli import (
    SWEEP_CSV_HEADER, TRAJECTORIES_CSV_HEADER, build_parser, main,
)
from ndsquare.experiments import trajectories
from ndsquare.nd_matrix import assemble, load_matrix
from ndsquare.spectrum import DEFAULT_GUARD, PI2, ProblemParams
from coefficients import GUARD_EDGE_EXAMPLE
from limits import time_limit, traced_peak
from scalar_reference import per_line_trajectories_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_prints_lattice_count(self, capsys):
        code, out, err = run(capsys, "bound", "--a", "-10", "--b", "15")
        assert code == 0
        assert out == "3\n"
        assert err == ""

    def test_resonant_endpoint_exits_2(self, capsys):
        code, out, err = run(capsys, "bound", "--a", "0", "--b", "15")
        assert code == 2
        assert out == ""
        assert err.startswith("ndsquare bound:")
        assert err.count("\n") == 1

    def test_inverted_window_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "--a", "15", "--b", "-10")
        assert code == 2
        assert "a < b" in err

    def test_large_window_count(self, capsys):
        code, out, _ = run(capsys, "bound", "--a", "-10", "--b", "1e6")
        assert code == 0
        assert out == "79906\n"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [["bound", "--a", "-10"], ["sweep", "--a", "-10", "--size", "8"]],
    ids=["bound", "sweep"],
)
def test_non_finite_b_exits_2(capsys, argv, value):
    code, out, err = run(capsys, *argv, f"--b={value}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"ndsquare {argv[0]}:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


_GUARDED = {
    "sweep": ["sweep", "--a", "-10", "--b", "15", "--size", "8"],
    "trajectories": ["trajectories", "--a", "-10", "--b", "15", "--size", "8"],
    "crossing": ["crossing", "--n", "5", "--size", "8"],
    "bound": ["bound", "--a", "-10", "--b", "15"],
    "assemble-dump": ["assemble-dump", "--a", "-1", "--size", "8"],
    "truncation-check": ["truncation-check", "--a", "-1", "--size", "8"],
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv", _GUARDED.values(), ids=_GUARDED.keys())
def test_non_finite_guard_exits_2(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--guard", value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"ndsquare {argv[0]}:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--a", "-10"])
        assert exc.value.code == 1

    def test_size_not_multiple_of_4_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--a", "-10", "--b", "5", "--size", "17"])
        assert exc.value.code == 1

    def test_b_and_b_range_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--a", "-10", "--b", "5", "--b-min", "0",
                 "--b-max", "2", "--b-step", "1"]
            )
        assert exc.value.code == 1

    def test_missing_b_entirely_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--a", "-10"])
        assert exc.value.code == 1

    def test_nonpositive_step_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--a", "-10", "--b-min", "0", "--b-max", "2",
                 "--b-step", "0"]
            )
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "grid",
    [
        ["--b-min", "0", "--b-max", "inf", "--b-step", "1"],
        ["--b-min=-inf", "--b-max", "0", "--b-step", "1"],
        ["--b-min", "0", "--b-max", "1", "--b-step", "nan"],
        ["--b-min", "0", "--b-max", "1", "--b-step", "inf"],
        ["--b-min=-1e308", "--b-max=1e308", "--b-step", "1"],
    ],
    ids=["b-max-inf", "b-min-inf", "step-nan", "step-inf", "span-overflow"],
)
def test_unusable_grid_exits_1_with_one_line(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--a=-1e308", *grid, "--size", "8"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_tiny_step_is_refused_before_building_the_grid(capsys):
    # 1e300 points: refused from the point count, without allocating
    with traced_peak() as traced:
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--a", "-10", "--b-min", "0", "--b-max", "1",
                 "--b-step", "1e-300", "--size", "8"]
            )
        elapsed = time.perf_counter() - start
    assert exc.value.code == 1
    assert elapsed < 2.0
    assert traced.bytes < 1_000_000
    assert "more than" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_schema_and_skipped_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--a", "-10", "--b-min", "-1", "--b-max", "1",
            "--b-step", "1", "--size", "16",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        # b = 0 is resonant: empty numeric fields, skipped flag set
        assert lines[2] == "0,,,,,1"
        fields = lines[1].split(",")
        assert fields[0] == "-1"
        assert fields[5] == "0"
        int(fields[1]), int(fields[2])
        float(fields[3]), float(fields[4])

    @pytest.mark.parametrize("size", ["8", "400"])
    def test_next_to_a_level_measured_stays_within_the_bound(
        self, capsys, size
    ):
        # b = pi^2 - 5e-8; the closed forms once put this level's pole at
        # three floats, and the row read measured 2 against bound 0
        code, out, _ = run(
            capsys, "sweep", "--a", "1", "--b", "9.869604351089357",
            "--size", size,
        )
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[1:3] == ["0", "0"]
        assert float(fields[3]) > 0

    def test_writes_file_and_is_deterministic(self, tmp_path, capsys):
        args = (
            "sweep", "--a", "-10", "--b-min", "-2", "--b-max", "3",
            "--b-step", "1", "--size", "16",
        )
        path1, path2 = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run(capsys, *args, "--out", str(path1))[0] == 0
        assert run(capsys, *args, "--out", str(path2))[0] == 0
        assert path1.read_bytes() == path2.read_bytes()
        assert path1.read_text().splitlines()[0] == SWEEP_CSV_HEADER

    def test_equal_coefficients_print_positive_zero(self, capsys):
        # the difference is the zero matrix; its extremes must not be -0
        code, out, _ = run(
            capsys, "sweep", "--a", "-10", "--b", "-10", "--size", "16",
        )
        assert code == 0
        assert out.splitlines()[1] == "-10,0,0,0,0,0"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--a", "-10", "--b", "5", "--size", "16",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["b"] == 5.0
        assert payload[0]["skipped"] is False
        assert payload[0]["measured_negative"] <= payload[0]["theoretical_bound"]

    def test_resonant_base_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--a", "0", "--b", "5")
        assert code == 2
        assert "resonant" in err

    def test_repeatable_b_flag(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--a", "-10", "--b", "-9", "--b", "5",
            "--size", "16",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "-9"
        assert lines[2].split(",")[0] == "5"


class TestTrajectoriesCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "trajectories", "--a", "-10", "--b", "-9", "--size", "16",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == TRAJECTORIES_CSV_HEADER
        assert len(lines) == 1 + 16
        first = lines[1].split(",")
        assert first[0] == "-9"
        assert first[1] == "0"
        float(first[2])
        # eigenvalues descend with the index
        eigs = [float(line.split(",")[2]) for line in lines[1:]]
        assert eigs == sorted(eigs, reverse=True)

    def test_skipped_points_are_omitted_from_csv(self, capsys):
        code, out, _ = run(
            capsys, "trajectories", "--a", "-10", "--b-min", "-1",
            "--b-max", "1", "--b-step", "1", "--size", "8",
        )
        assert code == 0
        lines = out.splitlines()
        bs = {line.split(",")[0] for line in lines[1:]}
        assert bs == {"-1", "1"}

    def test_json_keeps_skip_marker(self, capsys):
        code, out, _ = run(
            capsys, "trajectories", "--a", "-10", "--b-min", "-1",
            "--b-max", "1", "--b-step", "1", "--size", "8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [p["skipped"] for p in payload] == [False, True, False]
        assert payload[1]["eigenvalues"] is None

    @pytest.mark.parametrize("size", ["4", "12", "400"])
    def test_csv_bytes_equal_the_per_line_emitter(
        self, capsys, monkeypatch, size
    ):
        # b == a prints the zero spectrum, b = pi^2 is resonant and
        # skipped; at size 400 a batch holds 6 points, and the 15-point
        # grid crosses two batch boundaries with pi^2 on the first.  The
        # reference points are solved one at a time.
        b_values = [-10.0, -9.0, PI2, 57.3, 200.0]
        if size == "400":
            b_values = [-10.0, -9.0, -8.0, -7.0, -6.0, -5.0, PI2]
            b_values += [11.0 + 23.5 * i for i in range(8)]
        argv = ["trajectories", "--a", "-10", "--size", size]
        for b in b_values:
            argv += ["--b", repr(b)]
        code, out, _ = run(capsys, *argv)
        monkeypatch.setattr(experiments, "BATCH_ENTRIES", 1)
        points = trajectories(-10.0, b_values, modes_per_side=int(size) // 4)
        assert code == 0
        assert [p.skipped for p in points] == [b == PI2 for b in b_values]
        # lines, not one string: pytest's diff of two long strings is
        # quadratic, and its report of two lists names the first change
        expected = per_line_trajectories_csv(points)
        assert out.splitlines(True) == expected.splitlines(True)

    def test_csv_peak_memory(self):
        # 100 points at size 400, streamed in batches of 6 points, peak
        # at about 1.6 MB; kept to the end and written one by one they
        # peaked at about 2.8 MB, joined into one string at about 5.2 MB
        assert _csv_peak("15.75") < 4_000_000

    def test_csv_peak_memory_on_two_cpus(self, two_cpus):
        # this process also holds each batch the helper rendered, as
        # the bytes of its pickled frame and then as text
        assert _csv_peak("15.75") < 4_000_000

    def test_csv_peak_memory_is_flat_in_grid_length(self):
        # about 1.6 MB at both 100 and 400 points; kept to the end, the
        # points peaked at about 2.8 and 10 MB.  A first short run takes
        # the one-time allocations out of the comparison.
        _csv_peak("-9")
        short, long = _csv_peak("15.75"), _csv_peak("90.75")
        assert abs(long - short) < 0.1 * short

    def test_csv_peak_memory_is_flat_in_grid_length_on_two_cpus(
        self, two_cpus
    ):
        _csv_peak("-9")
        short, long = _csv_peak("15.75"), _csv_peak("90.75")
        assert abs(long - short) < 0.1 * short


def _csv_peak(b_max):
    """Peak traced memory of a step-0.25 trajectories CSV run at size 400."""
    with traced_peak() as traced:
        code = main([
            "trajectories", "--a", "-10", "--b-min", "-9", "--b-max", b_max,
            "--b-step", "0.25", "--size", "400", "--out", os.devnull,
        ])
    assert code == 0
    return traced.bytes


class TestCrossingCommand:
    def test_reports_expected_and_measured(self, capsys):
        code, out, err = run(
            capsys, "crossing", "--n", "1", "--eps", "0.1", "--size", "160",
        )
        assert code == 0
        assert "expected=2" in out
        assert "measured=2" in out
        assert "agreed=1" in out

    def test_json_output_file(self, tmp_path, capsys):
        path = tmp_path / "crossing.json"
        code, out, _ = run(
            capsys, "crossing", "--n", "0", "--eps", "0.1", "--size", "120",
            "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["expected"] == 1
        assert payload["measured"] == 1
        assert payload["agreed"] is True
        assert payload["attempts"][0]["eps"] == 0.1

    def test_invalid_level_exits_2(self, capsys):
        code, _, err = run(capsys, "crossing", "--n", "3", "--size", "40")
        assert code == 2
        assert "sum of two squares" in err

    @pytest.mark.parametrize("argv, message", [
        # the lower window end is the level 0
        (("--n", "1", "--eps", "9.869604401089358"),
         "window around pi^2*1/k^2 with eps=9.869604401089358 ends within "
         "the guard 1e-09 of a Neumann eigenvalue; change eps"),
        # only the upper window end, 5*pi^2, is a level
        (("--n", "4", "--eps", "9.869604401089358"),
         "window around pi^2*4/k^2 with eps=9.869604401089358 ends within "
         "the guard 1e-09 of a Neumann eigenvalue; change eps"),
        (("--n", "1", "--eps", "10.5"),
         "window around pi^2*1/k^2 with eps=10.5 holds 4 Neumann "
         "eigenvalues, not the 2 of level 1; shrink eps"),
        (("--n", "3"),
         "n=3 is not a sum of two squares; pi^2*n is not a Neumann "
         "eigenvalue"),
        (("--n", "100000000000000000000"),
         "a*k^2 = 9.869604401089358e+20 is beyond the decidability limit: "
         "its float spacing 1.31e+05 is not below the resonance guard "
         "1e-09"),
        (("--n", "-1"), "n must be nonnegative, got -1"),
    ])
    def test_rejected_window_diagnostics(self, capsys, argv, message):
        code, out, err = run(capsys, "crossing", *argv)
        assert code == 2
        assert out == ""
        assert err == f"ndsquare crossing: {message}\n"

    @pytest.mark.parametrize("k", ["1e-200", "1e-155", "1e200", "nan"])
    def test_k_squared_not_normal_exits_2(self, capsys, k):
        # 1e-200 squares to 0.0, which the level pi^2*n/k^2 divides by
        code, out, err = run(capsys, "crossing", "--n", "5", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("ndsquare crossing:")
        assert err.count("\n") == 1
        assert "normal float" in err


def _asdict_json(records) -> str:
    # the JSON writers' encoding: dataclasses.asdict of each record,
    # indented by 2, keys sorted, one closing newline
    if isinstance(records, list):
        obj = [dataclasses.asdict(r) for r in records]
    else:
        obj = dataclasses.asdict(records)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestJsonBytes:
    """Each JSON document has the bytes of its records' fields."""

    # b = -9, -6, ..., 12; b = 0 is resonant, so one record is skipped
    GRID = ["--a", "-10", "--b-min", "-9", "--b-max", "12", "--b-step", "3"]
    B_VALUES = [-9.0 + 3.0 * i for i in range(8)]

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", *self.GRID, "--size", "16", "--format", "json",
        )
        reports = experiments.sweep(-10.0, self.B_VALUES, modes_per_side=4)
        assert code == 0
        assert [r.skipped for r in reports].count(True) == 1
        assert out == _asdict_json(reports)

    def test_trajectories(self, capsys):
        code, out, _ = run(
            capsys, "trajectories", *self.GRID, "--size", "16",
            "--format", "json",
        )
        points = trajectories(-10.0, self.B_VALUES, modes_per_side=4)
        assert code == 0
        assert [p.skipped for p in points].count(True) == 1
        assert out == _asdict_json(points)

    def test_crossing_out(self, tmp_path, capsys):
        # the first width misses at this threshold, so the document holds
        # both attempts
        path = tmp_path / "crossing.json"
        code, out, _ = run(
            capsys, "crossing", "--n", "1", "--eps", "0.1", "--size", "120",
            "--tol", "200", "--out", str(path),
        )
        report = experiments.verify_crossing(
            1, eps=0.1, modes_per_side=30, delta=200.0
        )
        assert code == 0
        assert len(report.attempts) == 2
        assert out == (
            "n=1 expected=2 measured=2 agreed=1 "
            "attempts=[eps=0.1:measured=0 eps=0.05:measured=2]\n"
        )
        assert path.read_text(encoding="utf-8") == _asdict_json(report)


class TestAssembleDumpCommand:
    def test_dump_roundtrips_against_library(self, tmp_path, capsys):
        path = tmp_path / "matrix.txt"
        code, _, _ = run(
            capsys, "assemble-dump", "--a", "-1", "--size", "8",
            "--out", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.splitlines()[0] == "8 1 -1 closed_form"
        with open(path, encoding="utf-8") as fh:
            loaded = load_matrix(fh)
        direct = assemble(ProblemParams(a=-1.0, k=1.0, modes_per_side=2))
        np.testing.assert_array_equal(loaded.entries, direct.entries)

    @pytest.mark.parametrize("a, k, guard", [
        (49.348022005946795, 1.0, 1e-12),  # 5*pi^2 + 5e-10
        (12.337005501486699, 2.0, 1e-12),  # the same a*k^2 at k = 2
        (5 * PI2 + 2e-3, 1.0, 1e-3),
        (8e6, 1.0, 1e-9),
        (-1e20, 1.0, 1e-9),
    ])
    def test_dump_written_at_any_guard_loads(
        self, tmp_path, capsys, a, k, guard
    ):
        # the header holds no guard; the loader decides resonance at the
        # float spacing of a*k^2, which no writer's guard falls below
        path = tmp_path / "matrix.txt"
        code, _, err = run(
            capsys, "assemble-dump", "--a", repr(a), "--k", repr(k),
            "--size", "8", "--guard", repr(guard), "--out", str(path),
        )
        assert (code, err) == (0, "")
        with open(path, encoding="utf-8") as fh:
            loaded = load_matrix(fh)
        direct = assemble(
            ProblemParams(a=a, k=k, modes_per_side=2, guard=guard)
        )
        np.testing.assert_array_equal(loaded.entries, direct.entries)
        assert (loaded.params.a, loaded.params.k) == (a, k)

    def test_series_oracle_dump(self, capsys):
        # the dump is the closed-form matrix; the series oracle is a
        # test reference, not an assembly path of the command
        with pytest.raises(SystemExit) as exc:
            main([
                "assemble-dump", "--a", "-1", "--size", "4",
                "--series-cutoff", "200",
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ndsquare assemble-dump")
        assert "unrecognized arguments: --series-cutoff 200" in err

    def test_resonant_coefficient_exits_2(self, capsys):
        code, _, err = run(capsys, "assemble-dump", "--a", "0", "--size", "8")
        assert code == 2
        assert "ill-posed" in err or "resonan" in err

    def test_dump_is_written_row_by_row(self):
        # the dump goes out a line at a time: at --size 400 the rows of
        # the 1.28 MB matrix are never joined into one string
        matrix_bytes = 400 * 400 * 8
        with traced_peak() as traced:
            code = main([
                "assemble-dump", "--a", "-1", "--size", "400",
                "--out", os.devnull,
            ])
        assert code == 0
        assert traced.bytes < 2 * matrix_bytes


class TestTruncationCheckCommand:
    def test_per_operator_only(self, capsys):
        code, out, _ = run(
            capsys, "truncation-check", "--a", "-10", "--size", "32",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("per_operator_truncation_error a=-10:")
        float(lines[0].split(":")[1])

    def test_difference_protocol_with_b(self, capsys):
        code, out, _ = run(
            capsys, "truncation-check", "--a", "-10", "--b", "5",
            "--size", "32", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["per_operator_a"] > 0
        assert payload["per_operator_b"] > 0
        assert payload["difference"] < payload["per_operator_a"]

    def test_odd_half_truncation_exits_1(self):
        # size 20 -> J = 5, not halvable
        with pytest.raises(SystemExit) as exc:
            main(["truncation-check", "--a", "-10", "--size", "20"])
        assert exc.value.code == 1

    @staticmethod
    def _estimates(b):
        # the public estimators at a = -10 and J = 8, as --size 32 gives
        per_a = nd_matrix.truncation_error(-10.0, modes_per_side=8)
        if b is None:
            return per_a, None, None
        per_b = nd_matrix.truncation_error(b, modes_per_side=8)
        diff = nd_matrix.difference_truncation_error(-10.0, b, modes_per_side=8)
        return per_a, per_b, diff

    def test_json_has_the_public_estimators_values(self, capsys):
        code, out, _ = run(
            capsys, "truncation-check", "--a", "-10", "--b", "5",
            "--size", "32", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (
            payload["per_operator_a"], payload["per_operator_b"],
            payload["difference"],
        ) == self._estimates(5.0)

    @pytest.mark.parametrize(
        "b", [None, 5.0, 200.0], ids=["a-only", "b-5", "b-200"]
    )
    def test_text_has_the_public_estimators_values(self, capsys, b):
        argv = ["truncation-check", "--a", "-10", "--size", "32"]
        if b is not None:
            argv += ["--b", repr(b)]
        code, out, err = run(capsys, *argv)
        per_a, per_b, diff = self._estimates(b)
        lines = [f"per_operator_truncation_error a=-10: {per_a:.17g}"]
        if b is not None:
            lines += [
                f"per_operator_truncation_error b={b:.17g}: {per_b:.17g}",
                f"difference_truncation_error: {diff:.17g}",
            ]
        assert (code, out, err) == (0, "\n".join(lines) + "\n", "")

    def test_resonant_a_is_refused_before_b(self, capsys):
        code, out, err = run(
            capsys, "truncation-check", "--a", "0", "--b", repr(PI2),
            "--size", "32",
        )
        assert (code, out) == (2, "")
        assert err.startswith("ndsquare truncation-check: a*k^2 = 0.0 is")


_UNDECIDABLE = {
    "bound-1e20": ["bound", "--a", "1e20", "--b", "2e20"],
    "sweep-1e20": ["sweep", "--a", "1e20", "--b", "2e20", "--size", "8"],
    "assemble-dump-1e308": ["assemble-dump", "--a", "1e308", "--size", "8"],
    "crossing-1e20": ["crossing", "--n", str(10**20), "--size", "8"],
    "crossing-1e400": ["crossing", "--n", str(10**400), "--size", "8"],
    "bound-1e20-guard-1e6": [
        "bound", "--a", "1e20", "--b", "2e20", "--guard", "1e6",
    ],
    "bound-4e14-guard-1": [
        "bound", "--a", "-5", "--b", "4e14", "--guard", "1",
    ],
}


@pytest.mark.parametrize(
    "argv", _UNDECIDABLE.values(), ids=_UNDECIDABLE.keys()
)
def test_undecidable_input_exits_2_within_2_s(capsys, argv):
    # resonance cannot be told apart once the float spacing of a*k^2
    # reaches the guard, pi^2*10**400 does not fit in a float, a guard
    # of 1e6 at 1e20 spans levels too large to scan in time, and the
    # modes below 4e14 take more than 2^20 lattice rows to count
    with time_limit(2.0):
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"ndsquare {argv[0]}:")
    assert err.count("\n") == 1


_UNDECIDABLE_B = {
    "sweep": ("sweep", ["--b", "1e300"], "decidability limit"),
    "trajectories": ("trajectories", ["--b", "1e300"], "decidability limit"),
    # is_resonant decides 4e14 at guard 1, but the modes below it take
    # more than 2^20 lattice rows to count
    "sweep-4e14-guard-1": (
        "sweep", ["--b", "4e14", "--guard", "1"], "lattice rows",
    ),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize(
    "case", _UNDECIDABLE_B.values(), ids=_UNDECIDABLE_B.keys()
)
def test_undecidable_b_fails_before_any_output_or_eigensolve(
    tmp_path, capsys, monkeypatch, one_cpu, case, to_file
):
    # every b is decided, and for sweep counted, before the first
    # eigensolve and the first byte
    def refuse(*blocks):
        raise AssertionError("circulant_spectrum was called")

    monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
    command, undecidable, message = case
    path = tmp_path / "out.csv"
    argv = [command, "--a", "-10", "--b", "5", *undecidable, "--size", "8"]
    if to_file:
        argv += ["--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"ndsquare {command}:")
    assert message in err
    assert err.count("\n") == 1
    assert not path.exists()


_EDGE = repr(GUARD_EDGE_EXAMPLE)
_NUMBER = re.compile(r"[-+]?(?:nan|inf|\d[\d.]*(?:e[-+]?\d+)?)")


class TestGuardEdge:
    # a*k^2 = 246.74011002823397 is accepted by is_resonant but lies
    # within the guard of (pi*5)^2 when that level is rounded as
    # (pi^2*5)*5; a point the bound accepts must not abort a command
    def test_sweep_keeps_every_row(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--a", "-10", "--b", "5", "--b", _EDGE,
            "--b", "7", "--size", "40",
        )
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["5", _EDGE, "7"]
        for _, measured, bound, low, high, skipped in rows:
            assert skipped == "0"
            assert int(measured) <= int(bound)
            assert math.isfinite(float(low)) and math.isfinite(float(high))

    @pytest.mark.parametrize(
        "argv",
        [
            ["assemble-dump", "--a", _EDGE, "--size", "40"],
            ["truncation-check", "--a", _EDGE, "--size", "40"],
            ["truncation-check", "--a", "-10", "--b", _EDGE, "--size", "40"],
            ["trajectories", "--a", "-10", "--b", _EDGE, "--size", "40"],
            ["trajectories", "--a", _EDGE, "--b", "300", "--size", "40"],
        ],
        ids=["dump", "truncation-a", "truncation-b", "trajectories-b",
             "trajectories-a"],
    )
    def test_commands_print_finite_numbers(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        numbers = [float(t) for t in _NUMBER.findall(out)]
        assert numbers
        assert all(math.isfinite(x) for x in numbers)


class TestNegativeValues:
    def test_exponent_literal_is_a_value(self, capsys):
        code, out, err = run(capsys, "bound", "--a", "-1e5", "--b", "15")
        assert code == 0
        assert out == "3\n"
        assert err == ""

    def test_negative_infinity_is_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--a", "-10", "--b-min", "-inf", "--b-max", "0",
                  "--b-step", "1"])
        assert exc.value.code == 1
        assert "--b-min must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--a", "-10", "--b-min", "0", "--b-max", "inf",
         "--b-step", "1"],
        ["sweep", "--a", "-10", "--b", "5", "--size", "17"],
        ["truncation-check", "--a", "-10", "--size", "12"],
    ],
    ids=["sweep-grid", "sweep-size", "truncation-check-size"],
)
def test_usage_errors_name_the_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ndsquare {argv[0]}")
    assert f"ndsquare {argv[0]}: error:" in err


#: Each documented default, as the help of every subcommand prints it
HELP_DEFAULTS = {
    "k": 1.0, "size": 400, "tol": experiments.DEFAULT_DELTA,
    "guard": DEFAULT_GUARD, "out": None,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--a", "-10"],
        ["trajectories", "--a", "-10"],
        ["crossing", "--n", "5"],
        ["assemble-dump", "--a", "-1"],
        ["truncation-check", "--a", "-10"],
    ],
    ids=lambda argv: argv[0],
)
def test_help_shows_each_parser_default(argv):
    # a "(default X)" is prose beside the constant; this keeps them equal
    args = build_parser().parse_args(argv)
    text = " ".join(args.parser.format_help().split())
    shown = {}
    for m in re.finditer(r"\(default (?P<value>[^)]+)\)", text):
        flag = re.findall(r"--([\w-]+) [A-Z_]+ ", text[: m.start()])[-1]
        shown[flag] = m["value"]
    assert shown.keys() == HELP_DEFAULTS.keys() & vars(args).keys()
    for flag, value in shown.items():
        value = None if value == "stdout" else float(value)
        assert value == args.parser.get_default(flag) == HELP_DEFAULTS[flag]


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--a", "-10", "--b", "5", "--b", "200"],
        ["crossing", "--n", "25", "--eps", "0.05"],
    ],
    ids=["sweep", "crossing"],
)
def test_unusable_tol_is_a_usage_error_before_any_eigensolve(
    capsys, monkeypatch, one_cpu, argv, tol
):
    def refuse(*blocks):
        raise AssertionError("circulant_spectrum was called")

    monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--size", "8", "--tol", tol])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ndsquare {argv[0]}")
    assert f"ndsquare {argv[0]}: error: --tol must be positive" in err


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--b-min", "0", "--b-max", "5"],
         "--b-min, --b-max and --b-step must be given together"),
        (["--b-min", "5", "--b-max", "0", "--b-step", "1"],
         "--b-max must be >= --b-min"),
    ],
    ids=["partial-range", "b-max-below-b-min"],
)
def test_incomplete_or_reversed_range_is_a_usage_error(capsys, grid, message):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--a", "-10", *grid, "--size", "8"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ndsquare sweep")
    assert f"ndsquare sweep: error: {message}" in err


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "missing" / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", "--a", "-10", "--b", "5", "--size", "8",
        "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ndsquare sweep:")
    assert err.count("\n") == 1
    assert not path.exists()


#: Runs the console script on two CPUs, then reports on stderr a run
#: that forked no helper or left a child process behind.
_NO_CHILD_LEFT = """\
import os, sys
from ndsquare import cli, experiments
experiments._cpu_count = lambda: 2
fork, forked = os.fork, []
def recorded():
    forked.append(fork())
    return forked[-1]
os.fork = recorded
try:
    cli.console_entry()
except SystemExit as exc:
    code = exc.code
if not forked:
    sys.stderr.write("no helper was forked\\n")
try:
    os.waitpid(-1, os.WNOHANG)
    sys.stderr.write("a child process is left\\n")
except ChildProcessError:
    pass
sys.exit(code)
"""


def test_closed_pipe_exits_2_with_one_line_and_no_child():
    # the reader is gone before the first byte.  stdout is buffered, as
    # in a shell pipeline, so the header waits in the buffer and the
    # first write fails with the first batch, while the helper is still
    # solving; the interpreter's flush at exit must add nothing
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ndsquare.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-c", _NO_CHILD_LEFT, "trajectories",
                "--a", "-10", "--b-min", "-9", "--b-max", "20",
                "--b-step", "0.25", "--size", "400",
            ],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("ndsquare trajectories: ")
    assert "Broken pipe" in err
    assert err.count("\n") == 1


#: Runs the console script on two CPUs with SIGCHLD ignored, as a parent
#: that ignores it leaves it across exec: each helper is then reaped as
#: it exits, before the parallel solve kills and waits for it
_SIGCHLD_IGNORED = """\
import signal
from ndsquare import cli, experiments
signal.signal(signal.SIGCHLD, signal.SIG_IGN)
experiments._cpu_count = lambda: 2
cli.console_entry()
"""


@pytest.mark.parametrize("command", ["sweep", "trajectories"])
def test_helpers_reaped_elsewhere_leave_no_trace(tmp_path, one_cpu, command):
    # the helper ends its last batch while this process still solves
    # the grid's last batch, so it is gone when the solve is closed
    argv = [
        command, "--a", "-10", "--b-min", "-9", "--b-max", "200",
        "--b-step", "1", "--size", "400",
    ]
    expected = _cli_bytes(tmp_path, argv, to_file=False)
    env = dict(os.environ, PYTHONPATH=str(Path(ndsquare.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SIGCHLD_IGNORED, *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.stderr.decode() == ""
    assert (proc.returncode, proc.stdout) == expected


def test_helpers_reaped_elsewhere_leave_no_trace_after_an_early_close():
    # SIGCHLD is ignored, and the reader of stdout goes after the first
    # bytes while the helper is still solving: the run ends with one
    # line, no traceback and no child process left
    script = (
        "import signal\nsignal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
        + _NO_CHILD_LEFT
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ndsquare.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [
        "trajectories", "--a", "-10", "--b-min", "-9", "--b-max", "200",
        "--b-step", "0.25", "--size", "400",
    ]
    with subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        try:
            assert proc.stdout.read(100).startswith(b"b,index,eigenvalue\n")
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.returncode is None:
                proc.kill()
        err = proc.stderr.read().decode()
    assert code == 2
    assert err.startswith("ndsquare trajectories: ")
    assert "Broken pipe" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "module, argv",
    [
        (experiments, ["sweep", "--a", "-10", "--b", "5"]),
        (nd_matrix, ["assemble-dump", "--a", "-10"]),
        (nd_matrix, ["truncation-check", "--a", "-10", "--b", "200"]),
    ],
    ids=["sweep", "assemble-dump", "truncation-check"],
)
def test_allocation_failure_exits_2_with_one_line(
    capsys, monkeypatch, module, argv
):
    # a --size too large to allocate; the stand-in raises instead of
    # allocating, since whether a real request that size fails at once
    # depends on the host's overcommit policy
    message = "Unable to allocate 7.28 TiB for an array"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(module, "side_blocks", refuse)
    code, out, err = run(capsys, *argv, "--size", "8")
    assert code == 2
    assert out == ""
    assert err == f"ndsquare {argv[0]}: {message}\n"


def test_trajectories_refuses_a_huge_size_before_its_template(
    capsys, monkeypatch
):
    # the 4J-row template of --size 400000000 would take minutes and
    # gigabytes; the allocation that refuses the size comes first
    message = "Unable to allocate 7.28 TiB for an array"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "side_blocks", refuse)
    with traced_peak() as traced, time_limit(2):
        code, out, err = run(
            capsys, "trajectories", "--a", "-10", "--b", "5",
            "--size", "400000000",
        )
    assert code == 2
    assert out == ""
    assert err == f"ndsquare trajectories: {message}\n"
    assert traced.bytes < 1_000_000


def _cli_bytes(tmp_path, argv, to_file):
    # stdout is a buffered file, as from a shell: a helper that flushed
    # its inherited copy of the buffer would write the header twice
    path = tmp_path / "out"
    if to_file:
        code = main([*argv, "--out", str(path)])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                code = main(argv)
    return code, path.read_bytes()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize(
    "command, fmt",
    [(command, fmt) for fmt in ("csv", "json")
     for command in ("sweep", "trajectories")],
    ids=["sweep", "trajectories", "sweep-json", "trajectories-json"],
)
def test_two_cpus_write_the_bytes_of_one(
    tmp_path, monkeypatch, command, fmt, to_file
):
    # at --size 40 a batch of 100 next-side entries holds one point, so
    # the helper solves every other point of the 79; b = 0 is resonant.
    # In JSON, trajectories builds its points in the helper too.
    monkeypatch.setattr(experiments, "BATCH_ENTRIES", 100)
    argv = [
        command, "--a", "-10", "--b-min", "-9", "--b-max", "30",
        "--b-step", "0.5", "--size", "40", "--format", fmt,
    ]
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
    code, expected = _cli_bytes(tmp_path, argv, to_file)
    assert code == 0
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    assert _cli_bytes(tmp_path, argv, to_file) == (0, expected)


@pytest.mark.parametrize("command", ["sweep", "trajectories"])
def test_allocation_failure_in_every_process_exits_2_with_one_line(
    capsys, monkeypatch, two_cpus, command
):
    # the helper's stream ends at its first batch, and this process
    # meets the same failure in its own first batch
    message = "Unable to allocate 7.28 TiB for an array"

    def refuse(*blocks):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "circulant_spectrum", refuse)
    monkeypatch.setattr(experiments, "BATCH_ENTRIES", 100)
    code, out, err = run(
        capsys, command, "--a", "-10", "--b", "5", "--b", "7", "--size", "40",
    )
    assert code == 2
    header = "" if command == "sweep" else TRAJECTORIES_CSV_HEADER + "\n"
    assert out == header
    assert err == f"ndsquare {command}: {message}\n"


# Flag values for the contract fuzz test.  Sizes stay at 8 and 16 and
# grids at three explicit b values, so no example allocates more than a
# few kB.  --guard is the default, a finite guard up to 1e6, or a value
# the program must refuse.
_REAL = st.floats() | st.sampled_from([1e308, -1e308, 1e20, -1e5, 5e-324])
_GUARD = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, 1e-3, 1.0, 1e6])
_LEVEL = st.integers(-3, 30) | st.integers(0, 10**400)
_SIZE = st.sampled_from([8, 16])
_B_VALUES = st.lists(_REAL, min_size=1, max_size=3)
_COMMAND_FLAGS = {
    "sweep": {
        "--a": _REAL, "--b": _B_VALUES, "--k": _REAL, "--size": _SIZE,
        "--guard": _GUARD,
    },
    "trajectories": {
        "--a": _REAL, "--b": _B_VALUES, "--k": _REAL, "--size": _SIZE,
        "--guard": _GUARD,
    },
    "crossing": {
        "--n": _LEVEL, "--eps": _REAL, "--k": _REAL, "--size": _SIZE,
        "--guard": _GUARD,
    },
    "bound": {"--a": _REAL, "--b": _REAL, "--k": _REAL, "--guard": _GUARD},
    "assemble-dump": {
        "--a": _REAL, "--k": _REAL, "--size": _SIZE, "--guard": _GUARD,
    },
    "truncation-check": {
        "--a": _REAL, "--b": _REAL, "--k": _REAL, "--size": _SIZE,
        "--guard": _GUARD,
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for flag, values in _COMMAND_FLAGS[command].items():
        if flag not in ("--a", "--n") and not draw(st.booleans()):
            continue
        drawn = draw(values)
        for value in drawn if isinstance(drawn, list) else [drawn]:
            text = repr(value)
            if draw(st.booleans()):
                argv.append(f"{flag}={text}")
            else:
                argv += [flag, text]
    return argv


#: Seconds any contract input may take.  Python's development mode
#: (``-X dev``) ran the slowest cases, the large crossing and sweep
#: examples below, 1.6 to 2.4 times slower (medians of 7 runs on a
#: 2-vCPU host), so there the limit is scaled by 2.5.
CONTRACT_LIMIT_S = 2.0 * (2.5 if sys.flags.dev_mode else 1.0)


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["bound", "--a", "1e20", "--b", "2e20"])
@example(argv=["bound", "--a", "1e20", "--b", "2e20", "--guard", "1e6"])
@example(argv=["assemble-dump", "--a", "1e308", "--size", "8"])
@example(argv=["crossing", "--n", str(10**400), "--size", "8"])
@example(argv=["bound", "--a", "-1e+308", "--b", "-inf"])
@example(argv=["assemble-dump", "--a", "0.0", "--k", "1e+308"])
@example(argv=["bound", "--a", "-10.0", "--b", "15.0", "--guard", "inf"])
@example(argv=["sweep", "--a", "-10.0", "--b", "15.0", "--guard=inf"])
@example(argv=[
    "sweep", "--a", "-1", "--b", "8.7e12", "--b", "8.6e12", "--b", "8.5e12",
    "--guard", "1e-3", "--size", "8",
])
@example(argv=["crossing", "--n", "880000000001", "--guard", "1e-3",
               "--size", "8"])
def test_cli_contract(argv):
    # every input ends in 0, 1 (usage) or 2 (one diagnostic line),
    # without a traceback and within 2 s (scaled under python -X dev)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with time_limit(CONTRACT_LIMIT_S):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert time.perf_counter() - start < CONTRACT_LIMIT_S
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1
