"""Tests for the command-line interface: schemas, exit codes, determinism."""

import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from ndsquare.cli import SWEEP_CSV_HEADER, TRAJECTORIES_CSV_HEADER, main
from ndsquare.nd_matrix import assemble, load_matrix
from ndsquare.spectrum import ProblemParams


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
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SystemExit) as exc:
            main(
                ["sweep", "--a", "-10", "--b-min", "0", "--b-max", "1",
                 "--b-step", "1e-300", "--size", "8"]
            )
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 1
    assert elapsed < 2.0
    assert peak < 1_000_000
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

    @pytest.mark.parametrize("k", ["1e-200", "1e-155", "1e200", "nan"])
    def test_k_squared_not_normal_exits_2(self, capsys, k):
        # 1e-200 squares to 0.0, which the level pi^2*n/k^2 divides by
        code, out, err = run(capsys, "crossing", "--n", "5", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("ndsquare crossing:")
        assert err.count("\n") == 1
        assert "normal float" in err


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

    def test_series_oracle_dump(self, capsys):
        code, out, _ = run(
            capsys, "assemble-dump", "--a", "-1", "--size", "4",
            "--series-cutoff", "200",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "4 1 -1 series_oracle(200)"
        entry = float(lines[1].split()[0])
        assert entry == pytest.approx(1.0 / math.tanh(1.0), abs=2e-3)

    def test_resonant_coefficient_exits_2(self, capsys):
        code, _, err = run(capsys, "assemble-dump", "--a", "0", "--size", "8")
        assert code == 2
        assert "ill-posed" in err or "resonan" in err


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
