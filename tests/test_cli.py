"""End-to-end CLI tests driven through main(), asserting on captured bytes.

A few corpus rows also run in a fresh interpreter, as a user runs the command.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from collapsar import CSV_HEADER
from collapsar.cli import MAX_SWEEP_POINTS, build_parser, main
from collapsar.entanglement import format_float

HEADER_LINE = ",".join(CSV_HEADER)
DATA = Path(__file__).parent / "data"
# Root of S_fermion - S_boson, frozen from mpmath.findroot at 30 digits.
X_STAR = 0.40671361302244355


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OPTIONS = {
    "entropy": ["--eps-tail", "--format", "--mass", "--omega", "--output", "--stats", "--x"],
    "sweep": [
        "--eps-tail", "--format", "--grid", "--mass", "--omega-max", "--omega-min",
        "--output", "--points", "--stats",
    ],
    "crossover": ["--mass", "--output"],
    "state": ["--eps-tail", "--mass", "--omega", "--output", "--stats", "--x"],
    "spectrum": ["--eps-tail", "--mass", "--omega", "--output", "--stats", "--x"],
}


def test_option_set_is_pinned():
    # Adding or removing a CLI option must show up as a diff of OPTIONS.
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    found = {
        name: sorted(
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
        for name, parser in sub.choices.items()
    }
    assert found == OPTIONS


class TestArgumentErrors:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_omega_and_x_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--mass", "1", "--omega", "0.1", "--x", "1"])
        assert exc.value.code == 2

    def test_mode_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--mass", "1"])
        assert exc.value.code == 2

    def test_bad_mass_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["entropy", "--mass", "-1", "--x", "1"])
        assert code == 2
        assert "error:" in err and "mass" in err

    def test_nonpositive_x_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["entropy", "--mass", "1", "--x", "0"])
        assert code == 2
        assert "x must be" in err

    @pytest.mark.parametrize("argv", [
        ["entropy", "--mass", "1", "--x", "1e-5", "--stats", "boson"],
        ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "1", "--points", "3"],
    ])
    def test_subnormal_eps_tail_is_validation_error(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--eps-tail", "1e-320"])
        assert (code, out) == (2, "")
        assert "eps_tail must not be subnormal" in err

    # A fermion mode needs no truncation, yet its commands refuse a bad
    # eps_tail as the boson ones do; each of these used to exit 0.
    @pytest.mark.parametrize("argv", [
        ["entropy", "--mass", "1", "--x", "1", "--stats", "fermion", "--eps-tail", "5"],
        ["state", "--mass", "1", "--x", "1", "--stats", "fermion", "--eps-tail", "-1"],
        ["spectrum", "--mass", "1", "--x", "1", "--stats", "fermion", "--eps-tail", "0"],
        ["sweep", "--mass", "1", "--omega-min", "0.01", "--omega-max", "0.1", "--points", "2",
         "--stats", "fermion", "--eps-tail", "nan"],
    ])
    def test_fermion_commands_refuse_bad_eps_tail(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"error: eps_tail must lie in (0, 1e-06], got {float(argv[-1])!r}" in err

    # omega = x / (4 pi mass) must be a positive normal float: at the parent
    # the first two printed omega_star = 0 and inf with exit 0, the third
    # printed x = 0.99999999999999989 from a subnormal omega.
    @pytest.mark.parametrize("argv, omega", [
        (["crossover", "--mass", "1e308"], "0.0"),
        (["crossover", "--mass", "1e-320"], "inf"),
        (["entropy", "--mass", "1e307", "--x", "1"], "7.957747154594765e-309"),
        (["entropy", "--mass", "1e-320", "--x", "1"], "inf"),
    ])
    def test_omega_from_x_must_be_a_normal_float(self, capsys, argv, omega):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"gives omega = {omega}, not a positive normal float" in err

    def test_sweep_needs_two_points(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "0.2",
             "--points", "1"],
        )
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10**12])
    def test_sweep_points_are_bounded_before_the_grid_is_built(self, capsys, points):
        # 10**12 points would ask numpy for 8 TB before any report ran.
        argv = ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "0.2",
                "--points", str(points)]
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 2**20
        assert (code, out) == (2, "")
        assert f"points must be between 2 and {MAX_SWEEP_POINTS}, got {points}" in err

    # The range is refused before numpy spaces a grid over inf, which warns
    # "invalid value encountered in multiply".
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["log", "linear"])
    def test_sweep_refuses_infinite_omega_max_without_warning(self, capsys, grid):
        code, out, err = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "inf",
             "--points", "3", "--grid", grid],
        )
        assert (code, out) == (2, "")
        assert err == "error: omega-max must be a finite positive real, got inf\n"

    def test_sweep_needs_increasing_range(self, capsys):
        code, _, err = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "0.2", "--omega-max", "0.1",
             "--points", "5"],
        )
        assert code == 2
        assert "omega" in err


class TestNumericalFailures:
    def test_infrared_mode_exits_3(self, capsys):
        code, out, err = run(capsys, ["entropy", "--mass", "1", "--x", "1e-9"])
        assert code == 3
        assert out == ""
        assert "below floor" in err

    def test_sweep_with_no_representable_mode_exits_3(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "1e-10", "--omega-max", "1e-9",
             "--points", "2"],
        )
        assert code == 3
        lines = out.strip().split("\n")
        # Rows are still emitted so the failure is inspectable.
        assert lines[0] == HEADER_LINE
        assert len(lines) == 5
        assert all("below floor" in li for li in lines[1:])

    def test_entropy_with_overflowing_x_exits_3(self, capsys):
        code, out, err = run(capsys, ["entropy", "--mass", "1e300", "--omega", "1e10"])
        assert code == 3
        assert out == ""
        assert "x = inf is not a finite positive float" in err

    def test_sweep_keeps_rows_past_overflowing_x(self, capsys):
        code, out, err = run(
            capsys,
            ["sweep", "--mass", "1e300", "--omega-min", "1", "--omega-max", "1e10",
             "--points", "3"],
        )
        assert code == 0 and err == ""
        rows = [li.split(",") for li in out.strip().split("\n")[1:]]
        assert len(rows) == 6
        # x = 1.26e301 and 1.26e306 are frozen-out modes; the last x is inf.
        assert all(r[-1] == "" and r[4] == "0" for r in rows[:4])
        for r in rows[4:]:
            assert r[0] == "inf"
            assert r[4:9] == ["nan"] * 5
            assert r[-1] == "x = inf is not a finite positive float"

    def test_sweep_with_underflowing_x_keeps_rows_and_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            ["sweep", "--mass", "1e-300", "--omega-min", "1e-300",
             "--omega-max", "1e-10", "--points", "3"],
        )
        assert code == 3 and err == ""
        rows = [li.split(",") for li in out.strip().split("\n")[1:]]
        assert len(rows) == 6
        assert all("below floor" in r[-1] for r in rows)
        # x underflows to 0 at the first two points: no closed form either.
        assert all(r[0] == "0" and r[4] == "nan" for r in rows[:4])
        assert [r[4] for r in rows[4:]] == ["inf", "2"]


class TestEntropyCommand:
    def test_csv_shape_and_header(self, capsys):
        code, out, err = run(capsys, ["entropy", "--mass", "1", "--x", "1"])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == HEADER_LINE
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "boson"
        assert lines[2].split(",")[3] == "fermion"

    def test_single_statistics(self, capsys):
        code, out, _ = run(
            capsys, ["entropy", "--mass", "1", "--x", "1", "--stats", "fermion"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[3] == "fermion"

    def test_json_rows_mirror_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, ["entropy", "--mass", "1", "--x", "1", "--format", "json"]
        )
        assert code == 0
        docs = json.loads(out)
        assert [d["statistics"] for d in docs] == ["boson", "fermion"]
        for d in docs:
            assert tuple(d) == CSV_HEADER
            assert d["error"] is None
            assert abs(d["gap"]) < 1e-9

    def test_omega_entry_point(self, capsys):
        omega = 1.0 / (4.0 * math.pi)
        _, out_omega, _ = run(capsys, ["entropy", "--mass", "1", "--omega", repr(omega)])
        _, out_x, _ = run(capsys, ["entropy", "--mass", "1", "--x", "1"])
        # Same physics either way; x differs only in the last couple of ulp
        # through the omega round trip, entropies by no more.
        row_o = out_omega.strip().split("\n")[1].split(",")
        row_x = out_x.strip().split("\n")[1].split(",")
        assert abs(float(row_o[0]) - float(row_x[0])) < 1e-15
        assert abs(float(row_o[4]) - float(row_x[4])) < 1e-14

    def test_byte_determinism(self, capsys):
        argv = ["entropy", "--mass", "1", "--x", "0.7"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ["entropy", "--mass", "1", "--x", "0.7"]
        _, stdout_text, _ = run(capsys, argv)
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, argv + ["--output", str(target)])
        assert code == 0 and out == ""
        assert target.read_text() == stdout_text

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["entropy", "--mass", "1", "--x", "1",
             "--output", str(tmp_path / "no" / "such" / "dir.csv")],
        )
        assert code == 2
        assert "error:" in err


class TestSweepCommand:
    def test_row_count_and_exit(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "0.01", "--omega-max", "0.1",
             "--points", "4"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == HEADER_LINE
        assert len(lines) == 1 + 4 * 2

    def test_partial_failure_keeps_exit_0(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "1e-8", "--omega-max", "0.1",
             "--points", "3", "--stats", "boson"],
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 3
        assert "below floor" in lines[0]
        assert lines[-1].split(",")[-1] == ""

    def test_linear_grid(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--mass", "1", "--omega-min", "0.01", "--omega-max", "0.03",
             "--points", "3", "--grid", "linear", "--stats", "boson"],
        )
        assert code == 0
        omegas = [float(li.split(",")[1]) for li in out.strip().split("\n")[1:]]
        # 17 significant digits round-trip doubles exactly.
        assert omegas == [float(o) for o in np.linspace(0.01, 0.03, 3)]

    def test_sweep_byte_determinism(self, capsys):
        argv = [
            "sweep", "--mass", "1", "--omega-min", "0.005", "--omega-max", "0.5",
            "--points", "7", "--format", "json",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert len(json.loads(first)) == 14


class TestCrossoverCommand:
    def parse(self, text):
        fields = {}
        for line in text.strip().split("\n"):
            key, _, value = line.partition(" = ")
            fields[key] = value
        return fields

    def test_output_fields(self, capsys):
        code, out, err = run(capsys, ["crossover", "--mass", "1"])
        assert code == 0 and err == ""
        fields = self.parse(out)
        assert list(fields) == ["x_star", "omega_star", "residual", "iterations"]
        x_star = float(fields["x_star"])
        assert abs(x_star - X_STAR) <= 4.0 * math.ulp(X_STAR)
        assert abs(float(fields["residual"])) <= 1e-14
        assert int(fields["iterations"]) > 0
        assert float(fields["omega_star"]) == pytest.approx(
            x_star / (4.0 * math.pi), rel=1e-15
        )

    def test_mass_scaling_is_exact(self, capsys):
        _, out1, _ = run(capsys, ["crossover", "--mass", "1"])
        _, out2, _ = run(capsys, ["crossover", "--mass", "2"])
        f1, f2 = self.parse(out1), self.parse(out2)
        # x* is geometric, mass free; omega* halves exactly when m doubles
        # because scaling by 2 is exact in binary floating point.
        assert f1["x_star"] == f2["x_star"]
        assert f1["residual"] == f2["residual"]
        assert float(f1["omega_star"]) == 2.0 * float(f2["omega_star"])


class TestStateAndSpectrum:
    def test_boson_state_document(self, capsys):
        code, out, _ = run(
            capsys, ["state", "--mass", "1", "--x", "1", "--stats", "boson"]
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"squeezing", "basis", "diag", "offdiag_norm"}
        assert doc["squeezing"]["statistics"] == "boson"
        assert doc["squeezing"]["x"] == pytest.approx(1.0, rel=1e-15)
        assert doc["basis"] == list(range(len(doc["diag"])))
        assert doc["offdiag_norm"] == 0.0
        q = math.exp(-2.0)
        assert doc["diag"][0] == pytest.approx(1.0 - q, abs=1e-12)

    def test_fermion_state_document(self, capsys):
        code, out, _ = run(
            capsys, ["state", "--mass", "1", "--x", "1", "--stats", "fermion"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert sum(doc["diag"]) == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_adds_fit_columns(self, capsys):
        code, out, _ = run(
            capsys, ["spectrum", "--mass", "1", "--x", "1", "--stats", "boson"]
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "squeezing", "basis", "diag", "offdiag_norm", "mean_occ", "T_ratio"
        }
        assert doc["mean_occ"] == pytest.approx(1.0 / math.expm1(2.0), rel=1e-9)
        assert doc["T_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_spectrum_null_fit_when_unfittable(self, capsys):
        code, out, _ = run(
            capsys, ["spectrum", "--mass", "1", "--x", "30", "--stats", "boson"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["T_ratio"] is None

    def test_state_byte_determinism(self, capsys):
        argv = ["state", "--mass", "1", "--x", "2", "--stats", "fermion"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sweep_criterion9.csv",
         ["sweep", "--mass", "1", "--omega-min", "0.005", "--omega-max", "0.5",
          "--points", "25", "--stats", "both"]),
        ("spectrum_boson_x0.5.json", ["spectrum", "--mass", "1", "--x", "0.5", "--stats", "boson"]),
        ("spectrum_fermion_x2.json", ["spectrum", "--mass", "1", "--x", "2", "--stats", "fermion"]),
    ],
)
def test_output_matches_golden_bytes(capsys, name, argv):
    # The files were captured before reductions were stored as diagonals.
    # They pin the printed bytes: never regenerate them to make this pass.
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (DATA / name).read_text()


CORPUS = json.loads((DATA / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=["_".join(c["argv"]) for c in CORPUS])
def test_corpus_matches_golden_bytes(capsys, case):
    # Captured before the crossover bracket and the infrared floor became
    # constants; never regenerate it to make this pass.
    assert run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# One corpus row per command and exit code, run as a user runs the command:
# in a fresh interpreter, with every warning an error.
FRESH_ROWS = {
    "sweep --mass 1 --omega-min 0.01 --omega-max 1 --points 7",
    "sweep --mass 1 --omega-min 0.2 --omega-max 0.1 --points 5",
    "entropy --mass 1 --x 1",
    "entropy --mass 1 --x 1e-7",
    "state --mass 1 --x 1 --stats boson",
    "state --mass 1 --x 1 --stats fermion",
    "spectrum --mass 1 --x 1 --stats boson",
    "spectrum --mass 1 --x 1 --stats fermion",
    "crossover --mass 1",
}
FRESH_CASES = [c for c in CORPUS if " ".join(c["argv"]) in FRESH_ROWS]


@pytest.mark.parametrize("case", FRESH_CASES, ids=[" ".join(c["argv"]) for c in FRESH_CASES])
def test_corpus_row_in_a_fresh_interpreter(case):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    entry = "import sys; from collapsar.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", entry, *case["argv"]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["code"], case["stdout"], case["stderr"]
    )


def test_fresh_rows_cover_every_command_and_exit_code():
    assert len(FRESH_CASES) == len(FRESH_ROWS)
    assert {c["argv"][0] for c in FRESH_CASES} == set(OPTIONS)
    assert {c["code"] for c in FRESH_CASES} == {0, 2, 3}


def test_format_float_examples():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
