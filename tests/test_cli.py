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
from pathlib import Path

import numpy as np
import pytest

from collapsar import CSV_HEADER, SqueezingOverflowError, build_boson_state
from collapsar import cli
from collapsar.cli import MAX_SWEEP_POINTS, build_parser, main
from collapsar.entanglement import (
    _json_number,
    _reduction,
    format_float,
    sweep,
    temperature_ratio_fit,
)
from collapsar.fock import mean_occupation
from collapsar.geometry import BlackHoleParams, ModeChannel, squeezing_for
from collapsar.states import EPS_TAIL_DEFAULT

HEADER_LINE = ",".join(CSV_HEADER)
DATA = Path(__file__).parent / "data"
# Root of S_fermion - S_boson, frozen from mpmath.findroot at 30 digits.
X_STAR = 0.40671361302244355


def fresh_interpreter(entry, argv, **env):
    """Run the code ``entry`` with ``argv`` in a new interpreter that imports this checkout.

    ``env`` is added to the child's environment only.
    """
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", entry, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=120,
    )


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
    def test_sweep_points_are_bounded_before_the_grid_is_built(
        self, capsys, traced_memory, points
    ):
        # 10**12 points would ask numpy for 8 TB before any report ran.
        argv = ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "0.2",
                "--points", str(points)]
        start = time.perf_counter()
        (code, out, err), _, peak = traced_memory(lambda: run(capsys, argv))
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
        assert code == 3 and err == ""
        lines = out.strip().split("\n")
        # Both rows fail, and both are still emitted, as a sweep's would be.
        assert lines[0] == HEADER_LINE
        assert len(lines) == 3
        assert all("below floor" in li for li in lines[1:])

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
        assert code == 3 and err == ""
        rows = [li.split(",") for li in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        for r in rows:
            assert r[0] == "inf"
            assert r[4:9] == ["nan"] * 5
            assert r[-1] == "x = inf is not a finite positive float"

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

    # The last sweep's boson states would need 1.95e10 levels, over
    # MAX_ROW_LEVELS; it is refused before any state is built.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--mass", "1", "--omega-min", "0.1", "--omega-max", "0.2", "--points", "1"],
        ["entropy", "--mass", "1", "--x", "-1"],
        ["sweep", "--mass", "1", "--omega-min", "1e-7", "--omega-max", "1", "--points", "20000"],
    ])
    def test_failing_command_creates_no_file(self, capsys, tmp_path, argv):
        # The rows are computed before the output handle opens.
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, argv + ["--output", str(target)])
        assert (code, out) == (2, "")
        assert not target.exists()

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

    def test_csv_rows_are_not_held_as_text(self, tmp_path, traced_memory):
        # Rows go to the handle one at a time: beyond what the library sweep
        # holds, writing the file may cost only a fraction of its size.  The
        # fixed costs (argparse, and csv.writer's 128 KiB record buffer) come
        # to ~160 KB, so the file must be large for a quarter of it to clear them.
        lo, hi, points = 0.08, 2.0, 4000
        target = tmp_path / "sweep.csv"
        argv = ["sweep", "--mass", "1", "--omega-min", repr(lo), "--omega-max", repr(hi),
                "--points", str(points), "--output", str(target)]
        build_parser().parse_args(argv)  # argparse compiles its patterns on first use
        peaks = []
        for call in (
            lambda: sweep(BlackHoleParams(mass=1.0), np.geomspace(lo, hi, points).tolist()),
            lambda: main(argv),
        ):
            peaks.append(traced_memory(call)[2])
        size = target.stat().st_size
        assert size > 1_000_000
        assert peaks[1] - peaks[0] < size / 4

    # The JSON twin: reports are rendered and written cli._JSON_BATCH at a
    # time, so the document text is never held whole.  A JSON report takes
    # about twice the bytes of a CSV row, so 2,000 points make a 1.2 MB file;
    # writing it costs ~220 KB beyond the sweep, where the whole text cost 9 MB.
    def test_json_rows_are_not_held_as_text(self, tmp_path, traced_memory):
        lo, hi, points = 0.08, 2.0, 2000
        target = tmp_path / "sweep.json"
        argv = ["sweep", "--mass", "1", "--omega-min", repr(lo), "--omega-max", repr(hi),
                "--points", str(points), "--format", "json", "--output", str(target)]
        build_parser().parse_args(argv)  # argparse compiles its patterns on first use
        peaks = []
        for call in (
            lambda: sweep(BlackHoleParams(mass=1.0), np.geomspace(lo, hi, points).tolist()),
            lambda: main(argv),
        ):
            peaks.append(traced_memory(call)[2])
        size = target.stat().st_size
        assert size > 1_000_000
        assert peaks[1] - peaks[0] < size / 4
        assert len(json.loads(target.read_text())) == 2 * points

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

    # A JSON sweep is written cli._JSON_BATCH reports at a time.  Filling a
    # batch, crossing into a second and filling two must each give the
    # document json.dumps renders for the whole list; its floats round-trip,
    # so re-rendering the parsed document reproduces that text.
    @pytest.mark.parametrize(
        "points, stats",
        [
            (cli._JSON_BATCH // 2, "both"),
            (cli._JSON_BATCH // 2 + 1, "both"),
            (cli._JSON_BATCH + 1, "boson"),
            (2 * cli._JSON_BATCH, "fermion"),
        ],
    )
    def test_json_batches_make_the_whole_document(self, capsys, points, stats):
        argv = [
            "sweep", "--mass", "1", "--omega-min", "0.005", "--omega-max", "0.5",
            "--points", str(points), "--stats", stats, "--format", "json",
        ]
        _, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert len(doc) == points * (2 if stats == "both" else 1)
        assert out == json.dumps(doc, indent=2) + "\n"


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


# The work bound at its edge, lowered to a small command's own count: a
# command whose boson states hold exactly the limit runs, and one level
# more than the limit is refused before the output file is created.  The
# first mode of the sweep lies below the floor and builds nothing.
@pytest.mark.parametrize("limit, argv, omegas", [
    ("MAX_ROW_LEVELS",
     ["sweep", "--mass", "1", "--omega-min", "1e-8", "--omega-max", "0.1", "--points", "3"],
     np.geomspace(1e-8, 0.1, 3).tolist()),
])
def test_level_limit_edge(capsys, tmp_path, monkeypatch, limit, argv, omegas):
    levels = 0
    for om in omegas:
        try:
            sq = squeezing_for(BlackHoleParams(mass=1.0), ModeChannel(om, "boson"))
        except SqueezingOverflowError:
            continue
        levels += build_boson_state(sq).weights.size
    monkeypatch.setattr(cli, limit, levels)
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, limit, levels - 1)
    target = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--output", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: the boson states need {levels} levels, over the limit of {levels - 1}\n"
    assert not target.exists()


def library_document(argv):
    """The document a state or spectrum command prints, built whole from the library."""
    stats = argv[argv.index("--stats") + 1]
    omega = cli._omega_from_x(float(argv[argv.index("--x") + 1]), 1.0)
    sq = squeezing_for(BlackHoleParams(mass=1.0), ModeChannel(omega, stats))
    rho = _reduction(sq, EPS_TAIL_DEFAULT)
    doc = {"squeezing": sq.to_json_dict(), **rho.to_json_dict()}
    if argv[0] == "spectrum":
        doc["mean_occ"] = _json_number(mean_occupation(rho))
        doc["T_ratio"] = _json_number(temperature_ratio_fit(rho, sq.x))
    return doc


class TestStateAndSpectrum:
    # A state or spectrum command is bounded only by X_MIN and the eps_tail
    # floor, as every state is: x = 8.6e-5 needs 211,042 levels, and the
    # command writes json.dumps's bytes for them.
    def test_state_past_the_old_document_ceiling(self, capsys):
        argv = ["state", "--mass", "1", "--x", "8.6e-5", "--stats", "boson"]
        doc = library_document(argv)
        assert len(doc["diag"]) == 211_042
        assert run(capsys, argv) == (0, json.dumps(doc, indent=2) + "\n", "")

    # The arrays are written cli._DOC_CHUNK entries at a time.  A chunk of
    # one entry, of two, and of d - 1, d and d + 1 for a mode of d levels
    # must each give the bytes json.dumps renders for the whole document.
    # At boson x = 40 the state holds one level and the fit prints null.
    @pytest.mark.parametrize("chunk", [
        lambda d: 1, lambda d: 2, lambda d: max(1, d - 1), lambda d: d, lambda d: d + 1,
    ], ids=["1", "2", "d-1", "d", "d+1"])
    @pytest.mark.parametrize("argv", [
        ["state", "--mass", "1", "--x", "0.5", "--stats", "boson"],
        ["state", "--mass", "1", "--x", "2", "--stats", "fermion"],
        ["spectrum", "--mass", "1", "--x", "0.5", "--stats", "boson"],
        ["spectrum", "--mass", "1", "--x", "2", "--stats", "fermion"],
        ["spectrum", "--mass", "1", "--x", "40", "--stats", "boson"],
    ], ids=" ".join)
    def test_chunks_make_the_whole_document(self, capsys, monkeypatch, argv, chunk):
        doc = library_document(argv)
        monkeypatch.setattr(cli, "_DOC_CHUNK", chunk(len(doc["diag"])))
        assert run(capsys, argv) == (0, json.dumps(doc, indent=2) + "\n", "")

    # Modelled on test_csv_rows_are_not_held_as_text: beyond what the
    # library holds to build the state and fit it, writing the document may
    # cost only a fraction of the file.  x = 1e-4 holds 180,742 levels,
    # twelve chunks; the whole text and its two lists cost ~46 MB beyond.
    def test_document_is_not_held_as_text(self, tmp_path, traced_memory):
        target = tmp_path / "spectrum.json"
        argv = ["spectrum", "--mass", "1", "--x", "1e-4", "--stats", "boson",
                "--output", str(target)]
        build_parser().parse_args(argv)  # argparse compiles its patterns on first use
        sq = squeezing_for(
            BlackHoleParams(mass=1.0), ModeChannel(cli._omega_from_x(1e-4, 1.0), "boson")
        )

        def library():
            rho = _reduction(sq, EPS_TAIL_DEFAULT)
            mean_occupation(rho)
            temperature_ratio_fit(rho, sq.x)
            assert rho.dim == 180_742

        peaks = []
        for call in (library, lambda: main(argv)):
            peaks.append(traced_memory(call)[2])
        size = target.stat().st_size
        assert size > 6_000_000
        assert peaks[1] - peaks[0] < size / 4

    # The state's one level vector is the document's diagonal, written in
    # chunks, so the command peaks near 8 B a level.  tracemalloc would hook
    # each of the 1.9 M repr strings and take five times as long, so the
    # command runs in a fresh interpreter, which reports how far main() raised
    # its own resident high-water mark.  That is VmHWM, not ru_maxrss: a
    # child's ru_maxrss starts at its parent's, which here is the test run's.
    # A fixed mmap threshold, as bench/ pins it, hands each large array back
    # when it is freed.  The growth reads ~18.5 MB; a copy of the diagonal
    # kept beside it reads ~34 MB.
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_state_command_holds_one_level_vector(self, tmp_path):
        argv = ["state", "--mass", "1", "--x", "1e-5", "--stats", "boson",
                "--output", str(tmp_path / "state.json")]
        entry = (
            "import sys\n"
            "from collapsar.cli import build_parser, main\n"
            "def high_water():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(s.split()[1]) for s in f if s.startswith('VmHWM:'))\n"
            "argv = sys.argv[1:]\n"
            "build_parser().parse_args(argv)  # argparse compiles its patterns on first use\n"
            "before = high_water()\n"
            "code = main(argv)\n"
            "print(high_water() - before)\n"
            "sys.exit(code)\n"
        )
        proc = fresh_interpreter(entry, argv, MALLOC_MMAP_THRESHOLD_="1048576")
        assert (proc.returncode, proc.stderr) == (0, "")
        growth = 1024 * int(proc.stdout)  # VmHWM is in KiB
        d = 1_922_541
        assert growth < 8 * d + 4 * 2**20

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
    "entropy --mass 1 --x 5e-4",
    "state --mass 1 --x 1 --stats boson",
    "state --mass 1 --x 1 --stats fermion",
    "spectrum --mass 1 --x 1 --stats boson",
    "spectrum --mass 1 --x 1 --stats fermion",
    "crossover --mass 1",
}
FRESH_CASES = [c for c in CORPUS if " ".join(c["argv"]) in FRESH_ROWS]


@pytest.mark.parametrize("case", FRESH_CASES, ids=[" ".join(c["argv"]) for c in FRESH_CASES])
def test_corpus_row_in_a_fresh_interpreter(case):
    entry = "import sys; from collapsar.cli import main; sys.exit(main())"
    proc = fresh_interpreter(entry, case["argv"])
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
