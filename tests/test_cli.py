"""End-to-end CLI tests driven through main(), asserting on captured bytes.

Each command's output lives in one place, the corpus ``data/cli_corpus.json``:
a row pins one command's stdout, stderr and exit code, and
test_corpus_row_keeps_the_output_contract checks the documented shape of
that row's live output without reading a recorded digit.  A few corpus rows
also run in a fresh interpreter, as a user runs the command.

The rest of this file holds what a row's bytes cannot show: the option set,
argument errors, output files, memory gates, chunk and batch edges, the
level limit and the agreement of --omega and --x.
"""

import argparse
import csv
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

from collapsar import CSV_HEADER, SqueezingOverflowError, build_boson_state
from collapsar import cli
from collapsar.cli import MAX_SWEEP_POINTS, build_parser, main
from collapsar.entanglement import (
    _json_number,
    _reduction,
    sweep,
    temperature_ratio_fit,
)
from collapsar.fock import FERMION_BASIS, mean_occupation
from collapsar.geometry import FOUR_PI, BlackHoleParams, ModeChannel, squeezing_for
from collapsar.states import EPS_TAIL_DEFAULT

DATA = Path(__file__).parent / "data"


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


def option(argv, name, default=None):
    """The value that follows ``name`` in ``argv``, or ``default``."""
    return argv[argv.index(name) + 1] if name in argv else default


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

    @pytest.mark.parametrize("points", [1, MAX_SWEEP_POINTS + 1, 10**12])
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
        assert err == f"error: points must be between 2 and {MAX_SWEEP_POINTS}, got {points}\n"

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

class TestEntropyCommand:
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
    stats = option(argv, "--stats")
    omega = cli._omega_from_x(float(option(argv, "--x")), 1.0)
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
CORPUS_IDS = ["_".join(c["argv"]) for c in CORPUS]


@pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
def test_corpus_matches_golden_bytes(capsys, case):
    # Captured before the crossover bracket and the infrared floor became
    # constants; never regenerate it to make this pass.
    assert run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def check_rows(argv, code, out):
    """entropy and sweep: a report per frequency and statistics, in CSV_HEADER order.

    An error row has nan (JSON null) numerics, and the command exits 3
    only when every row is one.
    """
    stats = option(argv, "--stats", "both")
    stats = ["boson", "fermion"] if stats == "both" else [stats]
    if option(argv, "--format") == "json":
        rows = json.loads(out)
        assert out == json.dumps(rows, indent=2) + "\n"
        assert all(tuple(r) == CSV_HEADER for r in rows)
        nan = no_error = None
    else:
        header, *lines = csv.reader(out.splitlines())
        assert tuple(header) == CSV_HEADER
        assert all(len(line) == len(CSV_HEADER) for line in lines)
        rows = [dict(zip(CSV_HEADER, line)) for line in lines]
        nan, no_error = "nan", ""
    assert [r["statistics"] for r in rows] == stats * int(option(argv, "--points", 1))
    for i in range(0, len(rows), len(stats)):
        assert len({r["omega"] for r in rows[i : i + len(stats)]}) == 1
    failed = [r["error"] != no_error for r in rows]
    for r, fails in zip(rows, failed):
        assert (r["S_numeric"] == nan) is fails
        if fails:
            assert r["error"]
            assert [r["gap"], r["mean_occ"], r["T_ratio"]] == [nan] * 3
    assert code == (3 if all(failed) else 0)


def check_document(argv, out):
    """state and spectrum: json.dumps's layout of a diagonal reduced state."""
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    keys = ["squeezing", "basis", "diag", "offdiag_norm"]
    assert list(doc) == keys + (["mean_occ", "T_ratio"] if argv[0] == "spectrum" else [])
    assert list(doc["squeezing"]) == ["statistics", "r", "x"]
    assert doc["squeezing"]["statistics"] == option(argv, "--stats")
    diag = doc["diag"]
    if doc["squeezing"]["statistics"] == "boson":
        assert doc["basis"] == list(range(len(diag)))
    else:
        assert doc["basis"] == [list(pair) for pair in FERMION_BASIS]
    assert doc["offdiag_norm"] == 0.0
    assert all(a >= b for a, b in zip(diag, diag[1:]))
    assert abs(math.fsum(diag) - 1.0) <= 1e-6


def check_crossover(argv, out):
    """crossover: four ``key = value`` lines; omega* is x* / (4 pi mass), exactly."""
    fields = [line.split(" = ") for line in out.splitlines()]
    assert [key for key, _ in fields] == ["x_star", "omega_star", "residual", "iterations"]
    fields = dict(fields)
    mass = float(option(argv, "--mass"))
    assert float(fields["omega_star"]) == float(fields["x_star"]) / (FOUR_PI * mass)
    assert int(fields["iterations"]) > 0
    assert fields["iterations"] == str(int(fields["iterations"]))


@pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
def test_corpus_row_keeps_the_output_contract(capsys, case):
    # The documented shape of each row's live output.  It reads no recorded
    # digit, so a change of printed digits leaves it as it is.
    argv = case["argv"]
    code, out, err = run(capsys, argv)
    if code == 2 or (code == 3 and argv[0] in ("state", "spectrum")):
        assert out == ""
        assert re.fullmatch(r"error: [^\n]+\n", err)
        return
    assert err == ""
    if argv[0] in ("entropy", "sweep"):
        check_rows(argv, code, out)
        return
    assert code == 0
    if argv[0] == "crossover":
        check_crossover(argv, out)
    else:
        check_document(argv, out)


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

