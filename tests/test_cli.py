"""End-to-end CLI tests driven through main(), asserting on captured bytes.

Each command's output lives in one place, the corpus ``data/cli_corpus.json``:
a row pins one command's stdout, stderr and exit code, and
test_corpus_row_keeps_the_output_contract checks the documented shape of
that row's live output without reading a recorded digit.  The rows are also
the home of a report's rendering: 17-digit floats, the header and key order,
and an error row's empty field or null numerics.  A few corpus rows also run
in a fresh interpreter, as a user runs the command.

The rest of this file holds what a row's bytes cannot show: the option set,
argument errors, output files, the streamed-output memory gates, the chunk
edges, the level limit and the agreement of --omega and --x.
"""

import argparse
import csv
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

import collapsar
from collapsar import CSV_HEADER, SqueezingOverflowError, build_boson_state
from collapsar import cli
from collapsar.cli import MAX_SWEEP_POINTS, build_parser, main
from collapsar.entanglement import (
    _json_number,
    _reduction,
    report_csv_row,
    report_json_dict,
    sweep,
    temperature_ratio_fit,
)
from collapsar.fock import FERMION_BASIS, mean_occupation
from collapsar.geometry import FOUR_PI, BlackHoleParams, ModeChannel, squeezing_for
from collapsar.states import EPS_TAIL_DEFAULT


def fresh_interpreter(entry, argv, **env):
    """Run the code ``entry`` with ``argv`` in a new interpreter that imports the same collapsar.

    The child's path starts with the ``src`` this run imported collapsar
    from, so it runs the code under test.  ``env`` is added to the child's
    environment only.
    """
    src = str(Path(collapsar.__file__).resolve().parents[1])
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


def library_parts(argv):
    """The squeezing and reduced state of a state or spectrum command, and a spectrum's tail."""
    stats = option(argv, "--stats")
    omega = cli._omega_from_x(float(option(argv, "--x")), 1.0)
    sq = squeezing_for(BlackHoleParams(mass=1.0), ModeChannel(omega, stats))
    rho = _reduction(sq, EPS_TAIL_DEFAULT)
    tail = {}
    if argv[0] == "spectrum":
        tail["mean_occ"] = _json_number(mean_occupation(rho))
        tail["T_ratio"] = _json_number(temperature_ratio_fit(rho, sq.x))
    return sq, rho, tail


def document_text(parts):
    """The text a state or spectrum command prints, rendered whole from ``library_parts``."""
    sq, rho, tail = parts
    doc = {"squeezing": sq.to_json_dict(), **rho.to_json_dict(), **tail}
    return json.dumps(doc, indent=2) + "\n"


class TestStateAndSpectrum:
    # The state's one level vector is the document's diagonal, written in
    # chunks, so the command peaks near 8 B a level.  tracemalloc would hook
    # each of the 1.9 M repr strings and take five times as long, so the
    # command runs in a fresh interpreter, which reports how far main() raised
    # its own resident high-water mark.  That is VmHWM, not ru_maxrss: a
    # child's ru_maxrss starts at its parent's, which here is the test run's.
    # A fixed mmap threshold, as bench/ pins it, hands each large array back
    # when it is freed.  The growth reads ~15.5 MB; a copy of the diagonal
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


def sweep_reports(argv):
    """The reports of a sweep command's log grid, from the library."""
    lo, hi = (float(option(argv, name)) for name in ("--omega-min", "--omega-max"))
    grid = np.geomspace(lo, hi, int(option(argv, "--points"))).tolist()
    return sweep(BlackHoleParams(mass=1.0), grid)


def csv_text(reports):
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([CSV_HEADER, *map(report_csv_row, reports)])
    return text.getvalue()


def json_text(reports):
    return json.dumps(list(map(report_json_dict, reports)), indent=2) + "\n"


SWEEP = ["sweep", "--mass", "1", "--omega-min", "0.08", "--omega-max", "2"]
# Each command: its argv, the library's work for it, and that work's result
# rendered whole.  A JSON report takes about twice the bytes of a CSV row.
STREAMED = {
    "csv": ([*SWEEP, "--points", "4000"], sweep_reports, csv_text),
    "json": ([*SWEEP, "--points", "2000", "--format", "json"], sweep_reports, json_text),
    "spectrum": (
        ["spectrum", "--mass", "1", "--x", "8.6e-5", "--stats", "boson"],
        library_parts,
        document_text,
    ),
}


# Output goes to the handle as it is rendered: beyond the library's own
# peak for the command's work, writing the file may cost only a quarter
# of its size.  The fixed costs (argparse, and csv.writer's 128 KiB record
# buffer) come to ~160 KB, so each file is over 1 MB.  Measured beyond the
# library: 149 KB (csv), 225 KB (json) and 43 KB (spectrum, 8.2 MB); with
# the JSON list, or each array, in one chunk, 9.0 and 21.7 MB.
# A spectrum is bounded only by X_MIN and the eps_tail floor, as every
# state is: x = 8.6e-5 holds 211,042 levels.
@pytest.mark.parametrize(("argv", "work", "whole"), STREAMED.values(), ids=STREAMED)
def test_streamed_output_is_not_held_as_text(tmp_path, traced_memory, argv, work, whole):
    target = tmp_path / "out"
    argv = [*argv, "--output", str(target)]
    build_parser().parse_args(argv)  # argparse compiles its patterns on first use
    result, _, library_peak = traced_memory(lambda: work(argv))
    _, _, peak = traced_memory(lambda: main(argv))
    text = target.read_bytes()
    assert text == whole(result).encode()
    assert peak - library_peak < len(text) / 4


# Every streamed JSON list is written cli._CHUNK entries at a time.  Each
# list of n entries is written at a chunk of one entry, of two, of n - 1 (a
# last chunk of one entry), n (one full chunk) and n + 1 (one short chunk),
# and the command must print the bytes of the library's whole rendering.
# A boson state streams two lists, basis and diag; a fermion state its diag.
# At boson x = 40 the state holds one level and the fit prints null.
EDGE = {
    "1": lambda n: 1,
    "2": lambda n: 2,
    "n-1": lambda n: max(1, n - 1),
    "n": lambda n: n,
    "n+1": lambda n: n + 1,
}
CHUNKED = [
    [*SWEEP, "--points", "3", "--format", "json"],
    ["state", "--mass", "1", "--x", "0.5", "--stats", "boson"],
    ["state", "--mass", "1", "--x", "2", "--stats", "fermion"],
    ["spectrum", "--mass", "1", "--x", "0.5", "--stats", "boson"],
    ["spectrum", "--mass", "1", "--x", "2", "--stats", "fermion"],
    ["spectrum", "--mass", "1", "--x", "40", "--stats", "boson"],
]
CHUNK_EDGES = [(argv, edge) for argv in CHUNKED for edge in EDGE]


@pytest.mark.parametrize(
    ("argv", "edge"), CHUNK_EDGES, ids=[f"{' '.join(argv)} chunk={e}" for argv, e in CHUNK_EDGES]
)
def test_chunks_make_the_whole_document(capsys, monkeypatch, argv, edge):
    if argv[0] == "sweep":
        reports = sweep_reports(argv)
        n, text = len(reports), json_text(reports)
    else:
        parts = library_parts(argv)
        n, text = parts[1].dim, document_text(parts)
    monkeypatch.setattr(cli, "_CHUNK", EDGE[edge](n))
    assert run(capsys, argv) == (0, text, "")


CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())
CORPUS_IDS = ["_".join(c["argv"]) for c in CORPUS]


@pytest.mark.parametrize("case", CORPUS, ids=CORPUS_IDS)
def test_corpus_matches_golden_bytes(capsys, case):
    # The recorded bytes: never regenerate a row to make this pass.  The
    # rows were captured before the crossover bracket and the infrared floor
    # became constants; the last three, before reductions were stored as
    # diagonals.
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

