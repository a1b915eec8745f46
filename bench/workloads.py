"""The three workloads: seeded inputs, the measured operation, and its checks.

Every workload is one closed-loop caller in one process over ``n_ops``
distinct operations; op ``i`` is op ``i % n_ops``.  ``run_op`` is the
operation the untraced run times; ``replay_op`` is the same work as the
traced run repeats it in rounds (in-process for ``cli-mix``).  Both return
the operation's wall time in seconds and record its checks with a
``checks.Checker``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from collapsar import cli
from collapsar import entanglement as ent
from collapsar import fock, geometry, states

FOUR_PI = 4.0 * math.pi
MASS = 1.0
PARAMS = geometry.BlackHoleParams(mass=MASS)
BOSON = geometry.Statistics.BOSON
FERMION = geometry.Statistics.FERMION

# boson-deep: d runs from about 380 (x = 0.04) to about 1040 (x = 0.015).
# The lower end stops short of x = 0.01 (d = 1578, ~1.9 s a call on one
# BLAS thread) so that a run repeats every x several times.
DEEP_X = (0.015, 0.04)
# sweep-wide: d stays at or below ~150 and half the states are fermionic.
WIDE_X = (0.1, 50.0)
WIDE_CHUNK = 10
# cli-mix: single-mode commands stay in the cheap x >= 0.1 region.
CLI_X = (0.1, 10.0)
# The criterion-9 sweep of the acceptance suite.
CLI_SWEEP = ["sweep", "--mass", "1", "--omega-min", "0.005", "--omega-max", "0.5",
             "--points", "25", "--stats", "both"]
CLI_SWEEP_OMEGAS = (0.005, 0.5, 25)

# What the `collapsar` console script runs.
ENTRY = "import sys; from collapsar.cli import main; sys.exit(main())"
SETUP = "import collapsar.cli"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Size:
    """How much work one run does; FULL is the benchmark, the smoke test shrinks it."""

    deep_xs: int = 40           # distinct x values in a boson-deep run
    deep_round: int = 8         # boson-deep reports per traced round
    wide_points: int = 400      # frequencies in the sweep-wide grid
    cli_entropy: int = 4        # `entropy --x` commands in one cli-mix cycle
    min_passes: int = 3         # repeats of every op an untraced run makes at least
    launches: int = 30          # fresh interpreters behind setup_s
    repeats: int = 9            # fresh interpreters per traced start-up figure


FULL = Size()


def stratified_log(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One log-uniform draw in each of n equal strata of [lo, hi], ascending.

    Stratifying keeps the spread of d, and so of the cost mix, the same
    from seed to seed while the values themselves change.
    """
    u = (np.arange(n) + rng.random(n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def spread_order(n: int) -> list[int]:
    """Bit-reversed order of range(n): every prefix samples the strata evenly."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _call(fn, *args, **kwargs):
    """Time fn(*args, **kwargs); return (seconds, result or None, error text or None)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def _main_in_process(argv: list[str]):
    """cli.main as the console script would end, with argparse's exit turned into a code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def child_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def launch_s(code: str, env: dict) -> float:
    """Launch-to-exit seconds of one fresh ``python -c code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def numpy_import_ms(env: dict, repeats: int) -> float:
    """Least cumulative numpy import time under ``import collapsar.cli``, in ms.

    Read from ``-X importtime``, which itself slows imports, so the figure
    runs above numpy's share of an untraced start-up.
    """
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP]
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                times.append(int(fields[1]) / 1e3)
                break
        else:
            raise RuntimeError("numpy missing from the -X importtime report")
    return min(times)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class BosonDeep:
    """Boson entropy_report calls at large d, where fock's dense trace,
    validation and eigvalsh do nearly all the work."""

    name = "boson-deep"
    op = "one boson entropy_report call"
    # The issue's metric names for this workload: name -> (metric, factor).
    aliases = {"reports_per_s": ("ops_per_s", 1), "report_p50_ms": ("op_p50_ms", 1),
               "report_p90_ms": ("op_p90_ms", 1)}

    def __init__(self, seed: int, size: Size) -> None:
        rng = np.random.default_rng(seed)
        xs = stratified_log(rng, *DEEP_X, size.deep_xs)
        self.xs = [float(xs[i]) for i in spread_order(size.deep_xs)]
        self.channels = [geometry.ModeChannel(omega=x / (FOUR_PI * MASS), statistics=BOSON)
                         for x in self.xs]
        self.n_ops = len(self.xs)
        self.round_len = min(size.deep_round, self.n_ops)

    def inputs(self) -> dict:
        return {"mass": MASS, "x": self.xs}

    def run_op(self, i: int, checker: checks.Checker) -> float:
        k = i % self.n_ops
        seconds, report, error = _call(ent.entropy_report, PARAMS, self.channels[k])
        problems = [error] if error else checker.report_problems(report, self.xs[k], "boson")
        checker.record(f"boson x={self.xs[k]!r}", problems)
        return seconds

    replay_op = run_op

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


class SweepWide:
    """Library sweep() passes over a wide log grid, each row rendered as CSV:
    small states, so per-object cost dominates."""

    name = "sweep-wide"
    op = f"one sweep() call over {WIDE_CHUNK} consecutive grid points, rows rendered"

    def __init__(self, seed: int, size: Size) -> None:
        rng = np.random.default_rng(seed)
        self.xs = [float(x) for x in stratified_log(rng, *WIDE_X, size.wide_points)]
        # A pass over the grid is one sweep() call per chunk of WIDE_CHUNK
        # consecutive points.  Chunks at small x hold larger boson states, so
        # op costs spread over a range and p50 moves smoothly with machine speed.
        self.slices = [self.xs[j:j + WIDE_CHUNK] for j in range(0, len(self.xs), WIDE_CHUNK)]
        self.omegas = [[x / (FOUR_PI * MASS) for x in xs] for xs in self.slices]
        self.expected = [[(x, st) for x in xs for st in ("boson", "fermion")]
                         for xs in self.slices]
        self.n_ops = self.round_len = len(self.slices)
        self.aliases = {"reports_per_s": ("ops_per_s", 2 * WIDE_CHUNK)}

    def inputs(self) -> dict:
        return {"mass": MASS, "x": self.xs, "statistics": ["boson", "fermion"],
                "chunk": WIDE_CHUNK}

    @staticmethod
    def _sweep(omegas):
        reports = ent.sweep(PARAMS, omegas)
        return reports, [ent.report_csv_row(r) for r in reports]

    def run_op(self, i: int, checker: checks.Checker) -> float:
        k = i % self.n_ops
        expected = self.expected[k]
        seconds, result, error = _call(self._sweep, self.omegas[k])
        if error or len(result[0]) != len(expected):
            why = error or f"{len(result[0])} reports for {len(expected)} modes"
            for x, st in expected:
                checker.record(f"sweep {st} x={x!r}", [why])
            return seconds
        for (x, st), report, row in zip(expected, *result):
            problems = checker.report_problems(report, x, st) + checks.row_problems(row, report)
            checker.record(f"sweep {st} x={x!r}", problems)
        return seconds

    replay_op = run_op

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


class CliMix:
    """A seeded cycle of `collapsar` commands, each a fresh process: start-up,
    imports, argparse and rendering dominate."""

    name = "cli-mix"
    op = "one collapsar command, launch to exit"
    aliases = {"cmd_p50_ms": ("op_p50_ms", 1), "cmd_p90_ms": ("op_p90_ms", 1)}

    def __init__(self, seed: int, size: Size, env: dict) -> None:
        rng = np.random.default_rng(seed)
        draws = iter(float(x) for x in stratified_log(rng, *CLI_X, size.cli_entropy + 2))
        commands = [CLI_SWEEP, CLI_SWEEP + ["--format", "json"], ["crossover", "--mass", "1"]]
        commands += [["entropy", "--mass", "1", "--x", repr(next(draws))]
                     for _ in range(size.cli_entropy)]
        for stats in ("boson", "fermion"):
            x = repr(next(draws))
            commands += [[sub, "--mass", "1", "--x", x, "--stats", stats]
                         for sub in ("state", "spectrum")]
        self.commands = [commands[i] for i in rng.permutation(len(commands))]
        self.n_ops = self.round_len = len(self.commands)
        self.env = env
        self._checkers = [self._expect(argv) for argv in self.commands]

    def inputs(self) -> dict:
        return {"argv": self.commands}

    @staticmethod
    def _expect(argv: list[str]):
        """Library results for one command, computed once; returns stdout -> problems."""
        sub = argv[0]
        if sub == "sweep":
            omegas = [float(o) for o in np.geomspace(*CLI_SWEEP_OMEGAS)]
            reports = ent.sweep(PARAMS, omegas)
        elif sub == "entropy":
            omega = float(argv[argv.index("--x") + 1]) / (FOUR_PI * MASS)
            reports = [ent.entropy_report(PARAMS, geometry.ModeChannel(omega=omega, statistics=st))
                       for st in (BOSON, FERMION)]
        if sub in ("sweep", "entropy"):
            oracle = checks.Checker()
            physics = [p for r in reports
                       for p in oracle.report_problems(r, r.x, r.statistics.value)]
            if "json" in argv:
                return lambda out: physics + checks.json_reports_problems(
                    out, reports, ent.report_json_dict)
            return lambda out: physics + checks.csv_problems(out, ent.CSV_HEADER, reports)
        if sub == "crossover":
            result = ent.crossover()
            return lambda out: checks.crossover_problems(out, result, MASS)
        stats = argv[argv.index("--stats") + 1]
        channel = geometry.ModeChannel(
            omega=float(argv[argv.index("--x") + 1]) / (FOUR_PI * MASS), statistics=stats)
        sq = geometry.squeezing_for(PARAMS, channel)
        state = states.build_boson_state(sq) if stats == "boson" else states.build_fermion_state(sq)
        rho = fock.partial_trace(state)
        doc = {"squeezing": sq.to_json_dict(), **rho.to_json_dict()}
        if sub == "spectrum":
            doc["mean_occ"] = fock.mean_occupation(rho, "particle")
            doc["T_ratio"] = ent.temperature_ratio_fit(rho, geometry.dimensionless_x(PARAMS, channel))
        return lambda out: checks.reduced_doc_problems(out, doc, stats)

    def _record(self, k: int, checker, error, code=None, out="", err="") -> None:
        if error:
            problems = [error]
        elif code != 0:
            problems = [f"exit code {code}: {err.strip()[:200]!r}"]
        elif err:
            problems = [f"stderr {err.strip()[:200]!r}"]
        else:
            try:
                problems = self._checkers[k](out)
            except (ValueError, KeyError) as exc:
                problems = [f"unparseable output: {exc}"]
        checker.record(" ".join(self.commands[k]), problems)

    def run_op(self, i: int, checker: checks.Checker) -> float:
        k = i % self.n_ops
        seconds, done, error = _call(
            subprocess.run, [sys.executable, "-c", ENTRY, *self.commands[k]],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done is None:
            self._record(k, checker, error)
        else:
            self._record(k, checker, None, done.returncode, done.stdout, done.stderr)
        return seconds

    def replay_op(self, i: int, checker: checks.Checker) -> float:
        k = i % self.n_ops
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            seconds, code, error = _call(_main_in_process, self.commands[k])
        self._record(k, checker, error, code, out.getvalue(), err.getvalue())
        return seconds

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (BosonDeep, SweepWide, CliMix)}


def make(name: str, seed: int, size: Size, env: dict):
    cls = WORKLOADS[name]
    return cls(seed, size, env) if cls is CliMix else cls(seed, size)
