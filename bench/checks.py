"""Correctness checks on every output the benchmark measures.

Each check returns a list of problems; an empty list means the output is
correct.  The tolerances are those of the acceptance suite
(``tests/test_acceptance.py``): gap below 1e-9 bits for bosons and 1e-12
for fermions (criteria 1 and 2), fitted temperature within 1e-6 and 1e-12
(criterion 3), fermion entropy at most 2 bits (criterion 4), closed form
within 1e-9 of brute summation (criterion 5).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Root of S_fermion - S_boson, frozen from a 30-digit mpmath computation.
X_STAR = 0.40671361302244355
CROSSOVER_TOL = 1e-8

GAP_TOL = {"boson": 1e-9, "fermion": 1e-12}
T_RATIO_TOL = {"boson": 1e-6, "fermion": 1e-12}
ORACLE_TOL = 1e-9
FERMION_CEILING = 2.0

# CLI output and in-process library results come from the same code, so
# parsed values must agree to the last few ulp.
SAME_REL = 1e-12
SAME_ABS = 1e-15


def oracle_entropy(statistics: str, x: float) -> float:
    """Single-mode entropy in bits by brute summation, with numpy only.

    Bosons: the geometric distribution p(n) = (1-q) q^n, q = e^{-2x},
    summed until the neglected tail is below 1e-18.  Fermions: the four
    probabilities of two independent slots with occupation q / (1+q).
    """
    q = math.exp(-2.0 * x)
    if statistics == "boson":
        n_terms = int(math.log(1e-18 * (1.0 - q)) / math.log(q)) + 2
        p = (1.0 - q) * q ** np.arange(n_terms, dtype=np.float64)
    else:
        empty, full = 1.0 / (1.0 + q), q / (1.0 + q)
        p = np.array([empty * empty, empty * full, full * empty, full * full])
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def same(got, want) -> bool:
    """Value equality for parsed output: floats within SAME_REL, nan/None alike."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k]) for k in want)
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) or isinstance(got, float):
        g = math.nan if got is None else float(got)
        w = math.nan if want is None else float(want)
        if math.isnan(g) or math.isnan(w):
            return math.isnan(g) and math.isnan(w)
        return math.isclose(g, w, rel_tol=SAME_REL, abs_tol=SAME_ABS)
    return got == want


class Checker:
    """Counts checked outputs and failures; keeps the first few messages."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._oracle: dict = {}

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(f"{what}: {'; '.join(problems)}")

    def oracle(self, statistics: str, x: float) -> float:
        key = (statistics, x)
        if key not in self._oracle:
            self._oracle[key] = oracle_entropy(statistics, x)
        return self._oracle[key]

    def report_problems(self, report, x: float, statistics: str) -> list[str]:
        """Physics checks on one EntropyReport requested at (x, statistics)."""
        problems = []
        stat = report.statistics.value
        if report.error is not None:
            problems.append(f"in-band error {report.error!r}")
        if stat != statistics:
            problems.append(f"statistics {stat} != {statistics}")
        if not math.isclose(report.x, x, rel_tol=1e-12):
            problems.append(f"x {report.x!r} != requested {x!r}")
        if not report.gap <= GAP_TOL[stat]:
            problems.append(f"gap {report.gap!r} above {GAP_TOL[stat]}")
        if math.isfinite(report.T_ratio) and not abs(report.T_ratio - 1.0) <= T_RATIO_TOL[stat]:
            problems.append(f"T_ratio {report.T_ratio!r} off 1 by more than {T_RATIO_TOL[stat]}")
        if stat == "fermion" and not report.S_closed <= FERMION_CEILING:
            problems.append(f"fermion entropy {report.S_closed!r} above 2 bits")
        expected = self.oracle(stat, report.x)
        if not abs(report.S_closed - expected) <= ORACLE_TOL:
            problems.append(f"S_closed {report.S_closed!r} vs brute sum {expected!r}")
        return problems


def report_values(report) -> list:
    """A report's fields in CSV_HEADER order, as the values a row should parse to."""
    return [
        report.x,
        report.omega,
        report.mass,
        report.statistics.value,
        report.S_closed,
        report.S_numeric,
        report.gap,
        report.mean_occ,
        report.T_ratio,
        report.error or "",
    ]


def parse_csv_row(row: list[str]) -> list:
    return [row[3] if i == 3 else row[9] if i == 9 else float(row[i]) for i in range(10)]


def row_problems(row: list[str], report) -> list[str]:
    """A rendered CSV row must parse back to the report's values."""
    if len(row) != 10:
        return [f"row has {len(row)} fields"]
    if not same(parse_csv_row(row), report_values(report)):
        return [f"row {row} does not match report {report}"]
    return []


def csv_problems(text: str, header, reports) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != tuple(header):
        return [f"bad header {rows[:1]}"]
    if len(rows) - 1 != len(reports):
        return [f"{len(rows) - 1} rows, expected {len(reports)}"]
    problems = []
    for row, report in zip(rows[1:], reports):
        problems += row_problems(row, report)
    return problems


def json_reports_problems(text: str, reports, json_dict) -> list[str]:
    doc = json.loads(text)
    want = [json_dict(r) for r in reports]
    return [] if same(doc, want) else ["json reports differ from the library's"]


def crossover_problems(text: str, result, mass: float) -> list[str]:
    fields = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    problems = []
    x_star = float(fields.get("x_star", "nan"))
    if not abs(x_star - X_STAR) <= CROSSOVER_TOL:
        problems.append(f"x_star {x_star!r} is not within {CROSSOVER_TOL} of {X_STAR!r}")
    want = {
        "x_star": result.x_star,
        "omega_star": result.x_star / (4.0 * math.pi * mass),
        "residual": result.residual,
        "iterations": float(result.iterations),
    }
    got = {k: float(v) for k, v in fields.items()}
    if not same(got, want):
        problems.append(f"crossover output {got} differs from library {want}")
    return problems


def reduced_doc_problems(text: str, want: dict, statistics: str) -> list[str]:
    doc = json.loads(text)
    problems = [] if same(doc, want) else ["reduced-state document differs from the library's"]
    total = math.fsum(doc.get("diag", []))
    if not abs(total - 1.0) <= 1e-9:
        problems.append(f"diagonal sums to {total!r}")
    t_ratio = doc.get("T_ratio")
    if t_ratio is not None and not abs(t_ratio - 1.0) <= T_RATIO_TOL[statistics]:
        problems.append(f"T_ratio {t_ratio!r} off 1")
    return problems
