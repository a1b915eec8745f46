"""A catalogue of mutants of ``src/collapsar`` and the tests that kill them.

Each entry names a file under ``src/collapsar``, an exact piece of its text
and the text to put in its place, and says what that breaks.  ``expect`` is
the tuple of test ids expected to kill the mutant, or a string that says
why none does: "equivalent: ..." for a mutant that changes no behaviour,
"survives: ..." for a known gap.  tests/test_mutants.py checks that each old
text occurs exactly once in its file, so code that moves fails there and
the entry follows it.

Run by hand, outside the suite:

    python tests/mutants.py

For each mutant the runner copies ``src/`` to a fresh temporary directory,
applies the mutant there, and runs one ``pytest -x -q -p no:cacheprovider``
child, one at a time, with only that copy on PYTHONPATH.  An entry that
expects a kill runs its ``expect`` tests; one that expects none runs all of
``tests/``.  Each mutant gives one JSON line: ``killed``, ``survived``,
``absent`` (the old text does not occur once) or ``error`` (pytest could
not run), with the first failing id.  A summary line follows, and the exit
code is 1 if any status differs from what the entry expects.  A test that
starts a fresh interpreter puts this checkout's own ``src/`` first on the
child's path, so it runs unmutated code and kills nothing here.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "collapsar"

CORPUS_BYTES = "tests/test_cli.py::test_corpus_matches_golden_bytes"
MINIMAL_CUT = "tests/test_states.py::TestBosonBuilder::test_truncation_is_minimal"
BOSON_LADDER = "tests/test_states.py::TestBosonBuilder::test_amplitudes_match_mpmath"
FERMION_GENERATOR = (
    "tests/test_states.py::TestFermionBuilder"
    "::test_amplitudes_derive_from_the_pair_creation_generator"
)
ROOT_FROZEN = "tests/test_entanglement.py::TestCrossover::test_root_matches_frozen_value"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    breaks: str
    expect: tuple[str, ...] | str


MUTANTS = [
    Mutant(
        "boson_entropy_log_for_log1p", "entanglement.py",
        "-math.log1p(-q)", "-math.log(1.0 - q)",
        "boson S_closed at small x: log(1 - q) loses the digits of a q near 1",
        # The closed-form oracle's smallest boson x is 1e-3 (ROADMAP item 1).
        (CORPUS_BYTES,),
    ),
    Mutant(
        "fermion_entropy_without_clamp", "entanglement.py",
        "return max(0.0, -2.0 * (_xlog2(c2) + _xlog2(s2)))",
        "return -2.0 * (_xlog2(c2) + _xlog2(s2))",
        "a frozen-out fermion mode's entropy is -0.0, not 0.0",
        ("tests/test_entanglement.py::TestClosedForms"
         "::test_closed_form_finite_nonnegative_never_negative_zero",),
    ),
    Mutant(
        "fermion_s2_from_c2", "entanglement.py",
        "s2 = w2 / denom", "s2 = 1.0 - c2",
        "fermion S_closed: 1 - c2 loses the digits of a small s2",
        (ROOT_FROZEN,),
    ),
    Mutant(
        "cut_one_level_more", "states.py",
        "return d, q**d / (1.0 - q)", "return d + 1, q**d / (1.0 - q)",
        "the boson cut keeps a level more than its bound needs",
        (MINIMAL_CUT,),
    ),
    Mutant(
        "boson_norm_from_exp", "states.py",
        "weights *= math.sqrt(-math.expm1(-2.0 * x))",
        "weights *= math.sqrt(1.0 - math.exp(-2.0 * x))",
        "boson weights lose the digits of 1 - q as q -> 1",
        (BOSON_LADDER,),
    ),
    Mutant(
        "boson_weights_from_w_powers", "states.py",
        "    weights *= -x\n    np.exp(weights, out=weights)\n",
        "    np.power(squeezing.boltzmann_weight, weights, out=weights)\n",
        "boson weights raise the rounded w to the n-th power",
        (BOSON_LADDER,),
    ),
    Mutant(
        "fermion_tail_bound_nonzero", "states.py",
        "return PureBipartiteState._built(_FERMION, weights, 0.0)",
        "return PureBipartiteState._built(_FERMION, weights, 1e-13)",
        "a fermion state, exact, reports a discarded tail",
        (FERMION_GENERATOR,),
    ),
    Mutant(
        "fermion_signs_swapped", "fock.py",
        "_FERMION_SIGNS = (1.0, -1.0, 1.0, -1.0)", "_FERMION_SIGNS = (1.0, 1.0, -1.0, -1.0)",
        "fermion amplitudes carry the wrong relative signs",
        (FERMION_GENERATOR,),
    ),
    Mutant(
        "fermion_cos_scaled", "states.py",
        "c = math.cos(squeezing.r)", "c = math.cos(squeezing.r) * (1.0 + 1e-15)",
        "fermion weights a few ulp off, and no longer complete to the bit",
        ("tests/test_states.py::TestDerivedAmplitudes"
         "::test_fermion_amplitudes_are_the_builders_formula",),
    ),
    Mutant(
        "floor_refuses_x_min", "geometry.py",
        "if x < X_MIN:", "if x <= X_MIN:",
        "the infrared floor refuses X_MIN itself",
        ("tests/test_entanglement.py::TestEntropyReport"
         "::test_boson_report_at_the_infrared_floor",),
    ),
    Mutant(
        "floor_message", "geometry.py",
        'f"x = {x!r} below floor {X_MIN!r}: mode too soft for a faithful "',
        'f"x = {x!r} is below the floor {X_MIN!r}: mode too soft for a faithful "',
        "the floor's message changes",
        ("tests/test_input_rules.py::test_floor_rule",),
    ),
    Mutant(
        "squeezing_for_floor_only_at_inf", "geometry.py",
        "    x = dimensionless_x(params, channel)\n    _require_representable(x)\n",
        "    x = dimensionless_x(params, channel)\n"
        "    if x == math.inf:\n        _require_representable(x)\n",
        "squeezing_for admits x below the floor",
        ("tests/test_input_rules.py::test_floor_rule",),
    ),
    Mutant(
        "overflow_message", "geometry.py",
        'f"x = {x!r} is not a finite positive float"', 'f"x = {x!r} is not finite"',
        "the message for x = inf changes",
        ("tests/test_input_rules.py::test_floor_rule",),
    ),
    Mutant(
        "boson_r_by_log", "geometry.py",
        "r = math.inf if w == 1.0 else math.atanh(w)",
        "r = math.inf if w == 1.0 else 0.5 * math.log((1.0 + w) / (1.0 - w))",
        "the boson squeezing angle loses digits where w is near 1",
        ("tests/test_geometry.py::TestSqueezingParams"
         "::test_weight_and_angle_derive_from_x_alone",),
    ),
    Mutant(
        "report_omega_from_x", "entanglement.py",
        "        float(channel.omega),\n",
        "        sq.x / (4.0 * math.pi * float(params.mass)),\n",
        "a report echoes an omega recomputed from x, not the one asked for",
        # Only the bytes of the criterion-9 sweep show it.
        ("tests/test_cli.py",),
    ),
    Mutant(
        "report_mass_one_ulp_up", "entanglement.py",
        "        float(params.mass),\n        sq.statistics,",
        "        math.nextafter(float(params.mass), math.inf),\n        sq.statistics,",
        "a report echoes a mass one ulp above the one asked for",
        ("tests/test_entanglement.py::TestOneStepRecords::test_report",),
    ),
    Mutant(
        "crossover_far_end", "entanglement.py",
        "x_star, residual = (a, fa) if abs(fa) <= abs(fb) else (b, fb)",
        "x_star, residual = (b, fb) if abs(fa) <= abs(fb) else (a, fa)",
        "crossover returns the bracket end with the larger |S_f - S_b|",
        (CORPUS_BYTES,),
    ),
    Mutant(
        "crossover_one_step_early", "entanglement.py",
        "while (mid := 0.5 * (a + b)) not in (a, b):",
        "while (mid := 0.5 * (a + b)) not in (a, b) and iterations < 53:",
        "crossover stops before the bracket is two adjacent floats",
        (ROOT_FROZEN,),
    ),
    Mutant(
        "fermion_fit_ratio_inverted", "entanglement.py",
        "return -2.0 * x / math.log(p01 / p00)", "return -2.0 * x / math.log(p00 / p01)",
        "the fermion T_ratio comes out negative",
        ("tests/test_entanglement.py::TestTemperatureRatio::test_fermion_fit_reads_p00_and_p01",),
    ),
    Mutant(
        "cut_without_upward_settle", "states.py",
        "while q**d >= target:", "while False:",
        "the cut keeps the log estimate where it lands a level short",
        (MINIMAL_CUT,),
    ),
    Mutant(
        "cut_without_downward_settle", "states.py",
        "while d > 1 and q ** (d - 1) < target:", "while False:",
        "the cut keeps the log estimate where it lands a level long",
        (MINIMAL_CUT,),
    ),
    Mutant(
        "cut_upward_strict", "states.py",
        "while q**d >= target:", "while q**d > target:",
        "the cut at a tail exactly on eps_tail * (1 - q)",
        "survives: it differs only where q**d equals eps_tail * (1 - q) exactly,"
        " which no test reaches",
    ),
    Mutant(
        "control_identity_map", "fock.py",
        "return zip(self._hor, self._out)",
        "return map(lambda pair: pair, zip(self._hor, self._out))",
        "nothing: the control",
        "equivalent: the same label pairs in the same order",
    ),
    Mutant(
        "lambda_floor_doubled", "fock.py",
        "LAMBDA_FLOOR = 1e-30", "LAMBDA_FLOOR = 2e-30",
        "the entropy drops spectrum entries in (1e-30, 2e-30]",
        "survives: the entropy tests read the constant, and such entries move"
        " no printed digit",
    ),
    Mutant(
        "eps_tail_admits_int_and_bool", "states.py",
        "isinstance(eps_tail, float) and", "isinstance(eps_tail, (int, float)) and",
        "the eps_tail type test admits ints and bools",
        "equivalent: no int or bool lies in [EPS_TAIL_MIN, EPS_TAIL_MAX]",
    ),
    Mutant(
        "write_list_without_separator", "cli.py",
        'sep = ",\\n"', 'sep = ""',
        "a JSON sweep or state array of more than one chunk runs its chunks together",
        (
            "tests/test_cli.py::TestSweepCommand::test_json_batches_make_the_whole_document",
            "tests/test_cli.py::TestStateAndSpectrum::test_chunks_make_the_whole_document",
        ),
    ),
]

_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


def run(mutant: Mutant) -> dict:
    """Apply ``mutant`` to a copy of src/, run its tests, and give its one-line record."""
    killable = isinstance(mutant.expect, tuple)
    record = {"name": mutant.name, "expected": "killed" if killable else "survived"}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "collapsar" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return {**record, "status": "absent", "first_failure": None, "seconds": 0.0}
        path.write_text(text.replace(mutant.old, mutant.new))
        subset = mutant.expect if killable else ("tests",)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *subset],
            cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        )
    failure = _FAILURE.search(proc.stdout)
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return {
        **record,
        "status": status,
        "first_failure": failure and failure.group(1),
        "seconds": round(time.perf_counter() - start, 1),
    }


def main() -> int:
    records = []
    for mutant in MUTANTS:
        records.append(run(mutant))
        print(json.dumps(records[-1]), flush=True)
    statuses = [r["status"] for r in records]
    unexpected = [r["name"] for r in records if r["status"] != r["expected"]]
    print(json.dumps({
        "mutants": len(records),
        **{s: statuses.count(s) for s in ("killed", "survived", "absent", "error")},
        "unexpected": unexpected,
    }))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
