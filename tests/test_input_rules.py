"""Each input rule, tested once: one table of entry points × values per rule.

The rules are the finite-positive rule, the statistics value rule, the
statistics match rule, the ``eps_tail`` rule and the infrared floor.  Each
table covers every entry point that applies its rule, library and CLI, and
each row asserts the exact message; the floor's command lines, which exit 3
or keep an in-band row, are corpus rows (``tests/data/cli_corpus.json``).
A CLI row is a command line with a slot for the value; it also asserts
exit 2, an empty stdout and exactly ``error: <message>`` on stderr.  An
``_accepts`` twin runs values at a rule's edges, which no entry point
refuses under that rule.  No other test file asserts these messages.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from collapsar import (
    BlackHoleParams,
    ModeChannel,
    SqueezingParams,
    Statistics,
    boson_entropy,
    build_boson_state,
    build_fermion_state,
    entropy_report,
    fermion_entropy,
    partial_trace,
    sweep,
)
from collapsar.cli import main
from collapsar.errors import SqueezingOverflowError
from collapsar.entanglement import temperature_ratio_fit
from collapsar.fock import DensityOperator, PureBipartiteState
from collapsar.geometry import FOUR_PI, X_MIN, squeezing_for
from collapsar.states import EPS_TAIL_MAX, EPS_TAIL_MIN

B = Statistics.BOSON
F = Statistics.FERMION
UNIT_MASS = BlackHoleParams(mass=1.0)


def cli(entry):
    """A CLI entry's call is its command line, with ``{}`` where the value goes."""
    return entry.startswith("cli ")


def rows(table, values):
    """Each entry of ``table`` with each value; argparse gives a CLI entry floats only."""
    return [(e, v) for e in table for v in values if type(v) is float or not cli(e)]


def run(call, value):
    """``call(value)``, or main's exit code for a command line."""
    return main(call.format(repr(value)).split()) if isinstance(call, str) else call(value)


def assert_refused(capsys, call, value, message):
    """``call`` refuses ``value`` with ``message``: raised, or exit 2 and on stderr alone."""
    if isinstance(call, str):
        assert run(call, value) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        return
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


def _fit(x):
    rho = partial_trace(build_fermion_state(SqueezingParams(F, 1.0)))
    return temperature_ratio_fit(rho, x)


# Entry point -> (the name its message gives, a call or command line that
# applies the rule).
FINITE_POSITIVE = {
    "BlackHoleParams": ("mass", lambda v: BlackHoleParams(mass=v)),
    "ModeChannel": ("omega", lambda v: ModeChannel(omega=v, statistics=B)),
    "SqueezingParams": ("x", lambda v: SqueezingParams(B, v)),
    "SqueezingParams.from_x": ("x", lambda v: SqueezingParams.from_x(B, v)),
    "SqueezingParams.from_r": ("r", lambda v: SqueezingParams.from_r(F, v)),
    # replace goes through each record's generated __init__ and __post_init__.
    "replace BlackHoleParams": (
        "mass", lambda v: dataclasses.replace(BlackHoleParams(mass=1.0), mass=v)
    ),
    "replace ModeChannel": (
        "omega", lambda v: dataclasses.replace(ModeChannel(1.0, B), omega=v, statistics="fermion")
    ),
    "replace SqueezingParams": (
        "x", lambda v: dataclasses.replace(SqueezingParams(B, 1.0), x=v, statistics="fermion")
    ),
    "temperature_ratio_fit": ("x", _fit),
    # sweep checks each omega as given, before it converts any.  A list is
    # a whole grid: its first omega is the one refused.
    "sweep": ("omega", lambda v: sweep(UNIT_MASS, v if isinstance(v, list) else [v])),
    "cli entropy --mass": ("mass", "entropy --mass={} --x 1"),
    "cli entropy --x": ("x", "entropy --mass 1 --x={}"),
}
NOT_POSITIVE = [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan]
NOT_NUMBERS = [True, False, "1.0", None, 1j, np.int64(2), np.float32(0.5)]
# Ints that no float holds.  argparse reads them as inf, so the CLI is left out.
BEYOND_FLOAT = {"10**400": 10**400, "-10**400": -(10**400)}


@pytest.mark.parametrize(
    ("entry", "value"),
    rows(FINITE_POSITIVE, NOT_POSITIVE + NOT_NUMBERS)
    + [
        pytest.param(e, v, id=f"{e}-{i}")
        for e in FINITE_POSITIVE if not cli(e) for i, v in BEYOND_FLOAT.items()
    ]
    + [pytest.param("sweep", ["0.1", True, np.int64(2)], id="sweep-mixed-grid")],
    # A numpy scalar that is not a float shows its repr; pytest would number it.
    ids=lambda v: repr(v) if isinstance(v, (np.int64, np.float32)) else None,
)
def test_finite_positive_rule(capsys, entry, value):
    name, call = FINITE_POSITIVE[entry]
    shown = value[0] if isinstance(value, list) else value
    assert_refused(capsys, call, value, f"{name} must be a finite positive real, got {shown!r}")


# Finite positive values at the edges, and values the exact-float fast path
# hands on to the general rule.  Each entry accepts them: it may refuse
# them later, under another rule, but not under this one.
ACCEPTED = [5e-324, sys.float_info.max, np.float64(0.5), 3]


@pytest.mark.parametrize(("entry", "value"), rows(FINITE_POSITIVE, ACCEPTED))
def test_finite_positive_rule_accepts(capsys, entry, value):
    name, call = FINITE_POSITIVE[entry]
    refusal = f"{name} must be a finite positive real"
    try:
        got = run(call, value)
    except (ValueError, SqueezingOverflowError) as exc:
        assert refusal not in str(exc)
        return
    assert refusal not in capsys.readouterr().err
    # A record stores the checked input as given, but x as a float, and
    # holds a statistics given as a string as the enum.  from_r stores no r
    # as given: it derives x from r.  A copy through replace is equal and
    # hashes alike, and no field can be set.
    if dataclasses.is_dataclass(got) and name != "r":
        stored = getattr(got, name)
        assert stored == value and type(stored) is (float if name == "x" else type(value))
        assert type(getattr(got, "statistics", F)) is Statistics
        copy = dataclasses.replace(got)
        assert copy == got and hash(copy) == hash(got)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, value)


# Entry point -> a call that reads a statistics value.
STATISTICS_VALUE = {
    "ModeChannel": lambda v: ModeChannel(1.0, v),
    "SqueezingParams": lambda v: SqueezingParams(v, 1.0),
    "SqueezingParams.from_x": lambda v: SqueezingParams.from_x(v, 1.0),
    "SqueezingParams.from_r": lambda v: SqueezingParams.from_r(v, 0.5),
    "sweep": lambda v: sweep(UNIT_MASS, [0.1], statistics=v),
}


@pytest.mark.parametrize("value", ["anyon", "both", None, True])
@pytest.mark.parametrize("entry", list(STATISTICS_VALUE))
def test_statistics_value_rule(capsys, entry, value):
    assert_refused(
        capsys, STATISTICS_VALUE[entry], value, f"{value!r} is not a valid Statistics"
    )


@pytest.mark.parametrize(
    ("call", "given"),
    [
        (build_boson_state, F),
        (boson_entropy, F),
        (build_fermion_state, B),
        (fermion_entropy, B),
    ],
    ids=["build_boson_state", "boson_entropy", "build_fermion_state", "fermion_entropy"],
)
def test_statistics_rule(call, given):
    expected = B if given is F else F
    with pytest.raises(ValueError) as info:
        call(SqueezingParams(given, 1.0))
    assert str(info.value) == f"expected {expected.value} squeezing, got {given.value}"


# Each would be a complete state and a valid diagonal as numbers; only its type
# is wrong.  Neither class takes a caller's values, so none of them gets in.
@pytest.mark.parametrize(
    "values",
    [
        ["1", "0"],
        [True, False],
        np.array([1.0, 0.0], dtype=object),
        np.array([1.0, 0.0j]),
    ],
    ids=["strings", "bools", "object", "complex"],
)
@pytest.mark.parametrize(
    "make", [PureBipartiteState, DensityOperator], ids=["PureBipartiteState", "DensityOperator"]
)
def test_real_number_rule(make, values):
    with pytest.raises(TypeError):
        make(B, values)


# Omegas whose x lies below the infrared floor at unit mass: a sweep over
# them makes only error rows, so it refuses eps_tail before any point.
BELOW_FLOOR = [1e-9, 1e-8]
# Entry point -> a call or command line that applies the eps_tail rule.  A
# fermion mode needs no truncation, but refuses what a boson one refuses.
EPS_TAIL = {
    "build_boson_state": lambda v: build_boson_state(SqueezingParams(B, 1.0), v),
    **{
        f"entropy_report {st.value}": lambda v, st=st: entropy_report(
            UNIT_MASS, ModeChannel(1.0 / FOUR_PI, st), eps_tail=v
        )
        for st in (B, F)
    },
    **{
        f"sweep {st.value}": lambda v, st=st: sweep(
            UNIT_MASS, BELOW_FLOOR, statistics=st, eps_tail=v
        )
        for st in (B, F)
    },
    # Command lines whose modes are represented, so each accepts the edges.
    "cli entropy boson": "entropy --mass 1 --x 1e-5 --stats boson --eps-tail={}",
    "cli entropy fermion": "entropy --mass 1 --x 1 --stats fermion --eps-tail={}",
    "cli sweep": "sweep --mass 1 --omega-min 0.1 --omega-max 1 --points 3 --eps-tail={}",
    "cli sweep fermion": (
        "sweep --mass 1 --omega-min 0.01 --omega-max 0.1 --points 2 --stats fermion "
        "--eps-tail={}"
    ),
    "cli state fermion": "state --mass 1 --x 1 --stats fermion --eps-tail={}",
    "cli spectrum fermion": "spectrum --mass 1 --x 1 --stats fermion --eps-tail={}",
}
REPRESENTED = [e for e in EPS_TAIL if cli(e)]
# eps_tail is checked before the mode, even one below the floor or at x = inf.
EPS_TAIL.update(
    (f"cli {command} {mode}", f"{command} {mode} --stats fermion --eps-tail={{}}")
    for command in ("entropy", "state", "spectrum")
    for mode in ("--mass 1 --x 1e-7", "--mass 1e300 --omega 1e10")
)
# Below the floor EPS_TAIL_MIN, subnormal or normal, is refused by either
# path through the rule; so is a bool, though no int lies in the range.
NOT_EPS_TAIL = [
    -1e-3, 0.0, 1.0, 5.0, 2e-6, 0.75, math.nan, True, False, "x", "0", None,
    math.nextafter(EPS_TAIL_MIN, 0.0), 1e-320, np.float64(1e-17),
]


@pytest.mark.parametrize(("entry", "value"), rows(EPS_TAIL, NOT_EPS_TAIL))
def test_fraction_rule(capsys, entry, value):
    assert_refused(
        capsys, EPS_TAIL[entry], value,
        f"eps_tail must lie in [{EPS_TAIL_MIN!r}, {EPS_TAIL_MAX!r}], got {value!r}",
    )


def test_fraction_rule_help_names_the_range(capsys):
    # The --eps-tail help names the range the refusal names; argparse wraps it.
    with pytest.raises(SystemExit):
        main(["entropy", "--help"])
    assert f"from {EPS_TAIL_MIN!r} to {EPS_TAIL_MAX!r}" in " ".join(capsys.readouterr().out.split())


def test_sweep_below_the_floor_makes_only_error_rows():
    # So the sweep rows of test_fraction_rule refuse eps_tail before any point.
    for statistics in (B, F):
        reports = sweep(UNIT_MASS, BELOW_FLOOR, statistics=statistics)
        assert len(reports) == 2 and all(r.error for r in reports)


# The edges of the admitted range, a float subclass and a float inside it.
# The represented command lines take the edges, and exit 0.
@pytest.mark.parametrize(
    ("entry", "value"),
    rows(
        [e for e in EPS_TAIL if not cli(e)],
        (EPS_TAIL_MIN, EPS_TAIL_MAX, np.float64(1e-9), math.nextafter(1e-9, 0.0)),
    )
    + rows(REPRESENTED, (EPS_TAIL_MIN, EPS_TAIL_MAX)),
)
def test_fraction_rule_accepts(capsys, entry, value):
    got = run(EPS_TAIL[entry], value)
    if cli(entry):
        assert got == 0 and capsys.readouterr().err == ""


# The infrared floor: x below X_MIN, 0 included, or x = inf.  At the first
# two modes' mass 4 pi m is exactly 1, so x is omega bit for bit.
UNIT_X_MASS = 1.0 / FOUR_PI
BELOW_X_MIN = math.nextafter(X_MIN, 0.0)


def floor_message(x):
    return (
        f"x = {x!r} below floor {X_MIN!r}: mode too soft for a faithful truncated representation"
    )


# Mode -> (mass, omega, the message).
FLOOR_MODES = {
    "x=1e-7": (UNIT_X_MASS, 1e-7, floor_message(1e-7)),
    "below-X_MIN": (UNIT_X_MASS, BELOW_X_MIN, floor_message(BELOW_X_MIN)),
    "underflow": (1e-300, 1e-300, floor_message(0.0)),
    "overflow": (1e300, 1e10, "x = inf is not a finite positive float"),
}


@pytest.mark.parametrize("statistics", [B, F])
@pytest.mark.parametrize("mode", list(FLOOR_MODES))
@pytest.mark.parametrize("entry", ["squeezing_for", "entropy_report", "sweep"])
def test_floor_rule(entry, mode, statistics):
    mass, omega, message = FLOOR_MODES[mode]
    params, channel = BlackHoleParams(mass=mass), ModeChannel(omega, statistics)
    if entry == "sweep":
        # A sweep keeps the mode as a row, with the message in band.
        (row,) = sweep(params, [omega], statistics=statistics)
        assert row.error == message
        return
    call = squeezing_for if entry == "squeezing_for" else entropy_report
    with pytest.raises(SqueezingOverflowError) as info:
        call(params, channel)
    assert str(info.value) == message


@pytest.mark.parametrize("x", [1e-7, BELOW_X_MIN])
def test_floor_rule_in_the_boson_builder(x):
    with pytest.raises(SqueezingOverflowError) as info:
        build_boson_state(SqueezingParams(B, x))
    assert str(info.value) == floor_message(x)
