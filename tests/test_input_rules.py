"""Each input rule, once: every entry point that applies it gives one message."""

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
    fermion_entropy,
    partial_trace,
    sweep,
)
from collapsar.cli import main
from collapsar.errors import SqueezingOverflowError
from collapsar.entanglement import temperature_ratio_fit
from collapsar.fock import DensityOperator, PureBipartiteState
from collapsar.states import EPS_TAIL_MAX, EPS_TAIL_MIN

B = Statistics.BOSON
F = Statistics.FERMION


def _fit(x):
    rho = partial_trace(build_fermion_state(SqueezingParams(F, 1.0)))
    return temperature_ratio_fit(rho, x)


# Entry point -> (the name its message gives, a call that applies the rule).
FINITE_POSITIVE = {
    "BlackHoleParams": ("mass", lambda v: BlackHoleParams(mass=v)),
    "ModeChannel": ("omega", lambda v: ModeChannel(omega=v, statistics=B)),
    "SqueezingParams": ("x", lambda v: SqueezingParams(B, v)),
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
    # sweep and the CLI take floats only: sweep converts each omega first.
    "sweep": ("omega", lambda v: sweep(BlackHoleParams(mass=1.0), [v])),
    "cli entropy --x": ("x", None),
}
NOT_POSITIVE = [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan]
NOT_NUMBERS = [True, False, "1.0", None, 1j]
FLOATS_ONLY = ("sweep", "cli entropy --x")
# Ints that no float holds.  argparse reads them as inf, so the CLI is left out.
BEYOND_FLOAT = {"10**400": 10**400, "-10**400": -(10**400)}


@pytest.mark.parametrize(
    ("entry", "value"),
    [(e, v) for e in FINITE_POSITIVE for v in NOT_POSITIVE]
    + [(e, v) for e in FINITE_POSITIVE if e not in FLOATS_ONLY for v in NOT_NUMBERS]
    + [
        pytest.param(e, v, id=f"{e}-{i}")
        for e in FINITE_POSITIVE
        if e != "cli entropy --x"
        for i, v in BEYOND_FLOAT.items()
    ],
)
def test_finite_positive_rule(capsys, entry, value):
    name, call = FINITE_POSITIVE[entry]
    message = f"{name} must be a finite positive real, got {value!r}"
    if call is None:
        assert main(["entropy", "--mass", "1", f"--x={value!r}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        return
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


# Finite positive values at the edges, and values the exact-float fast path
# hands on to the general rule.  Each entry accepts them: it may refuse
# them later, under another rule, but not under this one.
ACCEPTED = [5e-324, sys.float_info.max, np.float64(0.5), 3]


@pytest.mark.parametrize(
    ("entry", "value"),
    [
        (e, v)
        for e in FINITE_POSITIVE
        for v in ACCEPTED
        if e not in FLOATS_ONLY or type(v) is float
    ],
)
def test_finite_positive_rule_accepts(capsys, entry, value):
    name, call = FINITE_POSITIVE[entry]
    refusal = f"{name} must be a finite positive real"
    if call is None:
        main(["entropy", "--mass", "1", f"--x={value!r}"])
        assert refusal not in capsys.readouterr().err
        return
    try:
        got = call(value)
    except (ValueError, SqueezingOverflowError) as exc:
        assert refusal not in str(exc)
        return
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


# A state's tail bound is the eps_tail its builder was given, so the builder
# applies the rule, before any amplitude is made.  Below the floor
# EPS_TAIL_MIN, subnormal or normal, is refused by either path through it.
@pytest.mark.parametrize(
    "value",
    [
        -1e-3, 1.0, math.nan, True, "x", None,
        math.nextafter(EPS_TAIL_MIN, 0.0), 1e-320, np.float64(1e-17),
    ],
)
@pytest.mark.parametrize(
    ("name", "make"),
    [("eps_tail", lambda v: build_boson_state(SqueezingParams(B, 1.0), v))],
    ids=["tail_bound"],
)
def test_fraction_rule(name, make, value):
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == (
        f"{name} must lie in [{EPS_TAIL_MIN!r}, {EPS_TAIL_MAX!r}], got {value!r}"
    )


# The edges of the admitted range, and values the exact-float fast path
# hands on to the general rules; just below EPS_TAIL_MIN is refused.
@pytest.mark.parametrize(
    "value", [EPS_TAIL_MIN, EPS_TAIL_MAX, np.float64(1e-9), math.nextafter(1e-9, 0.0)]
)
def test_fraction_rule_accepts(value):
    build_boson_state(SqueezingParams(B, 1.0), value)
    sweep(BlackHoleParams(mass=1.0), [0.1], eps_tail=value)
