"""Each input rule, once: every entry point that applies it gives one message."""

import math

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
from collapsar.entanglement import temperature_ratio_fit
from collapsar.fock import DensityOperator, PureBipartiteState

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
    "temperature_ratio_fit": ("x", _fit),
    # sweep and the CLI take floats only: sweep converts each omega first.
    "sweep": ("omega", lambda v: sweep(BlackHoleParams(mass=1.0), [v])),
    "cli entropy --x": ("x", None),
}
NOT_POSITIVE = [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan]
NOT_NUMBERS = [True, False, "1.0", None, 1j]
FLOATS_ONLY = ("sweep", "cli entropy --x")


@pytest.mark.parametrize(
    ("entry", "value"),
    [(e, v) for e in FINITE_POSITIVE for v in NOT_POSITIVE]
    + [(e, v) for e in FINITE_POSITIVE if e not in FLOATS_ONLY for v in NOT_NUMBERS],
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


# Each would be a complete state and a valid diagonal as numbers; only its type is wrong.
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
    ("make", "what"),
    [(PureBipartiteState, "amplitudes"), (DensityOperator, "probabilities")],
    ids=["PureBipartiteState", "DensityOperator"],
)
def test_real_number_rule(make, what, values):
    with pytest.raises(ValueError) as info:
        make(B, values)
    assert str(info.value) == f"{what} are not real numbers: dtype {np.array(values).dtype}"


@pytest.mark.parametrize("value", [-1e-3, 1.0, math.nan, True, "x", None])
@pytest.mark.parametrize(
    ("name", "make"),
    [
        ("tail_bound", lambda v: PureBipartiteState(B, [1.0], tail_bound=v)),
        ("max_trace_deficit", lambda v: DensityOperator(B, [1.0], max_trace_deficit=v)),
    ],
    ids=["tail_bound", "max_trace_deficit"],
)
def test_fraction_rule(name, make, value):
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == f"{name} must lie in [0, 1), got {value!r}"
