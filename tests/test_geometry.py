"""Geometry and squeezing parameter tests.

The weight and angle a squeezing record reads from x meet one live mpmath
oracle, a row per statistics and decade of x; the underflow edges are a
table of their own.  The infrared floor
that ``squeezing_for`` applies is an input rule, tested in
``tests/test_input_rules.py``.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsar import (
    BlackHoleParams,
    ModeChannel,
    SqueezingParams,
    Statistics,
)
from collapsar.geometry import X_MIN, dimensionless_x, squeezing_for

B = Statistics.BOSON
F = Statistics.FERMION


def units(got, true):
    """|got - true| in units of 2**-53 |true|, or of the least subnormal if that is larger."""
    return abs(got - true) / max(abs(true) * 2.0**-53, 2.0**-1074)


def test_dimensionless_x_value():
    p = BlackHoleParams(mass=1.0)
    c = ModeChannel(omega=0.25, statistics=Statistics.BOSON)
    assert dimensionless_x(p, c) == pytest.approx(math.pi, rel=1e-15)


@given(
    mass=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    omega=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=100)
def test_dimensionless_x_rescaling_property(mass, omega):
    x1 = dimensionless_x(
        BlackHoleParams(mass=mass), ModeChannel(omega=omega, statistics="boson")
    )
    x2 = dimensionless_x(
        BlackHoleParams(mass=2.0 * mass),
        ModeChannel(omega=omega / 2.0, statistics="boson"),
    )
    assert x1 == x2


# The oracle's grid: 2,000 log-spaced x over [X_MIN, 745], one row per
# statistics and decade, so a failure names where in x it lies.
GRID = np.geomspace(X_MIN, 745.0, 2000)
DECADE = np.floor(np.log10(GRID)).astype(int)
SPANS = [(stat, d, GRID[DECADE == d].tolist()) for stat in (B, F) for d in np.unique(DECADE)]
# At the edges w rounds to 1, where the boson angle is infinite, or to 0,
# the vacuum.
EDGES = {
    (B, 1e-17): (1.0, math.inf),
    (F, 1e-17): (1.0, math.pi / 4),
    (B, 800.0): (0.0, 0.0),
    (F, 800.0): (0.0, 0.0),
}


class TestSqueezingParams:
    # w and r are read from x.  At 50 digits, w lies within one unit of
    # 2**-53 |e^-x| and r within four of atanh or atan of that w; below the
    # normal range a unit is the least subnormal.  Measured over 20,000 x:
    # at most 0.99 (w), 1.83 (boson r) and 1.00 (fermion r).
    @pytest.mark.parametrize(
        ("stat", "xs"), [(stat, xs) for stat, _, xs in SPANS],
        ids=[f"{stat.value}-1e{d}" for stat, d, _ in SPANS],
    )
    def test_weight_and_angle_match_mpmath(self, stat, xs):
        inverse = mpmath.atanh if stat is B else mpmath.atan
        with mpmath.workdps(50):
            for x in xs:
                sq = SqueezingParams(stat, x)
                w = sq.boltzmann_weight
                assert units(w, mpmath.exp(-x)) <= 1.0, x
                assert units(sq.r, inverse(w)) <= 4.0, x

    @pytest.mark.parametrize(
        ("stat", "x"), EDGES, ids=[f"{stat.value}-x={x!r}" for stat, x in EDGES]
    )
    def test_underflow_edges(self, stat, x):
        sq = SqueezingParams(stat, x)
        assert (sq.boltzmann_weight, sq.r) == EDGES[stat, x]

    def test_from_r_round_trips_through_x(self):
        for stat, r in [("boson", 0.5), ("boson", 3.0), ("fermion", 0.3), ("fermion", 0.7)]:
            sq = SqueezingParams.from_r(stat, r)
            back = SqueezingParams.from_x(stat, sq.x)
            assert back.r == pytest.approx(r, rel=1e-12)

    def test_from_r_rejects_fermion_angle_beyond_quarter_pi(self):
        with pytest.raises(ValueError):
            SqueezingParams.from_r("fermion", 0.786)

    def test_from_r_rejects_boson_angle_rounding_to_maximal(self):
        # tanh rounds to 1.0 near r ~ 19.1; such angles have no finite x.
        with pytest.raises(ValueError):
            SqueezingParams.from_r("boson", 20.0)


class TestValidation:
    def test_statistics_coercion_from_string(self):
        c = ModeChannel(omega=1.0, statistics="fermion")
        assert c.statistics is Statistics.FERMION


class TestSqueezingFor:
    def test_matches_from_x(self):
        p = BlackHoleParams(mass=1.0)
        c = ModeChannel(omega=0.1, statistics="boson")
        sq = squeezing_for(p, c)
        assert sq.x == dimensionless_x(p, c)
        assert sq == SqueezingParams.from_x("boson", sq.x)
