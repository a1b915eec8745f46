"""Geometry and squeezing parameter tests.

Reference values in this file come from two independent test-side oracles:
inverting tanh/tan by bisection (no math.atanh/atan involved), and direct
high-precision evaluation frozen into the constants below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsar import (
    BlackHoleParams,
    ModeChannel,
    SqueezingOverflowError,
    SqueezingParams,
    Statistics,
)
from collapsar.geometry import dimensionless_x, squeezing_for


def bisect_inverse(fn, target, lo, hi, steps=200):
    # Invert a strictly increasing fn on [lo, hi] without using its inverse.
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_dimensionless_x_value():
    p = BlackHoleParams(mass=1.0)
    c = ModeChannel(omega=0.25, statistics=Statistics.BOSON)
    assert dimensionless_x(p, c) == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize("mass,omega", [(1.0, 0.1), (0.7, 0.31), (3.0, 0.017), (0.25, 5.0)])
def test_dimensionless_x_power_of_two_rescaling_is_exact(mass, omega):
    p1 = BlackHoleParams(mass=mass)
    p2 = BlackHoleParams(mass=2.0 * mass)
    c1 = ModeChannel(omega=omega, statistics=Statistics.BOSON)
    c2 = ModeChannel(omega=omega / 2.0, statistics=Statistics.BOSON)
    assert dimensionless_x(p1, c1) == dimensionless_x(p2, c2)


@given(
    mass=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    omega=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_dimensionless_x_rescaling_property(mass, omega):
    x1 = dimensionless_x(
        BlackHoleParams(mass=mass), ModeChannel(omega=omega, statistics="boson")
    )
    x2 = dimensionless_x(
        BlackHoleParams(mass=2.0 * mass),
        ModeChannel(omega=omega / 2.0, statistics="boson"),
    )
    assert x1 == x2


class TestSqueezingParams:
    def test_boson_from_x_half_weight(self):
        # w = e^-ln2 = 0.5 exactly; r = artanh(1/2), frozen from bisection.
        sq = SqueezingParams.from_x(Statistics.BOSON, math.log(2.0))
        assert sq.boltzmann_weight == 0.5
        assert sq.r == pytest.approx(0.5493061443340548, rel=1e-15)

    def test_boson_r_at_x_two_matches_bisection(self):
        sq = SqueezingParams.from_x(Statistics.BOSON, 2.0)
        assert sq.r == pytest.approx(0.1361707344559158, rel=1e-15)
        r_bis = bisect_inverse(math.tanh, sq.boltzmann_weight, 0.0, 1.0)
        assert sq.r == pytest.approx(r_bis, abs=5e-16)

    def test_fermion_r_matches_bisection(self):
        sq = SqueezingParams.from_x(Statistics.FERMION, 2.0)
        r_bis = bisect_inverse(math.tan, sq.boltzmann_weight, 0.0, math.pi / 4.0)
        assert sq.r == pytest.approx(r_bis, abs=5e-16)
        assert 0.0 < sq.r < math.pi / 4.0

    @pytest.mark.parametrize("stat", [Statistics.BOSON, Statistics.FERMION])
    def test_weight_round_trip_within_4_ulp(self, stat):
        recover = math.tanh if stat is Statistics.BOSON else math.tan
        for x in np.geomspace(1e-6, 700.0, 400):
            sq = SqueezingParams.from_x(stat, float(x))
            w = sq.boltzmann_weight
            assert abs(recover(sq.r) - w) <= 4.0 * math.ulp(max(w, 1e-300))

    @pytest.mark.parametrize("stat", ["boson", "fermion"])
    def test_r_strictly_decreases_with_x(self, stat):
        xs = np.geomspace(1e-4, 30.0, 50)
        rs = [SqueezingParams.from_x(stat, float(x)).r for x in xs]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_boson_r_exceeds_fermion_r(self):
        # artanh(w) > arctan(w) on (0, 1)
        for x in (0.05, 0.5, 1.0, 3.0):
            rb = SqueezingParams.from_x("boson", x).r
            rf = SqueezingParams.from_x("fermion", x).r
            assert rb > rf

    def test_underflow_edge_frozen_mode(self):
        sq = SqueezingParams.from_x(Statistics.BOSON, 800.0)
        assert sq.boltzmann_weight == 0.0
        assert sq.r == 0.0

    def test_underflow_edge_maximal_squeezing(self):
        sq_b = SqueezingParams.from_x(Statistics.BOSON, 1e-17)
        assert sq_b.boltzmann_weight == 1.0
        assert math.isinf(sq_b.r)
        sq_f = SqueezingParams.from_x(Statistics.FERMION, 1e-17)
        assert sq_f.r == math.atan(1.0)

    def test_from_r_round_trips_through_x(self):
        for stat, r in [("boson", 0.5), ("boson", 3.0), ("fermion", 0.3), ("fermion", 0.7)]:
            sq = SqueezingParams.from_r(stat, r)
            back = SqueezingParams.from_x(stat, sq.x)
            assert back.r == pytest.approx(r, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_from_r_rejects_bad_angles(self, r):
        with pytest.raises(ValueError):
            SqueezingParams.from_r("boson", r)

    def test_from_r_rejects_fermion_angle_beyond_quarter_pi(self):
        with pytest.raises(ValueError):
            SqueezingParams.from_r("fermion", 0.786)

    def test_from_r_rejects_boson_angle_rounding_to_maximal(self):
        # tanh rounds to 1.0 near r ~ 19.1; such angles have no finite x.
        with pytest.raises(ValueError):
            SqueezingParams.from_r("boson", 20.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_from_x_rejects_bad_x(self, x):
        with pytest.raises(ValueError):
            SqueezingParams.from_x("boson", x)

    def test_bool_is_not_a_number(self):
        # True == 1 would otherwise pass every check as x = 1 or r = 1.
        with pytest.raises(ValueError, match="x must be a finite positive real, got True"):
            SqueezingParams("boson", True)
        with pytest.raises(ValueError, match="r must be a finite positive real, got True"):
            SqueezingParams.from_r("fermion", True)

    @pytest.mark.parametrize("stat", [Statistics.BOSON, Statistics.FERMION])
    def test_weight_and_angle_derive_from_x_alone(self, stat):
        inverse = math.atanh if stat is Statistics.BOSON else math.atan
        for x in np.geomspace(1e-6, 745.0, 2000):
            x = float(x)
            sq = SqueezingParams(stat, x)
            w = math.exp(-x)
            assert sq.x == x
            assert sq.boltzmann_weight == w
            assert sq.r == inverse(w)

    def test_to_json_dict(self):
        sq = SqueezingParams.from_x("fermion", 1.0)
        doc = sq.to_json_dict()
        assert doc == {"statistics": "fermion", "r": sq.r, "x": 1.0}

    @given(x=st.floats(min_value=1e-6, max_value=700.0, allow_nan=False))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_construction_invariants_hold_everywhere(self, x):
        for stat in Statistics:
            sq = SqueezingParams.from_x(stat, x)
            assert 0.0 <= sq.boltzmann_weight < 1.0
            assert sq.r > 0.0


class TestValidation:
    @pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan])
    def test_bad_mass(self, mass):
        with pytest.raises(ValueError):
            BlackHoleParams(mass=mass)

    @pytest.mark.parametrize("omega", [0.0, -0.5, math.inf, math.nan])
    def test_bad_omega(self, omega):
        with pytest.raises(ValueError):
            ModeChannel(omega=omega, statistics="boson")

    def test_bool_mass_is_not_a_number(self):
        with pytest.raises(ValueError, match="mass must be a finite positive real, got True"):
            BlackHoleParams(mass=True)

    def test_bool_omega_is_not_a_number(self):
        with pytest.raises(ValueError, match="omega must be a finite positive real, got True"):
            ModeChannel(omega=True, statistics="boson")

    def test_bad_statistics(self):
        with pytest.raises(ValueError):
            ModeChannel(omega=1.0, statistics="anyon")

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

    def test_infrared_floor(self):
        p = BlackHoleParams(mass=1.0)
        c = ModeChannel(omega=1e-9, statistics="boson")
        with pytest.raises(SqueezingOverflowError):
            squeezing_for(p, c)

    @pytest.mark.parametrize("mass, omega", [(1e300, 1e10), (1e-300, 1e-300)])
    def test_unrepresentable_x_overflows(self, mass, omega):
        # x = 4 pi m omega overflows to inf or underflows to 0; the infrared
        # floor catches the second.
        p = BlackHoleParams(mass=mass)
        c = ModeChannel(omega=omega, statistics="boson")
        message = "not a finite positive float" if mass > 1.0 else "below floor"
        with pytest.raises(SqueezingOverflowError, match=message):
            squeezing_for(p, c)
