"""Squeezed state builders, and their traced diagonals against the closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsar import (
    SqueezingOverflowError,
    SqueezingParams,
    build_boson_state,
    build_fermion_state,
    partial_trace,
)
from collapsar.fock import FERMION_BASIS
from collapsar.states import EPS_TAIL_DEFAULT, N_CAP, _truncation_level


def boson_sq(x):
    return SqueezingParams.from_x("boson", x)


def fermion_sq(x):
    return SqueezingParams.from_x("fermion", x)


def boson_closed_diag(sq, d):
    """(1 - q) q^n for n < d, q = tanh^2 r: the reduced boson diagonal."""
    q = sq.boltzmann_weight ** 2
    return (1.0 - q) * q ** np.arange(d)


def fermion_closed_diag(sq):
    """Products of (cos^2 r, sin^2 r) pairs, tan r = w: the reduced fermion diagonal."""
    w2 = sq.boltzmann_weight ** 2
    c2, s2 = 1.0 / (1.0 + w2), w2 / (1.0 + w2)
    return np.array([c2 * c2, c2 * s2, s2 * c2, s2 * s2])


class TestBosonBuilder:
    def test_amplitudes_follow_geometric_law(self):
        sq = boson_sq(1.0)
        state = build_boson_state(sq)
        w = sq.boltzmann_weight
        q = w * w
        inv_cosh = math.sqrt(1.0 - q)
        for (n_hor, n_out), amp in state.coefficients.items():
            assert n_hor == n_out
            assert amp == pytest.approx(inv_cosh * w**n_hor, rel=1e-13)

    def test_dimension_at_unit_x(self):
        # q = e^-2 with a 1e-12 tail ceiling retains occupations 0..13.
        state = build_boson_state(boson_sq(1.0))
        assert len(state.coefficients) == 14
        assert state.hor_labels() == tuple(range(14))

    def test_tail_bound_value(self):
        sq = boson_sq(1.0)
        state = build_boson_state(sq)
        q = sq.boltzmann_weight ** 2
        assert state.tail_bound == q**14 / (1.0 - q)
        assert state.tail_bound < EPS_TAIL_DEFAULT

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-14])
    def test_truncation_is_minimal(self, x, eps):
        q = boson_sq(x).boltzmann_weight ** 2
        n_max = _truncation_level(q, eps)
        assert q ** (n_max + 1) / (1.0 - q) < eps
        if n_max > 0:
            assert q**n_max / (1.0 - q) >= eps

    def test_frozen_mode_is_vacuum(self):
        state = build_boson_state(boson_sq(800.0))
        assert dict(state.coefficients) == {(0, 0): 1.0}
        assert state.tail_bound == 0.0

    def test_state_at_cap_retains_little_memory(self):
        # x = 1.032e-3 truncates at exactly N_CAP levels.  The state keeps
        # one float64 amplitude per level (128 KiB) and no per-label objects.
        sq = boson_sq(1.032e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            state = build_boson_state(sq)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(state.coefficients) == N_CAP
        assert live <= 512 * 2**10

    def test_state_at_cap_peaks_at_four_level_vectors(self):
        # Building and checking the state at N_CAP levels allocates no
        # per-level Python objects: the peak stays within four float64
        # vectors of N_CAP entries (512 KiB).
        sq = boson_sq(1.032e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_boson_state(sq)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * N_CAP

    def test_infrared_floor(self):
        with pytest.raises(SqueezingOverflowError):
            build_boson_state(boson_sq(1e-7))

    def test_cap_exceeded_below_floor_override(self):
        # x passes the infrared floor but the cut would need ~2e6 levels.
        with pytest.raises(SqueezingOverflowError, match="cap"):
            build_boson_state(boson_sq(1e-5))

    # 1e-320 is subnormal: eps_tail * (1 - q) would underflow to 0.
    @pytest.mark.parametrize("eps", [0.0, -1e-9, 2e-6, math.nan, 1e-320])
    def test_eps_tail_validation(self, eps):
        with pytest.raises(ValueError):
            build_boson_state(boson_sq(1.0), eps_tail=eps)

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError, match="boson"):
            build_boson_state(fermion_sq(1.0))

    @given(x=st.floats(min_value=0.05, max_value=20.0, allow_nan=False))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_completeness_property(self, x):
        state = build_boson_state(boson_sq(x))
        total = state.norm_squared() + state.tail_bound
        assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12 + state.tail_bound
        rho = partial_trace(state)
        assert rho.diag.sum() >= 1.0 - state.tail_bound - 1e-14


class TestFermionBuilder:
    def test_four_terms_with_pair_exchange(self):
        state = build_fermion_state(fermion_sq(1.0))
        keys = set(state.coefficients)
        assert keys == {
            ((0, 0), (0, 0)),
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
            ((1, 1), (1, 1)),
        }
        assert state.tail_bound == 0.0

    def test_amplitude_signs(self):
        c = build_fermion_state(fermion_sq(0.7)).coefficients
        assert c[((0, 0), (0, 0))] > 0.0
        assert c[((0, 1), (1, 0))] < 0.0
        assert c[((1, 0), (0, 1))] > 0.0
        assert c[((1, 1), (1, 1))] < 0.0
        assert c[((0, 1), (1, 0))] == -c[((1, 0), (0, 1))]

    def test_maximal_mixing_amplitudes(self):
        # Squeezing angle pi/4: all four amplitudes reach 1/2 in magnitude.
        sq = SqueezingParams.from_r("fermion", math.pi / 4.0)
        c = build_fermion_state(sq).coefficients
        for key, expected in [
            (((0, 0), (0, 0)), 0.5),
            (((0, 1), (1, 0)), -0.5),
            (((1, 0), (0, 1)), 0.5),
            (((1, 1), (1, 1)), -0.5),
        ]:
            assert c[key] == pytest.approx(expected, abs=2e-16)

    def test_traced_weights_at_unit_x(self):
        # Frozen from direct evaluation of (cos^4, s^2c^2, s^2c^2, sin^4)
        # at tan r = e^-1.
        rho = partial_trace(build_fermion_state(fermion_sq(1.0)))
        np.testing.assert_allclose(
            rho.diag,
            [0.7758034925743758, 0.10499358540350652, 0.10499358540350652, 0.014209336618611044],
            atol=1e-15,
        )

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError, match="fermion"):
            build_fermion_state(boson_sq(1.0))


class TestBosonReducedAnalytic:
    def test_frozen_diagonal_at_q_exp_minus_two(self):
        sq = boson_sq(1.0)
        rho = partial_trace(build_boson_state(sq))
        assert tuple(rho.basis[:4]) == (0, 1, 2, 3)
        frozen = [0.8646647167633873, 0.11701964434787852, 0.015836886712067823, 0.002143289548763847]
        closed = boson_closed_diag(sq, 4)
        np.testing.assert_allclose(closed, frozen, atol=1e-16, rtol=0.0)
        assert math.fsum(closed) == pytest.approx(1.0 - sq.boltzmann_weight**8, abs=1e-15)
        # The traced state squares each amplitude: one ulp of 0.86 away.
        np.testing.assert_allclose(rho.diag[:4], frozen, atol=1.2e-16, rtol=0.0)

    def test_matches_traced_state(self):
        for x in (0.2, 0.5, 1.0, 2.0, 5.0):
            sq = boson_sq(x)
            rho = partial_trace(build_boson_state(sq))
            assert rho.basis == range(rho.dim)
            dev = np.max(np.abs(boson_closed_diag(sq, rho.dim) - rho.diag))
            assert dev < 1e-12


class TestFermionReducedAnalytic:
    def test_matches_traced_state(self):
        for x in (0.05, 0.3, 1.0, 2.0, 5.0, 20.0):
            sq = fermion_sq(x)
            rho = partial_trace(build_fermion_state(sq))
            assert rho.basis == FERMION_BASIS
            dev = np.max(np.abs(fermion_closed_diag(sq) - rho.diag))
            assert dev < 1e-12

    def test_maximal_mixing_is_uniform(self):
        sq = fermion_sq(1e-17)
        np.testing.assert_array_equal(fermion_closed_diag(sq), [0.25, 0.25, 0.25, 0.25])
        # cos^2(pi/4) rounds to 0.5000000000000001, so the traced weights are
        # a few ulp off uniform.
        rho = partial_trace(build_fermion_state(sq))
        np.testing.assert_allclose(rho.diag, [0.25, 0.25, 0.25, 0.25], atol=1.2e-16, rtol=0.0)
