"""Squeezed state builders and their closed-form reductions."""

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
from collapsar.states import (
    EPS_TAIL_DEFAULT,
    N_CAP,
    _truncation_level,
    boson_reduced_analytic,
    fermion_reduced_analytic,
)


def boson_sq(x):
    return SqueezingParams.from_x("boson", x)


def fermion_sq(x):
    return SqueezingParams.from_x("fermion", x)


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

    def test_infrared_floor(self):
        with pytest.raises(SqueezingOverflowError):
            build_boson_state(boson_sq(1e-7))

    def test_cap_exceeded_below_floor_override(self):
        # x passes the infrared floor but the cut would need ~2e6 levels.
        with pytest.raises(SqueezingOverflowError, match="cap"):
            build_boson_state(boson_sq(1e-5))

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 2e-6, math.nan])
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
        assert rho.trace() >= 1.0 - state.tail_bound - 1e-14


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
            rho.diagonal(),
            [0.7758034925743758, 0.10499358540350652, 0.10499358540350652, 0.014209336618611044],
            atol=1e-15,
        )

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError, match="fermion"):
            build_fermion_state(boson_sq(1.0))


class TestBosonReducedAnalytic:
    def test_frozen_diagonal_at_q_exp_minus_two(self):
        rho = boson_reduced_analytic(boson_sq(1.0), n_max=3)
        assert rho.basis == (0, 1, 2, 3)
        np.testing.assert_allclose(
            rho.diagonal(),
            [0.8646647167633873, 0.11701964434787852, 0.015836886712067823, 0.002143289548763847],
            atol=1e-16,
            rtol=0.0,
        )
        q = boson_sq(1.0).boltzmann_weight ** 2
        assert rho.trace() == pytest.approx(1.0 - q**4, abs=1e-15)

    def test_matches_traced_state(self):
        for x in (0.2, 0.5, 1.0, 2.0, 5.0):
            sq = boson_sq(x)
            state = build_boson_state(sq)
            rho_num = partial_trace(state)
            rho_ana = boson_reduced_analytic(sq)
            assert rho_ana.basis == rho_num.basis
            dev = np.max(np.abs(rho_ana.diagonal() - rho_num.diagonal()))
            assert dev < 1e-12

    def test_default_truncation_matches_builder(self):
        for x in (0.3, 1.0, 4.0):
            assert boson_reduced_analytic(boson_sq(x)).dim == len(
                build_boson_state(boson_sq(x)).coefficients
            )

    def test_trace_never_exceeds_one(self):
        for x in np.geomspace(0.05, 30.0, 40):
            rho = boson_reduced_analytic(boson_sq(float(x)))
            assert math.fsum(rho.diagonal()) <= 1.0

    @pytest.mark.parametrize("n_max", [-1, 2.5, True])
    def test_bad_n_max(self, n_max):
        with pytest.raises(ValueError):
            boson_reduced_analytic(boson_sq(1.0), n_max=n_max)

    def test_cap_applies_to_explicit_n_max(self):
        with pytest.raises(SqueezingOverflowError):
            boson_reduced_analytic(boson_sq(1.0), n_max=N_CAP)

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError):
            boson_reduced_analytic(fermion_sq(1.0))


class TestFermionReducedAnalytic:
    def test_matches_traced_state(self):
        for x in (0.05, 0.3, 1.0, 2.0, 5.0, 20.0):
            sq = fermion_sq(x)
            rho_num = partial_trace(build_fermion_state(sq))
            rho_ana = fermion_reduced_analytic(sq)
            assert rho_ana.basis == rho_num.basis
            dev = np.max(np.abs(rho_ana.diagonal() - rho_num.diagonal()))
            assert dev < 1e-12

    def test_trace_never_exceeds_one(self):
        for x in np.geomspace(1e-6, 30.0, 60):
            rho = fermion_reduced_analytic(fermion_sq(float(x)))
            assert math.fsum(rho.diagonal()) <= 1.0

    def test_maximal_mixing_is_uniform(self):
        rho = fermion_reduced_analytic(SqueezingParams.from_x("fermion", 1e-17))
        np.testing.assert_array_equal(rho.diagonal(), [0.25, 0.25, 0.25, 0.25])

    def test_statistics_mismatch(self):
        with pytest.raises(ValueError):
            fermion_reduced_analytic(boson_sq(1.0))
