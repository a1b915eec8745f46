"""Squeezed state builders against their oracles.

A boson state is checked against its 160-bit mpmath ladder
(``test_amplitudes_match_mpmath``) and the two-mode squeeze operator
(``test_amplitudes_derive_from_the_squeeze_operator``), a fermion state
against its pair-creation generator
(``test_amplitudes_derive_from_the_pair_creation_generator``), and the bits
of both builders' amplitudes and weights in ``TestDerivedAmplitudes``.  Each
reduction's diagonal is the state's weights (``tests/test_fock.py``), so
these checks hold the traced states too.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from collapsar import (
    SqueezingParams,
    build_boson_state,
    build_fermion_state,
    partial_trace,
)
from collapsar.entanglement import _reduction
from collapsar.geometry import X_MIN
from collapsar.states import EPS_TAIL_DEFAULT, _boson_cut


def boson_sq(x):
    return SqueezingParams.from_x("boson", x)


def fermion_sq(x):
    return SqueezingParams.from_x("fermion", x)


class TestBosonBuilder:
    # The last four cases put eps_tail on a level's boundary.  In the first
    # two the cut's log estimate lands one level off: it gives 669 levels,
    # and the upward settle loop makes 670; it gives 2,766, and the downward
    # loop makes 2,765.  In the last two q^d < eps_tail (1 - q) and
    # q^d / (1 - q) < eps_tail disagree, so a cut that settles on the first
    # reports a bound that is not below eps_tail, or keeps a level too many.
    @pytest.mark.parametrize(
        ("eps", "x"),
        [
            *itertools.product([1e-6, 1e-10, EPS_TAIL_DEFAULT, 1e-14], [0.1, 0.5, 1.0, 3.0]),
            (8.205018570415589e-08, 0.01483437477257088),
            (1.5749189629321082e-15, 0.006938344977543686),
            (4.713314720842738e-08, 0.17724864543032587),
            (7.036713881810332e-07, 0.05768884799130214),
        ],
    )
    def test_truncation_is_minimal(self, eps, x):
        sq = boson_sq(x)
        q = sq.boltzmann_weight ** 2
        d, tail_bound = _boson_cut(sq, eps)
        assert tail_bound == q**d / (1.0 - q) < eps
        if d > 1:
            assert q ** (d - 1) / (1.0 - q) >= eps
        state = build_boson_state(sq, eps)
        assert (state.weights.size, state.tail_bound) == (d, tail_bound)

    def test_frozen_mode_is_vacuum(self):
        state = build_boson_state(boson_sq(800.0))
        assert dict(state.coefficients) == {(0, 0): 1.0}
        assert state.tail_bound == 0.0

    # fsum reads the weights in place: the whole vector as a list of Python
    # floats would hold 32 B a level beside the state's 8 B.  The total
    # keeps the bits of one fsum over that list.
    def test_exact_norm_holds_less_than_the_state(self, traced_memory):
        state = build_boson_state(boson_sq(1e-4))
        total, _, peak = traced_memory(state.norm_squared)
        assert state.weights.size == 180_742
        assert peak < 4096
        assert total == math.fsum(state.weights.tolist())

    # Build and trace deep in the infrared: the builder fills, squares and
    # sums one float64 vector in place, with no per-label objects, and the
    # operator adopts it.  The reduction peaks at and keeps that one vector.
    def test_reduction_peaks_at_one_level_vector(self, traced_memory):
        sq = boson_sq(1e-5)
        rho, live, peak = traced_memory(lambda: _reduction(sq, EPS_TAIL_DEFAULT))
        assert rho.dim == 1_922_541
        assert peak <= 8.05 * rho.dim
        assert live <= 8 * rho.dim + 4096

    # The coefficient view derives an amplitude only when an item is read,
    # so counting the pairs of a state allocates no level vector.
    def test_counting_coefficients_allocates_nothing(self, traced_memory):
        state = build_boson_state(boson_sq(1e-5))
        d, _, peak = traced_memory(lambda: len(state.coefficients))
        assert d == 1_922_541
        assert peak < 1024

    # Level n carries tanh^n r / cosh r = e^(-x n) sqrt(1 - e^(-2x)).  Built
    # from x, an amplitude's relative error is the rounding of x n, which
    # exp carries over, plus a few roundings: (4 + x n) units of 2^-53.
    # Built as sqrt(1 - q) w^n, the rounding of w grows n-fold, to 7,800
    # units at 16,384 levels.
    # The reference ladder runs in 160-bit fixed point from 40-digit mpmath
    # constants.  Over 180,742 levels it stays within 1e-30 (relative) of
    # the exact amplitudes: the constants' error grows n-fold to 2e-35, and
    # each step truncates by at most 2^-160, against amplitudes above 1e-10.
    @pytest.mark.parametrize("x", [1e-4, 0.02, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0])
    def test_amplitudes_match_mpmath(self, x):
        amps = build_boson_state(boson_sq(x)).amplitudes
        assert amps.size == 180_742 or x > 1e-4
        bits = 160
        with mpmath.workdps(40):
            X = mpmath.mpf(x)
            w = int(mpmath.ldexp(mpmath.exp(-X), bits))
            ref = int(mpmath.ldexp(mpmath.sqrt(-mpmath.expm1(-2 * X)), bits))
        for n, a in enumerate(amps.tolist()):
            err = abs(int(math.ldexp(a, bits)) - ref) / ref
            assert err <= (4 + x * n) * 2.0**-53, (n, a)
            ref = ref * w >> bits

    # The state derived, not written down: the two-mode squeeze operator
    # S(r) = exp[r (a+ b+ - a b)] on the vacuum (Weedbrook et al., RMP 84,
    # 621 (2012)), tanh r = e^(-x).  The generator keeps the |n, n> sector,
    # where a+ b+ raises n to n + 1 with weight n + 1.  Cut at D = 80 levels,
    # G is real antisymmetric, so iG is Hermitian and
    # exp(rG) = V exp(-i r lambda) V^H from eigh(iG).  The derived levels
    # match the builder's in sign and value (within 4e-16 here), and past
    # the builder's cut they carry no more than its tail bound.
    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_amplitudes_derive_from_the_squeeze_operator(self, x):
        D = 80
        n = np.arange(D - 1)
        G = np.zeros((D, D))
        G[n + 1, n] = n + 1
        G[n, n + 1] = -(n + 1)
        lam, V = np.linalg.eigh(1j * G)
        r = math.atanh(math.exp(-x))
        derived = V @ (np.exp(-1j * r * lam) * V[0].conj())
        assert np.abs(derived.imag).max() <= 1e-14
        derived = derived.real
        state = build_boson_state(boson_sq(x))
        d = state.amplitudes.size
        m = min(25, d)
        np.testing.assert_allclose(state.amplitudes[:m], derived[:m], rtol=0, atol=1e-14)
        assert np.sum(derived[d:] ** 2) <= state.tail_bound


class TestFermionBuilder:
    # Squeezing angle pi/4: all four amplitudes reach 1/2 in magnitude.
    # cos^2(pi/4) rounds to 0.5000000000000001, so the traced weights are a
    # few ulp off uniform.
    def test_maximal_mixing(self):
        state = build_fermion_state(SqueezingParams.from_r("fermion", math.pi / 4.0))
        c = state.coefficients
        for key, expected in [
            (((0, 0), (0, 0)), 0.5),
            (((0, 1), (1, 0)), -0.5),
            (((1, 0), (0, 1)), 0.5),
            (((1, 1), (1, 1)), -0.5),
        ]:
            assert c[key] == pytest.approx(expected, abs=2e-16)
        rho = partial_trace(state)
        np.testing.assert_allclose(rho.diag, [0.25, 0.25, 0.25, 0.25], atol=1.2e-16, rtol=0.0)

    # The state derived, not written down.  Four fermion modes in Jordan-
    # Wigner order: horizon particle a_H, horizon antiparticle b_H, outgoing
    # particle a_O, outgoing antiparticle b_O.  Mode j's annihilator is
    # Z (x) ... (x) Z (x) a (x) 1 (x) ... (x) 1, with j parity factors
    # Z = diag(1, -1), so the ket |n1 n2, n3 n4>, the Kronecker product of
    # the single-mode kets, is (a_H+)^n1 (b_H+)^n2 (a_O+)^n3 (b_O+)^n4 |0>.
    # In arXiv:1007.2858's pair state (the one the builder's docstring
    # writes) an outgoing particle goes with a horizon antiparticle and vice
    # versa.  The test encodes its creation with each pair term written
    # particle creator first, squeezing sign +:
    #     G = a_O+ b_H+ + a_H+ b_O+ - h.c.,   tan r = e^(-x).
    # The two terms commute, so exp(rG)|0> = (cos r + sin r a_O+ b_H+)
    # (cos r + sin r a_H+ b_O+)|0>; reordering each product into ket order
    # gives -sc on |01,10>, +sc on |10,01> and -s^2 on |11,11>, the builder's
    # signs.  G is real antisymmetric, so exp(rG) comes from eigh(iG), as in
    # the boson test, and the twelve other kets must stay empty.
    @pytest.mark.parametrize(
        "x", [1e-6, 1e-3, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    )
    def test_amplitudes_derive_from_the_pair_creation_generator(self, x):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        z = np.diag([1.0, -1.0])
        one = np.eye(2)
        a_h, b_h, a_o, b_o = (
            functools.reduce(np.kron, [z] * j + [a] + [one] * (3 - j)) for j in range(4)
        )
        pairs = a_o.T @ b_h.T + a_h.T @ b_o.T
        G = pairs - pairs.T
        lam, V = np.linalg.eigh(1j * G)
        sq = fermion_sq(x)
        derived = V @ (np.exp(-1j * sq.r * lam) * V[0].conj())
        assert np.abs(derived.imag).max() <= 1e-14
        derived = derived.real
        state = build_fermion_state(sq)
        assert state.tail_bound == 0.0
        built = np.zeros(16)
        for ((hp, ha), (op, oa)), amp in state.coefficients.items():
            built[8 * hp + 4 * ha + 2 * op + oa] = amp
        np.testing.assert_allclose(built, derived, rtol=0, atol=1e-14)
        # Signs as well as values, wherever a term stands clear of the tolerance.
        clear = np.abs(derived) > 1e-13
        assert np.array_equal(np.sign(built[clear]), np.sign(derived[clear]))


# A state stores only its weights, the squares of the builder's amplitudes;
# ``amplitudes`` takes their roots and gives them the statistics' signs.
# Wherever a weight is a normal float, sqrt(fl(a a)) == |a| in binary64, so
# the derived amplitudes are the builder's formula bit for bit, and their
# squares are the weights again.  The checks run in blocks, so that at X_MIN
# (20,376,693 levels) the test holds only the state and its amplitudes.
class TestDerivedAmplitudes:
    BLOCK = 1 << 20

    @pytest.mark.parametrize("x", np.geomspace(X_MIN, 170.0, 25).tolist())
    def test_boson_amplitudes_are_the_builders_formula(self, x):
        state = build_boson_state(boson_sq(x))
        amps, weights = state.amplitudes, state.weights
        assert not amps.flags.writeable
        c = math.sqrt(-math.expm1(-2.0 * x))
        for start in range(0, amps.size, self.BLOCK):
            stop = min(start + self.BLOCK, amps.size)
            want = np.arange(start, stop, dtype=np.float64)
            want *= -x
            np.exp(want, out=want)
            want *= c
            got = amps[start:stop]
            assert got.tobytes() == want.tobytes(), (x, start)
            assert (got * got).tobytes() == weights[start:stop].tobytes(), (x, start)

    @pytest.mark.parametrize("x", np.geomspace(X_MIN, 170.0, 41).tolist())
    def test_fermion_amplitudes_are_the_builders_formula(self, x):
        sq = fermion_sq(x)
        state = build_fermion_state(sq)
        c, s = math.cos(sq.r), math.sin(sq.r)
        want = np.array([c * c, -(s * c), s * c, -(s * s)])
        amps = state.amplitudes
        assert amps.tobytes() == want.tobytes()
        assert (amps * amps).tobytes() == state.weights.tobytes()
        assert list(state.coefficients.values()) == want.tolist()

    # The one edge: above x ~ 177, (s s)^2 leaves the normal range, and at
    # x = 200 it underflows to 0.0, the |11,11> weight that both reductions
    # hold.  The |11,11> amplitude then derives as -0.0 in place of -(s s),
    # a value no reduction reads.
    def test_fermion_amplitude_past_the_normal_range_is_a_signed_zero(self):
        sq = fermion_sq(200.0)
        state = build_fermion_state(sq)
        s = math.sin(sq.r)
        assert s * s > 0.0 and (s * s) * (s * s) == 0.0
        assert state.weights.item(3) == 0.0
        assert partial_trace(state).diag.item(3) == 0.0
        for amp in (state.amplitudes.item(3), state.coefficients[((1, 1), (1, 1))]):
            assert amp == 0.0 and math.copysign(1.0, amp) == -1.0

