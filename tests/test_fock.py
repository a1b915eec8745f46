"""Fock layer tests: state validation, partial trace, entropy, occupation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collapsar import Statistics, partial_trace, von_neumann_entropy
from collapsar.fock import (
    FERMION_BASIS,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
)

B = Statistics.BOSON
F = Statistics.FERMION
INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = (INV_SQRT2, INV_SQRT2)
FERMION_AMPS = (0.5, -0.5, 0.5, -0.5)


def bell_pair():
    return PureBipartiteState(B, BELL)


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        # The fermion pairing is crossed, but each side lists its labels sorted.
        state = PureBipartiteState(F, FERMION_AMPS)
        assert state.hor_labels() == state.out_labels() == FERMION_BASIS
        assert bell_pair().hor_labels() == bell_pair().out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        state = bell_pair()
        with pytest.raises(TypeError):
            state.coefficients[(0, 0)] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_source_buffer_mutation_does_not_leak(self):
        amps = np.array(BELL)
        state = PureBipartiteState(B, amps)
        amps[0] = 99.0
        assert state.coefficients[(0, 0)] == INV_SQRT2

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        PureBipartiteState(B, [a], tail_bound=1e-8)

    def test_rejects_short_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(B, [0.9])

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            PureBipartiteState(B, [math.sqrt(1.0 + 1e-9)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no amplitudes"):
            PureBipartiteState(B, [])

    @pytest.mark.parametrize("amps", [[1.0], [0.6, 0.8], [0.5] * 4 + [0.0]])
    def test_rejects_fermion_length_not_four(self, amps):
        with pytest.raises(ValueError, match="4 amplitudes"):
            PureBipartiteState(F, amps)

    @pytest.mark.parametrize("statistics", ["photon", None, True])
    def test_rejects_unknown_statistics(self, statistics):
        with pytest.raises(ValueError):
            PureBipartiteState(statistics, [1.0])

    # Labels are no longer inputs; a caller hands one in only as a key of the
    # coefficient view, which holds none of these.
    @pytest.mark.parametrize(
        "coeffs",
        [
            ((0,), ((0, 1),)),
            ((-1,), (0,)),
            (((0, 2),), ((0, 0),)),
            (((0, 0, 0),), (0,)),
            (((0,),), (0,)),
            ((0.5,), (0,)),
            ((True,), (0,)),
            ((0,), (True,)),
            (((0, True),), ((0, 0),)),
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        (h,), (o,) = coeffs
        for state in (PureBipartiteState(B, [1.0]), PureBipartiteState(F, FERMION_AMPS)):
            assert (h, o) not in state.coefficients
            with pytest.raises(KeyError):
                state.coefficients[(h, o)]

    @pytest.mark.parametrize("amp", [math.nan, math.inf, "0.5", None])
    def test_rejects_bad_amplitudes(self, amp):
        with pytest.raises(ValueError):
            PureBipartiteState(B, [amp])

    def test_rejects_complex_amplitudes(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, [INV_SQRT2, 1j * INV_SQRT2])

    def test_rejects_complex_non_finite_amplitude(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, [complex(1.0, math.nan)])

    def test_rejects_bool_amplitudes(self):
        with pytest.raises(ValueError, match="not real numbers"):
            PureBipartiteState(B, np.array([True]))

    def test_rejects_2d_amplitudes(self):
        with pytest.raises(ValueError, match="1-D"):
            PureBipartiteState(B, [[1.0]])

    @pytest.mark.parametrize("tail", [-1e-3, 1.0, math.nan])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(ValueError):
            PureBipartiteState(B, [1.0], tail_bound=tail)

    def test_integer_amplitudes_become_float64(self):
        state = PureBipartiteState(B, [0, 1])
        assert state.amplitudes.dtype == np.float64

    def test_coefficients_view(self):
        view = PureBipartiteState(F, FERMION_AMPS).coefficients
        assert len(view) == 4
        assert list(view) == [
            ((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1)),
        ]
        assert view[((0, 1), (1, 0))] == -0.5
        assert ((0, 1), (0, 1)) not in view
        assert ((2, 0), (0, 0)) not in view
        assert 0 not in view


# The fermion pairing, written out here rather than imported: each horizon
# pair label goes with its slot-exchanged partner.
PAIR_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


def exchanged(label):
    n_particle, n_antiparticle = label
    return (n_antiparticle, n_particle)


def dict_reduction(pairing, keep):
    """Sorted labels and weights of one side, reduced through a dict keyed by label."""
    pos = 1 if keep == "out" else 0
    weights = {}
    for key, amp in pairing.items():
        weights[key[pos]] = amp * amp
    labels = tuple(sorted(weights))
    return labels, np.array([weights[lab] for lab in labels], dtype=np.float64)


@st.composite
def real_states(draw):
    """A statistics and a normalised real amplitude vector of a length it allows."""
    statistics = draw(st.sampled_from([B, F]))
    d = 4 if statistics is F else draw(st.integers(1, 64))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=d, max_size=d)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return statistics, amps / norm


class TestPartialTrace:
    def test_bell_pair_both_sides(self):
        state = bell_pair()
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep=keep)
            assert tuple(rho.basis) == (0, 1)
            np.testing.assert_allclose(rho.diag, [0.5, 0.5], atol=1e-15)

    def test_crossed_pairing_keeps_each_weight_on_its_label(self):
        # |01>_hor|10>_out and |10>_hor|01>_out: the out side's (0, 1) carries
        # the weight of the horizon's (1, 0).
        amps = np.array([0.1, 0.3, 0.5, 0.0])
        amps[3] = math.sqrt(1.0 - (amps * amps).sum())
        state = PureBipartiteState(F, amps)
        w = amps * amps
        np.testing.assert_array_equal(partial_trace(state, "hor").diag, w)
        np.testing.assert_array_equal(partial_trace(state, "out").diag, w[[0, 2, 1, 3]])

    def test_pair_labels(self):
        state = PureBipartiteState(F, [INV_SQRT2, 0.0, 0.0, -INV_SQRT2])
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            assert rho.basis == FERMION_BASIS
            np.testing.assert_allclose(rho.diag, [0.5, 0.0, 0.0, 0.5], atol=1e-15)

    def test_schmidt_symmetry_generic(self):
        amps = np.array([0.5, -0.4, 0.3, 0.2, 0.1])
        amps = amps / np.linalg.norm(amps)
        state = PureBipartiteState(B, amps)
        s_out = von_neumann_entropy(partial_trace(state, "out"), method="eigen")
        s_hor = von_neumann_entropy(partial_trace(state, "hor"), method="eigen")
        assert s_out == pytest.approx(s_hor, abs=1e-12)

    @given(drawn=real_states())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_dict_reduction(self, drawn):
        statistics, amps = drawn
        state = PureBipartiteState(statistics, amps)
        if statistics is F:
            pairs = [(h, exchanged(h)) for h in PAIR_LABELS]
        else:
            pairs = [(n, n) for n in range(amps.size)]
        pairing = dict(state.coefficients)
        assert pairing == dict(zip(pairs, amps.tolist()))
        for keep in ("out", "hor"):
            rho = partial_trace(state, keep)
            labels, weights = dict_reduction(pairing, keep)
            assert tuple(rho.basis) == labels
            np.testing.assert_array_equal(rho.diag, weights)

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep="in")


class TestDensityOperator:
    def test_matrix_read_only(self):
        rho = partial_trace(bell_pair())
        with pytest.raises(ValueError):
            rho.diag[0] = 0.0

    def test_basis_follows_statistics(self):
        assert DensityOperator(B, [0.2, 0.5, 0.3]).basis == range(3)
        assert DensityOperator(F, [0.4, 0.3, 0.2, 0.1]).basis == FERMION_BASIS

    def test_eigenvalues_are_sorted_diagonal(self):
        rho = DensityOperator(B, diag=[0.2, 0.5, 0.3])
        assert rho.diag.dtype == np.float64 and rho.diag.shape == (3,)
        np.testing.assert_array_equal(rho.eigenvalues(), [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(rho.diag, [0.2, 0.5, 0.3])

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            DensityOperator(B, diag=[1.1, -0.1])

    def test_rejects_trace_deficit_beyond_allowance(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(B, diag=[0.5, 0.4])
        DensityOperator(B, diag=[0.5, 0.4], max_trace_deficit=0.2)

    def test_rejects_trace_excess(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(B, diag=[0.6, 0.5])

    def test_ulp_scale_trace_excess_tolerated(self):
        rho = DensityOperator(F, diag=[0.25000000000000006] * 4)
        assert rho.diag.sum() > 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="4 probabilities"):
            DensityOperator(F, diag=np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(B, diag=np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="no probabilities"):
            DensityOperator(B, diag=[])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DensityOperator(B, diag=[math.nan, 0.5])

    def test_json_round_trip(self):
        rho = DensityOperator(F, diag=[0.4, 0.3, 0.2, 0.1])
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0
        assert DensityOperator(B, diag=[0.5, 0.5]).to_json_dict()["basis"] == [0, 1]


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = DensityOperator(B, diag=[1.0, 0.0])
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = DensityOperator(B, diag=[0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_exact_zeros_are_skipped(self):
        rho = DensityOperator(B, diag=[0.5, 0.5, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = DensityOperator(B, diag=[1.0])
        assert von_neumann_entropy(rho) == 0.0


class TestPurityAndOccupation:
    def test_mean_occupation_number_labels(self):
        rho = DensityOperator(B, diag=[0.5, 0.3, 0.2])
        assert mean_occupation(rho) == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == mean_occupation(rho)

    def test_mean_occupation_pair_labels(self):
        rho = DensityOperator(F, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho) == pytest.approx(0.3, abs=1e-15)

    def test_mean_occupation_bad_sector(self):
        for which in ("holes", "total", "antiparticle"):
            with pytest.raises(ValueError, match="sector"):
                mean_occupation(partial_trace(bell_pair()), which)
