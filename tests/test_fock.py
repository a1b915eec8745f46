"""Fock layer tests: completeness, partial trace, entropy, occupation.

A pair state comes only from a builder and an operator only from
``partial_trace``.  Tests that need a chosen amplitude vector or diagonal go
through the same private entry points, ``PureBipartiteState._built`` (which
takes the squares of the chosen amplitudes, as a builder hands over its
weights) and ``DensityOperator._reduced``; a chosen diagonal is
non-increasing, and a chosen fermion vector weighs its exchanged labels
(0, 1) and (1, 0) alike, as every builder's does.

Each fact of the numeric route has one home test: each side of a pair
state is the dict reduction of its ``coefficients``, the same bytes on both
sides (``assert_sides_are_the_dict_reduction``, over drawn states in
``TestPartialTrace::test_each_side_is_the_dict_reduction`` and fixed ones,
each its own case, beside it); a
builder's weights are adopted uncopied, summed once, and are the read-only
float64 diagonal of both sides (``TestPartialTrace::
test_one_array_from_builder_to_both_reductions``); the entropy and the fit
keep their oracles' bits (``tests/test_entanglement.py::TestSpectrumPath``);
and each memory bound has one gate, in ``tests/test_states.py`` for a state
and its reduction and in ``tests/test_entanglement.py`` for a report.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collapsar import (
    SqueezingParams,
    Statistics,
    build_boson_state,
    build_fermion_state,
    partial_trace,
    von_neumann_entropy,
)
from collapsar.fock import (
    EPS_NORM,
    FERMION_BASIS,
    DensityOperator,
    PureBipartiteState,
    mean_occupation,
)
from collapsar.geometry import X_MIN
from collapsar.states import EPS_TAIL_MAX, EPS_TAIL_MIN

B = Statistics.BOSON
F = Statistics.FERMION
INV_SQRT2 = 1.0 / math.sqrt(2.0)
BELL = (INV_SQRT2, INV_SQRT2)
FERMION_AMPS = (0.5, -0.5, 0.5, -0.5)


def built(statistics, amps, tail_bound=0.0):
    """A pair state weighted by the squares of ``amps``, taken in as a builder's weights."""
    amps = np.array(amps, dtype=np.float64)
    return PureBipartiteState._built(statistics, amps * amps, tail_bound)


def reduced(statistics, diag):
    """An operator over a chosen non-increasing diagonal, adopted as partial_trace does."""
    diag = np.array(diag, dtype=np.float64)
    assert (diag[1:] <= diag[:-1]).all()
    diag.setflags(write=False)
    return DensityOperator._reduced(statistics, diag)


def bell_pair():
    return built(B, BELL)


def build_fermion(x):
    return build_fermion_state(SqueezingParams.from_x(F, x))


# Both classes are made only by the builders and partial_trace: a caller's
# numbers have no way in.
@pytest.mark.parametrize(
    "make",
    [
        lambda: PureBipartiteState(B, [1.0]),
        lambda: PureBipartiteState(F, FERMION_AMPS, 0.0),
        lambda: DensityOperator(B, [1.0]),
        lambda: PureBipartiteState(),
        lambda: DensityOperator(),
    ],
    ids=["boson-state", "fermion-state", "operator", "empty-state", "empty-operator"],
)
def test_direct_construction_is_refused(make):
    # The message names the one way in, with or without arguments.
    with pytest.raises(TypeError, match="use (build_boson_state|partial_trace)"):
        make()


class TestPureBipartiteState:
    def test_norm_squared(self):
        assert bell_pair().norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_labels_sorted(self):
        # The fermion pairing is crossed, but each side lists its labels sorted.
        state = built(F, FERMION_AMPS)
        assert state.hor_labels() == state.out_labels() == FERMION_BASIS
        assert bell_pair().hor_labels() == bell_pair().out_labels() == (0, 1)

    def test_coefficients_frozen(self):
        state = bell_pair()
        with pytest.raises(TypeError):
            state.coefficients[(0, 0)] = 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_tail_bound_widens_completeness_window(self):
        # Retained norm 1 - 5e-9 with a tail bound of 1e-8 is acceptable.
        a = math.sqrt(1.0 - 5e-9)
        built(B, [a], tail_bound=1e-8)

    # The message gives the exact sum.
    def test_rejects_short_norm(self):
        for statistics, amps in ((B, [0.9]), (F, [0.5, -0.5, 0.5, -0.5 + 1e-6])):
            total = math.fsum(a * a for a in amps)
            with pytest.raises(ValueError) as info:
                built(statistics, amps)
            assert str(info.value) == (
                f"state not complete: |amplitudes|^2 + tail_bound = {total!r}"
            )

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError, match="not complete"):
            built(B, [math.sqrt(1.0 + 1e-9)])
        with pytest.raises(ValueError, match="not complete"):
            built(B, [1.0, 1e-5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"not complete: .* = 0\.0$"):
            built(B, [])

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
            # Equal to a label, but not a label: each would match by equality.
            ((True,), (True,)),
            ((1.0,), (1.0,)),
            (((False, True),), ((True, False),)),
            (((0.0, 1.0),), ((1.0, 0.0),)),
        ],
    )
    def test_rejects_bad_labels(self, coeffs):
        (h,), (o,) = coeffs
        states = (built(B, [1.0]), bell_pair(), built(F, FERMION_AMPS))
        for state in states:
            assert (h, o) not in state.coefficients
            with pytest.raises(KeyError):
                state.coefficients[(h, o)]

    # partial_trace hands the horizon side's squares to the outgoing side,
    # which holds only if the exchanged labels weigh alike.  A complete
    # vector that breaks this, by a lot or by one ulp, is refused.
    @pytest.mark.parametrize(
        "amps",
        [
            (0.5, -math.sqrt(0.3), math.sqrt(0.2), -0.5),
            (0.5, -0.5, math.nextafter(0.5, 1.0), -0.5),
        ],
        ids=["asymmetric", "one-ulp"],
    )
    def test_rejects_unequal_exchanged_weights(self, amps):
        a01, a10 = amps[1], amps[2]
        assert a01 * a01 != a10 * a10
        with pytest.raises(ValueError) as info:
            built(F, amps)
        assert str(info.value) == (
            "exchanged labels (0, 1) and (1, 0) must carry equal weights, "
            f"got {a01 * a01!r} and {a10 * a10!r}"
        )

    # A nan or inf amplitude makes the exact sum nan or inf: never complete.
    @pytest.mark.parametrize(
        "statistics, amps",
        [
            (B, [math.nan]),
            (B, [math.inf]),
            (B, [math.nan, 0.0]),
            (F, [1.0, 0.0, -math.inf, 0.0]),
        ],
        ids=["nan", "inf", "boson-nan", "fermion-inf"],
    )
    def test_rejects_bad_amplitudes(self, statistics, amps):
        with pytest.raises(ValueError, match=r"not complete: .* = (nan|inf)$"):
            built(statistics, amps)

    def test_coefficients_view(self):
        view = built(F, FERMION_AMPS).coefficients
        assert len(view) == 4
        assert list(view) == [
            ((0, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1)),
        ]
        assert view[((0, 1), (1, 0))] == -0.5
        assert ((0, 1), (0, 1)) not in view
        assert ((2, 0), (0, 0)) not in view
        assert 0 not in view


class TestCompleteness:
    """The pairwise sum of squares decides away from the window edges; fsum at them."""

    @given(
        statistics=st.sampled_from([B, F]),
        d=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["normal", "decaying", "spike"]),
        tail=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
        upper=st.booleans(),
        ulps=st.integers(-8, 8),
    )
    @settings(max_examples=300)
    def test_decision_is_the_fsum_window_check(
        self, statistics, d, seed, shape, tail, upper, ulps
    ):
        rng = np.random.default_rng(seed)
        n = 4 if statistics is F else d
        if shape == "normal":
            amps = rng.standard_normal(n)
        elif shape == "decaying":
            amps = rng.uniform(0.5, 1.0) ** np.arange(n) * rng.choice([-1.0, 1.0], n)
        else:
            # Squares below half an ulp of the first: a running sum that
            # starts from the first square drops them, fsum does not.
            amps = np.full(n, math.sqrt(rng.uniform(1e-18, 6e-17)))
            amps[0] = 1.0
        if statistics is F:
            # Exchanged labels weigh alike, or _built refuses the vector.
            amps[2] = -amps[1]
        assume(np.any(amps))
        # Rescale so that fsum(a^2) + tail lands within 8 ulp of an edge.
        edge = 1.0 + EPS_NORM + tail if upper else 1.0 - EPS_NORM
        target = edge + ulps * math.ulp(edge) - tail
        amps *= math.sqrt(target / math.fsum((amps * amps).tolist()))
        weights = amps * amps
        total = math.fsum(weights.tolist()) + tail
        assume(abs(total - edge) <= 8 * math.ulp(edge))
        if 1.0 - EPS_NORM <= total <= 1.0 + EPS_NORM + tail:
            PureBipartiteState._built(statistics, weights, tail)
        else:
            with pytest.raises(ValueError, match="not complete") as exc:
                PureBipartiteState._built(statistics, weights, tail)
            assert str(exc.value).endswith(f"= {total!r}")

    # Every builder's total lies far inside the window, so no built state
    # takes the exact sum: the fsum decision guards the builders without
    # costing them a pass.  A scan of 102,000 built states (6,000 log-spaced
    # x over this range, 17 log-spaced eps_tail values from EPS_TAIL_MIN to
    # EPS_TAIL_MAX) found none closer to an edge than 9.995e-13, about
    # EPS_NORM and ten times _EDGE_SLACK.
    @given(
        statistics=st.sampled_from([B, F]),
        x=st.floats(6.25e-4, 700.0),
        eps_tail=st.floats(EPS_TAIL_MIN, EPS_TAIL_MAX),
    )
    @example(statistics=B, x=0.002436606855595449, eps_tail=EPS_TAIL_MIN)
    @example(statistics=B, x=700.0, eps_tail=EPS_TAIL_MIN)
    @example(statistics=F, x=X_MIN, eps_tail=EPS_TAIL_MAX)
    @settings(max_examples=300)
    def test_inner_states_skip_the_exact_sum(self, statistics, x, eps_tail):
        def exact_sum(self):
            raise AssertionError("fsum reached away from the window edges")

        sq = SqueezingParams.from_x(statistics, x)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(PureBipartiteState, "norm_squared", exact_sum)
            build_boson_state(sq, eps_tail) if statistics is B else build_fermion_state(sq)


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


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp).filter(lambda x: lo <= x <= hi)


@st.composite
def real_states(draw):
    """A boson state of drawn normalised amplitudes, or a built boson or fermion state.

    A fermion state comes only from its builder, which weighs the two
    exchanged labels alike; a drawn four-vector need not.  A built boson
    state runs from one level to the 20,846 that x = 1.032e-3 keeps at
    EPS_TAIL_MIN.
    """
    kind = draw(st.sampled_from(["drawn", "boson", "fermion"]))
    if kind == "fermion":
        return build_fermion(draw(log_uniform(X_MIN, 745.0)))
    if kind == "boson":
        sq = SqueezingParams.from_x(B, draw(log_uniform(1.032e-3, 700.0)))
        return build_boson_state(sq, draw(st.sampled_from([EPS_TAIL_MIN, EPS_TAIL_MAX])))
    d = draw(st.integers(1, 64))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=d, max_size=d)))
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return built(B, amps / norm)


def assert_sides_are_the_dict_reduction(state):
    """Each side of ``state`` is the dict reduction of its pairing, and both are the same bytes.

    The pairing is the one ``coefficients`` shows in order: so a fermion's
    outgoing (0, 1) carries the weight of the horizon's (1, 0), with the
    same bits.
    """
    amps = state.amplitudes
    if state.statistics is F:
        pairs = [(h, exchanged(h)) for h in PAIR_LABELS]
    else:
        pairs = [(n, n) for n in range(amps.size)]
    pairing = dict(state.coefficients)
    assert list(pairing.items()) == list(zip(pairs, amps.tolist()))
    sides = {}
    for keep in ("out", "hor"):
        rho = partial_trace(state, keep)
        labels, weights = dict_reduction(pairing, keep)
        assert tuple(rho.basis) == labels, keep
        assert rho.diag.tobytes() == weights.tobytes(), keep
        sides[keep] = rho.diag.tobytes()
    assert sides["out"] == sides["hor"]


# Each builder the spy test watches, with the statistics of its state.
SPIED_BUILDS = {
    **{f"boson-{x:g}": (B, lambda x=x: build_boson_state(SqueezingParams.from_x(B, x)))
       for x in (1.032e-3, 0.02, 1.0, 800.0)},
    **{f"fermion-{x:g}": (F, lambda x=x: build_fermion(x)) for x in (0.5, 50.0)},
    "bell-pair": (B, bell_pair),
}


class TestPartialTrace:
    # Fixed states, each its own case: the Bell pair, a fermion vector, a
    # generic boson vector, and built fermion states across the x range.
    @pytest.mark.parametrize(
        "state",
        [
            pytest.param(bell_pair(), id="bell-pair"),
            pytest.param(built(F, [INV_SQRT2, 0.0, 0.0, -INV_SQRT2]), id="fermion-vector"),
            pytest.param(built(B, np.array([0.5, -0.4, 0.3, 0.2, 0.1]) / math.sqrt(0.55)), id="boson-vector"),
            *(pytest.param(build_fermion(x), id=f"fermion-{x:g}") for x in (X_MIN, 1e-3, 0.3, 1.0, 19.0, 300.0, 745.0)),
        ],
    )
    def test_each_side_of_a_fixed_state_is_the_dict_reduction(self, state):
        assert_sides_are_the_dict_reduction(state)

    @given(state=real_states())
    @settings(max_examples=300)
    def test_each_side_is_the_dict_reduction(self, state):
        assert_sides_are_the_dict_reduction(state)

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), keep="in")

    # The state adopts a builder's weights uncopied, sums them once, and
    # keeps them read-only as each side's diagonal.  Their squares are
    # checked by tests/test_states.py::TestDerivedAmplitudes, their order by
    # assert_built_order.  Every np.add.reduce over the spied weights is logged.
    @pytest.mark.parametrize("keep", ["out", "hor"])
    @pytest.mark.parametrize(("statistics", "build"), SPIED_BUILDS.values(), ids=SPIED_BUILDS)
    def test_one_array_from_builder_to_both_reductions(self, monkeypatch, statistics, build, keep):
        adopted, summed = [], []

        class Spied(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.add and method == "reduce":
                    summed.append(inputs[0])
                plain = [a.view(np.ndarray) if isinstance(a, Spied) else a for a in inputs]
                result = getattr(ufunc, method)(*plain, **kwargs)
                return result.view(Spied) if isinstance(result, np.ndarray) else result

        adopt = PureBipartiteState._built.__func__

        def spied(cls, statistics, weights, tail_bound):
            adopted.append(weights.view(Spied))
            return adopt(cls, statistics, adopted[-1], tail_bound)

        monkeypatch.setattr(PureBipartiteState, "_built", classmethod(spied))
        state = build()
        assert state.statistics is statistics
        assert len(adopted) == len(summed) == 1
        weights = adopted[0]
        assert state.weights is weights and summed[0] is weights
        assert weights.dtype == np.float64
        rho = partial_trace(state, keep)
        assert rho.diag is weights and rho.statistics is statistics
        with pytest.raises(ValueError):
            rho.diag[0] = 0.0

    def test_state_at_the_upper_edge_reduces(self):
        # fsum(a^2) is exactly 1 + EPS_NORM, which the state accepts; the
        # pairwise sum lies 1 ulp above, and the reduction adopts it with no
        # second check to refuse it.
        amps = [-0.5636345654443332, 0.8255617528835841, -0.027638176733674816]
        state = built(B, amps)
        assert state.norm_squared() == 1.0 + EPS_NORM
        rho = partial_trace(state)
        assert float(rho.diag.sum()) > 1.0 + EPS_NORM


class TestDensityOperator:
    def test_basis_follows_statistics(self):
        assert reduced(B, [0.5, 0.3, 0.2]).basis == range(3)
        assert reduced(F, [0.4, 0.3, 0.2, 0.1]).basis == FERMION_BASIS

    def test_json_round_trip(self):
        rho = reduced(F, [0.4, 0.3, 0.2, 0.1])
        doc = rho.to_json_dict()
        assert list(doc) == ["basis", "diag", "offdiag_norm"]
        assert doc["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert doc["diag"] == [0.4, 0.3, 0.2, 0.1]
        assert doc["offdiag_norm"] == 0.0
        assert reduced(B, [0.5, 0.5]).to_json_dict()["basis"] == [0, 1]


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = reduced(B, diag=[1.0, 0.0])
        assert von_neumann_entropy(rho) == 0.0

    def test_uniform_two_level_one_bit(self):
        rho = reduced(B, diag=[0.5, 0.5])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_exact_zeros_are_skipped(self):
        rho = reduced(B, diag=[0.5, 0.5, 0.0])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(partial_trace(bell_pair()), method="magic")

    def test_result_clamped_nonnegative(self):
        rho = reduced(B, diag=[1.0])
        assert von_neumann_entropy(rho) == 0.0


class TestPurityAndOccupation:
    def test_mean_occupation_number_labels(self):
        rho = reduced(B, diag=[0.5, 0.3, 0.2])
        assert mean_occupation(rho) == pytest.approx(0.7, abs=1e-15)
        assert mean_occupation(rho, "particle") == mean_occupation(rho)

    def test_mean_occupation_pair_labels(self):
        rho = reduced(F, diag=[0.4, 0.3, 0.2, 0.1])
        assert mean_occupation(rho) == pytest.approx(0.3, abs=1e-15)

    # A fermion's occupation adds the two labels with a particle; the other
    # two terms of the weighted sum are exact zeros, so the bits are the
    # four-term sum's, kept here as the oracle.
    @given(x=st.floats(X_MIN, 700.0))
    @example(x=X_MIN)
    @example(x=700.0)
    @settings(max_examples=300)
    def test_fermion_occupation_is_the_weighted_sum(self, x):
        rho = partial_trace(build_fermion(x))
        numbers = np.array([lab[0] for lab in FERMION_BASIS], dtype=np.float64)
        want = float((rho.diag * numbers).sum())
        got = mean_occupation(rho)
        assert type(got) is float
        assert got.hex() == want.hex(), x

    def test_mean_occupation_bad_sector(self):
        for which in ("holes", "total", "antiparticle"):
            with pytest.raises(ValueError, match="sector"):
                mean_occupation(partial_trace(bell_pair()), which)
