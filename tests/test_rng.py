import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmix.rng
from graphmix.generate import gen_directed, gen_pa, gen_pah, gen_patch
from graphmix.graph import AttributedGraph
from graphmix.inference import trace_from_graph
from graphmix.rng import (
    UniformStream,
    make_rng,
    pick_from_cumulative,
    picks_from_cumulative,
    rand_below,
    sample_without_replacement,
    weighted_pick,
)
from graphmix.sampling import STRATEGIES, sample

from helpers import array_sample_without_replacement


def test_make_rng_deterministic():
    a = make_rng(42).random(10)
    b = make_rng(42).random(10)
    assert np.array_equal(a, b)


def test_make_rng_seed_sensitivity():
    assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_make_rng_rejects_out_of_range_seeds(bad):
    with pytest.raises(ValueError):
        make_rng(bad)


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_make_rng_rejects_a_bool_seed(flag):
    with pytest.raises(ValueError, match="seed must be an integer, got bool"):
        make_rng(flag)
    with pytest.raises(ValueError, match="seed must be an integer, got bool"):
        gen_pa(10, 2, seed=flag)


def test_rand_below_bounds():
    rng = make_rng(7)
    draws = [rand_below(rng, 13) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 12


def test_rand_below_rejects_nonpositive():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        rand_below(rng, 0)


def test_weighted_pick_deterministic_singleton():
    rng = make_rng(3)
    w = np.array([0.0, 5.0, 0.0])
    assert all(weighted_pick(rng, w) == 1 for _ in range(50))


def test_weighted_pick_never_returns_zero_weight():
    rng = make_rng(11)
    w = np.array([1.0, 0.0, 2.0, 0.0, 0.5])
    picks = {weighted_pick(rng, w) for _ in range(3000)}
    assert picks == {0, 2, 4}


def test_weighted_pick_proportions():
    rng = make_rng(5)
    w = np.array([1.0, 3.0])
    hits = sum(weighted_pick(rng, w) == 1 for _ in range(20000))
    assert abs(hits / 20000 - 0.75) < 0.02


def test_weighted_pick_rejects_zero_total():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        weighted_pick(rng, np.zeros(3))


def test_pick_from_cumulative_trailing_zero_weight():
    # the last entries share the cumulative total, so they carry zero weight
    rng = make_rng(9)
    cum = np.array([1.0, 1.0, 1.0])
    assert all(pick_from_cumulative(rng, cum) == 0 for _ in range(200))


def test_picks_from_cumulative_are_the_scalar_picks_of_the_same_doubles():
    tiny = 2.0**-1074
    cums = [np.array([tiny, 3 * tiny, 3 * tiny, 3 * tiny]), np.array([1.0, 1.0, 1.0]), np.array([0.0, 2.0, np.inf])]
    rng = make_rng(5)
    for _ in range(100):
        w = rng.random(int(rng.integers(1, 12)))
        w[rng.random(w.size) < 0.4] = 0.0
        w[-1] = 1.0 if not w.any() else w[-1]
        cums.append(np.cumsum(w))
    for seed, cum in enumerate(cums):
        picks = picks_from_cumulative(make_rng(seed), cum, 50)
        one = make_rng(seed)
        assert picks.dtype == np.int64
        assert picks.tolist() == [pick_from_cumulative(one, cum) for _ in range(50)]
    # u * total rounds up to the subnormal total: the last positive weight
    assert picks_from_cumulative(_Fixed(1.0 - 2.0**-53), cums[0], 3).tolist() == [1, 1, 1]
    with pytest.raises(ValueError, match="total weight must be positive"):
        picks_from_cumulative(make_rng(0), np.zeros(3), 1)


def test_sample_without_replacement_full_permutation():
    rng = make_rng(21)
    got = sample_without_replacement(rng, 6, 6)
    assert sorted(got.tolist()) == list(range(6))


@given(st.integers(1, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_sample_without_replacement_properties(n, data):
    k = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32))
    got = sample_without_replacement(make_rng(seed), n, k)
    assert got.size == k
    assert len(set(got.tolist())) == k
    assert got.min() >= 0 and got.max() < n


def test_sample_without_replacement_matches_the_array_swaps():
    for n, k in [(0, 0), (1, 0), (1, 1), (7, 3), (7, 7), (1000, 0), (1000, 10), (1000, 999), (1000, 1000)]:
        for seed in range(4):
            got = sample_without_replacement(make_rng(seed), n, k)
            want = array_sample_without_replacement(make_rng(seed), n, k)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, k, seed)


def test_sample_without_replacement_rejects_oversize():
    with pytest.raises(ValueError):
        sample_without_replacement(make_rng(0), 3, 4)


# -- blocked uniform stream ------------------------------------------------------

@pytest.mark.parametrize("cap", [1, 7, None])
def test_uniform_stream_matches_scalar_draws(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(graphmix.rng, "STREAM_BLOCK_CAP", cap)
    # 10 000 doubles cross every doubling block boundary and several at the cap
    stream = UniformStream(make_rng(17))
    scalar = make_rng(17)
    assert [stream.random() for _ in range(10_000)] == [scalar.random() for _ in range(10_000)]


@pytest.mark.parametrize("cap", [1, 7, None])
def test_uniform_stream_next_interleaves_with_random(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(graphmix.rng, "STREAM_BLOCK_CAP", cap)
    # True is stream.next(), False stream.random(), across the first blocks and several at the cap
    pick = np.random.default_rng(cap or 0)
    stream = UniformStream(make_rng(29))
    scalar = make_rng(29)
    for call in (pick.random(10_000) < 0.5).tolist():
        assert (stream.next() if call else stream.random()) == scalar.random()


def test_uniform_stream_hands_out_no_arrays():
    with pytest.raises(TypeError):
        UniformStream(make_rng(0)).random(3)


def test_a_drawn_stream_is_freed_by_reference_counting():
    class Source:  # a generator that takes weak references
        def __init__(self):
            self.rng = make_rng(31)

        def random(self, size):
            return self.rng.random(size)

    source = Source()
    stream = UniformStream(source)
    for _ in range(40):  # into the second block
        stream.random(), stream.next()
    freed = weakref.ref(source)
    del source  # the stream now holds the only reference
    gc.collect()
    gc.disable()
    try:
        del stream
        assert freed() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sample_without_replacement_leaves_a_generator_where_scalar_draws_do():
    # a generator passed on (seeding, then cascade) must end where k scalar draws end
    for n, k in [(0, 0), (5, 0), (5, 5), (1000, 37), (6000, 1000)]:
        rng, ref = make_rng(n + k), make_rng(n + k)
        assert np.array_equal(sample_without_replacement(rng, n, k), array_sample_without_replacement(ref, n, k))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()


def test_uniform_stream_blocks_double_up_to_the_cap():
    class Counting:
        def __init__(self):
            self.sizes = []
            self.rng = make_rng(0)

        def random(self, size):
            self.sizes.append(size)
            return self.rng.random(size)

    source = Counting()
    stream = UniformStream(source)
    for _ in range(20_000):
        stream.random()
    cap = graphmix.rng.STREAM_BLOCK_CAP
    assert source.sizes[0] < 100  # a call that needs few doubles draws few
    assert all(b == min(2 * a, cap) for a, b in zip(source.sizes, source.sizes[1:]))
    assert source.sizes[-1] == cap


class _Fixed:
    """Stands in for a generator whose next double is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_pick_from_cumulative_is_the_right_searchsorted_index():
    rng = make_rng(4)
    for _ in range(200):
        w = rng.random(int(rng.integers(1, 12)))
        w[rng.random(w.size) < 0.4] = 0.0
        w[-1] = 1.0 if not w.any() else w[-1]
        cum = np.cumsum(w)
        for _ in range(20):
            u = rng.random()
            expect = int(cum.searchsorted(u * cum[-1], side="right"))
            assert pick_from_cumulative(_Fixed(u), cum) == expect


# the scalar weighted draws of one double u over the weights w
_WEIGHTED_DRAWS = {
    "pick_from_cumulative": lambda u, w: pick_from_cumulative(_Fixed(u), np.cumsum(w)),
    "weighted_pick": lambda u, w: weighted_pick(_Fixed(u), w),
}


@pytest.mark.parametrize("draw", sorted(_WEIGHTED_DRAWS))
def test_pick_from_cumulative_round_up_skips_trailing_zero_weights(draw):
    # u * total rounds up to a subnormal total: the largest double below 1
    # times 3 * 2**-1074 is 3 * 2**-1074 again
    tiny = 2.0**-1074
    u = 1.0 - 2.0**-53
    assert u * (3 * tiny) == 3 * tiny
    assert _WEIGHTED_DRAWS[draw](u, np.array([tiny, 2 * tiny, 0.0, 0.0])) == 1


GENERATOR_CASES = {
    "pa": lambda: gen_pa(300, 2, 5),
    "pah": lambda: gen_pah(300, 3, 0.3, 0.8, 5),
    "patch": lambda: gen_patch(300, 3, 0.3, 0.8, 0.5, 5),
    "patch-ptc1": lambda: gen_patch(300, 4, 0.3, 0.2, 1.0, 5),
    "dpa": lambda: gen_directed("dpa", 80, 0.05, 0.3, seed=5),
    "dh": lambda: gen_directed("dh", 80, 0.05, 0.3, 0.9, seed=5),
    "dpah": lambda: gen_directed("dpah", 80, 0.05, 0.3, 0.8, seed=5),
}


def _generated(make):
    g, trace = make()
    parts = [trace.labels, trace.sources, trace.targets, trace.kinds]
    if g.directed:
        order = trace_from_graph(g, seed=3)
        parts += [order.sources, order.targets]
    return parts


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generators_draw_the_same_doubles_at_any_block_cap(case, monkeypatch):
    # a cap of 1 draws one double per block, as scalar rng.random() calls do
    default = _generated(GENERATOR_CASES[case])
    monkeypatch.setattr(graphmix.rng, "STREAM_BLOCK_CAP", 1)
    one = _generated(GENERATOR_CASES[case])
    assert all(np.array_equal(a, b) for a, b in zip(default, one))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_samplers_draw_the_same_doubles_at_any_block_cap(strategy, monkeypatch):
    # isolated nodes make uniform-edge fill up and snowball re-seed
    g = AttributedGraph(False, np.zeros(120, dtype=np.int8), [(i, i + 1) for i in range(0, 80, 3)])
    budgets = (1, 10, 60, 100, 120)
    default = [sample(g, strategy, b, seed=b).nodes for b in budgets]
    monkeypatch.setattr(graphmix.rng, "STREAM_BLOCK_CAP", 1)
    one = [sample(g, strategy, b, seed=b).nodes for b in budgets]
    assert all(np.array_equal(a, b) for a, b in zip(default, one))
