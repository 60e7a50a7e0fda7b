import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.generate import gen_pah
from graphmix.graph import AttributedGraph
from graphmix.ranking import rank_nodes
from graphmix.rng import make_rng
from graphmix.sampling import (
    STRATEGIES,
    benchmark,
    cell_seed,
    sample,
)

from helpers import (
    array_sample_without_replacement,
    random_graph,
    rebuilt_pool_snowball,
    reference_random_walk,
    reference_uniform_edge,
)


def test_full_budget_returns_every_node():
    g = random_graph(12, directed=False, p=0.2, rng=make_rng(7))
    for strategy in STRATEGIES:
        res = sample(g, strategy, budget=12, seed=3)
        assert res.nodes.tolist() == list(range(12))


def test_budget_larger_than_population_is_clamped():
    g = random_graph(10, directed=False, p=0.3, rng=make_rng(1))
    res = sample(g, "uniform-node", budget=50, seed=0)
    assert res.nodes.tolist() == list(range(10))
    assert res.budget == 50


def test_sample_size_and_uniqueness_invariant():
    g = random_graph(30, directed=False, p=0.15, rng=make_rng(2))
    for strategy in STRATEGIES:
        for budget in (1, 7, 30):
            res = sample(g, strategy, budget, seed=11)
            assert res.nodes.size == budget
            assert np.unique(res.nodes).size == budget
            assert res.nodes.min() >= 0 and res.nodes.max() < 30
            assert np.all(np.diff(res.nodes) > 0)  # sorted ascending


def test_top_degree_picks_the_hub():
    g = AttributedGraph(False, [0, 0, 1, 0, 0], [(0, j) for j in range(1, 5)])
    res = sample(g, "top-degree", budget=1, seed=99)
    assert res.nodes.tolist() == [0]


def test_top_degree_is_seed_free():
    g = random_graph(25, directed=False, p=0.2, rng=make_rng(3))
    a = sample(g, "top-degree", 10, seed=0)
    b = sample(g, "top-degree", 10, seed=123456)
    assert np.array_equal(a.nodes, b.nodes)


def test_snowball_on_a_path_is_contiguous():
    n = 9
    g = AttributedGraph(False, [0] * (n - 1) + [1], [(i, i + 1) for i in range(n - 1)])
    for seed in range(6):
        res = sample(g, "snowball", budget=4, seed=seed)
        ids = res.nodes
        assert ids.max() - ids.min() == 3  # a contiguous window of the path


def test_snowball_reseeds_across_components():
    # two disjoint triangles; budget 6 forces a re-seed
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = AttributedGraph(False, [0, 0, 0, 1, 1, 1], edges)
    res = sample(g, "snowball", budget=6, seed=4)
    assert res.nodes.tolist() == list(range(6))


@pytest.mark.parametrize("directed", [False, True])
def test_snowball_reseeds_like_a_rebuilt_pool(directed):
    # mostly isolated nodes and short paths: many re-seeds per sample
    rng = make_rng(5)
    for n in (50, 400, 1200):
        starts = rng.permutation(n - 1)[: n // 8]
        g = AttributedGraph(directed, np.zeros(n, dtype=np.int8), [(int(u), int(u) + 1) for u in starts])
        for budget in (1, n // 3, n // 2 + 1, n):
            for seed in range(3):
                want = rebuilt_pool_snowball(g, budget, make_rng(seed))
                got = sample(g, "snowball", budget, seed).nodes
                assert got.tolist() == sorted(want), (n, budget, seed)


@pytest.mark.parametrize("directed", [False, True])
def test_snowball_reseeds_like_a_rebuilt_pool_on_many_components(directed):
    # about 1800 components: a re-seed after almost every crawled node
    rng = make_rng(6)
    n = 2000
    starts = rng.permutation(n - 1)[: n // 10]
    g = AttributedGraph(directed, np.zeros(n, dtype=np.int8), [(int(u), int(u) + 1) for u in starts])
    for budget in (n // 2 + 1, n - 1, n):
        want = rebuilt_pool_snowball(g, budget, make_rng(budget))
        got = sample(g, "snowball", budget, budget).nodes
        assert got.tolist() == sorted(want), budget


@st.composite
def _crawl_graphs(draw):
    """Sparse graphs on 1-60 nodes: isolated nodes, and sinks when directed."""
    n = draw(st.integers(1, 60))
    directed = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    seen: set[tuple[int, int]] = set()
    edges = []
    for u, v in pairs:
        key = (u, v) if directed else (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return AttributedGraph(directed, labels, edges)


_REFERENCE_KERNELS = {
    "uniform-node": lambda g, size, rng: array_sample_without_replacement(rng, g.n, size).tolist(),
    "uniform-edge": reference_uniform_edge,
    "snowball": rebuilt_pool_snowball,
    "random-walk": reference_random_walk,
    "top-degree": lambda g, size, rng: rank_nodes(g, "degree")[:size].tolist(),
}


@given(_crawl_graphs(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_every_strategy_samples_the_reference_kernels_nodes(g, base_seed):
    for strategy in STRATEGIES:
        for budget in range(1, g.n + 1):
            for seed in (base_seed, base_seed + 1):
                want = _REFERENCE_KERNELS[strategy](g, budget, make_rng(seed))
                got = sample(g, strategy, budget, seed).nodes
                assert got.tolist() == sorted(want), (strategy, budget, seed)


def test_random_walk_handles_directed_sink():
    g = AttributedGraph(True, [0, 1], [(0, 1)])
    res = sample(g, "random-walk", budget=2, seed=5)
    assert res.nodes.tolist() == [0, 1]


def test_uniform_edge_fills_from_isolated_nodes():
    g = AttributedGraph(False, [0, 0, 1, 1], [(0, 1)])
    res = sample(g, "uniform-edge", budget=4, seed=8)
    assert res.nodes.tolist() == [0, 1, 2, 3]


def test_uniform_edge_prefers_incident_nodes():
    # high budget still below n: all edge-covered nodes enter before fill
    g = AttributedGraph(False, [0] * 5 + [1], [(0, 1), (1, 2), (2, 3)])
    res = sample(g, "uniform-edge", budget=4, seed=2)
    assert set(res.nodes.tolist()) <= {0, 1, 2, 3}


def test_sampling_determinism_and_seed_sensitivity():
    g = random_graph(60, directed=False, p=0.08, rng=make_rng(9))
    for strategy in ("uniform-node", "uniform-edge", "snowball", "random-walk"):
        a = sample(g, strategy, 20, seed=42)
        b = sample(g, strategy, 20, seed=42)
        assert np.array_equal(a.nodes, b.nodes)
    diffs = sum(
        not np.array_equal(
            sample(g, s, 20, seed=1).nodes, sample(g, s, 20, seed=2).nodes
        )
        for s in ("uniform-node", "uniform-edge", "snowball", "random-walk")
    )
    assert diffs >= 3  # different seeds change nearly every stochastic strategy


def test_sample_validation():
    g = AttributedGraph(False, [0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        sample(g, "bfs", 1, seed=0)
    with pytest.raises(ValueError):
        sample(g, "uniform-node", 0, seed=0)


# -- cell seeds ---------------------------------------------------------------------


def test_cell_seed_range_and_base_xor():
    s = cell_seed(0, "snowball", 100, 3)
    assert 0 <= s < 2**64
    assert cell_seed(12345, "snowball", 100, 3) == s ^ 12345


def test_cell_seeds_distinct_across_cells():
    seeds = {
        cell_seed(7, strategy, budget, rep)
        for strategy in STRATEGIES
        for budget in (10, 20)
        for rep in range(5)
    }
    assert len(seeds) == len(STRATEGIES) * 2 * 5


# -- benchmark ----------------------------------------------------------------------


def test_benchmark_full_budget_has_zero_bias():
    g = random_graph(20, directed=False, p=0.2, rng=make_rng(4))
    rep = benchmark(g, list(STRATEGIES), budgets=[20], reps=3, seed=0)
    for cell in rep.cells:
        assert cell.minority_bias == 0.0
        assert cell.degree_bias == 0.0
        assert cell.minority_bias_std == 0.0


def test_constant_cell_reports_exactly_zero_spread():
    # top-degree ignores the seed, so all ten repetitions give the same
    # biases; np.std of those ten equal values leaves 2.2e-16
    g = random_graph(5, directed=False, p=0.3, rng=make_rng(0))
    cell = benchmark(g, ["top-degree"], [1], reps=10, seed=0).cells[0]
    assert cell.degree_bias_std == 0.0
    assert cell.minority_bias_std == 0.0


def test_benchmark_shapes_and_determinism():
    g = random_graph(40, directed=False, p=0.1, rng=make_rng(5))
    a = benchmark(g, ["uniform-node", "snowball"], [5, 10], reps=4, seed=9)
    b = benchmark(g, ["uniform-node", "snowball"], [5, 10], reps=4, seed=9)
    assert len(a.records) == 2 * 2 * 4
    assert len(a.cells) == 4
    assert [r.minority_fraction for r in a.records] == [
        r.minority_fraction for r in b.records
    ]
    assert a.f_m == g.minority_fraction
    assert a.mean_degree == pytest.approx(g.total_degree_vector().mean())


@pytest.mark.parametrize("directed", [False, True])
def test_benchmark_records_are_the_samples_means(directed):
    # top-degree is sampled once per budget; the means skip np.mean's wrapper
    g = random_graph(60, directed=directed, p=0.08, rng=make_rng(12))
    degrees = g.total_degree_vector().astype(np.float64)
    rep = benchmark(g, list(STRATEGIES), [1, 7, 30], reps=3, seed=5)
    assert len(rep.records) == len(STRATEGIES) * 3 * 3
    for r in rep.records:
        nodes = sample(g, r.strategy, r.budget, cell_seed(5, r.strategy, r.budget, r.rep)).nodes
        assert r.minority_fraction == float(np.mean(g.labels[nodes]))
        assert r.mean_degree == float(np.mean(degrees[nodes]))


def test_benchmark_validation():
    g = random_graph(10, directed=False, p=0.3, rng=make_rng(6))
    with pytest.raises(ValueError):
        benchmark(g, ["uniform-node"], [5], reps=0, seed=0)
    with pytest.raises(ValueError):
        benchmark(g, [], [5], reps=1, seed=0)
    with pytest.raises(ValueError):
        benchmark(g, ["uniform-node"], [], reps=1, seed=0)
    with pytest.raises(ValueError):
        benchmark(g, ["uniform-node"], [11], reps=1, seed=0)
    with pytest.raises(ValueError):
        benchmark(g, ["uniform-node"], [0], reps=1, seed=0)
    with pytest.raises(ValueError):
        benchmark(g, ["degree-oracle"], [5], reps=1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_benchmark_refuses_a_seed_that_make_rng_refuses(seed):
    # the cell seeds are masked to 64 bits, so -1 and 2**64 would run, 2**64 as seed 0
    g = random_graph(10, directed=False, p=0.3, rng=make_rng(6))
    with pytest.raises(ValueError, match="seed must"):
        make_rng(seed)
    with pytest.raises(ValueError, match="seed must"):
        benchmark(g, ["uniform-node"], [5], reps=1, seed=seed)


def test_uniform_node_is_nearly_unbiased():
    rng = make_rng(10)
    labels = np.zeros(40, dtype=np.int8)
    labels[:10] = 1
    g = AttributedGraph(False, labels, [(u, u + 1) for u in range(0, 40, 2)])
    rep = benchmark(g, ["uniform-node"], [20], reps=400, seed=17)
    assert abs(rep.cells[0].minority_bias) < 0.03


def test_top_degree_overestimates_degree_on_heavy_tail():
    g, _ = gen_pah(200, 2, 0.3, 0.8, seed=21)
    rep = benchmark(g, ["top-degree", "uniform-node"], [20], reps=5, seed=3)
    by = {c.strategy: c for c in rep.cells}
    assert by["top-degree"].degree_bias > 1.0
    assert by["top-degree"].degree_bias > by["uniform-node"].degree_bias
