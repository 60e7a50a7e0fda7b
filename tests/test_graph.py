import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph, EdgeError, MixingMatrix, assign_classes
from graphmix.rng import make_rng


def test_undirected_edges_and_degrees():
    g = AttributedGraph(False, [0, 0, 1, 1], [(0, 1), (2, 0)])
    assert g.num_edges == 2
    assert list(g.edges()) == [(0, 1), (0, 2)]
    assert g.total_degree_vector().tolist() == [2, 1, 1, 0]
    assert g.csr().row(0).tolist() == [1, 2]
    assert g.csr().row(2).tolist() == [0]


def test_directed_edges_are_ordered_pairs():
    g = AttributedGraph(True, [0, 1], [(0, 1), (1, 0)])  # reverse direction is a distinct edge
    csr = g.csr()
    assert csr.in_degree().tolist() == [1, 1]
    assert csr.out_degree().tolist() == [1, 1]
    assert g.total_degree_vector().tolist() == [2, 2]
    assert csr.row(0).tolist() == [1]


@pytest.mark.parametrize(
    "directed,edges,index,fragment",
    [
        (False, [(0, 1), (2, 2)], 1, "self-loop (2,2)"),
        (True, [(1, 1)], 0, "self-loop (1,1)"),
        (False, [(0, 1), (1, 2), (0, 1)], 2, "duplicate edge (0,1)"),
        (False, [(0, 1), (1, 2), (2, 1)], 2, "duplicate edge (2,1)"),
        (True, [(0, 1), (1, 0), (0, 1)], 2, "duplicate edge (0,1)"),
        # the first bad edge is reported, whatever its fault
        (False, [(0, 1), (1, 1), (0, 5)], 1, "self-loop"),
        (False, [(1, 0), (2, 2), (0, 1)], 1, "self-loop"),
    ],
)
def test_constructor_rejects_bad_edges(directed, edges, index, fragment):
    with pytest.raises(EdgeError) as exc:
        AttributedGraph(directed, [0, 1, 0], edges)
    assert exc.value.index == index
    assert fragment in exc.value.reason
    assert str(exc.value).startswith(f"edge {index}: ")


def test_constructor_rejects_out_of_range_ids():
    cases = [(False, [(0, 1), (0, 3)], 1), (True, [(-1, 0)], 0), (True, [(0, 1), (1, 0), (9, 9)], 2)]
    for directed, edges, index in cases:
        with pytest.raises(EdgeError) as exc:
            AttributedGraph(directed, [0, 1, 0], edges)
        assert exc.value.index == index
        assert "references a node outside 0..2" in exc.value.reason


def test_constructor_rejects_edges_of_wrong_shape():
    with pytest.raises(ValueError):
        AttributedGraph(False, [0, 1, 0], [(0, 1, 2)])
    with pytest.raises(ValueError):
        AttributedGraph(False, [0, 1, 0], [0, 1])


@pytest.mark.parametrize("directed", [False, True])
def test_empty_edge_list(directed):
    for edges in ([], np.empty((0, 2), dtype=np.int64)):
        g = AttributedGraph(directed, [0, 1, 1], edges)
        assert g.num_edges == 0
        assert list(g.edges()) == []
        assert g.csr().indptr.tolist() == [0, 0, 0, 0]
        assert g.csr().indices.size == 0
        assert g.total_degree_vector().tolist() == [0, 0, 0]


def test_labels_validated():
    with pytest.raises(ValueError):
        AttributedGraph(False, [0, 2], [])
    with pytest.raises(ValueError):
        AttributedGraph(False, [], [])


def test_undirected_neighbors_symmetric():
    g = AttributedGraph(False, [0, 0, 0], [(1, 2)])
    assert g.csr().row(1).tolist() == [2]
    assert g.csr().row(2).tolist() == [1]


def test_class_counts_and_minority_fraction():
    g = AttributedGraph(False, [0, 1, 1, 0, 0], [])
    assert g.class_counts() == (3, 2)
    assert g.minority_fraction == pytest.approx(0.4)


def test_graph_equality_covers_structure_and_labels():
    a = AttributedGraph(False, [0, 1], [(0, 1)])
    assert a != AttributedGraph(False, [0, 1], [])
    assert a == AttributedGraph(False, [0, 1], [(1, 0)])
    assert a != AttributedGraph(False, [1, 0], [(0, 1)])
    assert a != AttributedGraph(True, [0, 1], [(0, 1)])
    assert AttributedGraph(True, [0, 1, 0], [(0, 1), (2, 1)]) == AttributedGraph(True, [0, 1, 0], [(2, 1), (0, 1)])


@given(st.integers(1, 30), st.booleans(), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_csr_matches_adjacency_sets(n, directed, p, seed):
    rng = make_rng(seed)
    labels = (rng.random(n) < 0.3).astype(np.int8)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < p)]
    # hand the edges over shuffled, and undirected ones in either orientation
    given_edges = [edges[i] for i in rng.permutation(len(edges))]
    if not directed:
        given_edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in given_edges]
    g = AttributedGraph(directed, labels, given_edges)

    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        if not directed:
            nbrs[v].append(u)
    nbrs = [sorted(row) for row in nbrs]
    csr = g.csr()
    assert csr.indptr.size == n + 1 and csr.indptr[0] == 0
    assert not csr.indptr.flags.writeable and not csr.indices.flags.writeable
    for u in range(n):
        assert csr.row(u).tolist() == nbrs[u]
    nodes = np.arange(n)[::-2]
    owners, got = csr.rows(nodes)
    assert got.tolist() == [v for u in nodes for v in nbrs[u]]
    assert owners.tolist() == [u for u in nodes for _ in nbrs[u]]
    bounds = rng.integers(0, n + 1, size=nodes.size)
    below = csr.count_below(nodes, bounds)
    assert below.tolist() == [sum(v < b for v in nbrs[u]) for u, b in zip(nodes, bounds)]
    _, got = csr.rows(nodes, below)
    assert got.tolist() == [v for u, b in zip(nodes, bounds) for v in nbrs[u] if v < b]

    outdeg = [len(row) for row in nbrs]
    indeg = [sum(v in nbrs[u] for u in range(n)) for v in range(n)]
    assert csr.out_degree().tolist() == outdeg
    assert csr.in_degree().tolist() == indeg
    total = [o + i for o, i in zip(outdeg, indeg)] if directed else outdeg
    assert g.total_degree_vector().tolist() == total
    assert g.num_edges == len(edges)
    assert list(g.edges()) == sorted(edges)
    assert g == AttributedGraph(directed, labels, edges)


# -- mixing matrix -----------------------------------------------------------


def test_mixing_matrix_symmetric_constructor():
    H = MixingMatrix.symmetric(0.8)
    assert H[0, 0] == pytest.approx(0.8)
    assert H[0, 1] == pytest.approx(0.2)
    assert H.row(1).tolist() == pytest.approx([0.2, 0.8])


def test_mixing_matrix_validation():
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[1.2, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MixingMatrix.symmetric(-0.1)


def test_mixing_matrix_asymmetric_entries_kept():
    H = MixingMatrix(np.array([[0.9, 0.1], [0.4, 0.6]]))
    assert H[1, 0] == pytest.approx(0.4)
    assert H.row(0).tolist() == pytest.approx([0.9, 0.1])


# -- class assignment ---------------------------------------------------------


def test_assign_classes_exact_count():
    labels = assign_classes(10, 0.3, make_rng(0))
    assert int(labels.sum()) == 3
    assert labels.size == 10


def test_assign_classes_round_half_to_even():
    # 10 * 0.25 = 2.5 -> 2, 10 * 0.35 = 3.5 -> 4 under banker's rounding
    assert int(assign_classes(10, 0.25, make_rng(1)).sum()) == 2
    assert int(assign_classes(10, 0.35, make_rng(1)).sum()) == 4


def test_assign_classes_deterministic():
    a = assign_classes(50, 0.2, make_rng(9))
    b = assign_classes(50, 0.2, make_rng(9))
    assert np.array_equal(a, b)


def test_assign_classes_validation():
    with pytest.raises(ValueError):
        assign_classes(0, 0.2, make_rng(0))
    with pytest.raises(ValueError):
        assign_classes(10, 0.6, make_rng(0))
    with pytest.raises(ValueError):
        assign_classes(10, -0.01, make_rng(0))


@given(st.integers(1, 200), st.floats(0.0, 0.5), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_assign_classes_count_property(n, f_m, seed):
    labels = assign_classes(n, f_m, make_rng(seed))
    assert int(labels.sum()) == round(n * f_m)
    assert set(np.unique(labels)).issubset({0, 1})
