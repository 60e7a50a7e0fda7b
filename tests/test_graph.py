import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph, MixingMatrix, assign_classes
from graphmix.rng import make_rng

from helpers import random_graph


def test_add_edge_and_degree_bookkeeping():
    g = AttributedGraph(False, [0, 0, 1, 1])
    assert g.add_edge(0, 1)
    assert g.add_edge(2, 0)
    assert not g.add_edge(1, 0)  # duplicate, canonicalized
    assert not g.add_edge(2, 2)  # self-loop
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert sorted(g.edges()) == [(0, 1), (0, 2)]
    assert g.total_degree_vector().tolist() == [2, 1, 1, 0]


def test_directed_edges_are_ordered_pairs():
    g = AttributedGraph(True, [0, 1])
    assert g.add_edge(0, 1)
    assert g.add_edge(1, 0)  # reverse direction is a distinct edge
    assert not g.add_edge(0, 1)
    csr = g.csr()
    assert csr.in_degree().tolist() == [1, 1]
    assert csr.out_degree().tolist() == [1, 1]
    assert g.total_degree_vector().tolist() == [2, 2]
    assert csr.row(0).tolist() == [1]


def test_add_edge_rejects_out_of_range():
    g = AttributedGraph(False, [0, 0])
    with pytest.raises(ValueError):
        g.add_edge(0, 2)


def test_labels_validated():
    with pytest.raises(ValueError):
        AttributedGraph(False, [0, 2])
    with pytest.raises(ValueError):
        AttributedGraph(False, [])


def test_class_counts_and_minority_fraction():
    g = AttributedGraph(False, [0, 1, 1, 0, 0])
    assert g.class_counts() == (3, 2)
    assert g.minority_fraction == pytest.approx(0.4)


def test_graph_equality_covers_structure_and_labels():
    a = AttributedGraph(False, [0, 1])
    b = AttributedGraph(False, [0, 1])
    a.add_edge(0, 1)
    assert a != b
    b.add_edge(1, 0)
    assert a == b
    c = AttributedGraph(False, [1, 0])
    c.add_edge(0, 1)
    assert a != c
    d = AttributedGraph(True, [0, 1])
    d.add_edge(0, 1)
    assert a != d


def test_undirected_neighbors_symmetric():
    g = AttributedGraph(False, [0, 0, 0])
    g.add_edge(1, 2)
    assert g.neighbors(1) == {2}
    assert g.neighbors(2) == {1}


@given(st.integers(1, 30), st.booleans(), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_csr_matches_adjacency_sets(n, directed, p, seed):
    g = random_graph(n, directed, p, make_rng(seed))
    csr = g.csr()
    assert csr.indptr.size == n + 1 and csr.indptr[0] == 0
    assert not csr.indptr.flags.writeable and not csr.indices.flags.writeable
    for u in range(n):
        assert csr.row(u).tolist() == sorted(g.neighbors(u))
    nodes = np.arange(n)[::-2]
    owners, nbrs = csr.rows(nodes)
    assert nbrs.tolist() == [v for u in nodes for v in sorted(g.neighbors(u))]
    assert owners.tolist() == [u for u in nodes for _ in g.neighbors(u)]

    # the values the incremental degree counters of add_edge used to hold
    outdeg = [len(g.neighbors(u)) for u in range(n)]
    indeg = [sum(v in g.neighbors(u) for u in range(n)) for v in range(n)]
    assert csr.out_degree().tolist() == outdeg
    assert csr.in_degree().tolist() == indeg
    total = [o + i for o, i in zip(outdeg, indeg)] if directed else outdeg
    assert g.total_degree_vector().tolist() == total
    canonical = sorted((u, v) for u in range(n) for v in g.neighbors(u) if directed or u < v)
    assert list(g.edges()) == canonical

    assert g.csr() is csr
    absent = [(u, v) for u in range(n) for v in range(n) if u != v and not g.has_edge(u, v)]
    if absent:
        u, v = absent[len(absent) // 2]
        assert g.add_edge(u, v)
        fresh = g.csr()
        assert v in fresh.row(u).tolist()
        assert fresh.indices.size == csr.indices.size + (1 if directed else 2)


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
