import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmix.graph import AttributedGraph, EdgeError, MixingMatrix, assign_classes
from graphmix.rng import make_rng

from helpers import reference_csr


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


@pytest.mark.parametrize(
    "labels",
    [np.array([0, 256, 257]), [0.5, 1]],
    ids=["wraps-in-int8", "fraction"],
)
def test_labels_are_checked_before_the_int8_cast(labels):
    # int8 would wrap 256 to 0 and 257 to 1, and cut 0.5 to 0
    with pytest.raises(ValueError, match="labels must be 0"):
        AttributedGraph(False, labels, [])


@pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], 0], ids=["nested", "scalar"])
def test_labels_must_be_a_flat_list(labels):
    # a 2 x 2 table would count as n = 4 nodes and index by rows later
    with pytest.raises(ValueError, match="flat list"):
        AttributedGraph(False, labels, [])


def test_labels_are_the_graphs_own_read_only_copy():
    labels = np.array([0, 0, 1], dtype=np.int8)
    g = AttributedGraph(False, labels, [(0, 1)])
    labels[0] = 1  # the caller's array, written after the check
    assert g.labels.tolist() == [0, 0, 1] and g.minority_fraction == pytest.approx(1 / 3)
    assert not g.labels.flags.writeable


@pytest.mark.parametrize("directed", [False, True])
def test_edge_arrays_are_read_only_and_built_once(directed):
    rng = make_rng(8)
    n = 40
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(120, 2)) if u != v}
    if not directed:
        pairs = {(min(e), max(e)) for e in pairs}
    edges = sorted(pairs)
    given = edges if directed else [(v, u) for u, v in edges]  # undirected ones reversed
    g = AttributedGraph(directed, np.zeros(n, dtype=np.int8), given)
    src, dst = g.edge_arrays()
    # equal to a fresh build from the edges as given: sorted, undirected ones as (u, v) with u < v
    assert list(zip(src.tolist(), dst.tolist())) == edges
    assert src.dtype == dst.dtype == np.int64
    assert not src.flags.writeable and not dst.flags.writeable
    with pytest.raises(ValueError):
        src[0] = 1
    again = g.edge_arrays()
    assert again[0] is src and again[1] is dst
    assert list(g.edges()) == edges


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

    outdeg = [len(row) for row in nbrs]
    indeg = [sum(v in nbrs[u] for u in range(n)) for v in range(n)]
    assert csr.out_degree().tolist() == outdeg
    assert csr.in_degree().tolist() == indeg
    total = [o + i for o, i in zip(outdeg, indeg)] if directed else outdeg
    assert g.total_degree_vector().tolist() == total
    assert g.num_edges == len(edges)
    assert list(g.edges()) == sorted(edges)
    assert g == AttributedGraph(directed, labels, edges)


@st.composite
def _edge_arrays(draw):
    """(directed, n, edges): a simple graph's edges, shuffled, then up to three faults of any kind."""
    n = draw(st.integers(1, 12))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if not directed and draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["repeat", "reversed-repeat", "self-loop", "below-0", "at-n", "above-n"]))
        if fault.endswith("repeat"):
            if not edges:
                continue
            u, v = draw(st.sampled_from(edges))
            edge = (v, u) if fault == "reversed-repeat" else (u, v)
        elif fault == "self-loop":
            u = draw(st.integers(0, n - 1))
            edge = (u, u)
        else:
            bad = {"below-0": st.integers(-3, -1), "at-n": st.just(n), "above-n": st.integers(n + 1, n + 3)}[fault]
            edge = (draw(st.integers(0, n - 1)), draw(bad))
            edge = edge[::-1] if draw(st.booleans()) else edge
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return directed, n, edges


@given(_edge_arrays())
@settings(max_examples=400, deadline=None)
def test_csr_build_matches_the_stable_argsort_build(case):
    directed, n, edges = case
    try:
        want = reference_csr(directed, n, edges)
    except EdgeError as exc:
        want = (exc.index, exc.reason)
    try:
        csr = AttributedGraph(directed, np.zeros(n, dtype=np.int8), edges).csr()
        got = csr.indptr, csr.indices
    except EdgeError as exc:
        got = (exc.index, exc.reason)
    if isinstance(want[0], int):
        assert got == want
    else:
        assert all(a.dtype == b.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(got, want))


# -- mixing matrix -----------------------------------------------------------


def test_mixing_matrix_symmetric_constructor():
    H = MixingMatrix.symmetric(0.8)
    assert H.matrix[0, 0] == pytest.approx(0.8)
    assert H.matrix[0, 1] == pytest.approx(0.2)
    assert H.matrix[1].tolist() == pytest.approx([0.2, 0.8])


def test_mixing_matrix_validation():
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[1.2, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MixingMatrix.symmetric(-0.1)
    with pytest.raises(ValueError, match=r"mixing matrix entries must lie in \[0, 1\]"):
        MixingMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_mixing_matrix_is_its_own_read_only_copy():
    entries = np.array([[0.9, 0.1], [0.4, 0.6]])
    H = MixingMatrix(entries)
    entries[0, 0] = 5.0  # the caller's array, written after the check
    assert H.matrix[0, 0] == 0.9
    assert not H.matrix.flags.writeable


def test_mixing_matrix_asymmetric_entries_kept():
    H = MixingMatrix(np.array([[0.9, 0.1], [0.4, 0.6]]))
    assert H.matrix[1, 0] == pytest.approx(0.4)
    assert H.matrix[0].tolist() == pytest.approx([0.9, 0.1])


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
