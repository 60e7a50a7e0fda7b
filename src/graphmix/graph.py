"""Attributed graph data model and class-label assignment.

Graphs are simple (no self-loops, no duplicate edges), directed or
undirected, with a binary class label per node: 0 is the majority class,
1 the minority.  Node ids are dense integers ``0..n-1``.  A graph is an
immutable value built once from an edge array, so it can be shared freely
across ensemble workers.

The frozen graph holds its own read-only copy of the labels and its
:class:`CSR` (``indptr`` and ``indices``).  The canonical edge arrays of
:meth:`AttributedGraph.edge_arrays` are built from the CSR at the first
call and kept, read-only, for every later call: 16 bytes per edge, or 8
when directed, whose targets are the CSR's ``indices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _check
from .rng import sample_without_replacement

__all__ = ["AttributedGraph", "MixingMatrix", "assign_classes"]


class EdgeError(ValueError):
    """The edge at position ``index`` of an edge list is invalid for ``reason``."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason
        super().__init__(f"edge {index}: {reason}")


def _first_bad_edge(edges: np.ndarray, n: int, directed: bool) -> EdgeError:
    """The :class:`EdgeError` of the first edge that is outside ``0..n-1``, a self-loop or a repeat."""
    src, dst = edges[:, 0], edges[:, 1]
    # undirected keys are interleaved, so that equal keys keep their edge order under a stable sort
    keys = src * n + dst
    if not directed:
        keys = np.column_stack((keys, dst * n + src)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:][keys[1:] == keys[:-1]] // (1 if directed else 2)] = True
    outside = ((edges < 0) | (edges >= n)).any(axis=1)
    loop = src == dst
    i = int(np.flatnonzero(outside | loop | repeat)[0])
    u, v = edges[i].tolist()
    if outside[i]:
        return EdgeError(i, f"edge ({u},{v}) references a node outside 0..{n - 1}")
    return EdgeError(i, f"self-loop ({u},{v})" if loop[i] else f"duplicate edge ({u},{v})")


def distinct(x) -> np.ndarray:
    """``np.unique(x)`` of a non-empty ``x``, without the numpy.ma import
    (about 9 ms) of a plain ``np.unique`` call's first use on numpy 2."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def own_labels(labels) -> np.ndarray:
    """A read-only int8 copy of ``labels``, refused unless they are a flat, non-empty list of 0s and 1s."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be one per node, a flat list; got shape {labels.shape}")
    if labels.size == 0:
        raise ValueError("label list must be non-empty")
    # on the values as given: a cast first would wrap 256 to 0 and cut 0.5 to 0
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 (majority) or 1 (minority)")
    labels = labels.astype(np.int8)  # a copy of its own: the caller's array stays theirs
    labels.setflags(write=False)
    return labels


class AttributedGraph:
    """Simple graph with per-node binary class labels, frozen as a :class:`CSR`."""

    __slots__ = ("directed", "_labels", "_csr", "_edges")

    def __init__(self, directed: bool, labels: Sequence[int], edges):
        """Build the graph from ``edges``, an (E, 2) array-like of (source, target) ids.

        An undirected edge may be given in either orientation.  Raises
        :class:`EdgeError` for the first edge that references a node outside
        ``0..n-1``, is a self-loop, or repeats an earlier edge in either
        orientation when undirected.
        """
        labels = own_labels(labels)
        edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        n = labels.size
        src, dst = edges[:, 0], edges[:, 1]
        # row-major (row, column) keys; an undirected edge is stored in both rows
        keys = src * n + dst if directed else np.concatenate((src * n + dst, dst * n + src))
        keys.sort()  # a stable argsort is needed only to name a repeat
        outside = edges.size and (edges.min() < 0 or edges.max() >= n)
        if outside or (src == dst).any() or (keys[1:] == keys[:-1]).any():
            raise _first_bad_edge(edges, n, directed)
        row_sizes = np.bincount(src, minlength=n)
        if not directed:
            row_sizes += np.bincount(dst, minlength=n)
        indptr = np.concatenate(([0], row_sizes.cumsum()))
        indices = keys % n
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.directed = bool(directed)
        self._labels = labels
        self._csr = CSR(indptr, indices)
        self._edges: tuple[np.ndarray, np.ndarray] | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._labels.size

    @property
    def num_edges(self) -> int:
        return self._csr.indices.size if self.directed else self._csr.indices.size // 2

    @property
    def labels(self) -> np.ndarray:
        """Per-node class labels, read-only."""
        return self._labels

    def class_counts(self) -> tuple[int, int]:
        n1 = int(self._labels.sum())
        return self._labels.size - n1, n1

    @property
    def minority_fraction(self) -> float:
        return float(self._labels.mean())

    # -- edges ---------------------------------------------------------------

    def csr(self) -> "CSR":
        """The graph's read-only array form.

        Row u lists the nodes adjacent to u (the targets of u's edges when
        directed) in ascending id order; an undirected edge appears in both
        rows.
        """
        return self._csr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of every edge in canonical sorted order, read-only.

        Undirected edges appear once as (u, v) with u < v; rows are sorted
        by source, then target.  Built once per graph, at the first call.
        """
        if self._edges is None:
            csr = self._csr
            src = np.repeat(np.arange(self.n, dtype=np.int64), csr.out_degree())
            dst = csr.indices
            if not self.directed:
                keep = src < dst
                src, dst = src[keep], dst[keep]
            src.setflags(write=False)
            dst.setflags(write=False)
            self._edges = (src, dst)
        return self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in canonical sorted order: (u, v) with u < v when undirected."""
        src, dst = self.edge_arrays()
        return zip(src.tolist(), dst.tolist())

    def total_degree_vector(self) -> np.ndarray:
        """deg for undirected graphs, indeg+outdeg for directed ones."""
        csr = self._csr
        if self.directed:
            return csr.out_degree() + csr.in_degree()
        return csr.out_degree()

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self._labels, other._labels)
            and np.array_equal(self._csr.indptr, other._csr.indptr)
            and np.array_equal(self._csr.indices, other._csr.indices)
        )

    __hash__ = None

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"AttributedGraph({kind}, n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class CSR:
    """Compressed sparse rows: row u is ``indices[indptr[u]:indptr[u + 1]]``.

    Both arrays are int64 and read-only; each row is sorted ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def row(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated rows of the int array ``nodes``: (owning node, neighbor) per entry."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        ends = lengths.cumsum()  # where each row ends in the output
        total = int(ends[-1]) if ends.size else 0
        offsets = np.arange(total) + np.repeat(starts - ends + lengths, lengths)
        return np.repeat(nodes, lengths), self.indices[offsets]

    def count_below(self, nodes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """For each i, how many entries of row ``nodes[i]`` are less than ``bounds[i]`` (at most n)."""
        n = self.indptr.size - 1
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, self.out_degree()) + self.indices
        return np.searchsorted(keys, nodes * n + bounds) - self.indptr[nodes]

    def out_degree(self) -> np.ndarray:
        """Row lengths: the degree, or the out-degree when directed."""
        return np.diff(self.indptr)

    def in_degree(self) -> np.ndarray:
        """Column counts: the degree, or the in-degree when directed."""
        return np.bincount(self.indices, minlength=self.indptr.size - 1)


@dataclass(frozen=True)
class MixingMatrix:
    """Read-only 2x2 class-affinity matrix: ``matrix[a, b]`` is the affinity
    of a source of class a for a target of class b, each in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)  # a copy of its own, as the labels of a graph
        if m.shape != (2, 2):
            raise ValueError(f"mixing matrix must be 2x2, got shape {m.shape}")
        if not ((m >= 0.0) & (m <= 1.0)).all():  # NaN fails both comparisons
            raise ValueError("mixing matrix entries must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def symmetric(cls, h: float) -> "MixingMatrix":
        """Same-class affinity h on the diagonal, 1-h off the diagonal."""
        _check.interval("h", h, 0, 1)
        return cls(np.array([[h, 1.0 - h], [1.0 - h, h]]))


def assign_classes(n: int, f_m: float, rng: np.random.Generator) -> np.ndarray:
    """Exact-count class labels: round(n * f_m) nodes get class 1.

    Rounding is round-half-to-even.  Minority positions are a uniform
    without-replacement draw, so label placement is deterministic per seed
    and the realized minority fraction is exact for every realization.
    """
    n = _check.count("n", n, 1)
    _check.interval("minority fraction", f_m, 0, 0.5)
    n_minority = round(n * f_m)
    labels = np.zeros(n, dtype=np.int8)
    if n_minority:
        labels[sample_without_replacement(rng, n, n_minority)] = 1
    return labels
