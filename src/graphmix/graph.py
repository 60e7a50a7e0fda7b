"""Attributed graph data model and class-label assignment.

Graphs are simple (no self-loops, no duplicate edges), directed or
undirected, with a binary class label per node: 0 is the majority class,
1 the minority.  Node ids are dense integers ``0..n-1``.  A graph is an
immutable value built once from an edge array, so it can be shared freely
across ensemble workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .rng import sample_without_replacement

__all__ = ["AttributedGraph", "CSR", "EdgeError", "MixingMatrix", "assign_classes"]


class EdgeError(ValueError):
    """The edge at position ``index`` of an edge list is invalid for ``reason``."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason
        super().__init__(f"edge {index}: {reason}")


class AttributedGraph:
    """Simple graph with per-node binary class labels, frozen as a :class:`CSR`."""

    __slots__ = ("directed", "_labels", "_csr")

    def __init__(self, directed: bool, labels: Sequence[int], edges):
        """Build the graph from ``edges``, an (E, 2) array-like of (source, target) ids.

        An undirected edge may be given in either orientation.  Raises
        :class:`EdgeError` for the first edge that references a node outside
        ``0..n-1``, is a self-loop, or repeats an earlier edge in either
        orientation when undirected.
        """
        labels = np.asarray(labels, dtype=np.int8)
        if labels.size == 0:
            raise ValueError("label list must be non-empty")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 (majority) or 1 (minority)")
        edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        n = labels.size
        src, dst = edges[:, 0], edges[:, 1]
        # row-major (row, column) keys; an undirected edge is stored in both
        # rows, interleaved so that equal keys keep their edge order
        keys = src * n + dst
        if not directed:
            keys = np.column_stack((keys, dst * n + src)).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeat = np.zeros(len(edges), dtype=bool)
        repeat[order[1:][keys[1:] == keys[:-1]] // (1 if directed else 2)] = True
        outside = ((edges < 0) | (edges >= n)).any(axis=1)
        loop = src == dst
        bad = np.flatnonzero(outside | loop | repeat)
        if bad.size:
            i = int(bad[0])
            u, v = edges[i].tolist()
            if outside[i]:
                raise EdgeError(i, f"edge ({u},{v}) references a node outside 0..{n - 1}")
            raise EdgeError(i, f"self-loop ({u},{v})" if loop[i] else f"duplicate edge ({u},{v})")
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        indices = keys % n
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.directed = bool(directed)
        self._labels = labels
        self._csr = CSR(indptr, indices)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._labels.size

    @property
    def num_edges(self) -> int:
        return self._csr.indices.size if self.directed else self._csr.indices.size // 2

    @property
    def labels(self) -> np.ndarray:
        """Per-node class labels (treat as read-only)."""
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
        """Sources and targets of every edge in canonical sorted order.

        Undirected edges appear once as (u, v) with u < v; rows are sorted
        by source, then target.
        """
        csr = self._csr
        src = np.repeat(np.arange(self.n, dtype=np.int64), csr.out_degree())
        if self.directed:
            return src, csr.indices
        keep = src < csr.indices
        return src[keep], csr.indices[keep]

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

    def rows(self, nodes: np.ndarray, lengths: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated rows of the int array ``nodes``: (owning node, neighbor) per entry.

        With ``lengths``, row i is cut to its first ``lengths[i]`` entries.
        """
        starts = self.indptr[nodes]
        if lengths is None:
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
    """2x2 class-affinity matrix: entry [a, b] is the affinity of a source
    of class a for a target of class b, each in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2, 2):
            raise ValueError(f"mixing matrix must be 2x2, got shape {m.shape}")
        if (m < 0.0).any() or (m > 1.0).any():
            raise ValueError("mixing matrix entries must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def symmetric(cls, h: float) -> "MixingMatrix":
        """Same-class affinity h on the diagonal, 1-h off the diagonal."""
        if not 0.0 <= h <= 1.0:
            raise ValueError(f"h must lie in [0, 1], got {h}")
        return cls(np.array([[h, 1.0 - h], [1.0 - h, h]]))

    def __getitem__(self, key: tuple[int, int]) -> float:
        return float(self.matrix[key])

    def row(self, source_class: int) -> np.ndarray:
        """Affinity of a source of the given class toward classes (0, 1)."""
        return self.matrix[source_class]


def assign_classes(n: int, f_m: float, rng: np.random.Generator) -> np.ndarray:
    """Exact-count class labels: round(n * f_m) nodes get class 1.

    Rounding is round-half-to-even.  Minority positions are a uniform
    without-replacement draw, so label placement is deterministic per seed
    and the realized minority fraction is exact for every realization.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= f_m <= 0.5:
        raise ValueError(f"minority fraction must lie in [0, 0.5], got {f_m}")
    n_minority = round(n * f_m)
    labels = np.zeros(n, dtype=np.int8)
    if n_minority:
        labels[sample_without_replacement(rng, n, n_minority)] = 1
    return labels
