"""Attributed graph data model and class-label assignment.

Graphs are simple (no self-loops, no duplicate edges), directed or
undirected, with a binary class label per node: 0 is the majority class,
1 the minority.  Node ids are dense integers ``0..n-1``.  A graph is
mutable while it is being built and treated as an immutable value
afterwards, so it can be shared freely across ensemble workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .rng import sample_without_replacement

__all__ = ["AttributedGraph", "CSR", "MixingMatrix", "assign_classes"]


class AttributedGraph:
    """Simple graph with per-node binary class labels.

    Maintains adjacency sets for O(1) edge tests while the graph is being
    built; analyses read the frozen :meth:`csr` array form instead.
    """

    __slots__ = ("directed", "_labels", "_adj", "_n_edges", "_csr")

    def __init__(self, directed: bool, labels: Sequence[int]):
        labels = np.asarray(labels, dtype=np.int8)
        if labels.size == 0:
            raise ValueError("label list must be non-empty")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 (majority) or 1 (minority)")
        self.directed = bool(directed)
        self._labels = labels
        self._adj: list[set[int]] = [set() for _ in range(labels.size)]
        self._n_edges = 0
        self._csr: CSR | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._labels.size

    @property
    def num_edges(self) -> int:
        return self._n_edges

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

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"node id {u} out of range [0, {self.n})")

    # -- edges ---------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge u-v (u->v when directed); False if rejected.

        Self-loops and existing edges are rejected without modifying the
        graph; undirected insertion is order-insensitive.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v or v in self._adj[u]:
            return False
        self._adj[u].add(v)
        if not self.directed:
            self._adj[v].add(u)
        self._n_edges += 1
        self._csr = None
        return True

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def neighbors(self, u: int) -> set[int]:
        """Neighbor set (out-neighbors when directed); do not mutate."""
        return self._adj[u]

    def csr(self) -> "CSR":
        """The graph's read-only array form, built on first use and cached.

        Row u lists the neighbors of u (out-neighbors when directed) in
        ascending id order; an undirected edge appears in both rows.
        :meth:`add_edge` drops the cached form.
        """
        if self._csr is None:
            lengths = np.fromiter(map(len, self._adj), dtype=np.int64, count=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            targets = np.fromiter(chain.from_iterable(self._adj), dtype=np.int64, count=int(indptr[-1]))
            # sort each row: (row, target) keys sort row-major
            keys = np.repeat(np.arange(self.n, dtype=np.int64), lengths) * self.n + targets
            keys.sort()
            indices = keys % self.n
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._csr = CSR(indptr, indices)
        return self._csr

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sources and targets of every edge in canonical sorted order.

        Undirected edges appear once as (u, v) with u < v; rows are sorted
        by source, then target.
        """
        csr = self.csr()
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
        csr = self.csr()
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
            and self._adj == other._adj
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
