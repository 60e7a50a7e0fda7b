"""Plain-text network, trace, and config file formats.

Everything is diff-able comma-separated text with LF endings and a trailing
newline, written deterministically:

* ``<prefix>_nodes.csv``  -- header ``id,class``, ids dense and ascending;
* ``<prefix>_edges.csv``  -- header ``source,target``, rows sorted; an
  undirected edge is stored once with source < target;
* trace files            -- header ``source,target,kind`` with one growth
  event per row, in event order;
* config files           -- ``key=value`` lines; blank lines and ``#``
  comments are skipped.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .generate import (
    EVENT_KIND_FROM_NAME,
    EVENT_KIND_NAMES,
    EventKind,
    GrowthTrace,
)
from .graph import AttributedGraph

__all__ = [
    "NetworkFormatError",
    "write_network",
    "read_network",
    "write_trace",
    "read_trace",
    "write_config",
    "read_config",
    "format_value",
]


class NetworkFormatError(ValueError):
    """Input file violates the documented format; message names the line."""


def _err(path, lineno: int, msg: str) -> NetworkFormatError:
    return NetworkFormatError(f"{path}:{lineno}: {msg}")


def write_network(g: AttributedGraph, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>_nodes.csv`` and ``<prefix>_edges.csv``; returns paths."""
    prefix = Path(prefix)
    nodes_path = prefix.parent / (prefix.name + "_nodes.csv")
    edges_path = prefix.parent / (prefix.name + "_edges.csv")
    lines = ["id,class"]
    labels = g.labels
    for i in range(g.n):
        lines.append(f"{i},{labels[i]}")
    nodes_path.write_text("\n".join(lines) + "\n", newline="\n")
    lines = ["source,target"]
    lines += [f"{u},{v}" for u, v in g.edges()]
    edges_path.write_text("\n".join(lines) + "\n", newline="\n")
    return nodes_path, edges_path


def _read_rows(path: Path, header: str) -> list[tuple[int, list[str]]]:
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise NetworkFormatError(f"{path}: file not found") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        raise _err(path, 1, f"expected header {header!r}")
    return [(i + 2, line.split(",")) for i, line in enumerate(lines[1:])]


def _int_field(path, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _err(path, lineno, f"{name} must be an integer, got {raw!r}") from None


def read_network(prefix: str | Path, directed: bool) -> AttributedGraph:
    """Read and validate a node/edge file pair written by :func:`write_network`.

    Violations (missing header, non-dense ids, bad class labels, self-loops,
    duplicates, non-canonical undirected rows) raise
    :class:`NetworkFormatError` naming the offending line.
    """
    prefix = Path(prefix)
    nodes_path = prefix.parent / (prefix.name + "_nodes.csv")
    edges_path = prefix.parent / (prefix.name + "_edges.csv")

    labels: list[int] = []
    for lineno, fields in _read_rows(nodes_path, "id,class"):
        if len(fields) != 2:
            raise _err(nodes_path, lineno, f"expected 2 fields, got {len(fields)}")
        node_id = _int_field(nodes_path, lineno, "id", fields[0])
        cls = _int_field(nodes_path, lineno, "class", fields[1])
        if node_id != len(labels):
            raise _err(nodes_path, lineno, f"ids must be dense and ascending; expected {len(labels)}, got {node_id}")
        if cls not in (0, 1):
            raise _err(nodes_path, lineno, f"class must be 0 or 1, got {cls}")
        labels.append(cls)
    if not labels:
        raise _err(nodes_path, 1, "node file lists no nodes")

    g = AttributedGraph(directed, np.asarray(labels, dtype=np.int8))
    n = g.n
    for lineno, fields in _read_rows(edges_path, "source,target"):
        if len(fields) != 2:
            raise _err(edges_path, lineno, f"expected 2 fields, got {len(fields)}")
        u = _int_field(edges_path, lineno, "source", fields[0])
        v = _int_field(edges_path, lineno, "target", fields[1])
        if not (0 <= u < n and 0 <= v < n):
            raise _err(edges_path, lineno, f"edge ({u},{v}) references a node outside 0..{n - 1}")
        if u == v:
            raise _err(edges_path, lineno, f"self-loop ({u},{v})")
        if not directed and u > v:
            raise _err(edges_path, lineno, f"undirected edge must satisfy source < target, got ({u},{v})")
        if not g.add_edge(u, v):
            raise _err(edges_path, lineno, f"duplicate edge ({u},{v})")
    return g


def write_trace(trace: GrowthTrace, path: str | Path) -> Path:
    """Write the event list as ``source,target,kind`` rows in event order."""
    path = Path(path)
    lines = ["source,target,kind"]
    for s, t, kind in trace.events():
        lines.append(f"{s},{t},{EVENT_KIND_NAMES[kind]}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def read_trace(path: str | Path, g: AttributedGraph) -> GrowthTrace:
    """Read a trace file recorded for the given network.

    The trace inherits labels and directedness from ``g``.  For undirected
    traces the per-arrival edge count m is inferred from the first source id
    (growth starts from a complete graph on 0..m-1); event-structure
    validation happens when the trace is scored.
    """
    srcs: list[int] = []
    tgts: list[int] = []
    kinds: list[int] = []
    path = Path(path)
    for lineno, fields in _read_rows(path, "source,target,kind"):
        if len(fields) != 3:
            raise _err(path, lineno, f"expected 3 fields, got {len(fields)}")
        s = _int_field(path, lineno, "source", fields[0])
        t = _int_field(path, lineno, "target", fields[1])
        if fields[2] not in EVENT_KIND_FROM_NAME:
            raise _err(path, lineno, f"unknown event kind {fields[2]!r}")
        kind = EVENT_KIND_FROM_NAME[fields[2]]
        directed_kind = kind is EventKind.DIRECTED_PICK
        if directed_kind != g.directed:
            raise _err(path, lineno, f"event kind {fields[2]!r} does not match graph directedness")
        if not (0 <= s < g.n and 0 <= t < g.n):
            raise _err(path, lineno, f"event ({s},{t}) references a node outside 0..{g.n - 1}")
        srcs.append(s)
        tgts.append(t)
        kinds.append(int(kind))
    if not srcs:
        raise _err(path, 1, "trace file lists no events")
    m = None if g.directed else srcs[0]
    return GrowthTrace(
        directed=g.directed,
        labels=g.labels,
        sources=np.asarray(srcs, dtype=np.int64),
        targets=np.asarray(tgts, dtype=np.int64),
        kinds=np.asarray(kinds, dtype=np.int8),
        m=m,
    )


def format_value(value) -> str:
    """Canonical text form used in config files and report tables."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # builtin-float repr; np.float64 is a float subclass whose own repr
        # carries a type wrapper
        return repr(float(value))
    return str(value)


def write_config(path: str | Path, values: dict) -> Path:
    """Write ``key=value`` lines sorted by key; None values are omitted."""
    path = Path(path)
    lines = [
        f"{k}={format_value(v)}"
        for k, v in sorted(values.items())
        if v is not None
    ]
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def read_config(path: str | Path, allowed_keys=None) -> dict[str, str]:
    """Parse a ``key=value`` config file into a string dict.

    Unknown keys raise when ``allowed_keys`` is given; duplicate keys raise
    always.  Values stay strings; the consumer applies flag-level parsing.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise NetworkFormatError(f"{path}: file not found") from None
    out: dict[str, str] = {}
    for i, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _err(path, i, f"expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if allowed_keys is not None and key not in allowed_keys:
            raise _err(path, i, f"unknown config key {key!r}")
        if key in out:
            raise _err(path, i, f"duplicate config key {key!r}")
        out[key] = value
    return out
