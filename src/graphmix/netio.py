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

The node, edge and trace readers take one of two paths to the same
result.  A file as graphmix writes it -- the expected header, then one or
more LF-terminated rows of the header's width, each field 1 to 18 ASCII
digits (a trace's last field one of the kind names) -- is parsed by numpy
in a few passes over its bytes.  Those passes find every separator and
check the form: an empty or 19-digit field, a blank line, a missing final
LF, a kind that is not a name or any other byte sends the file to the
line-naming reader.  The values are built one digit column at a time, and
the kind fields as long as a kind name are compared with it byte by byte,
one array pass per offset.  The line-naming reader splits and
converts every field in Python and is the only code that words a format
error.  On text of the plain form, Python's ``int()`` reads the same
numbers, so both paths accept exactly the same files and report exactly
the same errors.

The network and trace writers are the readers' mirror: numpy builds the
rows' bytes, one block of rows at a time.  A block holds each integer
column's right-aligned ASCII digits, one digit place per array row, with
a blank byte above a value's first digit, then the comma and row tail
(an LF, or a trace's ``,<kind name>`` and LF, looked up by kind code).  Its
transpose without the blank bytes is the text, the bytes that one
f-string per row would give.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .generate import (
    EVENT_KIND_FROM_NAME,
    EVENT_KIND_NAMES,
    EventKind,
    GrowthTrace,
    is_growth_layout,
    rebuild_graph,
)
from .graph import AttributedGraph, EdgeError

__all__ = [
    "NetworkFormatError",
    "write_network",
    "read_network",
    "write_trace",
    "read_trace",
    "write_config",
    "read_config",
]


class NetworkFormatError(ValueError):
    """Input file violates the documented format; message names the line."""


def _err(path, lineno: int, msg: str) -> NetworkFormatError:
    return NetworkFormatError(f"{path}:{lineno}: {msg}")


def _network_paths(prefix: str | Path) -> tuple[Path, Path]:
    """The ``<prefix>_nodes.csv`` and ``<prefix>_edges.csv`` paths of a network."""
    prefix = Path(prefix)
    return prefix.parent / (prefix.name + "_nodes.csv"), prefix.parent / (prefix.name + "_edges.csv")


def write_network(g: AttributedGraph, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>_nodes.csv`` and ``<prefix>_edges.csv``; returns paths.

    ``prefix`` is split into its directory and its last name, and the files
    go in that directory: ``"out/run"`` writes ``out/run_nodes.csv``.  The
    directory must exist.  pathlib drops an empty or ``.`` last part, so
    ``"out/"`` and ``"out/."`` write ``out_nodes.csv`` beside ``out``.
    """
    nodes_path, edges_path = _network_paths(prefix)
    _write_rows(nodes_path, "id,class", (np.arange(g.n), g.labels))
    _write_rows(edges_path, "source,target", g.edge_arrays())
    return nodes_path, edges_path


# rows per block of the writer: its temporaries stay a few MB however long the file
_WRITE_BLOCK = 1 << 16
# ",<kind name>\n" by event-kind code, one row each, blank (0) padded to the longest
_KIND_TAILS = np.array([f",{EVENT_KIND_NAMES[kind]}\n".encode() for kind in EventKind])
_KIND_TAILS = _KIND_TAILS.view(np.uint8).reshape(_KIND_TAILS.size, -1)


def _write_rows(path: Path, header: str, columns, kinds: np.ndarray | None = None) -> None:
    """Write ``header``, then row i: entry i of every column, joined by commas, then its tail.

    The tail is ``,<kind name>`` of ``kinds[i]`` and an LF, or an LF alone
    when no kinds are given.  Every column holds non-negative integers.  A
    block of rows is built as a (places x rows) uint8 array: each column's
    right-aligned ASCII digits one place per array row, a blank (0) byte
    above a value's first digit, a comma row between columns, then the
    tail bytes, blank padded.  Its transpose, without the blank bytes, is
    the text of those rows.
    """
    size = len(columns[0])
    tail_width = 1 if kinds is None else _KIND_TAILS.shape[1]
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for lo in range(0, size, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, size)
            values = [np.asarray(col[lo:hi], dtype=np.int64) for col in columns]
            places = [len(str(int(v.max()))) for v in values]
            block = np.empty((sum(places) + len(places) - 1 + tail_width, hi - lo), dtype=np.uint8)
            row = 0
            for i, (v, width) in enumerate(zip(values, places)):
                if i:
                    block[row] = ord(",")
                    row += 1
                units = row + width - 1
                for place in range(units, row - 1, -1):  # v is the value // 10**(units - place)
                    rest = v // 10
                    # the ASCII code of v % 10
                    np.subtract(v, rest * 10 - ord("0"), out=block[place], casting="unsafe")
                    if place < units:
                        block[place] *= v != 0  # blank above the first digit
                    v = rest
                row += width
            if kinds is None:
                block[row] = ord("\n")
            else:
                for k, tail in enumerate(_KIND_TAILS.T):
                    np.take(tail, kinds[lo:hi], out=block[row + k])
            text = block.T.ravel()
            out.write(text[text != 0])


_MAX_DIGITS = 18  # 18 digits always fit in int64


def _read_table(path: Path, header: str, names: tuple[str, ...]) -> np.ndarray:
    """The rows of a file that starts with ``header`` as an int64 array; row i is line i + 2.

    Columns ``names`` hold integers.  A trace's extra last column holds the
    event-kind code, -1 for an unknown name.
    """
    table = _parse_plain(path, header, names)
    return _parse_lines(path, header, names) if table is None else table


def _parse_plain(path: Path, header: str, names: tuple[str, ...]) -> np.ndarray | None:
    """The numpy parse of a file in the form graphmix writes; None for any other file."""
    try:
        data = path.read_bytes()
    except OSError:
        return None  # the line-naming reader words the fault
    head = header.encode() + b"\n"
    if not data.startswith(head):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=len(head))
    width, k = header.count(",") + 1, len(names)
    # every byte below "-" must be a separator: width - 1 commas, then the LF that ends the row
    ends = np.flatnonzero(body < ord("-"))
    if not ends.size or ends.size % width or ends[-1] != body.size - 1:
        return None
    lengths = np.empty_like(ends)  # the bytes between a field's separator and the one before
    lengths[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    ends, lengths = ends.reshape(-1, width), lengths.reshape(-1, width)
    if (body[ends] != np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8)).any():
        return None
    named = 0  # bytes of kind names
    if width > k:
        codes = _kind_codes(body, ends[:, -1], lengths[:, -1])
        if (codes < 0).any():
            return None
        named = int(lengths[:, -1].sum())
    # the separators and kind names are the only bytes that are not digits
    if np.count_nonzero(body < ord("0")) + np.count_nonzero(body > ord("9")) != ends.size + named:
        return None
    lengths = np.ascontiguousarray(lengths[:, :k])
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _MAX_DIGITS:
        return None
    # right-aligned digit columns, most significant first; a field shorter than the column adds a 0
    lengths = lengths.astype(np.uint8)
    pos = ends[:, :k] - longest  # at least 1 - longest: a short first field reads the body's tail, masked out
    del ends  # frees the separator positions before the column loop
    values = np.zeros(pos.shape, dtype=np.int64)
    digits = np.empty(pos.shape, dtype=np.uint8)
    for column in range(longest, 0, -1):
        np.take(body, pos, out=digits)
        digits -= ord("0")
        np.multiply(digits, lengths >= column, out=digits)
        values *= 10
        values += digits
        pos += 1
    return values if width == k else np.column_stack([values, codes])


def _kind_codes(body: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Event-kind codes of the fields of ``body`` that end at ``ends``; -1 for a field that is no kind name.

    A field names a kind when it has the name's length and each of its
    bytes equals the name's byte at that offset.
    """
    codes = np.full(ends.size, -1, dtype=np.int64)
    for kind, name in EVENT_KIND_NAMES.items():
        rows = np.flatnonzero(lengths == len(name))
        at = ends[rows] - len(name)
        match = np.ones(rows.size, dtype=bool)
        for byte in name.encode():
            match &= body[at] == byte
            at += 1
        codes[rows[match]] = kind
    return codes


def _parse_lines(path: Path, header: str, names: tuple[str, ...]) -> np.ndarray:
    """:func:`_read_table` by splitting and converting every field in Python, naming the first fault."""
    rows = _read_rows(path, header)
    table = _int_columns(path, rows, names)
    if header.count(",") + 1 > len(names):
        kinds = np.array([EVENT_KIND_FROM_NAME.get(row[-1], -1) for row in rows], dtype=np.int64)
        table = np.column_stack([table, kinds])
    return table


def _read_rows(path: Path, header: str) -> list[list[str]]:
    """Comma-split rows, each as wide as ``header``, of a file that starts with it; row i is line i + 2."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise NetworkFormatError(f"{path}: file not found") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        raise _err(path, 1, f"expected header {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    short = next((i for i, row in enumerate(rows) if len(row) != width), None)
    if short is not None:
        raise _err(path, short + 2, f"expected {width} fields, got {len(rows[short])}")
    return rows


def _int_columns(path, rows: list[list[str]], names: tuple[str, ...]) -> np.ndarray:
    """The leading ``len(names)`` fields of every row as an int64 array of shape (rows, len(names))."""
    k = len(names)
    fields = [raw for row in rows for raw in row[:k]]
    try:
        return np.array([int(raw) for raw in fields], dtype=np.int64).reshape(-1, k)
    except (ValueError, OverflowError):
        for i, raw in enumerate(fields):  # name the first offending field
            lineno, name = i // k + 2, names[i % k]
            try:
                value = int(raw)
            except ValueError:
                raise _err(path, lineno, f"{name} must be an integer, got {raw!r}") from None
            if value.bit_length() > 63:
                raise _err(path, lineno, f"{name} {raw} does not fit in 64 bits") from None
        raise


def read_network(prefix: str | Path, directed: bool) -> AttributedGraph:
    """Read and validate a node/edge file pair written by :func:`write_network`.

    Violations (missing header, non-dense ids, bad class labels, self-loops,
    duplicates, non-canonical undirected rows) raise
    :class:`NetworkFormatError` naming the offending line.  Field-count and
    integer-parse errors are reported before the other violations.
    """
    nodes_path, edges_path = _network_paths(prefix)

    ids, labels = _read_table(nodes_path, "id,class", ("id", "class")).T
    if not ids.size:
        raise _err(nodes_path, 1, "node file lists no nodes")
    bad = np.flatnonzero((ids != np.arange(ids.size)) | ((labels != 0) & (labels != 1)))
    if bad.size:
        i = int(bad[0])
        if ids[i] != i:
            raise _err(nodes_path, i + 2, f"ids must be dense and ascending; expected {i}, got {ids[i]}")
        raise _err(nodes_path, i + 2, f"class must be 0 or 1, got {labels[i]}")

    edges = _read_table(edges_path, "source,target", ("source", "target"))
    # the graph checks the rows up to the first reversed one, so the earliest bad line is reported
    flipped = np.flatnonzero(edges[:, 0] > edges[:, 1]) if not directed else ()
    stop = int(flipped[0]) + 1 if len(flipped) else len(edges)
    try:
        g = AttributedGraph(directed, labels, edges[:stop])
    except EdgeError as exc:
        raise _err(edges_path, exc.index + 2, exc.reason) from None
    if len(flipped):
        u, v = edges[stop - 1]
        raise _err(edges_path, stop + 1, f"undirected edge must satisfy source < target, got ({u},{v})")
    return g


_TRACE_HEADER = "source,target,kind"


def write_trace(trace: GrowthTrace, path: str | Path) -> Path:
    """Write the event list as ``source,target,kind`` rows in event order."""
    path = Path(path)
    _write_rows(path, _TRACE_HEADER, (trace.sources, trace.targets), trace.kinds)
    return path


def read_trace(path: str | Path, g: AttributedGraph) -> GrowthTrace:
    """Read a trace file recorded for the given network.

    The trace inherits labels and directedness from ``g``.  An undirected
    trace is a growth trace, with per-arrival edge count m equal to its first
    source id, when sources m..n-1 follow in order with exactly m events each
    and ``g`` has the m(m-1)/2 edges of the start clique on 0..m-1 besides
    them.  Any other undirected trace is read as order-assumed (``m=None``,
    replayed from an empty start), the form
    :func:`graphmix.inference.trace_from_graph` builds.  The reader makes
    the checks that name a line of the file; the trace's own are those of
    :class:`GrowthTrace`.  A trace whose replay does not rebuild ``g``
    exactly is rejected.
    """
    path = Path(path)
    table = _read_table(path, _TRACE_HEADER, ("source", "target"))
    if not len(table):
        raise _err(path, 1, "trace file lists no events")
    events, kinds = table[:, :2], table[:, 2]
    wrong_kind = (kinds == EventKind.DIRECTED_PICK) != g.directed
    bad = np.flatnonzero((kinds < 0) | wrong_kind | ((events < 0) | (events >= g.n)).any(axis=1))
    if bad.size:
        i = int(bad[0])
        if kinds[i] < 0:  # only the line-naming reader lets an unknown name through; quote it
            raise _err(path, i + 2, f"unknown event kind {_read_rows(path, _TRACE_HEADER)[i][2]!r}")
        if wrong_kind[i]:
            name = EVENT_KIND_NAMES[EventKind(kinds[i])]
            raise _err(path, i + 2, f"event kind {name!r} does not match graph directedness")
        raise _err(path, i + 2, f"event ({events[i, 0]},{events[i, 1]}) references a node outside 0..{g.n - 1}")
    sources, targets = events.T
    m = int(sources[0])
    # an order-assumed rebuild has no start clique
    growth = not g.directed and len(sources) + m * (m - 1) // 2 == g.num_edges and is_growth_layout(sources, g.n, m)
    trace = GrowthTrace(g.directed, g.labels, sources, targets, kinds, m=m if growth else None,
                        order_assumed=not (growth or g.directed))
    try:
        same = rebuild_graph(trace) == g
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    if not same:
        raise NetworkFormatError(f"{path}: trace does not rebuild the network it was read with")
    return trace


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
