import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphmix.netio
from graphmix.generate import EventKind, gen_directed, gen_pah
from graphmix.graph import AttributedGraph
from graphmix.inference import fit_model, replay_loglik, trace_from_graph
from graphmix.netio import (
    NetworkFormatError,
    _parse_lines,
    _parse_plain,
    _read_table,
    format_value,
    read_config,
    read_network,
    read_trace,
    write_config,
    write_network,
    write_trace,
)
from graphmix.rng import make_rng, sample_without_replacement

from helpers import random_graph, reference_write_network, reference_write_trace


def _roundtrip(g, tmp_path, name="net"):
    prefix = tmp_path / name
    write_network(g, prefix)
    return read_network(prefix, directed=g.directed)


# -- network files -----------------------------------------------------------------


def test_network_roundtrip_undirected(tmp_path):
    g = random_graph(25, directed=False, p=0.15, rng=make_rng(0))
    assert _roundtrip(g, tmp_path) == g


def test_network_roundtrip_directed(tmp_path):
    g = random_graph(25, directed=True, p=0.08, rng=make_rng(1))
    assert _roundtrip(g, tmp_path) == g


def test_network_roundtrip_generated(tmp_path):
    g, _ = gen_pah(120, 2, 0.3, 0.7, seed=5)
    assert _roundtrip(g, tmp_path) == g
    d, _ = gen_directed("dpah", 80, 0.01, 0.3, 0.8, seed=5)
    assert _roundtrip(d, tmp_path, "dnet") == d


def test_undirected_edges_written_canonically(tmp_path):
    g = AttributedGraph(False, [0, 1, 0], [(2, 0), (1, 0)])  # stored as (0, 2) and (0, 1)
    write_network(g, tmp_path / "c")
    text = (tmp_path / "c_edges.csv").read_text()
    assert text == "source,target\n0,1\n0,2\n"


def test_edgeless_graph_writes_header_only_edge_file(tmp_path):
    g = AttributedGraph(False, [0, 1], [])
    write_network(g, tmp_path / "e")
    assert (tmp_path / "e_edges.csv").read_text() == "source,target\n"
    assert _roundtrip(g, tmp_path, "e") == g


def test_files_use_lf_and_trailing_newline(tmp_path):
    g = random_graph(10, directed=False, p=0.3, rng=make_rng(2))
    nodes, edges = write_network(g, tmp_path / "lf")
    for path in (nodes, edges):
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_rewrites_are_byte_identical(tmp_path):
    g = random_graph(15, directed=True, p=0.1, rng=make_rng(3))
    write_network(g, tmp_path / "a")
    write_network(g, tmp_path / "b")
    assert (tmp_path / "a_nodes.csv").read_bytes() == (tmp_path / "b_nodes.csv").read_bytes()
    assert (tmp_path / "a_edges.csv").read_bytes() == (tmp_path / "b_edges.csv").read_bytes()


def _write_pair(tmp_path, nodes, edges):
    (tmp_path / "x_nodes.csv").write_text(nodes)
    (tmp_path / "x_edges.csv").write_text(edges)
    return tmp_path / "x"


@pytest.mark.parametrize(
    "nodes,edges,fragment",
    [
        ("id;class\n0,0\n", "source,target\n", "expected header"),
        ("id,class\n0,2\n", "source,target\n", "class must be 0 or 1"),
        ("id,class\n0,0\n2,0\n", "source,target\n", "dense and ascending"),
        ("id,class\nzero,0\n", "source,target\n", "must be an integer"),
        ("id,class\n0,0,9\n", "source,target\n", "expected 2 fields"),
        ("id,class\n", "source,target\n", "no nodes"),
        ("id,class\n0,0\n1,1\n", "source,target\n1,1\n", "self-loop"),
        ("id,class\n0,0\n1,1\n", "source,target\n1,0\n", "source < target"),
        ("id,class\n0,0\n1,1\n", "source,target\n0,1\n0,1\n", "duplicate edge"),
        ("id,class\n0,0\n1,1\n", "source,target\n0,5\n", "outside 0..1"),
        ("id,class\n0,0\n1,1\n", "header\n", "expected header"),
    ],
)
def test_malformed_network_files_are_rejected(tmp_path, nodes, edges, fragment):
    prefix = _write_pair(tmp_path, nodes, edges)
    with pytest.raises(NetworkFormatError) as exc:
        read_network(prefix, directed=False)
    assert fragment in str(exc.value)


def test_error_message_names_file_and_line(tmp_path):
    prefix = _write_pair(tmp_path, "id,class\n0,0\n1,3\n", "source,target\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_network(prefix, directed=False)
    msg = str(exc.value)
    assert "x_nodes.csv:3:" in msg


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(NetworkFormatError) as exc:
        read_network(tmp_path / "nope", directed=False)
    assert "file not found" in str(exc.value)


def test_directed_rows_may_go_both_ways(tmp_path):
    prefix = _write_pair(
        tmp_path, "id,class\n0,0\n1,1\n", "source,target\n0,1\n1,0\n"
    )
    g = read_network(prefix, directed=True)
    assert g.num_edges == 2


_FAULTS = ("not-an-int", "field-count", "outside", "self-loop", "reversed", "duplicate")


@given(st.data(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_injected_edge_fault_is_reported_with_its_line(tmp_path_factory, data, directed, seed):
    g = random_graph(8, directed, 0.4, make_rng(seed))
    prefix = tmp_path_factory.mktemp("fault") / "f"
    _, edges_path = write_network(g, prefix)
    header, *lines = edges_path.read_text().splitlines()
    assume(lines)
    fault = data.draw(st.sampled_from([f for f in _FAULTS if not (directed and f == "reversed")]))
    i = data.draw(st.integers(0, len(lines) - 1))
    u, v = map(int, lines[i].split(","))
    if fault == "not-an-int":
        token = data.draw(st.sampled_from(["x", "1.5", "", " "]))
        lines[i], want = f"{u},{token}", f"target must be an integer, got {token!r}"
    elif fault == "field-count":
        lines[i], want = data.draw(st.sampled_from([(f"{u}", "expected 2 fields, got 1"),
                                                    (f"{u},{v},{v}", "expected 2 fields, got 3")]))
    elif fault == "outside":
        a, b = data.draw(st.sampled_from([(u, g.n + v), (-1 - u, v)]))
        lines[i], want = f"{a},{b}", f"edge ({a},{b}) references a node outside 0..{g.n - 1}"
    elif fault == "self-loop":
        lines[i], want = f"{u},{u}", f"self-loop ({u},{u})"
    elif fault == "reversed":
        lines[i], want = f"{v},{u}", f"undirected edge must satisfy source < target, got ({v},{u})"
    else:  # a copy of line i further down names the copy's line
        j = data.draw(st.integers(i + 1, len(lines)))
        lines.insert(j, lines[i])
        i, want = j, f"duplicate edge ({u},{v})"
    edges_path.write_text("\n".join([header, *lines]) + "\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_network(prefix, directed)
    assert str(exc.value) == f"{edges_path}:{i + 2}: {want}"


# -- the numpy parse and the line-naming reader -------------------------------------

_KIND_NAMES = ("pah-pick", "tc-pick", "fallback-uniform", "directed-pick")
_TABLES = {  # header: (integer columns, the regex of exactly the plain form of such a file)
    "id,class": (("id", "class"), r"id,class\n(?:[0-9]{1,18},[0-9]{1,18}\n)+"),
    "source,target": (("source", "target"), r"source,target\n(?:[0-9]{1,18},[0-9]{1,18}\n)+"),
    "source,target,kind": (
        ("source", "target"),
        rf"source,target,kind\n(?:[0-9]{{1,18}},[0-9]{{1,18}},(?:{'|'.join(_KIND_NAMES)})\n)+",
    ),
}
_ODD_FIELDS = (
    "", "-1", "+3", "1_0", " 2", "3 ", "4\r", "\u0663", "x", "1.5", "0x1",
    "123456789012345678", "1234567890123456789", "9223372036854775807", "98765432109876543210",
    "0000000000000000012",
)
# every kind name with one byte changed, at each offset in turn: each byte must be compared
_MISSPELT_KINDS = tuple(name[:i] + "x" + name[i + 1:] for name in _KIND_NAMES for i in range(len(name)))
_ODD_KINDS = ("", "teleport", "PAH-PICK", "pah-pick ", "pah-pick\r", "0", "3", *_MISSPELT_KINDS)


def _outcome(read, *args):
    try:
        return read(*args)
    except NetworkFormatError as exc:
        return str(exc)


@st.composite
def _table_text(draw, header):
    """A file in the plain form with up to two faults, each of which int() may or may not accept."""
    width = header.count(",") + 1
    kinds = header.endswith("kind")
    # short ids, and any run of 1 to 18 digits, leading zeros included
    plain = st.one_of(st.integers(0, 999).map(str), st.from_regex(r"[0-9]{1,18}", fullmatch=True))
    rows = draw(st.lists(st.lists(plain, min_size=width, max_size=width), max_size=5))
    if kinds:
        for row in rows:
            row[-1] = draw(st.sampled_from(_KIND_NAMES))
    head, end = header, "\n"
    for fault in draw(st.lists(st.sampled_from(["field", "kind", "width", "widths", "blank", "head", "end"]),
                               max_size=2)):
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        row = rows[i] if rows else []
        if fault == "field" and len(row) > kinds:
            row[draw(st.integers(0, len(row) - 1 - kinds))] = draw(st.sampled_from(_ODD_FIELDS))
        elif fault == "kind" and row and kinds:
            row[-1] = draw(st.sampled_from(_ODD_KINDS))
        elif fault == "width" and rows:
            rows[i] = row[:-1] if draw(st.booleans()) else row + [draw(plain)]
        elif fault == "widths":  # every row one field short, or one too many
            rows = [row[:-1] for row in rows] if draw(st.booleans()) else [row + ["0"] for row in rows]
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault == "head":
            head = draw(st.sampled_from([header + " ", header.upper(), "x"]))
        elif fault == "end":
            end = draw(st.sampled_from(["", "\r\n", "\n\n"]))
    return "\n".join([head, *(",".join(row) for row in rows)]) + end


@given(st.data(), st.sampled_from(sorted(_TABLES)))
@settings(max_examples=300, deadline=None)
def test_numpy_parse_agrees_with_the_line_naming_reader(tmp_path_factory, data, header):
    names, plain_form = _TABLES[header]
    text = data.draw(_table_text(header))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode())
    fast = _parse_plain(path, header, names)
    slow = _outcome(_parse_lines, path, header, names)
    # the numpy parse takes exactly the plain files, and reads them as the line reader does
    assert (fast is not None) == bool(re.fullmatch(plain_form, text))
    if fast is not None:
        assert isinstance(slow, np.ndarray) and fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
    combined = _outcome(_read_table, path, header, names)
    if isinstance(slow, str):
        assert combined == slow
    else:
        assert np.array_equal(combined, slow) and combined.shape == slow.shape


@pytest.mark.parametrize(
    "edges,want",
    [
        ("source,target\n", []),  # header only: an edgeless graph
        ("source,target\n0,1\n1,2", [(0, 1), (1, 2)]),  # no final LF
        ("source,target\n0,1\n\n1,2\n", "3: expected 2 fields, got 1"),  # a blank line
    ],
    ids=["header-only", "no-final-lf", "blank-line"],
)
def test_unplain_edge_files_take_the_line_reader(tmp_path, edges, want):
    prefix = _write_pair(tmp_path, "id,class\n0,0\n1,1\n2,0\n", edges)
    assert _parse_plain(tmp_path / "x_edges.csv", "source,target", ("source", "target")) is None
    got = _outcome(read_network, prefix, False)
    if isinstance(want, str):
        assert got == f"{tmp_path / 'x_edges.csv'}:{want}"
    else:
        assert got == AttributedGraph(False, [0, 1, 0], want)


@pytest.mark.parametrize(
    "header,text",
    [
        ("id,class", "id,class\n1234567890123456789,0\n"),  # fits in int64, but has 19 digits
        ("id,class", "id,class\n0000000000000000000,0\n"),
        ("source,target", "source,target\n\n0,1\n"),  # a blank first row
        ("source,target", "source,target\n0,1,2\n1,2,0\n"),  # every row too wide
        ("source,target,kind", "source,target,kind\n1,0,0\n"),  # a kind written as its code
        ("source,target,kind", "source,target,kind\n1,0,pah-pick\n2,0,3\n"),
        ("source,target,kind", "source,target,kind\n1,0,tc-pic\n"),  # a kind name cut short
        *(("source,target,kind", f"source,target,kind\n1,0,pah-pick\n2,0,{kind}\n") for kind in _MISSPELT_KINDS),
    ],
)
def test_near_plain_files_take_the_line_reader(tmp_path, header, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    names = ("id", "class") if header == "id,class" else ("source", "target")
    assert _parse_plain(path, header, names) is None


@pytest.mark.parametrize(
    "header,text",
    [
        ("id,class", "id,class\n0,0\n"),  # one row
        ("source,target", "source,target\n999999999999999999,123456789012345678\n"),  # 18 digits
        ("source,target", "source,target\n007,000000000000000001\n0000,1\n"),  # leading zeros
        ("source,target,kind", "source,target,kind\n3,0,pah-pick\n"),  # one row
        ("source,target,kind",
         "source,target,kind\n3,0,pah-pick\n4,3,tc-pick\n5,1,fallback-uniform\n6,2,directed-pick\n"),
    ],
    ids=["one-row", "18-digits", "leading-zeros", "one-trace-row", "every-kind"],
)
def test_plain_edge_cases_take_the_numpy_parse(tmp_path, header, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    names = ("id", "class") if header == "id,class" else ("source", "target")
    fast = _parse_plain(path, header, names)
    assert fast is not None and fast.dtype == np.int64
    assert np.array_equal(fast, _parse_lines(path, header, names))


def test_written_files_take_the_numpy_parse(tmp_path):
    for g, trace in (gen_pah(60, 2, 0.3, 0.8, seed=7), gen_directed("dpah", 40, 0.05, 0.3, 0.7, seed=8)):
        nodes, edges = write_network(g, tmp_path / "w")
        path = write_trace(trace, tmp_path / "w_trace.csv")
        assert _parse_plain(nodes, "id,class", ("id", "class")) is not None
        assert _parse_plain(edges, "source,target", ("source", "target")) is not None
        table = _parse_plain(path, "source,target,kind", ("source", "target"))
        assert np.array_equal(table, np.column_stack([trace.sources, trace.targets, trace.kinds]))


# -- trace files --------------------------------------------------------------------


def test_trace_roundtrip_undirected(tmp_path):
    g, trace = gen_pah(60, 2, 0.3, 0.8, seed=7)
    write_network(g, tmp_path / "t")
    write_trace(trace, tmp_path / "t_trace.csv")
    g2 = read_network(tmp_path / "t", directed=False)
    t2 = read_trace(tmp_path / "t_trace.csv", g2)
    assert np.array_equal(t2.sources, trace.sources)
    assert np.array_equal(t2.targets, trace.targets)
    assert np.array_equal(t2.kinds, trace.kinds)
    assert t2.m == trace.m == 2
    assert replay_loglik(t2, "pah", h=0.8) == replay_loglik(trace, "pah", h=0.8)


def test_trace_roundtrip_directed(tmp_path):
    g, trace = gen_directed("dh", 40, 0.02, 0.3, 0.7, seed=8)
    write_network(g, tmp_path / "d")
    write_trace(trace, tmp_path / "d_trace.csv")
    g2 = read_network(tmp_path / "d", directed=True)
    t2 = read_trace(tmp_path / "d_trace.csv", g2)
    assert np.array_equal(t2.sources, trace.sources)
    assert t2.m is None
    assert replay_loglik(t2, "dh", h=0.7) == replay_loglik(trace, "dh", h=0.7)


def test_trace_kind_must_match_directedness(tmp_path):
    und = AttributedGraph(False, [0, 1, 1], [(0, 1)])
    dir_ = AttributedGraph(True, [0, 1, 1], [(1, 0)])
    p = tmp_path / "tr.csv"
    p.write_text("source,target,kind\n1,0,directed-pick\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_trace(p, und)
    assert "does not match graph directedness" in str(exc.value)
    p.write_text("source,target,kind\n1,0,pah-pick\n")
    with pytest.raises(NetworkFormatError):
        read_trace(p, dir_)


def test_trace_rejects_unknown_kind_and_bad_rows(tmp_path):
    g = AttributedGraph(False, [0, 1, 1], [(0, 1)])
    p = tmp_path / "tr.csv"
    p.write_text("source,target,kind\n1,0,teleport\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_trace(p, g)
    assert "unknown event kind" in str(exc.value) and "tr.csv:2:" in str(exc.value)
    p.write_text("source,target,kind\n1,0\n")
    with pytest.raises(NetworkFormatError):
        read_trace(p, g)
    p.write_text("source,target,kind\n9,0,pah-pick\n")
    with pytest.raises(NetworkFormatError):
        read_trace(p, g)
    p.write_text("source,target,kind\n")
    with pytest.raises(NetworkFormatError):
        read_trace(p, g)


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: gen_pah(60, 2, 0.3, 0.8, seed=seed),
        lambda seed: gen_directed("dh", 40, 0.02, 0.3, 0.7, seed=seed),
    ],
)
def test_trace_must_rebuild_its_network(tmp_path, generate):
    g, trace = generate(7)
    write_trace(generate(8)[1], tmp_path / "other_trace.csv")
    with pytest.raises(NetworkFormatError) as exc:
        read_trace(tmp_path / "other_trace.csv", g)
    assert "trace does not rebuild the network" in str(exc.value)

    header, *lines = write_trace(trace, tmp_path / "t_trace.csv").read_text().splitlines()
    (tmp_path / "short_trace.csv").write_text("\n".join([header, *lines[:-1]]) + "\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_trace(tmp_path / "short_trace.csv", g)
    assert "trace does not rebuild the network" in str(exc.value)

    (tmp_path / "dup_trace.csv").write_text("\n".join([header, *lines[:-1], lines[0]]) + "\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_trace(tmp_path / "dup_trace.csv", g)
    assert "trace replays an invalid edge: duplicate edge" in str(exc.value)


def _two_lower_neighbours_graph(n=80):
    # nodes 0 and 1 are not adjacent and every later node has two lower neighbours, so
    # the order-assumed trace looks like m=2 growth without the start clique
    rng = make_rng(5)
    edges = [(v, int(u)) for v in range(2, n) for u in sample_without_replacement(rng, v, 2)]
    return AttributedGraph(False, (np.arange(n) % 3 == 0).astype(int), edges)


@pytest.mark.parametrize(
    "graph",
    [lambda: gen_pah(200, 2, 0.3, 0.8, seed=1)[0], _two_lower_neighbours_graph],
    ids=["pah", "first-source-2"],
)
def test_order_assumed_trace_roundtrips(tmp_path, graph):
    g = graph()
    synthesized = trace_from_graph(g)
    read = read_trace(write_trace(synthesized, tmp_path / "t_trace.csv"), g)
    assert read.m is None and read.order_assumed
    assert np.array_equal(read.sources, synthesized.sources)
    assert np.array_equal(read.targets, synthesized.targets)
    assert fit_model(read, "pah").h_hat == fit_model(synthesized, "pah").h_hat


# -- the byte writer ------------------------------------------------------------------

# the place boundaries of the digit writer, its widest value and random values
_IDS = st.one_of(
    st.sampled_from([0, 1, 9, 10, 99, 100, 999, 1000, 10**17 - 1, 10**17, 10**18 - 1]),
    st.integers(0, 10**18 - 1),
    st.integers(0, 10**4),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_IDS, _IDS, st.sampled_from(list(EventKind))), max_size=40),
    block=st.sampled_from([1, 3, 1 << 16]),
)
def test_trace_writer_gives_the_reference_bytes(tmp_path_factory, rows, block):
    # the rows write_trace writes, driven directly: no trace holds ids up to 10**18 on one
    # node, nor kinds of both families
    sources = np.array([row[0] for row in rows], dtype=np.int64)
    targets = np.array([row[1] for row in rows], dtype=np.int64)
    kinds = np.array([row[2] for row in rows], dtype=np.int8)
    path = tmp_path_factory.mktemp("w") / "t_trace.csv"
    with mock.patch.object(graphmix.netio, "_WRITE_BLOCK", block):  # block edges inside the rows
        graphmix.netio._write_rows(path, graphmix.netio._TRACE_HEADER, (sources, targets), kinds)
    assert path.read_bytes() == reference_write_trace(sources, targets, kinds)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    directed=st.booleans(),
    p=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 7, 1 << 16]),
)
def test_network_writer_gives_the_reference_bytes(tmp_path_factory, n, directed, p, seed, block):
    g = random_graph(n, directed, p, make_rng(seed))
    prefix = tmp_path_factory.mktemp("w") / "net"
    with mock.patch.object(graphmix.netio, "_WRITE_BLOCK", block):
        nodes, edges = write_network(g, prefix)
    assert (nodes.read_bytes(), edges.read_bytes()) == reference_write_network(g)


# -- config files -------------------------------------------------------------------


def test_format_value_canonical_forms():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.5) == "0.5"
    assert format_value(1e-06) == "1e-06"
    assert format_value(7) == "7"
    assert format_value("pah") == "pah"


def test_config_roundtrip_sorted_and_none_dropped(tmp_path):
    p = tmp_path / "run.cfg"
    write_config(p, {"model": "pah", "h": 0.8, "n": 500, "ptc": None, "quiet": False})
    assert p.read_text() == "h=0.8\nmodel=pah\nn=500\nquiet=false\n"
    got = read_config(p)
    assert got == {"h": "0.8", "model": "pah", "n": "500", "quiet": "false"}


def test_config_comments_blanks_and_spacing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# settings\n\n  h = 0.8  \nmodel=pah\n")
    assert read_config(p) == {"h": "0.8", "model": "pah"}


def test_config_rejections(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("h=0.8\nbogus=1\n")
    with pytest.raises(NetworkFormatError) as exc:
        read_config(p, allowed_keys={"h"})
    assert "unknown config key" in str(exc.value) and ":2:" in str(exc.value)
    p.write_text("h=0.8\nh=0.9\n")
    with pytest.raises(NetworkFormatError):
        read_config(p)
    p.write_text("just a line\n")
    with pytest.raises(NetworkFormatError):
        read_config(p)
    with pytest.raises(NetworkFormatError):
        read_config(tmp_path / "absent.cfg")
