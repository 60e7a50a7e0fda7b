"""Checks of the CLI outputs against the benchmark's own computations.

Every check reads the files a CLI call wrote and recomputes what they must
hold with numpy/scipy code of its own: structure from the model's
definition, likelihoods by a vectorised replay of the trace, rankings and
Gini from the edge list, sampling and spreading invariants, and the
closed-form threshold cascade on a ring lattice.  Nothing is compared
against a stored copy of earlier output.  A failed check raises
:class:`CheckError`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

VISIBILITY_KS = np.arange(5, 101, 5)


class CheckError(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reading the program's files
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_labels(prefix: Path) -> np.ndarray:
    arr = np.loadtxt(f"{prefix}_nodes.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    expect(np.array_equal(arr[:, 0], np.arange(arr.shape[0])), "node ids are not dense and ascending")
    expect(np.isin(arr[:, 1], (0, 1)).all(), "class labels outside {0, 1}")
    return arr[:, 1]


def read_edges(prefix: Path) -> np.ndarray:
    arr = np.loadtxt(f"{prefix}_edges.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return arr.reshape(-1, 2)


def read_trace(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sources, targets, kind names) of a trace file, in event order."""
    with open(path) as fh:
        expect(fh.readline() == "source,target,kind\n", f"{path}: bad trace header")
        cols = [line.rstrip("\n").split(",") for line in fh]
    src = np.fromiter((int(c[0]) for c in cols), dtype=np.int64, count=len(cols))
    tgt = np.fromiter((int(c[1]) for c in cols), dtype=np.int64, count=len(cols))
    kinds = np.array([c[2] for c in cols])
    return src, tgt, kinds


def write_network(prefix: Path, labels: np.ndarray, edges: np.ndarray) -> None:
    """Write a node/edge file pair in the program's documented format."""
    Path(f"{prefix}_nodes.csv").write_text(
        "id,class\n" + "".join(f"{i},{c}\n" for i, c in enumerate(labels.tolist()))
    )
    Path(f"{prefix}_edges.csv").write_text(
        "source,target\n" + "".join(f"{u},{v}\n" for u, v in edges.tolist())
    )


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def _check_edge_list(edges: np.ndarray, n: int, directed: bool) -> None:
    expect(((edges >= 0) & (edges < n)).all(), "edge endpoint outside 0..n-1")
    expect((edges[:, 0] != edges[:, 1]).all(), "self-loop in the edge list")
    if not directed:
        expect((edges[:, 0] < edges[:, 1]).all(), "undirected edge not stored as source < target")
    key = edges[:, 0] * n + edges[:, 1]
    expect((np.diff(key) > 0).all(), "edge list not strictly sorted (unsorted or duplicate rows)")


def _check_labels(labels: np.ndarray, n: int, f_m: float) -> None:
    expect(labels.size == n, f"{labels.size} nodes, expected {n}")
    expect(int(labels.sum()) == round(n * f_m), f"minority count {int(labels.sum())} != round(n*f_m)")


def check_undirected_growth(prefix: Path, n: int, m: int, f_m: float) -> dict:
    labels = read_labels(prefix)
    _check_labels(labels, n, f_m)
    edges = read_edges(prefix)
    expect(edges.shape[0] == m * (m - 1) // 2 + (n - m) * m, f"{edges.shape[0]} edges, expected C(m,2)+(n-m)m")
    _check_edge_list(edges, n, directed=False)
    src, tgt, kinds = read_trace(Path(f"{prefix}_trace.csv"))
    expect(np.array_equal(src, np.repeat(np.arange(m, n), m)), "trace is not m events per arrival in order")
    expect((tgt < src).all(), "trace target not below its source")
    expect(np.isin(kinds, ("pah-pick", "tc-pick", "fallback-uniform")).all(), "unknown undirected event kind")
    clique = np.array([(i, j) for i in range(m) for j in range(i + 1, m)], dtype=np.int64).reshape(-1, 2)
    rebuilt = np.concatenate([clique, np.column_stack([tgt, src])])
    rebuilt = rebuilt[np.lexsort((rebuilt[:, 1], rebuilt[:, 0]))]
    expect(np.array_equal(rebuilt, edges), "seed clique plus trace does not rebuild the edge set")
    return {"labels": labels, "src": src, "tgt": tgt, "kinds": kinds, "edges": edges}


def check_directed_growth(prefix: Path, n: int, d: float, f_m: float) -> dict:
    labels = read_labels(prefix)
    _check_labels(labels, n, f_m)
    edges = read_edges(prefix)
    expect(edges.shape[0] == round(d * n * (n - 1)), f"{edges.shape[0]} edges, expected round(d*n*(n-1))")
    _check_edge_list(edges, n, directed=True)
    src, tgt, kinds = read_trace(Path(f"{prefix}_trace.csv"))
    expect((kinds == "directed-pick").all(), "directed trace with a non-directed event kind")
    order = np.lexsort((tgt, src))
    expect(np.array_equal(np.column_stack([src, tgt])[order], edges), "trace does not rebuild the edge set")
    return {"labels": labels, "src": src, "tgt": tgt, "kinds": kinds, "edges": edges}


# ---------------------------------------------------------------------------
# likelihoods, by a vectorised replay of the trace
# ---------------------------------------------------------------------------

def _group_rank(keys: np.ndarray) -> np.ndarray:
    """For each position, how many earlier positions share its key."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    rank = np.arange(keys.size) - np.searchsorted(sk, sk, side="left")
    out = np.empty(keys.size, dtype=np.int64)
    out[order] = rank
    return out


def undirected_loglik(labels, m, src, tgt, kinds, h=None) -> tuple[float, int]:
    """(logL, scored events) of an undirected growth trace under pa (h None) or pah(h).

    Degrees are snapshots taken before each arrival; the eligible mass of
    an arrival's later picks excludes the targets it already chose.
    """
    n = labels.size
    arrivals = n - m
    deg_t = np.where(tgt < m, m - 1, m) + _group_rank(tgt)  # each arrival picks a target at most once
    cls_t = labels[tgt]
    # class degree totals over the nodes that arrived before each source
    minority_arrivals = np.concatenate([[0], np.cumsum(labels[m:n - 1] == 1)])
    picks1 = np.concatenate([[0], np.cumsum((cls_t == 1).reshape(arrivals, m).sum(axis=1))[:-1]])
    picks_all = m * np.arange(arrivals)
    clique1 = (m - 1) * int(labels[:m].sum())
    clique0 = (m - 1) * (m - int(labels[:m].sum()))
    tot1 = clique1 + m * minority_arrivals + picks1
    tot0 = clique0 + m * (np.arange(arrivals) - minority_arrivals) + (picks_all - picks1)
    tot = np.stack([np.repeat(tot0, m), np.repeat(tot1, m)]).astype(np.float64)
    # degree mass already chosen earlier in the same arrival, by class
    dm = deg_t.reshape(arrivals, m).astype(np.float64)
    c1 = (cls_t == 1).reshape(arrivals, m)
    used1 = np.cumsum(dm * c1, axis=1) - dm * c1
    used0 = np.cumsum(dm * ~c1, axis=1) - dm * ~c1
    s0 = tot[0] - used0.ravel()
    s1 = tot[1] - used1.ravel()
    n_elig = (src - np.tile(np.arange(m), arrivals)).astype(np.float64)
    cls_s = labels[src]
    if h is None:
        w = deg_t.astype(np.float64)
        den = s0 + s1
    else:
        same = cls_t == cls_s
        w = np.where(same, h, 1.0 - h) * deg_t
        den = np.where(cls_s == 1, h * s1 + (1.0 - h) * s0, h * s0 + (1.0 - h) * s1)
    fallback = kinds == "fallback-uniform"
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(den > 0.0, np.log(w) - np.log(den), -np.log(n_elig))
    logp = np.where(fallback, -np.log(n_elig), logp)
    return float(logp.sum()), int((~fallback).sum())


def dh_loglik(labels, src, tgt, h: float) -> float:
    """logL of a directed trace under dh(h): class affinity over admissible targets."""
    n1 = int(labels.sum())
    n_class = np.array([labels.size - n1, n1])
    cls_s = labels[src]
    same = labels[tgt] == cls_s
    # earlier picks by the same source, split by whether the target shared its class
    order = np.argsort(src, kind="stable")
    ss = src[order]
    start = np.searchsorted(ss, ss, side="left")
    same_sorted = same[order].astype(np.int64)
    cum = np.cumsum(same_sorted) - same_sorted
    prior_same = np.empty(src.size, dtype=np.int64)
    prior_same[order] = cum - cum[start]
    prior_all = _group_rank(src)
    cnt_same = n_class[cls_s] - 1 - prior_same
    cnt_diff = n_class[1 - cls_s] - (prior_all - prior_same)
    with np.errstate(divide="ignore"):
        logp = np.log(np.where(same, h, 1.0 - h)) - np.log(h * cnt_same + (1.0 - h) * cnt_diff)
    return float(logp.sum())


def check_selection(prefix: Path, models: list[str], truth: str, h: float, p_tc: float | None, net: dict) -> None:
    rows = {r["model"]: r for r in read_rows(Path(f"{prefix}_selection.csv"))}
    expect(sorted(rows) == sorted(models), f"selection rows {sorted(rows)} != {sorted(models)}")
    bic = {k: float(r["BIC"]) for k, r in rows.items()}
    expect(min(bic, key=bic.get) == truth, f"BIC-best is {min(bic, key=bic.get)}, generating model is {truth}")
    best = rows[truth]
    expect(abs(float(best["h_hat"]) - h) <= 0.05, f"h_hat {best['h_hat']} not within 0.05 of {h}")
    if p_tc is not None:
        expect(abs(float(best["ptc_hat"]) - p_tc) <= 0.05, f"ptc_hat {best['ptc_hat']} not within 0.05 of {p_tc}")
    for k, r in rows.items():
        logl, kk, ne = float(r["logL"]), int(r["k"]), int(r["n_events"])
        expect(rel_close(float(r["AIC"]), 2 * kk - 2 * logl, 1e-12), f"{k}: AIC != 2k - 2logL")
        expect(rel_close(float(r["BIC"]), kk * math.log(ne) - 2 * logl, 1e-12), f"{k}: BIC != k ln(n) - 2logL")
    labels, src, tgt, kinds = net["labels"], net["src"], net["tgt"], net["kinds"]
    for model in ("pa", "pah"):
        if model in rows:
            r = rows[model]
            h_hat = float(r["h_hat"]) if model == "pah" else None
            logl, scored = undirected_loglik(labels, int(src[0]), src, tgt, kinds, h_hat)
            expect(int(r["n_events"]) == scored, f"{model}: n_events {r['n_events']} != {scored}")
            expect(rel_close(float(r["logL"]), logl, 1e-9), f"{model}: logL {r['logL']} != replay {logl!r}")
    if "dh" in rows:
        r = rows["dh"]
        logl = dh_loglik(labels, src, tgt, float(r["h_hat"]))
        expect(int(r["n_events"]) == src.size, f"dh: n_events {r['n_events']} != {src.size}")
        expect(rel_close(float(r["logL"]), logl, 1e-9), f"dh: logL {r['logL']} != replay {logl!r}")


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def gini_mean_difference(x: np.ndarray) -> float:
    """G = sum_ij |x_i - x_j| / (2 n^2 mean), by the sorted weighted-rank identity."""
    xs = np.sort(np.asarray(x, dtype=np.float64))
    n = xs.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(((2 * i - n - 1) * xs).sum() / (n * xs.sum()))


def sparse_pagerank(n: int, edges: np.ndarray, directed: bool, damping=0.85, tol=1e-13) -> np.ndarray:
    """Power iteration on a scipy sparse transition matrix, to L1 change < tol."""
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = outdeg == 0
    a = sp.csr_matrix((1.0 / outdeg[src], (dst, src)), shape=(n, n))
    x = np.full(n, 1.0 / n)
    for _ in range(10_000):
        new = (1.0 - damping) / n + damping * (a @ x + x[dangling].sum() / n)
        delta = np.abs(new - x).sum()
        x = new
        if delta < tol:
            return x
    raise CheckError("reference PageRank did not converge")


def degree_order(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    deg = np.bincount(edges.ravel(), minlength=n)
    return deg, np.lexsort((np.arange(n), -deg))


def check_rank(prefix: Path, metric: str, net_prefix: Path, directed: bool) -> None:
    rows = read_rows(Path(f"{prefix}_visibility.csv"))
    expect([r["k_percent"] for r in rows] == [str(k) for k in VISIBILITY_KS] + ["gini", "me"], "visibility rows")
    fr = np.array([float(r["minority_fraction"]) for r in rows[:-2]])
    gini, me = float(rows[-2]["minority_fraction"]), float(rows[-1]["minority_fraction"])
    labels, edges = read_labels(net_prefix), read_edges(net_prefix)
    n = labels.size
    f_m = float(labels.sum()) / n
    expect(fr[-1] == f_m, f"k=100 row {fr[-1]!r} != population minority fraction {f_m!r}")
    expect(((fr >= 0) & (fr <= 1)).all(), "visibility fraction outside [0, 1]")
    expect(abs(me - float((fr[:-1] - f_m).mean())) <= 1e-12, "me != mean(top-k fraction - f_m) over k < 100")
    if metric == "degree":
        deg, order = degree_order(n, edges)
        tops = (VISIBILITY_KS * n + 99) // 100
        want = np.array([labels[order[:t]].sum() / t for t in tops])
        expect(np.array_equal(fr, want), "degree visibility fractions differ from the exact recomputation")
        expect(abs(gini - gini_mean_difference(deg)) <= 1e-12, f"degree gini {gini!r} != {gini_mean_difference(deg)!r}")
    elif metric == "pagerank":
        ref = gini_mean_difference(sparse_pagerank(n, edges, directed))
        expect(abs(gini - ref) <= 1e-9, f"pagerank gini {gini!r} != reference {ref!r}")
    else:
        raise ValueError(metric)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def check_sample(prefix: Path, net_prefix: Path, strategies: list[str], budgets: list[int], reps: int) -> None:
    cells = read_rows(Path(f"{prefix}_bias.csv"))
    records = read_rows(Path(f"{prefix}_bias_reps.csv"))
    expect(len(cells) == len(strategies) * len(budgets), f"{len(cells)} bias rows")
    expect(len(records) == len(strategies) * len(budgets) * reps, f"{len(records)} bias_reps rows")
    labels, edges = read_labels(net_prefix), read_edges(net_prefix)
    n = labels.size
    deg, order = degree_order(n, edges)
    for c in cells:
        expect(float(c["population_fm"]) == labels.sum() / n, "population_fm != minority count / n")
        expect(float(c["population_mean_degree"]) == 2 * edges.shape[0] / n, "population_mean_degree != 2E/n")
        expect(int(c["reps"]) == reps, "reps column")
        bias = float(c["minority_bias"])
        if c["strategy"] == "top-degree":
            # every rep draws the same nodes, so the spread is zero up to the
            # rounding of the program's float std of a constant sample
            dbias, dstd = float(c["degree_bias"]), float(c["degree_bias_std"])
            expect(dbias >= 0.0 and dstd <= 1e-12 * max(1.0, dbias), f"top-degree degree bias {dbias} std {dstd}")
        if c["strategy"] == "uniform-node":
            # unbiased: the rep mean of a hypergeometric fraction stays within
            # 5 exact standard errors (a false alarm about once in 10^6 cells)
            b, p1 = int(c["budget"]), labels.sum() / n
            se = math.sqrt(p1 * (1 - p1) * (n - b) / (b * (n - 1)) / reps)
            expect(abs(bias) <= 5 * se, f"uniform-node minority bias {bias} beyond 5 standard errors ({se})")
    for r in records:
        frac = float(r["minority_fraction"])
        expect(0.0 <= frac <= 1.0 and float(r["mean_degree"]) > 0.0, "bias_reps estimate out of range")
        if r["strategy"] == "top-degree":
            b = int(r["budget"])
            top = order[:b]
            expect(frac == labels[top].sum() / b, "top-degree sample minority fraction != top-b by degree")
            expect(rel_close(float(r["mean_degree"]), deg[top].sum() / b, 1e-12), "top-degree sample mean degree")


# ---------------------------------------------------------------------------
# spreading
# ---------------------------------------------------------------------------

def check_spread(prefix: Path, net_prefix: Path, condition: str, count: int) -> None:
    """Invariants of any cascade run."""
    series = np.loadtxt(f"{prefix}_series.csv", delimiter=",", skiprows=1, ndmin=2)
    equality = np.loadtxt(f"{prefix}_equality.csv", delimiter=",", skiprows=1, ndmin=2)
    summary = {r["key"]: r["value"] for r in read_rows(Path(f"{prefix}_summary.csv"))}
    labels, edges = read_labels(net_prefix), read_edges(net_prefix)
    n1 = int(labels.sum())
    n0 = labels.size - n1
    expect(np.array_equal(series[:, 0], np.arange(series.shape[0])), "series t column is not 0..T")
    fr = series[:, 1:]
    expect(((fr >= 0) & (fr <= 1)).all(), "series fraction outside [0, 1]")
    expect((np.diff(fr, axis=0) >= 0).all(), "series fraction decreases")
    seeds = np.array([int(s) for s in summary["seeds"].split(";")])
    expect(seeds.size == count and np.unique(seeds).size == count, "seed count")
    seed_cls = labels[seeds]
    expect(series[0, 1] == (seed_cls == 0).sum() / n0 and series[0, 2] == (seed_cls == 1).sum() / n1,
           "row 0 != seed class counts / class sizes")
    if condition == "majority-only":
        expect((seed_cls == 0).all(), "majority-only seed in the minority")
    elif condition == "minority-only":
        expect((seed_cls == 1).all(), "minority-only seed in the majority")
    elif condition == "top-degree":
        _, order = degree_order(labels.size, edges)
        expect(np.array_equal(seeds, np.sort(order[:count])), "top-degree seeds are not the top-degree nodes")
    hi, lo = fr.max(axis=1), fr.min(axis=1)
    want_eq = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 1.0)
    expect(np.array_equal(equality[:, 0], series[:, 0]) and np.allclose(equality[:, 1], want_eq, rtol=0, atol=1e-12),
           "equality series != min/max class fraction")
    reached = np.nonzero(series[:, 3] >= 0.5)[0]
    expect(summary["efficiency"] == (str(reached[0]) if reached.size else "never"), "efficiency != first t with frac_all >= 0.5")
    expect(float(summary["terminal_frac_class0"]) == fr[-1, 0] and float(summary["terminal_frac_class1"]) == fr[-1, 1],
           "terminal fractions != last series row")


def ring_lattice(n: int, k: int) -> np.ndarray:
    """Canonical sorted edges of a ring where each node links to k neighbours per side."""
    i = np.repeat(np.arange(n), k)
    j = (i + np.tile(np.arange(1, k + 1), n)) % n
    e = np.column_stack([np.minimum(i, j), np.maximum(i, j)])
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def check_ring_threshold(prefix: Path, labels: np.ndarray, block: int) -> None:
    """Threshold 1/2 on a ring with 2 neighbours per side, seeded on 0..block-1.

    A node at ring distance r from the seed block activates at step r, so
    the whole series and the time to half coverage follow in closed form.
    """
    series = np.loadtxt(f"{prefix}_series.csv", delimiter=",", skiprows=1, ndmin=2)
    summary = {r["key"]: r["value"] for r in read_rows(Path(f"{prefix}_summary.csv"))}
    n = labels.size
    i = np.arange(n)
    dist = np.where(i < block, 0, np.minimum(i - (block - 1), n - i))
    horizon = int(dist.max())
    expect(series.shape[0] == horizon + 1, f"{series.shape[0] - 1} steps, expected {horizon}")
    n1 = int(labels.sum())
    n0 = n - n1
    c0 = np.cumsum(np.bincount(dist[labels == 0], minlength=horizon + 1))
    c1 = np.cumsum(np.bincount(dist[labels == 1], minlength=horizon + 1))
    expect(np.array_equal(series[:, 1], c0 / n0) and np.array_equal(series[:, 2], c1 / n1),
           "class series differ from the ring-distance closed form")
    expect(np.allclose(series[:, 3], (c0 + c1) / n, rtol=0, atol=1e-12), "overall series != ring-distance closed form")
    half = math.ceil((n / 2 - block) / 2)  # block + 2t nodes are active at step t
    expect(summary["efficiency"] == str(half), f"efficiency {summary['efficiency']} != {half}")
