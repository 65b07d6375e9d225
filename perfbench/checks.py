"""References computed by the benchmark itself, and the correctness gates.

Every reference is plain numpy/scipy code written from the documented
semantics of the pipeline, independent of the program under test. Gates
compare with tolerances, not byte hashes, so a solver change that stays
within tolerance still passes. Each gate returns a GateResult; `ok` False
counts the operation as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csgraph

ALPHA = 0.15
PUSH_RECALL_FLOOR = 0.95
RAW_ACC_ATOL = 0.005    # per seed, 6 of 1200 nodes


@dataclass
class GateResult:
    ok: bool
    detail: str
    values: dict = field(default_factory=dict)


def parse_edge_output(path, n):
    """Output edge file `src dst weight` as a CSC matrix with M[dst, src]."""
    with open(path) as fh:
        flat = np.array(fh.read().split(), dtype=np.float64)
    if flat.size % 3:
        raise ValueError(f"{path}: expected three columns per line")
    rows = flat.reshape(-1, 3)
    src = rows[:, 0].astype(np.int64)
    dst = rows[:, 1].astype(np.int64)
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"{path}: node index out of range")
    mat = sp.csc_matrix((rows[:, 2], (dst, src)), shape=(n, n))
    if mat.nnz != rows.shape[0]:
        raise ValueError(f"{path}: an entry is written more than once")
    return mat


def push_degree_reference(edges, avg_degree=64):
    """Expected transform output (dense N x N) for rw T, PPR solved densely,
    the threshold of the target degree, symmetrization and rw renorm."""
    n = edges.n
    a = np.zeros((n, n))
    a[edges.src, edges.dst] = 1.0
    a[edges.dst, edges.src] = 1.0
    t = a / a.sum(axis=0)[None, :]
    diff = np.linalg.solve(np.eye(n) - (1.0 - ALPHA) * t, ALPHA * np.eye(n))
    flat = diff.ravel()
    m = int(np.ceil(n * avg_degree))
    eps = np.partition(flat, flat.size - m)[flat.size - m]
    kept = np.where(diff >= eps, diff, 0.0)
    sym = (kept + kept.T) * 0.5
    return sym / sym.sum(axis=0)[None, :]


def edge_recall(out, ref_dense):
    """Share of the reference's stored entries that the output also stores."""
    ref_r, ref_c = np.nonzero(ref_dense)
    present = np.asarray(out[ref_r, ref_c]).ravel() != 0
    return float(present.mean()) if ref_r.size else 1.0


def gate_push(out_path, ref):
    """Push output must contain at least PUSH_RECALL_FLOOR of the reference."""
    out = parse_edge_output(out_path, ref.shape[0])
    recall = edge_recall(out, ref)
    ok = recall >= PUSH_RECALL_FLOOR
    return GateResult(ok, f"edge recall {recall:.6f} (floor {PUSH_RECALL_FLOOR})",
                      {"edge_recall": recall})


# ---- clustering ---------------------------------------------------------

CLUSTER_P_IN = 0.03
CLUSTER_P_OUT = 0.005


def sbm_like_eval_cluster(seed, sizes, p_in=CLUSTER_P_IN, p_out=CLUSTER_P_OUT):
    """The planted partition eval-cluster samples for one seed.

    eval-cluster draws its own graphs, so the benchmark re-draws them from
    the documented rule (one Bernoulli draw per pair, block pairs in order,
    rows of the upper block triangle) to compute its reference.
    """
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    a = np.zeros((n, n))
    for bi in range(len(sizes)):
        for bj in range(bi, len(sizes)):
            draws = rng.random((sizes[bi], sizes[bj])) < (p_in if bi == bj else p_out)
            if bi == bj:
                draws = np.triu(draws, k=1)
            ii, jj = np.nonzero(draws)
            a[ii + offsets[bi], jj + offsets[bj]] = 1.0
    a = np.maximum(a, a.T)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return a, labels


def _kmeans(points, k, rng, restarts=10, iters=300):
    best, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = points[[rng.integers(points.shape[0])]]
        for _ in range(1, k):
            d2 = ((points[:, None, :] - centers[None]) ** 2).sum(-1).min(axis=1)
            centers = np.vstack([centers, points[rng.choice(points.shape[0],
                                                            p=d2 / d2.sum())]])
        labels = None
        for _ in range(iters):
            d2 = ((points[:, None, :] - centers[None]) ** 2).sum(-1)
            new = d2.argmin(axis=1)
            if labels is not None and np.array_equal(new, labels):
                break
            labels = new
            centers = np.array([points[labels == c].mean(axis=0)
                                if np.any(labels == c) else centers[c]
                                for c in range(k)])
        inertia = d2[np.arange(points.shape[0]), labels].sum()
        if inertia < best_inertia:
            best, best_inertia = labels, inertia
    return best


def accuracy(assign, labels):
    table = np.zeros((assign.max() + 1, labels.max() + 1))
    np.add.at(table, (assign, labels), 1.0)
    r, c = linear_sum_assignment(table, maximize=True)
    return float(table[r, c].sum() / labels.size)


def raw_arm_reference(first_seed, seeds, sizes):
    """Spectral clustering accuracy on each raw graph (the raw arm)."""
    out = []
    for i in range(seeds):
        a, labels = sbm_like_eval_cluster(first_seed + i, sizes)
        _, comp = csgraph.connected_components(sp.csr_matrix(a), directed=False)
        keep = comp == np.argmax(np.bincount(comp))
        a, labels = a[keep][:, keep], labels[keep]
        s = 1.0 / np.sqrt(a.sum(axis=0))
        lap = np.eye(a.shape[0]) - s[:, None] * a * s[None, :]
        _, vecs = np.linalg.eigh((lap + lap.T) * 0.5)
        emb = vecs[:, :len(sizes)]
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        emb = emb / norms[:, None]
        assign = _kmeans(emb, len(sizes), np.random.default_rng(first_seed + i))
        out.append(accuracy(assign, labels))
    return np.array(out)


def parse_cluster_report(path):
    """eval-cluster CSV -> (raw accuracies, gdc accuracies)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 1], rows[:, 2]


def gate_cluster(report_path, raw_ref):
    """Raw-arm accuracies must match the benchmark's own raw arm."""
    raw, gdc = parse_cluster_report(report_path)
    if raw.shape != raw_ref.shape:
        return GateResult(False, f"{raw.size} seeds reported, {raw_ref.size} expected",
                          {"gdc_accuracy": float(np.mean(gdc))})
    worst = float(np.max(np.abs(raw - raw_ref)))
    in_range = bool(np.all((gdc > 0) & (gdc <= 1)))
    ok = worst <= RAW_ACC_ATOL and in_range
    return GateResult(ok, f"raw-arm max |delta| {worst:.4f} (tol {RAW_ACC_ATOL}), "
                          f"gdc mean {np.mean(gdc):.4f}",
                      {"gdc_accuracy": float(np.mean(gdc))})
