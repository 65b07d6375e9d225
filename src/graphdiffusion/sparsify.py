"""Sparsification and renormalization of diffusion matrices, and diffuse_graph,
the whole operator in its fixed stage order: transition matrix, diffusion,
target degree resolved to a threshold, sparsification, then optional
unweighting, symmetrization and renormalization into a transition matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import DiffusionMatrix, diffuse
from .errors import InputError
from .graph import (RandomWalk, SparseGraph, Symmetric, TransitionMatrix, scaled,
                    transition_matrix)

# Columns handled by one top-k kernel call; its temporaries are N x TOPK_BLOCK.
TOPK_BLOCK = 256


@dataclass(frozen=True)
class TopK:
    """Keep the k heaviest entries per column; ties go to the smaller row."""

    k: int

    def __post_init__(self):
        if not self.k > 0:
            raise InputError(f"top-k count must be positive, got {self.k}")


@dataclass(frozen=True)
class Threshold:
    """Keep entries >= eps (entries exactly at eps survive)."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise InputError(f"threshold must be positive, got {self.eps}")


@dataclass(frozen=True)
class TargetDegree:
    """Derive the threshold from a desired average degree."""

    avg_degree: float

    def __post_init__(self):
        if not self.avg_degree > 0:
            raise InputError(f"target degree must be positive, got {self.avg_degree}")


SparsifyRule = TopK | Threshold | TargetDegree


@dataclass(frozen=True)
class PostProcess:
    symmetrize: bool = False
    unweighted: bool = False
    renorm: str | None = None  # 'sym', 'rw' or None


def _clean_entries(S):
    """Entry array of a DiffusionMatrix with tiny negative noise clamped."""
    if isinstance(S, DiffusionMatrix):
        mat = S.data
    else:
        mat = S
    if sp.issparse(mat):
        mat = sp.csc_matrix(mat, copy=True)
        if mat.data.size and mat.data.min() < -1e-12:
            raise InputError("diffusion entries must be non-negative")
        mat.data = np.maximum(mat.data, 0.0)
        mat.eliminate_zeros()
        return mat
    arr = np.asarray(mat, dtype=np.float64)
    if arr.size and arr.min() < -1e-12:
        raise InputError("diffusion entries must be non-negative")
    return sp.csc_matrix(np.maximum(arr, 0.0))


def _topk_mask(cols, k):
    """Mask of the k largest positive entries in each row of cols (b x n).

    The k-th largest value of a row comes from one partition, and every
    entry at or above it is kept: at least k entries. Only in a row where
    ties at that value overshoot k does a running count keep just the
    first k - (count above) of the ties in row order, so the smaller index
    wins a tie. Only positive entries count, so a row with fewer than k of
    them keeps all of them.
    """
    n = cols.shape[1]
    kth = np.partition(cols, n - k, axis=1)[:, n - k, None]
    keep = cols >= kth
    over = np.flatnonzero(keep.sum(axis=1) > k)
    if over.size:
        sub, cut = cols[over], kth[over]
        above = sub > cut
        tie = sub == cut
        need = k - above.sum(axis=1, keepdims=True)
        keep[over] = above | (tie & (np.cumsum(tie, axis=1) <= need))
    keep &= cols > 0
    return keep


def _sparsify_topk(S, k, original_ids):
    """Top-k of every column, computed over blocks of TOPK_BLOCK columns.

    Dense input is read in place; sparse input is densified one block at a
    time, so temporaries stay O(N * TOPK_BLOCK).
    """
    mat = S.data if isinstance(S, DiffusionMatrix) else S
    if sp.issparse(mat):
        mat = sp.csc_matrix(mat, dtype=np.float64)
    else:
        mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if k > n:
        raise InputError(f"top-k count {k} exceeds node count {n}")
    counts, rows, vals = [], [], []
    for lo in range(0, n, TOPK_BLOCK):
        hi = min(lo + TOPK_BLOCK, n)
        # row i of cols is column lo + i of S
        if sp.issparse(mat):
            cols = mat[:, lo:hi].T.toarray()
        else:
            cols = np.ascontiguousarray(mat[:, lo:hi].T)
        if cols.min() < -1e-12:
            raise InputError("diffusion entries must be non-negative")
        keep = _topk_mask(cols, k)
        counts.append(keep.sum(axis=1))
        rows.append(np.nonzero(keep)[1])
        vals.append(cols[keep])
    # k <= n and k > 0, so there is at least one block
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    out = sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                        shape=(n, n))
    return SparseGraph.from_scipy(out, directed=True, original_ids=original_ids,
                                  allow_loops=True)


def epsilon_for_degree(S, avg_degree):
    """Threshold whose survivors have about avg_degree entries per column.

    Returns the ceil(N * avg_degree)-th largest stored entry; thresholding
    at it keeps at least that many entries (ties may overshoot).
    """
    mat = _clean_entries(S)
    n = mat.shape[0]
    if not 0 < avg_degree <= n:
        raise InputError(f"average degree must be in (0, {n}], got {avg_degree}")
    vals = mat.data
    m = int(np.ceil(n * avg_degree))
    if m >= vals.size:
        return float(vals.min())
    # m-th largest = (size - m)-th in ascending partition order
    return float(np.partition(vals, vals.size - m)[vals.size - m])


def sparsify(S, rule, original_ids=None):
    """Truncate a diffusion matrix to a sparse directed weighted graph.

    Top-k keeps the min(k, positive entries) largest entries of each
    column, the smaller row winning a tie; each column's k-th value comes
    from one partition per block of TOPK_BLOCK columns, and dense input is
    read in place. Thresholding keeps entries >= eps. TargetDegree
    resolves eps through epsilon_for_degree first. Diagonal mass survives
    like any other entry, so the result may carry self-loops. original_ids
    labels the result's nodes (by default 0..N-1), normally the ids of the
    diffused graph.
    """
    if isinstance(rule, TopK):
        return _sparsify_topk(S, rule.k, original_ids)

    mat = _clean_entries(S)
    if isinstance(rule, TargetDegree):
        rule = Threshold(epsilon_for_degree(S, rule.avg_degree))

    if isinstance(rule, Threshold):
        if mat.data.size == 0 or rule.eps > mat.data.max():
            raise InputError(f"threshold {rule.eps:g} exceeds the largest entry; "
                             "the sparsified graph would be empty")
        keep = sp.csc_matrix(mat, copy=True)
        keep.data[keep.data < rule.eps] = 0.0
        keep.eliminate_zeros()
        return SparseGraph.from_scipy(keep, directed=True, original_ids=original_ids,
                                      allow_loops=True)

    raise InputError(f"unknown sparsify rule {rule!r}")


def postprocess(g, opts):
    """Unweight, symmetrize and renormalize a sparsified graph.

    Renormalization fails loudly if sparsification isolated a node (zero
    degree); silently inserting self-loops would change the spectrum.
    Returns a SparseGraph when renorm is None, else a TransitionMatrix on
    the processed graph.
    """
    mat = g.to_scipy().astype(np.float64)
    if opts.unweighted:
        mat = sp.csc_matrix(mat, copy=True)
        mat.data = np.ones_like(mat.data)
    if opts.symmetrize:
        mat = ((mat + mat.T) * 0.5).tocsc()
    directed = not opts.symmetrize
    result = SparseGraph.from_scipy(mat, directed=directed,
                                    original_ids=g.original_ids, allow_loops=True)
    if opts.renorm is None:
        return result

    mat = result.to_scipy()
    col_sums = np.asarray(mat.sum(axis=0)).ravel()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    if opts.renorm == "rw":
        isolated = np.flatnonzero(col_sums == 0)
        if isolated.size:
            raise InputError("sparsification isolated node(s) "
                             f"{isolated.tolist()}; cannot renormalize")
        t = (mat @ sp.diags(1.0 / col_sums)).tocsc()
        return TransitionMatrix(matrix=t, kind=RandomWalk(), source=result,
                                degrees=col_sums)
    if opts.renorm == "sym":
        d = row_sums if directed else col_sums
        isolated = np.flatnonzero(d == 0)
        if isolated.size:
            raise InputError("sparsification isolated node(s) "
                             f"{isolated.tolist()}; cannot renormalize")
        return TransitionMatrix(matrix=scaled(mat, 1.0 / np.sqrt(d)),
                                kind=Symmetric(), source=result, degrees=d)
    raise InputError(f"unknown renormalization {opts.renorm!r}")


def diffuse_graph(g, transition, spec, rule, post, mode="exact", series_k=None,
                  eps_push=None, threads=0):
    """The diffusion operator on g: transition, diffuse, sparsify, postprocess.

    mode, series_k, eps_push and threads go to engine.diffuse. A
    TargetDegree rule is resolved into a Threshold on the diffusion first,
    within the sparsify stage. The sparsified graph keeps g's original_ids.
    Returns (result, diffusion, eps, seconds): the postprocess result, the
    DiffusionMatrix, the threshold applied (None for top-k) and the wall
    time of each stage by name.
    """
    t0 = time.perf_counter()
    t = transition_matrix(g, transition)
    t1 = time.perf_counter()
    s = diffuse(t, spec, mode=mode, series_k=series_k, eps_push=eps_push,
                threads=threads)
    t2 = time.perf_counter()
    eps = rule.eps if isinstance(rule, Threshold) else None
    if isinstance(rule, TargetDegree):
        eps = epsilon_for_degree(s, rule.avg_degree)
        rule = Threshold(eps)
    sparse_graph = sparsify(s, rule, original_ids=g.original_ids)
    t3 = time.perf_counter()
    result = postprocess(sparse_graph, post)
    seconds = {"transition": t1 - t0, "diffuse": t2 - t1, "sparsify": t3 - t2,
               "postprocess": time.perf_counter() - t3}
    return result, s, eps, seconds
