"""Truncation of dense diffusion matrices and renormalization of the result.

Pipeline order is fixed: sparsify, then optional unweighting, then optional
symmetrization, then optional renormalization into a transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import DiffusionMatrix
from .errors import InputError
from .graph import RandomWalk, SparseGraph, Symmetric, TransitionMatrix


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

    Top-k keeps exactly min(k, column nonzeros) entries per column.
    Thresholding keeps entries >= eps. TargetDegree resolves eps through
    epsilon_for_degree first. Diagonal mass survives like any other entry,
    so the result may carry self-loops. original_ids labels the result's
    nodes (by default 0..N-1), normally the ids of the diffused graph.
    """
    mat = _clean_entries(S)
    n = mat.shape[0]

    if isinstance(rule, TopK):
        if rule.k > n:
            raise InputError(f"top-k count {rule.k} exceeds node count {n}")
        cols_out = []
        rows_out = []
        vals_out = []
        for j in range(n):
            lo, hi = mat.indptr[j], mat.indptr[j + 1]
            rows = mat.indices[lo:hi]
            vals = mat.data[lo:hi]
            if vals.size > rule.k:
                # stable lexsort: heaviest first, smaller row wins ties
                order = np.lexsort((rows, -vals))[:rule.k]
                rows = rows[order]
                vals = vals[order]
            cols_out.append(np.full(rows.size, j, dtype=np.int64))
            rows_out.append(rows)
            vals_out.append(vals)
        rows = np.concatenate(rows_out) if rows_out else np.array([], dtype=np.int64)
        cols = np.concatenate(cols_out) if cols_out else np.array([], dtype=np.int64)
        vals = np.concatenate(vals_out) if vals_out else np.array([])
        out = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        return SparseGraph.from_scipy(out, directed=True, original_ids=original_ids,
                                      allow_loops=True)

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
        s = 1.0 / np.sqrt(d)
        cols = np.repeat(np.arange(result.n), np.diff(mat.indptr))
        # paired scale factors first, so mirrored entries round identically
        vals = mat.data * (s[mat.indices] * s[cols])
        t = sp.csc_matrix((vals, mat.indices.copy(), mat.indptr.copy()),
                          shape=mat.shape)
        return TransitionMatrix(matrix=t, kind=Symmetric(), source=result,
                                degrees=d)
    raise InputError(f"unknown renormalization {opts.renorm!r}")
