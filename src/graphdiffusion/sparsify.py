"""Sparsification and renormalization of diffusion matrices, and diffuse_graph,
which applies the whole operator, one Gdc value, in its fixed stage order:
transition matrix, diffusion, target degree resolved to a threshold,
sparsification, then optional unweighting, symmetrization and
renormalization into a transition matrix.
The dense diffusion matrix is read through one checked walk over blocks of
engine.PUSH_BLOCK columns, in place, the same blocks that the series and push
fill: every sparsify rule masks those blocks, and epsilon_for_degree ranks
them. diffuse_graph drops the dense matrix as soon as it is sparsified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .coeffs import Ppr
from .engine import DiffusionMatrix, Exact, diffuse
from .errors import InputError, check_number
from .graph import (DegreeNormalization, RandomWalk, SparseGraph,
                    SymmetricSelfLoop, TransitionMatrix, require_nonzero_degrees,
                    scaled, transition_matrix)


@dataclass(frozen=True)
class TopK:
    """Keep the k heaviest entries per column; ties go to the smaller row.

    Only positive entries are kept, so a column with k or fewer of them, as
    every column has when k >= N, keeps all of them.
    """

    k: int

    def __post_init__(self):
        check_number(self.k, "top-k count", integer=True, must="positive")


@dataclass(frozen=True)
class Threshold:
    """Keep entries >= eps (entries exactly at eps survive)."""

    eps: float

    def __post_init__(self):
        check_number(self.eps, "threshold", must="positive")


@dataclass(frozen=True)
class TargetDegree:
    """Derive the threshold from a desired average degree.

    An average degree of N or more gives the smallest positive entry, so
    every positive entry survives.
    """

    avg_degree: float

    def __post_init__(self):
        check_number(self.avg_degree, "target degree", must="positive")


SparsifyRule = TopK | Threshold | TargetDegree


@dataclass(frozen=True)
class PostProcess:
    """Unweighting, symmetrization and renormalization, in that order.

    renorm is the transition kind of the renormalization, RandomWalk() or
    Symmetric(), or None for none; any other value is an InputError.
    """

    symmetrize: bool = False
    unweighted: bool = False
    renorm: DegreeNormalization | None = None

    def __post_init__(self):
        if not (self.renorm is None or isinstance(self.renorm, DegreeNormalization)):
            raise InputError(f"unknown renormalization {self.renorm!r}")


@dataclass(frozen=True)
class Gdc:
    """The diffusion operator: transition, weights, route, sparsify rule and
    postprocessing, the five choices diffuse_graph applies in turn.

    The defaults are the clustering arm of eval_gdc_clustering: self-loop
    symmetric transition (w = 1), PPR with teleport 0.15 solved in closed
    form, top-64 sparsification and symmetrization without renormalization.
    A Gdc checks its parts when built, so an operator no route can run
    fails before any graph is read: engine.check_route takes the
    transition, weights and route, and the rule and post must be a
    SparsifyRule and a PostProcess.
    """

    transition: object = SymmetricSelfLoop()
    spec: object = Ppr()
    route: object = Exact()  # engine.Exact() | Series(k) | Push(eps)
    rule: SparsifyRule = TopK(64)
    post: PostProcess = PostProcess(symmetrize=True)

    def __post_init__(self):
        engine.check_route(self.transition, self.spec, self.route)
        if not isinstance(self.rule, SparsifyRule):
            raise InputError(f"unknown sparsify rule {self.rule!r}")
        if not isinstance(self.post, PostProcess):
            raise InputError(f"postprocessing must be a PostProcess, got {self.post!r}")


def _topk_mask(cols, k):
    """Mask of the k largest positive entries in each row of cols (b x n).

    The k-th largest value of a row comes from one partition, and every
    entry at or above it is kept: at least k entries. Only in a row where
    ties at that value overshoot k does a running count keep just the
    first k - (count above) of the ties in row order, so the smaller index
    wins a tie. Only positive entries count, so a row with fewer than k of
    them keeps all of them.
    """
    cols = np.ascontiguousarray(cols)
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


def _checked_blocks(mat):
    """Blocks of engine.PUSH_BLOCK columns of the dense matrix mat, read in place.

    The block starting at column lo is a view whose row i is column lo + i
    of mat, checked to be non-negative (to -1e-12 for round-off) before it
    is yielded; every read of a diffusion matrix goes through this one walk.
    The views are contiguous when mat is Fortran-ordered, as every diffusion
    route returns it; a C-ordered mat is read through strided views.
    """
    for lo in range(0, mat.shape[0], engine.PUSH_BLOCK):
        cols = mat[:, lo:lo + engine.PUSH_BLOCK].T
        if cols.min() < -1e-12:
            raise InputError("diffusion entries must be non-negative")
        yield cols


def _sparsify_blocks(mat, mask_of):
    """CSC arrays (indptr, rows, values) of the entries of mat that mask_of keeps.

    mask_of maps each block of _checked_blocks, one row per column of mat,
    to a boolean mask. Rows come out sorted and unique in each column.
    """
    # the leading 0 of indptr, and empty parts so that N = 0 needs no block
    counts, rows, vals = [np.zeros(1, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for cols in _checked_blocks(mat):
        keep = mask_of(cols)
        counts.append(keep.sum(axis=1))
        rows.append(np.nonzero(keep)[1])
        vals.append(cols[keep])
    return (np.cumsum(np.concatenate(counts)), np.concatenate(rows),
            np.concatenate(vals))


def _entries(S):
    """The matrix of a DiffusionMatrix (or S itself) as a float64 ndarray."""
    mat = S.data if isinstance(S, DiffusionMatrix) else S
    return np.asarray(mat, dtype=np.float64)


def epsilon_for_degree(S, avg_degree):
    """Threshold whose survivors have about avg_degree entries per column.

    Returns the ceil(N * avg_degree)-th largest positive entry, or the
    smallest one if there are fewer, as there always are when avg_degree
    >= N; thresholding at it keeps at least that many entries (ties may
    overshoot). Reads the dense matrix through _checked_blocks,
    engine.PUSH_BLOCK columns at a time, and keeps only the m = ceil(N *
    min(avg_degree, N)) largest positive entries seen so far: once m are
    held, a block adds only its entries above their minimum, which can
    never lose the m-th largest. The result is an order statistic, so it
    does not depend on the block width or the matrix's memory order.
    """
    check_number(avg_degree, "average degree", must="positive")
    mat = _entries(S)
    n = mat.shape[0]
    m = int(np.ceil(n * min(avg_degree, n)))
    top = np.zeros(0)
    for cols in _checked_blocks(mat):
        floor = top.min() if top.size >= m else 0.0
        top = np.concatenate([top, cols[cols > floor]])
        if top.size > m:
            top = np.partition(top, top.size - m)[top.size - m:]
    if top.size == 0:
        raise InputError("the diffusion has no positive entry; "
                         f"no threshold gives average degree {avg_degree:g}")
    return float(top.min())


def sparsify(S, rule, original_ids=None):
    """Truncate a diffusion matrix to a sparse directed weighted graph.

    Every rule is one pass of _checked_blocks over engine.PUSH_BLOCK columns
    of the dense matrix, each block a view masked and appended to the CSC
    result, so besides the result the temporaries are O(N * PUSH_BLOCK), and
    each column is masked on its own, whatever the block width. Top-k keeps
    the min(k, positive entries) largest entries of each column, the
    smaller row winning a tie, so any k >= N keeps every positive entry;
    each column's k-th value comes from one partition per block.
    Thresholding keeps entries >= eps. TargetDegree resolves eps through
    epsilon_for_degree first. Diagonal mass survives
    like any other entry, so the result may carry self-loops. original_ids
    labels the result's nodes (by default 0..N-1), normally the ids of the
    diffused graph.
    """
    if isinstance(rule, TargetDegree):
        rule = Threshold(epsilon_for_degree(S, rule.avg_degree))
    mat = _entries(S)
    n = mat.shape[0]
    if isinstance(rule, TopK):
        indptr, rows, vals = _sparsify_blocks(
            mat, lambda cols: _topk_mask(cols, min(rule.k, n)))
    elif isinstance(rule, Threshold):
        indptr, rows, vals = _sparsify_blocks(mat, lambda cols: cols >= rule.eps)
        if vals.size == 0:
            raise InputError(f"threshold {rule.eps:g} exceeds the largest entry; "
                             "the sparsified graph would be empty")
    else:
        raise InputError(f"unknown sparsify rule {rule!r}")
    return SparseGraph(n, indptr, rows, vals, directed=True,
                       original_ids=original_ids, allow_loops=True)


def postprocess(g, opts):
    """Unweight, symmetrize and renormalize a sparsified graph.

    Renormalization is transition_matrix(processed graph, opts.renorm):
    RandomWalk() is A D^-1 and Symmetric() is D^-1/2 A D^-1/2 with D its
    column sums (degrees). A directed graph (symmetrize off) under
    Symmetric() is the one exception: D is its row sums, the in-degrees.
    Renormalization fails loudly, through require_nonzero_degrees, if
    sparsification isolated a node (zero degree); silently inserting
    self-loops would change the spectrum.
    Returns a SparseGraph when renorm is None, else a TransitionMatrix on
    the processed graph.

    g's arrays are read in place, not copied. What it allocates is the
    symmetrized sum (symmetrize), the unit weights (unweighted), the
    validation of the processed graph and the renormalized matrix; with
    neither option the processed graph shares g's arrays.
    """
    mat = g.to_scipy()
    if opts.unweighted:
        mat.data = np.ones_like(mat.data)
    if opts.symmetrize:
        mat = ((mat + mat.T) * 0.5).tocsc()
    directed = not opts.symmetrize
    result = SparseGraph.from_scipy(mat, directed=directed,
                                    original_ids=g.original_ids, allow_loops=True)
    if opts.renorm is None:
        return result
    if isinstance(opts.renorm, RandomWalk) or not directed:
        return transition_matrix(result, opts.renorm)
    # a directed graph under Symmetric() is normalized by its row sums
    # (in-degrees)
    d = np.asarray(result.matrix.sum(axis=1)).ravel()
    require_nonzero_degrees(result, d)
    return TransitionMatrix(matrix=scaled(result.matrix, 1.0 / np.sqrt(d)),
                            kind=opts.renorm, source=result, degrees=d)


def diffuse_graph(g, gdc, threads=0):
    """The diffusion operator gdc (a Gdc) on g: transition, diffuse, sparsify,
    postprocess.

    gdc.route and threads go to engine.diffuse. A TargetDegree rule is
    resolved into a Threshold on the diffusion first, within the sparsify
    stage. The sparsified graph keeps g's original_ids.
    The dense diffusion matrix does not outlive the sparsify stage, so
    postprocess runs without it; call diffuse for the matrix itself.
    Returns (result, certificate, exactness, eps, seconds): the postprocess
    result, the diffusion's error certificate (a dict, or None) and
    exactness (the route that ran, as DiffusionMatrix.exactness), the
    threshold applied (None for top-k) and the wall time of each stage by
    name.
    """
    t0 = time.perf_counter()
    t = transition_matrix(g, gdc.transition)
    t1 = time.perf_counter()
    s = diffuse(t, gdc.spec, gdc.route, threads=threads)
    t2 = time.perf_counter()
    rule = gdc.rule
    eps = rule.eps if isinstance(rule, Threshold) else None
    if isinstance(rule, TargetDegree):
        eps = epsilon_for_degree(s, rule.avg_degree)
        rule = Threshold(eps)
    sparse_graph = sparsify(s, rule, original_ids=g.original_ids)
    certificate, exactness = s.certificate, s.exactness
    del s
    t3 = time.perf_counter()
    result = postprocess(sparse_graph, gdc.post)
    seconds = {"transition": t1 - t0, "diffuse": t2 - t1, "sparsify": t3 - t2,
               "postprocess": time.perf_counter() - t3}
    return result, certificate, exactness, eps, seconds
