"""Synthetic planted-partition graphs and unsupervised cluster evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .engine import pool_map
from .errors import ComputeError, InputError, check_number
from .graph import (Symmetric, graph_from_edges, largest_connected_component,
                    transition_matrix)
from .sparsify import Gdc, diffuse_graph

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class SbmSpec:
    """Planted-partition sampler: p_in within blocks, p_out across, drawn
    from the non-negative integer seed."""

    block_sizes: tuple
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(self.block_sizes)
        if not sizes:
            raise InputError("need at least one block")
        for b in sizes:
            check_number(b, "block size", integer=True, must="positive")
        object.__setattr__(self, "block_sizes", tuple(map(int, sizes)))
        check_number(self.p_in, "p_in")
        check_number(self.p_out, "p_out")
        if not 0.0 <= self.p_out < self.p_in <= 1.0:
            raise InputError("need 0 <= p_out < p_in <= 1 for an assortative "
                             f"partition, got p_in={self.p_in}, p_out={self.p_out}")
        check_number(self.seed, "seed", integer=True, must="non-negative")

    @property
    def n(self):
        return sum(self.block_sizes)


def generate_sbm(spec):
    """Sample an undirected simple graph and its ground-truth labels.

    Every within/cross pair is an independent Bernoulli draw; the edge set
    is a deterministic function of the seed.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = spec.block_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.concatenate([np.full(b, i) for i, b in enumerate(sizes)])

    # p_in > 0, so every diagonal block adds a (possibly empty) part
    src_parts, dst_parts = [], []
    nblocks = len(sizes)
    for bi in range(nblocks):
        for bj in range(bi, nblocks):
            p = spec.p_in if bi == bj else spec.p_out
            ni, nj = sizes[bi], sizes[bj]
            if p == 0.0:
                continue
            draws = rng.random((ni, nj)) < p
            if bi == bj:
                draws = np.triu(draws, k=1)
            ii, jj = np.nonzero(draws)
            src_parts.append(ii + offsets[bi])
            dst_parts.append(jj + offsets[bj])
    src = np.concatenate(src_parts)
    g = graph_from_edges(src, np.concatenate(dst_parts), np.ones(src.size),
                         n=spec.n)
    return g, labels


def _kmeans_pp_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
            continue
        probs = d2 / total
        centers[c] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, centers, max_iter):
    """Lloyd iterations; returns (labels, inertia, inertia trace)."""
    trace = []
    labels = None
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(points.shape[0]), new_labels].sum())
        trace.append(inertia)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centers.shape[0]):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
    return labels, trace[-1], trace


def kmeans(points, k, seed=0):
    """Plain k-means with plus-plus seeding, best of KMEANS_RESTARTS runs."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if k > n:
        raise InputError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(points, k, rng)
        labels, inertia, _ = _lloyd(points, centers, KMEANS_MAX_ITER)
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def spectral_embedding(g, num_clusters):
    """Rows of the bottom eigenvectors of the symmetric normalized Laplacian,
    each scaled to unit length.

    The bottom num_clusters eigenvectors of I - D^-1/2 A D^-1/2 are the top
    eigenvectors of a = transition_matrix(g, Symmetric()), symmetrized as
    (a + a.T) / 2, found by Lanczos iteration (ARPACK) from a fixed start
    vector, so repeated calls return identical arrays. A node of degree 0
    raises InputError naming it. Memory is O(nnz + N * num_clusters); no
    N x N array is formed. Columns run from the largest eigenvalue down.

    A disconnected graph is embedded as it is: sparsifying a diffusion can
    split blocks apart, and the indicator vectors of the components are
    then the embedding that separates them.
    """
    n = g.n
    if num_clusters < 2:
        raise InputError("need at least 2 clusters")
    if num_clusters >= n:
        raise InputError(f"need fewer clusters than nodes, got {num_clusters} "
                         f"clusters for {n} nodes")
    a = transition_matrix(g, Symmetric()).matrix
    a = (a + a.T) * 0.5
    # a fixed start vector makes the result a function of the input alone
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = eigsh(a, k=num_clusters, which="LA", v0=v0, tol=0)
    except ArpackNoConvergence as exc:
        raise ComputeError(f"Lanczos found {len(exc.eigenvalues)} of "
                           f"{num_clusters} eigenvectors before its iteration "
                           "limit") from exc
    emb = vecs[:, np.argsort(-vals, kind="stable")]
    norms = np.linalg.norm(emb, axis=1)
    norms[norms == 0] = 1.0
    return emb / norms[:, None]


def spectral_cluster(g, num_clusters, seed=0):
    """K-means labels on the spectral embedding of g."""
    return kmeans(spectral_embedding(g, num_clusters), num_clusters, seed=seed)


@dataclass
class ClusteringResult:
    assignment: np.ndarray
    accuracy: float
    matched_permutation: dict


def hungarian_accuracy(assignment, labels):
    """Best cluster-to-class matching accuracy on the contingency table.

    The matching is a minimum-weight full bipartite matching (LAPJVsp,
    Jonker and Volgenant 1987, as scipy.sparse.csgraph runs it) on
    max(table) + 1 - table. Every entry of that complement is at least 1,
    so none reads as a missing edge and a full matching of min(clusters,
    classes) pairs always exists; each one subtracts the same constant
    from the complement's total, so the lightest is the heaviest on the
    table. The table may have any number of clusters and classes, equal or
    not. When several matchings tie, matched_permutation names one of them;
    the accuracy is the same for all.
    """
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape:
        raise InputError("assignment and labels must have equal length")
    n = assignment.size
    if n and min(assignment.min(), labels.min()) < 0:
        raise InputError("cluster and class ids must be non-negative")
    nclu = int(assignment.max()) + 1 if n else 0
    ncls = int(labels.max()) + 1 if n else 0
    table = np.zeros((nclu, ncls))
    np.add.at(table, (assignment, labels), 1.0)
    rows, cols = csgraph.min_weight_full_bipartite_matching(
        sp.csr_matrix(table.max(initial=0) + 1.0 - table))
    matched = {int(r): int(c) for r, c in zip(rows, cols)}
    acc = float(table[rows, cols].sum() / n) if n else 0.0
    return ClusteringResult(assignment=assignment, accuracy=acc,
                            matched_permutation=matched)


@dataclass
class EvalReport:
    raw_acc: np.ndarray
    gdc_acc: np.ndarray
    raw_mean: float
    gdc_mean: float
    delta_mean: float
    delta_ci: tuple
    raw_ci: tuple
    gdc_ci: tuple
    seeds: int


def _bootstrap_ci(samples, rng, resamples=BOOTSTRAP_RESAMPLES):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 1:
        v = float(samples[0])
        return (v, v)
    idx = rng.integers(0, samples.size, size=(resamples, samples.size))
    means = samples[idx].mean(axis=1)
    return (float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5)))


def run_gdc_for_clustering(g, gdc):
    """The graph handed to clustering: diffuse_graph with gdc, its route
    included.

    The diffusion runs on one thread: eval_gdc_clustering already pools
    over seeds.
    """
    return diffuse_graph(g, gdc, threads=1)[0]


def check_counts(sbm_spec, seeds, num_clusters):
    """The cluster count eval_gdc_clustering runs with: num_clusters, or the
    block count of sbm_spec for None. InputError unless seeds >= 1 and the
    count is at least 2."""
    if seeds < 1:
        raise InputError(f"need at least one seed, got {seeds}")
    if num_clusters is None:
        num_clusters = len(sbm_spec.block_sizes)
    if num_clusters < 2:
        raise InputError(f"need at least 2 clusters, got {num_clusters}")
    return num_clusters


def eval_gdc_clustering(sbm_spec, gdc=Gdc(), seeds=20, num_clusters=None,
                        threads=0):
    """Paired clustering accuracies, raw graph versus diffusion graph gdc.

    Each seed runs independently on its own generator stream (master seed
    plus index). The report carries per-seed pairs, means and bootstrap
    95 percent intervals; the interval on the paired delta is the headline
    number. Seeds run in a thread pool unless threads is 1; 0 uses one
    worker per usable core. Results do not depend on the thread count.
    Clustering embeds a graph, so gdc must not renormalize (post.renorm
    None); any other renorm, and a count that check_counts refuses, is an
    InputError before the first seed runs.
    """
    num_clusters = check_counts(sbm_spec, seeds, num_clusters)
    if gdc.post.renorm is not None:
        raise InputError("the clustering arm needs a graph, not a transition "
                         f"matrix; got renorm {gdc.post.renorm!r}, use None")

    def one(i):
        spec_i = SbmSpec(sbm_spec.block_sizes, sbm_spec.p_in, sbm_spec.p_out,
                         seed=sbm_spec.seed + i)
        g, labels = generate_sbm(spec_i)
        lcc, index_map = largest_connected_component(g)
        labels = labels[index_map >= 0]
        raw_labels = spectral_cluster(lcc, num_clusters, seed=spec_i.seed)
        raw = hungarian_accuracy(raw_labels, labels).accuracy
        gdc_graph = run_gdc_for_clustering(lcc, gdc)
        gdc_labels = spectral_cluster(gdc_graph, num_clusters, seed=spec_i.seed)
        acc = hungarian_accuracy(gdc_labels, labels).accuracy
        return raw, acc

    pairs = pool_map(one, range(seeds), threads)

    raw = np.array([p[0] for p in pairs])
    acc = np.array([p[1] for p in pairs])
    rng = np.random.default_rng(sbm_spec.seed + 987654321)
    return EvalReport(
        raw_acc=raw, gdc_acc=acc,
        raw_mean=float(raw.mean()), gdc_mean=float(acc.mean()),
        delta_mean=float((acc - raw).mean()),
        delta_ci=_bootstrap_ci(acc - raw, rng),
        raw_ci=_bootstrap_ci(raw, rng),
        gdc_ci=_bootstrap_ci(acc, rng),
        seeds=seeds,
    )
