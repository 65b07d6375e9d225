"""Seeded input generators for the benchmark.

Every input is a pure function of the benchmark seed and is produced by the
benchmark's own numpy code, never by the library's generators, so a change
inside the program cannot shift the inputs it is measured on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

SBM_BLOCKS = 3
SBM_AVG_DEGREE = 25.0
SBM_IN_SHARE = 0.8  # share of a node's expected degree inside its block


@dataclass
class EdgeInput:
    """Edges as written to disk, in file order (ids as they appear)."""

    src: np.ndarray
    dst: np.ndarray
    n: int


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _block_sizes(n, blocks):
    return [n // blocks + (1 if i < n % blocks else 0) for i in range(blocks)]


def _distinct_pairs(rng, count, rows, cols, diagonal):
    """`count` distinct (i, j) pairs in a rows x cols block, i < j if diagonal."""
    got = np.empty(0, dtype=np.int64)
    while got.size < count:
        k = int((count - got.size) * 1.2) + 16
        i = rng.integers(0, rows, k)
        j = rng.integers(0, cols, k)
        if diagonal:
            i, j = np.minimum(i, j), np.maximum(i, j)
            keep = i != j
            i, j = i[keep], j[keep]
        got = np.unique(np.concatenate([got, i * cols + j]))
    got = rng.permutation(got)[:count]
    return got // cols, got % cols


def sbm_input(n, seed, blocks=SBM_BLOCKS, avg_degree=SBM_AVG_DEGREE,
              in_share=SBM_IN_SHARE):
    """Planted-partition graph on ids 0..n-1, connected, unweighted.

    Each block pair draws its edge count from the binomial law of an SBM and
    then that many distinct pairs uniformly. The graph must be connected
    with every id present, so that the program's id densification and LCC
    step are the identity and outputs index the same nodes as the input.
    """
    rng = np.random.default_rng([seed, n])
    sizes = _block_sizes(n, blocks)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    p_in = avg_degree * in_share / (sizes[0] - 1)
    p_out = avg_degree * (1.0 - in_share) / (n - sizes[0])
    src_parts, dst_parts = [], []
    for a in range(blocks):
        for b in range(a, blocks):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            count = int(rng.binomial(pairs, p_in if a == b else p_out))
            i, j = _distinct_pairs(rng, count, sizes[a], sizes[b], a == b)
            src_parts.append(i + offsets[a])
            dst_parts.append(j + offsets[b])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    flip = rng.random(src.size) < 0.5
    src, dst = np.where(flip, dst, src), np.where(flip, src, dst)

    adj = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    ncomp, _ = csgraph.connected_components(adj, directed=False)
    if ncomp != 1:
        raise RuntimeError(f"SBM input for seed {seed} is not connected")
    return EdgeInput(src=src, dst=dst, n=n)


def write_edge_list(path, edges):
    """Write one `src dst` line per edge."""
    pairs = zip(edges.src.tolist(), edges.dst.tolist())
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b}\n" for a, b in pairs)
