import numpy as np
import pytest

from graphdiffusion import SbmSpec, generate_sbm, largest_connected_component
from graphdiffusion.graph import graph_from_edges


def er_graph(n, p, seed):
    """Erdos-Renyi graph as a single-block planted partition."""
    g, _ = generate_sbm(SbmSpec((n,), p, 0.0, seed=seed))
    return g


def connected_er(n, p, seed):
    """ER graph resampled deterministically until connected."""
    for offset in range(1000):
        g = er_graph(n, p, seed + offset * 7919)
        if g.n == n:
            lcc, _ = largest_connected_component(g)
            if lcc.n == n:
                return g
    raise AssertionError(f"no connected ER({n}, {p}) found from seed {seed}")


def chung_lu(n, gamma, mean_degree, seed):
    """Largest component of a seeded Chung-Lu graph with power-law degrees.

    Node i expects degree w_i proportional to (i + 1)^(-1 / (gamma - 1)),
    scaled to mean mean_degree, so the expected degrees follow a power law
    of exponent gamma; each pair {i, j} is an edge with probability
    min(1, w_i w_j / sum(w)), drawn independently. Unweighted.
    """
    rng = np.random.default_rng(seed)
    w = (np.arange(n) + 1.0) ** (-1.0 / (gamma - 1.0))
    w *= mean_degree / w.mean()
    p = np.minimum(1.0, np.outer(w, w) / w.sum())
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
    g = graph_from_edges(src, dst, np.ones(src.size), n=n)
    return largest_connected_component(g)[0]


def dense_column(col, n):
    """A push column's entries as a dense length-n vector."""
    out = np.zeros(n)
    out[col.indices] = col.values
    return out


def random_theta(k, rng):
    """Nonnegative weights of length k+1 summing to one."""
    w = rng.random(k + 1)
    return tuple(w / w.sum())
