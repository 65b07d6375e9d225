import numpy as np
import pytest

from graphdiffusion import SbmSpec, generate_sbm, largest_connected_component


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


def dense_column(col, n):
    """A push column's entries as a dense length-n vector."""
    out = np.zeros(n)
    out[col.indices] = col.values
    return out


def random_theta(k, rng):
    """Nonnegative weights of length k+1 summing to one."""
    w = rng.random(k + 1)
    return tuple(w / w.sum())
