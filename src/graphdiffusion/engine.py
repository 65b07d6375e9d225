"""Computation of the diffusion matrix: closed form, series and push routes.

Three routes to S = sum_k theta_k T^k, each a value (Exact(), Series(k)
or Push(eps)) that diffuse takes, and each returning a dense N x N array:

* Exact(): geometric diffusion inverts I - (1-a)T densely at every size,
  in place by one LAPACK inverse: by Cholesky when T is symmetric, by LU
  otherwise. Its residual is checked one block of PUSH_BLOCK columns at a
  time, so it holds one N x N array, the Fortran-ordered result, plus
  block temporaries; time is O(N^3);
* Series(k): the truncated series accumulates Horner style on blocks of
  identity columns, never materializing T^k; its certificate is the
  analytic tail of the dropped weights. Heat and explicit weights under
  Exact() are this series, and heat under Push(eps) too, truncated where
  that tail falls below eps;
* Push(eps): geometric push expands mass only where the residual is
  large, with an explicit residual certifying the error. Only the threshold-phase push
  events have a ceiling independent of graph size; the drain that follows
  is a Chebyshev semi-iteration on the leftover residual, one full-graph
  matvec per round, so support and wall time per column grow with N. Its
  residual is signed; its L1 norm still bounds the column's L1 error, and
  the estimate is clipped at 0. Columns are pushed in blocks of PUSH_BLOCK
  sources, one sparse-by-dense product per round.

Series and push fill the result through one loop over blocks of PUSH_BLOCK
columns, each block written into its own contiguous slice of a
Fortran-ordered N x N array, so either route holds one N x N array plus
per-block temporaries. Every route's result is Fortran-ordered.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .coeffs import Explicit, Heat, Ppr, theta, theta_tail, truncation_k
from .errors import ComputeError, InputError, check_number
from .graph import RandomWalk, Symmetric, SymmetricSelfLoop

# After threshold pushes finish, residual is drained until its total mass
# is below PUSH_L1_FACTOR * eps, tying the column's L1 error to eps.
PUSH_L1_FACTOR = 50.0
# Columns per block everywhere in the dense pipeline: the exact residual
# check, the series and push (each Horner step or push round is a single
# T @ X product over this many columns), the sparsify masks and the
# epsilon_for_degree search.
PUSH_BLOCK = 64
# Largest infinity-norm residual the exact solve may leave in any column.
EXACT_TOL = 1e-10
# Largest analytic tail weight a series of derived order may drop.
SERIES_TAIL_TOL = 1e-12


def worker_count(threads):
    """Pool size for a threads knob: itself if positive, else the usable cores.

    Automatic (0 or negative) means one worker per core this process may
    run on, so BLAS-heavy workers do not oversubscribe the machine.
    """
    if threads and threads > 0:
        return int(threads)
    return len(os.sched_getaffinity(0))


def pool_map(fn, items, threads):
    """[fn(x) for x in items] on worker_count(threads) threads; inline for one."""
    workers = worker_count(threads)
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _column_blocks(n, block, threads):
    """A Fortran-ordered N x N array filled one column block at a time.

    block(lo, hi) returns columns lo..hi-1 of the result as an N x (hi - lo)
    array, plus its accounting. It runs on consecutive blocks of PUSH_BLOCK
    columns through pool_map, and each block is written into its own
    contiguous slice. Returns the array and the accountings in block order.
    """
    out = np.empty((n, n), order="F")

    def one(lo):
        hi = min(lo + PUSH_BLOCK, n)
        cols, accounting = block(lo, hi)
        out[:, lo:hi] = cols
        return accounting

    return out, pool_map(one, range(0, n, PUSH_BLOCK), threads)


@dataclass(frozen=True)
class Exact:
    """The closed-form solve, or for non-geometric weights the series to
    SERIES_TAIL_TOL."""


@dataclass(frozen=True)
class Series:
    """The series truncated at order k."""

    k: int

    def __post_init__(self):
        check_number(self.k, "series order", integer=True)
        if self.k < 0:
            raise InputError(f"series order must be non-negative, got {self.k}")


@dataclass(frozen=True)
class Push:
    """Residual push to tolerance eps (random walk only); heat runs the series."""

    eps: float

    def __post_init__(self):
        check_number(self.eps, "push tolerance")
        if not self.eps > 0:
            raise InputError(f"push tolerance must be positive, got {self.eps}")


Route = Exact | Series | Push


@dataclass
class DiffusionMatrix:
    """Columns of the diffusion operator with the accounting of their route."""

    data: np.ndarray  # dense N x N, Fortran-ordered on every route
    exactness: str  # 'exact', 'series:K', 'push:EPS'
    # error accounting of the computation, e.g. {'residual_max': ...}
    certificate: dict | None = None

    @property
    def n(self):
        return self.data.shape[0]


def _inverse(a, spd):
    """Inverse of the Fortran-ordered square a, computed in place.

    A symmetric positive definite a (spd) is inverted by Cholesky from its
    lower triangle, and the result is symmetric bit for bit; any other a by
    LU with partial pivoting.
    """
    try:
        return linalg.inv(a, overwrite_a=True, check_finite=False,
                          assume_a="pos" if spd else "gen", lower=True)
    except np.linalg.LinAlgError as err:
        raise ComputeError(
            "Cholesky inversion failed; the system matrix is not positive definite"
            if spd else "LU inversion failed; the system matrix is singular") from err


def diffuse_exact_ppr(T, alpha):
    """Exact geometric diffusion a (I - (1-a) T)^-1, dense at every size.

    The system matrix I - (1-a) T is formed in Fortran order and inverted in
    place by one LAPACK inverse. When T is symmetric (a symmetric kind on an
    undirected graph) the system matrix is symmetric positive definite,
    since T's spectrum lies in [-1, 1] and so every eigenvalue is at least
    a; it is inverted by Cholesky, and the result is symmetric bit for bit.
    Any other T (random walk, or a directed source) is inverted by LU. The
    per-column residual infinity norm is then checked against EXACT_TOL one
    block of PUSH_BLOCK columns at a time; a NaN residual fails the check.
    Time is O(N^3). Peak memory is one N x N array, the Fortran-ordered
    result, plus a block's N x PUSH_BLOCK temporaries and LAPACK's
    workspace.
    """
    Ppr(alpha)  # the spec checks alpha
    n = T.n
    m = T.matrix
    a = m.toarray(order="F")
    a *= -(1.0 - alpha)
    a.flat[::n + 1] += 1.0
    # transition_matrix makes these bit-symmetric
    spd = isinstance(T.kind, (Symmetric, SymmetricSelfLoop)) and not T.source.directed
    x = _inverse(a, spd)
    x *= alpha

    def block_worst(lo):
        # alpha I - (x - (1-alpha) m x) on columns lo..hi-1, in the one
        # buffer the product returns
        hi = min(lo + PUSH_BLOCK, n)
        resid = m @ x[:, lo:hi]
        resid *= 1.0 - alpha
        resid -= x[:, lo:hi]
        resid[np.arange(lo, hi), np.arange(hi - lo)] += alpha
        return max(resid.max(), -resid.min())

    # np.max keeps a NaN; abs folds a -0.0 maximum into 0.0
    worst = abs(float(np.max([block_worst(lo) for lo in range(0, n, PUSH_BLOCK)],
                             initial=0.0)))
    if not worst <= EXACT_TOL:
        raise ComputeError(f"linear solve did not reach tolerance {EXACT_TOL:g}; "
                           f"worst column residual {worst:g}")
    return DiffusionMatrix(data=x, exactness="exact", certificate={"residual_max": worst})


def diffuse_series(T, spec, K, threads=0):
    """Truncated series sum_{k=0..K} theta_k T^k, accumulated Horner style.

    Trailing zero weights leave the sum unchanged bit for bit and are
    dropped. Ppr weights never increase, nor Heat ones past k = t, so they
    stop at their first 0.0 and a huge K stays cheap. Horner runs on one
    block of PUSH_BLOCK identity columns at a time, each written into its
    columns of a Fortran-ordered result, so peak memory is the result plus
    a few N x PUSH_BLOCK temporaries per running block. Blocks run in a
    thread pool as in diffuse_push_matrix (threads=1 runs serially, 0 uses
    one worker per usable core). Each column of a sparse-by-dense product
    depends only on its own input column, so the result equals the Horner
    sum on the whole N x N identity bit for bit, whatever the threads. The
    certificate is the analytic tail sum_{k > K} theta_k, which bounds
    every column's L1 error when T is column-stochastic (the random walk).
    """
    Series(K)  # the route checks K
    th = []
    # the weights past an explicit list are 0, so at most the list is read
    last = min(K, len(spec.theta) - 1) if isinstance(spec, Explicit) else K
    for k in range(last + 1):
        th.append(theta(spec, k))
        decreasing = isinstance(spec, Ppr) or isinstance(spec, Heat) and k > spec.t
        if th[-1] == 0.0 and decreasing:
            break
    while len(th) > 1 and th[-1] == 0.0:
        th.pop()
    n = T.n
    m = T.matrix

    def block(lo, hi):
        x = th[-1] * np.eye(n, hi - lo, -lo)  # identity columns lo..hi-1
        diag = (np.arange(lo, hi), np.arange(hi - lo))
        for coef in reversed(th[:-1]):
            x = m @ x
            if coef != 0.0:
                x[diag] += coef
        return x, None

    data, _ = _column_blocks(n, block, threads)
    return DiffusionMatrix(data=data, exactness=f"series:{K}",
                           certificate={"tail_mass": theta_tail(spec, K)})


@dataclass
class PushColumn:
    """A localized diffusion column plus the accounting of its computation.

    indices/values hold the positive entries of the approximation, clipped
    at 0. residual_l1 is the L1 norm of the signed residual the drain
    leaves, and bounds the L1 distance to the exact column. touched counts
    threshold-phase push events, the quantity with a size-independent
    ceiling of 1 / (alpha * eps * min_degree). rounds_drain counts drain
    rounds, each a full-graph matvec.
    """

    indices: np.ndarray
    values: np.ndarray
    residual_l1: float
    touched: int
    support: int
    rounds_threshold: int
    rounds_drain: int

    def dense(self, n):
        out = np.zeros(n)
        out[self.indices] = self.values
        return out


def _check_push(T, eps):
    """Push's preconditions: the random walk and a Push(eps) tolerance."""
    if not isinstance(T.kind, RandomWalk):
        raise InputError("push approximations require the column-stochastic "
                         "random-walk transition matrix")
    Push(eps)


def _row_l1(r):
    """Sum of |r| per column, each taken over a contiguous row.

    A single column sums its n entries the same way, so the value, and
    every stopping decision made on it, does not depend on the block
    layout.
    """
    return np.abs(r.T, order="C").sum(axis=1)


def _push_ppr_block(T, alpha, eps, columns):
    """Geometric push for a block of source columns at once.

    Residuals R and estimates P of the sources are dense n x b arrays, so
    a round is one sparse-by-dense product for the whole block (in the
    threshold phase only T's columns at nodes active in some source take
    part). Every column runs exactly the rounds of a standalone push: a
    column with no active node receives zero updates, and in the drain
    only columns whose own residual is still above the cap are updated,
    with scalars that depend on the round number alone, so each column's
    result does not depend on the other sources in its block.

    Returns the clipped estimates (n x b) and, per column, the residual
    L1, the threshold-phase push events (touched), and the threshold and
    drain round counts. Its callers check T, alpha and eps once, before
    the first block.
    """
    m = T.matrix
    b = len(columns)
    thresholds = (eps * T.degrees)[:, None]
    spread = 1.0 - alpha

    p = np.zeros((T.n, b))
    r = np.zeros((T.n, b))
    r[columns, np.arange(b)] = 1.0
    touched = np.zeros(b, dtype=np.int64)
    rounds_threshold = np.zeros(b, dtype=np.int64)
    while True:
        active = r >= thresholds
        # only nodes active in some column push or spread mass; updating
        # the other rows would add exact zeros
        rows = np.flatnonzero(active.any(axis=1))
        if not rows.size:
            break
        act = active[rows]
        counts = act.sum(axis=0)
        rounds_threshold += counts > 0
        touched += counts
        ra = r[rows] * act
        p[rows] += alpha * ra
        r[rows] -= ra
        r += spread * (m[:, rows] @ ra)

    # The drain solves (I - (1-alpha) T) z = r by the Chebyshev
    # semi-iteration (Golub & Varga, 1961) and adds alpha z to p. On an
    # undirected source T = D^1/2 S D^-1/2 with S symmetric, so the system's
    # spectrum lies in [alpha, 2 - alpha]: centre 1, half-width 1 - alpha. A
    # directed source gets half-width 0, where every round is the Richardson
    # step p += alpha r, r <- (1-alpha) T r. A column stops once its
    # measured residual L1 is at most the cap; live columns advance in
    # lockstep, so the scalars beta, omega depend on the round number only.
    # Every round updates the whole block in place after zeroing the d of
    # stopped columns, so a stopped column's p stays as it is and its r
    # changes at most in the sign of a zero entry, which only |r| ever reads.
    # Zeroing through the mask costs nothing in a round where every column
    # is live, unlike a multiply by it.
    half = 0.0 if T.source.directed else spread
    cap = PUSH_L1_FACTOR * eps
    rounds_drain = np.zeros(b, dtype=np.int64)
    d = np.zeros_like(r)
    beta, omega, rho = 0.0, 1.0, half
    while (live := _row_l1(r) > cap).any():
        rounds_drain += live
        d *= beta
        d += omega * r
        d[:, ~live] = 0.0
        p += alpha * d
        q = m @ d
        q *= spread
        r -= d
        r += q
        # next round's d = beta d + omega r (Saad, Iterative Methods for
        # Sparse Linear Systems, Algorithm 12.1, at centre 1)
        omega = 2.0 / (2.0 - half * rho)
        beta = rho * (half * omega / 2.0)
        rho = half * omega / 2.0

    # the exact column is nonnegative, so clipping never increases an
    # entry's error and the residual still bounds the column's L1 error
    np.maximum(p, 0.0, out=p)
    return p, _row_l1(r), touched, rounds_threshold, rounds_drain


def diffuse_push_ppr(T, alpha, eps, column):
    """Approximate one geometric-diffusion column by residual pushing.

    Phase one repeatedly expands every node whose residual exceeds
    eps * degree, moving alpha of it into the answer and spreading the
    rest along the node's transition column; it ends with
    max_i r_i / degree_i < eps, and its push events are bounded
    independently of N. Phase two, the drain, solves (I - (1-a)T) z = r for
    the leftover residual by the Chebyshev semi-iteration, one full-graph
    matvec per round and no thresholds, adding a z to the answer. On an
    undirected source the spectrum of I - (1-a)T lies in [a, 2-a], and a
    round cuts the residual by about (sqrt(k) - 1) / (sqrt(k) + 1) with
    k = (2-a)/a (0.56 at a = 0.15, against 1-a = 0.85 for the plain damped
    matvec that a directed source still runs). It stops once sum |r| is at
    most PUSH_L1_FACTOR * eps. The identity
    exact = p + a (I - (1-a)T)^-1 r holds up to the final clip, and
    a (I - (1-a)T)^-1 has L1 norm 1 for the column-stochastic T, so sum |r|
    caps the column's L1 error. The residual may be signed, so p is
    finally clipped at 0, which moves no entry away from the nonnegative
    exact column. This is the block kernel
    run on a block of one column; diffuse_push_matrix runs it on blocks of
    PUSH_BLOCK columns with the same per-column result.
    """
    _check_push(T, eps)
    Ppr(alpha)  # the spec checks alpha
    n = T.n
    if not 0 <= column < n:
        raise InputError(f"column {column} out of range for {n} nodes")
    p, residual_l1, touched, rounds_threshold, rounds_drain = _push_ppr_block(
        T, alpha, eps, [column])
    nz = np.flatnonzero(p[:, 0])
    return PushColumn(indices=nz, values=p[nz, 0], residual_l1=float(residual_l1[0]),
                      touched=int(touched[0]), support=int(nz.size),
                      rounds_threshold=int(rounds_threshold[0]),
                      rounds_drain=int(rounds_drain[0]))


def _push_certificate(support, residual_l1, touched, rounds_drain):
    """Error and cost accounting of push columns, from per-column arrays."""
    return {
        "residual_l1_max": float(residual_l1.max()),
        "support_mean": float(support.mean()),
        "touched_mean": float(touched.mean()),
        "drain_rounds_mean": float(rounds_drain.mean()),
    }


def diffuse_push_matrix(T, spec, eps, threads=0):
    """All columns of a geometric push approximation, as one dense N x N array.

    Columns are pushed in consecutive blocks of PUSH_BLOCK sources, and
    each block is written straight into its columns of a Fortran-ordered
    result, so a block is one contiguous slice. Blocks are independent and
    run in a thread pool (threads=1 runs serially, 0 uses one worker per
    usable core), writing disjoint slices. Only the block products release
    the interpreter lock; the rest of each round holds it, so more threads
    barely help: at N=1000 and eps 1e-4 on 2 shared cores, two threads took
    0.315 s against 0.341 s for one, and the block products alone ran 1.3
    times as fast on two threads as on one. Each column's result is the
    same whatever block or thread computes it. Peak memory is the result
    plus each running block's N x PUSH_BLOCK temporaries. The certificate
    aggregates the per-column residual and cost accounting; a column's
    support is its count of nonzero entries. Heat has no push kernel: see
    diffuse.
    """
    if not isinstance(spec, Ppr):
        raise InputError("the push kernel is geometric only; diffuse runs heat "
                         "under push as a truncated series")
    _check_push(T, eps)

    def block(lo, hi):
        p, residual_l1, touched, _, rounds_drain = _push_ppr_block(
            T, spec.alpha, eps, np.arange(lo, hi))
        return p, (np.count_nonzero(p, axis=0), residual_l1, touched, rounds_drain)

    data, blocks = _column_blocks(T.n, block, threads)
    certificate = _push_certificate(*map(np.concatenate, zip(*blocks))) if T.n else {}
    return DiffusionMatrix(data=data, exactness=f"push:{eps:g}",
                           certificate=certificate)


def diffuse(T, spec, route=Exact(), threads=0):
    """The diffusion by the one route that spec and route select.

    Geometric Exact() is the closed-form solve and geometric Push(eps) the
    block push kernel. Everything else is diffuse_series: at Series(k)'s
    k, else at the order whose analytic tail is below SERIES_TAIL_TOL
    under Exact() and below eps for heat under Push(eps) (push's
    per-column L1 <= eps on the random walk it requires). Explicit weights
    have no push route.
    """
    if isinstance(route, Push):
        if isinstance(spec, Ppr):
            return diffuse_push_matrix(T, spec, route.eps, threads=threads)
        if not isinstance(spec, Heat):
            raise InputError("push mode supports the geometric and heat families only")
        _check_push(T, route.eps)
        k = truncation_k(spec, route.eps)
    elif isinstance(route, Exact) and isinstance(spec, Ppr):
        return diffuse_exact_ppr(T, spec.alpha)
    elif isinstance(route, Series):
        k = route.k
    elif isinstance(route, Exact):
        k = truncation_k(spec, SERIES_TAIL_TOL)
    else:
        raise InputError(f"unknown diffusion route {route!r}")
    return diffuse_series(T, spec, k, threads=threads)
