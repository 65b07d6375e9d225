"""Computation of the diffusion matrix: closed form, series and push routes.

diffuse is the one entry to S = sum_k theta_k T^k. The route is a value,
Exact(), Series(k) or Push(eps), and every route returns a dense N x N
array, Fortran-ordered, inside a DiffusionMatrix with its certificate:

* Exact(): geometric diffusion a (I - (1-a) T)^-1 forms the system
  matrix in Fortran order and inverts it in place by one LAPACK inverse,
  densely at every size. When T.symmetric (a symmetric kind on an
  undirected graph) the system matrix is symmetric positive definite,
  since T's spectrum lies in [-1, 1] and so every eigenvalue is at least
  a; it is inverted by Cholesky, and the result is symmetric bit for bit.
  Any other T (random walk, or a directed source) is inverted by LU. The
  per-column residual infinity norm is checked against EXACT_TOL one
  block of PUSH_BLOCK columns at a time, the blocks run on the thread pool
  below, and a NaN residual fails the check; the certificate is the worst
  residual, the same at any thread count. Time is O(N^3); peak memory is
  the result plus each running block's N x PUSH_BLOCK temporaries and
  LAPACK's workspace. Heat and explicit weights under Exact() are the
  series, truncated where its analytic tail falls below SERIES_TAIL_TOL;
* Series(k): the truncated series sum_{j=0..k} theta_j T^j accumulates
  Horner style on blocks of PUSH_BLOCK identity columns, never
  materializing T^j. Trailing zero weights leave the sum unchanged bit
  for bit and are dropped; Ppr weights never increase, nor Heat ones past
  j = t, so they stop at their first 0.0 and a huge k stays cheap. Each
  column of a sparse-by-dense product depends only on its own input
  column, so the result equals the Horner sum on the whole identity bit
  for bit, whatever the threads. The certificate is the analytic tail
  sum_{j > k} theta_j, which bounds every column's L1 error when T is
  column-stochastic (the random walk), and l1_error_max, the tail times
  max_j sqrt(d_j / d_min), which bounds it on every kind;
* Push(eps): approximate PPR by residual push (Andersen, Chung and Lang,
  2006), so Ppr weights on the random walk only, as check_route states; it
  expands mass only where the residual is large, with an explicit residual
  certifying the error.
  Only the threshold-phase push events have a ceiling independent of
  graph size; the drain that follows is a Chebyshev semi-iteration on the
  leftover residual, one full-graph matvec per round, so support and wall
  time per column grow with N. Its residual is signed; its L1 norm still
  bounds the column's L1 error, and the estimate is clipped at 0. Columns
  are pushed in blocks of PUSH_BLOCK sources, one sparse-by-dense product
  per round, and each column's result is the same whatever block or
  thread computes it (diffuse_push_ppr is the one-column entry). The
  certificate aggregates the per-column residual and cost accounting; a
  column's support is its count of nonzero entries.

Series and push fill the result through one loop over blocks of PUSH_BLOCK
columns, each block written into its own contiguous slice of a
Fortran-ordered N x N array, so either route holds one N x N array plus
per-block temporaries per running block. Blocks are independent and run in
a thread pool (threads=1 runs serially, 0 uses one worker per usable core).
Only the block products release the interpreter lock, so more threads help
push only where those products dominate. Push at eps 1e-4 on the benchmark
SBM, median of 5 in-process calls alternating the thread count, one BLAS
thread, on a machine with 2 shared cores: at N=1000, where the per-round
Python work dominates, two threads took 0.37-0.39 s against 0.36-0.37 s
for one; at N=3000, where the drain's full-graph products dominate, 1.59 s
against 2.54-2.77 s (two runs each).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .coeffs import Explicit, Heat, Ppr, theta, theta_tail, truncation_k
from .errors import ComputeError, InputError, check_number
from .graph import RandomWalk, SymmetricSelfLoop

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

    Automatic (0 or None) means one worker per core this process may run
    on, so BLAS-heavy workers do not oversubscribe the machine; where the
    platform cannot tell those cores (macOS, Windows), one per core. A
    negative or non-integer count is an InputError.
    """
    if threads is not None:
        check_number(threads, "thread count", integer=True, must="non-negative")
    if threads:
        return int(threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        check_number(self.k, "series order", integer=True, must="non-negative")


@dataclass(frozen=True)
class Push:
    """Residual push to tolerance eps: PPR weights on the random walk only."""

    eps: float

    def __post_init__(self):
        check_number(self.eps, "push tolerance", must="positive")


@dataclass
class DiffusionMatrix:
    """Columns of the diffusion operator with the accounting of their route."""

    data: np.ndarray  # dense N x N, Fortran-ordered on every route
    exactness: str  # 'exact', 'series:K', 'push:EPS'
    # error accounting of the computation, e.g. {'residual_max': ...}
    certificate: dict = field(default_factory=dict)


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


def _l1_factor(T):
    """max_j sqrt(d_j / d_min), which carries a column L1 bound on T_rw to T.

    T_sym = D^-1/2 T_rw D^1/2 for every source, d being T.degrees (plus w
    under SymmetricSelfLoop(w), whose T is T_sym of A + w I), so column j
    of any power series in T_sym is sqrt(d_j) D^-1/2 times that column of
    the same series in the column-stochastic T_rw: its L1 norm grows by at
    most sqrt(d_j / d_min). The factor is 1.0 on the random walk itself.
    """
    if isinstance(T.kind, RandomWalk) or not T.n:
        return 1.0
    d = T.degrees + (T.kind.w_loop if isinstance(T.kind, SymmetricSelfLoop) else 0.0)
    return float(np.sqrt(d.max() / d.min()))


def _exact_ppr(T, alpha, threads):
    """Exact() for Ppr(alpha): the closed form, inverted in place, its
    residual checked one block of PUSH_BLOCK columns at a time on the pool."""
    n = T.n
    m = T.matrix
    a = m.toarray(order="F")
    a *= -(1.0 - alpha)
    a.flat[::n + 1] += 1.0
    x = _inverse(a, T.symmetric)
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
    worst = abs(float(np.max(pool_map(block_worst, range(0, n, PUSH_BLOCK), threads),
                             initial=0.0)))
    if not worst <= EXACT_TOL:
        raise ComputeError(f"linear solve did not reach tolerance {EXACT_TOL:g}; "
                           f"worst column residual {worst:g}")
    # x's error is (I - (1-a) T)^-1 r for the residual r, and a (I - (1-a)
    # T_rw)^-1 has column L1 norm 1
    return DiffusionMatrix(data=x, exactness="exact", certificate={
        "residual_max": worst, "l1_error_max": n * worst / alpha * _l1_factor(T)})


def _series(T, spec, k, threads):
    """Series(k): the weights up to order k summed Horner style per block."""
    th = []
    # the weights past an explicit list are 0, so at most the list is read
    last = min(k, len(spec.theta) - 1) if isinstance(spec, Explicit) else k
    for j in range(last + 1):
        th.append(theta(spec, j))
        decreasing = isinstance(spec, Ppr) or isinstance(spec, Heat) and j > spec.t
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
    tail = theta_tail(spec, k)
    return DiffusionMatrix(data=data, exactness=f"series:{k}", certificate={
        "tail_mass": tail, "l1_error_max": tail * _l1_factor(T)})


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
    rounds_drain: int


def check_route(kind, spec, route):
    """Raise InputError unless route can diffuse spec on a transition of kind.

    Exact() and Series(k) take every spec on every kind. Push(eps) is
    approximate PPR by residual push, so it takes Ppr weights only, on the
    column-stochastic random walk only: heat and explicit weights are
    summed as a series. diffuse and diffuse_push_ppr check here before any
    kernel runs, and a sparsify.Gdc when it is built.
    """
    if not isinstance(route, (Exact, Series, Push)):
        raise InputError(f"unknown diffusion route {route!r}")
    if isinstance(route, Push) and not isinstance(spec, Ppr):
        raise InputError("push runs geometric (ppr) weights only; sum heat or "
                         "explicit weights as a series: Series(k) or Exact() "
                         "(--series K or --exact)")
    if isinstance(route, Push) and not isinstance(kind, RandomWalk):
        raise InputError("push requires the column-stochastic random-walk "
                         "transition matrix (--transition rw)")


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
    L1, the threshold-phase push events (touched) and the drain round
    count. Its callers check T, alpha and eps once, before the first block.
    """
    m = T.matrix
    b = len(columns)
    thresholds = (eps * T.degrees)[:, None]
    spread = 1.0 - alpha

    p = np.zeros((T.n, b))
    r = np.zeros((T.n, b))
    r[columns, np.arange(b)] = 1.0
    touched = np.zeros(b, dtype=np.int64)
    while True:
        active = r >= thresholds
        # only nodes active in some column push or spread mass; updating
        # the other rows would add exact zeros
        rows = np.flatnonzero(active.any(axis=1))
        if not rows.size:
            break
        act = active[rows]
        touched += act.sum(axis=0)
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
    return p, _row_l1(r), touched, rounds_drain


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
    run on a block of one column; diffuse's Push route runs it on blocks of
    PUSH_BLOCK columns with the same per-column result.
    """
    check_route(T.kind, Ppr(alpha), Push(eps))
    n = T.n
    check_number(column, "column", integer=True)
    if not 0 <= column < n:
        raise InputError(f"column {column} out of range for {n} nodes")
    p, residual_l1, touched, rounds_drain = _push_ppr_block(T, alpha, eps, [column])
    nz = np.flatnonzero(p[:, 0])
    return PushColumn(indices=nz, values=p[nz, 0], residual_l1=float(residual_l1[0]),
                      touched=int(touched[0]), support=int(nz.size),
                      rounds_drain=int(rounds_drain[0]))


def _push_certificate(support, residual_l1, touched, rounds_drain):
    """Error and cost accounting of push columns, from per-column arrays."""
    return {
        "residual_l1_max": float(residual_l1.max()),
        "support_mean": float(support.mean()),
        "touched_mean": float(touched.mean()),
        "drain_rounds_mean": float(rounds_drain.mean()),
        "l1_error_max": float(residual_l1.max()),
    }


def _push_matrix(T, alpha, eps, threads):
    """Push(eps) for Ppr(alpha): every column, pushed one block at a time."""

    def block(lo, hi):
        p, residual_l1, touched, rounds_drain = _push_ppr_block(
            T, alpha, eps, np.arange(lo, hi))
        return p, (np.count_nonzero(p, axis=0), residual_l1, touched, rounds_drain)

    data, blocks = _column_blocks(T.n, block, threads)
    certificate = _push_certificate(*map(np.concatenate, zip(*blocks))) if T.n else {}
    return DiffusionMatrix(data=data, exactness=f"push:{eps:g}", certificate=certificate)


def diffuse(T, spec, route=Exact(), threads=0):
    """The diffusion of T under spec by route, the one entry to every route.

    check_route checks route, spec and T's kind once per call, before any
    kernel runs: Push(eps) takes Ppr weights on the random walk only.
    Geometric Exact() is the closed-form solve, with certificate
    {'residual_max', 'l1_error_max'}, and Push(eps) the block push kernel,
    with certificate {'residual_l1_max', 'support_mean', 'touched_mean',
    'drain_rounds_mean', 'l1_error_max'} (empty for N = 0). Everything else
    is the series, with certificate {'tail_mass', 'l1_error_max'}: at
    Series(k)'s k, else at the order whose analytic tail is below
    SERIES_TAIL_TOL.

    l1_error_max bounds the largest column L1 error on every route and
    kind: on the random walk it is the series' tail_mass, push's
    residual_l1_max and N * residual_max / alpha for the closed form; on
    the symmetric kinds the series and closed-form bounds are multiplied by
    max_j sqrt(d_j / d_min), d the degrees (plus w under
    SymmetricSelfLoop(w)). tail_mass alone bounds the error on the random
    walk only. Both bound the error in exact arithmetic only: a computed
    error can exceed them by rounding. On the random walk the series'
    error equals its tail, and Series(10) on Ppr(0.15) over a 1000-node
    SBM read a bound of 1 - 2.3e-15 times its computed error. The result's
    exactness names the route that ran: 'exact', 'series:K' (Exact() on
    heat or explicit weights included) or 'push:EPS'. threads sizes the
    pool of the series and push blocks and of the closed form's residual
    check (see worker_count); the closed form's inverse runs on the BLAS
    library's own threads. The module docstring gives each route's time,
    memory and accuracy.
    """
    check_route(T.kind, spec, route)
    if isinstance(route, Push):
        return _push_matrix(T, spec.alpha, route.eps, threads)
    if isinstance(route, Exact) and isinstance(spec, Ppr):
        return _exact_ppr(T, spec.alpha, threads)
    k = route.k if isinstance(route, Series) else truncation_k(spec, SERIES_TAIL_TOL)
    return _series(T, spec, k, threads)
