"""Diffusion weight sequences and their polynomial-filter equivalents.

A diffusion is a weighted sum over powers of a transition matrix T with
nonnegative weights theta_k summing to one. The same operator can be written
as a polynomial in the Laplacian L = I - T; expanding (I - L)^k binomially
gives the conversion

    xi_j    = sum_{k=j..K} C(k, j) (-1)^j theta_k
    theta_k = sum_{j=k..J} C(j, k) (-1)^k xi_j        (J = K)

The alternating binomial sums grow combinatorially, so the float path uses
compensated summation and is capped at K = 60; an exact rational path is
available for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, check_number

FLOAT_CONVERSION_CAP = 60


@dataclass(frozen=True)
class Ppr:
    """Geometric weights theta_k = alpha (1 - alpha)^k; alpha, the teleport
    probability, defaults to 0.15."""

    alpha: float = 0.15

    def __post_init__(self):
        check_number(self.alpha, "teleport probability", must="in (0, 1)")


@dataclass(frozen=True)
class Heat:
    """Poisson weights theta_k = e^-t t^k / k!."""

    t: float

    def __post_init__(self):
        check_number(self.t, "diffusion time", must="positive")


@dataclass(frozen=True)
class Explicit:
    """A finite, user-supplied weight list.

    Weights must lie in [0, 1] and sum to at most 1. A sum below 1 is kept
    as-is; the list is not renormalized. A series or a tail past its end
    counts the missing weights as 0; theta itself refuses an index past it.
    """

    theta: tuple

    def __post_init__(self):
        for x in self.theta:
            check_number(x, "explicit weight")
        th = tuple(float(x) for x in self.theta)
        object.__setattr__(self, "theta", th)
        if not th:
            raise InputError("explicit weight list may not be empty")
        if not all(0.0 <= x <= 1.0 for x in th):
            raise InputError("explicit weights must lie in [0, 1]")
        if math.fsum(th) > 1.0 + 1e-12:
            raise InputError("explicit weights must sum to at most 1")


DiffusionSpec = Ppr | Heat | Explicit


def theta(spec, k):
    """The k-th diffusion weight of spec."""
    check_number(k, "weight index", integer=True, must="non-negative")
    if isinstance(spec, Ppr):
        return spec.alpha * (1.0 - spec.alpha) ** k
    if isinstance(spec, Heat):
        # log-space evaluation; k! overflows float far below k = 500
        return math.exp(k * math.log(spec.t) - spec.t - math.lgamma(k + 1))
    if isinstance(spec, Explicit):
        if k >= len(spec.theta):
            raise InputError(f"weight index {k} out of range for explicit list "
                             f"of length {len(spec.theta)}")
        return spec.theta[k]
    raise InputError(f"unknown diffusion spec {spec!r}")


def theta_vector(spec, K):
    """Weights theta_0 .. theta_K as a list."""
    return [theta(spec, k) for k in range(K + 1)]


def theta_tail(spec, K):
    """Analytic value of sum_{k > K} theta_k."""
    if isinstance(spec, Ppr):
        return (1.0 - spec.alpha) ** (K + 1)
    if isinstance(spec, Heat):
        # imported here: scipy.special is slow to import and only heat
        # runs need it
        from scipy import special

        # Poisson upper tail P[X > K] via the regularized incomplete gamma
        return float(special.gammainc(K + 1, spec.t))
    if isinstance(spec, Explicit):
        return math.fsum(spec.theta[K + 1:])
    raise InputError(f"unknown diffusion spec {spec!r}")


def truncation_k(spec, tail_tol):
    """Smallest K whose analytic tail sum_{k > K} theta_k is below tail_tol."""
    check_number(tail_tol, "tail tolerance", must="positive")
    if isinstance(spec, Ppr):
        # (1 - alpha)^(K+1) < tol; start at the closed-form estimate and
        # nudge to absorb float rounding at the boundary
        k = max(0, math.ceil(math.log(tail_tol) / math.log1p(-spec.alpha)) - 1)
        while k > 0 and theta_tail(spec, k - 1) < tail_tol:
            k -= 1
        while theta_tail(spec, k) >= tail_tol:
            k += 1
        return k
    if isinstance(spec, (Heat, Explicit)):
        # an Explicit tail is 0 at K = len(theta) - 1, below any tail_tol > 0
        k = 0
        while theta_tail(spec, k) >= tail_tol:
            k += 1
        return k
    raise InputError(f"unknown diffusion spec {spec!r}")


def _neumaier_sum(terms):
    """Compensated summation in extended precision."""
    s = np.longdouble(0.0)
    c = np.longdouble(0.0)
    for x in terms:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def _binomial_convert(coeffs, mode):
    """Shared kernel for both conversion directions.

    out_i = (-1)^i * sum_{m=i..K} C(m, i) coeffs[m]. The float path keeps
    extended precision end to end: the alternating back-transform amplifies
    coefficient rounding by roughly 4^K, which double precision cannot
    absorb at K = 20.
    """
    K = len(coeffs) - 1
    if mode == "float":
        if K > FLOAT_CONVERSION_CAP:
            raise InputError(
                f"float conversion is limited to K <= {FLOAT_CONVERSION_CAP} "
                f"(got K = {K}); use mode='exact' (--mode exact) for larger orders")
        vals = [np.longdouble(c) for c in coeffs]
        out = []
        for i in range(K + 1):
            # binomials up to C(60, 30) fit a 64-bit mantissa exactly
            s = _neumaier_sum(np.longdouble(math.comb(m, i)) * vals[m]
                              for m in range(i, K + 1))
            out.append(s if i % 2 == 0 else -s)
        return out
    if mode == "exact":
        vals = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        out = []
        for i in range(K + 1):
            s = sum(Fraction(math.comb(m, i)) * vals[m] for m in range(i, K + 1))
            out.append(s if i % 2 == 0 else -s)
        return out
    raise InputError(f"unknown arithmetic mode {mode!r}; use 'float' or 'exact'")


def theta_to_xi(thetas, mode="float"):
    """Laplacian-polynomial coefficients equivalent to the weights thetas.

    The returned list has the same length (J = K). mode='exact' keeps
    Fractions end to end and is the verification path for the float mode.
    """
    return _binomial_convert(list(thetas), mode)


def xi_to_theta(xis, mode="float"):
    """Inverse of theta_to_xi; same formula with the roles swapped."""
    return _binomial_convert(list(xis), mode)


def closed_form_xi(spec, j):
    """Limit value of the polynomial-filter coefficient xi_j for K -> inf.

    Heat gives (-t)^j / j!. The geometric family gives (1 - 1/alpha)^j,
    whose filter series converges only for alpha > 0.5 (see
    closed_form_converges); the value is returned regardless.
    """
    check_number(j, "coefficient index", integer=True, must="non-negative")
    if isinstance(spec, Ppr):
        return (1.0 - 1.0 / spec.alpha) ** j
    if isinstance(spec, Heat):
        mag = math.exp(j * math.log(spec.t) - math.lgamma(j + 1)) if j else 1.0
        return mag if j % 2 == 0 else -mag
    raise InputError("closed-form coefficients exist only for the geometric "
                     "and heat families")


def closed_form_converges(spec):
    """Whether the closed-form filter series converges on the unit spectrum."""
    if isinstance(spec, Ppr):
        return spec.alpha > 0.5
    if isinstance(spec, Heat):
        return True
    raise InputError("convergence tag applies only to the geometric and heat families")
