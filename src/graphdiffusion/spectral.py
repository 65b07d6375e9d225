"""Laplacians, eigendecompositions, eigenvalue maps and polynomial filters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .coeffs import Explicit, Heat, Ppr
from .errors import InputError
from .graph import (DegreeNormalization, RandomWalk, SparseGraph, Symmetric,
                    TransitionMatrix, transition_matrix)

DENSE_EIGEN_CAP = 3000


def laplacian(obj, kind=Symmetric()):
    """Graph Laplacian of a SparseGraph, or I - T of a TransitionMatrix.

    kind is a degree normalization or None: RandomWalk() gives I - A D^-1
    and Symmetric() I - D^-1/2 A D^-1/2, each I - T of
    transition_matrix(obj, kind), and None the unnormalized D - A. Any
    other kind is an InputError, on a TransitionMatrix too, whose own kind
    is the one applied. The rw Laplacian is asymmetric; analyze it through
    symmetric_operator, which shares its spectrum.
    """
    if not isinstance(obj, (SparseGraph, TransitionMatrix)):
        raise InputError("laplacian expects a SparseGraph or TransitionMatrix")
    if kind is not None and not isinstance(kind, DegreeNormalization):
        raise InputError(f"unknown Laplacian kind {kind!r}")
    if isinstance(obj, TransitionMatrix):
        return (sp.identity(obj.n, format="csc") - obj.matrix).tocsc()
    if kind is None:
        return (sp.diags(obj.degrees(), format="csc") - obj.to_scipy()).tocsc()
    # transition_matrix sums the degrees and rejects a zero one
    return laplacian(transition_matrix(obj, kind))


def symmetric_operator(obj):
    """The symmetric matrix whose spectrum stands for obj's, as CSC.

    For a SparseGraph it is T_sym = transition_matrix(obj, Symmetric()).
    For a random-walk TransitionMatrix on an undirected source it is T_sym
    of that source, since T_rw = D^1/2 T_sym D^-1/2 shares its spectrum.
    For any other TransitionMatrix it is T itself. The matrix m is returned
    as its symmetric part (m + m.T) / 2: m bit for bit when m is symmetric
    (T_sym of an undirected graph, or T.symmetric), and the part whose
    eigenvalues are read for a directed one.
    """
    if isinstance(obj, SparseGraph):
        obj = transition_matrix(obj, Symmetric())
    elif not isinstance(obj, TransitionMatrix):
        raise InputError("symmetric_operator takes a SparseGraph or TransitionMatrix")
    elif isinstance(obj.kind, RandomWalk) and not obj.source.directed:
        obj = transition_matrix(obj.source, Symmetric())
    return (obj.matrix + obj.matrix.T) * 0.5


@dataclass
class SpectrumReport:
    """Ascending eigenvalues of a symmetric matrix, optionally with vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def eigen(matrix, want_vectors=False, cap=DENSE_EIGEN_CAP):
    """Dense symmetric eigendecomposition, ascending order.

    Asymmetric input is refused: symmetric_operator gives the symmetric
    matrix that stands for a graph's or a transition matrix's spectrum,
    random-walk kinds included. A matrix of more than cap rows is refused
    from its shape, before a sparse one is made dense; pass a larger cap to
    decompose it anyway.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InputError("eigen expects a square matrix")
    n = shape[0]
    if n > cap:
        raise InputError(f"matrix size {n} exceeds the dense eigensolver cap {cap}")
    m = np.asarray(matrix.toarray() if sp.issparse(matrix) else matrix,
                   dtype=np.float64)
    scale = max(1.0, float(np.abs(m).max()) if n else 1.0)
    if n and float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise InputError("matrix is not symmetric; pass symmetric_operator(x) instead")
    if want_vectors:
        w, u = np.linalg.eigh(m)
        return SpectrumReport(w, u)
    return SpectrumReport(np.linalg.eigvalsh(m), None)


def eigenvalue_map(spec, lam):
    """Eigenvalue of the diffusion operator at a transition eigenvalue lam.

    Closed forms: alpha / (1 - (1 - alpha) lam) for the geometric family and
    e^(t (lam - 1)) for heat; explicit weights use the finite power sum.
    """
    lam = float(lam)
    if isinstance(spec, Ppr):
        # denominator written as a + (1-a)(1-lam) so lam = 1 maps to 1.0
        # exactly; algebraically equal to 1 - (1-a) lam
        return spec.alpha / (spec.alpha + (1.0 - spec.alpha) * (1.0 - lam))
    if isinstance(spec, Heat):
        return float(np.exp(spec.t * (lam - 1.0)))
    if isinstance(spec, Explicit):
        acc = 0.0
        for th in reversed(spec.theta):
            acc = acc * lam + th
        return acc
    raise InputError(f"unknown diffusion spec {spec!r}")


def filter_response_curve(spec, laplacian_grid):
    """Response lambda_tilde over Laplacian eigenvalues in [0, 2].

    Returns an array of rows (lambda_L, response) with
    response = eigenvalue_map(spec, 1 - lambda_L). For the geometric and
    heat families this is strictly decreasing: a low-pass filter.
    """
    grid = np.asarray(laplacian_grid, dtype=np.float64)
    if grid.size and (grid.min() < 0.0 or grid.max() > 2.0):
        raise InputError("Laplacian grid values must lie in [0, 2]")
    resp = np.array([eigenvalue_map(spec, 1.0 - x) for x in grid])
    return np.column_stack([grid, resp])


def apply_poly_filter(xi, L, x):
    """Evaluate (sum_j xi_j L^j) x by Horner's rule; L^j is never formed."""
    xi = list(xi)
    x = np.asarray(x, dtype=np.float64)
    if L.shape[0] != L.shape[1] or L.shape[1] != x.shape[0]:
        raise InputError("dimension mismatch between filter operator and vector")
    y = xi[-1] * x
    for c in reversed(xi[:-1]):
        y = L @ y + c * x
    return y


@dataclass
class SpectrumDelta:
    """Sorted-order eigenvalue deviations between two spectra."""

    deltas: np.ndarray = field(repr=False)
    l2: float = 0.0


def spectrum_compare(before, after):
    """Per-index deltas (after - before) of ascending eigenvalues.

    Pairing is by sorted order; eigenvector matching is not attempted.
    """
    a = np.sort(np.asarray(before.eigenvalues, dtype=np.float64))
    b = np.sort(np.asarray(after.eigenvalues, dtype=np.float64))
    if a.shape != b.shape:
        raise InputError(f"spectrum sizes differ: {a.size} vs {b.size}")
    deltas = b - a
    return SpectrumDelta(deltas=deltas, l2=float(np.sqrt(np.sum(deltas ** 2))))
