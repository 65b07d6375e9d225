"""Sparse graph container, connectivity helpers and transition matrices.

Graphs are stored column-major (compressed sparse column). All weights are
strictly positive and finite, and row indices are sorted and unique within
each column; graph_from_edges sums repeated edges. Undirected graphs store
every edge in both triangles so the matrix is exactly symmetric.

Every text file the package reads (edge lists, config and weight files) is
read by read_lines, under one rule: '#' starts a comment, lines left blank
are skipped, and line numbers count every line so that an error can name
path:lineno. Every text file it writes but an edge list (sidecars, weight
files, the CSV reports) is written by write_lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InputError, check_number


@dataclass(frozen=True)
class RandomWalk:
    """Column-stochastic normalization A D^-1."""


@dataclass(frozen=True)
class Symmetric:
    """Symmetric normalization D^-1/2 A D^-1/2."""


@dataclass(frozen=True)
class SymmetricSelfLoop:
    """Symmetric normalization of the self-loop adjusted adjacency.

    Builds (w I + D)^-1/2 (w I + A) (w I + D)^-1/2, equivalent to a lazy
    walk that stays put at node i with probability w / (w + D_ii).
    """

    w_loop: float = 1.0

    def __post_init__(self):
        check_number(self.w_loop, "self-loop weight", must="positive")


# the two degree normalizations of the GDC paper, T_rw and T_sym: the kinds
# that renormalize a sparsified graph (PostProcess.renorm) and that name a
# normalized Laplacian, and the kinds under which a zero degree is refused
DegreeNormalization = RandomWalk | Symmetric
TransitionKind = DegreeNormalization | SymmetricSelfLoop


class SparseGraph:
    """Immutable weighted graph in CSC form.

    The graph is one scipy CSC matrix, validated once when the graph is
    built: values > 0 and finite, rows in range, sorted and unique within
    each column, no self-loops unless allowed, exact symmetry when
    undirected, and one original id per node. Every graph, from_scipy's
    included, enters through that validation; nothing is repaired. Its
    index arrays keep scipy's dtype (int32 while they fit).

    The stored arrays, original_ids included, are read-only views of the
    arrays passed in, which are not copied (ids that are not int64 are
    converted first): writing into the graph's arrays raises ValueError,
    and the caller must not write into its own arrays afterwards.

    Attributes:
        n: node count.
        matrix: the canonical scipy.sparse.csc_matrix over the read-only
            arrays; to_scipy() gives a matrix object of one's own.
        col_ptr, row_idx, values: matrix's indptr, indices and data.
        directed: if False the stored matrix is exactly symmetric.
        original_ids: maps dense node id -> id in the source data.
    """

    __slots__ = ("n", "matrix", "col_ptr", "row_idx", "values", "directed",
                 "original_ids")

    def __init__(self, n, col_ptr, row_idx, values, directed,
                 original_ids=None, allow_loops=False):
        self.n = int(n)
        # checked first: scipy would reject some with a ValueError of its
        # own, and silently drop the entries past a short col_ptr[-1]
        if np.shape(col_ptr) != (self.n + 1,):
            raise InputError("column pointer array has wrong length")
        if col_ptr[0] != 0 or not col_ptr[-1] == np.size(row_idx) == np.size(values):
            raise InputError("column pointers must run from 0 to the entry count")
        m = self.matrix = sp.csc_matrix(
            (np.asarray(values, dtype=np.float64), row_idx, col_ptr),
            shape=(self.n, self.n))
        # the stored arrays are read-only views, so the caller's stay writable
        views = [a.view() for a in (m.indptr, m.indices, m.data)]
        for view in views:
            view.flags.writeable = False
        m.indptr, m.indices, m.data = self.col_ptr, self.row_idx, self.values = views
        self.directed = bool(directed)
        if original_ids is None:
            original_ids = np.arange(self.n, dtype=np.int64)
        self.original_ids = np.asarray(original_ids, dtype=np.int64).view()
        self.original_ids.flags.writeable = False
        self._validate(allow_loops)

    def _validate(self, allow_loops):
        if self.original_ids.shape != (self.n,):
            raise InputError(f"original_ids has shape {self.original_ids.shape}, not ({self.n},)")
        # min and max propagate NaN, which fails both comparisons
        if self.values.size and not 0 < self.values.min() <= self.values.max() < np.inf:
            raise InputError("edge weights must be strictly positive and finite")
        rows = self.row_idx
        if rows.size and not 0 <= rows.min() <= rows.max() < self.n:
            raise InputError("row index out of range")
        # with rows in range, (column, row) pairs are strictly increasing in
        # storage order exactly when every column is sorted and duplicate-free
        cols = self.column_of_entry()
        bad = np.flatnonzero(np.diff(cols * self.n + rows) <= 0)
        if bad.size:
            raise InputError("rows not sorted or duplicated in column "
                             f"{int(cols[bad[0] + 1])}")
        if not allow_loops and np.any(rows == cols):
            raise InputError("self-loops are not allowed in a base adjacency")
        if not self.directed and (self.matrix != self.matrix.T).nnz != 0:
            raise InputError("undirected graph must be stored symmetrically")

    @classmethod
    def from_scipy(cls, matrix, directed, original_ids=None, allow_loops=False):
        """Validate a scipy sparse matrix as a SparseGraph; nothing is repaired.

        The matrix is converted to CSC as scipy does (a COO input has its
        duplicates summed by that conversion) and must then be canonical:
        rows sorted and unique in every column and no stored zeros, or the
        constructor raises InputError. Nothing is written into the argument.
        A CSC argument's arrays are kept, not copied (scipy casts int64 index
        arrays to int32 when their values fit), so the caller must not write
        into them afterwards.
        """
        m = sp.csc_matrix(matrix)
        return cls(m.shape[0], m.indptr, m.indices, m.data, directed,
                   original_ids=original_ids, allow_loops=allow_loops)

    def to_scipy(self):
        """A new csc_matrix over the graph's own arrays; no array is copied.

        The arrays are read-only: writing into them in place raises
        ValueError, while reassigning the result's data or indices leaves
        the graph as it is.
        """
        return sp.csc_matrix(self.matrix)

    @property
    def nnz(self):
        return int(self.values.size)

    @property
    def edge_count(self):
        """Number of edges (undirected pairs counted once, loops once)."""
        loops = int(np.count_nonzero(self.matrix.diagonal()))
        return self.nnz if self.directed else (self.nnz - loops) // 2 + loops

    def column_of_entry(self):
        """Column index of every stored entry, aligned with row_idx.

        int64 whatever the stored index dtype, so that _validate's sort key
        cols * n + rows cannot overflow.
        """
        return np.repeat(np.arange(self.n), np.diff(self.col_ptr))

    def degrees(self):
        """Weighted degree per node: scipy's column sum (= row sum if symmetric)."""
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def column(self, j):
        """(row indices, weights) of column j."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def same_structure(self, other):
        return (self.n == other.n
                and self.directed == other.directed
                and np.array_equal(self.col_ptr, other.col_ptr)
                and np.array_equal(self.row_idx, other.row_idx)
                and np.array_equal(self.values, other.values))


def graph_from_edges(src, dst, weight, n=None, directed=False,
                     allow_self_loops=False):
    """SparseGraph from edge columns: source ids, target ids and weights.

    Ids must be non-negative, weights positive and finite, and self-loops
    are rejected unless allowed; the error names the first offending edge.
    Ids are densified to 0..N-1 (original_ids keeps them) unless n fixes
    the node count. Repeated (src, dst) edges sum their weights. Undirected
    edge {i, j} stores the larger of its two directed totals, so a mirrored
    listing does not double the weight while repeated lines accumulate.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    wgt = np.asarray(weight, dtype=np.float64)
    ok = (src >= 0) & (dst >= 0) & (wgt > 0) & (wgt < np.inf)
    bad = np.flatnonzero(~(ok & ((src != dst) | allow_self_loops)))
    if bad.size:
        s, d, w = int(src[bad[0]]), int(dst[bad[0]]), float(wgt[bad[0]])
        if s < 0 or d < 0:
            raise InputError(f"node ids must be non-negative, got ({s}, {d})")
        if not 0 < w < np.inf:
            raise InputError(f"edge weight must be positive and finite, got {w} "
                             f"on ({s}, {d})")
        raise InputError(f"self-loop on node {s} rejected")

    if n is None:
        original_ids, dense = np.unique(np.concatenate([src, dst]),
                                        return_inverse=True)
        src, dst, n = dense[:src.size], dense[src.size:], original_ids.size
    else:
        n, original_ids = int(n), None  # ids are 0..n-1
        if src.size and max(src.max(), dst.max()) >= n:
            raise InputError("node id exceeds n_hint")

    # Entries are (row, col) = (dst, src) so that column j holds the edges
    # leaving node j; for undirected graphs the distinction vanishes.
    m = sp.csc_matrix((wgt, (dst, src)), shape=(n, n))  # sums duplicates
    if not directed:
        m = m.maximum(m.T)
    return SparseGraph.from_scipy(m, directed, original_ids=original_ids,
                                  allow_loops=allow_self_loops)


def load_graph(edges, n_hint=None, directed=False, allow_self_loops=False):
    """graph_from_edges on (src, dst[, weight]) tuples, weight 1.0 by default."""
    edges = list(edges)
    if not set(map(len, edges)) <= {2, 3}:
        bad = next(e for e in edges if len(e) not in (2, 3))
        raise InputError(f"expected (src, dst[, weight]) edges, got {bad!r}")
    try:
        src = np.array([int(e[0]) for e in edges], dtype=np.int64)
        dst = np.array([int(e[1]) for e in edges], dtype=np.int64)
    except OverflowError:
        bad = next(e for e in edges if not all(-2**63 <= int(i) < 2**63 for i in e[:2]))
        raise InputError(f"node id does not fit in int64 in edge {bad!r}") from None
    wgt = np.array([float(e[2]) if len(e) == 3 else 1.0 for e in edges],
                   dtype=np.float64)
    return graph_from_edges(src, dst, wgt, n=n_hint, directed=directed,
                            allow_self_loops=allow_self_loops)


def largest_connected_component(g):
    """Restrict g to its largest (weakly) connected component.

    Returns the subgraph and an index map old -> new with -1 for dropped
    nodes. Ties between equally sized components go to the one containing
    the smallest node id.
    """
    if g.n == 0:
        raise InputError("empty graph has no connected component")
    ncomp, labels = csgraph.connected_components(g.matrix, directed=g.directed,
                                                 connection="weak")
    sizes = np.bincount(labels, minlength=ncomp)
    keep = int(np.argmax(sizes))
    mask = labels == keep
    index_map = np.full(g.n, -1, dtype=np.int64)
    index_map[mask] = np.arange(int(mask.sum()))
    sub = g.matrix[mask][:, mask]
    return (SparseGraph.from_scipy(sub, g.directed,
                                   original_ids=g.original_ids[mask],
                                   allow_loops=True),
            index_map)


@dataclass(frozen=True)
class TransitionMatrix:
    """Degree-normalized adjacency tied to its source graph.

    matrix is CSC; degrees are the weighted degrees of the source graph
    (before any self-loop adjustment).
    """

    matrix: sp.csc_matrix
    kind: TransitionKind
    source: SparseGraph
    degrees: np.ndarray

    @property
    def n(self):
        return self.matrix.shape[0]


def scaled(m, left, right=None):
    """Entries m_ij * (left_i * right_j) on the pattern of m, as CSC.

    right defaults to left. The factor product is formed first, so with
    right = left a symmetric m gives a result symmetric bit for bit.
    """
    m = sp.csc_matrix(m)
    right = left if right is None else right
    cols = np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
    vals = m.data * (left[m.indices] * right[cols])
    return sp.csc_matrix((vals, m.indices.copy(), m.indptr.copy()), shape=m.shape)


def require_nonzero_degrees(g, d):
    """Raise InputError if a degree in d, one per node of g, is 0.

    The message names g's original ids: the first zero-degree node, their
    count and at most 5 of them, so it stays one bounded line.
    """
    zero = np.flatnonzero(d == 0)
    if zero.size:
        ids = g.original_ids[zero[:5]].tolist()
        more = ", ..." if zero.size > 5 else ""
        raise InputError(f"node {ids[0]} has degree 0 ({zero.size} zero-degree "
                         f"node(s): {', '.join(map(str, ids))}{more})")


def transition_matrix(g, kind):
    """T_rw, T_sym or the self-loop variant: g scaled by its degrees d = g.degrees().

    Every normalization but postprocess's directed Symmetric() (by
    in-degrees) comes from here, laplacian's and postprocess's included;
    D^-1 is formed as 1.0 / d, so a zero degree is rejected under
    RandomWalk and Symmetric (see require_nonzero_degrees).
    """
    d = g.degrees()
    if isinstance(kind, DegreeNormalization):
        require_nonzero_degrees(g, d)

    if isinstance(kind, RandomWalk):
        m = scaled(g.matrix, np.ones(g.n), 1.0 / d)
    elif isinstance(kind, Symmetric):
        m = scaled(g.matrix, 1.0 / np.sqrt(d))
    elif isinstance(kind, SymmetricSelfLoop):
        w = float(kind.w_loop)
        s = 1.0 / np.sqrt(w + d)
        m = (scaled(g.matrix, s) + sp.diags(w * (s * s), format="csc")).tocsc()
    else:
        raise InputError(f"unknown transition kind {kind!r}")
    return TransitionMatrix(matrix=m, kind=kind, source=g, degrees=d)


EXPORT_CHUNK = 8192  # edge lines formatted per write by save_edge_list


def save_edge_list(path, g):
    """Write g as whitespace-separated edge lines; nothing else is written.

    Undirected graphs emit each edge once (upper triangle by stored order);
    directed graphs emit every entry. Weights use shortest-round-trip
    formatting so a reload reproduces the exact float values. Lines are
    formatted and written EXPORT_CHUNK at a time, so the text held at once
    is one chunk's, not the file's. A caller that wants the .meta sidecar
    writes it with write_meta(path, edge_list_meta(g, its keys)).
    """
    rows, cols, vals = g.row_idx, g.column_of_entry(), g.values
    if not g.directed:
        upper = rows <= cols
        rows, cols, vals = rows[upper], cols[upper], vals[upper]
    with open(path, "w") as fh:
        for lo in range(0, rows.size, EXPORT_CHUNK):
            chunk = slice(lo, lo + EXPORT_CHUNK)
            # edge line is "src dst weight" with src = column (origin of mass)
            fh.write("".join(f"{c} {r} {v!r}\n" for r, c, v in zip(
                rows[chunk].tolist(), cols[chunk].tolist(), vals[chunk].tolist())))


def edge_list_meta(g, metadata=None):
    """Sidecar fields describing g, followed by (and overridden by) metadata."""
    meta = {
        "nodes": g.n,
        "edges": g.edge_count,
        "directed": str(g.directed).lower(),
        "id_map": ",".join(str(int(i)) for i in g.original_ids),
    }
    if metadata:
        meta.update(metadata)
    return meta


def write_meta(path, meta):
    """Write meta as flat 'key = value' lines to the sidecar path + '.meta'."""
    write_lines(str(path) + ".meta", (f"{k} = {v}" for k, v in meta.items()))


def read_lines(path):
    """Yield (lineno, text) for every line of the text file at path that
    holds data once its '#' comment is cut off and it is stripped.

    Blank and comment-only lines are skipped, but lineno counts every line,
    so a reader's error can name path:lineno. The file is closed when the
    iteration ends or the generator is closed or collected, as it is when
    a reader raises mid-file.
    """
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.partition("#")[0].strip()
            if line:
                yield lineno, line


def write_lines(path, lines):
    """Write each of lines, a string, followed by a newline to path."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def read_edge_list(path):
    """Parse an edge-list file into (src, dst, weight) tuples.

    Lines are read by read_lines and are whitespace separated; weights
    default to 1.0. A line without two integer ids and an optional float
    weight raises InputError naming path and line number.
    """
    edges = []
    for lineno, line in read_lines(path):
        parts = line.split()
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            s, d = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected 'src dst [weight]'") from None
        edges.append((s, d, w))
    return edges


def load_edge_list(path, directed=False, allow_self_loops=False):
    return load_graph(read_edge_list(path), directed=directed,
                      allow_self_loops=allow_self_loops)
