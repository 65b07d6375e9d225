import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphdiffusion import (DiffusionMatrix, InputError, PostProcess, Ppr,
                            RandomWalk, SparseGraph, Symmetric,
                            SymmetricSelfLoop, TopK, diffuse,
                            largest_connected_component, load_edge_list,
                            load_graph, postprocess, read_edge_list,
                            save_edge_list, sparsify, transition_matrix)
from graphdiffusion.graph import (edge_list_meta, graph_from_edges, scaled,
                                  write_meta)
from conftest import er_graph


def load_graph_reference(edges, n_hint=None, directed=False,
                         allow_self_loops=False):
    """The per-edge loop and id dict that load_graph replaced by array code."""
    src, dst, wgt = [], [], []
    for e in edges:
        if len(e) == 2:
            s, d = e
            w = 1.0
        else:
            s, d, w = e
        s, d, w = int(s), int(d), float(w)
        if s < 0 or d < 0:
            raise InputError(f"node ids must be non-negative, got ({s}, {d})")
        if not 0 < w < np.inf:
            raise InputError(f"edge weight must be positive and finite, got {w} "
                             f"on ({s}, {d})")
        if s == d and not allow_self_loops:
            raise InputError(f"self-loop on node {s} rejected")
        src.append(s)
        dst.append(d)
        wgt.append(w)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    wgt = np.asarray(wgt, dtype=np.float64)
    if n_hint is not None:
        n = int(n_hint)
        if src.size and max(src.max(), dst.max()) >= n:
            raise InputError("node id exceeds n_hint")
        original_ids = np.arange(n, dtype=np.int64)
    else:
        ids = (np.unique(np.concatenate([src, dst])) if src.size
               else np.array([], dtype=np.int64))
        n = int(ids.size)
        lookup = {int(v): i for i, v in enumerate(ids)}
        src = np.array([lookup[int(v)] for v in src], dtype=np.int64)
        dst = np.array([lookup[int(v)] for v in dst], dtype=np.int64)
        original_ids = ids
    m = sp.csc_matrix((wgt, (dst, src)), shape=(n, n))
    m.sum_duplicates()
    if not directed:
        m = m.maximum(m.T)
    return SparseGraph.from_scipy(m, directed, original_ids=original_ids,
                                  allow_loops=allow_self_loops)


def assert_same_graph(a, b):
    assert a.same_structure(b)
    assert a.original_ids.dtype == b.original_ids.dtype
    np.testing.assert_array_equal(a.original_ids, b.original_ids)


BIG = 2 ** 53


class TestLoadGraphAgainstLoop:
    @pytest.mark.parametrize("edges,kwargs", [
        ([(0, 1), (1, 2, 0.5), (2, 0), (3, 1, 2.25)], {}),
        ([(4, 9, 1.0), (4, 9, 2.0), (9, 4, 1.5), (9, 4), (7, 4, 0.1),
          (4, 7, 0.1)], {}),
        ([(4, 9, 1.0), (4, 9, 2.0), (9, 4, 1.5), (7, 4), (7, 4)],
         {"directed": True}),
        ([(0, 0, 2.0), (0, 1), (1, 1, 0.5), (1, 1, 0.25)],
         {"allow_self_loops": True}),
        ([(0, 1), (2, 1, 3.0), (1, 0)], {"n_hint": 6}),
        ([(BIG + 1, BIG + 3, 0.5), (BIG + 3, 7), (2 ** 63 - 1, BIG + 1)], {}),
        ([], {}),
        ([], {"n_hint": 3}),
    ], ids=["mixed-tuples", "duplicates-mirrored", "directed", "self-loops",
            "n-hint", "ids-above-2**53", "empty", "empty-n-hint"])
    def test_matches_per_edge_loop(self, edges, kwargs):
        assert_same_graph(load_graph(edges, **kwargs),
                          load_graph_reference(edges, **kwargs))

    def test_random_multigraph(self):
        rng = np.random.default_rng(5)
        ids = rng.choice(10 ** 6, 300, replace=False)
        edges = [(int(s), int(d), float(w)) for s, d, w in
                 zip(rng.choice(ids, 2000), rng.choice(ids, 2000),
                     rng.uniform(0.1, 2.0, 2000)) if s != d]
        edges += [(d, s) for s, d, _ in edges[::7]]
        assert_same_graph(load_graph(edges), load_graph_reference(edges))

    @pytest.mark.parametrize("edges,n_hint", [
        ([(0, 1), (2, 3, -1.0), (-4, 5)], None),    # weight before a later id
        ([(0, 1), (-2, 3, np.nan)], None),           # id before weight, same edge
        ([(0, 1), (2, 2, 0.0), (3, 3)], None),      # weight before self-loop
        ([(0, 1), (2, 2), (3, 4, np.inf)], None),   # self-loop before a later weight
        ([(0, 1), (1, 2), (2, 9)], 5),              # id beyond n_hint
    ])
    def test_first_offending_edge_named(self, edges, n_hint):
        with pytest.raises(InputError) as ref:
            load_graph_reference(edges, n_hint=n_hint)
        with pytest.raises(InputError) as new:
            load_graph(edges, n_hint=n_hint)
        assert str(new.value) == str(ref.value)

    def test_bad_weight_wins_over_later_negative_id(self):
        with pytest.raises(InputError, match=r"finite, got -1\.0 on \(2, 3\)"):
            load_graph([(0, 1), (2, 3, -1.0), (-4, 5)])

    @pytest.mark.parametrize("edge", [(0, 1, 1.0, 2.0), (0,)])
    def test_wrong_tuple_length_rejected(self, edge):
        with pytest.raises(InputError, match=r"\(src, dst\[, weight\]\) edges, got"):
            load_graph([(0, 1), edge])

    def test_graph_from_edges_takes_columns(self):
        g = graph_from_edges(np.array([3, 5]), np.array([5, 8]), np.ones(2))
        assert_same_graph(g, load_graph_reference([(3, 5), (5, 8)]))


    @pytest.mark.parametrize("bad", [0.7, -0.5, np.nan, np.inf, 2.0 ** 63])
    def test_graph_from_edges_refuses_non_integral_ids(self, bad):
        src, dst = np.array([0.0, 2.0, 3.0]), np.array([1.0, bad, bad])
        fault = "does not fit in int64" if bad == 2.0 ** 63 else "is not an integer"
        with pytest.raises(InputError, match=re.escape(
                f"node id {fault} in edge (2.0, {bad}, 1.0)")):
            graph_from_edges(src, dst, np.ones(3))
        # whole floats build the graph their integers build
        g = graph_from_edges(np.array([3.0, 5.0]), np.array([5.0, 8.0]), np.ones(2))
        assert_same_graph(g, load_graph_reference([(3, 5), (5, 8)]))


class TestLoadGraph:
    def test_single_edge(self):
        g = load_graph([(0, 1)])
        assert g.n == 2
        assert g.nnz == 2
        np.testing.assert_array_equal(g.degrees(), [1.0, 1.0])

    def test_mirrored_listing_dedups(self):
        a = load_graph([(0, 1)])
        b = load_graph([(0, 1), (1, 0)])
        assert a.same_structure(b)

    def test_triangle(self):
        g = load_graph([(0, 1), (1, 2), (2, 0)])
        assert g.n == 3
        np.testing.assert_array_equal(g.degrees(), [2.0, 2.0, 2.0])

    def test_duplicates_sum(self):
        g = load_graph([(0, 1, 1.0), (0, 1, 2.0)])
        assert g.nnz == 2
        np.testing.assert_allclose(g.values, [3.0, 3.0])

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            load_graph([(0, 1, -1.0)])
        with pytest.raises(InputError):
            load_graph([(0, 1, 0.0)])
        with pytest.raises(InputError):
            load_graph([(0, 0)])
        with pytest.raises(InputError):
            load_graph([(-1, 2)])

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, w):
        with pytest.raises(InputError, match=r"finite, got (nan|inf) on \(0, 1\)"):
            load_graph([(0, 1, 1.0), (0, 1, w)])

    @pytest.mark.parametrize("big", [2 ** 63, -2 ** 63 - 1])
    def test_id_beyond_int64_named(self, big):
        edges = [(0, 1), (2, 3), (1, big, 2.0), (big, 4)]
        with pytest.raises(InputError, match=rf"int64 in edge \(1, {big}, 2\.0\)"):
            load_graph(edges)

    @pytest.mark.parametrize("bad", [0.7, 1.5, float("nan"), float("inf"),
                                     np.float64(2.5)])
    def test_non_integral_id_named(self, bad):
        # int() would truncate 0.7 to 0 and build edge (0, 1)
        edges = [(1, 2), (3, 4.0), (bad, 1.9 if bad == 0.7 else 1), (5, bad)]
        with pytest.raises(InputError, match=r"not an integer in edge") as err:
            load_graph(edges)
        assert str(err.value).endswith(f"edge ({float(bad)!r}, {edges[2][1]!r}, 1.0)")

    def test_integral_floats_and_numpy_ints_accepted(self):
        g = load_graph([(0.0, np.int32(1)), (np.int64(1), 2.0, 3.0)])
        assert_same_graph(g, load_graph([(0, 1), (1, 2, 3.0)]))

    def test_n_hint_keeps_isolated(self):
        g = load_graph([(0, 1)], n_hint=4)
        assert g.n == 4
        np.testing.assert_array_equal(g.degrees(), [1.0, 1.0, 0.0, 0.0])

    def test_id_densification(self):
        g = load_graph([(5, 100), (100, 7)])
        assert g.n == 3
        np.testing.assert_array_equal(g.original_ids, [5, 7, 100])

    def test_directed_not_mirrored(self):
        g = load_graph([(0, 1)], directed=True)
        assert g.nnz == 1
        # edge leaves node 0, so it lives in column 0
        rows, vals = g.column(0)
        np.testing.assert_array_equal(rows, [1])


def column_dtype(column):
    """int64 for ints within int64, float64 for floats, else object."""
    if all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for v in column):
        return np.int64
    return np.float64 if all(type(v) is float for v in column) else object


# each entry point takes (src, dst[, weight]) edges in its own form
EDGE_ENTRY_POINTS = {
    "load_graph-tuples": load_graph,
    "graph_from_edges-lists": lambda edges: graph_from_edges(
        *map(list, zip(*[(*e, 1.0)[:3] for e in edges]))),
    "graph_from_edges-arrays": lambda edges: graph_from_edges(
        *(np.array(c, dtype=column_dtype(c))
          for c in zip(*[(*e, 1.0)[:3] for e in edges]))),
}


class TestEdgeRule:
    """Every fault, at every entry point, is one InputError naming the
    first offending edge in input order."""

    @pytest.mark.parametrize("entry", EDGE_ENTRY_POINTS)
    @pytest.mark.parametrize("edges,message", [
        ([(0, 1, -1.0), (0.5, 2)],
         "edge weight must be positive and finite, got -1.0 on (0, 1)"),
        ([(1, 0), (2 ** 64 + 5, 1)],
         "node id does not fit in int64 in edge (18446744073709551621, 1, 1.0)"),
        ([(1, 0), (-2 ** 63 - 1, 1)],
         "node id does not fit in int64 in edge (-9223372036854775809, 1, 1.0)"),
        ([(0.0, 1.0), (2.0 ** 63, 1.0)],
         "node id does not fit in int64 in edge (9.223372036854776e+18, 1.0, 1.0)"),
        ([(1, 0), (None, 1)], "node id is not an integer in edge (None, 1, 1.0)"),
        ([(1, 0), (np.nan, 1)], "node id is not an integer in edge (nan, 1, 1.0)"),
        ([(1.0, 0.0), (np.inf, 1.0)],
         "node id is not an integer in edge (inf, 1.0, 1.0)"),
        ([(0.0, 1.0), (2.0, 0.5)], "node id is not an integer in edge (2.0, 0.5, 1.0)"),
        ([(1, 0), ("5", 1)], "node id is not an integer in edge ('5', 1, 1.0)"),
        ([(0, 1, None)], "edge weight must be positive and finite, got None on (0, 1)"),
        ([(0, 1, "abc")], "edge weight must be positive and finite, got 'abc' on (0, 1)"),
        ([(0, 1, 2 ** 1100)],
         f"edge weight must be positive and finite, got {2 ** 1100} on (0, 1)"),
        ([(0, 1), (1, 2, np.nan)],
         "edge weight must be positive and finite, got nan on (1, 2)"),
        ([(0, 1, 0.0), (None, 1)],
         "edge weight must be positive and finite, got 0.0 on (0, 1)"),
        ([(0, 1, "abc"), (-1, 2)],
         "edge weight must be positive and finite, got 'abc' on (0, 1)"),
        ([(0, 1), (-1, 2, None)], "node ids must be non-negative, got (-1, 2)"),
        ([(0, 1), (3, 3), (0.5, 1)], "self-loop on node 3 rejected"),
        ([(0, 1), (3, 3, None)],
         "edge weight must be positive and finite, got None on (3, 3)"),
    ], ids=["weight-before-fraction-id", "id-beyond-uint64", "id-below-int64",
            "float-id-beyond-int64", "none-id", "nan-id", "inf-id", "fraction-id",
            "text-id", "none-weight", "text-weight", "weight-beyond-float",
            "nan-weight", "weight-before-none-id", "text-weight-before-negative-id",
            "negative-id-before-weight", "self-loop-before-fraction-id",
            "weight-before-self-loop"])
    def test_every_entry_point_names_it(self, entry, edges, message):
        with pytest.raises(InputError) as err:
            EDGE_ENTRY_POINTS[entry](edges)
        assert str(err.value) == message


class TestValidate:
    @pytest.mark.parametrize("ptr,rows,vals,message", [
        ([0, 1, 2], [1.5, 0], [1.0, 1.0], "index arrays must be integers"),
        ([0, 1.7, 2], [1, 0], [1.0, 1.0], "index arrays must be integers"),
        ([0, 1, 2], [1, None], [1.0, 1.0], "index arrays must be integers"),
        ([0, 1, 2], [1, 0], ["a", "b"], "and values numbers"),
        ([0, 1, 2], [1, 0], [None, 1.0], "and values numbers"),
    ], ids=["float-rows", "float-pointers", "none-row", "text-values", "none-value"])
    def test_non_integer_indices_and_non_numbers_rejected(self, ptr, rows, vals,
                                                         message):
        # scipy truncates float indices, so row 1.5 would build row 1
        with pytest.raises(InputError, match=message):
            SparseGraph(2, ptr, rows, vals, directed=True)

    @pytest.mark.parametrize("rows,col", [
        ([1, 2, 0, 0, 1], 1),   # column 1 unsorted
        ([1, 0, 2, 1, 1], 2),   # column 2 holds row 1 twice
        ([1, 2, 0, 1, 0], 1),   # both; the first offending column is named
    ])
    def test_unsorted_and_duplicate_rows_rejected(self, rows, col):
        with pytest.raises(InputError, match=f"sorted or duplicated in column {col}$"):
            SparseGraph(3, [0, 1, 3, 5], rows, np.ones(5), directed=True)

    def test_sorted_columns_accepted(self):
        g = SparseGraph(3, [0, 1, 3, 5], [1, 0, 2, 0, 1], np.ones(5), directed=True)
        assert g.nnz == 5

    @pytest.mark.parametrize("ptr,rows,vals", [
        ([0, 1, 1], [1, 0], [1.0, 1.0]),     # last pointer short of the entries
        ([1, 1, 2], [1, 0], [1.0, 1.0]),     # first pointer not 0
        ([0, 1, 2], [1, 0], [1.0]),          # fewer values than rows
    ])
    def test_inconsistent_column_pointers_rejected(self, ptr, rows, vals):
        with pytest.raises(InputError, match="must run from 0 to the entry count"):
            SparseGraph(len(ptr) - 1, ptr, rows, vals, directed=True)

    @pytest.mark.parametrize("ptr,rows,directed,message", [
        ([0, 1], [0], True, "column pointer array has wrong length"),
        ([0, 1, 2], [0, 1], True, "self-loops are not allowed in a base adjacency"),
        ([0, 1, 1], [1], False, "undirected graph must be stored symmetrically")],
        ids=["pointer-length", "self-loop", "asymmetric"])
    def test_malformed_structure_rejected(self, ptr, rows, directed, message):
        with pytest.raises(InputError, match=message):
            SparseGraph(2, ptr, rows, np.ones(len(rows)), directed=directed)

    def test_row_out_of_range_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            SparseGraph(2, [0, 1, 2], [1, 2], [1.0, 1.0], directed=True)

    @pytest.mark.parametrize("w", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, w):
        m = sp.csc_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, w],
                                    [1.0, 0.0, 0.0]]))
        with pytest.raises(InputError, match="strictly positive and finite"):
            SparseGraph.from_scipy(m, directed=True)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=0.2, random_state=rng, format="csc")
    m.data = rng.uniform(0.1, 3.0, m.data.size)
    return (m + m.T).tocsc(), rng


class TestScaled:
    def test_matches_diagonal_products(self):
        m, rng = random_symmetric(40, 1)
        left, right = rng.uniform(0.01, 5.0, 40), rng.uniform(0.01, 5.0, 40)
        ref = (sp.diags(left) @ m @ sp.diags(right)).toarray()
        out = scaled(m, left, right)
        assert out.format == "csc"
        np.testing.assert_allclose(out.toarray(), ref, rtol=1e-15, atol=0)

    def test_symmetric_bit_for_bit(self):
        m, rng = random_symmetric(60, 2)
        s = 1.0 / np.sqrt(rng.uniform(0.5, 50.0, 60))
        out = scaled(m, s)
        assert (out != out.T).nnz == 0
        np.testing.assert_array_equal(out.indices, m.indices)
        np.testing.assert_array_equal(out.indptr, m.indptr)


class TestLcc:
    def test_drops_isolated(self):
        g = load_graph([(0, 1), (1, 2), (2, 0)], n_hint=4)
        sub, mapping = largest_connected_component(g)
        assert sub.n == 3
        assert mapping[3] == -1
        assert sorted(mapping[:3]) == [0, 1, 2]

    def test_already_connected_identity(self):
        g = load_graph([(0, 1), (1, 2)])
        sub, mapping = largest_connected_component(g)
        assert sub.same_structure(g)
        np.testing.assert_array_equal(mapping, [0, 1, 2])

    def test_picks_largest(self):
        edges = [(0, 1), (1, 2), (2, 0),          # K3
                 (3, 4), (4, 5), (5, 3),          # K3
                 (6, 7), (7, 8), (8, 9), (9, 6), (6, 8), (7, 9)]  # K4
        sub, _ = largest_connected_component(load_graph(edges))
        assert sub.n == 4
        np.testing.assert_array_equal(sub.original_ids, [6, 7, 8, 9])

    def test_empty_graph_errors(self):
        g = SparseGraph(0, [0], [], [], directed=False)
        with pytest.raises(InputError):
            largest_connected_component(g)


class TestTransitions:
    def test_k2_random_walk(self):
        g = load_graph([(0, 1)])
        t = transition_matrix(g, RandomWalk())
        np.testing.assert_allclose(t.matrix.toarray(), [[0, 1], [1, 0]])

    def test_p3_symmetric(self):
        g = load_graph([(0, 1), (1, 2)])
        t = transition_matrix(g, Symmetric())
        m = t.matrix.toarray()
        assert m[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert m[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_k2_self_loop(self):
        g = load_graph([(0, 1)])
        t = transition_matrix(g, SymmetricSelfLoop(1.0))
        np.testing.assert_allclose(t.matrix.toarray(), 0.5 * np.ones((2, 2)))

    def test_self_loop_diagonal_value(self):
        g = load_graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        w = 2.5
        t = transition_matrix(g, SymmetricSelfLoop(w))
        d = g.degrees()
        diag = t.matrix.diagonal()
        np.testing.assert_allclose(diag, w / (w + d), atol=1e-15)

    def test_degrees_are_scipy_column_sums(self):
        # the one degree sum: scipy's column sum, bit for bit, on columns
        # long enough for summation order to matter
        g = er_graph(300, 0.3, 4)
        rng = np.random.default_rng(4)
        m = g.to_scipy()
        m.data = rng.uniform(0.1, 7.0, m.data.size)
        weighted = SparseGraph.from_scipy(m.maximum(m.T), directed=False)
        col_sums = np.asarray(weighted.to_scipy().sum(axis=0)).ravel()
        assert np.array_equal(weighted.degrees(), col_sums)

    def test_zero_degree_rejected_by_name(self):
        g = load_graph([(0, 1)], n_hint=3)
        with pytest.raises(InputError, match="node 2"):
            transition_matrix(g, RandomWalk())
        with pytest.raises(InputError, match="node 2"):
            transition_matrix(g, Symmetric())

    def test_zero_degree_named_by_input_id(self):
        # node 30, position 2, has no edge
        g = SparseGraph(3, [0, 1, 2, 2], [1, 0], [1.0, 1.0], directed=False,
                        original_ids=[10, 20, 30])
        for kind in (RandomWalk(), Symmetric()):
            with pytest.raises(InputError) as info:
                transition_matrix(g, kind)
            assert str(info.value) == ("node 30 has degree 0 "
                                       "(1 zero-degree node(s): 30)")

    def test_invalid_loop_weight(self):
        with pytest.raises(InputError):
            SymmetricSelfLoop(0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rw_columns_stochastic(self, seed):
        g = er_graph(80, 0.08, seed)
        from graphdiffusion import largest_connected_component as lcc
        g, _ = lcc(g)
        t = transition_matrix(g, RandomWalk())
        sums = np.asarray(t.matrix.sum(axis=0)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [Symmetric(), SymmetricSelfLoop(1.0),
                                      SymmetricSelfLoop(0.3)])
    def test_symmetric_kinds_bit_exact(self, kind):
        g = er_graph(60, 0.1, 3)
        from graphdiffusion import largest_connected_component as lcc
        g, _ = lcc(g)
        t = transition_matrix(g, kind)
        assert (t.matrix != t.matrix.T).nnz == 0

    @pytest.mark.parametrize("kind", [RandomWalk(), Symmetric(),
                                      SymmetricSelfLoop(1.0)])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_spectral_radius_at_most_one(self, kind, seed):
        g = er_graph(120, 0.05, seed)
        from graphdiffusion import largest_connected_component as lcc
        g, _ = lcc(g)
        t = transition_matrix(g, kind)
        radius = np.abs(np.linalg.eigvals(t.matrix.toarray())).max()
        assert radius <= 1 + 1e-9


class TestEdgeListIo:
    def test_round_trip_identity(self, tmp_path):
        g = load_graph([(0, 1, 1 / 3), (1, 2, 0.7), (2, 0, 1e-9)])
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        back = load_edge_list(path)
        assert g.same_structure(back)

    def test_round_trip_random(self, tmp_path):
        g = er_graph(50, 0.1, 11)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        assert g.same_structure(load_edge_list(path))

    def test_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1\n1 2 0.5  # trailing\n\n")
        edges = read_edge_list(path)
        assert edges == [(0, 1, 1.0), (1, 2, 0.5)]

    def test_sidecar_metadata(self, tmp_path):
        g = load_graph([(0, 1)])
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        assert not (tmp_path / "g.txt.meta").exists()
        write_meta(path, edge_list_meta(g, {"note": "hello"}))
        meta = (tmp_path / "g.txt.meta").read_text()
        assert "nodes = 2" in meta
        assert "directed = false" in meta
        assert "note = hello" in meta

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(InputError, match="expected"):
            read_edge_list(path)


def random_graph(n, density, seed, directed):
    """Random weighted graph, loops allowed, weights with long reprs."""
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=density, random_state=rng, format="csc")
    m.data = rng.uniform(1e-4, 0.5, m.nnz)
    if not directed:
        m = m.maximum(m.T)
    return SparseGraph.from_scipy(m, directed=directed, allow_loops=True)


class TestStoredMatrix:
    def test_arrays_are_read_only_views_of_the_matrix(self):
        g = er_graph(50, 0.1, 3)
        m = g.to_scipy()
        assert m is not g.matrix
        for view, arr in ((g.col_ptr, m.indptr), (g.row_idx, m.indices),
                          (g.values, m.data)):
            assert np.shares_memory(view, arr)
            assert not view.flags.writeable

    def test_reassigning_to_scipy_arrays_leaves_graph(self):
        g = er_graph(50, 0.1, 3)
        rows, vals, degrees = g.row_idx.copy(), g.values.copy(), g.degrees()
        m = g.to_scipy()
        m.data = np.full(m.nnz, 7.0)
        m.indices = m.indices[::-1].copy()
        np.testing.assert_array_equal(g.row_idx, rows)
        np.testing.assert_array_equal(g.values, vals)
        np.testing.assert_array_equal(g.to_scipy().data, vals)
        np.testing.assert_array_equal(g.degrees(), degrees)

    def test_graph_over_read_only_views_round_trips(self):
        # the views passed back in are stored as they are, read-only; a
        # canonical matrix without zeros is not written to on the way back
        g = er_graph(50, 0.1, 3)
        h = SparseGraph(g.n, g.col_ptr, g.row_idx, g.values, directed=False)
        assert not h.matrix.data.flags.writeable
        assert SparseGraph.from_scipy(h.to_scipy(), directed=False).same_structure(g)
        out = postprocess(h, PostProcess(renorm=RandomWalk()))
        ref = transition_matrix(g, RandomWalk())
        np.testing.assert_array_equal(out.matrix.toarray(), ref.matrix.toarray())

    def test_original_ids_are_a_read_only_view(self):
        ids = np.array([5, 9], dtype=np.int64)
        g = SparseGraph(2, [0, 1, 2], [1, 0], [1.0, 1.0], directed=True,
                        original_ids=ids)
        assert np.shares_memory(g.original_ids, ids)
        with pytest.raises(ValueError):
            g.original_ids[1] = 8
        ids[0] = 7  # the caller's own array stays writable
        assert ids.flags.writeable

    def test_original_ids_flow_through_the_pipeline(self):
        g = load_graph([(10, 20), (20, 30), (30, 10), (40, 50)])
        lcc, _ = largest_connected_component(g)
        np.testing.assert_array_equal(lcc.original_ids, [10, 20, 30])
        s = diffuse(transition_matrix(lcc, RandomWalk()), Ppr(0.5))
        sparse = sparsify(s, TopK(2), original_ids=lcc.original_ids)
        out = postprocess(sparse, PostProcess(symmetrize=True))
        for h in (lcc, sparse, out):
            np.testing.assert_array_equal(h.original_ids, [10, 20, 30])
            assert not h.original_ids.flags.writeable


def non_canonical_csc(case, writable):
    """3-node directed CSC matrix whose column 0 breaks canonical form."""
    rows = {"duplicate": [1, 1, 0, 0], "unsorted": [2, 1, 0, 0],
            "zero": [1, 2, 0, 0]}[case]
    vals = [1.0, 0.0 if case == "zero" else 2.0, 1.0, 1.0]
    m = sp.csc_matrix((np.array(vals), np.array(rows, dtype=np.int32),
                       np.array([0, 2, 3, 4], dtype=np.int32)), shape=(3, 3))
    for arr in (m.indptr, m.indices, m.data):
        arr.flags.writeable = writable
    return m


class TestFromScipyValidates:
    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("case", ["duplicate", "unsorted", "zero"])
    def test_non_canonical_rejected_and_left_untouched(self, case, writable):
        message = ("strictly positive and finite" if case == "zero"
                   else "rows not sorted or duplicated in column 0")
        m = non_canonical_csc(case, writable)
        before = [a.copy() for a in (m.indptr, m.indices, m.data)]
        nnz = m.nnz
        with pytest.raises(InputError, match=message):
            SparseGraph.from_scipy(m, directed=True)
        for arr, ref in zip((m.indptr, m.indices, m.data), before):
            np.testing.assert_array_equal(arr, ref)
            assert arr.flags.writeable == writable
        assert m.nnz == nnz

    def test_coo_repeated_coordinate_sums(self):
        m = sp.coo_matrix(([1.0, 2.0, 4.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        g = SparseGraph.from_scipy(m, directed=True)
        np.testing.assert_array_equal(g.matrix.toarray(), [[0.0, 3.0], [4.0, 0.0]])
        assert m.nnz == 3

    def test_in_place_write_into_to_scipy_raises(self):
        g = er_graph(50, 0.1, 3)
        ref = g.to_scipy().toarray()
        m = g.to_scipy()
        for arr in (m.data, m.indices, m.indptr, g.matrix.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        np.testing.assert_array_equal(g.to_scipy().toarray(), ref)

    def test_callers_arrays_stay_writable_and_are_shared(self):
        ptr = np.array([0, 1, 2], dtype=np.int32)
        rows = np.array([1, 0], dtype=np.int32)
        vals = np.array([1.0, 2.0])
        g = SparseGraph(2, ptr, rows, vals, directed=True)
        for arr, stored in ((ptr, g.col_ptr), (rows, g.row_idx), (vals, g.values)):
            assert arr.flags.writeable and not stored.flags.writeable
            assert np.shares_memory(arr, stored)

    @pytest.mark.parametrize("loops", [False, True])
    def test_symloop_transition_is_canonical(self, loops):
        m = sp.csc_matrix(er_graph(40, 0.2, 4).matrix)
        if loops:
            m = (m + sp.diags(np.linspace(0.5, 2.0, m.shape[0]))).tocsc()
        g = SparseGraph.from_scipy(m, directed=False, allow_loops=loops)
        t = transition_matrix(g, SymmetricSelfLoop(2.0)).matrix
        assert t.has_canonical_format
        # recomputed from the arrays, not read from a cached flag
        fresh = sp.csc_matrix((t.data, t.indices, t.indptr), shape=t.shape)
        assert fresh.has_canonical_format

    def test_symmetrized_weight_underflowing_to_zero_fails(self):
        # (w + 0) * 0.5 rounds the smallest subnormal to 0, a stored zero
        m = sp.csc_matrix(([1.0, 5e-324], ([1, 2], [0, 1])), shape=(3, 3))
        g = SparseGraph.from_scipy(m, directed=True)
        with pytest.raises(InputError, match="strictly positive and finite"):
            postprocess(g, PostProcess(symmetrize=True))


class TestOriginalIdsShape:
    @pytest.mark.parametrize("ids", [[5], [5, 6, 7], [[5], [6]], 5])
    def test_constructor_rejects(self, ids):
        with pytest.raises(InputError, match=r"original_ids has shape .*, not \(2,\)"):
            SparseGraph(2, [0, 1, 2], [1, 0], [1.0, 1.0], directed=True,
                        original_ids=ids)

    def test_from_scipy_and_sparsify_reject(self):
        m = sp.csc_matrix(([1.0, 1.0], ([1, 0], [0, 1])), shape=(2, 2))
        with pytest.raises(InputError, match="original_ids"):
            SparseGraph.from_scipy(m, directed=True, original_ids=[5])
        s = DiffusionMatrix(np.full((2, 2), 0.5), "exact")
        with pytest.raises(InputError, match="original_ids"):
            sparsify(s, TopK(1), original_ids=[5, 6, 7])


class TestChunkedExport:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 10 ** 6])
    def test_matches_one_shot_formatting(self, tmp_path, monkeypatch, directed,
                                         chunk):
        g = random_graph(30, 0.2, 5, directed)
        # one-shot reference: every stored entry of each column in turn,
        # undirected edges once (row <= column)
        ref = "".join(f"{j} {r} {v!r}\n" for j in range(g.n)
                      for r, v in zip(*(a.tolist() for a in g.column(j)))
                      if directed or r <= j)
        assert ref.count("\n") > 7
        monkeypatch.setattr("graphdiffusion.graph.EXPORT_CHUNK", chunk)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        assert path.read_text() == ref

    def test_peak_memory_at_benchmark_size(self, tmp_path):
        # the size of the push benchmark's output: N = 1000, directed,
        # about 88 entries per column; the file's text would be 2.6 MB
        n = 1000
        g = random_graph(n, 0.088, 6, directed=True)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)  # warm-up, untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_edge_list(path, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n ** 2 * 8
