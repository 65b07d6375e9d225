import numpy as np
import pytest
import scipy.sparse as sp

from graphdiffusion import (InputError, RandomWalk, SparseGraph, Symmetric,
                            SymmetricSelfLoop, largest_connected_component,
                            load_edge_list, load_graph, read_edge_list,
                            save_edge_list, transition_matrix)
from graphdiffusion.graph import scaled
from conftest import er_graph


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


class TestValidate:
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

    def test_zero_degree_rejected_by_name(self):
        g = load_graph([(0, 1)], n_hint=3)
        with pytest.raises(InputError, match="node 2"):
            transition_matrix(g, RandomWalk())
        with pytest.raises(InputError, match="node 2"):
            transition_matrix(g, Symmetric())

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
        save_edge_list(path, g, metadata={"note": "hello"})
        meta = (tmp_path / "g.txt.meta").read_text()
        assert "nodes = 2" in meta
        assert "directed = false" in meta
        assert "note = hello" in meta

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(InputError, match="expected"):
            read_edge_list(path)
