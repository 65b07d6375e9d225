import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphdiffusion import (Explicit, Heat, InputError, Ppr, RandomWalk,
                            Symmetric, SymmetricSelfLoop, apply_poly_filter,
                            diffuse, eigen, eigen_of_transition, eigenvalue_map,
                            filter_response_curve, laplacian,
                            largest_connected_component, load_graph,
                            spectrum_compare, theta_to_xi, theta_vector,
                            transition_matrix)
from graphdiffusion.spectral import DENSE_EIGEN_CAP
from conftest import connected_er, random_theta


def k2():
    return load_graph([(0, 1)])


def weighted_graph():
    """A random weighted undirected graph on 30 nodes."""
    rng = np.random.default_rng(4)
    return load_graph([(i, j, rng.uniform(0.1, 5.0)) for i in range(30)
                       for j in range(i + 1, 30) if rng.random() < 0.3])


class TestLaplacian:
    def test_k2_unnormalized(self):
        lap = laplacian(k2(), None).toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_k2_symmetric(self):
        lap = laplacian(k2(), Symmetric()).toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_triangle_symmetric_spectrum(self):
        g = load_graph([(0, 1), (1, 2), (2, 0)])
        # oracle: dense eigensolve of the explicit matrix
        lam = np.linalg.eigvalsh(laplacian(g, Symmetric()).toarray())
        np.testing.assert_allclose(np.sort(lam), [0.0, 1.5, 1.5], atol=1e-12)

    def test_of_transition_matrix(self):
        g = load_graph([(0, 1), (1, 2)])
        t = transition_matrix(g, Symmetric())
        lap = laplacian(t).toarray()
        np.testing.assert_allclose(lap, np.eye(3) - t.matrix.toarray())

    @pytest.mark.parametrize("name,kind", [("rw", RandomWalk()),
                                           ("sym", Symmetric())])
    def test_normalized_is_identity_minus_transition(self, name, kind):
        g = weighted_graph()
        lap = laplacian(g, kind).toarray()
        expected = np.eye(g.n) - transition_matrix(g, kind).matrix.toarray()
        np.testing.assert_array_equal(lap, expected)
        # the kind is the one spelling; its former name is refused
        with pytest.raises(InputError, match=f"unknown Laplacian kind '{name}'"):
            laplacian(g, name)

    def test_none_is_degree_minus_adjacency(self):
        g = weighted_graph()
        a = g.matrix.toarray()
        expected = np.diag(a.sum(axis=0)) - a
        # the diagonal's sums may differ from the dense ones in the last bit
        np.testing.assert_allclose(laplacian(g, None).toarray(), expected,
                                   rtol=1e-14, atol=0)

    def test_zero_degree_rejected(self):
        g = load_graph([(0, 1)], n_hint=3)
        with pytest.raises(InputError, match="node 2 has degree 0"):
            laplacian(g, Symmetric())
        # unnormalized form tolerates isolated nodes
        lap = laplacian(g, None).toarray()
        assert lap[2, 2] == 0

    def test_bad_argument_rejected(self):
        with pytest.raises(InputError, match="expects a SparseGraph"):
            laplacian(np.eye(2))
        with pytest.raises(InputError, match="unknown Laplacian kind 'bogus'"):
            laplacian(load_graph([(0, 1)]), "bogus")
        # the two normalizations only, as kinds; None is D - A
        for kind in ("unnormalized", SymmetricSelfLoop(), Symmetric):
            with pytest.raises(InputError, match="unknown Laplacian kind") as err:
                laplacian(k2(), kind)
            assert repr(kind) in str(err.value)

    def test_normalized_sums_degrees_once(self, monkeypatch):
        g = load_graph([(0, 1), (1, 2), (2, 0)])
        calls = []
        real = type(g).degrees

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(type(g), "degrees", counted)
        laplacian(g, Symmetric())
        assert len(calls) == 1


class TestEigen:
    def test_identity(self):
        rep = eigen(np.eye(5))
        np.testing.assert_allclose(rep.eigenvalues, np.ones(5))

    def test_k2_lsym(self):
        rep = eigen(laplacian(k2(), Symmetric()))
        np.testing.assert_allclose(rep.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_zero_matrix(self):
        rep = eigen(np.zeros((4, 4)))
        np.testing.assert_allclose(rep.eigenvalues, 0.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        m = (a + a.T) / 2
        rep = eigen(m, want_vectors=True)
        u, w = rep.eigenvectors, rep.eigenvalues
        recon = u @ np.diag(w) @ u.T
        assert np.abs(recon - m).max() < 1e-7 * np.abs(m).max()
        assert np.abs(u.T @ u - np.eye(40)).max() < 1e-8

    def test_asymmetric_rejected(self):
        g = load_graph([(0, 1), (1, 2)])
        t = transition_matrix(g, RandomWalk())
        with pytest.raises(InputError, match="symmetric"):
            eigen(t.matrix)

    def test_rw_analyzed_via_similarity(self):
        g = connected_er(40, 0.15, 1)
        t_rw = transition_matrix(g, RandomWalk())
        t_sym = transition_matrix(g, Symmetric())
        a = eigen_of_transition(t_rw).eigenvalues
        b = eigen(t_sym.matrix).eigenvalues
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="square"):
            eigen(np.zeros((2, 3)))

    def test_size_cap(self):
        with pytest.raises(InputError, match="cap"):
            eigen(np.eye(10), cap=5)
        rep = eigen(np.eye(10), cap=10)
        assert rep.eigenvalues.size == 10

    def test_size_cap_refuses_before_densifying(self):
        # a dense copy of the sparse identity would take 72 MB
        big = sp.identity(DENSE_EIGEN_CAP + 1, format="csr")
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="cap"):
                eigen(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_lsym_spectrum_in_range(self):
        g = connected_er(100, 0.06, 2)
        w = eigen(laplacian(g, Symmetric())).eigenvalues
        assert w.min() > -1e-9
        assert w.max() < 2 + 1e-9


class TestEigenvalueMap:
    def test_geometric_endpoints(self):
        assert eigenvalue_map(Ppr(0.1), 1.0) == pytest.approx(1.0)
        assert eigenvalue_map(Ppr(0.1), 0.0) == pytest.approx(0.1)

    def test_heat_at_zero(self):
        assert eigenvalue_map(Heat(3.0), 0.0) == pytest.approx(np.exp(-3))

    def test_explicit_power_sum(self):
        spec = Explicit((0.2, 0.3, 0.5))
        lam = 0.7
        assert eigenvalue_map(spec, lam) == pytest.approx(0.2 + 0.3 * lam + 0.5 * lam ** 2)

    def test_matches_exact_diffusion_spectrum(self):
        g = connected_er(60, 0.1, 3)
        t = transition_matrix(g, Symmetric())
        lam_t = eigen(t.matrix).eigenvalues
        s = diffuse(t, Ppr(0.2))
        lam_s = eigen(s.data).eigenvalues
        mapped = np.sort([eigenvalue_map(Ppr(0.2), x) for x in lam_t])
        np.testing.assert_allclose(np.sort(lam_s), mapped, atol=1e-8)


class TestResponseCurve:
    def test_endpoints(self):
        curve = filter_response_curve(Ppr(0.15), [0.0])
        assert curve[0, 1] == pytest.approx(1.0)
        curve = filter_response_curve(Heat(5.0), [1.0])
        assert curve[0, 1] == pytest.approx(np.exp(-5))

    @pytest.mark.parametrize("spec", [Ppr(0.05), Ppr(0.1), Ppr(0.2),
                                      Heat(1.0), Heat(3.0), Heat(5.0), Heat(10.0)])
    def test_low_pass_strictly_decreasing(self, spec):
        grid = np.linspace(0.0, 2.0, 201)
        curve = filter_response_curve(spec, grid)
        assert np.all(np.diff(curve[:, 1]) < 0)

    def test_grid_bounds_checked(self):
        with pytest.raises(InputError):
            filter_response_curve(Ppr(0.1), [-0.1])
        with pytest.raises(InputError):
            filter_response_curve(Ppr(0.1), [2.1])


class TestPolyFilter:
    def test_identity_filter(self):
        x = np.arange(4.0)
        out = apply_poly_filter([1.0], np.eye(4), x)
        np.testing.assert_allclose(out, x)

    def test_one_hop_filter(self):
        g = load_graph([(0, 1), (1, 2), (2, 0)])
        t = transition_matrix(g, Symmetric())
        lap = laplacian(t)
        x = np.array([1.0, -2.0, 0.5])
        out = apply_poly_filter([1.0, -1.0], lap, x)
        np.testing.assert_allclose(out, t.matrix @ x, atol=1e-14)

    def test_geometric_filter_matches_exact(self):
        from graphdiffusion import closed_form_xi
        g = load_graph([(0, 1), (1, 2), (2, 0)])
        t = transition_matrix(g, Symmetric())
        s = diffuse(t, Ppr(0.75))
        lap = laplacian(t)
        xi = [closed_form_xi(Ppr(0.75), j) for j in range(101)]
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(3)
            out = apply_poly_filter(xi, lap, x)
            np.testing.assert_allclose(out, s.data @ x, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            apply_poly_filter([1.0], np.eye(3), np.ones(4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_equals_filter_on_matrices(self, seed):
        # sum theta_k T^k must equal sum xi_j (I - T)^j after conversion
        rng = np.random.default_rng(seed)
        g = connected_er(30, 0.15, seed + 10)
        t = transition_matrix(g, Symmetric()).matrix.toarray()
        k = int(rng.integers(2, 11))
        th = random_theta(k, rng)
        xi = np.array(theta_to_xi(th), dtype=float)
        lhs = np.zeros_like(t)
        tp = np.eye(t.shape[0])
        for w in th:
            lhs += w * tp
            tp = tp @ t
        lap = np.eye(t.shape[0]) - t
        rhs = np.zeros_like(t)
        lp = np.eye(t.shape[0])
        for c in xi:
            rhs += c * lp
            lp = lp @ lap
        assert np.abs(lhs - rhs).max() < 1e-8


class TestSpectrumCompare:
    def test_identical(self):
        rep = eigen(np.diag([1.0, 2.0, 3.0]))
        delta = spectrum_compare(rep, rep)
        np.testing.assert_allclose(delta.deltas, 0.0)
        assert delta.l2 == 0.0

    def test_uniform_shift(self):
        a = eigen(np.diag([1.0, 2.0, 3.0, 4.0]))
        b = eigen(np.diag([1.1, 2.1, 3.1, 4.1]))
        delta = spectrum_compare(a, b)
        np.testing.assert_allclose(delta.deltas, 0.1, atol=1e-12)
        assert delta.l2 == pytest.approx(0.1 * 2.0, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            spectrum_compare(eigen(np.eye(2)), eigen(np.eye(3)))
