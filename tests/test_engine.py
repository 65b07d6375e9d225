import tracemalloc

import numpy as np
import pytest

from graphdiffusion import (ComputeError, Exact, Explicit, Heat, InputError,
                            Ppr, Push, RandomWalk, Series, Symmetric,
                            SymmetricSelfLoop, diffuse, eigen, load_graph,
                            theta_vector, transition_matrix, truncation_k)
from graphdiffusion import engine
from graphdiffusion.cluster import SbmSpec, generate_sbm
from conftest import connected_er


def t_of(edges, kind=RandomWalk()):
    return transition_matrix(load_graph(edges), kind)


class TestExactGeometric:
    def test_k2_half(self):
        s = diffuse(t_of([(0, 1)]), Ppr(0.5))
        np.testing.assert_allclose(s.data, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                                   atol=1e-12)

    def test_k3_half(self):
        # 3x3 oracle: (aI + bJ)^-1 = (1/a)(I - b J / (a + 3b)) with
        # a = 1.25, b = -0.25 gives S = 0.4 I + 0.2 J
        s = diffuse(t_of([(0, 1), (1, 2), (2, 0)]), Ppr(0.5))
        expected = 0.4 * np.eye(3) + 0.2 * np.ones((3, 3))
        np.testing.assert_allclose(s.data, expected, atol=1e-12)
        np.testing.assert_allclose(s.data.sum(axis=0), 1.0, atol=1e-12)

    def test_alpha_near_one_is_identity(self):
        s = diffuse(t_of([(0, 1), (1, 2)]), Ppr(1 - 1e-12))
        np.testing.assert_allclose(s.data, np.eye(3), atol=1e-9)

    def test_residual_contract(self):
        g = connected_er(50, 0.1, 1)
        t = transition_matrix(g, RandomWalk())
        s = diffuse(t, Ppr(0.1)).data
        resid = 0.1 * np.eye(50) - (s - 0.9 * (t.matrix @ s))
        assert np.abs(resid).max() < 1e-10

    def test_certificate_records_residual(self):
        g = connected_er(40, 0.1, 3)
        t = transition_matrix(g, RandomWalk())
        s = diffuse(t, Ppr(0.2))
        resid = 0.2 * np.eye(40) - (s.data - 0.8 * (t.matrix @ s.data))
        assert s.certificate == {"residual_max": float(np.abs(resid).max())}

    def test_inaccurate_inverse_reports_residual(self, monkeypatch):
        # a factorization that returns a perturbed inverse must fail the
        # residual check
        true_inverse = engine._inverse
        monkeypatch.setattr(engine, "_inverse",
                            lambda a, spd: true_inverse(a, spd) + 1e-6)
        t = transition_matrix(connected_er(30, 0.15, 2), Symmetric())
        with pytest.raises(ComputeError, match="residual"):
            diffuse(t, Ppr(0.05))

    def test_nan_inverse_fails_the_residual_check(self, monkeypatch):
        monkeypatch.setattr(engine, "_inverse",
                            lambda a, spd: np.full_like(a, np.nan))
        t = transition_matrix(connected_er(30, 0.15, 2), Symmetric())
        with pytest.raises(ComputeError, match="residual nan"):
            diffuse(t, Ppr(0.05))

    def test_alpha_validated(self):
        with pytest.raises(InputError):
            diffuse(t_of([(0, 1)]), Ppr(0.0))

    @pytest.mark.parametrize("kind", [RandomWalk(), Symmetric(),
                                      SymmetricSelfLoop(1.0)])
    def test_column_sums_random_walk_only(self, kind):
        g = connected_er(40, 0.12, 3)
        t = transition_matrix(g, kind)
        s = diffuse(t, Ppr(0.15))
        sums = s.data.sum(axis=0)
        if isinstance(kind, RandomWalk):
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_entries_nonnegative(self):
        g = connected_er(40, 0.12, 4)
        t = transition_matrix(g, SymmetricSelfLoop(1.0))
        s = diffuse(t, Ppr(0.1))
        assert s.data.min() >= -1e-12


def count_cholesky_calls(monkeypatch):
    calls = []
    real = engine._inverse

    def counted(a, spd):
        if spd:
            calls.append(a.shape)
        return real(a, spd)

    monkeypatch.setattr(engine, "_inverse", counted)
    return calls


def lu_reference(t, alpha):
    a = np.eye(t.n) - (1.0 - alpha) * t.matrix.toarray()
    return np.linalg.solve(a, alpha * np.eye(t.n))


def residual_max(t, alpha, x):
    return float(np.abs(alpha * np.eye(t.n)
                        - (x - (1.0 - alpha) * (t.matrix @ x))).max())


class TestExactSolvers:
    """Cholesky inverts symmetric transitions; LU inverts all others."""

    @pytest.mark.parametrize("kind", [Symmetric(), SymmetricSelfLoop(1.0)])
    @pytest.mark.parametrize("alpha", [0.05, 0.15, 0.6])
    def test_cholesky_matches_solve(self, kind, alpha, monkeypatch):
        t = transition_matrix(connected_er(80, 0.08, 11), kind)
        calls = count_cholesky_calls(monkeypatch)
        s = diffuse(t, Ppr(alpha))
        assert calls == [(80, 80)]
        assert np.abs(s.data - lu_reference(t, alpha)).max() < 1e-12
        assert np.array_equal(s.data, s.data.T)
        assert s.certificate == {"residual_max": residual_max(t, alpha, s.data)}
        assert s.certificate["residual_max"] < 1e-12

    def test_random_walk_solves_by_lu(self, monkeypatch):
        t = transition_matrix(connected_er(60, 0.1, 12), RandomWalk())
        calls = count_cholesky_calls(monkeypatch)
        s = diffuse(t, Ppr(0.2))
        assert calls == []
        np.testing.assert_allclose(s.data, lu_reference(t, 0.2), rtol=1e-14, atol=0)
        np.testing.assert_allclose(s.data.sum(axis=0), 1.0, atol=1e-12)

    def test_directed_symmetric_solves_by_lu(self, monkeypatch):
        # a directed cycle with chords: D^-1/2 A D^-1/2 is not symmetric
        edges = [(i, (i + 1) % 12) for i in range(12)] + [(0, 5), (3, 9), (7, 2)]
        g = load_graph(edges, directed=True)
        t = transition_matrix(g, Symmetric())
        assert (t.matrix != t.matrix.T).nnz
        calls = count_cholesky_calls(monkeypatch)
        s = diffuse(t, Ppr(0.15))
        assert calls == []
        np.testing.assert_allclose(s.data, lu_reference(t, 0.15), rtol=1e-14, atol=0)
        assert s.certificate["residual_max"] < 1e-12

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(ComputeError, match="positive definite"):
            engine._inverse(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]), True)

    def test_lu_rejects_singular(self):
        with pytest.raises(ComputeError, match="singular"):
            engine._inverse(np.asfortranarray([[1.0, 2.0], [2.0, 4.0]]), False)


@pytest.mark.parametrize("kind", [SymmetricSelfLoop(1.0), RandomWalk()])
def test_exact_solve_peak_memory(kind):
    # the docstring's budget: the result, inverted in place, plus a
    # residual block's N x PUSH_BLOCK temporaries, by Cholesky and by LU
    # alike; at N=1000 two such blocks are 0.13 N^2 * 8 bytes
    g, _ = generate_sbm(SbmSpec((334, 333, 333), 0.07, 0.005, seed=1))
    t = transition_matrix(g, kind)
    assert t.n == 1000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = diffuse(t, Ppr(0.15))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert s.data.flags.f_contiguous
    assert peak <= 1.3 * t.n ** 2 * 8


def test_series_peak_memory_is_one_dense_array():
    # Horner runs on blocks of identity columns, each written into the
    # result, so besides it only the running block's N x PUSH_BLOCK
    # temporaries live (one block at threads=1)
    g, _ = generate_sbm(SbmSpec((334, 333, 333), 0.07, 0.005, seed=1))
    t = transition_matrix(g, RandomWalk())
    n = t.n
    # the heat tail imports scipy.special on first use; import it untraced
    truncation_k(Heat(3.0), 1e-12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = diffuse(t, Heat(3.0), Exact(), threads=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert s.exactness.startswith("series:")
    assert s.data.shape == (n, n) == (1000, 1000)
    assert peak <= 1.3 * n ** 2 * 8


class TestSeries:
    def test_identity_weights(self):
        s = diffuse(t_of([(0, 1), (1, 2)]), Explicit((1.0,)), Series(0))
        np.testing.assert_allclose(s.data, np.eye(3))

    def test_one_hop_weights(self):
        t = t_of([(0, 1), (1, 2), (2, 0)])
        s = diffuse(t, Explicit((0.0, 1.0, 0.0)), Series(2))
        np.testing.assert_allclose(s.data, t.matrix.toarray(), atol=1e-15)

    def test_k2_heat_closed_form(self):
        # e^-t expm(tA) on K2 equals cosh/sinh mixing: t = ln 2 gives
        # diag (1 + 1/4)/2 = 0.625 and off-diagonal (1 - 1/4)/2 = 0.375
        t = t_of([(0, 1)])
        s = diffuse(t, Heat(np.log(2.0)), Series(60))
        np.testing.assert_allclose(s.data, [[0.625, 0.375], [0.375, 0.625]],
                                   atol=1e-12)

    @pytest.mark.parametrize("kind", [RandomWalk(), Symmetric(),
                                      SymmetricSelfLoop(1.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_series_converges_to_exact(self, kind, alpha):
        g = connected_er(70, 0.08, 5)
        t = transition_matrix(g, kind)
        exact = diffuse(t, Ppr(alpha))
        series = diffuse(t, Ppr(alpha), Series(truncation_k(Ppr(alpha), 1e-12)))
        assert np.abs(exact.data - series.data).max() < 1e-8

    def test_commutes_with_transition(self):
        g = connected_er(50, 0.1, 6)
        t = transition_matrix(g, Symmetric())
        s = diffuse(t, Ppr(0.2)).data
        tm = t.matrix.toarray()
        assert np.abs(s @ tm - tm @ s).max() < 1e-9

    def test_heat_matches_eigendecomposition(self):
        g = connected_er(80, 0.07, 7)
        t = transition_matrix(g, Symmetric())
        k = truncation_k(Heat(2.5), 1e-14)
        s = diffuse(t, Heat(2.5), Series(k)).data
        rep = eigen(t.matrix, want_vectors=True)
        u, lam = rep.eigenvectors, rep.eigenvalues
        recon = u @ np.diag(np.exp(2.5 * (lam - 1.0))) @ u.T
        assert np.abs(s - recon).max() < 1e-7

    @pytest.mark.parametrize("kind", [RandomWalk(), SymmetricSelfLoop(1.0)])
    @pytest.mark.parametrize("spec, k", [
        (Ppr(0.15), 25), (Heat(3.0), 30),
        (Explicit((0.1, 0.0, 0.3, 0.0, 0.0, 0.25, 0.2)), 6)],
        ids=["ppr", "heat", "explicit"])
    def test_blocks_match_one_matrix_horner(self, kind, spec, k):
        # N is not a multiple of the block width, so the last block is short
        t = transition_matrix(connected_er(2 * engine.PUSH_BLOCK + 7, 0.05, 8), kind)
        assert t.n % engine.PUSH_BLOCK != 0
        # Horner on the whole N x N identity at once
        th = theta_vector(spec, k)
        diag = np.arange(t.n)
        full = th[-1] * np.eye(t.n)
        for coef in reversed(th[:-1]):
            full = t.matrix @ full
            if coef != 0.0:
                full[diag, diag] += coef
        s = diffuse(t, spec, Series(k))
        assert s.data.flags.f_contiguous
        assert np.array_equal(s.data, full)

    @pytest.mark.parametrize("spec, k", [(Ppr(0.15), 25), (Heat(3.0), 30)],
                             ids=["ppr", "heat"])
    def test_threads_do_not_change_result(self, spec, k):
        t = transition_matrix(connected_er(3 * engine.PUSH_BLOCK + 5, 0.05, 9),
                              RandomWalk())
        assert t.n % engine.PUSH_BLOCK != 0
        one = diffuse(t, spec, Series(k), threads=1)
        two = diffuse(t, spec, Series(k), threads=2)
        assert np.array_equal(one.data, two.data)
        assert one.certificate == two.certificate

    def test_diffuse_passes_threads_to_series(self, monkeypatch):
        seen = []
        real = engine._column_blocks

        def recording(n, block, threads):
            seen.append(threads)
            return real(n, block, threads)

        monkeypatch.setattr(engine, "_column_blocks", recording)
        diffuse(t_of([(0, 1), (1, 2)]), Heat(1.0), Exact(), threads=2)
        assert seen == [2]

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            diffuse(t_of([(0, 1)]), Ppr(0.5), Series(-1))

    @pytest.mark.parametrize("spec", [Ppr(0.15), Heat(3.0)])
    def test_huge_order_stops_at_underflow(self, spec):
        # Ppr(0.15) weights are 0.0 from k = 4573 on, Heat(3) ones from 224
        t = t_of([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        # the Horner sum over every weight up to K = 5000, trailing zeros too
        th = theta_vector(spec, 5000)
        full = th[-1] * np.eye(t.n)
        for coef in reversed(th[:-1]):
            full = t.matrix @ full
            full[np.diag_indices(t.n)] += coef
        tracemalloc.start()
        try:
            huge = diffuse(t, spec, Series(10 ** 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(huge.data, full)
        assert np.array_equal(diffuse(t, spec, Series(5000)).data, full)
        assert huge.exactness == "series:1000000"
        # a list of 10**6 weights alone takes over 30 MB
        assert peak < 2 * 2 ** 20


class TestDispatch:
    def test_exact_geometric(self):
        t = t_of([(0, 1)])
        s = diffuse(t, Ppr(0.5), Exact())
        assert s.exactness == "exact"

    def test_exact_heat_falls_back_to_series(self):
        t = t_of([(0, 1)])
        s = diffuse(t, Heat(1.0), Exact())
        assert s.exactness.startswith("series:")
        np.testing.assert_allclose(s.data.sum(axis=0), 1.0, atol=1e-10)

    def test_series_order_derived_from_tail(self, monkeypatch):
        monkeypatch.setattr(engine, "SERIES_TAIL_TOL", 0.1)
        t = t_of([(0, 1)])
        s = diffuse(t, Heat(1.0), Exact())
        assert s.exactness == "series:2"

    def test_push_mode(self):
        t = t_of([(0, 1)])
        s = diffuse(t, Ppr(0.5), Push(1e-8))
        assert isinstance(s.data, np.ndarray) and s.data.flags.f_contiguous
        np.testing.assert_allclose(s.data, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
                                   atol=1e-5)

    def test_push_needs_eps(self):
        with pytest.raises(InputError):
            diffuse(t_of([(0, 1)]), Ppr(0.5), Push(None))

    def test_series_needs_its_order(self):
        with pytest.raises(TypeError):
            Series()
        with pytest.raises(InputError) as info:
            Series(None)
        assert str(info.value) == "series order must be an integer, got None"

    def test_push_rejects_explicit(self):
        with pytest.raises(InputError, match=r"geometric \(ppr\) weights only"):
            diffuse(t_of([(0, 1)]), Explicit((1.0,)), Push(1e-6))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            diffuse(t_of([(0, 1)]), Ppr(0.5), "magic")


# a count rejects floats and bools, a real rejects strings, bools and
# infinities, all as InputError before any kernel runs
@pytest.mark.parametrize("make,arg,message", [
    (Series, 2.5, "series order must be an integer, got 2.5"),
    (Series, True, "series order must be an integer, got True"),
    (Series, "3", "series order must be an integer, got '3'"),
    (Push, True, "push tolerance must be a finite number, got True"),
    (Push, "1e-4", "push tolerance must be a finite number, got '1e-4'"),
    (Push, np.inf, "push tolerance must be a finite number, got inf"),
    (Ppr, "0.5", "teleport probability must be a finite number, got '0.5'"),
    (Ppr, True, "teleport probability must be a finite number, got True"),
    (Heat, True, "diffusion time must be a finite number, got True"),
    (Heat, "3", "diffusion time must be a finite number, got '3'"),
    (Heat, np.inf, "diffusion time must be a finite number, got inf"),
    (SymmetricSelfLoop, True, "self-loop weight must be a finite number, got True"),
    (SymmetricSelfLoop, -np.inf, "self-loop weight must be a finite number, got -inf"),
    (Explicit, (), "explicit weight list may not be empty")])
def test_value_types_check_their_argument(make, arg, message):
    with pytest.raises(InputError) as info:
        make(arg)
    assert str(info.value) == message


@pytest.mark.parametrize("make,message", [
    (Push, "push tolerance must be positive"),
    (Ppr, "teleport probability must be in"),
    (Heat, "diffusion time must be positive")])
def test_nan_left_to_range_check(make, message):
    with pytest.raises(InputError, match=message):
        make(np.nan)


@pytest.mark.parametrize("make,arg", [
    (Series, np.int64(3)), (Push, np.float64(1e-4)), (Ppr, np.float32(0.5)),
    (Heat, 3), (SymmetricSelfLoop, np.float64(2.0))])
def test_numpy_and_int_arguments_accepted(make, arg):
    assert make(arg) == make(arg)
