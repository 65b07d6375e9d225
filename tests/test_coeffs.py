import math
from fractions import Fraction

import numpy as np
import pytest

from graphdiffusion import (Explicit, Heat, InputError, Ppr,
                            closed_form_converges, closed_form_xi, theta,
                            theta_tail, theta_to_xi, theta_vector,
                            truncation_k, xi_to_theta)
from graphdiffusion.spectral import eigenvalue_map
from conftest import random_theta


class TestTheta:
    def test_geometric_values(self):
        assert theta(Ppr(0.1), 0) == pytest.approx(0.1)
        assert theta(Ppr(0.5), 2) == pytest.approx(0.125)

    def test_heat_values(self):
        assert theta(Heat(1.0), 1) == pytest.approx(math.exp(-1), rel=1e-12)
        assert theta(Heat(2.0), 0) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_heat_no_overflow(self):
        vals = [theta(Heat(50.0), k) for k in range(0, 501, 50)]
        assert all(np.isfinite(vals))
        assert all(v >= 0 for v in vals)

    def test_explicit_range_check(self):
        spec = Explicit((0.5, 0.5))
        assert theta(spec, 1) == 0.5
        with pytest.raises(InputError):
            theta(spec, 2)

    def test_negative_index(self):
        with pytest.raises(InputError):
            theta(Ppr(0.1), -1)

    @pytest.mark.parametrize("spec", [Ppr(0.05), Ppr(0.9), Heat(0.5), Heat(10.0)])
    def test_nonnegative(self, spec):
        assert all(theta(spec, k) >= 0 for k in range(200))

    def test_spec_validation(self):
        with pytest.raises(InputError):
            Ppr(0.0)
        with pytest.raises(InputError):
            Ppr(1.0)
        with pytest.raises(InputError):
            Heat(0.0)
        with pytest.raises(InputError):
            Explicit((0.5, 0.6))
        with pytest.raises(InputError):
            Explicit((-0.1, 0.5))
        for th in [(math.nan,), (0.5, math.nan)]:
            with pytest.raises(InputError, match="lie in"):
                Explicit(th)
        # a deficit is allowed and kept as-is
        assert Explicit((0.2, 0.3)).theta == (0.2, 0.3)

    def test_explicit_weights_are_checked_numbers(self):
        for weight in ["0.5", True, math.inf, -math.inf]:
            with pytest.raises(InputError, match="explicit weight must be a finite"):
                Explicit((0.25, weight))
        th = Explicit((np.float64(0.25), Fraction(1, 2))).theta
        assert th == (0.25, 0.5)
        assert all(type(x) is float for x in th)


class TestTruncation:
    def test_geometric_half(self):
        # tail (1-a)^(K+1): K=3 gives 0.0625 < 0.1, K=2 gives 0.125
        assert truncation_k(Ppr(0.5), 0.1) == 3

    def test_geometric_small_tol(self):
        # smallest K with 0.9^(K+1) < 1e-6
        k = truncation_k(Ppr(0.1), 1e-6)
        assert k == 131
        assert 0.9 ** (k + 1) < 1e-6 <= 0.9 ** k

    @pytest.mark.parametrize("spec,tol", [
        (Ppr(0.05), 1e-8), (Ppr(0.3), 1e-4),
        (Heat(1.0), 1e-6), (Heat(5.0), 1e-10),
    ])
    def test_minimality_against_brute_force(self, spec, tol):
        k = truncation_k(spec, tol)
        # brute-force tail oracle: sum weights far past K
        horizon = k + 400
        total = math.fsum(theta(spec, i) for i in range(horizon + 1))
        head = math.fsum(theta(spec, i) for i in range(k + 1))
        tail = 1.0 - head  # weights sum to one analytically
        assert tail < tol
        if k > 0:
            tail_prev = 1.0 - math.fsum(theta(spec, i) for i in range(k))
            assert tail_prev >= tol * (1 - 1e-9)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", [Ppr(0.05), Ppr(0.5), Heat(0.7), Heat(20.0)])
    @pytest.mark.parametrize("K", [0, 3, 40])
    def test_head_plus_tail_is_one(self, spec, K):
        head = math.fsum(theta_vector(spec, K))
        assert head + theta_tail(spec, K) == pytest.approx(1.0, abs=1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(InputError):
            truncation_k(Ppr(0.1), 0.0)


class TestConversion:
    def test_one_hop_case(self):
        assert theta_to_xi((0.0, 1.0, 0.0)) == pytest.approx([1.0, -1.0, 0.0])

    def test_identity_case(self):
        assert theta_to_xi((1.0, 0.0, 0.0, 0.0)) == pytest.approx([1.0, 0, 0, 0])

    def test_inverse_pair(self):
        assert xi_to_theta((1.0, -1.0, 0.0)) == pytest.approx([0.0, 1.0, 0.0])
        assert xi_to_theta((1.0, 0.0)) == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("k", [1, 5, 12, 20])
    def test_float_round_trip(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            th = random_theta(k, rng)
            back = xi_to_theta(theta_to_xi(th))
            np.testing.assert_allclose(back, th, atol=1e-9)

    def test_exact_round_trip_k60(self):
        rng = np.random.default_rng(60)
        th = [Fraction(int(v), 1000) for v in rng.integers(0, 17, size=61)]
        xi = theta_to_xi(th, mode="exact")
        back = xi_to_theta(xi, mode="exact")
        assert back == th

    def test_float_cap_suggests_exact(self):
        with pytest.raises(InputError, match="exact"):
            theta_to_xi([0.0] * 62)

    def test_geometric_limit_coefficient(self):
        # xi_1 approaches 1 - 1/alpha as the truncation grows
        th = theta_vector(Ppr(0.75), 40)
        xi = theta_to_xi(th)
        assert xi[1] == pytest.approx(1 - 1 / 0.75, abs=1e-9)

    def test_matches_closed_form_for_low_orders(self):
        th = theta_vector(Ppr(0.8), 50)
        xi = theta_to_xi(th)
        for j in range(4):
            assert xi[j] == pytest.approx(closed_form_xi(Ppr(0.8), j), abs=1e-8)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            theta_to_xi((1.0,), mode="decimal")


class TestClosedForm:
    def test_heat_values(self):
        assert closed_form_xi(Heat(1.0), 0) == pytest.approx(1.0)
        assert closed_form_xi(Heat(1.0), 1) == pytest.approx(-1.0)
        assert closed_form_xi(Heat(2.0), 3) == pytest.approx(-8 / 6)

    def test_geometric_values(self):
        assert closed_form_xi(Ppr(0.75), 2) == pytest.approx(1 / 9)
        assert closed_form_xi(Ppr(0.25), 1) == pytest.approx(-3.0)

    def test_convergence_tag(self):
        assert closed_form_converges(Ppr(0.75))
        assert not closed_form_converges(Ppr(0.25))
        assert not closed_form_converges(Ppr(0.5))
        assert closed_form_converges(Heat(30.0))

    def test_negative_index_rejected(self):
        with pytest.raises(InputError, match="non-negative, got -1"):
            closed_form_xi(Ppr(0.5), -1)

    def test_explicit_rejected(self):
        with pytest.raises(InputError):
            closed_form_xi(Explicit((1.0,)), 0)
        with pytest.raises(InputError):
            closed_form_converges(Explicit((1.0,)))

    @pytest.mark.parametrize("spec", [Heat(1.0), Heat(4.0), Ppr(0.6), Ppr(0.9)])
    def test_series_reaches_eigenvalue_map(self, spec):
        # sum_j xi_j (1 - lam)^j must converge to the closed eigenvalue map
        J = 200
        xi = [closed_form_xi(spec, j) for j in range(J + 1)]
        for lam in np.linspace(0.0, 1.0, 21):
            acc = 0.0
            for c in reversed(xi):
                acc = acc * (1.0 - lam) + c
            assert acc == pytest.approx(eigenvalue_map(spec, lam), abs=1e-6)
