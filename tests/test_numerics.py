"""Special functions, symmetric polynomials, quadrature, and the small
dense linear algebra layer."""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    ConvergenceError,
    DomainError,
    NumericError,
    QuadratureRule,
    SingularMatrixError,
    elem_sym,
    gauss_laguerre,
    gauss_legendre,
    hyp0f1,
    integrate_nd,
    laguerre,
    log_gamma,
    max_gram_size,
    solve,
)

# Frozen oracle values (computed independently during the build and pinned).
HYP0F1_ORACLE = {
    (1.0, 2.5): 5.5716222487437204,
    (2.0, -10.0): -0.063793231419410068,
    (1.5, -100.0): 0.04564726253638135,
    (3.0, 0.0): 1.0,
    (1.0, -500.0): 0.11916388332742331,
    (2.5, 30.0): 649.82197925764081,
}
LAGUERRE_ORACLE = {
    (0, 0.5, 3.0): 1.0,
    (1, 0.0, 2.0): -1.0,
    (3, 1.0, 2.5): -1.1041666666666665,
    (5, 0.5, 4.0): 0.24661458333333311,
    (8, 2.0, 1.5): -3.118225969587054,
}


class TestLaguerre:
    def test_frozen_values(self):
        for (n, alpha, x), ref in LAGUERRE_ORACLE.items():
            assert laguerre(n, alpha, x) == pytest.approx(ref, rel=1e-13)

    def test_vectorized_matches_scalar(self):
        x = np.array([0.0, 0.7, 3.2, 11.0])
        vals = laguerre(4, 0.5, x)
        for xi, vi in zip(x, vals):
            assert laguerre(4, 0.5, float(xi)) == vi

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, -1.0, 1.0)


class TestHyp0f1:
    def test_frozen_values(self):
        for (c, z), ref in HYP0F1_ORACLE.items():
            assert hyp0f1(c, z) == pytest.approx(ref, rel=1e-11)

    def test_series_definition_small_z(self):
        # direct 30-term sum as an in-test oracle
        c, z = 1.7, 3.1
        term, total = 1.0, 1.0
        for k in range(30):
            term *= z / ((c + k) * (k + 1))
            total += term
        assert hyp0f1(c, z) == pytest.approx(total, rel=1e-14)

    def test_branch_continuity(self):
        # continuous across z = -40, where the alternating series cancels
        left = hyp0f1(1.5, -40.0 - 1e-9)
        right = hyp0f1(1.5, -40.0 + 1e-9)
        assert left == pytest.approx(right, rel=1e-6)

    def test_large_negative_argument_finite(self):
        # would lose all digits in the alternating Taylor sum
        val = hyp0f1(2.0, -5000.0)
        assert np.isfinite(val)
        assert abs(val) < 1.0

    def test_array_input(self):
        z = np.array([-100.0, -1.0, 0.0, 5.0])
        vals = hyp0f1(2.0, z)
        assert vals.shape == z.shape
        assert vals[2] == 1.0

    def test_bad_parameter(self):
        with pytest.raises(DomainError):
            hyp0f1(0.0, 1.0)
        with pytest.raises(DomainError):
            hyp0f1(-2.0, 1.0)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 3.0, 4.5])
    def test_against_mpmath(self, c):
        # 50-digit reference; relative to the value for z >= 0 and to the
        # Bessel envelope Gamma(c) |z|^(-(c-1)/2 - 1/4) for z < 0, where the
        # alternating series cancels
        z = np.unique(np.concatenate([np.linspace(-2000.0, 800.0, 71),
                                      np.linspace(-40.0, 0.0, 41)]))
        with mp.workdps(50):
            ref = np.array([float(mp.hyp0f1(c, mp.mpf(float(v)))) for v in z])
        envelope = math.gamma(c) * np.abs(np.where(z < 0, z, 1.0)) ** (-(c - 1) / 2 - 0.25)
        scale = np.where(z >= 0, np.abs(ref), envelope)
        assert np.max(np.abs(hyp0f1(c, z) - ref) / scale) <= 1e-13

    def test_large_parameter_negative_argument(self):
        # scipy's z < 0 branch forms Gamma(c), which overflows past c = 171.6;
        # there the series serves -c <= z < 0, and z < -c is refused
        points = ((172.0, -1.0), (200.0, -50.0), (500.0, -400.0))
        with mp.workdps(50):
            ref = [float(mp.hyp0f1(c, z)) for c, z in points]
        for (c, z), want in zip(points, ref):
            assert hyp0f1(c, z) == pytest.approx(want, rel=1e-14)
            assert hyp0f1(c, np.array([z, 0.0]))[0] == hyp0f1(c, z)
        assert hyp0f1(172.0, -1.0) == pytest.approx(0.994, abs=5e-4)
        for c, z in ((172.0, -172.5), (500.0, -1000.0)):
            with pytest.raises(DomainError):
                hyp0f1(c, z)

    def test_overflow_raises(self, capsys):
        # 0F1(1; z) = I_0(2 sqrt z) passes the largest double between
        # z = 1.27e5 and 1.28e5; past it the answer is a ConvergenceError,
        # with no numpy warning and nothing printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(hyp0f1(1.0, 1.27e5))
            for c, z in ((1.0, 2e5), (1.0, 1.28e5), (1.5, 2e5), (4.5, np.inf)):
                with pytest.raises(ConvergenceError):
                    hyp0f1(c, z)
        assert capsys.readouterr().err == ""


def test_log_gamma():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
    with pytest.raises(DomainError):
        log_gamma(0.0)


class TestElemSym:
    def test_explicit(self):
        e = elem_sym([1.0, 2.0, 3.0])
        assert np.allclose(e, [1.0, 6.0, 11.0, 6.0])

    def test_empty(self):
        assert np.allclose(elem_sym([]), [1.0])

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_generating_function(self, a, t):
        # prod_i (t + a_i) = sum_n t^n e_{N-n}
        e = elem_sym(a)
        lhs = np.prod([t + ai for ai in a])
        rhs = sum(t**n * e[len(a) - n] for n in range(len(a) + 1))
        scale = max(1.0, max(abs(lhs), abs(rhs)))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestLinearAlgebra:
    def test_solve_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        x = solve(m, b)
        assert np.allclose(m @ x, b, rtol=1e-10, atol=1e-12)

    def test_singular_matrix_pivot_index(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as exc:
            solve(m, np.ones(2))
        assert exc.value.pivot_index == 1

    def test_nonsquare_rejected(self):
        with pytest.raises(DomainError):
            solve(np.ones((2, 3)), np.ones(2))


def _mp_laguerre_pair(n, a, x):
    """L_n^a(x) and L_{n-1}^a(x) by the three-term recurrence, in mpmath."""
    prev, cur = mp.mpf(1), 1 + a - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur, prev


def _mp_legendre_pair(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in mpmath."""
    prev, cur = mp.mpf(1), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, n * (x * cur - prev) / (x * x - 1)


def _max_rel(got, want):
    return max(float(abs(mp.mpf(float(g)) - w) / abs(w)) for g, w in zip(got, want))


class TestGaussLaguerre:
    @pytest.mark.parametrize("n", [20, 64, 120])
    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 1.3, 150.0])
    def test_nodes_and_weights_against_mpmath(self, n, alpha):
        # 50-digit zeros of L_n^alpha, Newton-refined from the rule's nodes,
        # and w = Gamma(n + alpha + 1) / (n! x L_n^alpha'(x)^2), every weight
        # relative, the smallest (down to 8e-198) included.  Measured worst:
        # nodes 1.9e-15, weights 1.3e-12 (n = 120, alpha = 150)
        r = gauss_laguerre(n, alpha)
        with mp.workdps(50):
            a = mp.mpf(alpha)
            scale = mp.gamma(n + a + 1) / mp.factorial(n)
            xs, ws = [], []
            for x0 in r.nodes:
                x = mp.mpf(float(x0))
                for _ in range(3):
                    ln, lm = _mp_laguerre_pair(n, a, x)
                    step = ln * x / (n * ln - (n + a) * lm)
                    x -= step
                assert abs(step) < mp.mpf(10) ** -40 * x
                ln, lm = _mp_laguerre_pair(n, a, x)
                xs.append(x)
                ws.append(scale * x / (n * ln - (n + a) * lm) ** 2)
            assert _max_rel(r.nodes, xs) <= 5e-15
            assert _max_rel(r.weights, ws) <= 3e-12

    def test_alpha_past_gamma_overflow(self):
        # Gamma(alpha + 1) overflows a double above alpha = 170.62: the rule
        # would carry infinite weights, so it is refused
        r = gauss_laguerre(16, 170.6)
        assert np.all(np.isfinite(r.weights))
        assert r.weights.sum() == pytest.approx(math.gamma(171.6), rel=1e-13)
        for alpha in (170.7, 171.0, 500.0):
            with pytest.raises(NumericError, match="alpha <= 170.62"):
                gauss_laguerre(16, alpha)

    def test_invariants(self):
        r = gauss_laguerre(64, 0.5)
        assert r.n == 64
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.weights > 0)
        assert np.all(r.nodes > 0)

    def test_total_mass(self):
        for alpha in (0.0, 0.5, 2.0):
            r = gauss_laguerre(40, alpha)
            assert r.weights.sum() == pytest.approx(math.gamma(alpha + 1), rel=1e-13)

    def test_exact_to_degree_2n_minus_1(self):
        # moment of x^k is Gamma(k + alpha + 1); test at the exactness edge
        n, alpha = 20, 1.0
        r = gauss_laguerre(n, alpha)
        k = 2 * n - 1
        ref = math.gamma(k + alpha + 1)
        assert r.integrate(lambda x: x**k) == pytest.approx(ref, rel=1e-12)

    def test_large_rule_no_overflow(self):
        # the weights must survive node counts where the Laguerre
        # polynomial values overflow double precision
        r = gauss_laguerre(200, 0.0)
        assert np.all(np.isfinite(r.weights)) and np.all(r.weights > 0)
        k = 2 * 200 - 1
        scaled = np.sum(r.weights * np.exp(k * np.log(r.nodes) - math.lgamma(k + 1)))
        assert scaled == pytest.approx(1.0, rel=1e-11)

    def test_dx_weights(self):
        # plain-dx weights integrate x e^{-x} to 1 on the alpha=1 rule
        r = gauss_laguerre(32, 1.0)
        val = float(np.dot(r.dx_weights, r.nodes * np.exp(-r.nodes)))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(DomainError):
            gauss_laguerre(4, -1.5)

    def test_cached_per_size_and_alpha(self):
        # one rule object per (n, alpha), shared safely because it is read-only
        r = gauss_laguerre(64, 1.5)
        assert gauss_laguerre(64, 1.5) is r
        assert not r.nodes.flags.writeable and not r.weights.flags.writeable
        assert gauss_laguerre(64, 0.5) is not r
        # a warm cache does not let bad input through
        with pytest.raises(DomainError):
            gauss_laguerre(0, 1.5)
        with pytest.raises(DomainError):
            gauss_laguerre(64, -1.5)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [32, 64])
    def test_nodes_and_weights_against_mpmath(self, n):
        # 50-digit zeros of P_n and w = 2 / ((1 - x^2) P_n'(x)^2).  Measured
        # worst: nodes 1.7e-16 absolute, weights 6.6e-15 (n = 32) and
        # 1.1e-13 (n = 64) relative
        r = gauss_legendre(n, -1.0, 1.0)
        with mp.workdps(50):
            xs, ws = [], []
            for x0 in r.nodes:
                x = mp.mpf(float(x0))
                for _ in range(3):
                    p, dp = _mp_legendre_pair(n, x)
                    x -= p / dp
                xs.append(x)
                ws.append(2 / ((1 - x * x) * _mp_legendre_pair(n, x)[1] ** 2))
            assert max(float(abs(mp.mpf(float(g)) - w)) for g, w in zip(r.nodes, xs)) <= 1e-15
            assert _max_rel(r.weights, ws) <= 3e-13

    def test_exactness(self):
        n = 16
        r = gauss_legendre(n, -1.0, 3.0)
        k = 2 * n - 1
        ref = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert r.integrate(lambda x: x**k) == pytest.approx(ref, rel=1e-12)

    def test_affine_map(self):
        r = gauss_legendre(10, 2.0, 5.0)
        assert r.nodes[0] > 2.0 and r.nodes[-1] < 5.0
        assert r.weights.sum() == pytest.approx(3.0, rel=1e-14)

    def test_repeated_calls_identical(self):
        # the cached [-1, 1] rule maps to the same arrays on every call
        for n in (1, 8, 24):
            r1, r2 = gauss_legendre(n, -0.5, 3.0), gauss_legendre(n, -0.5, 3.0)
            assert np.array_equal(r1.nodes, r2.nodes)
            assert np.array_equal(r1.weights, r2.weights)
            assert not r1.nodes.flags.writeable and not r1.weights.flags.writeable

    def test_single_point(self):
        r = gauss_legendre(1, 0.0, 2.0)
        assert r.nodes[0] == pytest.approx(1.0)
        assert r.weights[0] == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_legendre(4, 1.0, 1.0)


class TestQuadratureRule:
    def test_mismatched_lengths(self):
        with pytest.raises(DomainError):
            QuadratureRule(np.array([1.0, 2.0]), np.array([1.0]), "dx")

    def test_decreasing_nodes_rejected(self):
        with pytest.raises(NumericError):
            QuadratureRule(np.array([2.0, 1.0]), np.array([1.0, 1.0]), "dx")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NumericError):
            QuadratureRule(np.array([1.0, 2.0]), np.array([1.0, 0.0]), "dx")

    @pytest.mark.parametrize("nodes, weights", [
        ([1.0, np.inf], [1.0, 1.0]),
        ([1.0, np.nan], [1.0, 1.0]),
        ([1.0, 2.0], [1.0, np.inf]),
        ([1.0, 2.0], [np.nan, 1.0]),
    ])
    def test_non_finite_rejected(self, nodes, weights):
        with pytest.raises(NumericError, match="non-finite"):
            QuadratureRule(np.array(nodes), np.array(weights), "dx")

    def test_moments(self):
        # plain-dx moments whatever the family: int_0^oo x^(j+1.5) e^{-x} dx
        # = Gamma(j + 2.5) on a Laguerre rule of alpha 1.5, int_0^2 x^j dx =
        # 2^(j+1)/(j+1) on a Legendre one; one row of moments per row of values
        lag = gauss_laguerre(64, 1.5)
        m = lag.moments(lag.nodes**1.5 * np.exp(-lag.nodes), 5)
        assert np.allclose(m, [math.gamma(j + 2.5) for j in range(5)], rtol=1e-12, atol=0)
        leg = gauss_legendre(8, 0.0, 2.0)
        rows = leg.moments(np.array([np.ones(8), leg.nodes]), 4)
        assert rows.shape == (2, 4)
        assert np.allclose(rows, [[2.0 ** (j + k + 1) / (j + k + 1) for j in range(4)]
                                  for k in range(2)], rtol=1e-13, atol=0)
        assert leg.moments(np.ones(8), 0).shape == (0,)


class TestIntegrateNd:
    def test_separable_product(self):
        r = gauss_legendre(12, 0.0, 1.0)
        val = integrate_nd(lambda x, y: x * y, [r, r])
        assert val == pytest.approx(0.25, rel=1e-13)

    def test_three_dimensional(self):
        r = gauss_legendre(8, 0.0, 1.0)
        val = integrate_nd(lambda x, y, z: x + y + z, [r, r, r])
        assert val == pytest.approx(1.5, rel=1e-12)

    def test_dimension_cap(self):
        r = gauss_legendre(2, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate_nd(lambda *a: 1.0, [r] * 5)


class TestMaxGramSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("BIORTHO_MAX_N", raising=False)
        assert max_gram_size() == 12

    def test_override(self, monkeypatch):
        monkeypatch.setenv("BIORTHO_MAX_N", "20")
        assert max_gram_size() == 20

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("BIORTHO_MAX_N", "zero")
        with pytest.raises(DomainError):
            max_gram_size()
        monkeypatch.setenv("BIORTHO_MAX_N", "0")
        with pytest.raises(DomainError):
            max_gram_size()


def test_hyp0f1_convergence_error_carries_partial():
    # an overflowing point fails the call; the error carries every value,
    # inf where it overflows
    with pytest.raises(ConvergenceError) as exc:
        hyp0f1(1.0, np.array([30.0, 2e5]))
    assert exc.value.partial is not None
    assert exc.value.partial[0] == hyp0f1(1.0, 30.0)
    assert exc.value.partial[1] == np.inf
