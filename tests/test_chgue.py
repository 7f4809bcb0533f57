"""Chiral-GUE-with-source closed forms against the generic machinery."""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from biortho import (
    ChgueParams,
    Composition,
    ConfluentSpec,
    ConvergenceError,
    DomainError,
    build_kernel,
    chgue_gram,
    chgue_kernel,
    chgue_type_one,
    chgue_type_two,
    confluent_spec,
    confluent_weights,
    ensemble_spec,
    gauss_laguerre,
    kernel_eval,
    kernel_sum_check,
    laguerre,
    laguerre_cd_kernel,
    pdf_eval,
    rank_decomposition,
    reference_spec,
    residue_kernel,
    scaled_laguerre_eta,
    staircase_functions,
    type_one,
    type_two,
    w_alpha,
)
from biortho import numerics
from biortho.numerics import log_gamma


def mp_divided_difference(f, nodes):
    """50-digit divided difference of ``f`` over ``nodes`` by residues of
    ``f(v) / prod(v - node)``: each distinct node ``b`` of multiplicity ``m``
    contributes the ``(m-1)``-th derivative of ``f(v) / prod_{c != b}
    (v - c)^{m_c}`` at ``b`` over ``(m-1)!``; for distinct nodes this is the
    partial-fraction sum."""
    mult = {}
    for v in nodes:
        mult[v] = mult.get(v, 0) + 1
    total = mp.mpf(0)
    for b, m in mult.items():
        def g(v, b=b):
            return f(v) / mp.fprod((v - c) ** k for c, k in mult.items() if c != b)

        total += mp.diff(g, mp.mpf(b), m - 1) / mp.factorial(m - 1)
    return total


@mp.workdps(50)
def mp_type_one(alpha, a, x):
    x, alpha = mp.mpf(x), mp.mpf(alpha)
    f = lambda v: mp.exp(-v) * mp.hyp0f1(alpha + 1, x * v)
    return float(x**alpha * mp.exp(-x) / mp.gamma(alpha + 1) * mp_divided_difference(f, a))


@mp.workdps(50)
def mp_type_two(alpha, a, xs):
    """(-1)^N sum_m e_{N-m}(a) m! L^alpha_m(x) at each x, in 50 digits, with
    L^alpha_m from its explicit sum (no recurrence)."""
    n = len(a)
    e = [mp.mpf(1)] + [mp.mpf(0)] * n
    for ai in a:
        for j in range(n, 0, -1):
            e[j] += mp.mpf(ai) * e[j - 1]

    def lag(m, x):  # m! L^alpha_m(x)
        return mp.fsum((-1) ** j * mp.factorial(m) / mp.factorial(j)
                       * mp.binomial(m + alpha, m - j) * x**j for j in range(m + 1))

    return np.array([
        float((-1) ** n * mp.fsum(e[n - m] * lag(m, mp.mpf(x)) for m in range(n + 1)))
        for x in xs
    ])


@mp.workdps(50)
def mp_kernel(alpha, a, x, y):
    """50-digit kernel sum_ij eta_i(x) c_ij xi_j(y), c = g^{-T}, from the
    closed-form Gram g_ij = a_j^{i-1} e^{a_j}."""
    alpha, x, y = mp.mpf(alpha), mp.mpf(x), mp.mpf(y)
    a = [mp.mpf(v) for v in a]
    n = len(a)
    gram = mp.matrix([[a[j] ** i * mp.exp(a[j]) for j in range(n)] for i in range(n)])
    eta = mp.matrix([(-1) ** i * mp.factorial(i) * mp.laguerre(i, alpha, x) for i in range(n)])
    xi = mp.matrix(
        [y**alpha * mp.exp(-y) * mp.hyp0f1(alpha + 1, aj * y) / mp.gamma(alpha + 1) for aj in a]
    )
    return float((eta.T * mp.lu_solve(gram.T, xi))[0])


class TestWeightAndParams:
    def test_w_alpha_zero_source_is_gamma_density(self):
        w = w_alpha(1.5, 0.0)
        rule = gauss_laguerre(48, 1.5)
        total = float(np.dot(rule.dx_weights, w(rule.nodes)))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_w_alpha_total_mass_with_source(self):
        # int w_alpha(x, a) dx = e^a (the Gram entry g_{1,j})
        a = 0.8
        w = w_alpha(0.5, a)
        rule = gauss_laguerre(64, 0.5)
        total = float(np.dot(rule.dx_weights, w(rule.nodes)))
        assert total == pytest.approx(math.exp(a), rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            ChgueParams(-0.5, (1.0,))
        with pytest.raises(DomainError):
            ChgueParams(0.0, (-1.0,))
        with pytest.raises(DomainError):
            ChgueParams(0.0, ())
        for alpha, a in ((math.nan, (1.0,)), (math.inf, (1.0,)), (0.0, (1.0, math.nan)),
                         (0.0, (math.inf,))):
            with pytest.raises(DomainError):
                ChgueParams(alpha, a)

    def test_w_alpha_validation(self):
        with pytest.raises(DomainError):
            w_alpha(-1.0, 0.0)
        with pytest.raises(DomainError):
            w_alpha(0.0, -0.1)


class TestGram:
    def test_closed_form_entries(self):
        p = ChgueParams(1.0, (0.3, 1.1, 2.0))
        g = chgue_gram(p)
        a = np.array(p.a)
        for i in range(3):
            assert np.allclose(g[i], a**i * np.exp(a), rtol=1e-14)

    def test_closed_vs_quadrature(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            for alpha in (0.0, 0.5, 1.0, 2.0):
                a = tuple(sorted(rng.uniform(0.05, 2.0, size=n), reverse=True))
                p = ChgueParams(alpha, a)
                closed = chgue_gram(p)
                quad = ensemble_spec(p).gram
                rel = np.max(np.abs(closed - quad) / np.abs(closed))
                assert rel < 1e-10


class TestPdf:
    def test_matches_generic_pdf(self):
        # the closed-form density det[eta_i(x_j)] det[xi_i(x_j)] / Z_N, with
        # Z_N = N! prod_j e^{a_j} Delta(a), against the one density evaluator
        p = ChgueParams(1.0, (0.4, 1.3))
        z_n = 2 * math.exp(sum(p.a)) * (p.a[1] - p.a[0])
        for pt in ([0.5, 2.0], [1.0, 4.5]):
            e = np.array([scaled_laguerre_eta(p.alpha, k)(pt) for k in (1, 2)])
            z = np.array([w_alpha(p.alpha, ai)(pt) for ai in p.a])
            closed = np.linalg.det(e) * np.linalg.det(z) / z_n
            assert pdf_eval(reference_spec(p), pt) == pytest.approx(closed, rel=1e-10)

    def test_normalization(self):
        # the density's closed-form normalization Z_N = N! det g, with
        # det g = prod_j e^{a_j} Delta(a), Delta(a) = prod_{i<j} (a_j - a_i)
        for a in ((0.9, 0.2), (1.4, 0.7, 0.2), (0.3, 2.1, 1.2, 0.05)):
            delta = math.prod(aj - ai for i, ai in enumerate(a) for aj in a[i + 1:])
            closed = math.exp(sum(a)) * delta
            det = np.linalg.det(chgue_gram(ChgueParams(0.5, a)))
            assert det == pytest.approx(closed, rel=1e-12)


class TestTypeFunctions:
    def test_type_two_vs_generic_solver(self):
        # the elementary-symmetric closed form against the moment solver on
        # the N distinct weights w_alpha(., a_i)
        alpha = 0.5
        a = (1.4, 0.7, 0.2)
        p = ChgueParams(alpha, a)
        from biortho import WeightSystem

        ws = WeightSystem(
            weights=tuple(w_alpha(alpha, ai) for ai in a),
            quad=gauss_laguerre(64, alpha),
        )
        generic = type_two(ws, Composition((1, 1, 1)))
        closed = chgue_type_two(p)
        x = np.linspace(0.1, 8.0, 9)
        assert np.allclose(closed(x), generic(x), rtol=1e-9, atol=1e-9)

    def test_type_one_vs_generic_solver(self):
        alpha = 0.5
        a = (1.4, 0.7, 0.2)
        p = ChgueParams(alpha, a)
        from biortho import WeightSystem

        ws = WeightSystem(
            weights=tuple(w_alpha(alpha, ai) for ai in a),
            quad=gauss_laguerre(64, alpha),
        )
        generic = type_one(ws, Composition((1, 1, 1)))
        closed = chgue_type_one(p)
        x = np.linspace(0.1, 8.0, 9)
        assert np.allclose(closed(x), generic(x), rtol=1e-8, atol=1e-10)

    def test_type_one_moments(self):
        p = ChgueParams(1.0, (1.2, 0.5, 0.1))
        q = chgue_type_one(p)
        rule = gauss_laguerre(64, 1.0)
        moments = [
            float(np.dot(rule.dx_weights, rule.nodes**j * q(rule.nodes)))
            for j in range(p.n)
        ]
        assert max(abs(m) for m in moments[:-1]) < 1e-11
        assert moments[-1] == pytest.approx(1.0, abs=1e-11)

    def test_type_two_coincident_sources_allowed(self):
        # the elementary-symmetric form needs no distinctness
        p = ChgueParams(0.0, (0.7, 0.7))
        val = chgue_type_two(p)(2.0)
        assert np.isfinite(val)

    def test_type_one_coincident_sources(self):
        # coincident sources against the confluent moment solve
        x = np.linspace(0.1, 8.0, 9)
        for alpha, b in ((0.0, 0.7), (0.5, 1.0)):
            ws, comp = confluent_weights(ConfluentSpec(b=(b,), m=Composition((2,))), alpha)
            ref = type_one(ws, comp)(x)
            q = chgue_type_one(ChgueParams(alpha, (b, b)))(x)
            assert np.max(np.abs(q - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_series_failure_raises(self, monkeypatch):
        # overflow and the term cap both end in ConvergenceError, not a NaN
        with pytest.raises(ConvergenceError), np.errstate(over="ignore"):
            chgue_type_one(ChgueParams(0.0, (1e4, 0.0)))(1e4)
        monkeypatch.setattr(numerics, "_SERIES_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError):
            chgue_type_one(ChgueParams(0.0, (1.0,)))(10.0)

    def test_series_overflow_is_silent(self):
        # the overflow is reported by the ConvergenceError alone, with no
        # RuntimeWarning from numpy before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                chgue_type_one(ChgueParams(0.0, (1e4, 0.0)))(1e4)

    def test_type_one_against_mpmath(self):
        # clustered pairs (and a clustered triple) inside a wide spread, down
        # to exact coincidence (delta = 0); normwise over y in [0, 30]
        y = np.linspace(0.0, 30.0, 13)
        families = (
            (0.0, lambda d: (2.0, 0.5 + d, 0.5)),
            (0.5, lambda d: (1.0 + 2 * d, 1.0 + d, 1.0)),
            (1.0, lambda d: (0.3 + d, 0.3)),
            (2.0, lambda d: (2.5, 1.9, 1.2, 0.5 + d, 0.5, 0.0)),
        )
        for alpha, sources in families:
            for delta in (1e-3, 1e-5, 1e-7, 1e-10, 0.0):
                a = sources(delta)
                q = chgue_type_one(ChgueParams(alpha, a))(y)
                ref = np.array([mp_type_one(alpha, a, v) for v in y])
                assert np.max(np.abs(q - ref)) <= 1e-11 * np.max(np.abs(ref)), (alpha, a)


    @pytest.mark.parametrize("n", [9, 12])
    def test_type_two_against_mpmath(self, n):
        # normwise over x in [0, 30]; monomial coefficients lost 2.5e-13 at
        # N = 9 and 1.9e-11 at N = 12 here
        a = np.random.default_rng(n).uniform(0.05, 3.0, size=n)
        x = np.linspace(0.0, 30.0, 31)
        ref = mp_type_two(1.0, a, x)
        got = chgue_type_two(ChgueParams(1.0, tuple(a)))(x)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert isinstance(chgue_type_two(ChgueParams(1.0, tuple(a)))(2.0), float)

    def test_staircase_rows_against_mpmath(self):
        # row k is the type II polynomial on the first k sources
        n = 12
        a = np.random.default_rng(n).uniform(0.05, 3.0, size=n)
        x = np.linspace(0.0, 30.0, 31)
        rows, _ = staircase_functions(ChgueParams(1.0, tuple(a)), x, 1.0)
        for k in range(n):
            ref = mp_type_two(1.0, a[:k], x)
            assert np.max(np.abs(rows[k] - ref)) <= 1e-13 * np.max(np.abs(ref)), k


class TestKernel:
    def test_residue_sum_vs_generic(self):
        # the staircase and residue-sum kernels against the eta-c-xi double
        # sum, N = 1..4
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            a = tuple(sorted(rng.uniform(0.1, 2.0, size=n), reverse=True))
            p = ChgueParams(1.0, a)
            kd = build_kernel(ensemble_spec(p))
            for _ in range(3):
                x, y = rng.uniform(0.2, 6.0, size=2)
                ref = kernel_eval(kd, float(x), float(y))
                for val in (chgue_kernel(p, float(x), float(y)),
                            residue_kernel(p, float(x), float(y))):
                    assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_broadcasting(self):
        p = ChgueParams(0.5, (1.3, 0.7, 0.2))
        xs, ys = np.array([0.0, 0.5, 3.0]), np.array([0.2, 4.0])
        grid = chgue_kernel(p, xs[:, None], ys[None, :])
        assert grid.shape == (3, 2)
        for i, x in enumerate(xs):
            assert np.allclose(chgue_kernel(p, x, ys), grid[i], rtol=1e-14, atol=0)
            for j, y in enumerate(ys):
                assert isinstance(chgue_kernel(p, x, y), float)
                assert chgue_kernel(p, x, y) == pytest.approx(grid[i, j], rel=1e-14)

    def test_tail_against_mpmath(self):
        # far outside the bulk window, where the residue sum loses digits
        for alpha, a in ((1.0, (1.3, 0.7, 0.2)), (0.5, (2.0, 0.5 + 1e-3, 0.5))):
            p = ChgueParams(alpha, a)
            for x, y in [(25.0, 2.0), (20.0, 30.0), (12.0, 1.0), (10.0, 10.0)]:
                ref = mp_kernel(alpha, a, x, y)
                assert chgue_kernel(p, x, y) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("a", [(10.0,), (20.0,), (8.0, 7.5, 7.0)],
                             ids=["10", "20", "8,7.5,7"])
    def test_large_sources_against_mpmath(self, a, alpha):
        # large sources, where an alternating series in the sources cancels
        # like e^{2 max a} (an uncentred Krylov x Laguerre column lost 3e-1
        # at a = (20,), alpha = 2); type I pointwise, measured at most 1.9e-14,
        # and the kernel, measured at most 1.5e-13
        p = ChgueParams(alpha, a)
        y = np.array([0.1, 0.7, 4.0, 12.0, 30.0])
        ref = np.array([mp_type_one(alpha, a, v) for v in y])
        assert np.max(np.abs(chgue_type_one(p)(y) - ref) / np.abs(ref)) <= 1e-13
        for x, y in [(0.7, 4.0), (12.0, 3.0), (30.0, 12.0), (4.0, 4.0)]:
            ref = mp_kernel(alpha, a, x, y)
            assert chgue_kernel(p, x, y) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_coincident_sources(self):
        # coincident sources against the confluent generic kernel
        for alpha, b in ((0.0, 0.7), (0.5, 1.0)):
            kd = build_kernel(confluent_spec(ConfluentSpec((b,), Composition((2,))), alpha))
            p = ChgueParams(alpha, (b, b))
            for x, y in [(0.5, 1.7), (3.0, 0.9), (6.0, 4.0)]:
                ref = kernel_eval(kd, x, y)
                assert chgue_kernel(p, x, y) == pytest.approx(ref, rel=1e-9, abs=0)

    def test_residue_kernel_bulk_window(self):
        # the paper's integral form against the staircase sum, normwise over
        # a 13 x 13 grid on [0, 12]^2
        g = np.linspace(0.0, 12.0, 13)
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for alpha in (0.0, 1.0, 2.0):
                p = ChgueParams(alpha, tuple(rng.uniform(0.1, 2.0, size=n)))
                ref = chgue_kernel(p, g[:, None], g[None, :])
                res = np.array([[residue_kernel(p, x, y) for y in g] for x in g])
                assert np.max(np.abs(res - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_quadrature_doubling(self):
        # doubling the u-rule must not move the residue-sum reference
        p = ChgueParams(0.5, (1.3, 0.7, 0.2))
        base = 2 * p.n + 40
        for x, y in [(0.5, 2.0), (3.0, 1.2), (6.0, 0.4)]:
            v1 = residue_kernel(p, x, y, n_quad=base)
            v2 = residue_kernel(p, x, y, n_quad=2 * base)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_trace_equals_n(self):
        # trace integral through the generic path, over a 64-point rule
        p = ChgueParams(1.0, (1.5, 0.6))
        kd = build_kernel(ensemble_spec(p))
        rule = gauss_laguerre(64, 1.0)
        trace = float(
            np.dot(rule.dx_weights, [kernel_eval(kd, t, t) for t in rule.nodes])
        )
        assert trace == pytest.approx(p.n, rel=1e-9)

    def test_large_argument_cancellation_window(self):
        # at the edge of the bulk window the staircase kernel tracks the
        # generic path (the tail contract is test_tail_against_mpmath)
        p = ChgueParams(1.0, (1.5, 0.6))
        kd = build_kernel(ensemble_spec(p))
        v, ref = chgue_kernel(p, 10.0, 10.0), kernel_eval(kd, 10.0, 10.0)
        assert v == pytest.approx(ref, rel=1e-7)

    def test_clustered_source_matches_laguerre(self):
        # a -> 0 cluster: the kernel approaches the source-free kernel at
        # O(max a); checked against the Christoffel-Darboux closed form
        p = ChgueParams(1.0, (1e-5, 2e-5, 3e-5))
        for x, y in [(0.7, 2.3), (4.0, 1.1)]:
            ref = laguerre_cd_kernel(1.0, 3, x, y)
            assert chgue_kernel(p, x, y) == pytest.approx(ref, abs=2e-4, rel=1e-3)

    def test_domain(self):
        p = ChgueParams(0.0, (1.0, 0.5))
        for x, y in ((-1.0, 1.0), (1.0, math.nan), (np.array([1.0, -0.5]), 2.0)):
            with pytest.raises(DomainError):
                chgue_kernel(p, x, y)
        with pytest.raises(DomainError):
            chgue_type_one(p)(-0.5)


class TestKernelStaircaseSum:
    def test_sum_identity(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            a = tuple(sorted(rng.uniform(0.1, 2.0, size=n), reverse=True))
            p = ChgueParams(0.5, a)
            for _ in range(3):
                x, y = rng.uniform(0.2, 6.0, size=2)
                kernel, total = kernel_sum_check(p, float(x), float(y))
                assert kernel == pytest.approx(total, rel=1e-9)

    def test_any_source_order(self):
        # both sides read one Opitz column: increasing, coincident and
        # interleaved-zero sources agree as well as decreasing ones
        for a in ((0.2, 0.7, 1.3), (0.7, 0.7, 0.2), (1.1, 1.1, 1.1), (0.0, 0.9, 0.0)):
            p = ChgueParams(1.0, a)
            for x, y in ((0.5, 1.4), (2.0, 3.1), (4.0, 0.7)):
                kernel, total = kernel_sum_check(p, x, y)
                assert kernel == pytest.approx(total, rel=1e-12)


class TestLaguerreLimits:
    def test_type_two_limit(self):
        # a -> 0: P_N -> (-1)^N N! L_N^alpha
        n = 3
        x = np.array([0.5, 2.0, 5.0])
        for alpha in (0.0, 1.0):
            p = chgue_type_two(ChgueParams(alpha, (1e-5,) * n))
            ref = (-1.0) ** n * math.factorial(n) * laguerre(n, alpha, x)
            # relative deviation: the exact first-order term e_1 2! L_2(x)
            # already exceeds 1e-4 absolute at x = 5
            assert np.max(np.abs(p(x) - ref) / np.abs(ref)) < 1e-4

    def test_type_one_limit(self):
        # a -> 0: Q_N -> (-1)^{N-1}/(N+alpha-1)! x^alpha e^{-x} L_{N-1}^alpha
        n = 3
        x = np.array([0.5, 2.0, 5.0])
        for alpha in (0.0, 1.0):
            a = (1e-5, 2e-5, 3e-5)
            q = chgue_type_one(ChgueParams(alpha, a))
            pref = (-1.0) ** (n - 1) * math.exp(-log_gamma(n + alpha))
            ref = pref * x**alpha * np.exp(-x) * laguerre(n - 1, alpha, x)
            assert np.max(np.abs(q(x) - ref)) < 1e-4

    def test_linear_convergence_rate(self):
        # halving the source scale should halve the deviation (factor 1.5-2.5)
        n, alpha = 3, 1.0
        x = np.array([0.5, 2.0, 5.0])
        ref = (-1.0) ** n * math.factorial(n) * laguerre(n, alpha, x)

        def dev(scale):
            p = chgue_type_two(ChgueParams(alpha, (scale, 2 * scale, 3 * scale)))
            return np.max(np.abs(p(x) - ref))

        d1, d2 = dev(1e-5), dev(5e-6)
        assert 1.5 <= d1 / d2 <= 2.5


class TestConfluentWeights:
    def test_structure(self):
        spec = ConfluentSpec(b=(0.9, 0.0), m=Composition((3, 2)))
        ws, comp = confluent_weights(spec, 1.0)
        # b=0.9 splits into (w_alpha, w_{alpha+1}) with parts (2, 1);
        # b=0 keeps a single weight with part 2
        assert comp.parts == (2, 1, 2)
        assert ws.d == 3
        assert comp.weight == 5

    def test_validation(self):
        with pytest.raises(DomainError):
            ConfluentSpec(b=(0.5, 0.9), m=Composition((1, 1)))  # not decreasing
        with pytest.raises(DomainError):
            ConfluentSpec(b=(0.5,), m=Composition((1, 1)))  # length mismatch

    def test_confluent_type_two_is_source_limit(self):
        # the confluent moment system at b reproduces the coalesced closed
        # form (which is continuous in a)
        alpha = 0.5
        b = 0.8
        spec = ConfluentSpec(b=(b,), m=Composition((2,)))
        ws, comp = confluent_weights(spec, alpha)
        p_conf = type_two(ws, comp)
        p_closed = chgue_type_two(ChgueParams(alpha, (b, b)))
        x = np.linspace(0.1, 8.0, 9)
        assert np.allclose(p_conf(x), p_closed(x), rtol=1e-8, atol=1e-8)

    def test_confluent_kernel_matches_nearby_distinct(self):
        # kernel is continuous in the sources: the confluent-path kernel at
        # b (multiplicity 2) ~ distinct-path kernel at b +- delta
        alpha, b, delta = 0.0, 0.6, 5e-4
        spec = ConfluentSpec(b=(b,), m=Composition((2,)))
        kd = build_kernel(confluent_spec(spec, alpha))
        p = ChgueParams(alpha, (b + delta, b - delta))
        for x, y in [(0.5, 1.7), (3.0, 0.9)]:
            conf = kernel_eval(kd, x, y)
            dist = chgue_kernel(p, x, y)
            assert conf == pytest.approx(dist, rel=5e-4, abs=1e-8)


class TestLaguerreCdKernel:
    def test_against_op_system(self):
        from biortho import op_from_weight

        alpha, n = 1.0, 3
        sys = op_from_weight(
            lambda t: np.asarray(t, float) ** alpha * np.exp(-np.asarray(t, float)),
            gauss_laguerre(64, alpha),
            n,
        )
        for x, y in [(0.5, 2.0), (4.0, 1.5)]:
            cd = (y**alpha * math.exp(-y)) * sum(
                sys.eval(k, x) * sys.eval(k, y) / sys.norms[k] for k in range(n)
            )
            assert laguerre_cd_kernel(alpha, n, x, y) == pytest.approx(cd, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_cd_kernel(0.0, 3, 1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre_cd_kernel(0.0, 0, 1.0, 2.0)


class TestRankDecomposition:
    def test_identity(self):
        rng = np.random.default_rng(6)
        for r, a, conf in (
            (1, (0.9, 0.0, 0.0), ConfluentSpec((0.9, 0.0), Composition((1, 2)))),
            (2, (1.2, 0.5, 0.0, 0.0), ConfluentSpec((1.2, 0.5, 0.0), Composition((1, 1, 2)))),
        ):
            for alpha in (0.0, 1.0):
                p = ChgueParams(alpha, a)
                kd = build_kernel(confluent_spec(conf, alpha))
                for _ in range(3):
                    x, y = rng.uniform(0.3, 5.0, size=2)
                    full, unpert, corr = rank_decomposition(p, r, float(x), float(y))
                    assert full == pytest.approx(unpert + corr, rel=1e-14)
                    ref = kernel_eval(kd, float(x), float(y))
                    assert full == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_unperturbed_is_laguerre_kernel(self):
        # the first N - r staircase terms against the Christoffel-Darboux form
        rng = np.random.default_rng(7)
        for a in ((0.9, 0.0, 0.0), (1.2, 0.5, 0.0, 0.0), (2.0, 1.1, 0.4, 0.0, 0.0, 0.0)):
            r = sum(v > 0 for v in a)
            for alpha in (0.0, 1.0, 2.5):
                p = ChgueParams(alpha, a)
                for x, y in rng.uniform(0.1, 12.0, size=(4, 2)):
                    _, unpert, _ = rank_decomposition(p, r, float(x), float(y))
                    ref = laguerre_cd_kernel(alpha, len(a) - r, float(x), float(y))
                    assert unpert == pytest.approx(ref, rel=1e-11)

    def test_rank_zero(self):
        # r = 0 is the pure Laguerre kernel, no correction
        p = ChgueParams(1.0, (0.0, 0.0, 0.0))
        full, unpert, corr = rank_decomposition(p, 0, 0.8, 2.5)
        assert corr == 0.0
        assert full == pytest.approx(laguerre_cd_kernel(1.0, 3, 0.8, 2.5), rel=1e-14)

    def test_validation(self):
        p = ChgueParams(0.0, (0.9, 0.0, 0.0))
        with pytest.raises(DomainError):
            rank_decomposition(p, 3, 1.0, 2.0)
        with pytest.raises(DomainError):
            rank_decomposition(ChgueParams(0.0, (0.9, 0.5, 0.0)), 1, 1.0, 2.0)
