"""Generic biorthogonal ensemble machinery and the orthogonal-polynomial
specialization."""
import math

import numpy as np
import pytest

from biortho import (
    DomainError,
    EnsembleSpec,
    HalfLine,
    Segment,
    SingularMatrixError,
    build_kernel,
    cd_check,
    correlation,
    correlation_by_marginal,
    default_rule,
    gauss_laguerre,
    kernel_eval,
    op_from_weight,
    pdf_eval,
)
from biortho.errors import CapacityError, NumericError


def laguerre_spec(n: int, alpha: float = 0.0) -> EnsembleSpec:
    """Classical Laguerre OP ensemble: eta_i = x^{i-1}, xi_i = x^{i-1} w."""
    w = lambda x: np.asarray(x, dtype=float) ** alpha * np.exp(-np.asarray(x, dtype=float))
    eta = tuple((lambda x, i=i: np.asarray(x, dtype=float) ** i) for i in range(n))
    xi = tuple((lambda x, i=i: np.asarray(x, dtype=float) ** i * w(x)) for i in range(n))
    return EnsembleSpec(
        n=n, interval=HalfLine(), eta=eta, xi=xi, quad=gauss_laguerre(64, alpha)
    )


class TestIntervals:
    def test_segment_validation(self):
        with pytest.raises(DomainError):
            Segment(1.0, 1.0)

    def test_default_rules(self):
        r = default_rule(HalfLine(), alpha=1.0)
        assert r.kind == "gauss-laguerre" and r.params == (1.0,)
        r = default_rule(Segment(-1.0, 2.0))
        assert r.kind == "gauss-legendre" and r.params == (-1.0, 2.0)


class TestEnsembleSpec:
    def test_gram_is_moment_matrix(self):
        # for the Laguerre spec, g_{i,j} = Gamma(i + j + alpha + 1)
        spec = laguerre_spec(3, alpha=0.5)
        g = spec.gram
        for i in range(3):
            for j in range(3):
                assert g[i, j] == pytest.approx(
                    math.gamma(i + j + 0.5 + 1), rel=1e-12
                )

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError):
            EnsembleSpec(
                n=2,
                interval=HalfLine(),
                eta=(lambda x: x,),
                xi=(lambda x: x, lambda x: x),
                quad=gauss_laguerre(16, 0.0),
            )

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setenv("BIORTHO_MAX_N", "3")
        with pytest.raises(CapacityError):
            laguerre_spec(4)


class TestBuildKernel:
    def test_biorthogonality_residual(self):
        kd = build_kernel(laguerre_spec(4))
        resid = kd.gram @ kd.coeffs.T - np.eye(4)
        assert np.max(np.abs(resid)) < 1e-10

    def test_z_value(self):
        # Laguerre alpha=0, N=2: det g = det[[1,1],[1,2]] = 1, Z = 2! * 1
        kd = build_kernel(laguerre_spec(2))
        assert kd.z_value == pytest.approx(2.0, rel=1e-12)

    def test_singular_gram(self):
        # duplicated xi makes the Gram matrix rank deficient
        w = lambda x: np.exp(-np.asarray(x, dtype=float))
        spec = EnsembleSpec(
            n=2,
            interval=HalfLine(),
            eta=(lambda x: np.ones_like(np.asarray(x, float)), lambda x: np.asarray(x, float)),
            xi=(w, w),
            quad=gauss_laguerre(32, 0.0),
        )
        with pytest.raises(SingularMatrixError):
            build_kernel(spec)


def kernel_double_sum(kd, x: float, y: float) -> float:
    """Per-point reference: the double sum over eta_i(x) c_ij xi_j(y)."""
    ev = [float(f(np.array([x]))[0]) for f in kd.spec.eta]
    zv = [float(f(np.array([y]))[0]) for f in kd.spec.xi]
    return math.fsum(
        ev[i] * kd.coeffs[i, j] * zv[j] for i in range(kd.spec.n) for j in range(kd.spec.n)
    )


class TestKernel:
    def test_broadcasting(self):
        kd = build_kernel(laguerre_spec(3, alpha=0.5))
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0.1, 8.0, size=(2, 6))
        value = kernel_eval(kd, 0.7, 2.4)
        assert isinstance(value, float)
        assert value == pytest.approx(kernel_double_sum(kd, 0.7, 2.4), rel=1e-13, abs=0)
        pairs = kernel_eval(kd, x, y)
        assert pairs.shape == (6,)
        ref = [kernel_double_sum(kd, u, v) for u, v in zip(x, y)]
        np.testing.assert_allclose(pairs, ref, rtol=1e-13, atol=0)
        table = kernel_eval(kd, x[:, None], y[None, :4])
        assert table.shape == (6, 4)
        ref = [[kernel_double_sum(kd, u, v) for v in y[:4]] for u in x]
        np.testing.assert_allclose(table, ref, rtol=1e-13, atol=0)

    def test_reproducing_property(self):
        # int K(x,t) K(t,y) dt = K(x,y)
        kd = build_kernel(laguerre_spec(3))
        rule = kd.spec.quad
        x, y = 0.7, 2.4
        kt = np.array([kernel_eval(kd, x, t) for t in rule.nodes])
        ky = np.array([kernel_eval(kd, t, y) for t in rule.nodes])
        integral = float(np.dot(rule.dx_weights, kt * ky))
        assert integral == pytest.approx(kernel_eval(kd, x, y), rel=1e-10)

    def test_trace_equals_n(self):
        for n in (1, 2, 4):
            kd = build_kernel(laguerre_spec(n))
            rule = kd.spec.quad
            trace = float(
                np.dot(rule.dx_weights, [kernel_eval(kd, t, t) for t in rule.nodes])
            )
            assert trace == pytest.approx(n, rel=1e-10)

    def test_cd_collapse(self):
        # the OP-ensemble kernel must equal the Christoffel-Darboux sum
        n, alpha = 3, 1.0
        kd = build_kernel(laguerre_spec(n, alpha))
        w = lambda t: t**alpha * math.exp(-t)
        sys = op_from_weight(
            lambda t: np.asarray(t, float) ** alpha * np.exp(-np.asarray(t, float)),
            HalfLine(),
            n,
            quad=gauss_laguerre(64, alpha),
        )
        points = [(0.5, 1.5), (2.0, 4.5)]
        for x, y in points:
            cd = w(y) * sum(
                sys.eval(k, x) * sys.eval(k, y) / sys.norms[k] for k in range(n)
            )
            assert kernel_eval(kd, x, y) == pytest.approx(cd, rel=1e-10)
            # the system's own sum, a float for scalars, the same in a table
            assert sys.kernel(x, y) == pytest.approx(cd, rel=1e-14, abs=0)
        xs, ys = np.array(points).T
        assert np.array_equal(sys.kernel(xs[:, None], ys[None, :]).diagonal(),
                              [sys.kernel(x, y) for x, y in points])


class TestPdfAndCorrelation:
    def test_pdf_normalization(self):
        # the joint density must integrate to 1 over the square (N = 2)
        from biortho.ensembles import _dx_rule
        from biortho.numerics import integrate_nd

        spec = laguerre_spec(2)
        rule = _dx_rule(spec.quad)
        total = integrate_nd(lambda x, y: pdf_eval(spec, [x, y]), [rule, rule])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_pdf_symmetric(self):
        spec = laguerre_spec(2)
        assert pdf_eval(spec, [0.5, 2.0]) == pytest.approx(
            pdf_eval(spec, [2.0, 0.5]), rel=1e-12
        )

    def test_pdf_batch_matches_points(self):
        spec = laguerre_spec(3, alpha=0.5)
        pts = np.random.default_rng(3).uniform(0.1, 6.0, size=(7, 3))
        pts[2, 1] = pts[2, 0]  # coincident coordinates: zero density
        batch = pdf_eval(spec, pts)
        assert batch.shape == (7,)
        single = [pdf_eval(spec, p) for p in pts]
        assert all(isinstance(v, float) for v in single)
        assert batch[2] == 0.0 and single[2] == 0.0
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)
        grid = pdf_eval(spec, pts.reshape(7, 1, 3))
        assert grid.shape == (7, 1)

    def test_marginal_grid_cap(self):
        with pytest.raises(CapacityError):
            correlation_by_marginal(laguerre_spec(6), [1.0])

    def test_correlation_determinant_vs_marginal(self):
        # det[K(x_i,x_j)] against the defining marginal integral
        spec = laguerre_spec(3)
        kd = build_kernel(spec)
        for points in ([1.2], [0.6, 2.8]):
            lhs = correlation(kd, points)
            rhs = correlation_by_marginal(spec, points)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_correlation_matches_scalar_loop(self):
        kd = build_kernel(laguerre_spec(4, alpha=1.0))
        for points in ([1.2], [0.6, 2.8], [0.3, 1.7, 4.1, 6.5]):
            n = len(points)
            m = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    m[i, j] = kernel_eval(kd, points[i], points[j])
            ref = float(np.linalg.det(m))
            value = correlation(kd, points)
            assert isinstance(value, float)
            assert value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_order_cap(self):
        kd = build_kernel(laguerre_spec(2))
        with pytest.raises(DomainError):
            correlation(kd, [1.0, 2.0, 3.0])

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            pdf_eval(laguerre_spec(2), [1.0])


class TestOrthoPolySystem:
    def test_laguerre_recurrence(self):
        # monic Laguerre: a_k = 2k + alpha + 1, b_k = k (k + alpha)
        alpha = 0.5
        sys = op_from_weight(
            lambda t: np.asarray(t, float) ** alpha * np.exp(-np.asarray(t, float)),
            HalfLine(),
            6,
            quad=gauss_laguerre(64, alpha),
        )
        k = np.arange(6, dtype=float)
        assert np.allclose(sys.rec_a, 2 * k + alpha + 1, rtol=1e-10)
        assert np.allclose(sys.rec_b[1:], k[1:] * (k[1:] + alpha), rtol=1e-10)
        assert sys.rec_b[0] == pytest.approx(math.gamma(alpha + 1), rel=1e-12)

    def test_hermite_type_recurrence(self):
        # monic polynomials of e^{-x^2}: a_k = 0, b_k = k/2, h_0 = sqrt(pi)
        sys = op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), 6)
        assert np.max(np.abs(sys.rec_a)) < 1e-12
        k = np.arange(1, 6, dtype=float)
        assert np.allclose(sys.rec_b[1:], k / 2.0, rtol=1e-11)
        assert sys.norms[0] == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_norm_product_form(self):
        sys = op_from_weight(
            lambda t: np.exp(-np.asarray(t, float)), HalfLine(), 5,
            quad=gauss_laguerre(64, 0.0),
        )
        # h_k = b_0 b_1 ... b_k; for Laguerre alpha=0 this is (k!)^2
        for k in range(5):
            assert sys.norms[k] == pytest.approx(math.factorial(k) ** 2, rel=1e-10)

    def test_orthogonality_by_quadrature(self):
        sys = op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), 5)
        t = sys.quad.nodes
        wm = sys.quad.dx_weights * np.exp(-t * t)
        for i in range(5):
            for j in range(i):
                val = float(np.dot(wm, sys.eval(i, t) * sys.eval(j, t)))
                assert abs(val) < 1e-10

    def test_degree_cap(self):
        sys = op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), 3)
        with pytest.raises(DomainError):
            sys.eval(5, 0.0)
        with pytest.raises(DomainError):
            sys.values(4, 0.0)
        x = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        p = sys.values(3, x)
        assert p.shape == (4, 2, 3)
        assert all(np.array_equal(p[k], sys.eval(k, x)) for k in range(4))

    def test_nonpositive_norm_raises(self):
        # an odd (sign-changing) weight has zeroth moment 0: h_0 <= 0
        with pytest.raises(NumericError):
            op_from_weight(lambda t: np.asarray(t, float), Segment(-1.0, 1.0), 2)


class TestChristoffelDarboux:
    def test_laguerre_and_hermite(self):
        rng = np.random.default_rng(1)
        systems = [
            op_from_weight(
                lambda t: np.exp(-np.asarray(t, float)),
                HalfLine(), 8, quad=gauss_laguerre(64, 0.0),
            ),
            op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), 8),
        ]
        for sys in systems:
            for _ in range(5):
                x, y = rng.uniform(0.1, 5.0, size=2)
                if abs(x - y) < 1e-3:
                    continue
                lhs, rhs = cd_check(sys, 6, float(x), float(y))
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_coincident_rejected(self):
        sys = op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), 4)
        with pytest.raises(DomainError):
            cd_check(sys, 3, 1.0, 1.0)
