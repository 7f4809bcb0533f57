"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE <k>: PASS|FAIL`` line (visible under
``pytest -s`` / in captured output on failure) and enforces the pinned
tolerance and runtime budget.
"""
import math
import time

import numpy as np
import pytest

from biortho import (
    ChgueParams,
    Composition,
    EnsembleSpec,
    SourceModel,
    WeightSystem,
    biortho_sequence,
    build_kernel,
    cd_check,
    charpoly_estimate,
    check_ortho_one,
    check_ortho_two,
    chgue_kernel,
    chgue_type_one,
    chgue_type_two,
    correlation,
    correlation_by_marginal,
    ensemble_spec,
    gauss_laguerre,
    gauss_legendre,
    kernel_from_ratio,
    laguerre,
    op_from_weight,
    rho1_check,
    sample_spectra,
    type_one,
    type_two,
)
from biortho import checks
from biortho.charpoly import DEFAULT_EPS_SCHEDULE
from biortho.numerics import log_gamma


def report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_gram_closed_form():
    """Closed-form Gram equals the quadrature Gram entrywise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            a = np.sort(rng.uniform(0.05, 2.0, size=n))[::-1]
            while np.min(np.diff(np.sort(a))) < 1e-3:
                a = np.sort(rng.uniform(0.05, 2.0, size=n))[::-1]
            worst = max(worst, *checks.gram(ChgueParams(alpha, tuple(a))).values())
    dt = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-8 and dt < 5.0,
        f"max relative Gram deviation {worst:.3e} (tol 1e-8), {dt:.2f}s (budget 5s)",
    )


def test_criterion_2_ratio_identity_kernel():
    """Kernel recovered from <det(x-X)/det(z-X)> residues matches the
    algebraic kernel on a 3x3 grid."""
    t0 = time.perf_counter()
    worst = 0.0
    # chiral N = 2 and N = 3
    cases = [
        (SourceModel("chiral", 2, (0.3, 1.1), alpha=1), ChgueParams(1.0, (0.3, 1.1))),
        (
            SourceModel("chiral", 3, (0.25, 0.9, 1.6), alpha=1),
            ChgueParams(1.0, (0.25, 0.9, 1.6)),
        ),
    ]
    xs = (0.6, 1.8, 3.2)
    ys = (0.9, 2.2, 3.8)
    for model, params in cases:
        for x in xs:
            for y in ys:
                val = kernel_from_ratio(model, x, y, mode="quadrature")
                worst = max(worst, abs(val - chgue_kernel(params, x, y)))
    # Hermite-weight orthogonal-polynomial ensemble, N = 2 (zero source)
    model = SourceModel("hermitian", 2, (0.0, 0.0))
    sys = op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), 2)

    def cd(x, y):
        return math.exp(-y * y) * sum(
            sys.eval(k, x) * sys.eval(k, y) / sys.norms[k] for k in range(2)
        )

    for x in (-1.2, 0.4, 1.5):
        for y in (-0.8, 0.3, 1.1):
            val = kernel_from_ratio(model, x, y, mode="quadrature")
            worst = max(worst, abs(val - cd(x, y)))
    dt = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-3 and dt < 60.0,
        f"max absolute kernel deviation {worst:.3e} (tol 1e-3), {dt:.1f}s (budget 60s)",
    )


def test_criterion_3_charpoly_averages_mc():
    """MC <det(x-X)> matches the type II polynomial and the residue of
    MC <1/det(z-X)> matches the type I function, N = 2, 1e6 samples."""
    t0 = time.perf_counter()
    a = (0.3, 1.1)
    model = SourceModel("chiral", 2, a, alpha=1)
    params = ChgueParams(1.0, a)
    p_exact = chgue_type_two(params)
    q_exact = chgue_type_one(params)
    samples = 10**6
    points = (0.5, 1.0, 2.0, 3.5, 5.0)
    worst_p = 0.0  # in units of the allowed tolerance
    lam = sample_spectra(model, seed=301, count=samples, workers=2)
    for x in points:
        est = charpoly_estimate(lam, x, 301)
        tol = max(3.0 * est.std_error, 1e-3)
        worst_p = max(worst_p, abs(est.value - p_exact(x)) / tol)
    # Q: shared spectra, per-eps Sokhotski-Plemelj values, polynomial
    # extrapolation with a Lagrange-propagated error bar
    lam = sample_spectra(model, seed=302, count=samples, workers=2)
    eps = np.asarray(DEFAULT_EPS_SCHEDULE)
    lagrange = np.array(
        [
            np.prod(-np.delete(eps, i)) / np.prod(eps[i] - np.delete(eps, i))
            for i in range(eps.size)
        ]
    )
    worst_q = 0.0
    for x in points:
        vals, errs = [], []
        for e in eps:
            z = complex(x, -e)
            v = np.prod(1.0 / (z - lam), axis=1).imag / math.pi
            vals.append(float(v.mean()))
            errs.append(float(v.std() / math.sqrt(samples)))
        q_mc = float(np.dot(lagrange, vals))
        se = float(np.dot(np.abs(lagrange), errs))
        tol = max(3.0 * se, 1e-3)
        worst_q = max(worst_q, abs(q_mc - q_exact(x)) / tol)
    dt = time.perf_counter() - t0
    report(
        3,
        worst_p <= 1.0 and worst_q <= 1.0 and dt < 120.0,
        f"worst P deviation {worst_p:.2f} and Q deviation {worst_q:.2f} in units "
        f"of max(3se, 1e-3), {dt:.1f}s (budget 120s)",
    )


def test_criterion_4_kernel_staircase_sum():
    """K_N(x,y) = sum_k P_{k-1}(x) Q_k(y) along the ordered sources."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for n in (2, 3):
        a = tuple(sorted(rng.uniform(0.1, 2.0, size=n), reverse=True))
        x, y = rng.uniform(0.2, 6.0, size=(5, 2)).T
        worst = max(worst, *checks.staircase_sum(ChgueParams(0.5, a), x, y).values())
    dt = time.perf_counter() - t0
    report(
        4,
        worst <= 1e-6 and dt < 5.0,
        f"max relative staircase deviation {worst:.3e} (tol 1e-6), {dt:.2f}s (budget 5s)",
    )


def test_criterion_5_orthogonality_suites():
    """Type I / type II defining moments and staircase biorthogonality, for
    the chGUE closed forms (N <= 4) and a two-weight AT system."""
    t0 = time.perf_counter()
    # type I residual, normalization, type II residual, biorthogonality
    worst = np.zeros(4)
    # chGUE closed forms
    for n in (2, 3, 4):
        p = ChgueParams(1.0, tuple(1.8 - 0.4 * k for k in range(n)))
        worst = np.maximum(worst, list(checks.ortho(p).values()))
    # two-weight AT system
    ws = WeightSystem(
        weights=(
            lambda x: np.exp(-np.asarray(x, dtype=float)),
            lambda x: np.sqrt(np.asarray(x, dtype=float))
            * np.exp(-np.asarray(x, dtype=float)),
        ),
        quad=gauss_laguerre(64, 0.0),
    )
    comp = Composition((2, 2))
    mom = check_ortho_one(type_one(ws, comp))
    ps, qs = biortho_sequence(ws, comp)
    t = ws.quad.nodes
    pv, qv = (np.array([f(t) for f in fs]) for fs in (ps, qs))
    worst = np.maximum(worst, [
        np.max(np.abs(mom[:-1])),
        abs(mom[-1] - 1.0),
        np.max(np.abs(check_ortho_two(type_two(ws, comp), ws, comp))),
        checks.biorthogonality(pv, qv, ws.quad),
    ])
    worst_i, worst_norm, worst_ii, worst_bi = worst
    dt = time.perf_counter() - t0
    report(
        5,
        worst_i <= 1e-9
        and worst_norm <= 1e-9
        and worst_ii <= 1e-9
        and worst_bi <= 1e-8
        and dt < 10.0,
        f"type I residual {worst_i:.2e}, normalization {worst_norm:.2e}, "
        f"type II residual {worst_ii:.2e} (tol 1e-9), biorthogonality "
        f"{worst_bi:.2e} (tol 1e-8), {dt:.2f}s (budget 10s)",
    )


def test_criterion_6_laguerre_limits():
    """Small-source limits of the type I/II closed forms, with the expected
    linear decay under halving."""
    n = 3
    x = np.array([0.5, 2.0, 5.0])
    worst = 0.0
    ratios = []
    for alpha in (0.0, 1.0):
        ref_p = (-1.0) ** n * math.factorial(n) * laguerre(n, alpha, x)
        pref = (-1.0) ** (n - 1) * math.exp(-log_gamma(n + alpha))
        ref_q = pref * x**alpha * np.exp(-x) * laguerre(n - 1, alpha, x)

        def dev(scale):
            p = chgue_type_two(ChgueParams(alpha, (scale,) * n))
            q = chgue_type_one(
                ChgueParams(alpha, (scale, 2.0 * scale, 3.0 * scale))
            )
            dp = float(np.max(np.abs(p(x) - ref_p) / np.abs(ref_p)))
            dq = float(np.max(np.abs(q(x) - ref_q)))
            return dp, dq

        (dp1, dq1), (dp2, dq2) = dev(1e-5), dev(5e-6)
        worst = max(worst, dp1, dq1)
        ratios += [dp1 / dp2, dq1 / dq2]
    ok = worst <= 1e-4 and all(1.5 <= r <= 2.5 for r in ratios)
    report(
        6,
        ok,
        f"max deviation at a~1e-5 is {worst:.3e} (tol 1e-4), halving ratios "
        f"{[f'{r:.2f}' for r in ratios]} (window 1.5-2.5)",
    )


def test_criterion_7_christoffel_darboux():
    """Christoffel-Darboux identity for Laguerre (alpha = 0, 1) and
    Hermite-type weights up to N = 8."""
    rng = np.random.default_rng(107)
    worst = 0.0
    systems = []
    for alpha in (0.0, 1.0):
        systems.append(
            (
                op_from_weight(
                    lambda t, alpha=alpha: np.asarray(t, float) ** alpha
                    * np.exp(-np.asarray(t, float)),
                    gauss_laguerre(64, alpha),
                    8,
                ),
                (0.1, 12.0),
            )
        )
    systems.append(
        (op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), 8), (-3.0, 3.0))
    )
    for sys, (lo, hi) in systems:
        for _ in range(10):
            x, y = rng.uniform(lo, hi, size=2)
            while abs(x - y) < 1e-3:
                x, y = rng.uniform(lo, hi, size=2)
            for n in (3, 8):
                lhs, rhs = cd_check(sys, n, float(x), float(y))
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    report(7, worst <= 1e-9, f"max relative CD deviation {worst:.3e} (tol 1e-9)")


def test_criterion_8_rank_decomposition():
    """Finite-rank source: unperturbed kernel plus rank-one corrections
    against the independent generic kernel of the confluent spec."""
    worst = 0.0
    rng = np.random.default_rng(108)
    for r, a in ((1, (0.9, 0.0, 0.0)), (2, (1.2, 0.5, 0.0, 0.0))):
        x, y = rng.uniform(0.3, 5.0, size=(5, 2)).T
        worst = max(worst, *checks.rank_split(ChgueParams(1.0, a), r, x, y).values())
    report(8, worst <= 1e-6, f"max relative deviation {worst:.3e} (tol 1e-6)")


def test_criterion_9_correlation_definitions():
    """det[K(x_i,x_j)] equals the defining N!/(N-n)! marginal integral."""
    worst = 0.0
    # chGUE spec (N = 3) and classical Laguerre spec (N = 3)
    specs = [ensemble_spec(ChgueParams(0.5, (1.2, 0.6, 0.2)))]
    w = lambda x: np.exp(-np.asarray(x, dtype=float))
    eta = tuple((lambda x, i=i: np.asarray(x, dtype=float) ** i) for i in range(3))
    xi = tuple(
        (lambda x, i=i: np.asarray(x, dtype=float) ** i * w(x)) for i in range(3)
    )
    specs.append(
        EnsembleSpec(
            n=3, eta=eta, xi=xi, quad=gauss_laguerre(64, 0.0)
        )
    )
    for spec in specs:
        kd = build_kernel(spec)
        for points in ([1.4], [0.7, 2.6]):
            lhs = correlation(kd, points)
            rhs = correlation_by_marginal(spec, points)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    report(9, worst <= 1e-6, f"max relative deviation {worst:.3e} (tol 1e-6)")


def test_criterion_10_mc_density_and_reproducibility():
    """Empirical one-point density vs the kernel diagonal, and bitwise
    worker-count invariance."""
    model = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
    rep = rho1_check(model, bins=40, samples=10**5, seed=310)
    base = sample_spectra(model, seed=310, count=10**5, workers=1)
    bitwise = all(
        np.array_equal(base, sample_spectra(model, seed=310, count=10**5, workers=k))
        for k in (2, 4)
    )
    report(
        10,
        rep.fraction_within >= 0.95 and bitwise,
        f"{rep.fraction_within * 100:.1f}% of 40 bins within 3 sigma "
        f"(need 95%), worker bitwise invariance {'holds' if bitwise else 'fails'}",
    )
