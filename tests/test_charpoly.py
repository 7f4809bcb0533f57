"""Monte Carlo sampling and the characteristic-polynomial-average oracles."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import exp1

from biortho import (
    ChgueParams,
    DomainError,
    NumericWarning,
    RatioOracle,
    SourceModel,
    UnsupportedModelError,
    avg_charpoly,
    avg_inv_charpoly,
    build_kernel,
    chgue_kernel,
    chgue_type_one,
    chgue_type_two,
    ensemble_spec,
    gauss_laguerre,
    gauss_legendre,
    kernel_eval,
    kernel_from_ratio,
    op_from_weight,
    residue_extract,
    rho1_check,
    rho1_report,
    sample_matrix,
    sample_spectra,
)
from biortho import charpoly
from biortho.charpoly import _CHUNK, _GATHER_COUNT, _eigvalsh, _normals, _triangle
from biortho.errors import CapacityError
from biortho.numerics import max_gram_size


def stieltjes_of_exp(z):
    """Exact Stieltjes transform of e^{-t} on the half line,
    int_0^inf e^{-t} / (z - t) dt = -e^{-z} E_1(-z) (checked against mpmath
    quadrature to 3e-16 relative)."""
    return -np.exp(-z) * exp1(-z)


class TestSourceModel:
    def test_stride(self):
        assert SourceModel("hermitian", 3, (0.0,) * 3).stride == 9
        assert SourceModel("chiral", 2, (0.1, 0.2), alpha=1).stride == 12

    def test_validation(self):
        with pytest.raises(UnsupportedModelError):
            SourceModel("wishart", 2, (0.0, 0.0))
        with pytest.raises(DomainError):
            SourceModel("hermitian", 2, (0.0,))
        with pytest.raises(DomainError):
            SourceModel("chiral", 2, (-0.1, 0.2))
        with pytest.raises(DomainError):
            SourceModel("chiral", 2, (0.1, 0.2), alpha=0.5)

    @pytest.mark.parametrize("kind", ["hermitian", "chiral"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, kind, bad):
        with pytest.raises(DomainError):
            SourceModel(kind, 2, (0.4, bad))
        with pytest.raises(DomainError):
            SourceModel("chiral", 2, (0.4, 0.5), alpha=bad)


def _models(n):
    """One model of each kind at size n <= 6 (every closed-form branch of
    the eigensolve at n = 1..3, LAPACK above)."""
    a = (0.3, 1.1, 0.6, 2.0, 0.0, 1.4)[:n]
    return SourceModel("hermitian", n, a), SourceModel("chiral", n, a, alpha=1)


def _matrices(m, seed, start, count):
    """(count, n, n) full matrices of the model, formed here from the
    sampler's normals: ``A/2 + H`` with H's diagonal, then the real and
    imaginary parts of its strict upper triangle in row-major order, or
    ``X^dag X`` by the ``einsum`` with which earlier versions sampled n >= 4."""
    z = _normals(seed, start, count, m.stride)
    n = m.n
    if m.kind == "hermitian":
        noff = n * (n - 1) // 2
        iu, ju = np.triu_indices(n, k=1)
        h = np.zeros((count, n, n), dtype=complex)
        h[:, np.arange(n), np.arange(n)] = (z[:n] * math.sqrt(0.5) + np.asarray(m.a)[:, None] / 2).T
        re, im = z[n : n + noff] * 0.5, z[n + noff :] * 0.5
        h[:, iu, ju] = (re + 1j * im).T
        h[:, ju, iu] = (re - 1j * im).T
        return h
    g = z.reshape(2, n + m.alpha, n, count) * math.sqrt(0.5)
    g[0, np.arange(n), np.arange(n)] += np.sqrt(np.asarray(m.a))[:, None]
    x = np.moveaxis(g[0] + 1j * g[1], -1, 0)
    return np.einsum("sji,sjk->sik", x.conj(), x)


class TestSampling:
    def test_index_placement(self):
        # sample i from the stream equals row i of a bulk draw
        for n in (1, 2, 3, 4):
            for m in _models(n):
                bulk = sample_spectra(m, seed=9, count=10)
                for i in (0, 3, 9):
                    assert np.array_equal(sample_matrix(m, seed=9, index=i), bulk[i])
        # and where the bulk draw spans two chunks: the last sample of the
        # first, the first of the second, and one mid-chunk
        for n in (2, 3, 4, 6):
            for m in _models(n):
                bulk = sample_spectra(m, seed=9, count=_CHUNK + 4)
                for i in (_CHUNK - 1, _CHUNK, 40_000):
                    assert np.array_equal(sample_matrix(m, seed=9, index=i), bulk[i])

    def test_triangle_matches_assembled_matrices(self):
        # the sampler never forms the matrices; its lower triangle is that
        # of the full ones, bitwise for the Hermitian model (the same
        # elementwise operations) and to rounding for the chiral X^dag X
        for n in (1, 2, 3, 4, 6):
            il, jl = np.tril_indices(n)
            for m in _models(n):
                re, im = _triangle(m, seed=13, start=7, count=5000)
                low = _matrices(m, seed=13, start=7, count=5000)[:, il, jl].T
                if m.kind == "hermitian":
                    assert re.tobytes() == np.ascontiguousarray(low.real).tobytes()
                    assert im.tobytes() == np.ascontiguousarray(low.imag).tobytes()
                else:
                    scale = np.max(np.abs(low), axis=0)
                    assert np.max(np.abs(re + 1j * im - low) / scale) <= 1e-14

    def test_gather_and_entry_loop_bitwise(self):
        # a chunk of _GATHER_COUNT draws gathers each row's entries at once,
        # one draw more goes entry by entry: the shared draws match bitwise
        for n in (1, 2, 3, 4, 6):
            for alpha in (0, 1, 3):
                m = SourceModel("chiral", n, (0.3, 1.1, 0.6, 2.0, 0.0, 1.4)[:n], alpha=alpha)
                gathered = _triangle(m, seed=17, start=3, count=_GATHER_COUNT)
                looped = _triangle(m, seed=17, start=3, count=_GATHER_COUNT + 1)
                for g, lp in zip(gathered, looped):
                    assert g.tobytes() == np.ascontiguousarray(lp[:, :-1]).tobytes()

    def test_lapack_bitwise(self):
        # n >= 4 hands LAPACK the lower triangle alone; it reads nothing else,
        # so the spectra are those of the full matrices, bit for bit: for the
        # chiral model, those of the einsum X^dag X earlier versions formed
        for n in (4, 6):
            herm, chiral = _models(n)
            for m in (herm, chiral, replace(chiral, alpha=0), replace(chiral, alpha=3)):
                for start, count in ((11, 3000), (5, 1)):
                    got = sample_spectra(m, seed=21, count=count, start=start)
                    want = np.linalg.eigvalsh(_matrices(m, seed=21, start=start, count=count))
                    assert got.tobytes() == want.tobytes()

    def test_worker_count_bitwise_invariance(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        count = 200000  # spans several fixed 64k chunks
        base = sample_spectra(m, seed=5, count=count, workers=1)
        for workers in (2, 4):
            other = sample_spectra(m, seed=5, count=count, workers=workers)
            assert np.array_equal(base, other)

    def test_start_offset(self):
        for n in (1, 2, 3, 4):
            for m in _models(n):
                bulk = sample_spectra(m, seed=1, count=8)
                tail = sample_spectra(m, seed=1, count=3, start=5)
                assert np.array_equal(bulk[5:], tail)

    def test_closed_form_matches_lapack(self):
        # N <= 3 spectra come from closed forms on the lower triangle; LAPACK
        # on the matrices unpacked from the same triangle is the reference,
        # 1e-12 normwise per draw
        def normwise(got, want):
            scale = np.maximum(np.max(np.abs(want), axis=-1), np.finfo(float).tiny)
            return np.max(np.abs(got - want), axis=-1) / scale

        def unpack(re, im):
            n = math.isqrt(8 * len(re) + 1) // 2
            il, jl = np.tril_indices(n)
            h = np.zeros((re.shape[1], n, n), dtype=complex)
            h[:, jl, il] = (re - 1j * im).T
            h[:, il, jl] = (re + 1j * im).T
            return h

        def pack(h):
            il, jl = np.tril_indices(h.shape[-1])
            low = h[:, il, jl].T
            return np.ascontiguousarray(low.real), np.ascontiguousarray(low.imag)

        for n in (1, 2, 3):
            zero, repeated = (0.0,) * n, (0.3, 1.1, 1.1)[:n]
            for m in (
                SourceModel("hermitian", n, zero),
                SourceModel("hermitian", n, repeated),
                SourceModel("chiral", n, zero, alpha=0),
                SourceModel("chiral", n, repeated, alpha=2),
            ):
                re, im = _triangle(m, seed=40 + n, start=0, count=100_000)
                got = _eigvalsh(re, im)
                assert np.all(np.diff(got, axis=1) >= 0)
                assert np.max(normwise(got, np.linalg.eigvalsh(unpack(re, im)))) <= 1e-12
                # squares and cubes of such entries leave the double range
                for s in (1e-300, 1e300):
                    rs, ims = re[:, :1000] * s, im[:, :1000] * s
                    want = np.linalg.eigvalsh(unpack(rs, ims))
                    assert np.max(normwise(_eigvalsh(rs, ims), want)) <= 1e-12
            # exact multiples of the identity, the zero matrix among them
            for c in (0.0, 1.0, -2.5, 0.1, 1e-200, 3e100):
                got = _eigvalsh(*pack(np.eye(n, dtype=complex)[None] * c))
                assert np.all(np.isfinite(got)) and np.all(np.diff(got, axis=1) >= 0)
                assert np.max(np.abs(got - c)) <= 1e-14 * abs(c)
        # at an exactly repeated eigenvalue the trigonometric n = 3 formula
        # is only sqrt(eps)-accurate
        rng = np.random.default_rng(44)
        z = rng.standard_normal((2000, 3, 3)) + 1j * rng.standard_normal((2000, 3, 3))
        u, _ = np.linalg.qr(z)
        for spectrum in ((1.0, 1.0, 2.0), (0.5, 3.0, 3.0)):
            h = (u * np.asarray(spectrum)) @ u.conj().transpose(0, 2, 1)
            h = 0.5 * (h + h.conj().transpose(0, 2, 1))
            got = _eigvalsh(*pack(h))
            assert np.all(np.diff(got, axis=1) >= 0)
            assert np.max(normwise(got, np.asarray(spectrum))) <= 5e-8

    def test_spectra_sorted(self):
        m = SourceModel("hermitian", 3, (0.0, 0.0, 0.0))
        lam = sample_spectra(m, seed=2, count=100)
        assert np.all(np.diff(lam, axis=1) >= 0)

    def test_chiral_spectra_nonnegative(self):
        m = SourceModel("chiral", 2, (0.5, 1.5), alpha=1)
        lam = sample_spectra(m, seed=3, count=100)
        assert np.all(lam >= 0)

    def test_hermitian_marginal_moments(self):
        # N = 1, A = 0: the eigenvalue is N(0, 1/2)
        m = SourceModel("hermitian", 1, (0.0,))
        lam = sample_spectra(m, seed=11, count=200000).ravel()
        assert abs(lam.mean()) < 5.0 / math.sqrt(len(lam))
        assert lam.var() == pytest.approx(0.5, rel=0.02)

    def test_chiral_marginal_moments(self):
        # N = 1, alpha = 0, a = 0: |g|^2 with g standard complex normal
        # (variance 1/2 per component) is Exp(1)
        m = SourceModel("chiral", 1, (0.0,), alpha=0)
        lam = sample_spectra(m, seed=12, count=200000).ravel()
        assert lam.mean() == pytest.approx(1.0, rel=0.02)
        assert lam.var() == pytest.approx(1.0, rel=0.05)


class TestCharpolyAverages:
    def test_avg_charpoly_matches_type_two(self):
        # <det(x - X)> is the monic type II polynomial
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        p = chgue_type_two(ChgueParams(1.0, (0.3, 1.1)))
        for x in (0.5, 2.0, 6.0):
            est = avg_charpoly(m, x, samples=200000, seed=21)
            assert abs(est.value - p(x)) < 4.0 * est.std_error

    def test_gue_determinant_average(self):
        # <det(-X)> over the A = 0 Hermitian model is the monic "Hermite"
        # polynomial of e^{-x^2} at 0: p_2(0) = -1/2
        m = SourceModel("hermitian", 2, (0.0, 0.0))
        sys = op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), 2)
        est = avg_charpoly(m, 0.0, samples=200000, seed=22)
        assert abs(est.value - sys.eval(2, 0.0)) < 4.0 * est.std_error

    def test_avg_inv_needs_complex(self):
        m = SourceModel("chiral", 1, (0.0,), alpha=0)
        with pytest.raises(DomainError):
            avg_inv_charpoly(m, 1.0 + 0.0j, samples=10, seed=0)

    def test_avg_inv_value(self):
        # N = 1 chiral, a = 0, alpha = 0: <1/(z - lambda)> with lambda~Exp(1)
        m = SourceModel("chiral", 1, (0.0,), alpha=0)
        z = 1.0 + 1.0j
        exact = stieltjes_of_exp(z)
        est = avg_inv_charpoly(m, z, samples=400000, seed=23)
        assert abs(est.value - exact) < 5.0 * est.std_error

    def test_estimate_reproducible(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        a = avg_charpoly(m, 1.0, samples=70000, seed=31)
        b = avg_charpoly(m, 1.0, samples=70000, seed=31, workers=3)
        assert a.value == b.value and a.std_error == b.std_error


class TestResidueExtract:
    def test_recovers_density(self):
        val = residue_extract(stieltjes_of_exp, 1.0)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_single_eps(self):
        val = residue_extract(stieltjes_of_exp, 1.0, eps_schedule=(1e-3,))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_non_monotone_warns(self):
        # successive differences grow across the schedule -> warning
        table = {1e-2: 0.0, 5e-3: 0.1, 2.5e-3: 0.5}

        def noisy(z):
            return complex(0.0, -math.pi * table[-z.imag])

        with pytest.warns(NumericWarning):
            residue_extract(noisy, 0.0, eps_schedule=(1e-2, 5e-3, 2.5e-3))

    def test_rounding_agreement_does_not_warn(self):
        # differences that grow by a few ulps are rounding, not divergence
        ulp = math.ulp(0.3)
        table = {1e-2: 0.3, 5e-3: 0.3 + ulp, 2.5e-3: 0.3 + 4 * ulp}

        def flat(z):
            return complex(0.0, math.pi * table[-z.imag])

        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericWarning)
            val = residue_extract(flat, 0.0, eps_schedule=(1e-2, 5e-3, 2.5e-3))
        assert val == pytest.approx(0.3, rel=1e-14)

    def test_bad_schedule(self):
        with pytest.raises(DomainError):
            residue_extract(stieltjes_of_exp, 1.0, eps_schedule=(0.0, 1e-3))


class TestRatioOracle:
    def test_average_of_ones_is_one(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        oracle = RatioOracle(m, y=1.5)
        assert oracle.average(lambda t: np.ones_like(t)) == pytest.approx(1.0, rel=1e-12)

    def test_charpoly_average_matches_type_two(self):
        # <prod(x - lambda_i)> through the Andreief determinant ratio
        for a in ((0.3, 1.1), (0.25, 0.9, 1.6), (0.1, 0.4, 0.8, 1.2, 1.6, 2.1)):
            m = SourceModel("chiral", len(a), a, alpha=1)
            p = chgue_type_two(ChgueParams(1.0, a))
            oracle = RatioOracle(m, y=1.5)
            for x in (0.5, 2.0, 4.0):
                assert oracle.average(lambda t, x=x: x - t) == pytest.approx(
                    p(x), rel=1e-8
                )

    def test_hermitian_coincident_basis(self):
        m = SourceModel("hermitian", 2, (0.4, 0.4))
        oracle = RatioOracle(m, y=0.5)
        assert oracle.average(lambda t: np.ones_like(t)) == pytest.approx(1.0, rel=1e-10)

    def test_hermitian_mixed_sources_match_mc(self):
        # a repeated and a distinct source: the Newton basis spans both
        m = SourceModel("hermitian", 3, (0.4, 0.4, 1.0))
        oracle = RatioOracle(m, y=0.5)
        for x in (-0.5, 0.3, 1.2):
            est = avg_charpoly(m, x, samples=200000, seed=24)
            assert abs(oracle.average(lambda t, x=x: x - t) - est.value) < 5.0 * est.std_error

    def test_capacity(self):
        n = max_gram_size() + 1
        m = SourceModel("chiral", n, tuple(0.1 * (i + 1) for i in range(n)), alpha=0)
        with pytest.raises(CapacityError):
            RatioOracle(m, y=1.0)
        with pytest.raises(CapacityError):
            kernel_from_ratio(m, 0.5, 1.0)

    def test_chiral_coincident_sources_match_chgue(self):
        for a in ((0.5, 0.5), (1.2, 0.4, 1.2, 1.2)):
            m = SourceModel("chiral", len(a), a, alpha=0)
            p = ChgueParams(0.0, a)
            for x, y in [(0.6, 1.8), (3.2, 0.9)]:
                val = RatioOracle(m, y).kernel(x)
                assert val == pytest.approx(chgue_kernel(p, x, y), abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_generic_gram_kernel(self, n):
        # independent of the staircase closed forms: Laguerre eta and
        # w_alpha xi through the generic Gram solve
        rng = np.random.default_rng(50 + n)
        for alpha in (0, 2):
            a = tuple(rng.uniform(0.1, 2.0, n))
            m = SourceModel("chiral", n, a, alpha=alpha)
            kd = build_kernel(ensemble_spec(ChgueParams(float(alpha), a)))
            for x, y in rng.uniform(0.2, 6.0, size=(3, 2)):
                val = kernel_from_ratio(m, x, y, mode="quadrature")
                assert val == pytest.approx(kernel_eval(kd, x, y), abs=1e-9)

    def test_pole_outside_window(self):
        m = SourceModel("chiral", 1, (0.0,), alpha=0)
        with pytest.raises(DomainError):
            RatioOracle(m, y=-1.0)


class TestKernelFromRatio:
    def test_quadrature_mode_chiral(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        p = ChgueParams(1.0, (0.3, 1.1))
        for x, y in [(0.6, 1.9), (2.5, 0.8)]:
            val = kernel_from_ratio(m, x, y, mode="quadrature")
            assert val == pytest.approx(chgue_kernel(p, x, y), abs=5e-7)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_quadrature_mode_chiral_large_n(self, n):
        # ratio identity at N = 4..12, at criterion 2's 1e-3 absolute and at
        # the oracle's own 1e-8
        a = tuple(np.round(np.linspace(0.05, 2.2, n), 3))
        for alpha in (0, 2):
            m = SourceModel("chiral", n, a, alpha=alpha)
            p = ChgueParams(float(alpha), a)
            for x, y in [(0.6, 1.8), (3.2, 0.9), (5.0, 2.5)]:
                val = kernel_from_ratio(m, x, y, mode="quadrature")
                assert val == pytest.approx(chgue_kernel(p, x, y), abs=1e-3)
                # the exact z -> y - i0 limit: 1.2e-12 measured at N = 12
                assert val == pytest.approx(chgue_kernel(p, x, y), abs=1e-8)

    def test_quadrature_mode_hermitian(self):
        m = SourceModel("hermitian", 2, (0.0, 0.0))
        sys = op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), 2)

        def cd(x, y):
            return math.exp(-y * y) * sum(
                sys.eval(k, x) * sys.eval(k, y) / sys.norms[k] for k in range(2)
            )

        val = kernel_from_ratio(m, 0.4, -0.7, mode="quadrature")
        assert val == pytest.approx(cd(0.4, -0.7), abs=5e-7)

    @pytest.mark.filterwarnings("ignore::biortho.errors.NumericWarning")
    def test_montecarlo_mode(self):
        # MC noise can make the eps-schedule non-monotone; that warning is
        # expected here and the tolerance absorbs it
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        p = ChgueParams(1.0, (0.3, 1.1))
        val = kernel_from_ratio(
            m, 0.6, 1.9, mode="montecarlo", samples=400000, seed=41
        )
        assert val == pytest.approx(chgue_kernel(p, 0.6, 1.9), abs=0.05)

    def test_coincident_rejected(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        with pytest.raises(DomainError):
            kernel_from_ratio(m, 1.0, 1.0 + 1e-9)

    def test_bad_mode(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        with pytest.raises(DomainError):
            kernel_from_ratio(m, 0.5, 1.5, mode="exact")


class TestRho1Check:
    def test_chiral_with_source(self):
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        report = rho1_check(m, bins=40, samples=100000, seed=7)
        assert report.fraction_within >= 0.95
        assert report.edges.size == 41
        assert report.density.size == 40

    def test_chiral_zero_source_reference(self):
        # with A = 0 the reference is the Laguerre Christoffel sum
        alpha = 1.0
        w = lambda t: t**alpha * np.exp(-t)
        sys_ = op_from_weight(w, gauss_laguerre(64, alpha), 3)
        m = SourceModel("chiral", 3, (0.0, 0.0, 0.0), alpha=1)
        report = rho1_report(m, sample_spectra(m, seed=0, count=100), bins=24)
        x = 0.5 * (report.edges[:-1] + report.edges[1:])
        ref = w(x) * sum(sys_.eval(k, x) ** 2 / sys_.norms[k] for k in range(3))
        assert np.max(np.abs(report.reference - ref)) <= 1e-12 * np.max(ref)

    def test_hermitian_reference(self):
        m = SourceModel("hermitian", 2, (0.0, 0.0))
        report = rho1_check(m, bins=30, samples=100000, seed=8)
        assert report.fraction_within >= 0.95

    def test_hermitian_with_source_rejected(self, monkeypatch):
        m = SourceModel("hermitian", 2, (0.5, 1.0))
        with pytest.raises(DomainError):
            rho1_report(m, sample_spectra(m, seed=0, count=100), bins=10)
        # rejected before any spectra are drawn
        monkeypatch.setattr(charpoly, "sample_spectra", None)
        with pytest.raises(DomainError):
            rho1_check(m, bins=10, samples=100, seed=0)

    def test_density_normalization(self):
        # the empirical density integrates to ~N over a wide support
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        report = rho1_check(m, bins=40, samples=50000, seed=9, support=(0.0, 20.0))
        widths = np.diff(report.edges)
        assert float(np.sum(report.density * widths)) == pytest.approx(2.0, rel=1e-3)
