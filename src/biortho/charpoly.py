r"""Independent verification layer: Monte Carlo matrix sampling and an
Andréief-determinant quadrature oracle for the
characteristic-polynomial-average identities

$$ P(x) = \langle \det(x - X) \rangle, \qquad
   Q(x) = \mathrm{Res}_{z=x} \langle \det(z - X)^{-1} \rangle, \qquad
   K_N(x,y) = \frac{1}{x-y}\,\mathrm{Res}_{z=y}
              \Big\langle \frac{\det(x - X)}{\det(z - X)} \Big\rangle. $$

Sampling is exact for the Gaussian potential only (completion of the
square, ``X = A/2 + G``); every identity under test is potential-agnostic,
so Gaussian suffices.  Residues are taken in the Sokhotski–Plemelj form
$(1/\pi)\,\mathrm{Im}\,F(x - i\varepsilon)$ over a decreasing
$\varepsilon$-schedule and extrapolated to $\varepsilon \to 0$.

Determinism contract: every sample's normal variates come from a
counter-based stream keyed by ``(seed, sample_index)``, and all reductions
run in fixed sample order, so results are bitwise identical for any worker
count, chunk split or ``start`` offset.

Eigenvalue path, selected by N alone: for N <= 3 the spectra are closed
forms evaluated elementwise over the chunk (N = 1 the diagonal, N = 2 the
quadratic formula, N = 3 Smith's trigonometric solution of the cubic);
N >= 4 uses batched LAPACK ``eigvalsh``.  The closed forms agree with LAPACK
on the same matrices to 1e-12 normwise per draw (measured: at most 1.4e-14
on sampled matrices) and are always ascending.  At an exactly repeated
eigenvalue the N = 3 formula is only sqrt(eps)-accurate (tested to 5e-8
normwise; such matrices have probability zero under the sampled densities).
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .chgue import ChgueParams, chgue_kernel, w_alpha
from .ensembles import (
    HalfLine,
    Segment,
    op_from_weight,
)
from .errors import CapacityError, DomainError, NumericWarning, UnsupportedModelError
from .numerics import gauss_laguerre, gauss_legendre, max_gram_size

__all__ = [
    "AvgEstimate",
    "SourceModel",
    "sample_matrix",
    "sample_spectra",
    "charpoly_estimate",
    "avg_charpoly",
    "avg_inv_charpoly",
    "residue_extract",
    "RatioOracle",
    "kernel_from_ratio",
    "Rho1Report",
    "rho1_report",
    "rho1_check",
]

DEFAULT_EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
_CHUNK = 65536
# largest N at which the quadrature oracle is tested against chgue_kernel
_ORACLE_MAX_N = 8


@dataclass(frozen=True)
class AvgEstimate:
    """Monte Carlo (or oracle) estimate: value, standard error of the mean,
    sample count, and the seed that reproduces it bitwise."""

    value: float | complex
    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class SourceModel:
    """Matrix model with an external source.

    ``kind`` is ``"hermitian"`` (N x N, density ~ e^{-tr X^2 + tr A X};
    ``a`` holds the diagonal of A, WLOG by unitary invariance) or
    ``"chiral"`` ((N+alpha) x N complex, density ~
    e^{-tr X^dag X + Re tr X A^dag}; ``a`` holds the squared-singular-value
    parameters a_i = t_i^2/4, and alpha must be a nonnegative integer so the
    matrix dimensions exist).
    """

    kind: str
    n: int
    a: tuple[float, ...]
    alpha: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if self.kind not in ("hermitian", "chiral"):
            raise UnsupportedModelError(
                f"kind must be 'hermitian' or 'chiral', got {self.kind!r} "
                f"(only the Gaussian potential is exactly samplable)"
            )
        if self.n < 1:
            raise DomainError(f"SourceModel requires n >= 1, got {self.n}")
        if len(self.a) != self.n:
            raise DomainError(f"need {self.n} source parameters, got {len(self.a)}")
        if not all(math.isfinite(v) for v in self.a):
            raise DomainError(f"source parameters must be finite, got {self.a}")
        if self.kind == "chiral":
            if any(v < 0 for v in self.a):
                raise DomainError(f"chiral source parameters must be >= 0, got {self.a}")
            if not (self.alpha >= 0 and float(self.alpha).is_integer()):
                raise DomainError(
                    f"chiral sampling needs integer alpha = M - N >= 0, got {self.alpha}"
                )

    @property
    def stride(self) -> int:
        """Number of standard normals consumed per sample."""
        if self.kind == "hermitian":
            return self.n * self.n
        return 2 * (self.n + int(self.alpha)) * self.n


def _normals(seed: int, start: int, count: int, stride: int) -> NDArray[np.float64]:
    """(count, stride) standard normals from per-sample Philox counter
    blocks: sample ``i`` owns 128-bit blocks [i*bps, (i+1)*bps) of the
    keyed stream, so any chunking/worker split sees identical variates."""
    bps = (stride + 3) // 4  # 4 uint64 outputs per 128-bit Philox block
    bg = np.random.Philox(key=seed, counter=[start * bps, 0, 0, 0])
    raw = bg.random_raw(count * bps * 4).reshape(count, bps * 4)[:, :stride]
    # in place but for the one conversion: a chunk holds two arrays, not four
    raw >>= np.uint64(11)
    uniforms = raw.astype(np.float64)
    del raw
    uniforms *= 2.0**-53
    uniforms += 2.0**-54
    return ndtri(uniforms, out=uniforms)


def _assemble(m: SourceModel, seed: int, start: int, count: int) -> NDArray[np.complex128]:
    """(count, n, n) Hermitian matrices whose spectra are the samples:
    ``A/2 + H`` for the Hermitian model, ``X^dag X`` for the chiral one."""
    z = _normals(seed, start, count, m.stride)
    n = m.n
    if m.kind == "hermitian":
        # H with density ~ e^{-tr H^2}: diag N(0, 1/2), offdiag Re/Im N(0, 1/4)
        h = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        pos = 0
        h[:, idx, idx] = z[:, :n] * math.sqrt(0.5)
        pos = n
        iu, ju = np.triu_indices(n, k=1)
        noff = iu.size
        re = z[:, pos : pos + noff] * 0.5
        im = z[:, pos + noff : pos + 2 * noff] * 0.5
        h[:, iu, ju] = re + 1j * im
        h[:, ju, iu] = re - 1j * im
        h[:, idx, idx] += np.asarray(m.a) / 2.0
        return h
    big_m = n + int(m.alpha)
    g = z.reshape(count, 2, big_m, n)
    x = np.empty((count, big_m, n), dtype=complex)
    x.real, x.imag = g[:, 0], g[:, 1]
    del z, g  # the normals are the chunk's largest array
    x *= math.sqrt(0.5)
    x[:, np.arange(n), np.arange(n)] += np.sqrt(np.asarray(m.a))
    return np.einsum("sji,sjk->sik", x.conj(), x)


def _eigvalsh(h: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Ascending eigenvalues of a (count, n, n) stack of Hermitian matrices,
    read from the diagonal and the lower triangle as LAPACK's default does.

    For n <= 3 they are closed forms computed matrix by matrix with
    elementwise ufuncs, so each matrix's eigenvalues do not depend on its
    position in the stack:
    n = 2 is ``(a+b)/2 -+ sqrt(((a-b)/2)^2 + |d|^2)``, n = 3 is Smith's
    trigonometric solution of the characteristic cubic (Comm. ACM 4(4):168,
    1961).  Larger n goes through batched ``np.linalg.eigvalsh``."""
    n = h.shape[-1]
    if n > 3:
        return np.linalg.eigvalsh(h)
    if n == 1:
        return h[:, :, 0].real.copy()
    il, jl = np.tril_indices(n)
    low = h[:, il, jl]
    # each matrix is divided by a power of two near its largest entry, which
    # keeps the squares and cubes below clear of overflow and underflow; the
    # division is exact, so it changes no bits where they were clear anyway
    big = np.maximum(np.abs(low.real), np.abs(low.imag)).max(axis=1)
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    low = np.ascontiguousarray((low / scale[:, None]).T)
    if n == 2:
        a, d, b = low[0].real, low[1], low[2].real
        mean, half = 0.5 * (a + b), 0.5 * (a - b)
        rad = np.sqrt(half * half + d.real * d.real + d.imag * d.imag)
        return np.stack([mean - rad, mean + rad], axis=1) * scale[:, None]
    # row-major lower triangle: h00, h10, h11, h20, h21, h22
    a, d, b, e, f, c = low
    a, b, c = a.real, b.real, c.real
    trace = a + b + c
    q = trace / 3.0
    a, b, c = a - q, b - q, c - q
    dd = d.real * d.real + d.imag * d.imag
    ee = e.real * e.real + e.imag * e.imag
    ff = f.real * f.real + f.imag * f.imag
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (dd + ee + ff)) / 6.0)
    # det(A - qI); the off-diagonal cycle is 2 Re(d f conj(e))
    df_re = d.real * f.real - d.imag * f.imag
    df_im = d.real * f.imag + d.imag * f.real
    det = a * b * c + 2.0 * (df_re * e.real + df_im * e.imag) - a * ff - b * ee - c * dd
    # p = 0 means A = qI, where det = 0 too, so r = 0; clipping keeps the
    # rounded r inside arccos's domain
    r = np.clip(det / (2.0 * np.where(p > 0.0, p, 1.0) ** 3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    # cos(phi) - cos(phi + 2pi/3) >= 1 on [0, pi/3], so only the middle
    # root can fall out of order by rounding
    mid = np.minimum(np.maximum(trace - hi - lo, lo), hi)
    return np.stack([lo, mid, hi], axis=1) * scale[:, None]


def _spectra_chunk(m: SourceModel, seed: int, start: int, count: int) -> NDArray[np.float64]:
    return _eigvalsh(_assemble(m, seed, start, count))


def sample_matrix(m: SourceModel, seed: int, index: int = 0) -> NDArray[np.float64]:
    """One spectrum draw (ascending): eigenvalues of ``A/2 + H`` in the
    Hermitian case, eigenvalues of ``X^dag X`` with ``X = A/2 + G`` in the
    chiral case.  ``index`` selects the sample's position in the stream."""
    return _spectra_chunk(m, seed, index, 1)[0]


def sample_spectra(
    m: SourceModel, seed: int, count: int, start: int = 0, workers: int = 1
) -> NDArray[np.float64]:
    """(count, n) array of ascending spectra.  Chunk boundaries are fixed
    (64k samples) independently of ``workers``, and each chunk lands at its
    own offset, so the result is bitwise identical for any worker count.

    For n <= 3 the eigenvalues are closed forms (elementwise, so a sample's
    bits do not depend on its chunk position); they match batched LAPACK
    ``eigvalsh`` on the same matrices to 1e-12 normwise per draw, except at
    exactly repeated eigenvalues, where the n = 3 formula is only
    sqrt(eps)-accurate (5e-8).  n >= 4 uses LAPACK."""
    out = np.empty((count, m.n))
    chunks = [
        (start + lo, min(_CHUNK, count - lo)) for lo in range(0, count, _CHUNK)
    ]
    if workers <= 1 or len(chunks) == 1:
        for i, (lo, c) in enumerate(chunks):
            out[lo - start : lo - start + c] = _spectra_chunk(m, seed, lo, c)
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_spectra_chunk, m, seed, lo, c) for lo, c in chunks]
        for (lo, c), fut in zip(chunks, futures):
            out[lo - start : lo - start + c] = fut.result()
    return out


def _mc_estimate(values: NDArray, samples: int, seed: int) -> AvgEstimate:
    mean = values.mean()
    if np.iscomplexobj(values):
        var = np.var(values.real) + np.var(values.imag)
        return AvgEstimate(complex(mean), math.sqrt(var / samples), samples, seed)
    return AvgEstimate(float(mean), float(values.std() / math.sqrt(samples)), samples, seed)


def charpoly_estimate(lam: NDArray[np.float64], x: float, seed: int) -> AvgEstimate:
    r"""$\langle \prod_i (x - \lambda_i) \rangle$ over the spectra ``lam``
    (one row per sample, drawn with ``seed``)."""
    return _mc_estimate(np.prod(x - lam, axis=1), lam.shape[0], seed)


def avg_charpoly(
    m: SourceModel, x: float, samples: int, seed: int, workers: int = 1
) -> AvgEstimate:
    r"""$\langle \prod_i (x - \lambda_i) \rangle$ by Monte Carlo."""
    return charpoly_estimate(sample_spectra(m, seed, samples, workers=workers), x, seed)


def avg_inv_charpoly(
    m: SourceModel, z: complex, samples: int, seed: int, workers: int = 1
) -> AvgEstimate:
    r"""$\langle \prod_i (z - \lambda_i)^{-1} \rangle$ for $z$ off the real
    axis (on-axis the integrand is singular on the spectrum's support)."""
    if z.imag == 0:
        raise DomainError("avg_inv_charpoly requires Im z != 0")
    lam = sample_spectra(m, seed, samples, workers=workers)
    return _mc_estimate(np.prod(1.0 / (z - lam), axis=1), samples, seed)


def residue_extract(
    f: Callable,
    x: float,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    assume_order: int | None = None,
) -> float:
    r"""Sokhotski–Plemelj residue: evaluates $(1/\pi)\,\mathrm{Im}\,
    f(x - i\varepsilon)$ on the schedule and extrapolates to
    $\varepsilon \to 0$.

    By default the extrapolation fits a polynomial in $\varepsilon$ through
    all schedule points (the smoothing error of the Poisson kernel has a
    genuine linear term, so a pure even-order Richardson step stalls);
    ``assume_order=k`` instead performs Richardson steps assuming an
    $O(\varepsilon^k)$ error.  Non-monotone convergence across the schedule
    attaches a :class:`NumericWarning`."""
    eps = np.asarray(sorted(eps_schedule, reverse=True), dtype=float)
    if eps.size < 1 or np.any(eps <= 0):
        raise DomainError("eps_schedule must contain positive values")
    vals = np.array([(f(complex(x, -e))).imag / math.pi for e in eps])
    if eps.size == 1:
        return float(vals[0])
    diffs = np.abs(np.diff(vals))
    if np.any(np.diff(diffs) > 0):
        warnings.warn(
            f"residue_extract at x={x}: non-monotone convergence across the "
            f"eps schedule (values {vals.tolist()}); result may be unreliable",
            NumericWarning,
            stacklevel=2,
        )
    if assume_order is None:
        # exact polynomial through all (eps, value) points, evaluated at 0
        coeffs = np.polynomial.polynomial.polyfit(eps, vals, deg=eps.size - 1)
        return float(coeffs[0])
    # single Richardson step eliminating the assumed-order term, using the
    # two smallest eps of the schedule: F(eps) ~ L + c eps^k
    k = assume_order
    e1, e2 = eps[-2], eps[-1]
    v1, v2 = vals[-2], vals[-1]
    return float((v2 * e1**k - v1 * e2**k) / (e1**k - e2**k))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _pole_resolving_nodes(
    interval, y: float, eps_min: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Composite Gauss-Legendre rule whose panels grade dyadically into the
    near-pole point y (down to width ~eps_min/4), so integrands with an
    off-axis pole at y - i*eps stay resolved for every eps in the schedule.

    The half line is cut at 100, not earlier: the oracle's moments
    t^{2N} e^{-t} 0F1(alpha+1; a t) keep weight past t = 45 once N >= 6, and a
    cut there cost 4e-9 to 3e-7 relative in the N = 6 to 8 Gram entries."""
    if isinstance(interval, HalfLine):
        lo, hi = 0.0, 100.0
    else:
        lo, hi = interval.a, interval.b
    if not lo < y < hi:
        raise DomainError(f"pole location {y} outside the integration window ({lo}, {hi})")
    w0 = 1.0
    j_max = max(1, math.ceil(math.log2(w0 / (eps_min / 4.0))))
    cuts = [y - w0]
    for j in range(j_max):
        cuts.append(y - w0 * 2.0 ** -(j + 1))
    cuts.append(y)
    for j in range(j_max, 0, -1):
        cuts.append(y + w0 * 2.0 ** -j)
    cuts.append(y + w0)
    cuts = [min(max(c, lo), hi) for c in cuts]
    panels: list[tuple[float, float, int]] = []
    # smooth backbone away from the pole
    if cuts[0] - lo > 1e-12:
        panels.append((lo, cuts[0], 24))
    for a, b in zip(cuts, cuts[1:]):
        if b - a > 1e-14:
            panels.append((a, b, 8))
    right = cuts[-1]
    if isinstance(interval, HalfLine):
        for b in (right + 5.0, 20.0, 45.0, 70.0, 100.0):
            if b - right > 1e-12:
                panels.append((right, min(b, hi), 24))
                right = min(b, hi)
    elif hi - right > 1e-12:
        panels.append((right, hi, 24))
    nodes, weights = [], []
    for a, b, k in panels:
        r = gauss_legendre(k, a, b)
        nodes.append(r.nodes)
        weights.append(r.weights)
    return np.concatenate(nodes), np.concatenate(weights)


class RatioOracle:
    r"""Quadrature evaluator of symmetric-function averages
    $\langle \prod_i g(x_i) \rangle$ over the exact joint density, on a
    composite rule resolving a pole near ``y``.

    By the Andréief identity the $N$-fold sum over the nodes $t_k$ (weights
    $w_k$) collapses to a ratio of two $N \times N$ determinants,

    $$ \langle \textstyle\prod_i g(x_i) \rangle
       = \det G_g / \det G_1, \qquad
       (G_g)_{i,j} = \sum_k w_k\, g(t_k)\, \eta_i(t_k)\, \xi_j(t_k), $$

    so the oracle still integrates the joint density and never touches the
    kernel formulas.  Both determinants are taken as ``slogdet`` pairs, so
    neither has to be representable.  Supports $1 \le N \le 8$ (and no
    more than :func:`~biortho.numerics.max_gram_size`), and raises
    :class:`CapacityError` above that.  On the chiral model with
    sources spread over $[0.05, 2.2]$ the ratio-identity kernel stays within
    $4\cdot 10^{-7}$ of :func:`~biortho.chgue.chgue_kernel` up to $N = 8$;
    past that it loses digits without warning ($5\cdot 10^{-4}$ absolute at
    $N = 10$, $0.4$ at $N = 12$ over $[0.05, 3]$), so larger N is refused.
    """

    def __init__(self, m: SourceModel, y: float, eps_min: float = min(DEFAULT_EPS_SCHEDULE)):
        cap = min(_ORACLE_MAX_N, max_gram_size())
        if m.n > cap:
            raise CapacityError(
                f"quadrature oracle supports N <= {cap}, got N = {m.n} "
                f"(past N = {_ORACLE_MAX_N} it loses digits without warning)"
            )
        self.model = m
        n = m.n
        if m.kind == "chiral":
            if len(set(m.a)) < n:
                raise DomainError(
                    f"chiral oracle needs distinct source parameters, got {m.a}"
                )
            interval = HalfLine()
            alpha = float(m.alpha)
            xi = [w_alpha(alpha, ai) for ai in m.a]
        else:
            interval = Segment(-8.0, 8.0)
            distinct = len(set(m.a))
            if distinct == n:
                xi = [(lambda t, ai=ai: np.exp(-t * t + ai * t)) for ai in m.a]
            elif distinct == 1:
                # fully coincident source: the determinant degenerates into
                # the Vandermonde-limit basis t^i e^{-t^2 + a t}
                a0 = m.a[0]
                xi = [(lambda t, i=i: t**i * np.exp(-t * t + a0 * t)) for i in range(n)]
            else:
                raise DomainError(
                    "hermitian oracle supports fully distinct or fully "
                    f"coincident source parameters, got {m.a}"
                )
        t, w = _pole_resolving_nodes(interval, y, eps_min)
        self.nodes = t
        self._eta_w = np.vstack([t**i for i in range(n)]) * w
        self._xi = np.vstack([f(t) for f in xi])
        self._norm = np.linalg.slogdet(self._eta_w @ self._xi.T)

    def average(self, g: Callable) -> float | complex:
        r"""$\langle \prod_i g(x_i) \rangle$ for vectorized ``g``."""
        sign, log_abs = np.linalg.slogdet(
            (self._eta_w * np.asarray(g(self.nodes))) @ self._xi.T
        )
        return sign / self._norm[0] * np.exp(log_abs - self._norm[1])

    def ratio_average(self, x: float, z: complex) -> complex:
        r"""$\langle \det(x - X)/\det(z - X) \rangle
        = \langle \prod_i (x - \lambda_i)/(z - \lambda_i) \rangle$."""
        return self.average(lambda t: (x - t) / (z - t))


def kernel_from_ratio(
    m: SourceModel,
    x: float,
    y: float,
    mode: str = "quadrature",
    samples: int = 10**6,
    seed: int = 0,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    workers: int = 1,
) -> float:
    r"""The kernel through the ratio identity
    $K_N(x,y) = \frac{1}{x-y}\,\mathrm{Res}_{z=y}\,
    \langle \det(x-X)/\det(z-X) \rangle$, with the residue taken by
    :func:`residue_extract` over the $\varepsilon$-schedule.

    ``mode="quadrature"`` integrates the ratio against the exact joint
    density through :class:`RatioOracle` (N <= 8);
    ``mode="montecarlo"`` averages over sampled spectra
    (all $\varepsilon$ reuse one set of draws)."""
    if abs(x - y) < 1e-6:
        raise DomainError("kernel_from_ratio requires |x - y| >= 1e-6")
    if mode == "quadrature":
        oracle = RatioOracle(m, y, eps_min=min(eps_schedule))
        res = residue_extract(lambda z: oracle.ratio_average(x, z), y, eps_schedule)
    elif mode == "montecarlo":
        lam = sample_spectra(m, seed, samples, workers=workers)
        num = np.prod(x - lam, axis=1)

        def ratio(z: complex) -> complex:
            return complex(np.mean(num * np.prod(1.0 / (z - lam), axis=1)))

        res = residue_extract(ratio, y, eps_schedule)
    else:
        raise DomainError(f"mode must be 'quadrature' or 'montecarlo', got {mode!r}")
    return res / (x - y)


@dataclass(frozen=True)
class Rho1Report:
    """Histogram-vs-kernel comparison: bin edges, empirical density values
    (normalized to total mass N), the reference density at bin centers, and
    per-bin z-scores under the Poisson count approximation."""

    edges: NDArray[np.float64]
    density: NDArray[np.float64]
    reference: NDArray[np.float64]
    z_scores: NDArray[np.float64]

    @property
    def fraction_within(self) -> float:
        """Fraction of bins with |z| <= 3."""
        return float(np.mean(np.abs(self.z_scores) <= 3.0))


def _kernel_diagonal_reference(m: SourceModel) -> Callable:
    """rho_1(x) = K_N(x, x) for the supported reference cases."""
    if m.kind == "chiral":
        if all(v == 0 for v in m.a):
            alpha = float(m.alpha)
            sys = op_from_weight(
                lambda t: t**alpha * np.exp(-t),
                HalfLine(),
                m.n,
                quad=gauss_laguerre(64, alpha),
            )
            w = lambda t: t**alpha * np.exp(-t)
        else:
            p = ChgueParams(float(m.alpha), m.a)
            return lambda xs: chgue_kernel(p, xs, xs)
    else:
        if any(v != 0 for v in m.a):
            raise DomainError(
                "rho1 reference for the Hermitian model is only available at A = 0"
            )
        sys = op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), m.n)
        w = lambda t: np.exp(-t * t)

    def rho(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        total = np.zeros_like(xs)
        for k in range(m.n):
            total += sys.eval(k, xs) ** 2 / sys.norms[k]
        return w(xs) * total

    return rho


def _rho1_histogram(
    m: SourceModel,
    rho: Callable,
    lam: NDArray[np.float64],
    bins: int,
    support: tuple[float, float] | None,
) -> Rho1Report:
    if support is None:
        support = (0.0, 12.0) if m.kind == "chiral" else (-4.0, 4.0)
    samples = lam.shape[0]
    edges = np.linspace(support[0], support[1], bins + 1)
    counts, _ = np.histogram(lam.ravel(), bins=edges)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    reference = rho(centers)
    expected = samples * reference * widths
    sigma = np.sqrt(np.maximum(expected, 1.0))
    z = (counts - expected) / sigma
    return Rho1Report(
        edges=edges,
        density=counts / (samples * widths),
        reference=reference,
        z_scores=z,
    )


def rho1_report(
    m: SourceModel,
    lam: NDArray[np.float64],
    bins: int,
    support: tuple[float, float] | None = None,
) -> Rho1Report:
    """Empirical one-point density of all eigenvalues in the spectra ``lam``
    (one row per sample of ``m``) against the kernel diagonal, with per-bin
    z-scores (expected counts from the reference curve, Poisson standard
    deviation — conservative for determinantal statistics, whose bin counts
    are under-dispersed)."""
    return _rho1_histogram(m, _kernel_diagonal_reference(m), lam, bins, support)


def rho1_check(
    m: SourceModel,
    bins: int,
    samples: int,
    seed: int,
    support: tuple[float, float] | None = None,
    workers: int = 1,
) -> Rho1Report:
    """:func:`rho1_report` on ``samples`` fresh spectra drawn with ``seed``;
    a model without a reference density is rejected before the draw."""
    rho = _kernel_diagonal_reference(m)
    lam = sample_spectra(m, seed, samples, workers=workers)
    return _rho1_histogram(m, rho, lam, bins, support)
