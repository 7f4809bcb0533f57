r"""Independent verification layer: Monte Carlo matrix sampling and an
Andréief-determinant quadrature oracle for the
characteristic-polynomial-average identities

$$ P(x) = \langle \det(x - X) \rangle, \qquad
   Q(x) = \mathrm{Res}_{z=x} \langle \det(z - X)^{-1} \rangle, \qquad
   K_N(x,y) = \frac{1}{x-y}\,\mathrm{Res}_{z=y}
              \Big\langle \frac{\det(x - X)}{\det(z - X)} \Big\rangle. $$

Sampling is exact for the Gaussian potential only (completion of the
square, ``X = A/2 + G``); every identity under test is potential-agnostic,
so Gaussian suffices.  Residues are the Sokhotski–Plemelj jump
$(1/\pi)\,\mathrm{Im}\,F(x - i0)$.  The quadrature oracle takes that
limit exactly: the jump of the ratio's Andréief matrix across the real axis
is rank one, so no $\varepsilon$ is involved.  Monte Carlo averages have no
such limit; for them :func:`residue_extract` evaluates $F(x - i\varepsilon)$
over a decreasing $\varepsilon$-schedule and extrapolates to
$\varepsilon \to 0$.

Determinism contract: every sample's normal variates come from a
counter-based stream keyed by ``(seed, sample_index)``, and all reductions
run in fixed sample order, so results are bitwise identical for any worker
count, chunk split or ``start`` offset.

Eigenvalue path: every N builds the N(N+1)/2 lower-triangle entries as rows
over the chunk, and N alone picks the eigensolver.  N <= 3 never forms the
matrix; the spectra are closed forms on the rows (N = 1 the diagonal, N = 2
the quadratic formula, N = 3 Smith's trigonometric solution of the cubic).
N >= 4 unpacks the rows into the lower triangle that batched LAPACK
``eigvalsh`` reads, with the bits of earlier versions.  The closed forms agree
with LAPACK on the same matrices to 1e-12 normwise per draw (measured: at
most 1.4e-14 on sampled matrices) and are always ascending.  At an exactly
repeated eigenvalue the N = 3 formula is only sqrt(eps)-accurate (tested to
5e-8 normwise; such matrices have probability zero under the sampled
densities).
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

from .chgue import ChgueParams, chgue_kernel, staircase_functions
from .ensembles import op_from_weight
from .errors import DomainError, NumericWarning, UnsupportedModelError
from .numerics import bidiagonal_series, check_gram_size, gauss_legendre

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
# chunk size up to which _triangle gathers (faster below about 2,048 draws)
_GATHER_COUNT = 1024
# relative size of rounding: residue_extract's floor
_ROUNDING = 16 * np.finfo(float).eps
# the oracle's panel ends either side of the pole
_POLE_CUTS = (1.0, 5.0, 10.0, 20.0, 45.0, 70.0)


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
    """(stride, count) standard normals, one column per sample, from
    per-sample Philox counter blocks: sample ``i`` owns 128-bit blocks
    [i*bps, (i+1)*bps) of the keyed stream, so any chunking/worker split sees
    identical variates."""
    bps = (stride + 3) // 4  # 4 uint64 outputs per 128-bit Philox block
    bg = np.random.Philox(key=seed, counter=[start * bps, 0, 0, 0])
    raw = bg.random_raw(count * bps * 4).reshape(count, bps * 4)[:, :stride]
    # in place but for the one conversion, which also puts the samples last:
    # a chunk holds two arrays, not four
    raw >>= np.uint64(11)
    uniforms = raw.T.astype(np.float64, order="C")
    del raw
    uniforms *= 2.0**-53
    uniforms += 2.0**-54
    return ndtri(uniforms, out=uniforms)


def _triangle(
    m: SourceModel, seed: int, start: int, count: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Real and imaginary rows, ``(n(n+1)/2, count)`` each, of the lower
    triangles (row-major: h00, h10, h11, h20, ...) of the Hermitian matrices
    whose spectra are the samples: ``A/2 + H`` for the Hermitian model,
    ``X^dag X`` with ``X = A/2 + G`` for the chiral one.

    The Hermitian variates are the diagonal, then the real and imaginary
    parts of the strict upper triangle in row-major order.  The chiral
    entries ``sum_j conj(x_ji) x_jk`` are accumulated over the rows ``j`` of
    ``X`` by elementwise multiply-adds, so every sample's entries are
    independent of its place in the chunk (a contraction over ``j`` by
    ``einsum`` or ``matmul`` may order its sum by batch length).  Up to
    ``_GATHER_COUNT`` draws a row adds all entries at once by index gathers,
    past it entry by entry; both round the same sums, to the same bits."""
    z = _normals(seed, start, count, m.stride)
    n = m.n
    il, jl = np.tril_indices(n)
    re = np.zeros((il.size, count))
    im = np.zeros((il.size, count))
    if m.kind == "hermitian":
        # H with density ~ e^{-tr H^2}: diag N(0, 1/2), offdiag Re/Im N(0, 1/4)
        noff = n * (n - 1) // 2
        z[:n] *= math.sqrt(0.5)
        z[:n] += np.asarray(m.a)[:, None] / 2.0
        z[n:] *= 0.5
        # h_ik for i > k is the conjugate of h_ki, whose place in the upper
        # row-major order this map gives (the identity for n <= 3)
        upper = np.zeros((n, n), dtype=int)
        upper[np.triu_indices(n, k=1)] = np.arange(noff)
        up = upper.T[np.tril_indices(n, k=-1)]
        off = il != jl
        re[~off], re[off], im[off] = z[:n], z[n + up], -z[n + noff + up]
        return re, im
    x = z.reshape(2, n + int(m.alpha), n, count)
    x *= math.sqrt(0.5)
    x[0, np.arange(n), np.arange(n)] += np.sqrt(np.asarray(m.a))[:, None]
    xr, xi = x
    if count <= _GATHER_COUNT:
        off = il != jl
        io, jo = il[off], jl[off]
        for r, i in zip(xr, xi):
            re += r[il] * r[jl] + i[il] * i[jl]
            im[off] += r[io] * i[jo] - i[io] * r[jo]
        return re, im
    prod, term = np.empty(count), np.empty(count)
    for j in range(xr.shape[0]):
        for p, (i, k) in enumerate(zip(il, jl)):
            # conj(x_ji) x_jk, each part rounded before it joins the sum
            np.multiply(xr[j, i], xr[j, k], out=term)
            term += np.multiply(xi[j, i], xi[j, k], out=prod)
            re[p] += term
            if i != k:
                np.multiply(xr[j, i], xi[j, k], out=term)
                term -= np.multiply(xi[j, i], xr[j, k], out=prod)
                im[p] += term
    return re, im


def _eigvalsh(re: NDArray[np.float64], im: NDArray[np.float64]) -> NDArray[np.float64]:
    """Ascending eigenvalues, ``(count, n)``, of the Hermitian matrices
    whose lower triangles have the real and imaginary rows ``re`` and ``im``
    (the layout of :func:`_triangle`).

    For n <= 3 they are closed forms computed elementwise, so each matrix's
    eigenvalues do not depend on its position in the chunk:
    n = 2 is ``(a+b)/2 -+ sqrt(((a-b)/2)^2 + |d|^2)``, n = 3 is Smith's
    trigonometric solution of the characteristic cubic (Comm. ACM 4(4):168,
    1961).  For n >= 4 the rows are unpacked into the lower triangle, the
    only one that batched LAPACK ``eigvalsh`` reads."""
    n = math.isqrt(8 * re.shape[0] + 1) // 2
    if n == 1:
        return re.T.copy()
    if n >= 4:
        il, jl = np.tril_indices(n)
        h = np.zeros((n, n, re.shape[1]), dtype=complex)
        h.real[il, jl], h.imag[il, jl] = re, im
        return np.linalg.eigvalsh(h.transpose(2, 0, 1))
    # each matrix is divided by a power of two near its largest entry, which
    # keeps the squares and cubes below clear of overflow and underflow; the
    # division is exact, so it changes no bits where they were clear anyway
    big = np.maximum(np.abs(re).max(axis=0), np.abs(im).max(axis=0))
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    re, im = re / scale, im / scale
    if n == 2:
        (a, d, b), di = re, im[1]
        mean, half = 0.5 * (a + b), 0.5 * (a - b)
        rad = np.sqrt(half * half + d * d + di * di)
        return np.stack([mean - rad, mean + rad], axis=1) * scale[:, None]
    # row-major lower triangle: h00, h10, h11, h20, h21, h22
    (a, d, b, e, f, c), (_, di, _, ei, fi, _) = re, im
    trace = a + b + c
    q = trace / 3.0
    a, b, c = a - q, b - q, c - q
    dd = d * d + di * di
    ee = e * e + ei * ei
    ff = f * f + fi * fi
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (dd + ee + ff)) / 6.0)
    # det(A - qI); the off-diagonal cycle is 2 Re(d f conj(e))
    df_re = d * f - di * fi
    df_im = d * fi + di * f
    det = a * b * c + 2.0 * (df_re * e + df_im * ei) - a * ff - b * ee - c * dd
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
    return _eigvalsh(*_triangle(m, seed, start, count))


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

    Every n builds the lower triangle as rows, without forming the matrix
    (elementwise, so a sample's bits do not depend on its chunk position).
    For n <= 3 the eigenvalues are closed forms on those rows; they match
    batched LAPACK ``eigvalsh`` on the same matrices to 1e-12 normwise per
    draw, except at exactly repeated eigenvalues, where the n = 3 formula is
    only sqrt(eps)-accurate (5e-8).  n >= 4 hands the lower triangle to
    LAPACK."""
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
) -> float:
    r"""Sokhotski–Plemelj residue: evaluates $(1/\pi)\,\mathrm{Im}\,
    f(x - i\varepsilon)$ on the schedule and extrapolates to
    $\varepsilon \to 0$ with the polynomial in $\varepsilon$ through all
    schedule points (the smoothing error of the Poisson kernel has a genuine
    linear term, so a pure even-order Richardson step stalls).

    Successive differences that grow across the schedule by more than
    rounding attach a :class:`NumericWarning`; values that agree to rounding
    never warn."""
    eps = np.asarray(sorted(eps_schedule, reverse=True), dtype=float)
    if eps.size < 1 or np.any(eps <= 0):
        raise DomainError("eps_schedule must contain positive values")
    vals = np.array([(f(complex(x, -e))).imag / math.pi for e in eps])
    if eps.size == 1:
        return float(vals[0])
    diffs = np.abs(np.diff(vals))
    floor = _ROUNDING * np.max(np.abs(vals))
    if np.any(np.diff(diffs) > floor):
        warnings.warn(
            f"residue_extract at x={x}: non-monotone convergence across the "
            f"eps schedule (values {vals.tolist()}); result may be unreliable",
            NumericWarning,
            stacklevel=2,
        )
    # exact polynomial through all (eps, value) points, evaluated at 0
    coeffs = np.polynomial.polynomial.polyfit(eps, vals, deg=eps.size - 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _pole_rule(lo: float, hi: float, y: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Composite 32-point Gauss–Legendre rule on [lo, hi] with the pole y
    as a panel end, so no node sits on it and the singularity-subtracted
    integrands are smooth on every panel.  The other panel ends are
    ``y +- 1, 5, 10, 20, 45, 70``, clipped to the window."""
    if not lo < y < hi:
        raise DomainError(f"pole location {y} outside the integration window ({lo}, {hi})")
    cuts = sorted({lo, hi, y} | {min(max(y + d, lo), hi) for c in _POLE_CUTS for d in (-c, c)})
    rules = [gauss_legendre(32, a, b) for a, b in zip(cuts, cuts[1:])]
    return np.concatenate([r.nodes for r in rules]), np.concatenate([r.weights for r in rules])


def _newton_column(a: NDArray[np.float64], t: NDArray[np.float64]) -> NDArray[np.float64]:
    r"""$e^{tJ} e_1$ at every node of the 1-d ``t``, shape ``(N, t.size)``:
    by Opitz's theorem the prefix divided differences
    $e^{t\,\cdot}[a_1..a_k]$, $k = 1..N$, with $J$ lower bidiagonal (the
    $a_i$ on its diagonal, ones below it).  Coincident sources turn into
    $t^{k-1} e^{a t}/(k-1)!$ with no special case.  The exponential series
    (:func:`~biortho.numerics.bidiagonal_series`) runs on $J - cI$, $c$ the
    mean source, and is scaled back by $e^{ct}$."""
    c = float(np.mean(a))
    return bidiagonal_series(a - c, t) * np.exp(c * t)


class RatioOracle:
    r"""Quadrature evaluator of averages over the exact joint density,
    $\langle \prod_i g(x_i) \rangle$ and the ratio-identity kernel at the
    pole ``y``.

    The density is $\det[\eta_i(x_k)]\det[\xi_j(x_k)]$, and by the Andréief
    identity the $N$-fold integral collapses to a ratio of two $N \times N$
    determinants,

    $$ \langle \textstyle\prod_i g(x_i) \rangle
       = \det G_g / \det G_1, \qquad
       (G_g)_{i,j} = \int g\, \eta_i\, \xi_j . $$

    The ratio depends only on the two spans, which the density fixes: the
    polynomials of degree below $N$, and the span of the source weights.
    The basis within each span only sets the conditioning:

    - chiral: the staircase pair of
      :func:`~biortho.chgue.staircase_functions`, $\eta_i = P_i$ and
      $\xi_j = Q_{j+1}$, so $G_1 = I$ up to quadrature error;
    - Hermitian: $\eta_i = t^i$ and
      $\xi_j = e^{-t^2} (e^{tJ} e_1)_j$, the Newton basis of the weights
      $e^{-t^2 + a_j t}$ (any mix of distinct and coincident sources).

    So the chiral oracle is no function compared with itself: a wrong
    coefficient in $P_i$ or $Q_j$ moves :func:`~biortho.chgue.chgue_kernel`
    but not the oracle, whose determinant ratio cancels any change of basis.

    The rule is a composite 32-point Gauss–Legendre rule with ``y`` as a
    panel end (:func:`_pole_rule`) on $[0, 100]$ (chiral) or $[-8, 8]$
    (Hermitian).  The half line is cut at 100, not earlier: the moments
    $t^{2N} e^{-t}\,_0F_1(\alpha+1; a t)$ keep weight past $t = 45$ once
    $N \ge 6$.  Supports $N \le$ :func:`~biortho.numerics.max_gram_size`
    and raises :class:`CapacityError` above it.
    """

    def __init__(self, m: SourceModel, y: float):
        check_gram_size(m.n, "quadrature oracle")
        self.model = m
        self.y = y
        if m.kind == "chiral":
            lo, hi = 0.0, 100.0
            p = ChgueParams(float(m.alpha), m.a)
            basis = lambda t: staircase_functions(p, t, t)
        else:
            lo, hi = -8.0, 8.0
            a = np.asarray(m.a)
            basis = lambda t: (
                np.vander(t, m.n, increasing=True).T,
                np.exp(-t * t) * _newton_column(a, t),
            )
        t, w = _pole_rule(lo, hi, y)
        eta, xi = basis(np.append(t, y))
        self.nodes = t
        self._u, self._v = eta[:, -1], xi[:, -1]
        self._eta_w = eta[:, :-1] * w
        self._xi = xi[:, :-1]
        self._gram = self._eta_w @ self._xi.T
        self._norm = np.linalg.slogdet(self._gram)
        # P of the kernel, up to a multiple of u v^T that the kernel ignores
        self._cauchy = (self._eta_w / (y - t)) @ self._xi.T

    def average(self, g: Callable) -> float | complex:
        r"""$\langle \prod_i g(x_i) \rangle$ for vectorized ``g``, smooth on
        the window."""
        sign, log_abs = np.linalg.slogdet(
            (self._eta_w * np.asarray(g(self.nodes))) @ self._xi.T
        )
        return sign / self._norm[0] * np.exp(log_abs - self._norm[1])

    def kernel(self, x: float) -> float:
        r"""$K_N(x, y)$ through the ratio identity, with the exact limit
        $z \to y - i0$ in place of an $\varepsilon$-schedule.

        With $g(t) = (x - t)/(z - t) = 1 + (x - z)/(z - t)$, the limit of
        $G_g$ is $A + i\pi (x - y)\, u v^T$, where $A = G_1 + (x - y) P$,
        $P_{ij} = \mathrm{PV}\!\int \eta_i \xi_j/(y - t)$, $u = \eta(y)$ and
        $v = \xi(y)$.  The jump is rank one, so by the matrix determinant
        lemma $\frac{1}{\pi}\mathrm{Im}$ of the ratio is
        $(x - y) \det A\; v^T A^{-1} u / \det G_1$, and

        $$ K_N(x, y) = \det A\; v^T A^{-1} u / \det G_1
           = -\det \begin{pmatrix} A & u \\ v^T & 0 \end{pmatrix}
             \Big/ \det G_1 , $$

        one bordered determinant, which stays finite where $A$ is singular.
        It does not change when a multiple of $u v^T$ is added to $A$ (take
        that multiple of the last column from the others).  So $P$ is the
        plain rule sum of $\eta_i \xi_j/(y - t)$: it differs from the
        singularity-subtracted rule, $\sum_k w_k (\eta_i \xi_j(t_k) - u_i
        v_j)/(y - t_k)$ plus $u_i v_j \log((y - lo)/(hi - y))$, only by such
        a multiple, and the subtracted integrand is smooth, with ``y`` a
        panel end keeping every node off the pole."""
        n = self.model.n
        border = np.zeros((n + 1, n + 1))
        border[:n, :n] = self._gram + (x - self.y) * self._cauchy
        border[:n, n] = self._u
        border[n, :n] = self._v
        sign, log_abs = np.linalg.slogdet(border)
        return float(-sign / self._norm[0] * np.exp(log_abs - self._norm[1]))


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
    \langle \det(x-X)/\det(z-X) \rangle$, for $|x - y| \ge 10^{-6}$.

    ``mode="quadrature"`` integrates the ratio against the exact joint
    density and takes the limit $z \to y - i0$ exactly
    (:meth:`RatioOracle.kernel`; no $\varepsilon$).  Tested contract on the
    chiral model: within ``1e-8`` absolute of
    :func:`~biortho.chgue.chgue_kernel` for $N = 2..12$, $\alpha \in \{0,
    2\}$ and sources spread over $[0.05, 2.2]$ (measured: at most
    ``1.2e-12``), and within ``1e-9`` of the generic Gram kernel for
    $N \le 6$.
    ``mode="montecarlo"`` averages over sampled spectra, taking the residue
    with :func:`residue_extract` over ``eps_schedule``, which only this
    mode uses (all $\varepsilon$ reuse one set of draws)."""
    if abs(x - y) < 1e-6:
        raise DomainError("kernel_from_ratio requires |x - y| >= 1e-6")
    if mode == "quadrature":
        return RatioOracle(m, y).kernel(x)
    if mode != "montecarlo":
        raise DomainError(f"mode must be 'quadrature' or 'montecarlo', got {mode!r}")
    lam = sample_spectra(m, seed, samples, workers=workers)
    num = np.prod(x - lam, axis=1)

    def ratio(z: complex) -> complex:
        return complex(np.mean(num * np.prod(1.0 / (z - lam), axis=1)))

    return residue_extract(ratio, y, eps_schedule) / (x - y)


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
    """rho_1(x) = K_N(x, x) for the supported reference cases: every chiral
    model (the staircase kernel) and the Hermitian model at A = 0."""
    if m.kind == "chiral":
        p = ChgueParams(float(m.alpha), m.a)
        return lambda xs: chgue_kernel(p, xs, xs)
    if any(v != 0 for v in m.a):
        raise DomainError(
            "rho1 reference for the Hermitian model is only available at A = 0"
        )
    sys = op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), m.n)
    return lambda xs: sys.kernel(np.atleast_1d(xs), np.atleast_1d(xs))


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
