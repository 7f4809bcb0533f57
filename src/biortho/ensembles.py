r"""Generic biorthogonal ensemble machinery.

An ensemble of $N$ points on a support $I$ is specified by two families of
functions $\eta_1,\dots,\eta_N$ and $\xi_1,\dots,\xi_N$ through the joint
density

$$ p_N(x_1,\dots,x_N) = \frac{1}{Z_N}\,
   \det[\eta_i(x_j)]\,\det[\xi_i(x_j)], \qquad Z_N = N!\,\det \mathbf g, $$

with Gram matrix $g_{i,j} = \int_I \eta_i \xi_j\,dx$.  A
:class:`~biortho.numerics.QuadratureRule` fixes the support $I$ and its
measure: every integral here is taken on one, and nothing else describes
$I$.  All $n$-point correlation functions are determinants of the kernel

$$ K_N(x,y) = \sum_{i,j} \eta_i(x)\, c_{i,j}\, \xi_j(y),
   \qquad \mathbf c = \mathbf g^{-\mathsf T}. $$

The module also carries the classical orthogonal-polynomial specialization
($\eta_i = x^{i-1}$, $\xi_i = x^{i-1} w(x)$), where the kernel collapses to
the Christoffel–Darboux form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import CapacityError, DomainError, NumericError, SingularMatrixError
from .numerics import QuadratureRule, check_gram_size, solve

__all__ = [
    "EnsembleSpec",
    "KernelData",
    "build_kernel",
    "kernel_eval",
    "correlation",
    "pdf_eval",
    "correlation_by_marginal",
    "OrthoPolySystem",
    "op_from_weight",
    "cd_check",
]

_MARGINAL_MAX_ENTRIES = 2**22


def _dx_rule(rule: QuadratureRule) -> QuadratureRule:
    """The same nodes reweighted for plain ``dx`` integration."""
    return QuadratureRule(rule.nodes, rule.dx_weights, "dx", ())


@dataclass
class EnsembleSpec:
    r"""Size, the two function families of the density, and the rule that
    fixes their support.

    ``eta`` and ``xi`` are sequences of N callables, each vectorized over a
    1-d array of points.  ``quad`` integrates in its family's weighted sense;
    Gram entries are formed with the rule's plain-``dx`` weights, so the
    natural choice on the half line is a Gauss-Laguerre rule whose ``alpha``
    matches the decay of the ``xi`` family (then the effective integrand is
    entire and the 64-point rule is accurate to ~1e-13).

    Instances are immutable by convention; the Gram matrix is computed once
    on first use.
    """

    n: int
    eta: tuple[Callable, ...]
    xi: tuple[Callable, ...]
    quad: QuadratureRule
    _gram: NDArray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.eta = tuple(self.eta)
        self.xi = tuple(self.xi)
        if self.n < 1:
            raise DomainError(f"EnsembleSpec requires n >= 1, got {self.n}")
        check_gram_size(self.n, "EnsembleSpec")
        if len(self.eta) != self.n or len(self.xi) != self.n:
            raise DomainError(
                f"eta and xi must each have exactly {self.n} members, "
                f"got {len(self.eta)} and {len(self.xi)}"
            )

    @property
    def gram(self) -> NDArray[np.float64]:
        r"""$g_{i,j} = \int_I \eta_i(x)\,\xi_j(x)\,dx$ by quadrature."""
        if self._gram is None:
            t = self.quad.nodes
            dxw = self.quad.dx_weights
            e = np.array([f(t) for f in self.eta])
            z = np.array([f(t) for f in self.xi])
            self._gram = (e * dxw) @ z.T
        return self._gram


@dataclass(frozen=True)
class KernelData:
    r"""Gram matrix, kernel coefficients, and normalization of an ensemble.

    ``coeffs`` is the inverse transpose of ``gram``, so that
    $\sum_k g_{i,k} c_{j,k} = \delta_{i,j}$.  ``z_n`` stores the partition
    function as ``(sign, log|Z_N|)`` to survive the factorial growth
    $Z_N = N!\,\det\mathbf g$.
    """

    spec: EnsembleSpec
    gram: NDArray[np.float64]
    coeffs: NDArray[np.float64]
    z_n: tuple[float, float]

    @property
    def z_value(self) -> float:
        sign, log_abs = self.z_n
        return sign * math.exp(log_abs)


def build_kernel(spec: EnsembleSpec) -> KernelData:
    """Compute the Gram matrix, its inverse transpose, and (sign, log)Z_N.

    Raises :class:`SingularMatrixError` (naming the pivot) when the Gram
    matrix is singular within pivot tolerance.
    """
    g = spec.gram
    try:
        coeffs = solve(g, np.eye(spec.n)).T
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"Gram matrix singular at pivot {exc.pivot_index}: the eta/xi "
            f"families are not biorthogonalizable for this data",
            pivot_index=exc.pivot_index,
        ) from exc
    resid = np.max(np.abs(g @ coeffs.T - np.eye(spec.n)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise NumericError(
            f"Gram inverse residual {resid:.3g} exceeds tolerance "
            f"(condition too poor); reduce N or rescale the families"
        )
    sign, log_abs_det = np.linalg.slogdet(g)
    z_n = (float(sign), math.lgamma(spec.n + 1) + float(log_abs_det))
    return KernelData(spec=spec, gram=g, coeffs=coeffs, z_n=z_n)


def kernel_eval(k: KernelData, x: ArrayLike, y: ArrayLike) -> float | NDArray[np.float64]:
    r"""$K_N(x,y) = \sum_{i,j} \eta_i(x)\, c_{i,j}\, \xi_j(y)$ — the plain
    double sum, no smoothing or regularization.

    ``x`` and ``y`` broadcast like numpy arrays, so ``x[:, None]`` with
    ``y[None, :]`` gives the table of all pairs; scalars give a float.  Each
    $\eta_i$ is evaluated once on all of ``x`` and each $\xi_j$ once on all
    of ``y``.  The sum over $i$ is taken first, as
    $u_j(x) = \sum_i c_{i,j}\,\eta_i(x)$, then the sum over $j$; this
    order rounds less than one flat sum over all $N^2$ terms when the
    terms cancel (monomial $\eta$ on a wide grid)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ev = np.array([f(x.ravel()) for f in k.spec.eta]).reshape((k.spec.n,) + x.shape)
    zv = np.array([f(y.ravel()) for f in k.spec.xi]).reshape((k.spec.n,) + y.shape)
    out = np.einsum("j...,j...->...", np.tensordot(k.coeffs, ev, axes=(0, 0)), zv)
    return float(out) if out.ndim == 0 else out


def correlation(k: KernelData, points: Sequence[float]) -> float:
    r"""$\rho_{n,N}(x_1,\dots,x_n) = \det[K_N(x_i, x_j)]_{n \times n}$, with
    the $n \times n$ matrix from one broadcast :func:`kernel_eval` call."""
    p = np.asarray(points, dtype=float).ravel()
    if p.size > k.spec.n:
        raise DomainError(f"correlation order {p.size} exceeds ensemble size {k.spec.n}")
    return float(np.linalg.det(kernel_eval(k, p[:, None], p[None, :])))


def pdf_eval(spec: EnsembleSpec, x: ArrayLike) -> float | NDArray[np.float64]:
    r"""Joint density $\det[\eta_i(x_j)]\det[\xi_i(x_j)] / Z_N$, evaluated in
    log space.

    ``x`` holds points of $I^N$ along its last axis, shape ``(..., N)``; the
    result has shape ``(...)``, and a single point gives a float.  Each
    $\eta_i$, $\xi_i$ is evaluated once on all coordinates and the
    determinants are one batched ``slogdet``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != spec.n:
        raise DomainError(f"pdf_eval expects {spec.n} coordinates, got shape {x.shape}")
    kd = build_kernel(spec)
    flat = x.ravel()
    s1, l1 = np.linalg.slogdet(np.stack([f(flat).reshape(x.shape) for f in spec.eta], axis=-2))
    s2, l2 = np.linalg.slogdet(np.stack([f(flat).reshape(x.shape) for f in spec.xi], axis=-2))
    sign_z, log_z = kd.z_n
    # a vanishing determinant has log -inf, so its point evaluates to 0
    out = s1 * s2 * sign_z * np.exp(l1 + l2 - log_z)
    return float(out) if out.ndim == 0 else out


def correlation_by_marginal(spec: EnsembleSpec, points: Sequence[float]) -> float:
    r"""The defining marginal integral
    $\rho_{n,N} = \frac{N!}{(N-n)!} \int_{I^{N-n}} p_N\,dx_{n+1}\cdots dx_N$,
    by tensor quadrature on ``spec.quad``: one batched :func:`pdf_eval` over
    the grid of the $N - n$ free coordinates, dotted with the product
    weights.  Cost and memory grow like $M^{N-n}$ for an $M$-point rule, so
    a grid whose determinant stacks would exceed ``2**22`` entries (grid
    points times $N^2$) raises :class:`CapacityError`.  A test utility for
    cross-checking :func:`correlation`, not a production path.
    """
    points = np.asarray(points, dtype=float)
    n = points.size
    big_n = spec.n
    if n > big_n:
        raise DomainError(f"marginal order {n} exceeds ensemble size {big_n}")
    comb = math.factorial(big_n) / math.factorial(big_n - n)
    free = big_n - n
    rule = _dx_rule(spec.quad)
    if rule.n**free * big_n**2 > _MARGINAL_MAX_ENTRIES:
        raise CapacityError(
            f"marginal grid of {rule.n}^{free} points at N = {big_n} exceeds "
            f"{_MARGINAL_MAX_ENTRIES} determinant entries; use a smaller rule "
            f"or a higher order n"
        )
    shape = (rule.n,) * free
    grid = np.meshgrid(*([rule.nodes] * free), indexing="ij")
    x = np.stack([*(np.broadcast_to(p, shape) for p in points), *grid], axis=-1)
    values = pdf_eval(spec, x)
    for _ in range(free):
        values = values @ rule.weights
    return comb * float(values)


# ---------------------------------------------------------------------------
# orthogonal-polynomial specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthoPolySystem:
    r"""Monic orthogonal polynomials of a positive weight.

    Recurrence $p_{k+1}(x) = (x - a_k)\,p_k(x) - b_k\,p_{k-1}(x)$ with
    ``rec_b[0]`` holding the zeroth moment $\int w$.  ``norms[k]`` is
    $h_k = \int w\,p_k^2 = b_0 b_1 \cdots b_k$ — the product form keeps the
    Christoffel–Darboux identity exact at machine precision.
    """

    weight: Callable
    rec_a: NDArray[np.float64]
    rec_b: NDArray[np.float64]
    norms: NDArray[np.float64]
    quad: QuadratureRule

    def values(self, n: int, x: ArrayLike) -> NDArray[np.float64]:
        """p_0..p_n at ``x``, shape ``(n + 1,) + x.shape``, from one pass of
        the recurrence."""
        if n >= len(self.rec_a) + 1:
            raise DomainError(
                f"OrthoPolySystem holds degrees <= {len(self.rec_a)}, asked for {n}"
            )
        x = np.asarray(x, dtype=float)
        p = np.zeros((n + 2,) + x.shape)  # p[0] is p_{-1} = 0
        p[1] = 1.0
        for k in range(n):
            p[k + 2] = (x - self.rec_a[k]) * p[k + 1] - self.rec_b[k] * p[k]
        return p[1:]

    def eval(self, n: int, x: ArrayLike) -> NDArray[np.float64] | float:
        """Value of the monic polynomial p_n."""
        p = self.values(n, x)[n]
        return float(p) if p.ndim == 0 else p

    def kernel(self, x: ArrayLike, y: ArrayLike) -> float | NDArray[np.float64]:
        r"""$K_N(x, y) = w(y) \sum_{k<N} p_k(x)\, p_k(y) / h_k$, summed in
        degree order, $N$ = ``len(rec_a)``; ``x`` and ``y`` broadcast."""
        n = len(self.rec_a)
        y = np.asarray(y, dtype=float)
        px, py = self.values(n - 1, x), self.values(n - 1, y)
        out = self.weight(y) * sum(px[k] * py[k] / self.norms[k] for k in range(n))
        return float(out) if out.ndim == 0 else out


def op_from_weight(w: Callable, quad: QuadratureRule, n: int) -> OrthoPolySystem:
    """Monic orthogonal polynomials p_0..p_n of the weight ``w`` by the
    discretized Stieltjes procedure on the rule ``quad``, whose nodes span
    the support.  A single fixed rule (rather than adaptive quadrature) keeps
    every integral bit-reproducible.

    Raises :class:`NumericError` if some computed norm h_k fails to stay
    positive — the usual ill-conditioning signature; retry with smaller n.
    """
    if n < 1:
        raise DomainError(f"op_from_weight requires n >= 1, got {n}")
    t = quad.nodes
    wm = quad.dx_weights * w(t)
    rec_a = np.empty(n)
    rec_b = np.empty(n)
    norms = np.empty(n + 1)
    prev = np.zeros_like(t)
    cur = np.ones_like(t)
    h_prev = None
    for k in range(n + 1):
        h = float(np.dot(wm, cur * cur))
        if h <= 0:
            raise NumericError(
                f"norm h_{k} = {h:.3g} is not positive: moment problem "
                f"ill-conditioned at this degree; use a smaller n"
            )
        norms[k] = h
        if k == n:
            break
        rec_a[k] = float(np.dot(wm, t * cur * cur)) / h
        rec_b[k] = h if k == 0 else h / h_prev
        h_prev = h
        prev, cur = cur, (t - rec_a[k]) * cur - (rec_b[k] if k > 0 else 0.0) * prev
    return OrthoPolySystem(weight=w, rec_a=rec_a, rec_b=rec_b, norms=norms, quad=quad)


def cd_check(sys: OrthoPolySystem, n: int, x: float, y: float) -> tuple[float, float]:
    r"""Both sides of the Christoffel–Darboux identity:

    lhs $= \sum_{k=0}^{n-1} p_k(x) p_k(y) / h_k$,
    rhs $= \dfrac{p_n(x) p_{n-1}(y) - p_{n-1}(x) p_n(y)}{(x - y)\, h_{n-1}}$.

    Returned as a pair for the caller to compare.  Coincident arguments are
    rejected (the confluent form is out of scope).
    """
    if abs(x - y) < 1e-12:
        raise DomainError("cd_check requires x != y (confluent form not available)")
    if n < 1:
        raise DomainError(f"cd_check requires n >= 1, got {n}")
    px, py = sys.values(n, x), sys.values(n, y)
    h = sys.norms
    lhs = float(np.sum(px[:n] * py[:n] / h[:n]))
    rhs = (px[n] * py[n - 1] - px[n - 1] * py[n]) / ((x - y) * h[n - 1])
    return lhs, float(rhs)
