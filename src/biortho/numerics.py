r"""Special functions, combinatorial polynomials, quadrature, and small dense
linear algebra shared by every other module.

Conventions
-----------
* "Matrix" throughout the package means a dense 2-d ``numpy.ndarray`` (real or
  complex).  :func:`det` and :func:`solve` wrap LU with partial pivoting and
  raise :class:`~biortho.errors.SingularMatrixError` carrying the offending
  pivot index when a pivot falls below ``1e-13`` times the matrix row norm.
* Quadrature rules integrate in the *weighted* sense of their family:
  an ``n``-point generalized Gauss–Laguerre rule approximates
  $\int_0^\infty f(x)\,x^\alpha e^{-x}\,dx \approx \sum_i w_i f(x_i)$,
  a Gauss–Legendre rule approximates the plain integral over ``[a, b]``.
  Use :attr:`QuadratureRule.dx_weights` when a plain ``dx`` measure is needed
  on the half line.
* All arithmetic is double precision; Gram-matrix sizes are capped at
  ``N <= 12`` by default (monomial Gram matrices turn ill-conditioned beyond
  that).  The cap can be raised via the ``BIORTHO_MAX_N`` environment
  variable; results past the default cap are not covered by the accuracy
  contracts.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import LinAlgWarning, eigh_tridiagonal, lu_factor, lu_solve
from scipy.special import jv

from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    NumericError,
    SingularMatrixError,
)

__all__ = [
    "laguerre",
    "laguerre_coeffs",
    "hyp0f1",
    "bessel_i",
    "log_gamma",
    "elem_sym",
    "vandermonde",
    "partial_fraction_weights",
    "divided_difference",
    "det",
    "solve",
    "QuadratureRule",
    "gauss_legendre",
    "gauss_laguerre",
    "integrate_nd",
    "max_gram_size",
]

_DEFAULT_MAX_N = 12


def max_gram_size() -> int:
    """Current cap on ensemble/Gram sizes (``BIORTHO_MAX_N`` overrides 12)."""
    raw = os.environ.get("BIORTHO_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"BIORTHO_MAX_N must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError(f"BIORTHO_MAX_N must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def laguerre(n: int, alpha: float, x) -> NDArray[np.float64] | float:
    r"""Generalized Laguerre polynomial $L_n^\alpha(x)$.

    Standard three-term recurrence
    $(k+1) L_{k+1} = (2k+\alpha+1-x) L_k - (k+\alpha) L_{k-1}$,
    exact for ``n <= 1``.  ``x`` may be a scalar or an array.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be nonnegative, got {n}")
    if alpha <= -1:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    prev = np.ones_like(x)
    if n == 0:
        return float(prev) if scalar else prev
    cur = alpha + 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return float(cur) if scalar else cur


def laguerre_coeffs(n: int, alpha: float) -> NDArray[np.float64]:
    r"""Monomial coefficients of $L_n^\alpha$, ascending degree (length n+1).

    Built by the same recurrence as :func:`laguerre` applied to coefficient
    vectors, so values and coefficients cannot drift apart.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be nonnegative, got {n}")
    if alpha <= -1:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha}")
    prev = np.zeros(n + 1)
    prev[0] = 1.0
    if n == 0:
        return prev
    cur = np.zeros(n + 1)
    cur[0] = alpha + 1.0
    cur[1] = -1.0
    for k in range(1, n):
        nxt = (2 * k + alpha + 1) * cur - (k + alpha) * prev
        nxt[1:] -= cur[:-1]  # the -x * cur term
        nxt /= k + 1
        prev, cur = cur, nxt
    return cur


_HYP0F1_RTOL = 1e-13
_HYP0F1_MAX_TERMS = 500
# Below this argument the alternating Taylor series loses too many digits to
# cancellation (error ~ eps_mach * e^{2 sqrt|z|}); switch to the Bessel-J
# connection 0F1(c; -t) = Gamma(c) t^{-(c-1)/2} J_{c-1}(2 sqrt t).
_HYP0F1_BESSEL_CUTOFF = -40.0


def _hyp0f1_taylor(c: float, z: NDArray[np.float64]) -> NDArray[np.float64]:
    total = np.ones_like(z)
    term = np.ones_like(z)
    scale = np.ones_like(z)  # largest |partial sum| seen, for the rel. test
    for k in range(_HYP0F1_MAX_TERMS):
        term = term * z / ((c + k) * (k + 1))
        total += term
        np.maximum(scale, np.abs(total), out=scale)
        if np.all(np.abs(term) <= _HYP0F1_RTOL * scale):
            return total
    raise ConvergenceError(
        f"hyp0f1 series did not converge in {_HYP0F1_MAX_TERMS} terms "
        f"(c={c}, max|z|={np.max(np.abs(z)):.3g})",
        partial=total,
    )


def hyp0f1(c: float, z) -> NDArray[np.float64] | float:
    r"""Confluent hypergeometric limit function
    $_0F_1(c; z) = \sum_k z^k / ((c)_k\, k!)$.

    Direct Taylor summation (relative ``1e-13`` or 500 terms) for
    ``z >= -40``; for large negative arguments the series is evaluated
    through the Bessel connection $_0F_1(c;-t) = \Gamma(c)\, t^{-(c-1)/2}
    J_{c-1}(2\sqrt t)$, which avoids the catastrophic cancellation of the
    alternating sum.  ``z`` may be a scalar or an array.
    """
    if c <= 0 and float(c).is_integer():
        raise DomainError(f"hyp0f1 parameter c must not be a non-positive integer, got {c}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    neg = z < _HYP0F1_BESSEL_CUTOFF
    if np.any(~neg):
        out[~neg] = _hyp0f1_taylor(c, z[~neg])
    if np.any(neg):
        t = -z[neg]
        out[neg] = math.gamma(c) * t ** (-(c - 1) / 2) * jv(c - 1, 2 * np.sqrt(t))
    return float(out[0]) if scalar else out


def bessel_i(alpha: float, z) -> NDArray[np.float64] | float:
    r"""Modified Bessel function of the first kind,
    $I_\alpha(z) = \frac{(z/2)^\alpha}{\Gamma(\alpha+1)}\,_0F_1(\alpha+1; z^2/4)$.
    """
    if alpha <= -1:
        raise DomainError(f"bessel_i requires alpha > -1, got {alpha}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise DomainError("bessel_i requires z >= 0")
    pref = (z / 2.0) ** alpha / math.gamma(alpha + 1)
    return pref * hyp0f1(alpha + 1, z * z / 4.0)


def log_gamma(x: float) -> float:
    r"""$\ln\Gamma(x)$ for $x > 0$ (used for all $\Gamma$ ratios, which are
    formed in log space to survive factorial growth)."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# combinatorial polynomials
# ---------------------------------------------------------------------------

def elem_sym(a: Sequence[float]) -> NDArray[np.float64]:
    r"""Elementary symmetric polynomials $(e_0, \dots, e_N)$ of the inputs,
    from the stable product recurrence
    $\prod_i (t + a_i) = \sum_n t^n e_{N-n}$.
    """
    a = np.asarray(a, dtype=float)
    e = np.zeros(a.size + 1)
    e[0] = 1.0
    for ai in a:
        e[1:] += ai * e[:-1].copy()
    return e


def vandermonde(x: Sequence[float]) -> float:
    r"""Vandermonde product $\Delta(x) = \prod_{i<j} (x_j - x_i)$
    (product form, $O(N^2)$ and stable; not the determinant form)."""
    x = np.asarray(x, dtype=float)
    out = 1.0
    for i in range(x.size):
        for j in range(i + 1, x.size):
            out *= x[j] - x[i]
    return out


def partial_fraction_weights(z: complex, x: Sequence[float]) -> complex:
    r"""Partial-fraction identity
    $\sum_i (z-x_i)^{-1} \prod_{j\ne i} (x_i-x_j)^{-1} = \prod_i (z-x_i)^{-1}$.

    Returns the left-hand sum after asserting agreement with the product
    form.  Nodes closer than ``1e-10`` relative are rejected (confluent
    cases are handled explicitly elsewhere, never by automatic switching).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        raise DomainError("partial_fraction_weights requires at least one node")
    scale = max(1.0, float(np.max(np.abs(x))))
    diffs = x[:, None] - x[None, :]
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.min(np.abs(diffs[off])) < 1e-10 * scale:
        raise DomainError("partial_fraction_weights: coincident nodes")
    if np.min(np.abs(z - x)) == 0.0:
        raise DomainError("partial_fraction_weights: z coincides with a node")
    total = 0.0 + 0.0j
    for i in range(n):
        denom = np.prod(diffs[i][off[i]]) if n > 1 else 1.0
        total += 1.0 / ((z - x[i]) * denom)
    product = 1.0 / np.prod(z - x)
    if abs(total - product) > 1e-8 * max(abs(product), 1e-300):
        raise NumericError(
            f"partial-fraction identity violated beyond tolerance: "
            f"sum={total}, product={product}",
            partial=total,
        )
    return total


def divided_difference(values: Sequence[float], nodes: Sequence[float]) -> float:
    r"""Divided difference $f[x_1,\dots,x_n]$ from function values at distinct
    nodes, by the standard triangular recurrence."""
    values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float).copy()
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if values.size != n:
        raise DomainError("divided_difference: values and nodes must match in length")
    for level in range(1, n):
        values[: n - level] = (values[1 : n - level + 1] - values[: n - level]) / (
            nodes[level:] - nodes[: n - level]
        )
    return values[0]


# ---------------------------------------------------------------------------
# small dense linear algebra
# ---------------------------------------------------------------------------

_PIVOT_RTOL = 1e-13


def _lu(m: NDArray) -> tuple:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    row_norm = float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    with warnings.catch_warnings():
        # singularity is detected and reported through SingularMatrixError
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m, check_finite=True)
    pivots = np.abs(np.diag(lu))
    bad = np.nonzero(pivots < _PIVOT_RTOL * max(row_norm, 1e-300))[0]
    if bad.size:
        raise SingularMatrixError(
            f"singular matrix: pivot {int(bad[0])} is {pivots[bad[0]]:.3g} "
            f"(tolerance {_PIVOT_RTOL * row_norm:.3g})",
            pivot_index=int(bad[0]),
        )
    return lu, piv


def det(m: NDArray) -> float | complex:
    """Signed determinant via LU with partial pivoting."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 1.0
    lu, piv = _lu(m)
    sign = 1.0 if np.sum(piv != np.arange(len(piv))) % 2 == 0 else -1.0
    value = sign * np.prod(np.diag(lu))
    return complex(value) if np.iscomplexobj(m) else float(value)


def solve(m: NDArray, rhs: NDArray) -> NDArray:
    """Solve ``m @ x = rhs`` by LU with partial pivoting; raises
    :class:`SingularMatrixError` (with the pivot index) for singular ``m``."""
    lu_piv = _lu(m)
    return lu_solve(lu_piv, np.asarray(rhs), check_finite=True)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian quadrature rule in the weighted sense of its family.

    ``kind`` is ``"gauss-legendre"`` (params ``(a, b)``) or
    ``"gauss-laguerre"`` (params ``(alpha,)``).  Nodes are strictly
    increasing and weights strictly positive.
    """

    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    kind: str
    params: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if self.nodes.size != self.weights.size:
            raise DomainError("QuadratureRule: nodes and weights must match in length")
        if self.nodes.size > 1 and not np.all(np.diff(self.nodes) > 0):
            raise NumericError("QuadratureRule: nodes not strictly increasing")
        if not np.all(self.weights > 0):
            raise NumericError("QuadratureRule: nonpositive weight")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def dx_weights(self) -> NDArray[np.float64]:
        """Weights for plain ``dx`` integration (the Laguerre family weight
        ``x^alpha e^{-x}`` is divided back out; Legendre weights pass through)."""
        if self.kind == "gauss-laguerre":
            (alpha,) = self.params
            return self.weights * np.exp(self.nodes) * self.nodes ** (-alpha)
        return self.weights

    def integrate(self, f: Callable) -> float:
        """Weighted-sense integral ``sum(w_i f(x_i))`` with ``f`` vectorized."""
        return float(np.dot(self.weights, f(self.nodes)))


def _golub_welsch(diag: NDArray, offdiag: NDArray, mu0: float) -> tuple[NDArray, NDArray]:
    """Nodes and weights from the Jacobi matrix of an orthogonal family.

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix.
    Weights come from the inverse Christoffel function
    ``w_k = 1 / sum_j phat_j(x_k)^2`` (orthonormal recurrence) rather than
    squared first eigenvector components: the latter underflow to exactly
    zero for Gauss-Laguerre rules near n = 64, where true weights reach
    ~1e-101.
    """
    n = diag.size
    if n == 1:
        return diag.copy(), np.array([mu0])
    try:
        nodes = eigh_tridiagonal(diag, offdiag, eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise ConvergenceError(f"tridiagonal eigen-solve failed: {exc}") from exc
    nodes = np.sort(nodes)
    # orthonormal recurrence: sqrt(b_k) phat_{k+1} = (x - a_k) phat_k - sqrt(b_{k-1}) phat_{k-1}
    # Polynomial values at extreme nodes overflow for large rules, so nodes
    # are rescaled on the fly and the scale recovered in log space.
    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / math.sqrt(mu0))
    total = p_cur**2
    rescales = np.zeros_like(nodes)
    for k in range(n - 1):
        p_next = ((nodes - diag[k]) * p_cur - (offdiag[k - 1] * p_prev if k > 0 else 0.0)) / offdiag[k]
        p_prev, p_cur = p_cur, p_next
        total += p_cur**2
        big = np.abs(p_cur) > 1e150
        if np.any(big):
            c = np.where(big, 1e-150, 1.0)
            p_prev = p_prev * c
            p_cur = p_cur * c
            total = total * c * c
            rescales += big
    log_w = -2.0 * 150.0 * math.log(10.0) * rescales - np.log(total)
    weights = np.exp(log_w)
    # weights below the normal floating-point range are clamped to the
    # smallest normal double; the induced quadrature error is ~1e-308 |f|.
    return nodes, np.maximum(weights, np.finfo(float).tiny)


def gauss_laguerre(n: int, alpha: float) -> QuadratureRule:
    r"""``n``-point generalized Gauss–Laguerre rule for
    $\int_0^\infty f(x)\, x^\alpha e^{-x}\, dx$ (Golub–Welsch)."""
    if n < 1:
        raise DomainError(f"gauss_laguerre requires n >= 1, got {n}")
    if alpha <= -1:
        raise DomainError(f"gauss_laguerre requires alpha > -1, got {alpha}")
    k = np.arange(n, dtype=float)
    diag = 2 * k + alpha + 1
    offdiag = np.sqrt((k[1:]) * (k[1:] + alpha))
    mu0 = math.gamma(alpha + 1)
    nodes, weights = _golub_welsch(diag, offdiag, mu0)
    return QuadratureRule(nodes, weights, "gauss-laguerre", (alpha,))


@functools.lru_cache(maxsize=64)
def _legendre_unit(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Read-only nodes and weights of the ``n``-point rule on [-1, 1]; the
    rule depends on ``n`` alone, so each size is solved once per process."""
    kk = np.arange(1, n, dtype=float)
    offdiag = kk / np.sqrt(4 * kk * kk - 1)
    nodes, weights = _golub_welsch(np.zeros(n), offdiag, 2.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    r"""``n``-point Gauss–Legendre rule for $\int_a^b f(x)\,dx$."""
    if n < 1:
        raise DomainError(f"gauss_legendre requires n >= 1, got {n}")
    if not b > a:
        raise DomainError(f"gauss_legendre requires b > a, got ({a}, {b})")
    nodes, weights = _legendre_unit(n)
    half = (b - a) / 2.0
    return QuadratureRule(a + half * (nodes + 1.0), half * weights, "gauss-legendre", (a, b))


def integrate_nd(f: Callable, rules: Sequence[QuadratureRule]) -> float:
    """Tensor-product quadrature of ``f`` over up to four rules, each in its
    weighted sense; evaluation order is lexicographic over node indices (a
    deterministic, platform-stable reduction order)."""
    rules = list(rules)
    if len(rules) > 4:
        raise CapacityError(f"integrate_nd supports at most 4 dimensions, got {len(rules)}")
    if not rules:
        raise DomainError("integrate_nd requires at least one rule")
    total = 0.0
    for idx in itertools.product(*(range(r.n) for r in rules)):
        w = 1.0
        pts = []
        for r, i in zip(rules, idx):
            w *= r.weights[i]
            pts.append(r.nodes[i])
        total += w * f(*pts)
    return total
