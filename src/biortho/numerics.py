r"""Special functions, combinatorial polynomials, quadrature, and small dense
linear algebra shared by every other module.

Conventions
-----------
* "Matrix" throughout the package means a dense 2-d ``numpy.ndarray`` (real or
  complex).  :func:`solve` wraps LU with partial pivoting and raises
  :class:`~biortho.errors.SingularMatrixError` carrying the offending pivot
  index when a pivot falls below ``1e-13`` times the matrix row norm.
* The one module that sums a power series: :func:`hyp0f1` (scipy's, with
  overflow reported) and :func:`bidiagonal_series` (every Opitz column).
* Quadrature rules integrate in the *weighted* sense of their family:
  an ``n``-point generalized Gauss–Laguerre rule approximates
  $\int_0^\infty f(x)\,x^\alpha e^{-x}\,dx \approx \sum_i w_i f(x_i)$,
  a Gauss–Legendre rule approximates the plain integral over ``[a, b]``.
  Both are built by scipy, to the accuracy each states against ``mpmath``;
  Laguerre rules need $\alpha \le 170.62$.
  A rule is the whole description of a support and its measure: every
  integral of the package is taken on one.  Its
  :attr:`~QuadratureRule.dx_weights` give the plain ``dx`` measure, and
  :meth:`~QuadratureRule.moments` is the one place that forms the moments
  $\int x^j f\,dx$.
* All arithmetic is double precision; ensemble sizes are capped at
  ``N <= 12`` by default, the largest size any accuracy contract was tested
  at (each states its own range).  ``BIORTHO_MAX_N`` raises the cap; results
  past 12 are covered by no contract.
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
from numpy.typing import ArrayLike, NDArray
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.special import gammaln, ive, legendre_p, roots_genlaguerre, roots_legendre
from scipy.special import hyp0f1 as _scipy_hyp0f1

from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    NumericError,
    SingularMatrixError,
)

__all__ = [
    "laguerre",
    "hyp0f1",
    "bidiagonal_series",
    "log_gamma",
    "elem_sym",
    "solve",
    "QuadratureRule",
    "gauss_legendre",
    "gauss_laguerre",
    "integrate_nd",
    "max_gram_size",
    "check_gram_size",
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


def check_gram_size(n: int, what: str) -> None:
    """Raises :class:`CapacityError` when the size ``n`` of ``what`` exceeds
    :func:`max_gram_size`."""
    cap = max_gram_size()
    if n > cap:
        raise CapacityError(
            f"{what}: N = {n} exceeds the N <= {cap} guard "
            f"(set BIORTHO_MAX_N to override; accuracy contracts void)"
        )


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


_LOG_MAX = math.log(np.finfo(float).max)


def hyp0f1(c: float, z) -> NDArray[np.float64] | float:
    r"""Confluent hypergeometric limit function
    $_0F_1(c; z) = \sum_k z^k / ((c)_k\, k!)$, from
    :func:`scipy.special.hyp0f1`.  ``z`` may be a scalar or an array.

    Raises :class:`ConvergenceError` (``partial`` holds the values, ``inf``
    where they overflow) wherever the value overflows a double.  Past
    $2\sqrt z = \ln(\mathrm{DBL\_MAX})$ the magnitude is first taken from
    the scaled Bessel function, since scipy's own overflow branch divides by
    $c - 1$ (at $c = 1$ it prints the error and returns 0.0).

    For $c > 171$ and $z < 0$, where scipy's $\Gamma(c)$ factor overflows,
    the Taylor series (:func:`bidiagonal_series`) serves $-c \le z < 0$:
    there its alternating terms cancel by at most
    $_0F_1(c; c) / {}_0F_1(c; -c) < e^2$.  Below $-c$ it raises
    :class:`DomainError`.

    Tested contract: within ``1e-13`` of 50-digit ``mpmath`` for
    $c \in \{1, 1.5, 2, 3, 4.5\}$ and $z \in [-2000, 800]$, relative to the
    value for $z \ge 0$ and to $\Gamma(c)\,|z|^{-(c-1)/2 - 1/4}$ for $z < 0$;
    within ``1e-14`` relative for $c > 171$, $-c \le z < 0$ (measured
    ``6e-16`` over $c \in [171.2, 2000]$).
    """
    if c <= 0 and float(c).is_integer():
        raise DomainError(f"hyp0f1 parameter c must not be a non-positive integer, got {c}")
    z = np.asarray(z, dtype=float)
    over = np.asarray(z > (_LOG_MAX / 2) ** 2)
    if np.any(over):
        # ln|0F1| = ln|Gamma(c)| + (1 - c) ln r + 2r + ln ive(c - 1, 2r), r = sqrt z
        r = np.sqrt(z[over])
        with np.errstate(divide="ignore", invalid="ignore"):  # z = inf gives nan
            log_abs = gammaln(c) + (1 - c) * np.log(r) + 2 * r + np.log(ive(c - 1, 2 * r))
        over[over] = ~(log_abs < _LOG_MAX)
    out = np.where(over, np.inf, _scipy_hyp0f1(c, np.where(over, 0.0, z)))
    if c > 171:
        # there scipy's z < 0 branch returns nan: its Gamma(c) overflows
        neg = np.asarray(z < 0)
        if np.any(z[neg] < -c):
            raise DomainError(
                f"hyp0f1 at c = {c} > 171 needs z >= -c where z < 0, got {np.min(z[neg])}"
            )
        out[neg] = bidiagonal_series([1.0], z[neg], c)[0]
    if not np.all(np.isfinite(out)):
        raise ConvergenceError(f"hyp0f1 overflows a double (c={c})", partial=out)
    return float(out) if out.ndim == 0 else out


_SERIES_RTOL = np.finfo(float).eps
_SERIES_MAX_TERMS = 500


def bidiagonal_series(diag, z, c: float | None = None) -> NDArray[np.float64]:
    r"""First column of $\sum_k (zJ)^k / d_k$, shape ``(N,) + z.shape``, for
    $J$ lower bidiagonal with ``diag`` on its diagonal and ones below it:
    $e^{zJ} e_1$ ($d_k = k!$, ``c=None``) or $_0F_1(c; zJ)\, e_1$
    ($d_k = (c)_k\, k!$).  By Opitz's theorem row $k$ is the divided
    difference of $e^{zv}$ or $_0F_1(c; zv)$ over the first $k$ entries of
    ``diag``, repeated entries included.

    Sums until every term is within ``eps`` of its running total, in at most
    500 terms, else (or if the sum is not finite) raises
    :class:`ConvergenceError`.  When the inputs make every term
    non-negative, the test takes no absolute value."""
    diag = np.asarray(diag, dtype=float)
    z = np.asarray(z, dtype=float)
    signed = not (np.all(diag >= 0) and np.all(z >= 0) and (c is None or c > 0))
    diag = diag.reshape((diag.size,) + (1,) * z.ndim)
    term = np.zeros(diag.shape[:1] + z.shape)
    term[0] = 1.0
    total = term.copy()
    # an overflowing series ends in inf/nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_SERIES_MAX_TERMS):
            jt = diag * term
            jt[1:] += term[:-1]
            term = jt * (z / ((k + 1) if c is None else (c + k) * (k + 1)))
            total += term
            if signed:
                done = np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total))
            else:
                done = np.all(term <= _SERIES_RTOL * total)
            if done:
                break
    if not (done and np.all(np.isfinite(total))):
        raise ConvergenceError(
            f"bidiagonal series did not converge to a finite value in "
            f"{_SERIES_MAX_TERMS} terms (c={c}, max|z|={np.max(np.abs(z), initial=0):.3g})",
            partial=total,
        )
    return total


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


# ---------------------------------------------------------------------------
# small dense linear algebra
# ---------------------------------------------------------------------------

_PIVOT_RTOL = 1e-13


def solve(m: NDArray, rhs: NDArray) -> NDArray:
    """Solve ``m @ x = rhs`` by LU with partial pivoting; raises
    :class:`SingularMatrixError` (with the pivot index) for singular ``m``."""
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
    return lu_solve((lu, piv), np.asarray(rhs), check_finite=True)


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
        # array methods, not np.all/np.diff, which cost microseconds each:
        # the ratio oracle builds a rule per panel on every call
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise NumericError("QuadratureRule: non-finite node or weight")
        if self.nodes.size > 1 and not (self.nodes[1:] > self.nodes[:-1]).all():
            raise NumericError("QuadratureRule: nodes not strictly increasing")
        if not (self.weights > 0).all():
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

    def moments(self, values: ArrayLike, n: int) -> NDArray[np.float64]:
        r"""$\int x^j f(x)\,dx$ for $j = 0..n-1$ with the dx weights, where
        ``values`` holds $f$ at the nodes along its last axis; one row of
        moments per leading index, shape ``values.shape[:-1] + (n,)``.  The
        node sum is numpy's pairwise one; a BLAS product, which sums the
        nodes in sequence, left type II orthogonality residuals about 3x
        larger."""
        weighted = np.asarray(values) * self.dx_weights
        return np.sum(weighted[..., None, :] * self.nodes ** np.arange(n)[:, None], axis=-1)

    def integrate(self, f: Callable) -> float:
        """Weighted-sense integral ``sum(w_i f(x_i))`` with ``f`` vectorized."""
        return float(np.dot(self.weights, f(self.nodes)))


@functools.lru_cache(maxsize=64)
def gauss_laguerre(n: int, alpha: float) -> QuadratureRule:
    r"""``n``-point generalized Gauss–Laguerre rule for
    $\int_0^\infty f(x)\, x^\alpha e^{-x}\, dx$, from
    :func:`scipy.special.roots_genlaguerre`.  Weights below the normal range
    are raised to the smallest normal double (n = 200 has one that would be
    zero).  Each ``(n, alpha)`` is solved once per process; the rule's arrays
    are read-only.

    Tested contract, for n in {20, 64, 120} and alpha in {-0.9, 0, 1.3, 150}
    against 50-digit ``mpmath`` zeros of $L_n^\alpha$ and their weights:
    nodes ``5e-15`` and every weight ``3e-12`` relative (measured ``1.9e-15``
    and ``1.3e-12``).  Past alpha = 170.62, $\Gamma(\alpha + 1)$ overflows
    a double and :class:`NumericError` is raised."""
    if n < 1:
        raise DomainError(f"gauss_laguerre requires n >= 1, got {n}")
    if alpha <= -1:
        raise DomainError(f"gauss_laguerre requires alpha > -1, got {alpha}")
    nodes, weights = roots_genlaguerre(n, alpha)
    if not np.isfinite(weights).all():
        raise NumericError(f"gauss_laguerre needs alpha <= 170.62, where Gamma(alpha + 1) "
                           f"is a finite double, got {alpha}")
    weights = np.maximum(weights, np.finfo(float).tiny)
    return QuadratureRule(nodes, weights, "gauss-laguerre", (alpha,))


@functools.lru_cache(maxsize=64)
def _legendre_unit(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Read-only nodes and weights of the ``n``-point rule on [-1, 1], solved
    once per size: the nodes of ``roots_legendre``, whose own weights are
    ``1e-12`` off at n = 64, and ``2 / ((1 - x^2) P_n'(x)^2)``."""
    nodes = roots_legendre(n)[0]
    weights = 2.0 / ((1.0 - nodes * nodes) * legendre_p(n, nodes, diff_n=1)[1] ** 2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    r"""``n``-point Gauss–Legendre rule for $\int_a^b f(x)\,dx$.  Tested
    contract on [-1, 1] at n = 32 and 64, against 50-digit ``mpmath``: nodes
    ``1e-15`` absolute, weights ``3e-13`` relative (measured ``1.1e-13``)."""
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
