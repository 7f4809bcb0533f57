r"""Chiral GUE with an external source term.

The ensemble of $M \times N$ complex Gaussian matrices with density
$\propto e^{-\mathrm{tr}\,X^\dagger X + \mathrm{Re}\,\mathrm{tr}\,X A^\dagger}$
induces, on the eigenvalues $x_i$ of $X^\dagger X$, a biorthogonal ensemble
with $\alpha = M - N \ge 0$ and source parameters $a_i$ (squares of the
singular values of $A$, scaled so $a_i = t_i^2/4$).  Its two families are

$$ \eta_k(x) = (-1)^{k-1} (k-1)!\, L^\alpha_{k-1}(x), \qquad
   \xi_i(x) = w_\alpha(x, a_i)
            = \frac{x^\alpha e^{-x}}{\Gamma(\alpha+1)}\,_0F_1(\alpha+1; a_i x), $$

for which the Gram matrix is exactly $g_{i,j} = a_j^{i-1} e^{a_j}$.  This
module provides the closed-form Gram, type I/II functions, the kernel as a
staircase sum (with the paper's residue-sum integral as a reference), the
confluent (coalescing-$a_i$) weight construction, and the finite-rank
decomposition of the kernel.

The type I function and the kernel are divided differences over the
sources, all given at once by one Opitz column (:func:`_dd_column`), so
they accept coincident sources.  The joint density is the generic
:func:`~biortho.ensembles.pdf_eval` on :func:`reference_spec`.

Tested contracts, against 50-digit ``mpmath`` references: type I within
``1e-11`` relative, normwise over $x \in [0, 30]$, for $N \le 6$ and
$\alpha \le 2$ with sources clustered ``1e-3`` to ``1e-10`` apart or
coincident; the kernel within ``1e-12`` relative at the far-tail points
$(x, y) = (25, 2), (20, 30), (12, 1), (10, 10)$ for $N = 3$ sources of
order one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import expm

from .ensembles import EnsembleSpec
from .errors import DomainError
from .multipoly import Composition, WeightSystem, xi_family
from .numerics import (
    bidiagonal_series,
    check_gram_size,
    gauss_laguerre,
    hyp0f1,
    laguerre,
    log_gamma,
)

__all__ = [
    "ChgueParams",
    "ConfluentSpec",
    "w_alpha",
    "scaled_laguerre_eta",
    "ensemble_spec",
    "confluent_spec",
    "reference_spec",
    "chgue_gram",
    "chgue_kernel",
    "staircase_functions",
    "residue_kernel",
    "chgue_type_one",
    "chgue_type_two",
    "kernel_sum_check",
    "confluent_weights",
    "laguerre_cd_kernel",
    "rank_decomposition",
]

@dataclass(frozen=True)
class ChgueParams:
    """alpha = M - N >= 0 and the N source parameters a_i >= 0."""

    alpha: float
    a: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if not all(math.isfinite(v) for v in (self.alpha, *self.a)):
            raise DomainError(
                f"chGUE parameters must be finite, got alpha={self.alpha}, a={self.a}"
            )
        if self.alpha < 0:
            raise DomainError(f"chGUE requires alpha = M - N >= 0, got {self.alpha}")
        if len(self.a) < 1:
            raise DomainError("ChgueParams needs at least one source parameter")
        if any(v < 0 for v in self.a):
            raise DomainError(f"source parameters must be >= 0, got {self.a}")
        check_gram_size(len(self.a), "ChgueParams")

    @property
    def n(self) -> int:
        return len(self.a)


def w_alpha(alpha: float, a: float) -> Callable:
    r"""The source-deformed weight
    $w_\alpha(x, a) = x^\alpha e^{-x}\,_0F_1(\alpha+1; a x)/\Gamma(\alpha+1)$
    on $x \ge 0$; $w_\alpha(x, 0) = x^\alpha e^{-x}/\Gamma(\alpha+1)$ is the
    normalized gamma density."""
    if alpha <= -1:
        raise DomainError(f"w_alpha requires alpha > -1, got {alpha}")
    if a < 0:
        raise DomainError(f"w_alpha requires a >= 0, got {a}")
    norm = math.exp(-log_gamma(alpha + 1))

    def w(x):
        x = np.asarray(x, dtype=float)
        return x**alpha * np.exp(-x) * norm * hyp0f1(alpha + 1, a * x)

    return w


def scaled_laguerre_eta(alpha: float, k: int) -> Callable:
    r"""$\eta_k(x) = (-1)^{k-1}(k-1)!\,L^\alpha_{k-1}(x)$ — a monic
    polynomial of degree $k-1$, the conditioning-friendly choice that makes
    the Gram matrix exactly $a_j^{i-1} e^{a_j}$."""
    if k < 1:
        raise DomainError(f"eta index must be >= 1, got {k}")
    sign_fact = (-1.0) ** (k - 1) * math.factorial(k - 1)
    return lambda x: sign_fact * laguerre(k - 1, alpha, np.asarray(x, dtype=float))


def ensemble_spec(p: ChgueParams, n_quad: int = 64) -> EnsembleSpec:
    """The chGUE-with-source ensemble as a generic biorthogonal spec (for
    cross-checks against the closed forms).  Requires distinct a_i, else the
    Gram matrix is singular."""
    quad = gauss_laguerre(n_quad, p.alpha)
    eta = tuple(scaled_laguerre_eta(p.alpha, k) for k in range(1, p.n + 1))
    xi = tuple(w_alpha(p.alpha, ai) for ai in p.a)
    return EnsembleSpec(n=p.n, eta=eta, xi=xi, quad=quad)


def confluent_spec(c: ConfluentSpec, alpha: float) -> EnsembleSpec:
    r"""The coalesced-source ensemble as a generic biorthogonal spec, the
    independent reference for the staircase at coincident sources: the
    $\eta$ family of :func:`scaled_laguerre_eta` (the same span as the
    monomials, far better conditioned), and the $\xi$ family
    $x^j w^{(i)}(x)$ of the :func:`confluent_weights` system."""
    ws, comp = confluent_weights(c, alpha)
    n = comp.weight
    eta = tuple(scaled_laguerre_eta(alpha, k) for k in range(1, n + 1))
    xi = tuple(xi_family(ws, comp))
    return EnsembleSpec(n=n, eta=eta, xi=xi, quad=ws.quad)


def reference_spec(p: ChgueParams) -> EnsembleSpec:
    """The generic spec the closed forms are checked against:
    :func:`confluent_spec` when some sources repeat exactly (their
    :func:`ensemble_spec` columns would repeat too), else :func:`ensemble_spec`."""
    targets = sorted(set(p.a), reverse=True)
    if len(targets) == p.n:
        return ensemble_spec(p)
    mult = Composition(tuple(p.a.count(b) for b in targets))
    return confluent_spec(ConfluentSpec(b=tuple(targets), m=mult), p.alpha)


def chgue_gram(p: ChgueParams) -> NDArray[np.float64]:
    r"""Closed-form Gram matrix $g_{i,j} = a_j^{i-1} e^{a_j}$ (with the
    convention $0^0 = 1$); no quadrature involved."""
    a = np.asarray(p.a, dtype=float)
    powers = np.vstack([a**i for i in range(p.n)])
    powers[0] = 1.0
    return powers * np.exp(a)


# ---------------------------------------------------------------------------
# divided differences and the closed forms built on them
# ---------------------------------------------------------------------------

def _arguments(v, what: str) -> NDArray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v) & (v >= 0)):
        raise DomainError(f"{what} requires finite arguments >= 0")
    return v


def _weight_factor(alpha: float, y: NDArray) -> NDArray:
    return y**alpha * np.exp(-y - log_gamma(alpha + 1))


def _dd_column(alpha: float, a: NDArray, y: NDArray) -> NDArray:
    r"""Every prefix divided difference $f_y[a_1..a_k]$, $k = 1..N$, of
    $f_y(v) = e^{-v}\,_0F_1(\alpha+1; y v)$, with shape ``(N,) + y.shape``:
    by Opitz's theorem the first column $e^{-J}\,_0F_1(\alpha+1; yJ)\, e_1$
    of $f_y(J)$, with the series from
    :func:`~biortho.numerics.bidiagonal_series`.  Repeated sources need no
    special case; the product with $e^{-J}$ cancels as $N$ grows."""
    j = np.diag(a) + np.eye(a.size, k=-1)
    return np.tensordot(expm(-j), bidiagonal_series(a, y, alpha + 1), axes=1)


def chgue_type_one(p: ChgueParams) -> Callable:
    r"""The type I function
    $Q(x) = \frac{x^\alpha e^{-x}}{\Gamma(\alpha+1)}\, f_x[a_1..a_N]$,
    the divided difference of $f_x(v) = e^{-v}\,_0F_1(\alpha+1; x v)$ over
    the source parameters; for distinct sources it equals
    $\sum_i \xi_i(x)\, e^{-a_i} / \prod_{j\ne i}(a_i - a_j)$.  Coincident
    sources are allowed (the divided difference turns into derivatives).
    Returns a vectorized evaluator on $x \ge 0$."""
    a = np.asarray(p.a, dtype=float)

    def q(x):
        x = _arguments(x, "chgue_type_one")
        out = _weight_factor(p.alpha, x) * _dd_column(p.alpha, a, x)[-1]
        return float(out) if out.ndim == 0 else out

    return q


def _type_two_family(alpha: float, a: NDArray, x: NDArray) -> NDArray:
    r"""$P_0, \dots, P_N$ at ``x``, shape ``(N + 1,) + x.shape``: $P_k(x) =
    (-1)^k \sum_m e_{k-m}(a_1..a_k)\, m!\, L^\alpha_m(x)$ is the monic type II
    polynomial on the first $k$ sources.  One recurrence run gives every
    $m!\, L^\alpha_m$; no monomial coefficients (which cancel) are formed."""
    n = a.size
    lag = np.empty((n + 1,) + x.shape)
    lag[0] = 1.0
    if n:
        lag[1] = alpha + 1.0 - x
    for m in range(1, n):
        lag[m + 1] = (2 * m + alpha + 1 - x) * lag[m] - m * (m + alpha) * lag[m - 1]
    # coef[k, m] = (-1)^k e_{k-m}(a_1..a_k), adding one source per row
    coef = np.zeros((n + 1, n + 1))
    coef[0, 0] = 1.0
    for k in range(1, n + 1):
        coef[k, 1:] = -coef[k - 1, :-1]
        coef[k] -= a[k - 1] * coef[k - 1]
    return np.tensordot(coef, lag, axes=1)


def chgue_type_two(p: ChgueParams) -> Callable:
    r"""The monic type II polynomial
    $P(x) = (-1)^N \sum_{n=0}^N n!\, e_{N-n}(a)\, L^\alpha_n(x)$ for any
    (coincident included) sources, as a vectorized evaluator; a scalar ``x``
    gives a float."""
    a = np.asarray(p.a, dtype=float)

    def poly(x):
        out = _type_two_family(p.alpha, a, np.asarray(x, dtype=float))[-1]
        return float(out) if out.ndim == 0 else out

    return poly


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def staircase_functions(p: ChgueParams, x, y) -> tuple[NDArray, NDArray]:
    r"""The biorthogonal staircase pair: $P_0, \dots, P_{N-1}$ at ``x`` and
    $Q_1, \dots, Q_N$ at ``y``, as arrays of shape ``(N,) + x.shape`` and
    ``(N,) + y.shape``.

    $P_k$ is the monic type II polynomial on $(a_1..a_k)$ ($P_0 = 1$) and
    $Q_k$ the type I function on $(a_1..a_k)$; all $N$ of the $Q_k$ come
    from one Opitz column.  They satisfy $\int_0^\infty P_i Q_{j+1} =
    \delta_{ij}$ for any order of the sources, coincident ones included."""
    x = _arguments(x, "staircase_functions")
    y = _arguments(y, "staircase_functions")
    a = np.asarray(p.a, dtype=float)
    poly = _type_two_family(p.alpha, a[:-1], x)
    return poly, _weight_factor(p.alpha, y) * _dd_column(p.alpha, a, y)


def chgue_kernel(p: ChgueParams, x, y) -> float | NDArray[np.float64]:
    r"""Correlation kernel as the staircase sum

    $$ K_N(x,y) = \sum_{k=1}^N P_{k-1}(x)\, Q_k(y) $$

    of :func:`staircase_functions`.  ``x`` and ``y`` (finite, ``>= 0``)
    broadcast like numpy arrays; scalars give a float.  Coincident sources
    are allowed.

    Tested contract: relative error at most ``1e-12`` against a 50-digit
    ``mpmath`` kernel built from the Gram matrix $a_j^{i-1} e^{a_j}$, at
    $(x, y) = (25, 2), (20, 30), (12, 1), (10, 10)$ for $N = 3$ sources of
    order one (one pair ``1e-3`` apart included); within ``1e-9`` of the
    confluent generic kernel for coincident sources.  :func:`residue_kernel`
    is the paper's integral form, kept as a reference."""
    x = _arguments(x, "chgue_kernel")
    y = _arguments(y, "chgue_kernel")
    nd = max(x.ndim, y.ndim)
    x = x.reshape((1,) * (nd - x.ndim) + x.shape)
    y = y.reshape((1,) * (nd - y.ndim) + y.shape)
    poly, q = staircase_functions(p, x, y)
    out = np.sum(poly * q, axis=0)
    return float(out) if out.ndim == 0 else out


def residue_kernel(p: ChgueParams, x: float, y: float, n_quad: int | None = None) -> float:
    r"""The paper's residue-sum form of the kernel, the reference that
    :func:`chgue_kernel` is checked against:

    $$ K_N(x,y) = (-1)^{N-1} \frac{y^\alpha e^{x-y}}{\Gamma(\alpha+1)^2}
       \int_0^\infty du\, u^\alpha e^{-u}\,_0F_1(\alpha+1; -xu)\, S(u), $$

    $$ S(u) = \sum_j {}_0F_1(\alpha+1; a_j y)\, e^{-a_j}
       \prod_{\ell\ne j} \frac{u + a_\ell}{a_j - a_\ell}
     = \prod_\ell (u + a_\ell)\, \big[(uI + J)^{-1} f_y(J)\, e_1\big]_N, $$

    one forward solve of the bidiagonal system per rule node, on the Opitz
    column $f_y(J)\, e_1$.  The $(-1)^{N-1}$ comes from the Lagrange
    interpolation behind $S$, which evaluates a degree-$(N-1)$ polynomial at
    $-u$.  The $u$-integral uses a generalized Gauss–Laguerre rule of
    ``2N + 40`` points by default.

    Accuracy note: $S$ grows like $e^{2\sqrt{a_j y}}$ while the kernel decays
    like $e^{-y}$, and the oscillation in $x$ outruns any fixed rule, so this
    form is a bulk-window reference.  Tested contract: within ``1e-9``
    (normwise) of :func:`chgue_kernel` over a 13 x 13 grid on $[0, 12]^2$,
    for $N = 2..6$, $\alpha \in \{0, 1, 2\}$ and sources uniform on
    $[0.1, 2]$; measured ``8.1e-11`` there and ``2.2e-13`` on $[0, 6]^2$."""
    x = float(_arguments(x, "residue_kernel"))
    y = float(_arguments(y, "residue_kernel"))
    a = np.asarray(p.a, dtype=float)
    alpha = p.alpha
    rule = gauss_laguerre(2 * p.n + 40 if n_quad is None else n_quad, alpha)
    u = rule.nodes
    # (uI + J) z = f_y(J) e_1, carried in s_k = prod_{l<=k} (u + a_l) z_k
    s = np.zeros_like(u)
    scale = np.ones_like(u)
    for ak, ck in zip(a, _dd_column(alpha, a, np.asarray(y))):
        s = scale * ck - s
        scale = scale * (u + ak)
    integral = float(np.dot(rule.weights, hyp0f1(alpha + 1, -x * u) * s))
    pref = y**alpha * math.exp(x - y - 2.0 * log_gamma(alpha + 1))
    return (-1.0) ** (p.n - 1) * pref * integral


def kernel_sum_check(p: ChgueParams, x: float, y: float) -> tuple[float, float]:
    r"""The kernel from two algorithms: the residue-sum integral
    (:func:`residue_kernel`) and the staircase sum
    $\sum_{k=1}^N P_{k-1}(x)\, Q_k(y)$ (:func:`chgue_kernel`).  Both read
    one Opitz column, so the sources may come in any order and coincide."""
    return residue_kernel(p, x, y), chgue_kernel(p, x, y)


# ---------------------------------------------------------------------------
# confluent limits and finite-rank decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfluentSpec:
    """Distinct coalescence targets b_1 > ... > b_d >= 0 with multiplicities
    m (|m| = N): the source parameters after taking a_i -> b_k in groups."""

    b: tuple[float, ...]
    m: Composition

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.b) != self.m.d:
            raise DomainError(
                f"need one multiplicity per target, got {len(self.b)} targets "
                f"and {self.m.d} multiplicities"
            )
        if any(x <= y for x, y in zip(self.b, self.b[1:])) or self.b[-1] < 0:
            raise DomainError(f"targets must satisfy b_1 > ... > b_d >= 0, got {self.b}")
        if any(mi < 1 for mi in self.m.parts):
            raise DomainError(f"multiplicities must be >= 1, got {self.m.parts}")

    @property
    def sources(self) -> tuple[float, ...]:
        """The N source parameters: each target b_k repeated m_k times."""
        return tuple(bk for bk, mk in zip(self.b, self.m.parts) for _ in range(mk))


def confluent_weights(c: ConfluentSpec, alpha: float) -> tuple[WeightSystem, Composition]:
    r"""Weight system of the coalesced ensemble.

    Each target $b_k > 0$ of multiplicity $m_k$ contributes the weight pair
    $(w_\alpha(\cdot, b_k), w_{\alpha+1}(\cdot, b_k))$ with multi-index
    parts $(\lfloor (m_k+1)/2 \rfloor, \lfloor m_k/2 \rfloor)$; a final
    target $b_d = 0$ contributes the single weight $w_\alpha(\cdot, 0)$ with
    part $m_d$ (so $D = 2d$ or $2d - 1$).  All weights keep the
    $1/\Gamma(\cdot+1)$ normalization of $w_\alpha$; the constants this
    shifts relative to the bare $x^i w_\alpha$ splitting are absorbed by the
    type I coefficient blocks and never affect orthogonality."""
    weights: list[Callable] = []
    parts: list[int] = []
    for bk, mk in zip(c.b, c.m.parts):
        if bk > 0:
            weights.append(w_alpha(alpha, bk))
            weights.append(w_alpha(alpha + 1, bk))
            parts.append((mk + 1) // 2)
            parts.append(mk // 2)
        else:
            weights.append(w_alpha(alpha, 0.0))
            parts.append(mk)
    ws = WeightSystem(weights=tuple(weights), quad=gauss_laguerre(64, alpha))
    return ws, Composition(tuple(parts))


def laguerre_cd_kernel(alpha: float, n: int, x: float, y: float) -> float:
    r"""The source-free (Laguerre) kernel in Christoffel–Darboux form:

    $$ \bar K_N(x,y) = \frac{N!}{\Gamma(N+\alpha)}\,
       \frac{y^\alpha e^{-y}}{x-y}
       \big( L^\alpha_{N-1}(x) L^\alpha_N(y) - L^\alpha_N(x) L^\alpha_{N-1}(y) \big). $$
    """
    if n < 1:
        raise DomainError(f"laguerre_cd_kernel requires n >= 1, got {n}")
    if abs(x - y) < 1e-12:
        raise DomainError("laguerre_cd_kernel requires x != y (confluent form not provided)")
    pref = math.exp(log_gamma(n + 1) - log_gamma(n + alpha) + alpha * math.log(y) - y)
    lx1, lx = laguerre(n - 1, alpha, x), laguerre(n, alpha, x)
    ly1, ly = laguerre(n - 1, alpha, y), laguerre(n, alpha, y)
    return pref * (lx1 * ly - lx * ly1) / (x - y)


def rank_decomposition(
    p: ChgueParams, r: int, x: float, y: float
) -> tuple[float, float, float]:
    r"""Kernel of a rank-$r$ source, $a = (a_1,\dots,a_r,0,\dots,0)$ with
    $a_1 > \dots > a_r > 0$, split as

    $$ K_N(x,y) = \bar K_{N-r}(x,y) + \sum_{k=1}^r p_k(x)\, q_k(y). $$

    Both parts are terms of one staircase sum (:func:`staircase_functions`)
    over the sources in the order $(0,\dots,0, a_1,\dots,a_r)$: its first
    $N - r$ terms are the source-free (Laguerre) kernel $\bar K_{N-r}$, and
    its last $r$ terms are $p_k = P_{N-r+k-1}$, the monic type II polynomial
    on $(0^{N-r}, a_1..a_{k-1})$, times $q_k = Q_{N-r+k}$, the type I
    function on $(0^{N-r}, a_1..a_k)$.  Returns
    ``(full, unperturbed, correction)`` with ``full = unperturbed + correction``.
    """
    n = p.n
    if not 0 <= r < n:
        raise DomainError(f"rank must satisfy 0 <= r < N, got r={r}, N={n}")
    head = np.asarray(p.a[:r], dtype=float)
    if any(v != 0.0 for v in p.a[r:]):
        raise DomainError(f"expected a = (a_1..a_r, 0..0), got {p.a}")
    if r > 0 and (np.any(head <= 0) or np.any(np.diff(head) >= 0)):
        raise DomainError(f"need a_1 > ... > a_r > 0, got {p.a[:r]}")
    zero_first = ChgueParams(p.alpha, p.a[r:] + p.a[:r])
    poly, q = staircase_functions(zero_first, x, y)
    terms = poly * q
    unperturbed = float(np.sum(terms[: n - r]))
    correction = float(np.sum(terms[n - r :]))
    return unperturbed + correction, unperturbed, correction
