r"""Multiple orthogonal polynomials of type I and II for AT weight systems.

A weight system is a family $w^{(1)},\dots,w^{(D)}$ of positive functions on
the support of one quadrature rule.  For a composition (multi-index)
$\vec n = (n_1,\dots,n_D)$ with weight $N = |\vec n| = \sum_i n_i$:

* the **type I** function $Q_{\vec n}(x) = \sum_i w^{(i)}(x) A^{(i)}(x)$,
  $\deg A^{(i)} = n_i - 1$, is fixed by
  $\int x^j Q_{\vec n} = 0$ for $j \le N-2$ and $= 1$ for $j = N-1$;
* the **type II** polynomial $P_{\vec n}$ is the monic degree-$N$ polynomial
  with $\int w^{(i)} x^j P_{\vec n} = 0$ for $j \le n_i - 1$, every block $i$.

Both are computed by one linear solve against the moment matrix of the
concatenated family $\xi = (x^j w^{(i)})$ — one factorization serves all
evaluation points.  Perfectness of the system is not decidable a priori; it
is detected through singularity (or a condition-number guard) of that moment
matrix at runtime.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.typing import NDArray

from .errors import DomainError, NumericError, NumericWarning
from .numerics import QuadratureRule, check_gram_size, solve

__all__ = [
    "Composition",
    "WeightSystem",
    "TypeIFunction",
    "TypeIIPolynomial",
    "xi_family",
    "type_one",
    "type_two",
    "check_ortho_one",
    "check_ortho_two",
    "staircase_path",
    "biortho_sequence",
]

_COND_WARN = 1e10
_COND_FAIL = 1e13


@dataclass(frozen=True)
class Composition:
    """Multi-index (n_1, ..., n_D) of nonnegative integers, D >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if len(self.parts) < 1:
            raise DomainError("Composition needs at least one part")
        if any(p < 0 for p in self.parts):
            raise DomainError(f"Composition parts must be nonnegative, got {self.parts}")

    @property
    def weight(self) -> int:
        """|n| = sum of the parts."""
        return sum(self.parts)

    @property
    def d(self) -> int:
        return len(self.parts)


@dataclass
class WeightSystem:
    """D positive weights sharing one support, with the quadrature rule used
    for every moment integral; the rule's nodes span the support."""

    weights: tuple[Callable, ...]
    quad: QuadratureRule

    def __post_init__(self):
        self.weights = tuple(self.weights)
        if not self.weights:
            raise DomainError("WeightSystem needs at least one weight")

    @property
    def d(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def at_nodes(self) -> NDArray[np.float64]:
        """The weights at the rule's nodes, shape ``(D, M)``; evaluated once."""
        return np.array([w(self.quad.nodes) for w in self.weights])


def _check_parts(ws: WeightSystem, comp: Composition) -> None:
    if comp.d != ws.d:
        raise DomainError(
            f"composition has {comp.d} parts but weight system has {ws.d} weights"
        )


def xi_family(ws: WeightSystem, comp: Composition) -> list[Callable]:
    r"""The concatenated family $x^j w^{(i)}(x)$, $j = 0..n_i-1$, in block
    order — length $|\vec n|$.  Blocks with $n_i = 0$ contribute nothing."""
    _check_parts(ws, comp)
    fams: list[Callable] = []
    for i, ni in enumerate(comp.parts):
        w = ws.weights[i]
        for j in range(ni):
            fams.append(lambda x, w=w, j=j: np.asarray(x, dtype=float) ** j * w(x))
    return fams


def _moment_matrix(
    ws: WeightSystem, comp: Composition, rows: int, f: NDArray | float = 1.0
) -> NDArray[np.float64]:
    r"""rows x |n| matrix $M_{j,(i,p)} = \int x^{j+p} w^{(i)} f\,dx$ in
    block order, with ``f`` given at the rule's nodes: one moment table per
    weight, sliced once per block."""
    _check_parts(ws, comp)
    table = ws.quad.moments(ws.at_nodes * f, rows + max(comp.parts))
    block = np.repeat(np.arange(comp.d), comp.parts)
    power = np.concatenate([np.arange(ni) for ni in comp.parts])
    return table[block, np.arange(rows)[:, None] + power]


def _guard_condition(m: NDArray, what: str) -> None:
    if m.size == 0:
        return
    cond = float(np.linalg.cond(m))
    if cond > _COND_FAIL:
        raise NumericError(
            f"{what}: moment matrix condition {cond:.3g} exceeds 1e13; "
            f"system too ill-conditioned at this size"
        )
    if cond > _COND_WARN:
        warnings.warn(
            f"{what}: moment matrix condition {cond:.3g} exceeds 1e10; "
            f"results may lose up to {int(np.log10(cond))} digits",
            NumericWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class TypeIFunction:
    r"""$Q_{\vec n}(x) = \sum_i w^{(i)}(x)\, A^{(i)}(x)$ with coefficient
    blocks ``blocks[i]`` (ascending degree, length $n_i$)."""

    composition: Composition
    blocks: tuple[NDArray[np.float64], ...]
    system: WeightSystem

    def __call__(self, x) -> NDArray[np.float64] | float:
        x = np.asarray(x, dtype=float)
        xa = np.atleast_1d(x)
        total = np.zeros_like(xa)
        for i, coeffs in enumerate(self.blocks):
            if coeffs.size:
                total += self.system.weights[i](xa) * npoly.polyval(xa, coeffs)
        return float(total[0]) if x.ndim == 0 else total


@dataclass(frozen=True)
class TypeIIPolynomial:
    """Monic polynomial of degree |n|; ``coeffs`` ascending, leading 1."""

    composition: Composition
    coeffs: NDArray[np.float64]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if abs(c[-1] - 1.0) > 1e-12:
            raise NumericError(f"type II polynomial not monic: leading coeff {c[-1]}")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x) -> NDArray[np.float64] | float:
        x = np.asarray(x, dtype=float)
        out = npoly.polyval(x, self.coeffs)
        return float(out) if x.ndim == 0 else out


def type_one(ws: WeightSystem, comp: Composition) -> TypeIFunction:
    r"""Type I function from the $N \times N$ moment system
    $\int x^j Q = \delta_{j, N-1}$, $j = 0..N-1$ (unique when the system is
    perfect for this data; singularity raises with the pivot index)."""
    n = comp.weight
    if n < 1:
        raise DomainError("type_one requires |n| >= 1")
    check_gram_size(n, "type_one composition weight")
    m = _moment_matrix(ws, comp, n)
    _guard_condition(m, "type_one")
    # the moments against 1, ..., x^(N-2) vanish and the last one is 1
    blocks = np.split(solve(m, np.eye(n)[-1]), np.cumsum(comp.parts)[:-1])
    return TypeIFunction(composition=comp, blocks=tuple(blocks), system=ws)


def type_two(ws: WeightSystem, comp: Composition) -> TypeIIPolynomial:
    r"""Monic type II polynomial from the moment system
    $\int w^{(i)} x^j P = 0$, $j = 0..n_i-1$ for every block (N conditions
    on the N non-leading coefficients)."""
    n = comp.weight
    check_gram_size(n, "type_two composition weight")
    # column (i, j) holds the moments of x^j w_i against 1, x, ..., x^n
    m = _moment_matrix(ws, comp, n + 1)
    if n == 0:
        return TypeIIPolynomial(composition=comp, coeffs=np.array([1.0]))
    _guard_condition(m[:n].T, "type_two")
    low = solve(m[:n].T, -m[n])
    return TypeIIPolynomial(composition=comp, coeffs=np.append(low, 1.0))


def check_ortho_one(q: TypeIFunction) -> NDArray[np.float64]:
    r"""Quadrature values of $\int x^j Q$, $j = 0..N-1$ (the last should be
    1, the rest 0); returned raw for the caller to compare."""
    rule = q.system.quad
    return rule.moments(q(rule.nodes), q.composition.weight)


def check_ortho_two(
    p: TypeIIPolynomial, ws: WeightSystem, comp: Composition
) -> NDArray[np.float64]:
    r"""Quadrature values of every $\int w^{(i)} x^j P$, $j = 0..n_i-1$,
    blocks concatenated; all should vanish."""
    return _moment_matrix(ws, comp, 1, p(ws.quad.nodes))[0]


def staircase_path(comp: Composition) -> list[Composition]:
    """The default nested path: fill block 1, then block 2, ... — a list of
    |n|+1 compositions from the zero multi-index up to ``comp``."""
    path = []
    parts = [0] * comp.d
    path.append(Composition(tuple(parts)))
    for i, ni in enumerate(comp.parts):
        for _ in range(ni):
            parts[i] += 1
            path.append(Composition(tuple(parts)))
    return path


def _validate_path(path: Sequence[Composition], comp: Composition) -> None:
    n = comp.weight
    if len(path) != n + 1:
        raise DomainError(f"path must have |n|+1 = {n + 1} steps, got {len(path)}")
    if path[0].weight != 0 or path[-1].parts != comp.parts:
        raise DomainError("path must run from the zero multi-index to the target")
    for a, b in zip(path, path[1:]):
        if b.weight != a.weight + 1 or any(
            bj < aj for aj, bj in zip(a.parts, b.parts)
        ):
            raise DomainError("path steps must be nested and increase |n| by one")


def biortho_sequence(
    ws: WeightSystem,
    comp: Composition,
    path: Sequence[Composition] | None = None,
) -> tuple[list[TypeIIPolynomial], list[TypeIFunction]]:
    r"""The biorthogonal pairs along a nested path: $P_i$ for the path's
    $i$-th multi-index and $Q_i$ for its $(i+1)$-th, $i = 0..N-1$, so that
    $\int P_i Q_j = \delta_{i,j}$.  Default path is the left-to-right
    staircase; any nested path may be passed explicitly."""
    n = comp.weight
    if n < 1:
        raise DomainError("biortho_sequence requires |n| >= 1")
    if path is None:
        path = staircase_path(comp)
    else:
        path = list(path)
        _validate_path(path, comp)
    ps: list[TypeIIPolynomial] = []
    qs: list[TypeIFunction] = []
    for i in range(n):
        try:
            ps.append(type_two(ws, path[i]))
            qs.append(type_one(ws, path[i + 1]))
        except NumericError as exc:
            raise NumericError(
                f"biortho_sequence failed at path step {i} "
                f"(multi-index {path[i + 1].parts}): {exc}"
            ) from exc
    return ps, qs
