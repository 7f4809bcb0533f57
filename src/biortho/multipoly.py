r"""Multiple orthogonal polynomials of type I and II for AT weight systems.

A weight system is a family $w^{(1)},\dots,w^{(D)}$ of positive functions on
a common interval.  For a composition (multi-index) $\vec n = (n_1,\dots,n_D)$
with weight $N = |\vec n| = \sum_i n_i$:

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

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.typing import NDArray

from .ensembles import Interval
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
    for every moment integral.  Moments are cached per (weight, power)."""

    weights: tuple[Callable, ...]
    interval: Interval
    quad: QuadratureRule
    _weight_values: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.weights = tuple(self.weights)
        if not self.weights:
            raise DomainError("WeightSystem needs at least one weight")

    @property
    def d(self) -> int:
        return len(self.weights)

    def _values(self, i: int) -> NDArray[np.float64]:
        """dx-weighted values of w_i at the quadrature nodes."""
        if i not in self._weight_values:
            self._weight_values[i] = self.quad.dx_weights * self.weights[i](self.quad.nodes)
        return self._weight_values[i]

    def moment(self, i: int, j: int) -> float:
        r"""$\int_I w^{(i)}(x)\, x^j\, dx$ by quadrature (cached)."""
        key = ("m", i, j)
        if key not in self._weight_values:
            self._weight_values[key] = float(np.dot(self._values(i), self.quad.nodes**j))
        return self._weight_values[key]


def xi_family(ws: WeightSystem, comp: Composition) -> list[Callable]:
    r"""The concatenated family $x^j w^{(i)}(x)$, $j = 0..n_i-1$, in block
    order — length $|\vec n|$.  Blocks with $n_i = 0$ contribute nothing."""
    if comp.d != ws.d:
        raise DomainError(
            f"composition has {comp.d} parts but weight system has {ws.d} weights"
        )
    fams: list[Callable] = []
    for i, ni in enumerate(comp.parts):
        w = ws.weights[i]
        for j in range(ni):
            fams.append(lambda x, w=w, j=j: np.asarray(x, dtype=float) ** j * w(x))
    return fams


def _moment_matrix(ws: WeightSystem, comp: Composition, rows: int) -> NDArray[np.float64]:
    """rows x |n| matrix M[j, col] = integral x^j xi_col dx in block order."""
    cols = []
    for i, ni in enumerate(comp.parts):
        for p in range(ni):
            cols.append(np.array([ws.moment(i, j + p) for j in range(rows)]))
    return np.column_stack(cols) if cols else np.zeros((rows, 0))


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
        scalar = x.ndim == 0
        total = np.zeros_like(np.atleast_1d(x))
        xa = np.atleast_1d(x)
        for i, coeffs in enumerate(self.blocks):
            if coeffs.size:
                total += self.system.weights[i](xa) * npoly.polyval(xa, coeffs)
        return float(total[0]) if scalar else total


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
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    coeffs = solve(m, rhs)
    blocks = []
    pos = 0
    for ni in comp.parts:
        blocks.append(np.array(coeffs[pos : pos + ni]))
        pos += ni
    return TypeIFunction(composition=comp, blocks=tuple(blocks), system=ws)


def type_two(ws: WeightSystem, comp: Composition) -> TypeIIPolynomial:
    r"""Monic type II polynomial from the moment system
    $\int w^{(i)} x^j P = 0$, $j = 0..n_i-1$ for every block (N conditions
    on the N non-leading coefficients)."""
    n = comp.weight
    check_gram_size(n, "type_two composition weight")
    if comp.d != ws.d:
        raise DomainError(
            f"composition has {comp.d} parts but weight system has {ws.d} weights"
        )
    if n == 0:
        return TypeIIPolynomial(composition=comp, coeffs=np.array([1.0]))
    rows = np.empty((n, n))
    rhs = np.empty(n)
    r = 0
    for i, ni in enumerate(comp.parts):
        for j in range(ni):
            rows[r] = [ws.moment(i, j + k) for k in range(n)]
            rhs[r] = -ws.moment(i, j + n)
            r += 1
    _guard_condition(rows, "type_two")
    low = solve(rows, rhs)
    return TypeIIPolynomial(composition=comp, coeffs=np.append(low, 1.0))


def check_ortho_one(q: TypeIFunction) -> NDArray[np.float64]:
    r"""Quadrature values of $\int x^j Q$, $j = 0..N-1$ (the last should be
    1, the rest 0); returned raw for the caller to compare."""
    ws = q.system
    t = ws.quad.nodes
    vals = ws.quad.dx_weights * q(t)
    n = q.composition.weight
    return np.array([float(np.dot(vals, t**j)) for j in range(n)])


def check_ortho_two(
    p: TypeIIPolynomial, ws: WeightSystem, comp: Composition
) -> NDArray[np.float64]:
    r"""Quadrature values of every $\int w^{(i)} x^j P$, $j = 0..n_i-1$,
    blocks concatenated; all should vanish."""
    t = ws.quad.nodes
    pv = p(t)
    out = []
    for i, ni in enumerate(comp.parts):
        wv = ws.quad.dx_weights * ws.weights[i](t) * pv
        for j in range(ni):
            out.append(float(np.dot(wv, t**j)))
    return np.array(out)


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
