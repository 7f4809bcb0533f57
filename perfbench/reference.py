"""High-precision references, computed with mpmath outside the timed region.

Every reference here is the generic biorthogonal construction carried out in
arbitrary precision: the Gram matrix of the monomials ``x^i`` against a
family of source-deformed weights, from exact moments, then one linear solve.
It shares no code with ``biortho``: the closed forms under test use divided
differences, residue sums and Gauss rules in double precision, while this
module uses moments in closed form (``1F1``) and mpmath's own ``0F1``.

A family member ``(alpha, b, p)`` is the function
``x^p * w_alpha(x, b)`` with
``w_alpha(x, b) = x^alpha e^{-x} 0F1(alpha+1; b x) / Gamma(alpha+1)``.
"""
from __future__ import annotations

import math
from typing import Sequence

import mpmath

Member = tuple[float, float, int]


def chgue_family(alpha: float, a: Sequence[float]) -> list[Member]:
    """The chGUE xi family ``w_alpha(x, a_i)``."""
    return [(alpha, ai, 0) for ai in a]


def confluent_family(alpha: float, b: Sequence[float], mult: Sequence[int]) -> list[Member]:
    """The coalesced weight system of ``biortho.chgue.confluent_weights``,
    expanded into its ``x^p w`` members (block order does not matter: the
    type I/II functions and the kernel depend only on the spanned space)."""
    out: list[Member] = []
    for bk, mk in zip(b, mult):
        if bk > 0:
            out += [(alpha, bk, p) for p in range((mk + 1) // 2)]
            out += [(alpha + 1, bk, p) for p in range(mk // 2)]
        else:
            out += [(alpha, 0.0, p) for p in range(mk)]
    return out


def _working_dps(family: Sequence[Member]) -> int:
    """Digits to carry: 30 kept, plus what nearly coincident sources and
    factorially growing moments can cancel."""
    bs = sorted(b for _, b, _ in family)
    lost = sum(
        max(0.0, -math.log10(abs(u - v))) for i, u in enumerate(bs) for v in bs[i + 1:] if u != v
    )
    return 30 + 2 * len(family) + int(lost)


class MpSystem:
    """Gram matrix ``g[i][c] = int x^i xi_c`` with ``i < N`` and the
    type I function, type II polynomial and kernel it determines."""

    def __init__(self, family: Sequence[Member]):
        self.family = list(family)
        self.n = len(self.family)
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = _working_dps(self.family)
        n = self.n
        self.gram = self.ctx.matrix(n, n)
        for c, (al, b, p) in enumerate(self.family):
            for i in range(n):
                self.gram[i, c] = self._moment(al, b, p + i)

    def _moment(self, alpha: float, b: float, k: int):
        """int_0^oo x^k w_alpha(x, b) dx
        = Gamma(k+alpha+1)/Gamma(alpha+1) * 1F1(k+alpha+1; alpha+1; b)."""
        ctx = self.ctx
        al, bb = ctx.mpf(alpha), ctx.mpf(b)
        scale = ctx.gamma(k + al + 1) / ctx.gamma(al + 1)
        return scale * ctx.hyp1f1(k + al + 1, al + 1, bb)

    def _xi(self, x: float):
        ctx = self.ctx
        xx = ctx.mpf(x)
        out = []
        for al, b, p in self.family:
            al = ctx.mpf(al)
            w = xx**al * ctx.exp(-xx) * ctx.hyp0f1(al + 1, ctx.mpf(b) * xx) / ctx.gamma(al + 1)
            out.append(xx**p * w)
        return out

    def type_one(self, xs: Sequence[float]) -> list[float]:
        """Q with ``int x^j Q = delta_{j,N-1}``: coefficients from ``g c = e_N``."""
        ctx = self.ctx
        rhs = ctx.matrix(self.n, 1)
        rhs[self.n - 1] = 1
        coef = ctx.lu_solve(self.gram, rhs)
        return [float(ctx.fsum(c * v for c, v in zip(coef, self._xi(x)))) for x in xs]

    def type_two(self, xs: Sequence[float]) -> list[float]:
        """Monic P of degree N with ``int xi_c P = 0``: ``g^T d = -m_N``."""
        ctx = self.ctx
        rhs = ctx.matrix(self.n, 1)
        for c, (al, b, p) in enumerate(self.family):
            rhs[c] = -self._moment(al, b, p + self.n)
        d = ctx.lu_solve(self.gram.T, rhs)
        out = []
        for x in xs:
            xx = ctx.mpf(x)
            out.append(float(xx**self.n + ctx.fsum(d[k] * xx**k for k in range(self.n))))
        return out

    def kernel(self, xs: Sequence[float], ys: Sequence[float]) -> list[list[float]]:
        """``K(x, y) = xi(y) . g^{-1} eta(x)`` with ``eta_i = x^i``."""
        ctx = self.ctx
        xis = [self._xi(y) for y in ys]
        rows = []
        for x in xs:
            xx = ctx.mpf(x)
            u = ctx.lu_solve(self.gram, ctx.matrix([xx**i for i in range(self.n)]))
            rows.append([float(ctx.fsum(a * b for a, b in zip(xi, u))) for xi in xis])
        return rows
