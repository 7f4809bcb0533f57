r"""The paper's identities as named checks, one function per identity.

Each check compares two algorithms for one quantity (a closed form against
quadrature, the staircase kernel against the residue integral or the
generic Gram kernel of :func:`~biortho.chgue.reference_spec`, Monte Carlo
against a closed form) and returns its residuals by name.  :data:`SUITES`
maps each ``verify --suite`` name to a function
``(params, seed, samples) -> {name: residual}``, to the
:data:`DEFAULT_TOLS` key of each residual, and to the sources it checks
when none are given.  Library calls go through their modules, so wrappers
installed there (a profiler's) see them too.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from . import charpoly, chgue, ensembles, numerics
from .chgue import ChgueParams

DEFAULT_TOLS = {"gram": 1e-8, "kernel": 1e-7, "trace": 1e-6, "ortho": 1e-8, "biortho": 1e-8,
                "corollary": 1e-6, "rankdecomp": 1e-6, "mc-sigma": 3.0, "mc-bins": 0.95}


def rel_dev(v, ref) -> float:
    """``max |v - ref| / max(|ref|, 1e-12)`` over the broadcast arrays."""
    v, ref = np.asarray(v), np.asarray(ref)
    return float(np.max(np.abs(v - ref) / np.maximum(np.abs(ref), 1e-12)))


def biorthogonality(pv: NDArray, qv: NDArray, rule: numerics.QuadratureRule) -> float:
    r"""$\max_{i,j} |\int P_i Q_j - \delta_{ij}|$ for rows of values ``pv``
    and ``qv`` at ``rule``'s nodes."""
    return float(np.max(np.abs((pv * rule.dx_weights) @ qv.T - np.eye(len(pv)))))


def gram(p: ChgueParams) -> dict[str, float]:
    """The closed-form Gram matrix against the quadrature Gram matrix of
    :func:`~biortho.chgue.ensemble_spec` (distinct sources)."""
    closed = chgue.chgue_gram(p)
    return {"gram closed-form vs quadrature": rel_dev(chgue.ensemble_spec(p).gram, closed)}


def kernel_deviation(p: ChgueParams, x, y, kd: ensembles.KernelData | None = None) -> float:
    """Relative deviation of the staircase kernel from the generic Gram kernel
    ``kd`` (by default that of ``reference_spec(p)``) at broadcast points."""
    if kd is None:
        kd = ensembles.build_kernel(chgue.reference_spec(p))
    return rel_dev(chgue.chgue_kernel(p, x, y), ensembles.kernel_eval(kd, x, y))


def kernel(p: ChgueParams, x, y) -> dict[str, float]:
    """The staircase kernel against the generic Gram kernel at the points,
    and the generic kernel's trace against N."""
    kd = ensembles.build_kernel(chgue.reference_spec(p))
    rule = numerics.gauss_laguerre(64, p.alpha)
    trace = float(rule.moments(ensembles.kernel_eval(kd, rule.nodes, rule.nodes), 1)[0])
    return {"closed-form kernel vs generic path": kernel_deviation(p, x, y, kd),
            "kernel trace = N": abs(trace - p.n)}


def ortho(p: ChgueParams) -> dict[str, float]:
    """Type I and type II defining moments of the closed forms, and the
    biorthogonality of the staircase pair, by quadrature."""
    rule = numerics.gauss_laguerre(64, p.alpha)
    m = rule.moments(chgue.chgue_type_one(p)(rule.nodes), p.n)
    # against every xi of the reference, derivative weights included
    xi = np.array([f(rule.nodes) for f in chgue.reference_spec(p).xi])
    xi_moments = rule.moments(xi * chgue.chgue_type_two(p)(rule.nodes), 1)
    # P_i on the first i sources (P_0 = 1) and Q_{j+1} on the first j + 1
    pv, qv = chgue.staircase_functions(p, rule.nodes, rule.nodes)
    return {
        "type I moments vanish": float(np.max(np.abs(m[:-1]))) if p.n > 1 else 0.0,
        "type I final moment = 1": float(abs(m[-1] - 1.0)),
        "type II first moments vanish": float(np.max(np.abs(xi_moments))),
        "staircase biorthogonality": biorthogonality(pv, qv, rule),
    }


def staircase_sum(p: ChgueParams, x, y) -> dict[str, float]:
    """The residue integral against the staircase sum, worst over the
    points ``(x[k], y[k])``; the sources may come in any order."""
    pairs = [chgue.kernel_sum_check(p, xk, yk) for xk, yk in zip(x, y)]
    return {"kernel = staircase sum": max(rel_dev(total, ref) for ref, total in pairs)}


def rank_split(p: ChgueParams, r: int, x, y) -> dict[str, float]:
    """The rank-``r`` split of the kernel against the generic Gram kernel
    of ``reference_spec(p)``, worst over the points ``(x[k], y[k])``."""
    kd = ensembles.build_kernel(chgue.reference_spec(p))
    dev = max(rel_dev(chgue.rank_decomposition(p, r, xk, yk)[0], ensembles.kernel_eval(kd, xk, yk))
              for xk, yk in zip(x, y))
    return {f"rank decomposition N={p.n} r={r}": dev}


def mc(p: ChgueParams, samples: int, seed: int) -> dict[str, float]:
    """One draw of chiral spectra: ``<det(x - X)>`` against the type II
    polynomial in standard errors, and the fraction of ρ₁ histogram bins
    more than 3 sigma from the kernel diagonal (the mc-bins tolerance is a
    least fraction within 3 sigma)."""
    model = charpoly.SourceModel("chiral", p.n, p.a, p.alpha)  # rejects a non-integer alpha
    lam = charpoly.sample_spectra(model, seed, samples)
    exact = chgue.chgue_type_two(p)
    estimates = {x: charpoly.charpoly_estimate(lam, x, seed) for x in (0.8, 2.5)}
    sigmas = [abs(e.value - exact(x)) / max(e.std_error, 1e-300) for x, e in estimates.items()]
    report = charpoly.rho1_report(model, lam, bins=40)
    return {"MC <det> vs type II (sigmas)": max(sigmas),
            "rho1 histogram bins outside 3 sigma (fraction)": 1.0 - report.fraction_within}


def _points(seed: int) -> NDArray[np.float64]:
    """Five points ``(x, y)`` uniform on [0.2, 6]², as the rows x and y."""
    return np.random.default_rng(seed).uniform(0.2, 6.0, size=(5, 2)).T


_SOURCES = ((1.3, 0.7, 0.2),)

# rankdecomp splits at r = the number of non-zero sources, by default one
# system of rank 1 and one of rank 2
SUITES: dict[str, tuple[Callable[..., dict[str, float]], tuple[str, ...],
                        tuple[tuple[float, ...], ...]]] = {
    "gram": (lambda p, seed, samples: gram(p), ("gram",), _SOURCES),
    "kernel": (lambda p, seed, samples: kernel(p, *_points(seed)), ("kernel", "trace"), _SOURCES),
    "ortho": (lambda p, seed, samples: ortho(p), ("ortho", "ortho", "ortho", "biortho"),
              _SOURCES),
    "corollary": (lambda p, seed, samples: staircase_sum(p, *_points(seed)), ("corollary",),
                  _SOURCES),
    "rankdecomp": (lambda p, seed, samples: rank_split(p, sum(v != 0 for v in p.a), [0.5], [1.4]),
                   ("rankdecomp",), ((0.9, 0.0, 0.0), (1.2, 0.5, 0.0, 0.0))),
    "mc": (lambda p, seed, samples: mc(p, samples, seed), ("mc-sigma", "mc-bins"), _SOURCES),
}

