"""Command-line front end.

Subcommands: ``kernel``, ``poly``, ``corr``, ``sample``, ``verify``.
Ensembles: ``chgue`` (``--alpha``, ``--a``), ``laguerre``/``hermite``
(``--alpha``, ``--n`` orthogonal-polynomial ensembles), and ``confluent``
(``--b`` coalescence targets with ``--mult`` multiplicities), which is the
chgue ensemble at the repeated sources and shares its closed forms.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
error.  Output as CSV (17 significant digits) or JSON
``{params, grid, values, metadata{seed, versions}}``; for ``sample``,
``grid[i]`` is i and ``values[i]`` the ascending spectrum of draw i.  Flags
may be preloaded from a JSON config file (``--config``); explicit flags win.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Sequence

import numpy as np
import scipy

from . import __version__
from .chgue import (
    ChgueParams,
    ConfluentSpec,
    chgue_gram,
    chgue_kernel,
    chgue_type_one,
    chgue_type_two,
    ensemble_spec,
    kernel_sum_check,
    rank_decomposition,
    reference_spec,
    staircase_functions,
)
from .charpoly import SourceModel, charpoly_estimate, rho1_report, sample_spectra
from .ensembles import HalfLine, Segment, build_kernel, kernel_eval, op_from_weight
from .errors import DomainError, NumericError
from .multipoly import Composition
from .numerics import gauss_laguerre

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_DEFAULT_TOLS = {
    "gram": 1e-8,
    "kernel": 1e-7,
    "trace": 1e-6,
    "ortho": 1e-8,
    "biortho": 1e-8,
    "corollary": 1e-6,
    "rankdecomp": 1e-6,
    "mc-sigma": 3.0,
    "mc-bins": 0.95,
}


def _number(text: str, kind: type = float):
    """``kind(text)``, with a malformed value reported as a usage error."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DomainError(f"expected {what}, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    if not text.strip():
        raise DomainError("empty list")
    return [_number(v) for v in text.split(",")]


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be min:max:count, got {text!r}")
    lo, hi, count = _number(parts[0]), _number(parts[1]), _number(parts[2], int)
    if count < 1:
        raise DomainError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def _parse_overrides(items: Sequence[str] | None) -> dict:
    tols = dict(_DEFAULT_TOLS)
    for item in items or []:
        if "=" not in item:
            raise DomainError(f"--tol-override expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        if key not in tols:
            raise DomainError(
                f"unknown tolerance key {key!r}; known: {sorted(tols)}"
            )
        tols[key] = _number(val)
    return tols


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``parse_args`` gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="biortho",
        description="kernels, multiple orthogonal polynomials, and "
        "verification suites for biorthogonal ensembles",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ensemble", default="chgue",
                       choices=["chgue", "laguerre", "hermite", "confluent"])
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--a", help="comma-separated source parameters")
        p.add_argument("--b", help="comma-separated coalescence targets (confluent)")
        p.add_argument("--mult", help="comma-separated multiplicities (confluent)")
        p.add_argument("--n", type=int, help="size for laguerre/hermite ensembles")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("kernel", help="tabulate K_N on a grid")
    common(p)
    p.add_argument("--grid", default="0:8:17", help="inclusive span min:max:count")
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the generic-path kernel and report the "
                        "max relative deviation")

    p = sub.add_parser("poly", help="tabulate a type I/II function")
    common(p)
    p.add_argument("--kind", required=True, choices=["I", "II"])
    p.add_argument("--grid", default="0:10:11")

    p = sub.add_parser("corr", help="n-point correlation at given points")
    common(p)
    p.add_argument("--points", required=True, help="comma-separated coordinates")

    p = sub.add_parser("sample", help="draw eigenvalue spectra")
    common(p)
    p.add_argument("--samples", type=int, default=1)

    p = sub.add_parser("verify", help="run a named invariant suite")
    common(p)
    p.add_argument("--suite", required=True,
                   choices=["gram", "kernel", "ortho", "corollary", "rankdecomp", "mc"])
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--tol-override", action="append", metavar="KEY=VAL")
    return parser


# ---------------------------------------------------------------------------
# ensemble plumbing
# ---------------------------------------------------------------------------

def _chgue_params(args) -> ChgueParams:
    """The sources of the chgue ensemble, or of the confluent one with each
    ``--b`` target repeated ``--mult`` times."""
    if args.ensemble == "confluent":
        if not args.b or not args.mult:
            raise DomainError("--b and --mult are required for the confluent ensemble")
        mult = tuple(_number(v, int) for v in args.mult.split(","))
        spec = ConfluentSpec(b=tuple(_parse_floats(args.b)), m=Composition(mult))
        return ChgueParams(args.alpha, spec.sources)
    if not args.a:
        raise DomainError("--a is required for the chgue ensemble")
    return ChgueParams(args.alpha, tuple(_parse_floats(args.a)))


def _op_system(args):
    n = args.n or 4
    if args.ensemble == "laguerre":
        alpha = args.alpha
        w = lambda t: t**alpha * np.exp(-t)
        return op_from_weight(w, HalfLine(), n, quad=gauss_laguerre(64, alpha)), n
    return op_from_weight(lambda t: np.exp(-t * t), Segment(-7.5, 7.5), n), n


def _kernel_function(args) -> tuple[int, Callable]:
    """N and K_N(x, y) of the selected ensemble, broadcasting over x and y."""
    if args.ensemble in ("chgue", "confluent"):
        params = _chgue_params(args)
        return params.n, functools.partial(chgue_kernel, params)
    sys_, n = _op_system(args)
    return n, sys_.kernel


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(args, header: list[str], rows: Sequence[Sequence[float]], params: dict,
          extra=None, by_index: bool = False) -> None:
    """Writes the table as CSV or JSON.  The JSON ``grid`` holds every column
    but the last and ``values`` the last one; with ``by_index``, ``grid``
    holds the row index and ``values`` the whole rows."""
    table = np.asarray(rows, dtype=float)
    if args.format == "csv":
        # one % over the whole table, not one per row
        row_format = ",".join(["%.17g"] * len(header)) + "\n"
        body = (row_format * len(table)) % tuple(table.ravel().tolist())
        text = ",".join(header) + "\n" + body
    else:
        doc = {
            "params": params,
            "grid": list(range(len(table))) if by_index else table[:, :-1].tolist(),
            "values": (table if by_index else table[:, -1]).tolist(),
            "metadata": {
                "seed": args.seed,
                "versions": {
                    "biortho": __version__,
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                },
            },
        }
        if extra:
            doc["metadata"].update(extra)
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_dict(args) -> dict:
    keep = ("ensemble", "alpha", "a", "b", "mult", "n")
    return {k: getattr(args, k, None) for k in keep if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kernel(args) -> int:
    grid = _parse_grid(args.grid)
    xs, ys = grid[:, None], grid[None, :]
    _, kernel = _kernel_function(args)
    values = kernel(xs, ys)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    rows = np.column_stack([gx.ravel(), gy.ravel(), values.ravel()])
    extra = None
    if args.cross_check:
        if args.ensemble not in ("chgue", "confluent"):
            raise DomainError("--cross-check applies to the chgue and confluent ensembles only")
        ref = kernel_eval(build_kernel(reference_spec(_chgue_params(args))), xs, ys)
        dev = float(np.max(np.abs(values - ref) / np.maximum(np.abs(ref), 1e-12)))
        extra = {"cross_check_max_rel_dev": dev}
        print(f"cross-check max relative deviation: {dev:.3e}", file=sys.stderr)
    _emit(args, ["x", "y", "K"], rows, _params_dict(args), extra)
    return EXIT_OK


def _cmd_poly(args) -> int:
    grid = _parse_grid(args.grid)
    selftest = None
    if args.ensemble in ("chgue", "confluent"):
        params = _chgue_params(args)
        if args.kind == "II":
            f = chgue_type_two(params)
        else:
            f = chgue_type_one(params)
            rule = gauss_laguerre(64, params.alpha)
            m = float(np.dot(rule.dx_weights, rule.nodes ** (params.n - 1) * f(rule.nodes)))
            selftest = m
    else:
        sys_, n = _op_system(args)
        if args.kind == "II":
            f = lambda x: sys_.eval(n, x)
        else:
            h = sys_.norms[n - 1]
            f = lambda x: sys_.weight(np.asarray(x, dtype=float)) * sys_.eval(n - 1, x) / h
            rule = sys_.quad
            selftest = float(
                np.dot(rule.dx_weights, rule.nodes ** (n - 1) * f(rule.nodes))
            )
    if selftest is not None:
        print(f"type I self-test: final moment = {selftest:.12g} (should be 1)",
              file=sys.stderr)
    rows = np.column_stack([grid, f(grid)])
    _emit(args, ["x", "value"], rows, _params_dict(args))
    return EXIT_OK


def _cmd_corr(args) -> int:
    points = _parse_floats(args.points)
    n, kernel = _kernel_function(args)
    if len(points) > n:
        raise DomainError(f"correlation order {len(points)} exceeds ensemble size {n}")
    p = np.asarray(points)
    value = float(np.linalg.det(kernel(p[:, None], p[None, :])))
    _emit(args, [*(f"x{i+1}" for i in range(len(points))), "rho"],
          [(*points, value)], _params_dict(args))
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    if args.ensemble == "chgue":
        if not args.a:
            raise DomainError("--a is required for sampling the chgue ensemble")
        a = tuple(_parse_floats(args.a))
        model = SourceModel("chiral", len(a), a, args.alpha)
    elif args.ensemble == "hermite":
        n = args.n or 2
        model = SourceModel("hermitian", n, (0.0,) * n)
    else:
        raise DomainError("sample supports the chgue and hermite ensembles")
    spectra = sample_spectra(model, args.seed, args.samples)
    header = [f"lambda{i+1}" for i in range(model.n)]
    _emit(args, header, spectra, _params_dict(args), by_index=True)
    return EXIT_OK


def _report(checks: list[tuple[str, float, float]]) -> int:
    failed = False
    for name, residual, tol in checks:
        ok = residual <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} residual={residual:.3e} tol={tol:.3e}")
    print("SUITE " + ("FAIL" if failed else "PASS"))
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_verify(args) -> int:
    tols = _parse_overrides(args.tol_override)
    rng = np.random.default_rng(args.seed)
    if args.ensemble == "chgue" and not args.a:
        args.a = "1.3,0.7,0.2"
    checks: list[tuple[str, float, float]] = []
    if args.suite == "gram":
        params = _chgue_params(args)
        closed = chgue_gram(params)
        quad = ensemble_spec(params).gram
        dev = float(np.max(np.abs(closed - quad) / np.maximum(np.abs(closed), 1e-12)))
        checks.append(("gram closed-form vs quadrature", dev, tols["gram"]))
    elif args.suite == "kernel":
        params = _chgue_params(args)
        kd = build_kernel(reference_spec(params))
        x, y = rng.uniform(0.2, 6.0, size=(5, 2)).T
        ref = kernel_eval(kd, x, y)
        dev = float(np.max(np.abs(chgue_kernel(params, x, y) - ref)
                           / np.maximum(np.abs(ref), 1e-12)))
        checks.append(("closed-form kernel vs generic path", dev, tols["kernel"]))
        rule = gauss_laguerre(64, params.alpha)
        trace = float(np.dot(rule.dx_weights, kernel_eval(kd, rule.nodes, rule.nodes)))
        checks.append(("kernel trace = N", abs(trace - params.n), tols["trace"]))
    elif args.suite == "ortho":
        params = _chgue_params(args)
        rule = gauss_laguerre(64, params.alpha)
        qv = chgue_type_one(params)(rule.nodes)
        moments = [float(np.dot(rule.dx_weights, rule.nodes**j * qv)) for j in range(params.n)]
        res = max(abs(m) for m in moments[:-1]) if params.n > 1 else 0.0
        checks.append(("type I moments vanish", res, tols["ortho"]))
        checks.append(("type I final moment = 1", abs(moments[-1] - 1.0), tols["ortho"]))
        # against every xi of the reference, derivative weights included
        pv = chgue_type_two(params)(rule.nodes)
        res2 = 0.0
        for xi in reference_spec(params).xi:
            res2 = max(res2, abs(float(np.dot(rule.dx_weights, xi(rule.nodes) * pv))))
        checks.append(("type II first moments vanish", res2, tols["ortho"]))
        # P_i on the first i sources (P_0 = 1) and Q_{j+1} on the first j + 1
        a_sorted = tuple(sorted(params.a, reverse=True))
        pv, qv = staircase_functions(ChgueParams(params.alpha, a_sorted), rule.nodes, rule.nodes)
        gram = (pv * rule.dx_weights) @ qv.T
        dev = float(np.max(np.abs(gram - np.eye(params.n))))
        checks.append(("staircase biorthogonality", dev, tols["biortho"]))
    elif args.suite == "corollary":
        params = _chgue_params(args)
        a_sorted = tuple(sorted(params.a, reverse=True))
        params = ChgueParams(params.alpha, a_sorted)
        dev = 0.0
        for _ in range(5):
            x, y = rng.uniform(0.2, 6.0, size=2)
            kernel, total = kernel_sum_check(params, x, y)
            dev = max(dev, abs(kernel - total) / max(abs(kernel), 1e-12))
        checks.append(("kernel = staircase sum", dev, tols["corollary"]))
    elif args.suite == "rankdecomp":
        for n, r, a in ((3, 1, (0.9, 0.0, 0.0)), (4, 2, (1.2, 0.5, 0.0, 0.0))):
            params = ChgueParams(args.alpha, a)
            kd = build_kernel(reference_spec(params))
            x, y = 0.5, 1.4
            full, _, _ = rank_decomposition(params, r, x, y)
            ref = kernel_eval(kd, x, y)
            dev = abs(full - ref) / max(abs(ref), 1e-12)
            checks.append((f"rank decomposition N={n} r={r}", dev, tols["rankdecomp"]))
    elif args.suite == "mc":
        params = _chgue_params(args)
        if params.alpha != int(params.alpha):
            raise DomainError("mc suite needs integer alpha for chiral sampling")
        model = SourceModel("chiral", params.n, params.a, int(params.alpha))
        lam = sample_spectra(model, args.seed, args.samples)
        worst = 0.0
        for x in (0.8, 2.5):
            est = charpoly_estimate(lam, x, args.seed)
            exact = chgue_type_two(params)(x)
            worst = max(worst, abs(est.value - exact) / max(est.std_error, 1e-300))
        checks.append(("MC <det> vs type II (sigmas)", worst, tols["mc-sigma"]))
        report = rho1_report(model, lam, bins=40)
        checks.append(
            ("rho1 histogram bins outside 3 sigma (fraction)",
             1.0 - report.fraction_within, 1.0 - tols["mc-bins"])
        )
    return _report(checks)


def _with_config(args_in: list[str]) -> list[str]:
    """Appends the flags of a ``--config`` JSON file to ``args_in``, minus
    those given explicitly (flags win over the config file)."""
    if "--config" not in args_in:
        return args_in
    idx = args_in.index("--config")
    if idx + 1 == len(args_in):
        raise DomainError("--config expects a JSON file path")
    cfg_path = args_in[idx + 1]
    args_in = args_in[:idx] + args_in[idx + 2 :]
    try:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {cfg_path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file {cfg_path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config file {cfg_path!r} must hold a JSON object")
    extra: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag in args_in:
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    return args_in + extra


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        # two-phase handling so a JSON config can predefine defaults
        args = parser.parse_args(_with_config(list(sys.argv[1:] if argv is None else argv)))
        if args.command == "kernel":
            return _cmd_kernel(args)
        if args.command == "poly":
            return _cmd_poly(args)
        if args.command == "corr":
            return _cmd_corr(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_verify(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
