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

from . import __version__, checks
from .chgue import ChgueParams, ConfluentSpec, chgue_kernel, chgue_type_one, chgue_type_two
from .charpoly import SourceModel, sample_spectra
from .ensembles import op_from_weight
from .errors import DomainError, NumericError
from .multipoly import Composition
from .numerics import gauss_laguerre, gauss_legendre

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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
    tols = dict(checks.DEFAULT_TOLS)
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
        return p

    p = common(sub.add_parser("kernel", help="tabulate K_N on a grid"))
    p.add_argument("--grid", default="0:8:17", help="inclusive span min:max:count")
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the generic-path kernel and report the "
                        "max relative deviation")

    p = common(sub.add_parser("poly", help="tabulate a type I/II function"))
    p.add_argument("--kind", required=True, choices=["I", "II"])
    p.add_argument("--grid", default="0:10:11")

    p = common(sub.add_parser("corr", help="n-point correlation at given points"))
    p.add_argument("--points", required=True, help="comma-separated coordinates")

    p = common(sub.add_parser("sample", help="draw eigenvalue spectra"))
    p.add_argument("--samples", type=int, default=1)

    p = common(sub.add_parser("verify", help="run a named invariant suite"))
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
        return op_from_weight(w, gauss_laguerre(64, alpha), n), n
    return op_from_weight(lambda t: np.exp(-t * t), gauss_legendre(64, -7.5, 7.5), n), n


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
        versions = {"biortho": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
        doc = {
            "params": params,
            "grid": list(range(len(table))) if by_index else table[:, :-1].tolist(),
            "values": (table if by_index else table[:, -1]).tolist(),
            "metadata": {"seed": args.seed, "versions": versions},
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
        dev = checks.kernel_deviation(_chgue_params(args), xs, ys)
        extra = {"cross_check_max_rel_dev": dev}
        print(f"cross-check max relative deviation: {dev:.3e}", file=sys.stderr)
    _emit(args, ["x", "y", "K"], rows, _params_dict(args), extra)
    return EXIT_OK


def _cmd_poly(args) -> int:
    grid = _parse_grid(args.grid)
    if args.ensemble in ("chgue", "confluent"):
        params = _chgue_params(args)
        if args.kind == "II":
            f = chgue_type_two(params)
        else:
            f, n, rule = chgue_type_one(params), params.n, gauss_laguerre(64, params.alpha)
    else:
        sys_, n = _op_system(args)
        rule = sys_.quad
        if args.kind == "II":
            f = lambda x: sys_.eval(n, x)
        else:
            h = sys_.norms[n - 1]
            f = lambda x: sys_.weight(np.asarray(x, dtype=float)) * sys_.eval(n - 1, x) / h
    if args.kind == "I":
        final = rule.moments(f(rule.nodes), n)[-1]
        print(f"type I self-test: final moment = {final:.12g} (should be 1)", file=sys.stderr)
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
    if args.ensemble in ("chgue", "confluent"):
        params = _chgue_params(args)
        model = SourceModel("chiral", params.n, params.a, params.alpha)
    elif args.ensemble == "hermite":
        n = args.n or 2
        model = SourceModel("hermitian", n, (0.0,) * n)
    else:
        raise DomainError("sample supports the chgue, confluent and hermite ensembles")
    spectra = sample_spectra(model, args.seed, args.samples)
    header = [f"lambda{i+1}" for i in range(model.n)]
    _emit(args, header, spectra, _params_dict(args), by_index=True)
    return EXIT_OK


def _report(residuals: list[tuple[str, float]], tols: list[float]) -> int:
    failed = False
    for (name, residual), tol in zip(residuals, tols, strict=True):
        ok = residual <= tol
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} residual={residual:.3e} tol={tol:.3e}")
    print("SUITE " + ("FAIL" if failed else "PASS"))
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_verify(args) -> int:
    tols = _parse_overrides(args.tol_override)
    tols["mc-bins"] = 1.0 - tols["mc-bins"]  # the mc check reads the fraction outside
    suite, keys, defaults = checks.SUITES[args.suite]
    if args.ensemble == "chgue" and not args.a:
        systems = [ChgueParams(args.alpha, a) for a in defaults]
    else:
        systems = [_chgue_params(args)]
    residuals = [item for p in systems for item in suite(p, args.seed, args.samples).items()]
    return _report(residuals, [tols[k] for _ in systems for k in keys])


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
