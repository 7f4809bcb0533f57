"""The four benchmark workloads: seeded inputs, the timed calls, and the
untimed checks of every output against an independent reference.

A workload is a fixed cycle of call classes.  Call ``i`` of a run belongs to
class ``cycle[i % len(cycle)]`` and draws its inputs from
``numpy.random.default_rng([seed, i])``, so the same seed gives the same
inputs however long the run lasts.  CLI paths go through
``biortho.cli.main(argv)`` in-process; the rest are direct library calls.
Names are looked up on the ``biortho`` modules at call time, so the traced
run sees the wrappers it installs there.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from biortho import charpoly, chgue, cli, ensembles

import reference

# Gross-error gates.  Deterministic closed forms must agree with the
# mpmath reference to 1e-6 relative (the tolerance of acceptance criteria 4,
# 8 and 9); ratio-identity kernels to 1e-3 absolute (acceptance criterion 2).
CLOSED_FORM_RTOL = 1e-6
RATIO_ATOL = 1e-3
# -log10 of the smallest relative error that counts, so exact agreement
# reads as 16 digits rather than infinity.
DIGITS_CAP = 16.0
# Each run makes at least this many calls, so that at least ten latency
# samples lie beyond the 90th percentile.
MIN_CALLS = 100


class CallFailed(Exception):
    """A call that returned instead of raising but did not succeed."""


@dataclass(frozen=True)
class Check:
    ok: bool
    digits: float | None  # None where the output has no numeric reference
    detail: str = ""


@dataclass(frozen=True)
class CallClass:
    """One kind of call: ``make`` draws its inputs, ``run`` is the timed
    call, ``keep`` reduces the output outside the timed region (it never
    calls into ``biortho``), and ``check`` compares the kept output with a
    reference."""

    name: str
    make: Callable[[np.random.Generator, "Context"], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Check]
    keep: Callable[[Any, Any], Any] = lambda inp, out: out


@dataclass
class Context:
    """Per-run state the calls need: a scratch directory for CLI output
    files and a counter to keep their names apart."""

    scratch: Path
    files: int = 0

    def next_path(self, suffix: str) -> Path:
        self.files += 1
        return self.scratch / f"out-{self.files}{suffix}"


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[CallClass, ...]
    extra_report: Callable[[], list[str]] = field(default=lambda: [])

    @property
    def min_calls(self) -> int:
        """Whole cycles, at least MIN_CALLS calls."""
        k = len(self.cycle)
        return k * math.ceil(MIN_CALLS / k)

    def inputs(self, seed: int, index: int, ctx: Context,
               warm: bool = False) -> tuple[CallClass, Any]:
        """Inputs of call ``index``; ``warm`` draws from a separate stream
        for the untimed warm-up calls."""
        cls = self.cycle[index % len(self.cycle)]
        key = [seed, index, 1] if warm else [seed, index]
        return cls, cls.make(np.random.default_rng(key), ctx)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    """``biortho.cli.main(argv)`` with stdout captured; a non-zero exit code
    is a failed call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CallFailed(f"exit code {code}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def parse_csv(text: str) -> np.ndarray:
    rows = text.strip().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def digits(err: float) -> float:
    return -math.log10(max(err, 10.0**-DIGITS_CAP))


def normwise(values, ref) -> float:
    """max |v - ref| / max |ref| over one output table."""
    values, ref = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


def closed_form_check(values, ref) -> Check:
    err = normwise(values, ref)
    return Check(err <= CLOSED_FORM_RTOL, digits(err), f"relative error {err:.3e}")


def spread_sources(rng, n: int, lo: float, hi: float, gap: float) -> tuple[float, ...]:
    """n sources in [lo, hi], decreasing, at least ``gap`` apart."""
    while True:
        a = np.sort(np.round(rng.uniform(lo, hi, n), 6))[::-1]
        if n == 1 or np.min(-np.diff(a)) >= gap:
            return tuple(float(v) for v in a)


def clustered_sources(rng) -> tuple[float, ...]:
    """A pair about 1e-7 apart inside a spread of at least 1: the series
    switch looks at the whole spread, so these take the direct path."""
    b = round(float(rng.uniform(0.2, 1.0)), 6)
    far = round(b + float(rng.uniform(1.0, 2.0)), 6)
    return (far, b + 1e-7 * float(rng.uniform(1.0, 2.0)), b)


def _chgue_argv(inp) -> list[str]:
    return ["--alpha", repr(inp["alpha"]), "--a", fmt(inp["a"])]


def _chgue_system(inp) -> reference.MpSystem:
    return reference.MpSystem(reference.chgue_family(inp["alpha"], inp["a"]))


def _grid_arg(inp) -> str:
    return f"{inp['lo']!r}:{inp['hi']!r}:{inp['count']}"


def grid_check(inp, table: np.ndarray, ref_fn) -> Check:
    """A CLI kernel table against the reference on the same grid."""
    xs = np.unique(table[:, 0])
    want = np.linspace(inp["lo"], inp["hi"], inp["count"])
    if table.shape != (inp["count"] ** 2, 3) or not np.array_equal(xs, want):
        return Check(False, None, f"unexpected grid, shape {table.shape}")
    ref = np.array(ref_fn(want, want)).ravel()
    return closed_form_check(table[:, 2], ref)


# ---------------------------------------------------------------------------
# kernel-grid
# ---------------------------------------------------------------------------

def _kernel_grid_class(n: int, series: bool) -> CallClass:
    def make(rng, ctx):
        if series:
            # spread below the 1e-2 switch: the Taylor-series kernel sum
            centre = float(rng.uniform(0.3, 2.0))
            spread = float(rng.uniform(1e-3, 8e-3))
            a = tuple(centre + spread * k / (n - 1) for k in range(n))[::-1]
        else:
            a = spread_sources(rng, n, 0.1, 2.5, 0.1)
        return {
            "alpha": float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            "a": a,
            "lo": round(float(rng.uniform(0.0, 0.5)), 3),
            "hi": round(float(rng.uniform(9.0, 12.0)), 3),
            "count": 6,
        }

    def run(inp):
        return run_cli(["kernel", *_chgue_argv(inp), "--grid", _grid_arg(inp)])

    def check(inp, table):
        return grid_check(inp, table, _chgue_system(inp).kernel)

    return CallClass(f"kernel-N{n}-{'series' if series else 'direct'}", make, run, check,
                     keep=lambda inp, out: parse_csv(out))


TAIL_POINTS = ((25.0, 2.0), (20.0, 30.0), (12.0, 1.0))


def tail_digits() -> list[str]:
    """Unscored: ``chgue_kernel`` outside the bulk window, where its
    residue sum is known to lose digits."""
    alpha, a = 1.0, (1.3, 0.7, 0.2)
    p = chgue.ChgueParams(alpha, a)
    sys_ = reference.MpSystem(reference.chgue_family(alpha, a))
    parts = []
    for x, y in TAIL_POINTS:
        ref = sys_.kernel([x], [y])[0][0]
        err = abs(chgue.chgue_kernel(p, x, y) - ref) / abs(ref)
        parts.append(f"K({x:g},{y:g}) {digits(err):.2f}")
    return [f"tail digits (unscored, alpha={alpha}, a={a}): " + ", ".join(parts)]


# numerics (Gauss-Laguerre rebuilds, hyp0f1) and chgue_kernel; no charpoly
_DIRECT = tuple(_kernel_grid_class(n, False) for n in range(2, 7))

KERNEL_GRID = Workload(
    "kernel-grid",
    # direct-sum tables twice per cycle: series tables are slower, so a 1:1
    # mix would put the median on the gap between the two kinds
    _DIRECT + _DIRECT + tuple(_kernel_grid_class(n, True) for n in range(2, 7)),
    tail_digits,
)


# ---------------------------------------------------------------------------
# closed-forms
# ---------------------------------------------------------------------------

def _alpha(rng) -> float:
    return round(float(rng.uniform(0.0, 3.0)), 3)


def _wide(rng) -> tuple[float, ...]:
    return spread_sources(rng, int(rng.integers(2, 6)), 0.0, 3.0, 0.2)


def suite_passed(inp, text: str) -> Check:
    """A ``verify`` suite's output: only PASS lines, then SUITE PASS."""
    lines = text.strip().splitlines()
    ok = bool(lines) and lines[-1] == "SUITE PASS" and all(
        line.startswith("PASS ") for line in lines[:-1])
    return Check(ok, None, "" if ok else text.strip()[-300:])


def _verify_class(suite: str, sources) -> CallClass:
    def make(rng, ctx):
        return {"alpha": _alpha(rng), "a": sources(rng) if sources else None,
                "seed": int(rng.integers(2**31))}

    def run(inp):
        argv = ["verify", "--suite", suite, "--alpha", repr(inp["alpha"]),
                "--seed", str(inp["seed"])]
        if inp["a"]:
            argv += ["--a", fmt(inp["a"])]
        return run_cli(argv)

    return CallClass(f"verify-{suite}", make, run, suite_passed)


def _chgue_params(sources):
    return lambda rng: {"alpha": _alpha(rng), "a": sources(rng)}


def _confluent_params(rng) -> dict:
    mult = [(2, 1), (1, 2), (2, 2), (3, 1)][int(rng.integers(4))]
    b2 = 0.0 if rng.random() < 0.25 else round(float(rng.uniform(0.2, 0.8)), 6)
    return {"alpha": _alpha(rng), "b": (round(float(rng.uniform(1.0, 2.5)), 6), b2),
            "mult": mult}


def _confluent_argv(inp) -> list[str]:
    return ["--ensemble", "confluent", "--alpha", repr(inp["alpha"]),
            "--b", fmt(inp["b"]), "--mult", ",".join(map(str, inp["mult"]))]


def _confluent_system(inp) -> reference.MpSystem:
    return reference.MpSystem(
        reference.confluent_family(inp["alpha"], inp["b"], inp["mult"]))


def _poly_class(kind: str, label: str, params, argv, system) -> CallClass:
    """CLI ``poly --kind I|II`` on 11 points of [0, hi]."""
    def make(rng, ctx):
        return {**params(rng), "hi": round(float(rng.uniform(6.0, 10.0)), 3)}

    def run(inp):
        return run_cli(["poly", "--kind", kind, *argv(inp), "--grid", f"0:{inp['hi']!r}:11"])

    def check(inp, table):
        sys_ = system(inp)
        ref = sys_.type_one(table[:, 0]) if kind == "I" else sys_.type_two(table[:, 0])
        return closed_form_check(table[:, 1], ref)

    return CallClass(f"poly-{kind}-{label}", make, run, check,
                     keep=lambda inp, out: parse_csv(out))


def _kernel_confluent_class() -> CallClass:
    def make(rng, ctx):
        return {**_confluent_params(rng), "lo": round(float(rng.uniform(0.0, 0.5)), 3),
                "hi": round(float(rng.uniform(4.0, 8.0)), 3), "count": 4}

    def run(inp):
        return run_cli(["kernel", *_confluent_argv(inp), "--grid", _grid_arg(inp)])

    def check(inp, table):
        return grid_check(inp, table, _confluent_system(inp).kernel)

    return CallClass("kernel-confluent", make, run, check,
                     keep=lambda inp, out: parse_csv(out))


def _corr_class() -> CallClass:
    def make(rng, ctx):
        while True:
            pts = np.round(rng.uniform(0.3, 6.0, 2), 6)
            if abs(pts[0] - pts[1]) >= 0.5:
                break
        return {"alpha": _alpha(rng), "a": _wide(rng), "points": tuple(map(float, pts))}

    def run(inp):
        return run_cli(["corr", *_chgue_argv(inp), "--points", fmt(inp["points"])])

    def check(inp, table):
        k = _chgue_system(inp).kernel(inp["points"], inp["points"])
        return closed_form_check(table[0, -1], k[0][0] * k[1][1] - k[0][1] * k[1][0])

    return CallClass("corr-chgue", make, run, check, keep=lambda inp, out: parse_csv(out))


# chgue type I/II divided differences, multipoly moment solves, ensembles
# Gram/kernel_eval and the per-call CLI cost; (n, alpha) keys vary per call
CLOSED_FORMS = Workload(
    "closed-forms",
    (
        _verify_class("gram", clustered_sources),
        _verify_class("kernel", _wide),
        # the ortho suite's own 1e-8 moment gate fails on a share of clustered
        # draws (the type I defect that min_digits measures on poly-I), so it
        # runs on the wide set
        _verify_class("ortho", _wide),
        _verify_class("corollary", _wide),
        _verify_class("rankdecomp", None),
        _poly_class("I", "chgue-clustered", _chgue_params(clustered_sources), _chgue_argv,
                    _chgue_system),
        _poly_class("II", "chgue-clustered", _chgue_params(clustered_sources), _chgue_argv,
                    _chgue_system),
        _poly_class("I", "chgue-wide", _chgue_params(_wide), _chgue_argv, _chgue_system),
        _poly_class("II", "chgue-wide", _chgue_params(_wide), _chgue_argv, _chgue_system),
        _poly_class("I", "confluent", _confluent_params, _confluent_argv, _confluent_system),
        _poly_class("II", "confluent", _confluent_params, _confluent_argv, _confluent_system),
        _corr_class(),
        _kernel_confluent_class(),
    ),
)


# ---------------------------------------------------------------------------
# mc-sampling
# ---------------------------------------------------------------------------

MC_SAMPLES = 10_000
# Statistical gates sized for a campaign of thousands of calls, where the
# CLI's per-call defaults (3 sigma; 95% of 40 histogram bins within 3 sigma)
# trip by chance: once in about 650 calls in trials.
MC_SIGMA = 5
MC_BINS_WITHIN = 0.9
RHO1_SAMPLES = 20_000
CSV_ROWS = 2**14
SPECTRA_COUNT = 2 * 65536  # two of sample_spectra's fixed 64k chunks


def _chiral_sources(rng) -> tuple[float, ...]:
    return spread_sources(rng, 3, 0.1, 1.5, 0.1)


def _verify_mc_class() -> CallClass:
    def make(rng, ctx):
        return {"a": _chiral_sources(rng), "seed": int(rng.integers(2**31))}

    def run(inp):
        return run_cli(["verify", "--suite", "mc", "--alpha", "1", "--a", fmt(inp["a"]),
                        "--samples", str(MC_SAMPLES), "--seed", str(inp["seed"]),
                        "--tol-override", f"mc-sigma={MC_SIGMA}",
                        "--tol-override", f"mc-bins={MC_BINS_WITHIN}"])

    return CallClass("verify-mc", make, run, suite_passed)


def _rho1_class() -> CallClass:
    def make(rng, ctx):
        return {"seed": int(rng.integers(2**31))}

    def run(inp):
        model = charpoly.SourceModel("hermitian", 3, (0.0, 0.0, 0.0))
        return charpoly.rho1_check(model, bins=40, samples=RHO1_SAMPLES, seed=inp["seed"])

    def check(inp, within):
        return Check(within >= MC_BINS_WITHIN, None, f"fraction within 3 sigma {within:.3f}")

    return CallClass("rho1-hermitian", make, run, check,
                     keep=lambda inp, rep: rep.fraction_within)


def _chiral_model(a) -> charpoly.SourceModel:
    return charpoly.SourceModel("chiral", 3, a, 1)


def _bitwise_check(got: np.ndarray, want: np.ndarray) -> Check:
    if got.shape != want.shape:
        return Check(False, None, f"shape {got.shape} != {want.shape}")
    if np.array_equal(got, want):
        return Check(True, DIGITS_CAP)
    err = normwise(got, want)
    return Check(False, digits(err), f"not bitwise equal, relative error {err:.3e}")


def _sample_csv_class() -> CallClass:
    def make(rng, ctx):
        return {"a": _chiral_sources(rng), "seed": int(rng.integers(2**31)),
                "out": str(ctx.next_path(".csv"))}

    def run(inp):
        return run_cli(["sample", "--alpha", "1", "--a", fmt(inp["a"]),
                        "--samples", str(CSV_ROWS), "--seed", str(inp["seed"]),
                        "--out", inp["out"]])

    def keep(inp, out):
        path = Path(inp["out"])
        table = parse_csv(path.read_text())
        path.unlink()
        return table

    def check(inp, table):
        want = charpoly.sample_spectra(_chiral_model(inp["a"]), inp["seed"], CSV_ROWS)
        return _bitwise_check(table, want)

    return CallClass("sample-csv", make, run, check, keep)


def _digest(arr: np.ndarray) -> tuple:
    return arr.shape, hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _spectra_threads_class() -> CallClass:
    def make(rng, ctx):
        return {"a": _chiral_sources(rng), "seed": int(rng.integers(2**31))}

    def run(inp):
        return charpoly.sample_spectra(_chiral_model(inp["a"]), inp["seed"],
                                       SPECTRA_COUNT, workers=2)

    def check(inp, digest):
        want = charpoly.sample_spectra(_chiral_model(inp["a"]), inp["seed"], SPECTRA_COUNT)
        ok = digest == _digest(want)
        return Check(ok, DIGITS_CAP if ok else 0.0,
                     "" if ok else "workers=2 differs from workers=1")

    # keep a digest, not 3 MB per call, so held outputs do not inflate RSS
    return CallClass("spectra-workers2", make, run, check, keep=lambda inp, out: _digest(out))


# charpoly sampling: normals, assembly and batched eigvalsh, bound by CSV
# output in one class and by chunk parallelism in another
_VERIFY_MC, _RHO1, _CSV = _verify_mc_class(), _rho1_class(), _sample_csv_class()

MC_SAMPLING = Workload(
    "mc-sampling",
    # one threaded sampling call in eight keeps its costly bitwise check
    # affordable while the p90 still falls inside that class; the median
    # falls inside the CSV class, not on the gap between two classes
    (_VERIFY_MC, _RHO1, _CSV, _RHO1, _spectra_threads_class(), _RHO1, _CSV, _VERIFY_MC),
)


# ---------------------------------------------------------------------------
# density-quadrature
# ---------------------------------------------------------------------------

def _kernel_scale_check(value: float, ref: float, scale: float) -> Check:
    """Ratio-identity kernel value: gated at 1e-3 absolute; digits relative
    to the kernel's size near (x, y), since K(x, y) itself can cross zero."""
    err = abs(value - ref)
    return Check(err <= RATIO_ATOL, digits(err / max(abs(ref), scale)),
                 f"absolute error {err:.3e}")


def _xy(rng, xlo, xhi, ylo, yhi) -> tuple[float, float]:
    while True:
        x, y = round(float(rng.uniform(xlo, xhi)), 6), round(float(rng.uniform(ylo, yhi)), 6)
        if abs(x - y) >= 0.3:
            return x, y


def _ratio_chiral_class(n: int) -> CallClass:
    def make(rng, ctx):
        # y in [1.2, 5] keeps the pole-resolving rule at its full size
        x, y = _xy(rng, 0.3, 5.0, 1.2, 5.0)
        return {"alpha": int(rng.integers(0, 3)), "a": spread_sources(rng, n, 0.1, 2.0, 0.2),
                "x": x, "y": y}

    def run(inp):
        model = charpoly.SourceModel("chiral", n, inp["a"], inp["alpha"])
        return charpoly.kernel_from_ratio(model, inp["x"], inp["y"], mode="quadrature")

    def check(inp, value):
        x, y = inp["x"], inp["y"]
        k = _chgue_system(inp).kernel([x, y], [x, y])
        return _kernel_scale_check(value, k[0][1], math.sqrt(abs(k[0][0] * k[1][1])))

    return CallClass(f"ratio-chiral-N{n}", make, run, check)


def _hermite_kernel(x: float, y: float) -> float:
    """N = 2 Hermite-weight kernel e^{-y^2} (1 + 2xy) / sqrt(pi)."""
    return math.exp(-y * y) * (1.0 + 2.0 * x * y) / math.sqrt(math.pi)


def _ratio_hermitian_class() -> CallClass:
    def make(rng, ctx):
        x, y = _xy(rng, -1.5, 1.5, -1.5, 1.5)
        return {"x": x, "y": y}

    def run(inp):
        model = charpoly.SourceModel("hermitian", 2, (0.0, 0.0))
        return charpoly.kernel_from_ratio(model, inp["x"], inp["y"], mode="quadrature")

    def check(inp, value):
        x, y = inp["x"], inp["y"]
        scale = math.sqrt(_hermite_kernel(x, x) * _hermite_kernel(y, y))
        return _kernel_scale_check(value, _hermite_kernel(x, y), scale)

    return CallClass("ratio-hermitian-N2", make, run, check)


def _marginal_class(n: int, order: int) -> CallClass:
    def make(rng, ctx):
        while True:
            pts = np.round(rng.uniform(0.3, 5.0, order), 6)
            if order == 1 or abs(pts[0] - pts[1]) >= 0.5:
                break
        return {"alpha": round(float(rng.uniform(0.0, 2.0)), 3),
                "a": spread_sources(rng, n, 0.1, 2.0, 0.2), "points": tuple(map(float, pts))}

    def run(inp):
        spec = chgue.ensemble_spec(chgue.ChgueParams(inp["alpha"], inp["a"]))
        return ensembles.correlation_by_marginal(spec, inp["points"])

    def check(inp, value):
        k = np.array(_chgue_system(inp).kernel(inp["points"], inp["points"]))
        return closed_form_check(value, np.linalg.det(k))

    return CallClass(f"marginal-N{n}-n{order}", make, run, check)


# the RatioOracle tensor and scalar pdf_eval quadrature, which run nowhere else
_RATIO2, _HERM2 = _ratio_chiral_class(2), _ratio_hermitian_class()

DENSITY_QUADRATURE = Workload(
    "density-quadrature",
    # one N = 3 oracle in eight calls: more than a tenth, so it sets the p90;
    # three N = 2 oracles put the median inside that class
    (_ratio_chiral_class(3), _RATIO2, _HERM2, _marginal_class(2, 1),
     _RATIO2, _HERM2, _marginal_class(3, 2), _RATIO2),
)


WORKLOADS = {w.name: w for w in (KERNEL_GRID, CLOSED_FORMS, MC_SAMPLING, DENSITY_QUADRATURE)}
