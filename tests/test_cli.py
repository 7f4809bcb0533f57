"""Command-line interface: output formats, exit codes, and verify suites."""
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from biortho import (
    ChgueParams,
    Composition,
    ConfluentSpec,
    SourceModel,
    avg_charpoly,
    build_kernel,
    chgue_kernel,
    chgue_type_one,
    chgue_type_two,
    confluent_spec,
    confluent_weights,
    gauss_laguerre,
    gauss_legendre,
    kernel_eval,
    op_from_weight,
    rho1_check,
    sample_spectra,
    type_one,
)
from biortho import cli
from biortho.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(out: str) -> np.ndarray:
    """The rows of a CSV table, header dropped."""
    return np.array([[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]])


def cd_kernel(sys_, w, n, x: float, y: float) -> float:
    """Per-point Christoffel-Darboux sum of an orthogonal-polynomial system."""
    return w(y) * sum(sys_.eval(k, x) * sys_.eval(k, y) / sys_.norms[k] for k in range(n))


def assert_normwise(values, ref, tol: float) -> None:
    ref = np.asarray(ref)
    assert np.max(np.abs(np.asarray(values) - ref)) <= tol * np.max(np.abs(ref))


class TestKernelCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "kernel", "--ensemble", "chgue", "--alpha", "1",
            "--a", "1.1,0.4", "--grid", "0.5:2.5:3",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,K"
        assert len(lines) == 1 + 9  # 3x3 grid
        p = ChgueParams(1.0, (1.1, 0.4))
        x, y, k = (float(v) for v in lines[1].split(","))
        assert k == pytest.approx(chgue_kernel(p, x, y), rel=1e-12)

    def test_cross_check_coincident_sources(self, capsys):
        code, out, err = run(
            capsys,
            "kernel", "--a", "1,1", "--alpha", "1", "--grid", "0.5:4:3",
            "--cross-check", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["cross_check_max_rel_dev"] < 1e-7

    def test_cross_check_confluent(self, capsys):
        code, out, _ = run(
            capsys,
            "kernel", "--ensemble", "confluent", "--b", "1.2,0.4", "--mult", "2,1",
            "--alpha", "1", "--grid", "0.5:4:3", "--cross-check", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["cross_check_max_rel_dev"] < 1e-7
        for flags in (["--ensemble", "laguerre", "--n", "3"], ["--ensemble", "hermite", "--n", "3"]):
            code, _, _ = run(capsys, "kernel", *flags, "--grid", "0.5:4:3", "--cross-check")
            assert code == EXIT_USAGE

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "kernel", "--ensemble", "chgue", "--a", "1.0,0.3",
            "--grid", "1:2:2", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"params", "grid", "values", "metadata"}
        assert "seed" in doc["metadata"] and "versions" in doc["metadata"]
        assert {"biortho", "numpy", "scipy"} <= set(doc["metadata"]["versions"])
        assert len(doc["values"]) == 4

    def test_cross_check(self, capsys):
        code, out, err = run(
            capsys,
            "kernel", "--ensemble", "chgue", "--a", "1.2,0.5",
            "--grid", "0.5:4:3", "--cross-check", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["metadata"]["cross_check_max_rel_dev"] < 1e-7
        assert "cross-check" in err

    @pytest.mark.parametrize("ensemble", ["confluent", "laguerre", "hermite"])
    def test_table_matches_per_point(self, capsys, ensemble):
        flags = {
            "confluent": ["--alpha", "1", "--b", "0.8,0.0", "--mult", "2,1"],
            "laguerre": ["--alpha", "0.5", "--n", "3"],
            "hermite": ["--n", "4"],
        }[ensemble]
        code, out, _ = run(capsys, "kernel", "--ensemble", ensemble, *flags,
                           "--grid", "0.25:5:5")
        assert code == EXIT_OK
        rows = table(out)
        assert rows.shape == (25, 3)
        if ensemble == "confluent":
            spec = ConfluentSpec((0.8, 0.0), Composition((2, 1)))
            kd = build_kernel(confluent_spec(spec, 1.0))
            ref = [kernel_eval(kd, x, y) for x, y in rows[:, :2]]
        elif ensemble == "laguerre":
            w = lambda t: t**0.5 * np.exp(-t)
            sys_ = op_from_weight(w, gauss_laguerre(64, 0.5), 3)
            ref = [cd_kernel(sys_, w, 3, x, y) for x, y in rows[:, :2]]
        else:
            w = lambda t: np.exp(-t * t)
            sys_ = op_from_weight(w, gauss_legendre(64, -7.5, 7.5), 4)
            ref = [cd_kernel(sys_, w, 4, x, y) for x, y in rows[:, :2]]
        grid = np.linspace(0.25, 5.0, 5)
        np.testing.assert_array_equal(rows[:, 0], np.repeat(grid, 5))
        np.testing.assert_array_equal(rows[:, 1], np.tile(grid, 5))
        assert_normwise(rows[:, 2], ref, 1e-13)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        code, out, _ = run(
            capsys,
            "kernel", "--ensemble", "laguerre", "--n", "3",
            "--grid", "0.5:2:2", "--out", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("x,y,K")

    def test_17_digit_csv(self, capsys):
        _, out, _ = run(
            capsys,
            "kernel", "--ensemble", "chgue", "--a", "0.9,0.2",
            "--grid", "1:1:1",
        )
        value = out.strip().splitlines()[1].split(",")[2]
        # 17 significant digits survive a float round trip exactly
        assert float(value) == float(f"{float(value):.17g}")
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15


class TestPolyCommand:
    def test_type_two_values(self, capsys):
        code, out, _ = run(
            capsys,
            "poly", "--ensemble", "chgue", "--alpha", "0.5",
            "--a", "1.3,0.6", "--kind", "II", "--grid", "0:4:5",
        )
        assert code == EXIT_OK
        p = chgue_type_two(ChgueParams(0.5, (1.3, 0.6)))
        for line in out.strip().splitlines()[1:]:
            x, v = (float(s) for s in line.split(","))
            assert v == pytest.approx(p(x), rel=1e-12)

    def test_type_one_selftest(self, capsys):
        code, _, err = run(
            capsys,
            "poly", "--ensemble", "chgue", "--a", "1.3,0.6",
            "--kind", "I", "--grid", "0:4:5",
        )
        assert code == EXIT_OK
        assert "self-test" in err

    @pytest.mark.parametrize("ensemble", ["chgue", "confluent"])
    def test_type_one_matches_per_point(self, capsys, ensemble):
        if ensemble == "chgue":
            flags = ["--alpha", "1", "--a", "1.3,0.6,0.2"]
            f = chgue_type_one(ChgueParams(1.0, (1.3, 0.6, 0.2)))
        else:
            flags = ["--alpha", "1", "--b", "0.8,0.0", "--mult", "2,1"]
            ws, comp = confluent_weights(ConfluentSpec((0.8, 0.0), Composition((2, 1))), 1.0)
            f = type_one(ws, comp)
        code, out, _ = run(capsys, "poly", "--ensemble", ensemble, *flags,
                           "--kind", "I", "--grid", "0:10:11")
        assert code == EXIT_OK
        rows = table(out)
        np.testing.assert_array_equal(rows[:, 0], np.linspace(0.0, 10.0, 11))
        assert_normwise(rows[:, 1], [f(x) for x in rows[:, 0]], 1e-13)

    def test_confluent(self, capsys):
        code, out, _ = run(
            capsys,
            "poly", "--ensemble", "confluent", "--alpha", "1",
            "--b", "0.8,0.0", "--mult", "2,1", "--kind", "II",
            "--grid", "0:4:3",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4


class TestCorrAndSample:
    def test_corr(self, capsys):
        code, out, _ = run(
            capsys,
            "corr", "--ensemble", "chgue", "--a", "1.0,0.4",
            "--points", "0.8,2.2",
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "x1,x2,rho"
        assert float(row.split(",")[2]) > 0

    def test_corr_coincident_sources(self, capsys):
        # coincident sources: the staircase kernel against the generic Gram
        # kernel of the confluent ensemble
        points = np.array([0.5, 1.5, 3.0])
        code, out, _ = run(
            capsys,
            "corr", "--ensemble", "chgue", "--alpha", "1", "--a", "1.0,1.0,0.3",
            "--points", "0.5,1.5,3.0",
        )
        assert code == EXIT_OK
        kd = build_kernel(confluent_spec(ConfluentSpec((1.0, 0.3), Composition((2, 1))), 1.0))
        ref = np.linalg.det(kernel_eval(kd, points[:, None], points[None, :]))
        assert table(out)[0, -1] == pytest.approx(ref, rel=1e-9)

    def test_corr_hermite(self, capsys):
        points = [-0.7, 0.2, 1.1]
        code, out, _ = run(
            capsys, "corr", "--ensemble", "hermite", "--n", "4", "--points=-0.7,0.2,1.1",
        )
        assert code == EXIT_OK
        w = lambda t: np.exp(-t * t)
        sys_ = op_from_weight(w, gauss_legendre(64, -7.5, 7.5), 4)
        ref = np.linalg.det([[cd_kernel(sys_, w, 4, x, y) for y in points] for x in points])
        assert table(out)[0, -1] == pytest.approx(ref, rel=1e-9)

    def test_corr_order_exceeds_size(self, capsys):
        code, _, err = run(
            capsys, "corr", "--ensemble", "chgue", "--a", "1.0,0.4", "--points", "0.5,1,2",
        )
        assert code == EXIT_USAGE
        assert "exceeds ensemble size" in err

    def test_sample_deterministic(self, capsys):
        args = (
            "sample", "--ensemble", "chgue", "--alpha", "1",
            "--a", "0.5,1.5", "--samples", "4", "--seed", "7",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_sample_confluent(self, capsys):
        # the confluent ensemble samples the chgue model at the repeated sources
        common = ("--alpha", "1", "--samples", "5", "--seed", "3")
        code, out, _ = run(capsys, "sample", "--ensemble", "confluent",
                           "--b", "1.2,0.4", "--mult", "2,1", *common)
        assert code == EXIT_OK
        code, want, _ = run(capsys, "sample", "--a", "1.2,1.2,0.4", *common)
        assert code == EXIT_OK
        assert out.encode() == want.encode()


@pytest.mark.parametrize(
    "argv, header",
    [
        (["sample", "--alpha", "1", "--a", "0.5,1.5", "--samples", "300", "--seed", "7"],
         "lambda1,lambda2"),
        (["kernel", "--alpha", "1", "--a", "1.1,0.4", "--grid", "0.5:2.5:4"], "x,y,K"),
        (["poly", "--a", "1.3,0.6", "--kind", "II", "--grid", "0:4:5"], "x,value"),
        (["corr", "--a", "1.0,0.4", "--points", "0.8,2.2"], "x1,x2,rho"),
        (["sample", "--alpha", "1", "--a", "0.5", "--samples", "50", "--seed", "3"],
         "lambda1"),
        (["sample", "--alpha", "1", "--a", "0.5,1.5,0.2", "--samples", "50", "--seed", "3"],
         "lambda1,lambda2,lambda3"),
    ],
)
def test_csv_bytes_are_per_row_joins(capsys, argv, header):
    # the CSV table is formatted in one pass; its bytes are those of a
    # per-row %.17g join of the same values, read from the JSON output (so
    # the JSON of sample holds each draw's whole spectrum, N = 1, 2 and 3)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    if argv[0] == "sample":
        # one row per draw: its index in grid, its whole spectrum in values
        assert doc["grid"] == list(range(len(doc["values"])))
        rows = doc["values"]
    else:
        rows = [[*g, v] for g, v in zip(doc["grid"], doc["values"])]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    want = header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert out == want


class TestVerifySuites:
    def test_gram_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "gram", "--a", "1.3,0.7,0.2")
        assert code == EXIT_OK
        assert "PASS gram" in out
        assert out.strip().splitlines()[-1] == "SUITE PASS"

    @pytest.mark.parametrize("suite, flags, names", [
        pytest.param("gram", (), ["gram closed-form vs quadrature"], id="gram"),
        pytest.param("kernel", (), ["closed-form kernel vs generic path", "kernel trace = N"],
                     id="kernel"),
        pytest.param("ortho", (), ["type I moments vanish", "type I final moment = 1",
                                   "type II first moments vanish", "staircase biorthogonality"],
                     id="ortho"),
        pytest.param("corollary", (), ["kernel = staircase sum"], id="corollary"),
        pytest.param("rankdecomp", (), ["rank decomposition N=3 r=1", "rank decomposition N=4 r=2"],
                     id="rankdecomp"),
        # the given sources are split, at r = the number of non-zero ones
        pytest.param("rankdecomp", ("--alpha", "1", "--a", "1.1,0.3,0,0"),
                     ["rank decomposition N=4 r=2"], id="rankdecomp-sources"),
        pytest.param("rankdecomp", ("--ensemble", "confluent", "--b", "1.2,0", "--mult", "1,2"),
                     ["rank decomposition N=3 r=1"], id="rankdecomp-confluent"),
        pytest.param("mc", ("--alpha", "1", "--a", "0.3,1.1", "--samples", "20000", "--seed", "4"),
                     ["MC <det> vs type II (sigmas)",
                      "rho1 histogram bins outside 3 sigma (fraction)"], id="mc"),
    ])
    def test_suite_check_names(self, capsys, suite, flags, names):
        # the exact, ordered check lines of every suite
        code, out, _ = run(capsys, "verify", "--suite", suite, *flags)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert [line.split(" residual=")[0] for line in lines] == [
            *(f"PASS {name}" for name in names), "SUITE PASS",
        ]

    @pytest.mark.parametrize("source_args", [
        ("--a", "1,1"),
        ("--ensemble", "confluent", "--b", "1.2,0.4", "--mult", "2,1"),
    ])
    @pytest.mark.parametrize("suite", ["kernel", "ortho", "corollary"])
    def test_suites_accept_coincident_sources(self, capsys, suite, source_args):
        # the reference is the confluent spec; with the ensemble spec its
        # repeated xi columns made the Gram matrix singular (exit 3)
        code, out, _ = run(capsys, "verify", "--suite", suite, "--alpha", "1", *source_args)
        assert code == EXIT_OK, out
        assert out.strip().splitlines()[-1] == "SUITE PASS"

    def test_ortho_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "ortho")
        assert code == EXIT_OK
        assert "SUITE PASS" in out

    def test_corollary_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "corollary")
        assert code == EXIT_OK

    def test_rankdecomp_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rankdecomp")
        assert code == EXIT_OK

    @pytest.mark.parametrize("a", ["5,4,3", "0.3,1.1,0,0", "0.9,0,0.4"])
    def test_rankdecomp_rejects_sources_it_cannot_split(self, capsys, a):
        # full rank, an increasing head, a zero before a non-zero source
        code, _, err = run(capsys, "verify", "--suite", "rankdecomp", "--a", a)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    def test_mc_suite_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "mc", "--alpha", "1", "--a", "0.3,1.1",
            "--samples", "60000",
        )
        assert code == EXIT_OK

    def test_mc_suite_draws_once(self, capsys, monkeypatch):
        # one draw feeds both <det> estimates and the histogram; the printed
        # residuals equal those of three separate draws at the same seed
        import biortho.charpoly as charpoly

        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return sample_spectra(*args, **kwargs)

        monkeypatch.setattr(charpoly, "sample_spectra", counting)
        code, out, _ = run(
            capsys,
            "verify", "--suite", "mc", "--alpha", "1", "--a", "0.3,1.1",
            "--samples", "20000", "--seed", "4",
        )
        assert code == EXIT_OK
        assert len(draws) == 1
        m = SourceModel("chiral", 2, (0.3, 1.1), alpha=1)
        p = chgue_type_two(ChgueParams(1.0, (0.3, 1.1)))
        worst = 0.0
        for x in (0.8, 2.5):
            est = avg_charpoly(m, x, 20000, 4)
            worst = max(worst, abs(est.value - p(x)) / est.std_error)
        outside = 1.0 - rho1_check(m, bins=40, samples=20000, seed=4).fraction_within
        lines = out.splitlines()
        assert lines[0].endswith(f"residual={worst:.3e} tol=3.000e+00")
        assert lines[1].endswith(f"residual={outside:.3e} tol=5.000e-02")

    def test_tol_override_forces_failure(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "gram", "--a", "1.3,0.7",
            "--tol-override", "gram=1e-18",
        )
        assert code == EXIT_VERIFY
        assert "FAIL" in out
        assert "SUITE FAIL" in out

    def test_unknown_tol_key(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--suite", "gram", "--tol-override", "nope=1",
        )
        assert code == EXIT_USAGE
        assert "error" in err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("first, second", [
        (("verify", "--suite", "gram"), ("verify", "--suite", "gram", "--a", "2.0,0.5")),
        (("verify", "--suite", "gram", "--a", "2.0,0.5"), ("verify", "--suite", "gram")),
        (("kernel", "--a", "1.1,0.4", "--grid", "0:2:3", "--cross-check"),
         ("kernel", "--a", "0.9", "--alpha", "2", "--grid", "0:2:3")),
        (("poly", "--kind", "I", "--a", "1.1,0.4"), ("corr", "--a", "1.1,0.4", "--points", "1")),
        # the default sources of verify must not reach a later call (exit 2)
        (("verify", "--suite", "gram"), ("kernel", "--grid", "0:2:3")),
    ])
    def test_calls_do_not_share_state(self, capsys, first, second):
        # two calls on one parser print what each prints on a parser of its own
        alone = []
        for argv in (first, second):
            cli._build_parser.cache_clear()
            alone.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        assert [run(capsys, *first), run(capsys, *second)] == alone


class TestErrorsAndConfig:
    def test_usage_error_exit_code(self, capsys):
        code, _, err = run(capsys, "kernel", "--ensemble", "chgue")  # no --a
        assert code == EXIT_USAGE
        assert "error" in err

    def test_non_finite_source(self, capsys):
        code, _, err = run(capsys, "kernel", "--ensemble", "chgue", "--a", "1,nan")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_sample_non_integer_alpha(self, capsys):
        code, out, err = run(
            capsys, "sample", "--ensemble", "chgue", "--alpha", "0.5",
            "--a", "0.5,1.5",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_malformed_source(self, capsys):
        code, _, err = run(capsys, "kernel", "--ensemble", "chgue", "--a", "1.3,x")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "--config", str(tmp_path / "absent.json"), "kernel", "--a", "1,0.4",
        )
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_trailing_config_flag(self, capsys):
        code, _, err = run(capsys, "kernel", "--a", "1,0.4", "--config")
        assert code == EXIT_USAGE
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_bad_grid(self, capsys):
        code, _, _ = run(
            capsys, "kernel", "--ensemble", "chgue", "--a", "1,0.4",
            "--grid", "nonsense",
        )
        assert code == EXIT_USAGE

    def test_numeric_error_exit_code(self, capsys):
        # the 0F1 matrix series overflows at a y = 6e6 -> ConvergenceError
        code, _, err = run(
            capsys,
            "kernel", "--ensemble", "chgue", "--a", "2000", "--grid", "0:3000:2",
        )
        assert code == EXIT_NUMERIC
        assert "numeric error" in err

    @pytest.mark.parametrize("argv", [
        ("poly", "--kind", "I"),
        ("verify", "--suite", "gram"),
    ])
    def test_alpha_past_gamma_overflow(self, capsys, argv):
        # Gamma(alpha + 1) of the Laguerre rule overflows a double at 171
        code, out, err = run(capsys, *argv, "--alpha", "171", "--a", "1.2,0.5")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric error:") and len(err.strip().splitlines()) == 1

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": "chgue", "a": "1.1,0.4", "alpha": 1.0}))
        code, out, _ = run(
            capsys,
            "--config", str(cfg), "kernel", "--grid", "1:2:2",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 5

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": "9.0,8.0", "grid": "1:2:2"}))
        code, out, _ = run(
            capsys,
            "--config", str(cfg), "kernel", "--ensemble", "chgue",
            "--a", "1.1,0.4",
        )
        assert code == EXIT_OK
        # config grid applies (1:2:2), explicit --a wins
        p = ChgueParams(0.0, (1.1, 0.4))
        line = out.strip().splitlines()[1]
        x, y, k = (float(v) for v in line.split(","))
        assert k == pytest.approx(chgue_kernel(p, x, y), rel=1e-12)


def test_readme_command_lines_run(capsys):
    # every `biortho ...` line of README's "## Command line" block exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("biortho ")]
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
