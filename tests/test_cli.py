import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import h1geo
from h1geo.cli import _measure_H, _parse_res, main
from h1geo.errors import ConfigError
from h1geo.curvature import mean_curvature_char
from h1geo.surfaces import G_MAX_EXPONENT, G_MAX_TOKENS, SpherePatch, catalog, parse_g
from h1geo.verify import Check, run_suite


def write_helix_csv(path, r=1.0, n=200, span=3.0):
    eps = np.linspace(0, span, n)
    x = np.sin(2 * r * eps) / (2 * r)
    y = (np.cos(2 * r * eps) - 1) / (2 * r)
    lines = ["eps,x,y"] + [f"{e},{a},{b}" for e, a, b in zip(eps, x, y)]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# polynomial parser


def test_parse_poly_basic():
    g, dg, ddg = parse_g("y^2")(3.0)
    assert g == 9.0 and dg == 6.0 and ddg == 2.0


def test_parse_poly_affine_and_spaces():
    jet = parse_g("3*y + 7")
    assert jet(2.0)[0] == 13.0 and jet(0.0)[1] == 3.0


def test_parse_poly_unicode_and_parens():
    assert parse_g("2·(y − 1)^2")(3.0)[0] == 8.0


def test_parse_poly_negative_leading():
    assert parse_g("-y^3+1")(2.0)[0] == -7.0


@pytest.mark.parametrize("text, expect", [
    ("2*-y^2", (0.0, 0.0, -2.0)), ("1--y^2", (1.0, 0.0, 1.0)), ("1+-y^2", (1.0, 0.0, -1.0)),
    ("3*-2^2", (-12.0,)), ("(-y)^2", (0.0, 0.0, 1.0)), ("-y^2", (0.0, 0.0, -1.0)),
])
def test_parse_poly_unary_minus_negates_the_power(text, expect):
    # expect holds the power-basis coefficients of g
    y = np.array([-1.5, -0.25, 0.5, 2.0])
    want = [sum(c * y**k for k, c in enumerate(expect)),
            sum(k * c * y ** (k - 1) for k, c in enumerate(expect) if k >= 1),
            sum(k * (k - 1) * c * y ** (k - 2) for k, c in enumerate(expect) if k >= 2)]
    for got, exact in zip(parse_g(text)(y), want):
        assert np.array_equal(got, exact + 0.0 * y)


def test_parse_poly_rejects_junk():
    with pytest.raises(ConfigError):
        parse_g("sin(y)")
    with pytest.raises(ConfigError):
        parse_g("y^-1")
    with pytest.raises(ConfigError):
        parse_g("y y")


# ---------------------------------------------------------------------------
# mesh command


def test_mesh_sphere_obj(tmp_path):
    out = tmp_path / "s1.obj"
    rc = main(["mesh", "--surface", "sphere", "--lambda", "1", "--res", "32x32",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 32 * 32


def test_mesh_unknown_surface_exits_2(tmp_path, capsys):
    rc = main(["mesh", "--surface", "nosuch", "--out", str(tmp_path / "x.obj")])
    assert rc == 2
    assert "unknown surface" in capsys.readouterr().err


def test_mesh_sigma_lambda_from_csv(tmp_path, capsys):
    curve = tmp_path / "helix.csv"
    write_helix_csv(curve)
    out = tmp_path / "sig.obj"
    rc = main(["mesh", "--surface", "sigma-lambda", "--curve", str(curve),
               "--lambda", "1", "--res", "12x13", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    # bounded by the two singular boundary rows
    assert "singular vertices: 24 in 2 component(s)" in msg


def test_mesh_requires_output(tmp_path):
    rc = main(["mesh", "--surface", "sphere", "--lambda", "1"])
    assert rc == 2


@pytest.mark.parametrize("extra", [[], ["--with-h"]], ids=["plain", "with-h"])
def test_mesh_checks_outputs_before_meshing(monkeypatch, capsys, extra):
    def no_mesh(*args, **kwargs):
        raise AssertionError("mesh built before the outputs were checked")

    monkeypatch.setattr("h1geo.surfaces.write_mesh", no_mesh)
    rc = main(["mesh", "--surface", "sphere", "--res", "8x8", *extra])
    assert rc == 2
    assert "mesh needs --out (OBJ path) and/or --csv" in capsys.readouterr().err


def test_mesh_bad_resolution():
    rc = main(["mesh", "--surface", "sphere", "--res", "bogus", "--out", "/tmp/never.obj"])
    assert rc == 2


def test_mesh_csv_with_curvature(tmp_path):
    csv = tmp_path / "m.csv"
    rc = main(["mesh", "--surface", "sigma-lambda", "--lambda", "1",
               "--res", "8x9", "--csv", str(csv), "--with-h"])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "eps,s,x,y,t,nh_norm,h_est"
    mid = lines[1 + 4 * 9 + 4].split(",")
    assert abs(float(mid[6]) - 1.0) < 1e-4  # interior H close to lambda


# ---------------------------------------------------------------------------
# verify command


def test_verify_iso_suite(tmp_path):
    out = tmp_path / "iso.json"
    rc = main(["verify", "--suite", "iso", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 3
    assert all(set(c) == {"name", "measured", "expected", "tol", "mode",
                          "source", "passed"} for c in payload["checks"])


def test_verify_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "geodesics", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "geodesics", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_failing_tolerance_exits_1():
    rc = main(["verify", "--suite", "iso", "--tol-iso-ratio", "1e-18"])
    assert rc == 1


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_unknown_tolerance():
    assert main(["verify", "--suite", "iso", "--tol-bogus", "1"]) == 2


def test_verify_negative_tolerance():
    assert main(["verify", "--suite", "iso", "--tol-iso-ratio", "-1"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["--suite", "geodesics", "--surface", "sphere"], "--surface"),
    (["--suite", "geodesics", "--lambda", "1"], "--lambda"),
    (["--suite", "geodesics", "--r", "1"], "--r"),
    (["--suite", "geodesics", "--curve", "/nonexistent.csv"], "--curve"),
    (["--suite", "geodesics", "--side", "1"], "--side"),
    (["--suite", "geodesics", "--sheet", "lower"], "--sheet"),
    (["--suite", "geodesics", "--d", "0"], "--d"),
    (["--suite", "geodesics", "--res", "4x4"], "--res"),
    (["--suite", "iso", "--g", "y^2"], "--g"),
    (["--g", "y^2", "--suite", "geodesics"], "--g"),
], ids=["surface", "lambda", "r", "curve", "side", "sheet", "d", "res", "g-iso", "g-geodesics"])
def test_verify_refuses_flags_it_does_not_read(capsys, argv, flag):
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


def test_verify_config_may_hold_other_commands_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": "bernstein", "g": "y^2", "res": "4x4",
                               "lambda": 2.0, "suite": "iso"}))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert "3/3 checks passed" in capsys.readouterr().out


def test_verify_bernstein_custom_g(capsys):
    rc = main(["verify", "--suite", "bernstein", "--g", "y^2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NOT area-stationary" in out
    assert "bernstein-defect[t=xy+y^2]" in out


_G_ARGV = {"report": ["report", "--surface", "bernstein", "--res", "4x4"],
           "verify": ["verify", "--suite", "bernstein"]}


@pytest.mark.parametrize("g", ["1.2.3", "1e", "(" * 1200 + "y" + ")" * 1200,
                               "1e400*y", "1e300*y*1e300", "y^1e400"],
                         ids=["two-points", "bare-exponent", "deep-nesting",
                              "inf-literal", "inf-product", "inf-exponent"])
@pytest.mark.parametrize("command", sorted(_G_ARGV))
def test_malformed_g_exits_2(capsys, command, g):
    assert main(_G_ARGV[command] + [f"--g={g}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("g, cap", [
    ("y^9e99", f"cap of {G_MAX_EXPONENT}"), (f"y^{G_MAX_EXPONENT + 1}", f"cap of {G_MAX_EXPONENT}"),
    ("+".join(["y"] * (G_MAX_TOKENS // 2 + 1)), f"cap of {G_MAX_TOKENS} tokens"),
], ids=["exponent-9e99", "exponent-above-cap", "long-expression"])
@pytest.mark.parametrize("command", sorted(_G_ARGV))
def test_g_beyond_a_cap_exits_2_naming_it(capsys, command, g, cap):
    assert main(_G_ARGV[command] + [f"--g={g}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and cap in err and "Traceback" not in err


@pytest.mark.parametrize("g", ["y^101", "(y+1)^100"])
def test_high_degree_g_is_accepted(capsys, g):
    # numpy's degree limit of 100 bound the power basis; the jets have none
    assert main(["report", "--surface", "bernstein", "--res", "4x4", f"--g={g}"]) == 0
    assert json.loads(capsys.readouterr().out)["surface"] == "bernstein"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow on extreme inputs
@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_G_ARGV)),
       g=st.one_of(st.text("0123456789.eE+-*^()y −·", min_size=1, max_size=24),
                   st.integers(1, 3000).map(lambda k: "(" * k + "y" + ")" * k)))
def test_cli_never_raises_on_g_strings(command, g):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(_G_ARGV[command] + [f"--g={g}"])
    # 1 is verify's failed-checks code: a huge g'' can legitimately miss a tolerance
    assert rc in (0, 1, 2, 3) if command == "verify" else rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_bernstein_suite_passes_for_a_high_power_g(capsys):
    # g' of (y+1)^100 reaches ~1e13 on [-1, 1], where no offset probe into
    # the regular side survives rounding; the defect reads -g''/2 from the
    # limit of nu_H on the curve itself
    assert main(["verify", "--suite", "bernstein", "--g", "(y+1)^100"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "7/7 checks passed" in out
    assert "PASS  bernstein-defect[t=xy+(y+1)^100]" in out


def test_mesh_heights_of_a_high_power_g_match_mpmath(tmp_path):
    # the power basis of (y+1)^100 wrote t = 6.7e20 at (-3, -1.4), where t = 4.2
    csv = tmp_path / "m.csv"
    assert main(["mesh", "--surface", "bernstein", "--g", "(y+1)^100", "--res", "61x61",
                 "--csv", str(csv)]) == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(2, 3, 4))
    assert rows.shape == (61 * 61, 3)
    with mpmath.workdps(60):
        worst = 0.0
        for x, y, t in rows:
            exact = mpmath.mpf(x) * mpmath.mpf(y) + (mpmath.mpf(y) + 1) ** 100
            worst = max(worst, abs(mpmath.mpf(t) - exact) / abs(exact) if exact else abs(t))
    assert worst <= 1e-14, float(worst)


# ---------------------------------------------------------------------------
# report command


def test_report_sphere(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["report", "--surface", "sphere", "--lambda", "1",
               "--res", "64x64", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert abs(rep["A"] - 9.8696044) < 1e-4
    assert abs(rep["V"] - 3.7011017) < 1e-4
    assert abs(rep["iso_ratio"] - 187.1569) < 1e-2
    assert rep["minkowski_defect"] < 1e-8


def test_report_cylinder_sheet_H(capsys):
    rc = main(["report", "--surface", "cylinder-s", "--lambda", "1", "--res", "32x32"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["H"] - 1.0) < 1e-5  # measured, not nominal
    assert rep["V"] is None  # open sheet


def test_report_H_evaluates_its_probes_once():
    # one normal_data call on all 25 probes serves both the selection of the
    # regular ones and their H
    shapes = []

    class CountingSphere(SpherePatch):
        def normal_data(self, eps, s):
            shapes.append(np.broadcast(eps, s).shape)
            return super().normal_data(eps, s)

    H = _measure_H(CountingSphere(1.0))
    assert shapes == [(5, 5)]
    sp = SpherePatch(1.0)
    ee, ss = np.meshgrid(np.linspace(sp.eps_lo, sp.eps_hi, 7)[1:-1],
                         np.linspace(sp.s_lo, sp.s_hi, 7)[1:-1], indexing="ij")
    ok = sp.normal_data(ee, ss).nh_norm >= 1e-2
    assert H == float(np.mean(mean_curvature_char(sp, ee[ok], ss[ok])))


def test_report_rejects_unequal_resolution(capsys):
    assert main(["report", "--surface", "plane", "--res", "16x128"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "16x128" in err


@pytest.mark.parametrize("d", [0.0, -1.5])
def test_report_plane_area_within_stated_error(capsys, d):
    # the horizontal plane t = d over [-2, 2]^2 has |N_H| = sqrt(x^2 + y^2)
    # area density for every d, so A = (32/3)(sqrt 2 + asinh 1)
    assert main(["report", "--surface", "plane", f"--d={d}"]) == 0
    rep = json.loads(capsys.readouterr().out)
    exact = 32.0 / 3.0 * (math.sqrt(2.0) + math.asinh(1.0))
    assert abs(rep["A"] - exact) <= rep["A_err"]


def test_report_stdout_default(capsys):
    rc = main(["report", "--surface", "plane", "--res", "16x16"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["surface"] == "plane"


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": "sphere", "lambda": 2.0, "res": "32x32"}))
    rc = main(["report", "--config", str(cfg)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda"] == 2.0
    # flags win over the file
    rc = main(["report", "--config", str(cfg), "--lambda", "1"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["lambda"] == 1.0


@pytest.mark.parametrize("argv, key", [
    (["report", "--surface", "sphere", "--res="], "res"),
    (["report", "--surface", "sigma-lambda", "--curve=", "--res", "4x4"], "curve"),
    (["report", "--surface", "sphere", "--curve="], "curve"),
    (["report", "--surface", "sphere", "--g="], "g"),
    (["report", "--surface", "bernstein", "--g= "], "g"),
    (["verify", "--suite="], "suite"),
    (["report", "--surface", "sphere", "--out="], "out"),
    (["report", "--surface", "sphere", "--config="], "config"),
    (["report", "--surface="], "surface"),
    (["mesh", "--surface", "sphere", "--res", "4x4", "--csv=\t"], "csv"),
    ({"surface": "sphere", "res": ""}, "res"),
    ({"surface": "bernstein", "g": "  "}, "g"),
], ids=["res", "curve", "curve-on-sphere", "g-on-sphere", "g-blank", "suite", "out",
        "config", "surface", "csv-tab", "config-res", "config-g-blank"])
def test_empty_values_exit_2_naming_the_flag(tmp_path, capsys, argv, key):
    if isinstance(argv, dict):   # the same values from a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv))
        argv = ["report", "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--{key} must not be empty" in err and "Traceback" not in err


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": "sphere", "bogus": 3}))
    assert main(["report", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# check record semantics


def test_check_modes():
    assert Check("a", 1.0001, 1.0, 1e-3, "s", mode="abs").passed
    assert not Check("a", 1.01, 1.0, 1e-3, "s", mode="abs").passed
    assert Check("a", 100.01, 100.0, 1e-3, "s", mode="rel").passed
    assert Check("a", 5.0, 1.0, 0.0, "s", mode="min").passed
    assert not Check("a", 0.5, 1.0, 0.0, "s", mode="min").passed


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nope")


# ---------------------------------------------------------------------------
# exit-code contract at the input and output boundaries


def test_import_cli_leaves_scipy_unloaded(tmp_path):
    # neither the import nor a command over a CSV curve loads scipy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(h1geo.__file__)))
    code = ("import sys, h1geo.cli; "
            "rc = h1geo.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "sys.exit(rc or 10 * any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    curve = tmp_path / "curve.csv"
    curve.write_text("eps,x,y\n" + "".join(f"{e / 39!r},{e / 39!r},{0.2 * math.sin(e / 13)!r}\n"
                                            for e in range(40)))
    src = ["--surface", "sigma-lambda", "--curve", str(curve)]
    for argv in ([], ["report", *src, "--res", "4x4"],
                 ["mesh", *src, "--res", "8x8", "--out", str(tmp_path / "m.obj")]):
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120,
                             capture_output=True)
        assert run.returncode == 0, (argv, run.returncode)


@pytest.mark.parametrize("text, code", [
    (None, 2), ("", 2), ("eps,x,y\n", 2), ("eps,x,y\n0,0\n1,1\n2,2\n3,3\n", 2),
    ("eps,x,y\n0,0,0\n1,a,0\n2,2,0\n3,3,0\n", 2), ("eps,x,y\n0,0,0\n1,nan,0\n2,2,0\n3,3,0\n", 2),
    ("eps,x,y\n0,1,2\n1,1,2\n2,1,2\n3,1,2\n4,1,2\n", 2),
], ids=["missing", "empty", "header-only", "short-rows", "non-numeric", "nan", "constant"])
def test_bad_curve_csv_exit_codes(tmp_path, capsys, text, code):
    curve = tmp_path / "curve.csv"
    if text is not None:
        curve.write_text(text)
    rc = main(["mesh", "--surface", "sigma-lambda", "--curve", str(curve),
               "--res", "4x4", "--out", str(tmp_path / "x.obj")])
    assert rc == code
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan", "abc", "0", "-inf"])
def test_tolerance_must_be_finite_positive(value, capsys):
    assert main(["verify", "--suite", "geodesics", "--tol-cut-flat", value]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "[1]", "null"])
def test_config_tolerance_must_be_finite_positive(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"suite": "geodesics", "tol-iso-ratio": %s}' % value)
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["report", "--surface", "plane", "--res", "4x4", "--out"],
    ["mesh", "--surface", "plane", "--res", "4x4", "--out"],
    ["mesh", "--surface", "plane", "--res", "4x4", "--csv"],
    ["verify", "--suite", "geodesics", "--out"],
], ids=["report-out", "mesh-out", "mesh-csv", "verify-out"])
def test_output_into_missing_directory_exits_2(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path / "missing" / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["report", "--surface", "plane", "--res", "4x4", "--out"],
    ["mesh", "--surface", "plane", "--res", "4x4", "--out"],
    ["mesh", "--surface", "plane", "--res", "4x4", "--csv"],
    ["verify", "--suite", "iso", "--out"],
], ids=["report-out", "mesh-out", "mesh-csv", "verify-out"])
def test_output_files_get_the_mode_open_would_give(tmp_path, capsys, argv):
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_text("")
    old.chmod(0o640)
    saved = os.umask(0o022)
    try:
        assert main(argv + [str(new)]) == 0
        assert main(argv + [str(old)]) == 0
    finally:
        os.umask(saved)
    assert new.stat().st_mode & 0o7777 == 0o644
    assert old.stat().st_mode & 0o7777 == 0o640 and old.stat().st_size > 0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("surface, key", [
    ("sphere", "lambda"), ("cylinder-s", "lambda"), ("vertical-cylinder", "r"), ("plane", "d"),
])
def test_non_finite_surface_parameters_exit_2(tmp_path, capsys, value, source, surface, key):
    argv = ["report", "--res", "4x4"]
    if source == "flag":
        argv += ["--surface", surface, f"--{key}={value}"]   # "=" lets argparse take "-inf"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": surface, key: value}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


def test_curve_csv_with_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_helix_csv(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = []
    for curve in (plain, marked):
        out = tmp_path / (curve.stem + ".json")
        assert main(["report", "--surface", "sigma-lambda", "--curve", str(curve),
                     "--res", "4x4", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_sigma_lambda_over_csv_curve(tmp_path):
    curve = tmp_path / "helix.csv"
    write_helix_csv(curve)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["report", "--surface", "sigma-lambda", "--curve", str(curve),
                     "--res", "16x16", "--out", str(out)]) == 0
    rep = json.loads(outs[0].read_text())
    assert np.isfinite(rep["A"]) and rep["A"] > 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# Fourier modes k = 1, 2, 3 (x amplitude, x phase, y amplitude, y phase) of
# the benchmark's seeded CSV curve
CURVE_MODES = ((0.10, 0.4, 0.30, 1.9), (0.05, 2.2, 0.15, 4.1), (0.033, 5.0, 0.10, 0.7))


def write_seeded_curve_csv(path, seed):
    """The benchmark's CSV curve at `seed`: a drift plus three Fourier modes
    over 200 samples, rescaled to polygonal length 0.1 and turned about the
    origin by an angle drawn from the seed."""
    u = np.linspace(0.0, 1.0, 200)
    x, y = u.copy(), np.zeros_like(u)
    for k, (ax, px, ay, py) in enumerate(CURVE_MODES, start=1):
        x += ax * np.sin(2 * np.pi * k * u + px)
        y += ay * np.sin(2 * np.pi * k * u + py)
    x, y = x - x[0], y - y[0]
    scale = 0.1 / float(np.sum(np.hypot(np.diff(x), np.diff(y))))
    turn = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(turn) * scale, np.sin(turn) * scale
    rows = zip(u.tolist(), (c * x - s * y).tolist(), (s * x + c * y).tolist())
    path.write_text("eps,x,y\n" + "".join(f"{e!r},{a!r},{b!r}\n" for e, a, b in rows))


def test_report_H_over_the_turned_benchmark_curve(tmp_path, capsys):
    # at the curvature peak of the seed-11 curve F_eps and F_s are parallel
    # to 3e-8, where the Gram system for Z's velocity read H = 1 + 8.5e-8
    curve = tmp_path / "curve.csv"
    write_seeded_curve_csv(curve, 11)
    assert main(["report", "--surface", "sigma-lambda", "--curve", str(curve),
                 "--res", "2x2"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["H"] - 1.0) < 1e-9


@pytest.mark.parametrize("argv", [
    ["report", "--surface", "sphere", "--lambda", "1e-80"],
    ["mesh", "--surface", "sigma-lambda", "--lambda", "1e300"],
    ["report", "--surface", "sigma-lambda", "--lambda", "1e300"],
    ["mesh", "--surface", "helicoid-l", "--lambda", "1e300"],
    ["report", "--surface", "helicoid-l", "--lambda", "1e300"],
], ids=["report-sphere-tiny", "mesh-sigma-huge", "report-sigma-huge",
        "mesh-helicoid-huge", "report-helicoid-huge"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_overflow_exits_3(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "x.obj")] if argv[0] == "mesh" else []
    assert main(argv + ["--res", "4x4"] + out) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "Traceback" not in err
    assert f"float overflow in {argv[0]} of surface {argv[2]}" in err


@pytest.mark.parametrize("argv", [
    ["mesh", "--surface", "sphere", "--lambda", "1e-300"],
    ["mesh", "--surface", "cylinder-s", "--lambda", "1e-300"],
    ["mesh", "--surface", "sigma-lambda", "--lambda", "1e-300"],
    ["mesh", "--surface", "helicoid-l", "--lambda", "1e-300"],
    ["mesh", "--surface", "helicoid-l", "--lambda", "1e-150"],
    ["mesh", "--surface", "sphere", "--lambda", "1e-80"],
    ["report", "--surface", "sphere", "--lambda", "1e-300"],
    ["report", "--surface", "cylinder-s", "--lambda", "1e-300"],
], ids=["mesh-sphere-1e-300", "mesh-cylinder-1e-300", "mesh-sigma-1e-300",
        "mesh-helicoid-1e-300", "mesh-helicoid-1e-150", "mesh-sphere-1e-80",
        "report-sphere-1e-300", "report-cylinder-1e-300"])
@pytest.mark.filterwarnings("error")   # a numpy RuntimeWarning fails the test
def test_overflowed_geometry_exits_3_without_output(tmp_path, capsys, argv):
    outs = [tmp_path / "m.obj", tmp_path / "m.csv"]
    extra = ["--out", str(outs[0])] + (["--csv", str(outs[1])] if argv[0] == "mesh" else [])
    assert main(argv + ["--res", "4x4"] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.count("\n") == 1
    assert not any(path.exists() for path in outs)


# the flags each catalog surface takes; every other flag exits 2
_SURFACE_FLAGS = {
    "sphere": {"lambda"}, "cylinder-s": {"lambda", "sheet"}, "helicoid-l": {"lambda", "r"},
    "bernstein": {"g"}, "plane": {"d"}, "vertical-cylinder": {"r"},
    "sigma-lambda": {"curve", "lambda", "side"}, "sigma-zero": {"curve"},
}
_FLAG_VALUES = {"lambda": "0.9", "r": "0.8", "g": "y^2", "side": "-1", "sheet": "upper",
                "d": "0.5", "curve": None}


def _flag_argv(flags, curve_path):
    return [f"--{f}={curve_path if f == 'curve' else _FLAG_VALUES[f]}" for f in sorted(flags)]


@pytest.mark.parametrize("surface, flag", [
    (surface, flag) for surface, taken in sorted(_SURFACE_FLAGS.items())
    for flag in sorted(_FLAG_VALUES) if flag not in taken])
def test_flag_a_surface_does_not_take_exits_2(tmp_path, capsys, surface, flag):
    curve = tmp_path / "helix.csv"
    write_helix_csv(curve)
    out = tmp_path / "r.json"
    argv = ["report", "--surface", surface, "--res", "4x4", "--out", str(out)]
    assert main(argv + _flag_argv({flag}, curve)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid surface parameters") and err.count("\n") == 1
    assert {"lambda": "lam"}.get(flag, flag) in err   # the builder's name
    assert not out.exists()


@pytest.mark.parametrize("surface", sorted(_SURFACE_FLAGS))
def test_every_flag_a_surface_takes_is_accepted(tmp_path, surface):
    curve = tmp_path / "helix.csv"
    write_helix_csv(curve)
    argv = ["mesh", "--surface", surface, "--res", "3x3", "--csv", str(tmp_path / "m.csv")]
    assert main(argv + _flag_argv(_SURFACE_FLAGS[surface], curve)) == 0


@pytest.mark.parametrize("surface, params", [
    ("sphere", {"lambda": 0}), ("sphere", {"lambda": -1}), ("cylinder-s", {"lambda": 0}),
    ("sigma-lambda", {"lambda": 0}), ("helicoid-l", {"r": 0}), ("vertical-cylinder", {"r": 0}),
    ("sigma-lambda", {"side": 2}),
], ids=["sphere-lambda-0", "sphere-lambda-neg", "cylinder-lambda-0", "sigma-lambda-0",
        "helicoid-r-0", "vertical-cylinder-r-0", "config-side-2"])
def test_invalid_surface_parameters_exit_2(tmp_path, capsys, surface, params):
    if "side" in params:    # --side only offers +-1, so a config file carries it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": surface, **params}))
        argv = ["report", "--config", str(cfg)]
    else:
        (key, value), = params.items()
        argv = ["report", "--surface", surface, f"--{key}={value}"]
    assert main(argv + ["--res", "4x4"]) == 2
    err = capsys.readouterr().err
    assert "invalid surface parameters" in err and "Traceback" not in err


def test_resolution_upper_bound(tmp_path):
    with pytest.raises(ConfigError):
        _parse_res("100000000x100000000")
    assert main(["mesh", "--surface", "plane", "--res", "2049x2",
                 "--out", str(tmp_path / "x.obj")]) == 2


_POOL = ["0", "-0.0", "-1", "0.5", "1e-300", "1e-80", "1e300", "5e-324"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow on extreme inputs
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["mesh", "report"]),
       surface=st.sampled_from(sorted(catalog())),
       params=st.fixed_dictionaries({}, optional={
           key: st.sampled_from(_POOL) for key in ("lambda", "r", "d")}),
       res=st.tuples(st.integers(2, 4), st.integers(2, 4)))
def test_cli_never_raises_on_extreme_parameters(command, surface, params, res):
    if command == "report":   # report takes NxN only
        res = (res[0], res[0])
    argv = [command, "--surface", surface, "--res", "%dx%d" % res]
    argv += [f"--{key}={value}" for key, value in params.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if command == "mesh":
            argv += ["--csv", os.path.join(tmp, "m.csv")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("text", [
    '{"surface": "sphere", "res": 128}',
    '{"surface": "bernstein", "g": 5}',
    '{"surface": "sigma-lambda", "side": 1.5}',
    '{"surface": "sigma-lambda", "side": 1e400}',
    '{"surface": "sigma-lambda", "side": true}',
    '{"surface": "cylinder-s", "sheet": "middle"}',
    '{"surface": "sphere", "lambda": "1"}',
    '{"surface": 5}',
    '{"surface": "sphere", "tol-iso-ratio": true}',
], ids=["res-int", "g-int", "side-fraction", "side-inf", "side-bool", "sheet-unknown",
        "lambda-string", "surface-int", "tol-bool"])
def test_config_value_types_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["report", "--config", str(cfg), "--res", "4x4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# values of the wrong JSON type, non-integral and non-finite; no string, so
# no path key can name a file
_CONFIG_POOL = [128, 5, 1, -1, 0, 1.5, 1e300, True, False, None, [1], {"k": 1},
                math.inf, -math.inf, math.nan]
_CONFIG_KEYS = ("surface", "lambda", "r", "d", "g", "res", "side", "sheet", "with-h",
                "suite", "curve", "out", "csv", "tol-iso-ratio")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow on extreme inputs
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["mesh", "report", "verify"]),
       surface=st.sampled_from(sorted(catalog())),
       file_cfg=st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_CONFIG_POOL),
                                min_size=1, max_size=4))
def test_cli_never_raises_on_config_values(command, surface, file_cfg):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(file_cfg, fh)   # writes inf and nan as Infinity and NaN
        argv = [command, "--config", path]
        if command == "verify":
            argv += ["--suite", "iso"]
        elif "surface" not in file_cfg:
            argv += ["--surface", surface]
        if "res" not in file_cfg and command != "verify":
            argv += ["--res", "3x3"]
        if command == "mesh":
            argv += ["--csv", os.path.join(tmp, "m.csv")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2, 3) if command == "verify" else rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
