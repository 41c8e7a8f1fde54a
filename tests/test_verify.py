import dataclasses

import numpy as np
import pytest

from h1geo import measures
from h1geo.cli import main
from h1geo.curvature import characteristic_deviation
from h1geo.verify import DEFAULT_TOLERANCES, SUITES, ruling_cases, run_suite

SHEET_ARCLEN, SHEET_STEPS, _, GRAPH_SHEETS = {
    check: rest for check, *rest in ruling_cases()}["ruling[graph-sheets]"]


def test_fast_suites_all_pass():
    for name in ("geodesics", "jacobi", "bernstein"):
        checks = run_suite(name)
        assert checks, name
        failed = [c.name for c in checks if not c.passed]
        assert not failed, (name, failed)


def test_curvature_suite_passes():
    checks = run_suite("curvature")
    failed = [c.name for c in checks if not c.passed]
    assert not failed, failed
    names = {c.name for c in checks}
    assert {"ruling", "ruling[graph-sheets]", "helicoid-offsets"} <= names


@pytest.mark.parametrize("label, patch, seeds", GRAPH_SHEETS,
                         ids=[case[0] for case in GRAPH_SHEETS])
def test_graph_sheet_ruling_cases_are_real(label, patch, seeds):
    # RK4 has work to do here: halving the step divides the deviation by
    # about 2^4, which a trace with constant chart velocity (exact at any
    # step) cannot show; and a wrong curvature is seen at the pinned steps
    e0, s0 = np.array(seeds).T
    pinned = characteristic_deviation(patch, e0, s0, arclen=SHEET_ARCLEN, n_steps=SHEET_STEPS)
    halved = characteristic_deviation(patch, e0, s0, arclen=SHEET_ARCLEN,
                                      n_steps=SHEET_STEPS // 2)
    assert 12.0 <= halved / pinned <= 20.0
    wrong = characteristic_deviation(patch, e0, s0, arclen=SHEET_ARCLEN, n_steps=SHEET_STEPS,
                                     lam=1.1 * patch.lam)
    assert wrong > DEFAULT_TOLERANCES["ruling"]


def test_tolerance_override_applies():
    checks = run_suite("geodesics", tols={"geodesic-residual": 1e-30})
    byname = {c.name: c for c in checks}
    assert not byname["geodesic-residual"].passed
    assert byname["pole-concurrence"].passed


def test_suites_are_deterministic():
    a = run_suite("jacobi")
    b = run_suite("jacobi")
    assert [(c.name, c.measured) for c in a] == [(c.name, c.measured) for c in b]


def test_custom_g_data_roundtrip():
    checks = run_suite("bernstein", g="y^3")
    byname = {c.name: c for c in checks}
    defect = byname["bernstein-defect[t=xy+y^3]"]
    assert defect.passed  # measured defect equals -g''/2 even off-stationary
    assert "NOT area-stationary" in defect.source


def test_every_suite_name_has_defaults():
    assert set(SUITES) == {"geodesics", "jacobi", "curvature", "minkowski",
                           "bernstein", "iso"}
    assert all(v > 0 for v in DEFAULT_TOLERANCES.values() if v != 0)


def test_minkowski_suite_fails_a_zero_first_variation(monkeypatch, capsys):
    # A'(0) = 0 makes the relative gaps of [stretch] and [formula] divide by
    # zero or lose their scale: both checks fail, nothing raises
    real = measures.first_variation

    def zero_a_prime(patch, u):
        return [dict(res, a_prime=dataclasses.replace(res["a_prime"], value=0.0))
                for res in real(patch, u)]

    monkeypatch.setattr(measures, "first_variation", zero_a_prime)
    assert main(["verify", "--suite", "minkowski"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  first-variation[stretch]: measured=inf" in out
    assert "FAIL  first-variation[formula]" in out
    assert "PASS  first-variation[volume-rate]" in out
