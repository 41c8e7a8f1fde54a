import numpy as np
import pytest

from h1geo.errors import NotClosedSurface, StepTooSmall
from h1geo.hcurves import line_curve
from h1geo.hgroup import Point
from h1geo import measures
from h1geo.measures import (
    area,
    dilation_homogeneity,
    first_variation_check,
    iso_ratio,
    measures_report,
    minkowski_check,
    quad_many,
    riemannian_area,
    volume_enclosed,
)
from h1geo.surfaces import (
    ImmersedPatch,
    PerturbedPatch,
    build_sigma_lambda,
    plane_patch,
    sphere_geodesic,
)

RNG = np.random.default_rng(5150)


class EuclideanSphere(ImmersedPatch):
    """Round unit sphere (Euclidean), used as a non-optimal test shape."""

    closed = True
    open_s_ends = (True, True)

    def __init__(self):
        super().__init__(0.0, 2 * np.pi, 0.0, np.pi, orientation=1)
        self.label = "euclidean-sphere"

    def point(self, eps, s):
        th, ph = np.broadcast_arrays(np.asarray(eps, float), np.asarray(s, float))
        return Point(np.sin(ph) * np.cos(th), np.sin(ph) * np.sin(th), np.cos(ph))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_area_closed_form(lam):
    res = area(sphere_geodesic(lam), 256)
    expect = np.pi**2 / lam**3
    assert abs(res.value - expect) / expect < 1e-4
    assert res.error_estimate >= 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_volume_closed_form(lam):
    res = volume_enclosed(sphere_geodesic(lam), 256)
    expect = 3 * np.pi**2 / (8 * lam**4)
    assert abs(res.value - expect) / expect < 1e-4


def test_degenerate_domain_integrates_to_zero():
    sp = sphere_geodesic(1.0)
    sp2 = sphere_geodesic(1.0)
    sp2.s_hi = sp2.s_lo
    assert area(sp2, 16).value == 0.0


def test_volume_orientation_flip():
    sp = sphere_geodesic(1.0)
    v1 = volume_enclosed(sp, 64).value
    v2 = volume_enclosed(sp.flipped(), 64).value
    assert v1 > 0
    assert np.isclose(v1, -v2, rtol=1e-14)


def test_area_orientation_independent():
    sp = sphere_geodesic(1.0)
    assert area(sp, 64).value == area(sp.flipped(), 64).value


def test_quadrature_convergence_estimate():
    # |I_2n - I_n| <= reported error at n
    sp = sphere_geodesic(1.0)
    a64 = area(sp, 64)
    a128 = area(sp, 128)
    assert abs(a128.value - a64.value) <= a64.error_estimate + 1e-15


def test_first_variation_sweeps_each_perturbed_patch_once(monkeypatch):
    sp = sphere_geodesic(1.0)

    def u(e, s):
        return np.cos(np.asarray(e, float)) + 0.5 + 0.0 * np.asarray(s)

    calls = []
    sweep = measures._integrate_multi

    def counting(patch, n, kinds):
        calls.append(kinds)
        return sweep(patch, n, kinds)

    monkeypatch.setattr(measures, "_integrate_multi", counting)
    fv = first_variation_check(sp, u, dt=1e-4, n=16)
    assert len(calls) == 2
    a = {t: sweep(PerturbedPatch(sp, u, t), 16, ("area",))["area"] for t in (-1e-4, 1e-4)}
    v = {t: sweep(PerturbedPatch(sp, u, t), 16, ("volume",))["volume"] for t in (-1e-4, 1e-4)}
    assert fv.a_prime == (a[1e-4] - a[-1e-4]) / (2 * 1e-4)
    assert fv.v_prime == (v[1e-4] - v[-1e-4]) / (2 * 1e-4)


def test_left_translation_invariance():
    sp = sphere_geodesic(1.0)
    tp = sp.translated(Point(0.7, -0.4, 1.1))
    a0, a1 = area(sp, 96).value, area(tp, 96).value
    v0, v1 = volume_enclosed(sp, 96).value, volume_enclosed(tp, 96).value
    assert abs(a1 - a0) / a0 < 1e-10
    assert abs(abs(v1) - abs(v0)) / abs(v0) < 1e-10


def test_additivity_over_parameter_split():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    full = area(sl, 64).value
    left = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1,
                              eps_range=(-1.0, 0.25))
    right = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1,
                               eps_range=(0.25, 1.0))
    split = area(left, 64).value + area(right, 64).value
    assert abs(split - full) / full < 1e-12


def test_minkowski_spheres():
    for lam in (0.5, 1.0, 2.0):
        assert minkowski_check(sphere_geodesic(lam), lam, 128) < 1e-4


def test_minkowski_rejects_open_patch():
    with pytest.raises(NotClosedSurface):
        minkowski_check(plane_patch(), 0.0, 16)


def test_dilation_homogeneity_sphere():
    ra, rv = dilation_homogeneity(sphere_geodesic(1.0), np.log(2.0), 96)
    assert abs(ra - 8.0) / 8.0 < 1e-4
    assert abs(rv - 16.0) / 16.0 < 1e-4
    ra0, rv0 = dilation_homogeneity(sphere_geodesic(1.0), 0.0, 32)
    assert ra0 == 1.0 and rv0 == 1.0


def test_dilation_homogeneity_sigma_patch():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    for s in (-0.5, 0.37):
        ra, _ = dilation_homogeneity(sl, s, 96)
        assert abs(ra - np.exp(3 * s)) / np.exp(3 * s) < 1e-4


def test_iso_ratio_lambda_independent():
    expect = (8.0 / 3.0) ** 3 * np.pi**2
    for lam in (0.5, 1.0, 2.0):
        r = iso_ratio(sphere_geodesic(lam), 128)
        assert abs(r - expect) / expect < 1e-3


def test_iso_ratio_dilation_invariant():
    sp = sphere_geodesic(1.0)
    r0 = iso_ratio(sp, 96)
    r1 = iso_ratio(sp.dilated(0.3), 96)
    assert abs(r1 - r0) / r0 < 1e-6


def test_euclidean_sphere_is_not_optimal():
    # its Lebesgue volume is 4 pi/3 (checks the flux machinery) and its
    # ratio exceeds the spherical value
    es = EuclideanSphere()
    v = volume_enclosed(es, 128).value
    assert abs(v - 4 * np.pi / 3) / (4 * np.pi / 3) < 1e-6
    r = iso_ratio(es, 128)
    assert r > (8.0 / 3.0) ** 3 * np.pi**2 * (1 + 1e-3)


def test_first_variation_unit_speed():
    sp = sphere_geodesic(1.0)
    fv = first_variation_check(sp, lambda e, s: 1.0 + 0.0 * np.asarray(e), dt=1e-4, n=96)
    assert fv.defect < 1e-3 * abs(fv.a_prime)
    # V'(0) = -Riemannian area for u = 1
    ra = riemannian_area(sp, 96).value
    assert abs(fv.v_prime + ra) / ra < 1e-3
    assert abs(fv.v_prime_direct + ra) / ra < 1e-10


def test_first_variation_volume_preserving_mode():
    sp = sphere_geodesic(1.0)
    fv = first_variation_check(sp, lambda e, s: np.cos(np.asarray(e, float)) + 0.0 * np.asarray(s),
                               dt=1e-4, n=96)
    a = area(sp, 96).value
    assert abs(fv.v_prime) < 1e-6
    assert abs(fv.a_prime) < 1e-3 * a


def test_first_variation_step_guard():
    sp = sphere_geodesic(1.0)
    with pytest.raises(StepTooSmall):
        first_variation_check(sp, lambda e, s: 1.0, dt=1e-9, n=16)


def test_quad_many_matches_single():
    sp = sphere_geodesic(1.0)
    combo = quad_many(sp, 64, ("area", "volume"))
    assert combo["area"].value == area(sp, 64).value
    assert combo["volume"].value == volume_enclosed(sp, 64).value


def test_measures_report_fields():
    rep = measures_report(sphere_geodesic(1.0), "sphere", 1.0, n=64)
    assert list(rep) == ["surface", "lambda", "A", "A_err", "V", "V_err", "H",
                         "minkowski_defect", "iso_ratio"]
    assert abs(rep["A"] - np.pi**2) < 1e-6
    assert abs(rep["V"] - 3 * np.pi**2 / 8) < 1e-6
    assert rep["minkowski_defect"] < 1e-8
    assert abs(rep["iso_ratio"] - 512 * np.pi**2 / 27) < 1e-3


def test_measures_report_open_patch():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    rep = measures_report(sl, "sigma-lambda", 1.0, n=32)
    assert rep["V"] is None and rep["minkowski_defect"] is None
    assert rep["A"] > 0


@pytest.mark.parametrize("patch", [
    sphere_geodesic(1.3),
    sphere_geodesic(0.7).dilated(0.4).translated(Point(0.3, -1.1, 0.5)).flipped(),
], ids=["sphere", "dilated-translated-flipped"])
def test_quadrature_is_bitwise_independent_of_the_block_size(monkeypatch, patch):
    n = 24
    row = 8 * n                                   # samples in one eps row
    kinds = ("area", "volume", "rarea")
    results = []
    for block in (row, 7 * row, 100 * row * row):  # one row, 7 rows, more than all
        monkeypatch.setattr(measures, "_BLOCK_SAMPLES", block)
        res = quad_many(patch, n, kinds)
        results.append([(res[k].value, res[k].error_estimate) for k in kinds])
    assert results[0] == results[1] == results[2]
