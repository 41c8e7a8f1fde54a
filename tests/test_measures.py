import copy
import json
import math

import mpmath
import numpy as np
import pytest

from h1geo.cli import main
from h1geo.errors import NotClosedSurface, StepTooSmall
from h1geo.hcurves import line_curve
from h1geo.hgroup import Point, frame_to_cartesian
from h1geo import measures, verify
from h1geo.measures import (
    area,
    dilation_homogeneity,
    first_variation,
    first_variation_check,
    iso_ratio,
    measures_report,
    quad_many,
    volume_enclosed,
)
from h1geo.surfaces import (
    ImmersedPatch,
    SigmaLambdaPatch,
    SpherePatch,
    VerticalVariation,
    build_surface,
    cylinder_S,
    plane_patch,
    sphere_graph,
)

from oracles import RAREA, fd_partials

RNG = np.random.default_rng(5150)


class EuclideanSphere(ImmersedPatch):
    """Round unit sphere (Euclidean), used as a non-optimal test shape."""

    closed = True
    open_s_ends = (True, True)

    def __init__(self):
        super().__init__(0.0, 2 * np.pi, 0.0, np.pi, orientation=1)
        self.label = "euclidean-sphere"

    partials = fd_partials

    def point(self, eps, s):
        th, ph = np.broadcast_arrays(np.asarray(eps, float), np.asarray(s, float))
        return Point(np.sin(ph) * np.cos(th), np.sin(ph) * np.sin(th), np.cos(ph))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_area_closed_form(lam):
    res = area(SpherePatch(lam), 256)
    expect = np.pi**2 / lam**3
    assert abs(res.value - expect) / expect < 1e-4
    assert res.error >= 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_volume_closed_form(lam):
    res = volume_enclosed(SpherePatch(lam), 256)
    expect = 3 * np.pi**2 / (8 * lam**4)
    assert abs(res.value - expect) / expect < 1e-4


def test_degenerate_domain_integrates_to_zero():
    sp = SpherePatch(1.0)
    sp2 = SpherePatch(1.0)
    sp2.s_hi = sp2.s_lo
    assert area(sp2, 16).value == 0.0


def test_degenerate_domain_is_swept_for_the_samples_it_reports():
    # zero weights give exactly 0, and the samples stated are the ones taken
    points = []

    class CountingSphere(SpherePatch):
        def partials(self, eps, s):
            points.append(np.broadcast(eps, s).size)
            return super().partials(eps, s)

    sp = CountingSphere(1.0)
    sp.s_hi = sp.s_lo
    est = area(sp, 16)
    assert est.value == 0.0 and est.converged
    # the ladder sweeps 4 and then 8 cells per side, where it stops
    assert sum(points) == sum((measures.GAUSS_ORDER * m) ** 2 for m in (4, 8))
    assert est.samples == (measures.GAUSS_ORDER * 8) ** 2


def test_volume_orientation_flip():
    sp = SpherePatch(1.0)
    v1 = volume_enclosed(sp, 64).value
    v2 = volume_enclosed(sp.flipped(), 64).value
    assert v1 > 0
    assert np.isclose(v1, -v2, rtol=1e-14)


def test_area_orientation_independent():
    sp = SpherePatch(1.0)
    assert area(sp, 64).value == area(sp.flipped(), 64).value


def test_quadrature_convergence_estimate():
    # |I_2n - I_n| <= reported error at n
    sp = SpherePatch(1.0)
    a64 = area(sp, 64)
    a128 = area(sp, 128)
    assert abs(a128.value - a64.value) <= a64.error + 1e-15


def test_first_variation_sweeps_each_perturbed_patch_once(monkeypatch):
    # four varied patches, t = +-dt and +-dt/2, one area-and-volume sweep each
    sp = SpherePatch(1.0)
    u = _MODES["cos"]
    calls = []
    sweep = measures.integrate

    def counting(patch, n, kinds):
        calls.append(kinds)
        return sweep(patch, n, kinds)

    monkeypatch.setattr(measures, "integrate", counting)
    dt = 1e-3
    fv = first_variation_check(sp, u, dt=dt, n=16)
    assert calls == [("area", "volume")] * 4
    for kind, got in (("area", fv.a_prime), ("volume", fv.v_prime)):
        val = {t: sweep(VerticalVariation(sp, u, t), 16, (kind,))[kind]
               for t in (-dt, -dt / 2, dt / 2, dt)}
        d_full = (val[dt] - val[-dt]) / (2 * dt)
        d_half = (val[dt / 2] - val[-dt / 2]) / dt
        assert got == (4.0 * d_half - d_full) / 3.0


def test_left_translation_invariance():
    sp = SpherePatch(1.0)
    tp = sp.translated(Point(0.7, -0.4, 1.1))
    a0, a1 = area(sp, 96).value, area(tp, 96).value
    v0, v1 = volume_enclosed(sp, 96).value, volume_enclosed(tp, 96).value
    assert abs(a1 - a0) / a0 < 1e-10
    assert abs(abs(v1) - abs(v0)) / abs(v0) < 1e-10


def test_additivity_over_parameter_split():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    full = area(sl, 64).value
    left = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1,
                              eps_range=(-1.0, 0.25))
    right = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1,
                               eps_range=(0.25, 1.0))
    split = area(left, 64).value + area(right, 64).value
    assert abs(split - full) / full < 1e-12


def test_minkowski_spheres():
    for lam in (0.5, 1.0, 2.0):
        rep = measures_report(SpherePatch(lam), "sphere", lam, n=128, H=lam)
        assert rep["minkowski_defect"] < 1e-4


def test_minkowski_rejects_open_patch():
    rep = measures_report(plane_patch(), "plane", 0.0, n=16, H=0.0)
    assert rep["minkowski_defect"] is None


def test_dilation_homogeneity_sphere():
    ra, rv = dilation_homogeneity(SpherePatch(1.0), np.log(2.0), 96)
    assert abs(ra - 8.0) / 8.0 < 1e-4
    assert abs(rv - 16.0) / 16.0 < 1e-4
    ra0, rv0 = dilation_homogeneity(SpherePatch(1.0), 0.0, 32)
    assert ra0 == 1.0 and rv0 == 1.0


def test_dilation_homogeneity_sigma_patch():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    for s in (-0.5, 0.37):
        ra, _ = dilation_homogeneity(sl, s, 96)
        assert abs(ra - np.exp(3 * s)) / np.exp(3 * s) < 1e-4


def test_dilation_homogeneity_takes_several_s_over_one_base_ladder(monkeypatch):
    sp = SpherePatch(1.0)
    dilations = (-0.5, np.log(2.0), 0.0)
    singles = [dilation_homogeneity(sp, s0, 32) for s0 in dilations]
    calls = []
    real = measures.quad_many
    monkeypatch.setattr(measures, "quad_many",
                        lambda patch, *args: calls.append(patch) or real(patch, *args))
    assert dilation_homogeneity(sp, dilations, 32) == singles
    assert len(calls) == 1 + len(dilations) and calls.count(sp) == 1


def test_iso_ratio_lambda_independent():
    expect = (8.0 / 3.0) ** 3 * np.pi**2
    for lam in (0.5, 1.0, 2.0):
        r = iso_ratio(SpherePatch(lam), 128)
        assert abs(r - expect) / expect < 1e-3


def test_iso_ratio_dilation_invariant():
    sp = SpherePatch(1.0)
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
    # u = 1 is a left translation, so A'(0) = V'(0) = 0 to rounding
    sp = SpherePatch(1.0)
    fv = first_variation_check(sp, _MODES["unit"], n=16)
    assert abs(fv.a_prime) < 1e-12 * area(sp, 96).value
    assert abs(fv.v_prime) < 1e-12 * volume_enclosed(sp, 96).value


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_first_variation_of_the_stretch_is_the_volume(lam):
    # u = t maps (x, y, t) to (x, y, (1 + tau) t), which scales Lebesgue
    # volume by 1 + tau: V'(0) = V, and A'(0) = 2 lam V'(0) on S_lam
    sp = SpherePatch(lam)
    fv = first_variation_check(sp, _stretch(sp), dt=1e-3, n=16)
    V = 3 * np.pi**2 / (8 * lam**4)
    assert abs(fv.v_prime - V) <= 1e-12 * V
    assert fv.defect <= 1e-11 * abs(fv.a_prime)


def test_first_variation_volume_preserving_mode():
    sp = SpherePatch(1.0)
    fv = first_variation_check(sp, _MODES["cos"], dt=1e-4, n=16)
    a = area(sp, 96).value
    assert abs(fv.v_prime) < 1e-6
    assert abs(fv.a_prime) < 1e-3 * a


def test_first_variation_step_guard():
    sp = SpherePatch(1.0)
    with pytest.raises(StepTooSmall):
        first_variation_check(sp, _MODES["unit"], dt=1e-9, n=16)


def test_vertical_translation_keeps_area_and_volume():
    sp = SpherePatch(1.0)
    base = measures.integrate(sp, 16, ("area", "volume"))
    for tau in (-0.37, 1e-3, 2.5):
        moved = measures.integrate(VerticalVariation(sp, _MODES["unit"], tau), 16,
                                   ("area", "volume"))
        for kind in base:
            assert abs(moved[kind] - base[kind]) <= 1e-14 * abs(base[kind])


def test_quad_many_matches_single():
    sp = SpherePatch(1.0)
    combo = quad_many(sp, 64, ("area", "volume"))
    assert combo["area"].value == area(sp, 64).value
    assert combo["volume"].value == volume_enclosed(sp, 64).value


def test_measures_report_fields():
    rep = measures_report(SpherePatch(1.0), "sphere", 1.0, n=64)
    assert list(rep) == ["surface", "lambda", "A", "A_err", "A_converged", "V", "V_err",
                         "V_converged", "H", "minkowski_defect", "iso_ratio", "samples"]
    assert abs(rep["A"] - np.pi**2) < 1e-6
    assert abs(rep["V"] - 3 * np.pi**2 / 8) < 1e-6
    assert rep["minkowski_defect"] < 1e-8
    assert abs(rep["iso_ratio"] - 512 * np.pi**2 / 27) < 1e-3


def test_measures_report_open_patch():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    rep = measures_report(sl, "sigma-lambda", 1.0, n=32)
    assert rep["V"] is None and rep["minkowski_defect"] is None
    assert rep["A"] > 0


@pytest.mark.parametrize("patch", [
    SpherePatch(1.3),
    SpherePatch(0.7).dilated(0.4).translated(Point(0.3, -1.1, 0.5)).flipped(),
], ids=["sphere", "dilated-translated-flipped"])
def test_quadrature_is_bitwise_independent_of_the_block_size(monkeypatch, patch):
    n = 24
    row = 8 * n                                   # samples in one eps row
    results = []
    for block in (row, 7 * row, 100 * row * row):  # one row, 7 rows, more than all
        monkeypatch.setattr(measures, "_BLOCK_SAMPLES", block)
        res = quad_many(patch, n, ("area", "volume", RAREA))
        results.append([(res[k].value, res[k].error) for k in ("area", "volume", "rarea")])
    assert results[0] == results[1] == results[2]


def _record_sweeps(monkeypatch):
    """Record the n of every sweep, of every VerticalVariation sweep and of
    every quad_many call."""
    sweeps, perturbed, estimates = [], [], []
    sweep, quad = measures._sweep, measures.quad_many

    def counting_sweep(patch, n, kinds):
        sweeps.append(n)
        if isinstance(patch, VerticalVariation):
            perturbed.append(n)
        return sweep(patch, n, kinds)

    def counting_quad(patch, n, kinds):
        estimates.append(n)
        return quad(patch, n, kinds)

    monkeypatch.setattr(measures, "_sweep", counting_sweep)
    monkeypatch.setattr(measures, "quad_many", counting_quad)
    return sweeps, perturbed, estimates


@pytest.mark.parametrize("suite, pinned", [
    # spheres stop at 8 cells (ladder 4, 8 under the cap 32); dilation and
    # the first-variation formula stop at 12 (ladder 6, 12 under the cap
    # 96); the finite-difference oracle sweeps at its pinned n = 16
    (verify.suite_minkowski, {4, 8, 6, 12, 16}),
    (verify.suite_iso, {4, 8}),
], ids=["minkowski", "iso"])
def test_suites_sweep_only_at_their_pinned_resolutions(monkeypatch, suite, pinned):
    sweeps, perturbed, estimates = _record_sweeps(monkeypatch)
    suite(n=32)
    assert set(sweeps) == pinned
    assert set(estimates) <= {32, 96}
    # only the finite-difference oracle integrates varied patches, at n = 16
    assert set(perturbed) == ({16} if suite is verify.suite_minkowski else set())


def test_measures_report_keeps_its_half_resolution_error(monkeypatch):
    sweeps, _, _ = _record_sweeps(monkeypatch)
    rep = measures_report(EuclideanSphere(), "euclidean-sphere", None, n=6, H=1.0)
    assert sweeps == [3, 6]
    # |I_6 - I_3| as quad_many gave it before integrate was split out of it
    assert rep["A_err"] == float.fromhex("0x1.e429p-32")
    assert rep["V_err"] == float.fromhex("0x1.3e8p-39")


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 0.8464])
def test_sphere_converges_early_and_its_error_bounds_the_true_error(lam):
    res = quad_many(SpherePatch(lam), 256, ("area", "volume"))
    exact = {"area": np.pi**2 / lam**3, "volume": 3 * np.pi**2 / (8 * lam**4)}
    for kind, est in res.items():
        assert est.converged
        assert est.samples <= (measures.GAUSS_ORDER * 16) ** 2
        # the roundoff floor keeps the stated error from reading 0.0
        assert est.error >= abs(est.value - exact[kind]) and est.error > 0.0


def _undeclared(patch):
    """The same graph with no quadrature charts: its area integrand keeps
    the non-smooth places on its cells."""
    bare = copy.copy(patch)
    bare.quadrature_charts = lambda: []
    return bare


@pytest.mark.parametrize("patch", [
    _undeclared(cylinder_S(1.0)[0]),
    _undeclared(build_surface("bernstein", g="y^2")),
], ids=["cylinder-lower", "bernstein-y^2"])
def test_unconverged_patch_ends_on_the_capped_pair(patch):
    est = quad_many(patch, 128, ("area",))["area"]
    fine = measures.integrate(patch, 128, ("area",))["area"]
    coarse = measures.integrate(patch, 64, ("area",))["area"]
    assert not est.converged
    assert est.samples == (measures.GAUSS_ORDER * 128) ** 2
    assert est.value == fine
    assert est.error == abs(fine - coarse)


def test_unconverged_report_is_flagged():
    rep = measures_report(_undeclared(cylinder_S(1.0)[0]), "cylinder-s", 1.0, n=32)
    assert rep["A_converged"] is False and rep["V_converged"] is None
    assert rep["samples"] == (measures.GAUSS_ORDER * 32) ** 2


def test_degenerate_domain_reports_null_ratios():
    sp = SpherePatch(1.0)
    sp.s_hi = sp.s_lo
    rep = measures_report(sp, "sphere", 1.0, n=16)
    assert rep["A"] == 0.0 and rep["V"] == 0.0
    assert rep["A_err"] == 0.0 and rep["A_converged"]
    assert rep["minkowski_defect"] is None and rep["iso_ratio"] is None


# ---------------------------------------------------------------------------
# first variation of area: the formula against the finite-difference oracle

def _bump(e, s):
    e, s = np.asarray(e, float), np.asarray(s, float)
    ring, wave = np.sin(1.3 * s) ** 2, 1 + 0.5 * np.cos(2 * e)
    return ring * wave, -ring * np.sin(2 * e), 1.3 * np.sin(2.6 * s) * wave


# vertical speeds u(eps, s) -> (u, u_eps, u_s) for VerticalVariation
_MODES = {
    "unit": lambda e, s: (1.0 + 0.0 * np.asarray(e), 0.0, 0.0),
    "cos": lambda e, s: (np.cos(np.asarray(e, float)) + 0.0 * np.asarray(s),
                         -np.sin(np.asarray(e, float)) + 0.0 * np.asarray(s), 0.0),
    "bump": _bump,
}


def _speed(mode):
    """The mode's u alone, a normal speed for first_variation."""
    return lambda e, s: _MODES[mode](e, s)[0]


def _stretch(patch):
    """The vertical speed u = t of the patch's points, with its partials."""
    def u(e, s):
        fe, fs, p = patch.partials(e, s)
        return p.t, frame_to_cartesian(p, fe)[..., 2], frame_to_cartesian(p, fs)[..., 2]
    return u


def _normal_speed(patch, u):
    """u N_T, the normal speed of the vertical variation p + tau u T."""
    def w(e, s):
        p, _, _, raw = patch.frame(e, s)
        return u(e, s)[0] * raw[..., 2] / np.linalg.norm(raw, axis=-1)
    return w
_SPHERES = {
    "S_0.5": lambda: SpherePatch(0.5),
    "S_1": lambda: SpherePatch(1.0),
    "S_2": lambda: SpherePatch(2.0),
    "S_1-dilated-translated-flipped":
        lambda: SpherePatch(1.0).dilated(0.3).translated(Point(0.7, -0.4, 1.1)).flipped(),
}


def test_estimate_fields_have_one_type():
    # the floor is a float like the Richardson difference, so neither the
    # error nor converged depends on which of the two is larger
    res = quad_many(SpherePatch(1.0), 96, ("area", RAREA, "volume"))
    res.update(first_variation(SpherePatch(1.0), _speed("cos")))
    for est in res.values():
        assert type(est.error) is float and type(est.converged) is bool


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("which", sorted(_SPHERES))
def test_first_variation_matches_the_finite_difference_oracle(which, mode):
    sp, u = _SPHERES[which](), _MODES[mode]
    fv = first_variation(sp, _normal_speed(sp, u))
    fd = first_variation_check(sp, u, dt=1e-4, n=16)
    # the mean-zero mode has A'(0) = V'(0) = 0, so each side is compared at
    # the scale of the unit mode: 2 |H| and 1 times the Riemannian area
    ra = quad_many(sp, 96, (RAREA,))["rarea"].value
    for got, ref, scale in ((fv["a_prime"].value, fd.a_prime, 2 * abs(sp.lam) * ra),
                            (fv["v_prime"].value, fd.v_prime, ra)):
        assert abs(got - ref) <= 1e-6 * max(abs(ref), scale)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_first_variation_errors_bound_the_stationarity_defect(lam, mode):
    fv = first_variation(SpherePatch(lam), _speed(mode))
    a, v = fv["a_prime"], fv["v_prime"]
    assert abs(a.value - 2 * lam * v.value) <= a.error + 2 * lam * v.error


@pytest.mark.parametrize("mode", ["unit", "cos"])
def test_first_variation_stops_at_twelve_cells(mode):
    for est in first_variation(SpherePatch(1.0), _speed(mode)).values():
        assert est.converged
        assert est.samples <= (measures.GAUSS_ORDER * 12) ** 2


def test_first_variation_evaluates_each_speed_once_per_sample():
    points = []

    def u(e, s):
        e, s = np.broadcast_arrays(e, s)
        points.append(e.size)
        return np.ones(e.shape)

    # the ladder sweeps 6 and then 12 cells per side: 48^2 + 96^2 samples
    fv = first_variation(SpherePatch(1.0), u)
    assert fv["a_prime"].samples == (measures.GAUSS_ORDER * 12) ** 2
    assert sum(points) == 11_520


def test_first_variation_of_two_speeds_equals_two_single_calls():
    # the minkowski suite's stretch t N_T and mean-zero cos(eps) on S_1, whose
    # ladders both stop at 12 cells, so the joint ladder keeps every bit
    sp = SpherePatch(1.0)
    speeds = (_normal_speed(sp, _stretch(sp)), _speed("cos"))
    joint = first_variation(sp, speeds)
    assert len(joint) == 2
    for got, speed in zip(joint, speeds):
        assert got == first_variation(sp, speed)


def test_first_variation_rejects_open_patches():
    u = _speed("unit")
    for patch in (plane_patch(), SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)):
        with pytest.raises(NotClosedSurface):
            first_variation(patch, u)


# ---------------------------------------------------------------------------
# quadrature charts: the singular set on cell edges


def _bernstein_area_mp(coeffs, rect=(-3.0, 3.0, -3.0, 3.0)):
    """The area 2 integral |x + g'(y)/2| of t = xy + g(y) over rect, by
    mpmath.quad: the inner integral in closed form, the outer one split where
    the singular curve x = -g'(y)/2 crosses x = x_lo or x = x_hi."""
    x0, x1, y0, y1 = (mpmath.mpf(v) for v in rect)
    dg = [k * mpmath.mpf(c) for k, c in enumerate(coeffs)][1:] or [mpmath.mpf(0)]

    def gp(y):
        return mpmath.polyval(dg[::-1], y)

    def inner(y):
        r = -gp(y) / 2
        if r <= x0:
            return (x1**2 - x0**2) + gp(y) * (x1 - x0)
        if r >= x1:
            return -((x1**2 - x0**2) + gp(y) * (x1 - x0))
        return (r - x0) ** 2 + (x1 - r) ** 2

    cuts = [y0, y1]
    if len(dg) > 1:
        for xe in (x0, x1):
            shifted = dg[::-1]
            shifted[-1] += 2 * xe
            cuts += [z.real for z in mpmath.polyroots(shifted, maxsteps=200, extraprec=60)
                     if abs(z.imag) < 1e-20 and y0 < z.real < y1]
    return float(mpmath.quad(inner, sorted(cuts)))


def _plane_area_mp(point, rect=(-2.0, 2.0, -2.0, 2.0)):
    """The area integral |(x, y) - P| of a non-vertical plane with cone
    point P over rect, by mpmath.quad split at P."""
    px, py = point
    x0, x1, y0, y1 = rect
    xs = sorted({x0, x1, min(max(px, x0), x1)})
    ys = sorted({y0, y1, min(max(py, y0), y1)})
    return float(mpmath.quad(lambda x, y: mpmath.sqrt((x - px) ** 2 + (y - py) ** 2), xs, ys))


_SEED_1_G = (1.795, -0.753, -0.307)
_SEED_1_TEXT = "1.795 - 0.753*y - 0.307*y^2"   # the same g, as the benchmark writes it
_CHART_CASES = {
    # name: (patch, exact area)
    "bernstein-3y^2": (lambda: build_surface("bernstein", g="3*y^2"),
                       lambda: _bernstein_area_mp((0.0, 0.0, 3.0))),
    "bernstein-0.3y^3": (lambda: build_surface("bernstein", g="0.3*y^3"),
                         lambda: _bernstein_area_mp((0.0, 0.0, 0.0, 0.3))),
    "bernstein-curve-outside": (lambda: build_surface("bernstein", g="1 + 10*y"),
                                lambda: _bernstein_area_mp((1.0, 10.0))),
    "bernstein-seed-1": (lambda: build_surface("bernstein", g=_SEED_1_TEXT),
                         lambda: _bernstein_area_mp(_SEED_1_G)),
    "plane-tilted": (lambda: plane_patch((0.3, -0.2, 1.0), 0.4),
                     lambda: _plane_area_mp((-0.2, -0.3))),
    "plane-point-outside": (lambda: plane_patch((3.0, 0.5, 1.0), 0.1),
                            lambda: _plane_area_mp((0.5, -3.0))),
    "cylinder-upper": (lambda: cylinder_S(1.1339)[1], lambda: 4.0 / 1.1339**2),
    "cylinder-lower-lam-1": (lambda: cylinder_S(-1.0)[0], lambda: 4.0),
    "cylinder-upper-lam-1": (lambda: cylinder_S(-1.0)[1], lambda: 4.0),
}


@pytest.mark.parametrize("name", sorted(_CHART_CASES))
def test_charted_area_converges_by_16_cells_within_its_stated_error(name):
    make, exact = _CHART_CASES[name]
    patch = make()
    est = quad_many(patch, 128, ("area",))["area"]
    assert est.converged
    charts = max(1, len(patch.quadrature_charts()))   # [] is the patch's own rectangle
    assert est.samples <= charts * (measures.GAUSS_ORDER * 16) ** 2
    assert est.error >= abs(est.value - exact())


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_graph_sheets_give_the_sphere_within_their_stated_errors(lam):
    res = [quad_many(sheet, 128, ("area", "volume")) for sheet in sphere_graph(lam)]
    for kind, exact in (("area", np.pi**2 / lam**3), ("volume", 3 * np.pi**2 / (8 * lam**4))):
        total = sum(r[kind].value for r in res)
        assert abs(total - exact) <= sum(r[kind].error for r in res)
        for r in res:
            assert r[kind].converged
            assert r[kind].samples <= (measures.GAUSS_ORDER * 16) ** 2


@pytest.mark.parametrize("name", ["cylinder-s", "bernstein-3y^2"])
def test_moved_charts_converge_with_the_base_and_scale_by_e_3s(name):
    base = cylinder_S(1.1339)[0] if name == "cylinder-s" else _CHART_CASES[name][0]()
    ref = area(base, 128)
    s0 = 0.3
    moved = {"translated": (base.translated(Point(0.7, -0.4, 1.1)), 1.0),
             "dilated": (base.dilated(s0), np.exp(3 * s0)),
             "flipped": (base.flipped(), 1.0),
             "all three": (base.dilated(-s0).translated(Point(0.2, 0.1, -0.3)).flipped(),
                           np.exp(-3 * s0))}
    for form, (patch, factor) in moved.items():
        est = area(patch, 128)
        assert est.converged and est.samples == ref.samples, form
        assert abs(est.value - factor * ref.value) <= est.error + factor * ref.error, form


@pytest.mark.parametrize("patch", [
    cylinder_S(0.8)[0], cylinder_S(-1.3)[1],
    build_surface("bernstein", g="3*y^2"),
    build_surface("bernstein", g=_SEED_1_TEXT).dilated(0.2),
    plane_patch((0.3, -0.2, 1.0), 0.4), plane_patch((2.0, 0.0, 1.0)).flipped(),
], ids=["cylinder-lower", "cylinder-upper", "bernstein-3y^2", "bernstein-dilated",
        "plane-tilted", "plane-point-on-side-flipped"])
def test_charts_tile_the_rectangle_and_integrands_see_base_parameters(patch):
    # on a graph the T coefficient of the raw normal is the orientation times
    # det J, so raw_T (1 + eps + s^2) integrates to the orientation times the
    # integral of 1 + x + y^2 over the parameter rectangle
    def poly(eps, s, p, raw):
        return raw[..., 2] * (1.0 + eps + s * s)

    x0, x1, y0, y1 = patch.eps_lo, patch.eps_hi, patch.s_lo, patch.s_hi
    exact = patch.orientation * ((x1 - x0) * (y1 - y0) + (x1**2 - x0**2) / 2 * (y1 - y0)
                                 + (x1 - x0) * (y1**3 - y0**3) / 3)
    if patch.label.endswith("+dilated"):   # the dilation scales T by e^{2 s0}
        exact *= np.exp(2 * 0.2)
    est = quad_many(patch, 32, (("poly", poly),))["poly"]
    assert est.converged
    assert abs(est.value - exact) <= 1e-13 * abs(exact)


def test_samples_count_every_chart():
    plane = plane_patch()
    assert area(plane, 128).samples == 4 * (measures.GAUSS_ORDER * 8) ** 2
    bg = build_surface("bernstein", g="3*y^2")
    _, _, samples = measures._sweep(bg, 8, ("area",))
    assert samples == 4 * (measures.GAUSS_ORDER * 8) ** 2


def test_sine_chart_samples_are_within_their_stated_rounding():
    # the area integrand of a sine chart in closed form: h^2 pi |sin(pi b/2)|
    # on a cylinder sheet, h = 1/(2|lam|), and pi sin^2(pi b/2) / (2 lam^3)
    # on a sphere sheet; each sample's error is within the floor it states,
    # FLOOR_ULPS eps |f| plus the chart's roundoff times |f|
    cases = []
    for lam in (0.5, 1.1339, 2.0, -1.0, 3.3):
        h = 1 / (2 * abs(mpmath.mpf(lam)))
        cases += [(sheet, lambda q, h=h: h**2 * mpmath.pi * abs(mpmath.sin(q)))
                  for sheet in cylinder_S(lam)]
    for lam in (0.5, 1.1339, 2.0, 3.3):
        cases += [(sheet, lambda q, lam=mpmath.mpf(lam): mpmath.pi * mpmath.sin(q) ** 2 / (2 * lam**3))
                  for sheet in sphere_graph(lam)]
    eps = np.finfo(float).eps
    for patch, exact in cases:
        for chart in patch.quadrature_charts():
            for n in (8, 128):
                a, _ = measures._axis_rule(*chart.rect[:2], 1)
                b, _ = measures._axis_rule(*chart.rect[2:], n)
                _, _, _, raw = chart.samples(patch, a[:2, None], b[None, :])
                f = np.hypot(raw[..., 0], raw[..., 1])
                ref = np.array([float(exact(mpmath.pi * mpmath.mpf(v) / 2)) for v in b])
                bound = (measures.FLOOR_ULPS * eps + chart.roundoff(a[:2, None], b[None, :])) * f
                assert np.all(np.abs(f - ref) <= bound), patch.label


# the benchmark's seed-1 catalog parameters, and the CLI defaults
_REPORT_PARAMS = {
    "sphere": {"--lambda": "1.1339"},
    "cylinder-s": {"--lambda": "1.1339"},
    "helicoid-l": {"--lambda": "1.1339", "--r": "1.4628"},
    "bernstein": {"--g": _SEED_1_TEXT},
    "plane": {"--d": "-0.7117"},
    "vertical-cylinder": {"--r": "1.4628"},
    "sigma-lambda": {"--lambda": "1.1339"},
    "sigma-zero": {},
}


def _exact_area(surface, flags):
    """The area in closed form or by mpmath; None where neither is at hand."""
    lam = float(flags.get("--lambda", 1.0))
    r = float(flags.get("--r", 1.0))
    if surface == "sphere":
        return np.pi**2 / lam**3
    if surface in ("cylinder-s", "sigma-lambda"):
        # sigma-lambda over the x-axis is the cylinder's sheet in another chart
        return 4.0 / lam**2
    if surface == "bernstein":
        return _bernstein_area_mp(_SEED_1_G if flags else (0.0,))
    if surface == "plane":   # the cone point is the origin for every d
        return 32.0 / 3.0 * (math.sqrt(2.0) + math.asinh(1.0))
    if surface == "vertical-cylinder":
        return 8.0 * np.pi * r
    if surface == "sigma-zero":   # |N_H| = 2|s| over [-2, 2]^2
        return 32.0
    return None


@pytest.mark.parametrize("cap", [9, 11, 13, 15])
def test_sigma_zero_converges_at_odd_caps(capsys, cap):
    # an odd cap is the last level, whose cell edges miss s = 0; the charts
    # split there put the singular curve on a chart edge all the same
    assert main(["report", "--surface", "sigma-zero", "--res", f"{cap}x{cap}"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["A_converged"] is True
    assert rep["A_err"] >= abs(rep["A"] - 32.0)


@pytest.mark.parametrize("params", ["defaults", "seed-1"])
@pytest.mark.parametrize("surface", sorted(_REPORT_PARAMS))
def test_catalog_reports_converge_within_their_stated_error(capsys, surface, params):
    flags = _REPORT_PARAMS[surface] if params == "seed-1" else {}
    argv = ["report", "--surface", surface, "--res", "128x128"]
    assert main(argv + [v for kv in flags.items() for v in kv]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["A_converged"] is True and rep["V_converged"] in (True, None)
    assert rep["samples"] <= 32768
    exact = _exact_area(surface, flags)
    if exact is not None:
        assert rep["A_err"] >= abs(rep["A"] - exact)
