import numpy as np
import pytest

import h1geo.curvature as crv
from h1geo.curvature import (
    _char_velocity,
    bernstein_foliation,
    calibration_divergence,
    characteristic_deviation,
    fill_mesh_curvature,
    graph_pde_mean_curvature,
    graph_pde_residual,
    mean_curvature_char,
    orthogonality_defect,
    plane_foliation,
    trace_characteristic,
)
from h1geo.errors import NoSingularCurve, OnSingularLocus, SingularPoint
from h1geo.hcurves import helix_curve, line_curve
from h1geo.hgroup import Point
from h1geo.surfaces import (
    SpherePatch,
    VerticalCylinder,
    bernstein_graph,
    build_sigma_lambda,
    build_sigma_zero,
    cylinder_S,
    helicoid_L,
    mesh,
    plane_patch,
    sphere_geodesic,
    sphere_graph,
)

RNG = np.random.default_rng(1234)


def make_bernstein(kind):
    if kind == "quadratic":
        return bernstein_graph(lambda y: np.asarray(y, float) ** 2,
                               lambda y: 2 * np.asarray(y, float),
                               lambda y: 2.0 + 0 * np.asarray(y, float))
    return bernstein_graph(lambda y: 3 * np.asarray(y, float) + 7.0,
                           lambda y: 3.0 + 0 * np.asarray(y, float),
                           lambda y: 0.0 * np.asarray(y, float))


# ---------------------------------------------------------------------------
# mean curvature, characteristic form


def test_sphere_mean_curvature():
    sp = sphere_geodesic(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 50)
    s = RNG.uniform(0.4, np.pi - 0.4, 50)
    H = mean_curvature_char(sp, eps, s)
    assert np.max(np.abs(H - 1.0)) < 1e-5


def test_plane_mean_curvature_zero():
    pl = plane_patch()
    H = mean_curvature_char(pl, 0.9, 0.7)
    assert abs(H) < 1e-8


def test_sigma_lambda_mean_curvature():
    sl = build_sigma_lambda(line_curve(eps_min=-2, eps_max=2), 2.0, +1)
    eps = RNG.uniform(-1.5, 1.5, 20)
    sig = RNG.uniform(0.2, 0.8, 20)
    H = mean_curvature_char(sl, eps, sig)
    assert np.max(np.abs(H - 2.0)) < 1e-5


def test_sigma_lambda_both_sides_positive_H():
    for side in (+1, -1):
        sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, side)
        H = mean_curvature_char(sl, 0.2, 0.55)
        assert abs(H - 1.0) < 1e-5


def test_sigma_zero_minimal():
    sz = build_sigma_zero(helix_curve(1.0, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
    H = mean_curvature_char(sz, np.array([0.1, -0.6]), np.array([0.8, -0.9]))
    assert np.max(np.abs(H)) < 1e-6


def test_mean_curvature_constancy_across_catalog():
    cases = [
        sphere_geodesic(1.0),
        build_sigma_lambda(line_curve(eps_min=-2, eps_max=2), 1.0, +1),
        cylinder_S(1.0)[0],
    ]
    bounds = [(0.4, np.pi - 0.4), (0.15, 0.85), (-0.4, 0.4)]
    for patch, (lo, hi) in zip(cases, bounds):
        eps = RNG.uniform(patch.eps_lo + 0.2, patch.eps_hi - 0.2, 200)
        s = RNG.uniform(lo, hi, 200)
        H = mean_curvature_char(patch, eps, s)
        assert np.std(H) < 1e-4, patch.label


def test_orientation_flip_negates_H():
    sp = sphere_geodesic(1.0)
    H1 = mean_curvature_char(sp, 0.9, 1.4)
    H2 = mean_curvature_char(sp.flipped(), 0.9, 1.4)
    assert abs(H1 + H2) < 1e-10


def test_mean_curvature_dilation_law():
    # H(phi_s Sigma) = e^{-s} H(Sigma) at corresponding points
    sp = sphere_geodesic(1.0)
    s0 = 0.6
    H0 = mean_curvature_char(sp, 1.1, 1.3)
    H1 = mean_curvature_char(sp.dilated(s0), 1.1, 1.3)
    assert abs(H1 - np.exp(-s0) * H0) < 1e-5


def test_mean_curvature_rejects_singular_point():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    with pytest.raises(SingularPoint):
        mean_curvature_char(sl, 0.0, 1e-9)


def test_vertical_cylinder_constant_H():
    vc = VerticalCylinder(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 30)
    s = RNG.uniform(-1, 1, 30)
    H = mean_curvature_char(vc, eps, s)
    assert np.std(H) < 1e-6


def test_helicoid_pieces_H():
    fam = helicoid_L(1.0, 1.0, k_max=2)
    for piece in fam.pieces:
        H = mean_curvature_char(piece, 0.2, 0.5)
        assert abs(H - 1.0) < 1e-5, piece.label


# ---------------------------------------------------------------------------
# graph PDE


def test_pde_plane_exact_zero():
    pl = plane_patch()
    assert graph_pde_residual(pl, 0.5, 0.8, 0.0) == 0.0


def test_pde_bernstein_exact_zero():
    bg = make_bernstein("affine")
    x = RNG.uniform(-2, 2, 20)
    y = RNG.uniform(-2, 2, 20)
    x = np.where(np.abs(2 * x + 3.0) < 0.2, x + 0.5, x)
    assert np.max(np.abs(graph_pde_residual(bg, x, y, 0.0))) == 0.0
    # every graph t = xy + g(y) is minimal off the singular curve
    bq = make_bernstein("quadratic")
    xq = np.where(np.abs(2 * x + 2 * y) < 0.2, x + 0.5, x)
    assert np.max(np.abs(graph_pde_residual(bq, xq, y, 0.0))) == 0.0


def test_pde_sphere_sheets_analytic():
    lam = 1.0
    lower, upper = sphere_graph(lam)
    phi = RNG.uniform(0, 2 * np.pi, 100)
    rho = RNG.uniform(0.05, 0.95 / lam, 100)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    # H in the displayed equation refers to the downward normal: the inner
    # normal is downward on the upper sheet (+lam) and upward on the lower
    # sheet (so -lam appears there)
    assert np.max(np.abs(graph_pde_residual(upper, x, y, lam))) < 1e-6
    assert np.max(np.abs(graph_pde_residual(lower, x, y, -lam))) < 1e-6


def test_pde_cylinder_sheets():
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = RNG.uniform(-1, 1, 60)
    y = RNG.uniform(0.05, 0.45, 60) * RNG.choice([-1, 1], 60)
    assert np.max(np.abs(graph_pde_residual(lower, x, y, -lam))) < 1e-6
    assert np.max(np.abs(graph_pde_residual(upper, x, y, lam))) < 1e-6


def test_pde_rejects_singular_graph_point():
    bg = make_bernstein("quadratic")
    with pytest.raises(SingularPoint):
        graph_pde_residual(bg, -0.5, 0.5, 0.0)  # on 2x + 2y = 0


def test_pde_fd_fallback_matches_analytic():
    lower, _ = sphere_graph(1.0)
    bundle = lower.graph_bundle()
    x, y = 0.31, 0.22
    r_analytic = graph_pde_residual(lower, x, y, -1.0)
    r_fd = graph_pde_residual(bundle[0], x, y, -1.0)  # bare u callable
    assert abs(r_analytic - r_fd) < 1e-7


def test_method_agreement_char_vs_pde():
    # characteristic-direction H vs the pointwise PDE H on shared regular
    # points of every catalog graph surface; the PDE H refers to the
    # downward normal, so the sign flips on upward-oriented patches
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = RNG.uniform(-0.5, 0.5, 10)
    y = RNG.uniform(0.1, 0.4, 10)
    H_char = mean_curvature_char(lower, x, y)
    H_pde = graph_pde_mean_curvature(lower, x, y)
    assert np.max(np.abs(H_char + H_pde)) < 1e-4  # lower sheet points up
    H_char_up = mean_curvature_char(upper, x, y)
    H_pde_up = graph_pde_mean_curvature(upper, x, y)
    assert np.max(np.abs(H_char_up - H_pde_up)) < 1e-4

    lo_sheet, up_sheet = sphere_graph(lam)
    phi = RNG.uniform(0, 2 * np.pi, 8)
    rho = RNG.uniform(0.2, 0.8, 8)
    xs, ys = rho * np.cos(phi), rho * np.sin(phi)
    # the sheet patches are (phi, rho)-parameterized; the PDE bundle is (x, y)
    assert np.max(np.abs(mean_curvature_char(lo_sheet, phi, rho)
                         + graph_pde_mean_curvature(lo_sheet.graph_bundle(), xs, ys))) < 1e-4
    assert np.max(np.abs(mean_curvature_char(up_sheet, phi, rho)
                         - graph_pde_mean_curvature(up_sheet.graph_bundle(), xs, ys))) < 1e-4

    bg = make_bernstein("quadratic")
    xq = RNG.uniform(0.5, 2.0, 8)
    yq = RNG.uniform(-1.0, 1.0, 8)
    assert np.max(np.abs(mean_curvature_char(bg, xq, yq)
                         - graph_pde_mean_curvature(bg, xq, yq))) < 1e-4


# ---------------------------------------------------------------------------
# characteristic traces / ruling


def test_trace_tangent_solve_is_consistent():
    # the parameter velocity reproduces Z in the tangent plane
    sp = sphere_geodesic(1.0)
    from h1geo.curvature import _char_velocity

    de, ds = _char_velocity(sp, 0.8, 1.2)
    fe, fs, _ = sp.partials(0.8, 1.2)
    nd = sp.normal_data(0.8, 1.2)
    recon = de * fe + ds * fs
    assert np.max(np.abs(recon - nd.z)) < 1e-12


def test_char_velocity_evaluates_the_patch_once():
    class CountingSphere(SpherePatch):
        calls = 0

        def partials(self, eps, s):
            self.calls += 1
            return super().partials(eps, s)

    sp = CountingSphere(1.0)
    _char_velocity(sp, np.array([0.8, 1.1]), np.array([1.2, 0.9]))
    assert sp.calls == 1


@pytest.mark.parametrize("patch, seeds", [
    (sphere_geodesic(1.0), [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
    (build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, -1), [(0.0, 0.5), (0.7, 0.6)]),
    (helicoid_L(1.0, 1.0, k_max=2).pieces[1], [(0.0, 0.5), (0.4, 0.55)]),
], ids=["sphere", "sigma-lambda-side-1", "helicoid-flipped"])
def test_characteristic_deviation_array_seeds_match_scalar_calls(patch, seeds):
    e0, s0 = np.array(seeds).T
    together = characteristic_deviation(patch, e0, s0, arclen=1.0, n_steps=200)
    one_by_one = max(characteristic_deviation(patch, e, s, arclen=1.0, n_steps=200)
                     for e, s in seeds)
    assert together == one_by_one


@pytest.mark.parametrize("patch, seeds", [
    (sphere_geodesic(1.0), [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
    (build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, -1), [(0.0, 0.5), (0.7, 0.6)]),
    (helicoid_L(1.0, 1.0, k_max=2).pieces[1], [(0.0, 0.5), (0.4, 0.55)]),
], ids=["sphere", "sigma-lambda-side-1", "helicoid-flipped"])
def test_trace_with_signed_arclen_array_stacks_the_scalar_traces(patch, seeds):
    e0, s0 = np.array(seeds).T
    ep, spath = trace_characteristic(patch, e0, s0, np.array([[0.3], [-0.3]]), n_steps=12)
    assert ep.shape == spath.shape == (13, 2, len(seeds))
    for k, length in enumerate((0.3, -0.3)):
        e1, s1 = trace_characteristic(patch, e0, s0, length, n_steps=12)
        assert np.array_equal(ep[:, k], e1)
        assert np.array_equal(spath[:, k], s1)


def test_mean_curvature_and_ruling_trace_both_ways_in_one_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return trace_characteristic(*args, **kwargs)

    monkeypatch.setattr(crv, "trace_characteristic", counting)
    sp = sphere_geodesic(1.0)
    mean_curvature_char(sp, np.array([0.3, 1.1]), np.array([1.2, 0.8]))
    assert len(calls) == 1
    characteristic_deviation(sp, np.array([0.3, 2.0]), np.array([1.2, 1.8]), n_steps=20)
    assert len(calls) == 2


def test_trace_moves_along_geodesic_parameter():
    # on the sigma patch Z = +gamma', so the trace advances the geometric s
    # linearly with arclength while eps stays fixed
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    ep, spath = trace_characteristic(sl, 0.2, 0.5, 0.3, n_steps=30)
    scut = float(sl.s_cut(0.2))
    assert np.max(np.abs(ep - 0.2)) < 1e-12
    expect = 0.5 + np.linspace(0, 0.3, 31) / scut
    assert np.max(np.abs(spath - expect)) < 1e-10


@pytest.mark.parametrize("case", ["sphere", "sigma", "cylinder", "plane", "bernstein"])
def test_ruling_property(case):
    # the cylinder runs on its orthogonal-geodesic chart (the graph chart
    # folds at the strip boundary mid-arc); the two representations are
    # verified to agree elsewhere
    if case == "sphere":
        patch, seeds = sphere_geodesic(1.0), [(0.3, 1.2), (2.0, 1.8)]
    elif case == "sigma":
        patch = build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, +1)
        seeds = [(0.0, 0.5), (-1.0, 0.4)]
    elif case == "cylinder":
        patch = build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, -1)
        seeds = [(0.0, 0.5), (0.5, 0.6)]
    elif case == "plane":
        patch, seeds = plane_patch(rect=(-3, 3, -3, 3)), [(1.0, 1.0), (-1.5, 0.7)]
    else:
        patch, seeds = make_bernstein("affine"), [(0.5, 0.5), (1.0, -0.5)]
    for eps0, s0 in seeds:
        dev = characteristic_deviation(patch, eps0, s0, arclen=1.0, n_steps=200)
        assert dev < 1e-5, (case, dev)


# ---------------------------------------------------------------------------
# orthogonality defect


def test_defect_sigma_lambda_boundaries():
    for curve in (line_curve(eps_min=-2, eps_max=2), helix_curve(1.0, eps_min=-2, eps_max=2)):
        sl = build_sigma_lambda(curve, 1.0, +1)
        for idx in (0, 1):
            for eps in (-0.5, 0.0, 0.7):
                assert abs(orthogonality_defect(sl, idx, eps)) < 1e-6


def test_defect_bernstein_quadratic():
    bg = make_bernstein("quadratic")
    for y in (-0.8, 0.0, 0.5):
        d = orthogonality_defect(bg, 0, y)
        assert abs(d - (-1.0)) < 1e-6  # -g''/2 = -1


def test_defect_bernstein_affine():
    bg = make_bernstein("affine")
    for y in (-0.8, 0.0, 0.5):
        assert abs(orthogonality_defect(bg, 0, y)) < 1e-9


def test_defect_requires_singular_curve():
    vp = plane_patch((0.0, 1.0, 0.0), 0.0)
    with pytest.raises(NoSingularCurve):
        orthogonality_defect(vp, 0, 0.0)


# ---------------------------------------------------------------------------
# calibration divergence


def test_calibration_plane_families():
    for alpha, beta in ((0.0, 0.0), (0.7, -0.4)):
        fol = plane_foliation(alpha, beta)
        pts = RNG.uniform(-2, 2, size=(100, 3))
        keep = fol.locus_distance(Point(pts[:, 0], pts[:, 1], pts[:, 2])) > 0.05
        div = calibration_divergence(fol, Point(pts[keep, 0], pts[keep, 1], pts[keep, 2]))
        assert np.max(np.abs(div)) < 1e-6


def test_calibration_stationary_bernstein_families():
    for a in (0.0, 2.0):
        fol = bernstein_foliation(a)
        pts = RNG.uniform(-2, 2, size=(100, 3))
        keep = fol.locus_distance(Point(pts[:, 0], pts[:, 1], pts[:, 2])) > 0.05
        div = calibration_divergence(fol, Point(pts[keep, 0], pts[keep, 1], pts[keep, 2]))
        assert np.max(np.abs(div)) < 1e-6


def test_calibration_stationary_family_clean_even_near_locus():
    # the jump of nu_H across the locus is invisible to the divergence when
    # the characteristic lines meet the singular curve orthogonally
    fol = bernstein_foliation(0.0)
    q = Point(2e-6, 0.7, 0.1)
    assert abs(calibration_divergence(fol, q)) < 1e-6


def test_calibration_cubic_control_detects_nonstationarity():
    fol = bernstein_foliation(lambda y: 3.0 * np.asarray(y, float) ** 2, label="cubic")
    # probe a short segment straddling the locus 2x + 3y^2 = 0 at y = 0.7
    y0 = 0.7
    x0 = -3.0 * y0**2 / 2.0
    probes = [Point(x0 + d, y0, 0.0) for d in (-2e-5, -2e-6, 2e-6, 2e-5)]
    vals = [abs(calibration_divergence(fol, q)) for q in probes]
    assert max(vals) > 1e-2
    # far from the locus the field is still divergence-free
    far = calibration_divergence(fol, Point(1.5, 0.7, 0.0))
    assert abs(far) < 1e-6


def test_calibration_rejects_on_locus():
    fol = bernstein_foliation(0.0)
    with pytest.raises(OnSingularLocus):
        calibration_divergence(fol, Point(0.0, 0.3, 0.0))


# ---------------------------------------------------------------------------
# mesh curvature fill


def test_fill_mesh_curvature():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    m = mesh(sl, 8, 9)
    fill_mesh_curvature(m)
    interior = m.h_est[:, 2:-2]
    assert np.all(np.isfinite(interior))
    assert np.max(np.abs(interior - 1.0)) < 1e-4
    assert np.all(np.isnan(m.h_est[:, 0])) and np.all(np.isnan(m.h_est[:, -1]))
