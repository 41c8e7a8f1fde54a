import dataclasses
import inspect

import numpy as np
import pytest

from h1geo.curvature import fill_mesh_curvature
from h1geo.errors import DegeneratePoint, UnknownSurface
from h1geo.geodesics import conserved_quantity, geodesic_velocity, jacobi_residual
from h1geo.hcurves import HorizontalCurve, PlanarCurve, helix_curve, horizontal_lift, line_curve
from h1geo.hgroup import Point, cartesian_to_frame, j_c, dot_c
from h1geo.surfaces import (
    BernsteinGraph,
    SpherePatch,
    SurfaceMesh,
    bernstein_graph,
    build_sigma_lambda,
    build_sigma_zero,
    build_surface,
    catalog,
    cylinder_S,
    detect_singular,
    export_csv,
    export_obj,
    fd_partials,
    helicoid_L,
    mesh,
    plane_patch,
    singular_components,
    sphere_geodesic,
    sphere_graph,
    VerticalCylinder,
    _curve_data,
)

RNG = np.random.default_rng(4242)


# ---------------------------------------------------------------------------
# normal data


def test_normal_data_vertical_plane():
    vp = plane_patch((0.0, 1.0, 0.0), 0.0)
    nd = vp.normal_data(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    assert np.allclose(nd.nh_norm, 1.0, atol=1e-15)
    assert not np.any(nd.singular)
    # N is the +-Y direction
    assert np.allclose(np.abs(nd.normal[..., 1]), 1.0, atol=1e-15)


def test_normal_data_horizontal_plane_singular_at_origin():
    pl = plane_patch((0.0, 0.0, 1.0), 0.0)
    nd = pl.normal_data(0.0, 0.0)
    assert nd.singular
    assert nd.nh_norm < 1e-15
    assert np.all(np.isnan(nd.nu_h))
    nd2 = pl.normal_data(1.0, 0.5)
    assert not nd2.singular


def test_normal_decomposition_identity_on_sphere():
    sp = sphere_geodesic(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 50)
    s = RNG.uniform(0.2, np.pi - 0.2, 50)
    nd = sp.normal_data(eps, s)
    assert np.max(np.abs(np.linalg.norm(nd.normal, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(nd.nh_norm**2 + nd.normal[..., 2] ** 2 - 1.0)) < 1e-12
    assert np.allclose(nd.z, j_c(nd.nu_h), atol=0)


def test_degenerate_point_raises():
    sp = sphere_geodesic(1.0)
    with pytest.raises(DegeneratePoint):
        sp.normal_data(0.3, 0.0)  # pole: F_theta vanishes


def test_orientation_flip():
    sp = sphere_geodesic(1.0)
    nd = sp.normal_data(0.7, 1.1)
    ndf = sp.flipped().normal_data(0.7, 1.1)
    assert np.allclose(ndf.normal, -nd.normal, atol=0)
    assert np.allclose(ndf.nu_h, -nd.nu_h, atol=0)
    assert np.allclose(ndf.z, -nd.z, atol=0)
    assert ndf.nh_norm == nd.nh_norm


# ---------------------------------------------------------------------------
# spheres


def test_sphere_analytic_partials_match_fd():
    sp = sphere_geodesic(1.3)
    for _ in range(10):
        eps = RNG.uniform(0, 2 * np.pi)
        s = RNG.uniform(0.2, np.pi / 1.3 - 0.2)
        fe, fs, _ = sp.partials(eps, s)
        fe2, fs2, _ = fd_partials(sp, eps, s)
        assert np.max(np.abs(fe - fe2)) < 1e-8
        assert np.max(np.abs(fs - fs2)) < 1e-8


def test_sphere_pole_concurrence_through_patch():
    sp = sphere_geodesic(0.7)
    th = np.linspace(0, 2 * np.pi, 32)
    top = sp.point(th, np.pi / 0.7).as_array()
    assert np.max(np.abs(top - [0, 0, np.pi / (2 * 0.49)])) < 1e-12


def test_sphere_graph_sheets_poles_and_equator():
    lam = 1.0
    lower, upper = sphere_graph(lam)
    # poles at rho -> 0
    assert abs(float(lower.point(0.0, 0.0).t)) < 1e-14
    assert abs(float(upper.point(0.0, 0.0).t) - np.pi / (2 * lam**2)) < 1e-14
    # sheets agree on the equator rho = 1/lam
    phi = np.linspace(0, 2 * np.pi, 9)
    d = lower.point(phi, 1 / lam).as_array() - upper.point(phi, 1 / lam).as_array()
    assert np.max(np.abs(d)) < 1e-14
    assert abs(float(lower.point(0.0, 1 / lam).t) - np.pi / (4 * lam**2)) < 1e-14


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_sphere_graph_agrees_with_geodesic_parameterization(lam):
    # two-sided sampled distance between the representations
    sp = sphere_geodesic(lam)
    lower, upper = sphere_graph(lam)
    th = RNG.uniform(0, 2 * np.pi, 200)
    s = RNG.uniform(1e-3, np.pi / lam - 1e-3, 200)
    pts = sp.point(th, s).as_array()
    rho = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    t_lo = np.asarray(lower.point(phi, rho).t)
    t_up = np.asarray(upper.point(phi, rho).t)
    gap = np.minimum(np.abs(t_lo - pts[:, 2]), np.abs(t_up - pts[:, 2]))
    assert np.max(gap) < 1e-8
    # independent profile oracle: with z = 2 arcsin(lam rho), the lower-sheet
    # height is (z - sin z)/(4 lam^2)
    z = 2 * np.arcsin(np.clip(lam * rho, -1, 1))
    t_expect = (z - np.sin(z)) / (4 * lam**2)
    assert np.max(np.abs(t_lo - t_expect)) < 1e-10


def test_sphere_graph_partials_match_fd():
    lower, _ = sphere_graph(1.0)
    fe, fs, _ = lower.partials(0.8, 0.6)
    fe2, fs2, _ = fd_partials(lower, 0.8, 0.6)
    assert np.max(np.abs(fe - fe2)) < 1e-8
    assert np.max(np.abs(fs - fs2)) < 1e-8


# ---------------------------------------------------------------------------
# sigma-lambda builder


def test_sigma_lambda_requires_nonzero_lambda():
    with pytest.raises(ValueError):
        build_sigma_lambda(line_curve(), 0.0)


def test_sigma_lambda_x_axis_far_curve_is_translated_axis():
    for lam in (1.0, -1.0, 2.0):
        sl = build_sigma_lambda(line_curve(eps_min=-2, eps_max=2), lam, +1)
        assert np.allclose(sl.s_cut(0.0), np.pi / (2 * abs(lam)), atol=1e-15)
        eps = np.linspace(-1, 1, 7)
        far = sl.far_curve_point(eps).as_array()
        assert np.max(np.abs(far[:, 1])) < 1e-14
        assert np.allclose(far[:, 2], np.sign(lam) * np.pi / (4 * lam**2), atol=1e-14)


def test_sigma_lambda_partials_match_fd():
    for side in (+1, -1):
        sl = build_sigma_lambda(helix_curve(0.8, eps_min=-2, eps_max=2), 1.4, side)
        for _ in range(5):
            eps = RNG.uniform(-1.5, 1.5)
            sig = RNG.uniform(0.05, 0.95)
            fe, fs, _ = sl.partials(eps, sig)
            fe2, fs2, _ = fd_partials(sl, eps, sig)
            assert np.max(np.abs(fe - fe2)) < 1e-7
            assert np.max(np.abs(fs - fs2)) < 1e-7


def counting_curve(base):
    """`base` with each planar and lift call recorded as (name, points)."""
    calls = []

    def wrap(name, f):
        def counted(e):
            calls.append((name, np.size(e)))
            return f(e)
        return counted

    planar = dataclasses.replace(base.planar, xy=wrap("xy", base.planar.xy),
                                 d1=wrap("d1", base.planar.d1), d2=wrap("d2", base.planar.d2))
    return HorizontalCurve(planar, wrap("t_of", base.t_of), base.label), calls


@pytest.mark.parametrize("build", [
    lambda c: build_sigma_lambda(c, 1.2, -1),
    lambda c: build_sigma_zero(c),
], ids=["sigma-lambda", "sigma-zero"])
def test_partials_fetch_the_curve_once_on_the_eps_axis(build):
    curve, calls = counting_curve(helix_curve(0.8, eps_min=-2, eps_max=2))
    patch = build(curve)
    m, n = 7, 5
    eps = np.linspace(-1.5, 1.5, m)[:, None]
    s = np.linspace(0.1, 0.9, n)[None, :]
    fe, fs, p = patch.partials(eps, s)
    assert fe.shape == fs.shape == (m, n, 3)
    assert max(size for _, size in calls) <= m
    names = [name for name, _ in calls]
    assert names.count("xy") == 1
    assert names.count("t_of") == 1
    # the same values as on the broadcast grid
    fe2, fs2, p2 = patch.partials(*np.broadcast_arrays(eps, s))
    assert np.array_equal(fe, fe2) and np.array_equal(fs, fs2)
    assert np.array_equal(p.as_array(), p2.as_array())


def clothoid_curve():
    """Arclength curve with x' = cos(e^2/2), y' = sin(e^2/2): planar
    curvature h = e, so the cut time varies along it."""
    from scipy.special import fresnel

    root_pi = np.sqrt(np.pi)

    def xy(e):
        sf, cf = fresnel(np.asarray(e, float) / root_pi)
        return root_pi * cf, root_pi * sf

    def d1(e):
        phase = np.asarray(e, float) ** 2 / 2
        return np.cos(phase), np.sin(phase)

    def d2(e):
        e = np.asarray(e, float)
        return -e * np.sin(e * e / 2), e * np.cos(e * e / 2)

    return horizontal_lift(PlanarCurve(xy, d1, d2, -1.0, 1.0), label="clothoid")


@pytest.mark.parametrize("side", [1, -1])
def test_sigma_lambda_partials_evaluate_curvature_once_on_eps(side):
    calls = []

    class CountingCurve(HorizontalCurve):
        def planar_curvature(self, eps):
            calls.append(np.array(eps, float))
            return super().planar_curvature(eps)

    base = clothoid_curve()
    sl = build_sigma_lambda(CountingCurve(base.planar, base.t_of, base.label), 1.3, side)
    eps = np.linspace(-0.8, 0.8, 7)[:, None]
    s = np.linspace(0.1, 0.9, 5)[None, :]
    fe, fs, p = sl.partials(eps, s)
    # none on eps itself; curvature_rate makes two, at eps +- h_fd
    assert sum(np.array_equal(e, eps) for e in calls) == 0
    assert len(calls) == 2
    # the same bits as the expressions that fetched h for s_cut and s_cut_rate
    ref = build_sigma_lambda(base, 1.3, side)
    scut = ref.s_cut(eps)
    p2, gdot, v = ref._along(_curve_data(base, eps), s * scut)
    fe2 = v + (s * ref.s_cut_rate(eps))[..., None] * gdot
    assert fe.tobytes() == fe2.tobytes()
    assert fs.tobytes() == (scut[..., None] * gdot).tobytes()
    assert p.as_array().tobytes() == p2.as_array().tobytes()


@pytest.mark.parametrize("side", [1, -1])
def test_far_curve_tangent_matches_fd_of_far_curve(side):
    sl = build_sigma_lambda(clothoid_curve(), 1.0, side)
    eps = np.linspace(-0.8, 0.8, 7)
    assert np.min(np.abs(sl.s_cut_rate(eps))) > 0.4   # the s_cut' term counts
    d = 1e-5
    de = (sl.far_curve_point(eps + d).as_array() - sl.far_curve_point(eps - d).as_array()) / (2 * d)
    fd = cartesian_to_frame(sl.far_curve_point(eps), de)
    assert np.max(np.abs(sl.far_curve_tangent(eps) - fd)) < 1e-7


def test_sigma_lambda_variation_field_endpoints():
    sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    for eps in (-0.7, 0.0, 0.4):
        v0 = sl.variation_coeffs(eps, 0.0)
        assert np.allclose(v0, sl.curve.velocity(eps), atol=1e-14)
        scut = sl.s_cut(eps)
        vc = sl.variation_coeffs(eps, scut)
        expect = j_c(geodesic_velocity(sl.generating_geodesic(eps), scut))
        assert np.max(np.abs(vc - expect)) < 1e-9


def test_sigma_lambda_tilde_variation_endpoint():
    # on the -J side the cut value is -J(gamma')
    sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, -1)
    eps = 0.3
    scut = sl.s_cut(eps)
    vc = sl.variation_coeffs(eps, scut)
    expect = -j_c(geodesic_velocity(sl.generating_geodesic(eps), scut))
    assert np.max(np.abs(vc - expect)) < 1e-9


def test_sigma_lambda_variation_is_jacobi_field():
    sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    for eps in (-0.5, 0.2):
        field = sl.variation_field(eps)
        s = np.linspace(0.05, np.pi - 0.05, 20)
        assert np.max(jacobi_residual(field.geodesic, field, s)) < 1e-6
        # conserved quantity vanishes for the orthogonal family
        assert np.max(np.abs(conserved_quantity(field.geodesic, field, s))) < 1e-12


def test_sigma_lambda_vt_sign_structure():
    sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    eps = 0.1
    scut = float(sl.s_cut(eps))
    s = np.linspace(1e-3, np.pi - 1e-3, 300)
    vt = sl.variation_coeffs(eps, s)[..., 2]
    assert np.all(vt[s < scut - 1e-3] < 0)
    assert np.all(vt[s > scut + 1e-3] > 0)


def test_sigma_lambda_vjg_identity():
    # <V, J(gamma')> = sigma(s) h - side cos(2 lam s); equals side at the cut
    for side in (+1, -1):
        sl = build_sigma_lambda(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, side)
        eps = 0.25
        s = np.linspace(0.0, np.pi, 50)
        v = sl.variation_coeffs(eps, s)
        jg = j_c(geodesic_velocity(sl.generating_geodesic(eps), s))
        got = dot_c(v, jg)
        h = float(sl.curve.planar_curvature(eps))
        expect = np.sin(2 * s) / 2 * h - side * np.cos(2 * s)
        assert np.max(np.abs(got - expect)) < 1e-12
        scut = float(sl.s_cut(eps))
        vcut = dot_c(sl.variation_coeffs(eps, scut),
                     j_c(geodesic_velocity(sl.generating_geodesic(eps), scut)))
        assert abs(vcut - side) < 1e-12


def test_sigma_lambda_generating_geodesics_residual():
    sl = build_sigma_lambda(helix_curve(0.7, eps_min=-2, eps_max=2), 1.2, +1)
    from h1geo.geodesics import geodesic_residual

    for eps in (-1.0, 0.0, 0.8):
        g = sl.generating_geodesic(eps)
        assert float(geodesic_residual(g, 0.5)) < 1e-8
        # s -> F(eps, s) really is that geodesic
        sig = np.linspace(0, 1, 9)
        from h1geo.geodesics import geodesic_point

        d = sl.point(np.full_like(sig, eps), sig).as_array() \
            - geodesic_point(g, sig * float(sl.s_cut(eps))).as_array()
        assert np.max(np.abs(d)) < 1e-12


# ---------------------------------------------------------------------------
# sigma-zero builder


def test_sigma_zero_x_axis_is_skew_graph():
    sz = build_sigma_zero(line_curve(eps_min=-2, eps_max=2))
    eps = RNG.uniform(-2, 2, 20)
    s = RNG.uniform(-2, 2, 20)
    p = sz.point(eps, s)
    assert np.allclose(p.x, eps, atol=0)
    assert np.allclose(p.y, s, atol=0)
    assert np.allclose(p.t, -eps * s, atol=1e-15)


def test_sigma_zero_variation_vs_fd():
    # the variation field is d F / d eps; T-coefficient s^2 h - 2 s
    sz = build_sigma_zero(helix_curve(0.9, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
    from h1geo.hgroup import cartesian_to_frame

    for _ in range(6):
        eps = RNG.uniform(-1.5, 1.5)
        s = RNG.uniform(-1.4, 1.4)
        h = 1e-6
        d = (sz.point(eps + h, s).as_array() - sz.point(eps - h, s).as_array()) / (2 * h)
        fd = cartesian_to_frame(sz.point(eps, s), d)
        an = sz.variation_coeffs(eps, s)
        assert np.max(np.abs(fd - an)) < 1e-7


def test_sigma_zero_vt_coefficient():
    # x-axis generator: <V, T> = -2s exactly (h = 0)
    sz = build_sigma_zero(line_curve(eps_min=-2, eps_max=2))
    s = np.linspace(-2, 2, 9)
    vt = sz.variation_coeffs(0.3, s)[..., 2]
    assert np.allclose(vt, -2 * s, atol=0)
    # curved generator picks up the s^2 h term
    szh = build_sigma_zero(helix_curve(1.0, eps_min=-2, eps_max=2))
    vt2 = szh.variation_coeffs(0.0, s)[..., 2]
    assert np.allclose(vt2, s * s * (-2.0) - 2 * s, atol=1e-12)


def test_sigma_zero_rulings_are_lines():
    sz = build_sigma_zero(helix_curve(1.0, eps_min=-2, eps_max=2))
    from h1geo.geodesics import curve_geodesic_residual

    res = curve_geodesic_residual(lambda s: sz.point(0.4, s), 0.0, 0.3)
    assert res < 1e-7


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_sheets_meet_on_strip_boundary():
    for lam in (1.0, -0.8, 2.0):
        lower, upper = cylinder_S(lam)
        half = 1 / (2 * abs(lam))
        x = np.linspace(-1, 1, 7)
        for yb in (half, -half):
            d = lower.point(x, yb).as_array() - upper.point(x, yb).as_array()
            assert np.max(np.abs(d)) < 1e-12


def test_cylinder_matches_sigma_builder():
    lam = 1.0
    lower, upper = cylinder_S(lam)
    for side in (+1, -1):
        sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), lam, side)
        eps = RNG.uniform(-0.5, 0.5, 40)
        sig = RNG.uniform(0.02, 0.98, 40)
        p = sl.point(eps, sig).as_array()
        t_lo = np.asarray(lower.u(p[:, 0], p[:, 1]))
        t_up = np.asarray(upper.u(p[:, 0], p[:, 1]))
        gap = np.minimum(np.abs(t_lo - p[:, 2]), np.abs(t_up - p[:, 2]))
        assert np.max(gap) < 1e-8


def test_cylinder_singular_lines():
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = np.linspace(-1, 1, 5)
    assert np.max(np.abs(np.asarray(lower.u(x, 0.0)))) < 1e-15
    assert np.allclose(np.asarray(upper.u(x, 0.0)), np.pi / (4 * lam**2), atol=1e-15)
    nd = lower.normal_data(x, np.zeros_like(x))
    assert np.all(nd.singular)


# ---------------------------------------------------------------------------
# bernstein graphs


def test_bernstein_singular_curve_projection():
    bg = bernstein_graph(lambda y: np.asarray(y, float) ** 2,
                         lambda y: 2 * np.asarray(y, float),
                         lambda y: 2.0 + 0 * np.asarray(y, float))
    sc = bg.singular_curves()[0]
    y = np.linspace(-1, 1, 9)
    pts = sc.point(y).as_array()
    assert np.allclose(pts[:, 0], -y, atol=0)  # x = -g'(y)/2 = -y
    nd = bg.normal_data(pts[:, 0], y)
    assert np.all(nd.singular)


def test_bernstein_characteristic_lines():
    # t = xy + g(y) contains the line s -> (s, y, s y + g(y)) at each y
    bg = bernstein_graph(lambda y: 3 * np.asarray(y, float) + 7,
                         lambda y: 3.0 + 0 * np.asarray(y, float),
                         lambda y: 0.0 * np.asarray(y, float))
    y0 = 0.8
    s = np.linspace(-2, 2, 9)
    t = np.asarray(bg.u(s, y0))
    assert np.allclose(t, s * y0 + 3 * y0 + 7, atol=1e-14)


def test_bernstein_horizontal_singular_curve():
    bg = bernstein_graph(lambda y: np.asarray(y, float) ** 2,
                         lambda y: 2 * np.asarray(y, float),
                         lambda y: 2.0 + 0 * np.asarray(y, float))
    sc = bg.singular_curves()[0]
    # tangent has no T-component: the singular curve is horizontal
    tang = sc.tangent(np.linspace(-1, 1, 7))
    assert np.max(np.abs(tang[..., 2])) == 0.0


# ---------------------------------------------------------------------------
# helicoids


def test_helicoid_c2_identity():
    fam = helicoid_L(1.0, 1.0, k_max=1)
    assert abs(fam.c2() - (np.sign(1.0) * np.pi / 2 - fam.c1())) < 1e-12
    assert abs(fam.c1() - (np.pi / 4 + 0.5)) < 1e-14


@pytest.mark.parametrize("lam,r", [(1.0, 1.0), (-1.0, 1.0), (0.8, 1.3)])
def test_helicoid_level1_offsets(lam, r):
    fam = helicoid_L(lam, r, k_max=1)
    assert fam.match_residual < 1e-9
    assert fam.offset_defect(1, 1) < 1e-9
    assert fam.offset_defect(2, 1) < 1e-9


def test_helicoid_offsets_match_formula_to_k4():
    fam = helicoid_L(1.0, 1.0, k_max=4)
    assert fam.match_residual < 1e-8
    for branch in (1, 2):
        for k in range(1, 5):
            assert fam.offset_defect(branch, k) < 1e-8


def test_helicoid_curves_pairwise_distinct():
    fam = helicoid_L(1.0, 1.0, k_max=4)
    lifts = fam.canonical_lifts()
    keys = list(lifts)
    pitch = fam.pitch
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            d = abs(lifts[keys[i]] - lifts[keys[j]])
            d = min(d, pitch - d)
            assert d > 1e-6, (keys[i], keys[j])


# ---------------------------------------------------------------------------
# meshing, singular detection, export


def test_mesh_sphere_singular_clusters_at_poles():
    sp = sphere_geodesic(1.0)
    m = mesh(sp, 128, 128)
    flagged = detect_singular(m, tol_singular=0.08)
    assert len(flagged) > 0
    # flagged rows are only near the first/last s rows (the poles)
    js = flagged[:, 1]
    n_s = m.shape[1]
    assert np.all((js < n_s // 8) | (js > 7 * n_s // 8))


def test_mesh_sigma_lambda_singular_rows():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    m = mesh(sl, 24, 33)
    flagged = detect_singular(m)
    assert len(flagged) == 2 * 24
    assert set(flagged[:, 1]) == {0, 32}
    comps = singular_components(m)
    assert len(comps) == 2
    assert all(len(c) == 24 for c in comps)


def test_mesh_vertical_plane_no_singular():
    vp = plane_patch((1.0, 0.0, 0.0), 0.5)
    m = mesh(vp, 16, 16)
    assert len(detect_singular(m)) == 0


def test_mesh_geometric_s_rectified():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    m = mesh(sl, 8, 9)
    assert np.allclose(m.geom_s[:, -1], np.pi / 2, atol=1e-14)
    assert np.allclose(m.geom_s[:, 0], 0.0, atol=0)


def test_export_obj_and_csv(tmp_path):
    sp = sphere_geodesic(1.0)
    m = mesh(sp, 6, 7)
    obj = tmp_path / "s.obj"
    csv = tmp_path / "s.csv"
    export_obj(m, obj)
    export_csv(m, csv)
    lines = obj.read_text().strip().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == 6 * 7
    assert nf == 2 * 5 * 6
    header = csv.read_text().splitlines()[0]
    assert header == "eps,s,x,y,t,nh_norm,h_est"
    assert len(csv.read_text().strip().splitlines()) == 1 + 6 * 7


def oracle_obj(m):
    """The per-vertex OBJ writer that the bulk one replaced."""
    n_e, n_s = m.shape
    lines = []
    for i in range(n_e):
        for j in range(n_s):
            x, y, t = m.points[i, j]
            lines.append(f"v {x:.17g} {y:.17g} {t:.17g}")

    def vid(i, j):
        return i * n_s + j + 1

    for i in range(n_e - 1):
        for j in range(n_s - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def oracle_csv(m):
    """The per-vertex CSV writer that the bulk one replaced."""
    n_e, n_s = m.shape
    rows = ["eps,s,x,y,t,nh_norm,h_est"]
    for i in range(n_e):
        for j in range(n_s):
            x, y, t = m.points[i, j]
            rows.append(
                f"{m.eps[i]:.17g},{m.geom_s[i, j]:.17g},{x:.17g},{y:.17g},{t:.17g},"
                f"{m.nh_norm[i, j]:.17g},{m.h_est[i, j]:.17g}")
    return "\n".join(rows) + "\n"


SPECIAL = np.array([-0.0, 5e-324, 1e300, np.inf, np.nan, -np.inf, 0.1, -2.5e-17,
                    1.0 / 3.0, 2.0**53 + 2.0, -1e-300, 123456789.0])


def special_mesh():
    """A hand-built 3x4 mesh whose every column holds -0, subnormals, huge,
    inf and nan values."""
    n_e, n_s = 3, 4

    def pick(*shape):
        return RNG.choice(SPECIAL, size=shape)

    # the unused picks stand for fields meshes no longer keep, so every kept
    # field draws the values it drew before and later tests see the same RNG
    eps, s, points = pick(n_e), pick(n_s), pick(n_e, n_s, 3)
    pick(n_e, n_s, 3)
    nh_norm = pick(n_e, n_s)
    for _ in range(3):
        pick(n_e, n_s, 3)
    return SurfaceMesh(patch=sphere_geodesic(1.0), eps=eps, s=s, points=points,
                       nh_norm=nh_norm, geom_s=pick(n_e, n_s), h_est=pick(n_e, n_s))


def sphere_mesh_with_h():
    m = mesh(sphere_geodesic(1.0), 9, 8)
    fill_mesh_curvature(m, tol_singular=0.05)    # masks the columns next to the poles
    assert np.isnan(m.h_est).any() and np.isfinite(m.h_est).any()
    return m


@pytest.mark.parametrize("make", [
    lambda: mesh(sphere_geodesic(1.0), 2, 2),
    lambda: mesh(build_sigma_lambda(helix_curve(0.8), 1.2, -1), 3, 5),
    sphere_mesh_with_h,
    special_mesh,
], ids=["2x2", "3x5", "sphere-with-h", "special-values"])
def test_export_bytes_match_per_vertex_oracle(tmp_path, make):
    m = make()
    export_obj(m, tmp_path / "m.obj")
    export_csv(m, tmp_path / "m.csv")
    assert (tmp_path / "m.obj").read_text() == oracle_obj(m)
    assert (tmp_path / "m.csv").read_text() == oracle_csv(m)


def test_export_determinism(tmp_path):
    sp = sphere_geodesic(1.0)
    m = mesh(sp, 5, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(m, p1)
    export_csv(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# wrappers


def test_translated_patch_keeps_frame_data():
    sp = sphere_geodesic(1.0)
    tp = sp.translated(Point(0.4, -0.3, 1.2))
    nd0 = sp.normal_data(0.7, 1.3)
    nd1 = tp.normal_data(0.7, 1.3)
    assert np.allclose(nd1.normal, nd0.normal, atol=0)
    assert nd1.nh_norm == nd0.nh_norm


def test_dilated_patch_partials_match_fd():
    sp = sphere_geodesic(1.0)
    dp = sp.dilated(0.4)
    fe, fs, _ = dp.partials(0.9, 1.2)
    fe2, fs2, _ = fd_partials(dp, 0.9, 1.2)
    assert np.max(np.abs(fe - fe2)) < 1e-7
    assert np.max(np.abs(fs - fs2)) < 1e-7


def test_composed_transforms_keep_metadata_and_partials():
    p0 = Point(0.4, -0.3, 1.2)
    tp = sphere_geodesic(1.0).dilated(0.3).translated(p0).flipped()
    assert tp.label == "sphere(lam=1)+dilated+translated"
    assert tp.closed and tp.open_s_ends == (True, True)
    assert tp.lam == -(np.exp(-0.3) * 1.0)
    assert tp.orientation == 1
    fe, fs, p = tp.partials(0.9, 1.2)
    fe2, fs2, p2 = fd_partials(tp, 0.9, 1.2)
    assert np.max(np.abs(fe - fe2)) < 1e-7
    assert np.max(np.abs(fs - fs2)) < 1e-7
    assert np.array_equal(p.as_array(), p2.as_array())


_FORMS = {"base": lambda p: p, "flipped": lambda p: p.flipped(),
          "translated": lambda p: p.translated(Point(0.4, -0.3, 1.2)),
          "dilated": lambda p: p.dilated(0.3)}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("params", [{}, {"lam": 1.3, "r": 0.7, "d": 0.4}],
                         ids=["defaults", "non-unit"])   # a unit value hides rho^2 vs rho
@pytest.mark.parametrize("name", sorted(catalog()) + ["vertical-plane"])
def test_partials_match_fd_across_catalog(name, params, form):
    if name == "vertical-plane":
        base = plane_patch((1.0, 0.5, 0.0), params.get("d", 0.3))
    else:   # each builder takes only the parameters it declares
        declared = inspect.signature(catalog()[name]).parameters
        base = build_surface(name, **{k: v for k, v in params.items() if k in declared})
    patch = _FORMS[form](base)
    # its own generator, so the module RNG draws of later tests stay as they were
    rng = np.random.default_rng(97)
    eps = patch.eps_lo + (patch.eps_hi - patch.eps_lo) * rng.uniform(0.1, 0.9, 8)
    s = patch.s_lo + (patch.s_hi - patch.s_lo) * rng.uniform(0.1, 0.9, 8)
    fe, fs, p = patch.partials(eps, s)
    fe2, fs2, p2 = fd_partials(patch, eps, s)
    assert np.max(np.abs(fe - fe2)) < 1e-7
    assert np.max(np.abs(fs - fs2)) < 1e-7
    assert np.array_equal(p.as_array(), p2.as_array())


def test_only_flipped_patches_forward_singular_curves():
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    assert len(sl.flipped().singular_curves()) == 2
    assert sl.translated(Point(0.1, 0.2, 0.3)).singular_curves() == []
    assert sl.dilated(0.2).singular_curves() == []
    assert sl.flipped().lam == -1.0 and sl.dilated(0.2).lam == np.exp(-0.2)


def test_frame_is_the_single_evaluation_path():
    # normal_data carries the partials it was built from, and frame's raw
    # normal is the oriented cross product of those partials, bit for bit
    patches = [sphere_geodesic(1.0),
               build_sigma_lambda(helix_curve(1.0, eps_min=-1, eps_max=1), 1.0, -1),
               helicoid_L(1.0, 1.0, k_max=2).pieces[1],
               sphere_geodesic(0.7).dilated(0.2).translated(Point(0.1, 0.2, 0.3))]
    for patch in patches:
        eps = RNG.uniform(patch.eps_lo, patch.eps_hi, (4, 5))
        s = RNG.uniform(patch.s_lo + 0.1 * (patch.s_hi - patch.s_lo),
                        patch.s_hi - 0.1 * (patch.s_hi - patch.s_lo), (4, 5))
        fe, fs, p = patch.partials(eps, s)
        nd = patch.normal_data(eps, s)
        assert np.array_equal(nd.fe, fe) and np.array_equal(nd.fs, fs), patch.label
        q, fe2, fs2, raw = patch.frame(eps, s)
        assert np.array_equal(fe2, fe) and np.array_equal(fs2, fs), patch.label
        assert np.array_equal(q.as_array(), p.as_array()), patch.label
        assert np.array_equal(raw, patch.orientation * np.cross(fe, fs)), patch.label


def test_vertical_cylinder_regular_everywhere():
    vc = VerticalCylinder(1.5)
    m = mesh(vc, 16, 8)
    assert len(detect_singular(m)) == 0
    nd = vc.normal_data(0.3, 0.1)
    assert abs(nd.nh_norm - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# catalog


def test_catalog_roundtrip():
    reg = catalog()
    assert set(reg) == {"sphere", "cylinder-s", "helicoid-l", "bernstein",
                        "plane", "vertical-cylinder", "sigma-lambda", "sigma-zero"}
    sp = build_surface("sphere", lam=1.0)
    assert isinstance(sp, SpherePatch)
    bg = build_surface("bernstein", g_coeffs=(7.0, 3.0))
    assert isinstance(bg, BernsteinGraph)


def test_catalog_unknown_surface():
    with pytest.raises(UnknownSurface):
        build_surface("nosuch")


def test_plane_has_one_isolated_singular_vertex():
    pl = plane_patch(rect=(-2.0, 2.0, -2.0, 2.0))
    m = mesh(pl, 33, 33)  # odd grid puts a vertex exactly at the origin
    comps = singular_components(m, tol_singular=0.05)
    assert len(comps) == 1
    assert len(comps[0]) == 1
