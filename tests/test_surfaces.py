import contextlib
import dataclasses
import inspect
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h1geo.curvature import mesh_curvature, orthogonality_defect
from h1geo.errors import DegeneratePoint, NonFinite, UnknownSurface
from h1geo.geodesics import (
    FieldAlongGeodesic,
    conserved_quantity,
    geodesic_velocity,
    jacobi_residual,
)
from h1geo.hcurves import (
    PlanarCurve,
    helix_curve,
    horizontal_lift,
    line_curve,
    load_curve_csv,
)
from h1geo.hgroup import Point, cartesian_to_frame, cross_c, j_c, dot_c
from h1geo.surfaces import (
    BernsteinGraph,
    Chart,
    ImmersedPatch,
    NormalData,
    SigmaLambdaPatch,
    SigmaZeroPatch,
    SpherePatch,
    TOL_SINGULAR,
    build_surface,
    catalog,
    cylinder_S,
    helicoid_L,
    parse_g,
    plane_patch,
    singular_components,
    sphere_graph,
    VerticalCylinder,
    VerticalVariation,
    _BLOCK_VERTICES,
    _curve_data,
    _float_text,
    _grid,
    _int_text,
    _replacing,
    _write_faces,
    _write_vertices,
    atomic_write,
    write_mesh,
)
from h1geo.cli import _MAX_RES
from h1geo.verify import G_AFFINE, G_SQUARE

from oracles import curve_geodesic_residual, fd_partials

RNG = np.random.default_rng(4242)


# ---------------------------------------------------------------------------
# normal data


def test_normal_data_vertical_plane():
    vp = plane_patch((0.0, 1.0, 0.0), 0.0)
    nd = vp.normal_data(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    assert np.allclose(nd.nh_norm, 1.0, atol=1e-15)
    assert not np.any(nd.nh_norm < TOL_SINGULAR)
    # N is the +-Y direction
    assert np.allclose(np.abs(nd.normal[..., 1]), 1.0, atol=1e-15)


def test_normal_data_horizontal_plane_singular_at_origin():
    pl = plane_patch((0.0, 0.0, 1.0), 0.0)
    nd = pl.normal_data(0.0, 0.0)
    assert nd.nh_norm < TOL_SINGULAR
    assert nd.nh_norm < 1e-15
    assert np.all(np.isnan(-j_c(nd.z)[:2]))
    nd2 = pl.normal_data(1.0, 0.5)
    assert not nd2.nh_norm < TOL_SINGULAR


def test_normal_decomposition_identity_on_sphere():
    sp = SpherePatch(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 50)
    s = RNG.uniform(0.2, np.pi - 0.2, 50)
    nd = sp.normal_data(eps, s)
    assert np.max(np.abs(np.linalg.norm(nd.normal, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(nd.nh_norm**2 + nd.normal[..., 2] ** 2 - 1.0)) < 1e-12
    assert np.allclose(-j_c(nd.z)[..., :2], nd.normal[..., :2] / nd.nh_norm[..., None], atol=0)


def test_normal_data_holds_six_fields_and_withholds_z_exactly_on_the_singular_set():
    assert [f.name for f in dataclasses.fields(NormalData)] == [
        "base", "normal", "nh_norm", "z", "fe", "fs"]
    pl = plane_patch((0.0, 0.0, 1.0), 0.0)   # singular at the origin only
    near = np.array([-1.0, -2e-6, -3e-7, 0.0, 4e-7, 1e-6, 0.5])
    nd = pl.normal_data(near[:, None], near[None, :])
    singular = nd.nh_norm < TOL_SINGULAR
    assert 1 < singular.sum() < singular.size
    with np.errstate(invalid="ignore", divide="ignore"):
        want = j_c(nd.normal / nd.nh_norm[..., None])
    assert nd.z[~singular].tobytes() == want[~singular].tobytes()
    assert np.array_equal(np.isnan(nd.z[..., 0]), singular)
    assert np.array_equal(np.isnan(nd.z[..., 1]), singular)
    assert np.all(nd.z[..., 2] == 0.0)


def test_degenerate_point_raises():
    sp = SpherePatch(1.0)
    with pytest.raises(DegeneratePoint):
        sp.normal_data(0.3, 0.0)  # pole: F_theta vanishes


def test_orientation_flip():
    sp = SpherePatch(1.0)
    nd = sp.normal_data(0.7, 1.1)
    ndf = sp.flipped().normal_data(0.7, 1.1)
    assert np.allclose(ndf.normal, -nd.normal, atol=0)
    assert np.allclose(-j_c(ndf.z), j_c(nd.z), atol=0)
    assert np.allclose(ndf.z, -nd.z, atol=0)
    assert ndf.nh_norm == nd.nh_norm


# ---------------------------------------------------------------------------
# spheres


def test_sphere_analytic_partials_match_fd():
    sp = SpherePatch(1.3)
    for _ in range(10):
        eps = RNG.uniform(0, 2 * np.pi)
        s = RNG.uniform(0.2, np.pi / 1.3 - 0.2)
        fe, fs, _ = sp.partials(eps, s)
        fe2, fs2, _ = fd_partials(sp, eps, s)
        assert np.max(np.abs(fe - fe2)) < 1e-8
        assert np.max(np.abs(fs - fs2)) < 1e-8


def test_sphere_pole_concurrence_through_patch():
    sp = SpherePatch(0.7)
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
    sp = SpherePatch(lam)
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
        SigmaLambdaPatch(line_curve(), 0.0)


def test_sigma_lambda_x_axis_far_curve_is_translated_axis():
    for lam in (1.0, -1.0, 2.0):
        sl = SigmaLambdaPatch(line_curve(eps_min=-2, eps_max=2), lam, +1)
        assert np.allclose(sl.s_cut(0.0), np.pi / (2 * abs(lam)), atol=1e-15)
        eps = np.linspace(-1, 1, 7)
        far = sl.point(eps, 1.0).as_array()
        assert np.max(np.abs(far[:, 1])) < 1e-14
        assert np.allclose(far[:, 2], np.sign(lam) * np.pi / (4 * lam**2), atol=1e-14)


def test_sigma_lambda_partials_match_fd():
    for side in (+1, -1):
        sl = SigmaLambdaPatch(helix_curve(0.8, eps_min=-2, eps_max=2), 1.4, side)
        for _ in range(5):
            eps = RNG.uniform(-1.5, 1.5)
            sig = RNG.uniform(0.05, 0.95)
            fe, fs, _ = sl.partials(eps, sig)
            fe2, fs2, _ = fd_partials(sl, eps, sig)
            assert np.max(np.abs(fe - fe2)) < 1e-7
            assert np.max(np.abs(fs - fs2)) < 1e-7


def counting_curve(base):
    """`base` with the number of points of each `jet` read recorded."""
    calls = []

    def jet(e):
        calls.append(np.size(e))
        return base.jet(e)

    return dataclasses.replace(base, jet=jet), calls


@pytest.mark.parametrize("build", [
    lambda c: SigmaLambdaPatch(c, 1.2, -1),
    lambda c: SigmaZeroPatch(c),
], ids=["sigma-lambda", "sigma-zero"])
def test_partials_fetch_the_curve_once_on_the_eps_axis(build):
    curve, calls = counting_curve(helix_curve(0.8, eps_min=-2, eps_max=2))
    patch = build(curve)
    m, n = 7, 5
    eps = np.linspace(-1.5, 1.5, m)[:, None]
    s = np.linspace(0.1, 0.9, n)[None, :]
    fe, fs, p = patch.partials(eps, s)
    assert fe.shape == fs.shape == (m, n, 3)
    assert calls == [m]   # one read, on the eps axis
    # the same values as on the broadcast grid
    fe2, fs2, p2 = patch.partials(*np.broadcast_arrays(eps, s))
    assert np.array_equal(fe, fe2) and np.array_equal(fs, fs2)
    assert np.array_equal(p.as_array(), p2.as_array())


def clothoid_planar():
    """Arclength planar curve with x' = cos(e^2/2), y' = sin(e^2/2): planar
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

    def d3(e):
        e = np.asarray(e, float)
        c, s = np.cos(e * e / 2), np.sin(e * e / 2)
        return -s - e * e * c, c - e * e * s

    return PlanarCurve(xy, d1, d2, d3, -1.0, 1.0)


def clothoid_curve():
    return horizontal_lift(clothoid_planar(), label="clothoid")


def test_clothoid_curvature_and_rate_are_exact():
    clothoid = clothoid_curve()
    eps = np.linspace(-1.0, 1.0, 41)
    h, hdot = _curve_data(clothoid, eps)[3:5]
    assert np.max(np.abs(h - eps)) < 1e-14
    assert np.max(np.abs(hdot - 1.0)) < 1e-14


@pytest.mark.parametrize("side", [1, -1])
def test_sigma_lambda_partials_evaluate_curvature_once_on_eps(side):
    base = clothoid_curve()
    curve, calls = counting_curve(base)
    sl = SigmaLambdaPatch(curve, 1.3, side)
    eps = np.linspace(-0.8, 0.8, 7)[:, None]
    s = np.linspace(0.1, 0.9, 5)[None, :]
    fe, fs, p = sl.partials(eps, s)
    # one read of the curve on eps: s_cut and its rate take h and h' from
    # the curve data that the point and the variation field read
    assert calls == [7]
    # the same bits as the expressions that fetched h for s_cut and its rate
    ref = SigmaLambdaPatch(base, 1.3, side)
    scut = ref.s_cut(eps)
    p2, gdot, v, _ = ref._along(_curve_data(base, eps), s * scut)
    fe2 = v + (s * ref._cut(_curve_data(base, eps))[1])[..., None] * gdot
    assert fe.tobytes() == fe2.tobytes()
    assert fs.tobytes() == (scut[..., None] * gdot).tobytes()
    assert p.as_array().tobytes() == p2.as_array().tobytes()


def test_sigma_lambda_reads_a_lifted_curve_once_per_call():
    # each call finds the curve parameter of its eps once: the Newton
    # iterations of one `jet` read (each reads the planar speed) and one
    # read of the second derivative there
    calls = []

    class CountingPlanar(PlanarCurve):
        def speed(self, eps):
            calls.append("speed")
            return super().speed(eps)

    base = clothoid_planar()
    planar = CountingPlanar(base.xy, base.d1, lambda e: calls.append("d2") or base.d2(e),
                            base.d3, base.eps_min, base.eps_max)
    sl = SigmaLambdaPatch(horizontal_lift(planar), 1.3, +1)
    eps = np.linspace(-0.8, 0.8, 7)
    calls.clear()
    sl.curve.jet(eps)
    one = list(calls)
    assert one.count("d2") == 1 and one.count("speed") >= 1
    for read in (sl.s_cut, lambda e: sl.second_partials(e, 0.5),
                 lambda e: sl.geometric_s(e, 0.5), sl.generating_geodesic):
        calls.clear()
        read(eps)
        assert calls == one


@pytest.mark.parametrize("side", [1, -1])
def test_far_curve_tangent_matches_fd_of_far_curve(side):
    sl = SigmaLambdaPatch(clothoid_curve(), 1.0, side)
    eps = np.linspace(-0.8, 0.8, 7)
    assert np.min(np.abs(sl._cut(_curve_data(sl.curve, eps))[1])) > 0.4   # the s_cut' term counts
    d = 1e-5
    de = (sl.point(eps + d, 1.0).as_array() - sl.point(eps - d, 1.0).as_array()) / (2 * d)
    fd = cartesian_to_frame(sl.point(eps, 1.0), de)
    # the far curve runs along eps at sigma = 1, so its tangent is F_eps there
    assert sl.singular_curves()[1].rate(eps) == (1.0, 0.0)
    assert np.max(np.abs(sl.partials(eps, 1.0)[0] - fd)) < 1e-7


def test_sigma_lambda_variation_field_endpoints():
    sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    for eps in (-0.7, 0.0, 0.4):
        v0 = sl.variation_coeffs(eps, 0.0)
        assert np.allclose(v0, [*sl.curve.jet(eps)[1], 0.0], atol=1e-14)
        scut = sl.s_cut(eps)
        vc = sl.variation_coeffs(eps, scut)
        expect = j_c(geodesic_velocity(sl.generating_geodesic(eps), scut))
        assert np.max(np.abs(vc - expect)) < 1e-9


def test_sigma_lambda_tilde_variation_endpoint():
    # on the -J side the cut value is -J(gamma')
    sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, -1)
    eps = 0.3
    scut = sl.s_cut(eps)
    vc = sl.variation_coeffs(eps, scut)
    expect = -j_c(geodesic_velocity(sl.generating_geodesic(eps), scut))
    assert np.max(np.abs(vc - expect)) < 1e-9


def test_sigma_lambda_variation_is_jacobi_field():
    sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    for eps in (-0.5, 0.2):
        # no analytic derivative: the residual differences the coefficients
        field = FieldAlongGeodesic(sl.generating_geodesic(eps),
                                   lambda u: sl.variation_coeffs(eps, u))
        s = np.linspace(0.05, np.pi - 0.05, 20)
        assert np.max(jacobi_residual(field.geodesic, field, s)) < 1e-6
        # conserved quantity vanishes for the orthogonal family
        assert np.max(np.abs(conserved_quantity(field.geodesic, field, s))) < 1e-12


def test_sigma_lambda_vt_sign_structure():
    sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    eps = 0.1
    scut = float(sl.s_cut(eps))
    s = np.linspace(1e-3, np.pi - 1e-3, 300)
    vt = sl.variation_coeffs(eps, s)[..., 2]
    assert np.all(vt[s < scut - 1e-3] < 0)
    assert np.all(vt[s > scut + 1e-3] > 0)


def test_sigma_lambda_vjg_identity():
    # <V, J(gamma')> = sigma(s) h - side cos(2 lam s); equals side at the cut
    for side in (+1, -1):
        sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, side)
        eps = 0.25
        s = np.linspace(0.0, np.pi, 50)
        v = sl.variation_coeffs(eps, s)
        jg = j_c(geodesic_velocity(sl.generating_geodesic(eps), s))
        got = dot_c(v, jg)
        h = float(_curve_data(sl.curve, eps)[3])
        expect = np.sin(2 * s) / 2 * h - side * np.cos(2 * s)
        assert np.max(np.abs(got - expect)) < 1e-12
        scut = float(sl.s_cut(eps))
        vcut = dot_c(sl.variation_coeffs(eps, scut),
                     j_c(geodesic_velocity(sl.generating_geodesic(eps), scut)))
        assert abs(vcut - side) < 1e-12


@pytest.mark.parametrize("curve", [line_curve(eps_min=-2, eps_max=2),
                                   helix_curve(0.7, eps_min=-2, eps_max=2)],
                         ids=["line", "helix"])
def test_generating_geodesic_of_an_eps_array_matches_each_eps_bitwise(curve):
    sl = SigmaLambdaPatch(curve, 1.2, +1)
    eps = np.linspace(-1.5, 1.5, 7)[:, None]
    g = sl.generating_geodesic(eps)
    assert np.shape(g.theta) == eps.shape and g.lam == sl.lam
    for i, e in enumerate(eps[:, 0]):
        gi = sl.generating_geodesic(float(e))
        assert g.theta[i, 0] == gi.theta
        assert np.array_equal(g.base.as_array()[i, 0], gi.base.as_array())


def test_sigma_lambda_generating_geodesics_residual():
    sl = SigmaLambdaPatch(helix_curve(0.7, eps_min=-2, eps_max=2), 1.2, +1)
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
    sz = SigmaZeroPatch(line_curve(eps_min=-2, eps_max=2))
    eps = RNG.uniform(-2, 2, 20)
    s = RNG.uniform(-2, 2, 20)
    p = sz.point(eps, s)
    assert np.allclose(p.x, eps, atol=0)
    assert np.allclose(p.y, s, atol=0)
    assert np.allclose(p.t, -eps * s, atol=1e-15)


def test_sigma_zero_variation_vs_fd():
    # the variation field is d F / d eps; T-coefficient s^2 h - 2 s
    sz = SigmaZeroPatch(helix_curve(0.9, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
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
    sz = SigmaZeroPatch(line_curve(eps_min=-2, eps_max=2))
    s = np.linspace(-2, 2, 9)
    vt = sz.variation_coeffs(0.3, s)[..., 2]
    assert np.allclose(vt, -2 * s, atol=0)
    # curved generator picks up the s^2 h term
    szh = SigmaZeroPatch(helix_curve(1.0, eps_min=-2, eps_max=2))
    vt2 = szh.variation_coeffs(0.0, s)[..., 2]
    assert np.allclose(vt2, s * s * (-2.0) - 2 * s, atol=1e-12)


def test_sigma_zero_rulings_are_lines():
    sz = SigmaZeroPatch(helix_curve(1.0, eps_min=-2, eps_max=2))
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
        sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), lam, side)
        eps = RNG.uniform(-0.5, 0.5, 40)
        sig = RNG.uniform(0.02, 0.98, 40)
        p = sl.point(eps, sig).as_array()
        t_lo = np.asarray(lower.height(p[:, 0], p[:, 1])[0])
        t_up = np.asarray(upper.height(p[:, 0], p[:, 1])[0])
        gap = np.minimum(np.abs(t_lo - p[:, 2]), np.abs(t_up - p[:, 2]))
        assert np.max(gap) < 1e-8


def test_cylinder_singular_lines():
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = np.linspace(-1, 1, 5)
    assert np.max(np.abs(np.asarray(lower.height(x, 0.0)[0]))) < 1e-15
    assert np.allclose(np.asarray(upper.height(x, 0.0)[0]), np.pi / (4 * lam**2), atol=1e-15)
    nd = lower.normal_data(x, np.zeros_like(x))
    assert np.all(nd.nh_norm < TOL_SINGULAR)


# ---------------------------------------------------------------------------
# bernstein graphs


def _taylor_parts(f, y):
    """(g, g', g'') of f at the float y by mpmath's Taylor coefficients."""
    c = mpmath.taylor(f, mpmath.mpf(float(y)), 2)
    return c[0], c[1], 2 * c[2]


@pytest.mark.parametrize("text, f, floor, rtol", [
    ("(y+1)^100", lambda t: (t + 1) ** 100, 0.0, 1e-15),
    ("(y-0.3)^7*(y+2)^5", lambda t: (t - mpmath.mpf(0.3)) ** 7 * (t + 2) ** 5, 1e-6, 1e-14),
], ids=["(y+1)^100", "(y-0.3)^7(y+2)^5"])
def test_parse_g_jets_match_mpmath_taylor(text, f, floor, rtol):
    # the jets are exact where the power basis cancels: (y+1)^100 expanded
    # evaluates to -8.8e10 at y = -0.9, whose true value is 1e-100.  The
    # second case is checked where each part is at least `floor` of its maximum
    y = np.linspace(-3.0, 3.0, 601)
    with mpmath.workdps(60):
        exact = [_taylor_parts(f, yi) for yi in y]
        for k, part in enumerate(parse_g(text)(y)):
            ref = [e[k] for e in exact]
            scale = floor * max(abs(e) for e in ref)
            worst = max(abs(mpmath.mpf(float(a)) - e) / abs(e) if e else abs(a)
                        for a, e in zip(part, ref) if abs(e) >= scale)
            assert worst <= rtol, (text, k, float(worst))


def test_parse_g_parts_take_the_shape_of_y():
    jet = parse_g("3*y + 7")
    g, dg, ddg = jet(np.zeros((2, 3)))
    assert g.shape == dg.shape == ddg.shape == (2, 3)
    assert np.all(dg == 3.0) and np.all(ddg == 0.0)
    assert float(jet(2.0)[0]) == 13.0


def test_bernstein_runs_the_jet_program_once_per_call(monkeypatch):
    import h1geo.surfaces as srf

    runs, jet = [], srf._jet
    monkeypatch.setattr(srf, "_jet", lambda program, y: runs.append(np.size(y)) or jet(program, y))
    graph = BernsteinGraph(parse_g("(y-0.3)^7*(y+2)^5"))
    x, y = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-2, 2, 4))
    for call in (graph.partials, graph.height, graph.hessian, graph.normal_data):
        runs.clear()
        call(x, y)
        assert runs == [20], call.__name__
    # the same numbers as the jet read on its own
    g, dg, ddg = parse_g("(y-0.3)^7*(y+2)^5")(y)
    u, _, uy = graph.height(x, y)
    assert np.array_equal(u, x * y + g) and np.array_equal(uy, x + dg)
    assert np.array_equal(graph.hessian(x, y)[2], ddg)


def test_bernstein_sweep_runs_the_g_program_once_per_chart_block(monkeypatch):
    # y^2 splits every row at x = -y: one run for the root search, one for
    # the test of the piece, and per chart block one for the chart map
    # (c and c' together) and one for the height
    import h1geo.measures as msr
    import h1geo.surfaces as srf

    runs, jet = [], srf._jet
    monkeypatch.setattr(srf, "_jet", lambda program, y: runs.append(np.size(y)) or jet(program, y))
    graph = BernsteinGraph(parse_g(G_SQUARE))
    assert len(graph.quadrature_charts()) == 2
    runs.clear()
    msr._sweep(graph, 8, ("area",))
    assert len(runs) == 6


def _bernstein_y2():
    return BernsteinGraph(parse_g(G_SQUARE))


def test_bernstein_singular_curve_projection():
    bg = _bernstein_y2()
    sc = bg.singular_curves()[0]
    y = np.linspace(-1, 1, 9)
    pts = bg.point(*sc.at(y)).as_array()
    assert np.allclose(pts[:, 0], -y, atol=0)  # x = -g'(y)/2 = -y
    assert np.all(pts[:, 2] == 0.0)  # t = xy + g(y) = -y^2 + y^2
    nd = bg.normal_data(pts[:, 0], y)
    assert np.all(nd.nh_norm < TOL_SINGULAR)


def test_bernstein_characteristic_lines():
    # t = xy + g(y) contains the line s -> (s, y, s y + g(y)) at each y
    bg = BernsteinGraph(parse_g(G_AFFINE))
    y0 = 0.8
    s = np.linspace(-2, 2, 9)
    t = np.asarray(bg.height(s, y0)[0])
    assert np.allclose(t, s * y0 + 3 * y0 + 7, atol=1e-14)


def test_bernstein_horizontal_singular_curve():
    bg = _bernstein_y2()
    sc = bg.singular_curves()[0]
    y = np.linspace(-1, 1, 7)
    fe, fs, p = bg.partials(*sc.at(y))
    de, ds = (np.asarray(r, float)[..., None] for r in sc.rate(y))
    tang = de * fe + ds * fs
    # tangent has no T-component: the singular curve is horizontal
    assert np.max(np.abs(tang[..., 2])) == 0.0
    # and it is the derivative of the curve's points
    d = 1e-6
    fd = (bg.point(*sc.at(y + d)).as_array()
          - bg.point(*sc.at(y - d)).as_array()) / (2 * d)
    assert np.max(np.abs(tang - cartesian_to_frame(p, fd))) < 1e-8


# ---------------------------------------------------------------------------
# helicoids


def test_helicoid_c2_identity():
    fam = helicoid_L(1.0, 1.0, k_max=1)
    assert abs(fam.c2k(1) - (np.sign(1.0) * np.pi / 2 - fam.c1())) < 1e-12
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
    # the mesh insets the poles, so its own mask is clear; |N_H| < 0.08 is
    # the wider mask of the vertices next to them
    sp = SpherePatch(1.0)
    assert not write_mesh(sp, 128, 128).any()
    eps, s = _grid(sp, 128, 128)
    singular = sp.normal_data(eps[:, None], s[None, :]).nh_norm < 0.08
    assert len(singular_components(singular)) == 2
    flagged = np.argwhere(singular)
    assert len(flagged) > 0
    # flagged rows are only near the first/last s rows (the poles)
    js = flagged[:, 1]
    n_s = singular.shape[1]
    assert np.all((js < n_s // 8) | (js > 7 * n_s // 8))


def test_mesh_sigma_lambda_singular_rows():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    singular = write_mesh(sl, 24, 33)
    flagged = np.argwhere(singular)
    assert len(flagged) == 2 * 24
    assert set(flagged[:, 1]) == {0, 32}
    comps = singular_components(singular)
    assert len(comps) == 2
    assert all(len(c) == 24 for c in comps)


def test_mesh_vertical_plane_no_singular():
    vp = plane_patch((1.0, 0.0, 0.0), 0.5)
    assert not np.any(write_mesh(vp, 16, 16))


def read_csv(path, n_e, n_s):
    """The (n_e, n_s, 7) values of a mesh CSV, each parsed by `float`."""
    head, body = path.read_text().split("\n", 1)
    assert head == "eps,s,x,y,t,nh_norm,h_est"
    return np.array([float(v) for v in body.replace(",", "\n").split()]).reshape(n_e, n_s, 7)


def test_mesh_geometric_s_rectified(tmp_path):
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    write_mesh(sl, 8, 9, csv=tmp_path / "m.csv")
    geom_s = read_csv(tmp_path / "m.csv", 8, 9)[..., 1]
    assert np.allclose(geom_s[:, -1], np.pi / 2, atol=1e-14)
    assert np.allclose(geom_s[:, 0], 0.0, atol=0)


def _whole_grid(patch, eps, s):
    """Points, |N_H| and geometric s of the grid from one `frame` call."""
    p, _, _, raw = patch.frame(eps[:, None], s[None, :])
    n = raw / np.linalg.norm(raw, axis=-1)[..., None]
    nh = np.hypot(n[..., 0], n[..., 1])
    return p.as_array(), nh, np.broadcast_to(patch.geometric_s(eps[:, None], s[None, :]), nh.shape)


def _csv_curve_sigma_lambda(tmp_path):
    eps = np.linspace(0.0, 1.0, 60)
    path = tmp_path / "curve.csv"
    path.write_text("eps,x,y\n" + "".join(
        f"{e:.17g},{e + 0.1 * e * e:.17g},{0.2 * np.sin(3.0 * e):.17g}\n" for e in eps))
    return SigmaLambdaPatch(load_curve_csv(path), 1.0, +1)


@pytest.mark.parametrize("make, n_eps, n_s", [
    (lambda tmp_path: SpherePatch(1.0), 37, 301),
    (lambda tmp_path: build_surface("helicoid-l"), 256, 256),
    (_csv_curve_sigma_lambda, 100, 150),
], ids=["sphere-37x301", "helicoid-l-256x256", "sigma-lambda-csv-100x150"])
def test_blocked_mesh_matches_one_whole_grid_evaluation(tmp_path, make, n_eps, n_s):
    patch = make(tmp_path)
    assert n_eps > _BLOCK_VERTICES // n_s      # a block edge falls inside the grid
    singular = write_mesh(patch, n_eps, n_s, csv=tmp_path / "m.csv")
    eps, s = _grid(patch, n_eps, n_s)
    assert (s[0] > patch.s_lo, s[-1] < patch.s_hi) == patch.open_s_ends
    points, nh, geom_s = _whole_grid(patch, eps, s)
    got = read_csv(tmp_path / "m.csv", n_eps, n_s)
    columns = (np.broadcast_to(eps[:, None], nh.shape), geom_s, *np.moveaxis(points, -1, 0), nh)
    for k, want in enumerate(columns):
        assert got[..., k].tobytes() == np.ascontiguousarray(want).tobytes()
    assert np.isnan(got[..., 6]).all()
    assert np.array_equal(singular, nh < TOL_SINGULAR)


def test_mesh_reads_each_block_from_one_normal_data_call(tmp_path):
    shapes = []

    class CountingSphere(SpherePatch):
        def normal_data(self, eps, s):
            shapes.append(np.broadcast(eps, s).shape)
            return super().normal_data(eps, s)

    sp = CountingSphere(1.0)
    step = _BLOCK_VERTICES // 301
    write_mesh(sp, 37, 301, csv=tmp_path / "m.csv")
    assert shapes == [(min(step, 37 - i), 301) for i in range(0, 37, step)]
    eps, s = _grid(sp, 37, 301)
    nh = SpherePatch(1.0).normal_data(eps[:, None], s[None, :]).nh_norm
    assert read_csv(tmp_path / "m.csv", 37, 301)[..., 5].tobytes() == nh.tobytes()


class _RowNaN(ImmersedPatch):
    """The unit sphere with t = NaN on the eps rows `nan_rows`, and dependent
    partials (a zero F_eps) on the rows `degenerate_rows`, of a 37-row grid."""

    def __init__(self, nan_rows=(), degenerate_rows=()):
        self.base = SpherePatch(1.0)
        super().__init__(self.base.eps_lo, self.base.eps_hi, self.base.s_lo, self.base.s_hi)
        self.open_s_ends = self.base.open_s_ends
        eps = _grid(self, 37, 2)[0]
        self.nan_eps, self.degenerate_eps = eps[list(nan_rows)], eps[list(degenerate_rows)]

    def partials(self, eps, s):
        fe, fs, p = self.base.partials(eps, s)
        fe = np.where(np.isin(eps, self.degenerate_eps)[..., None], 0.0, fe)
        return fe, fs, Point(p.x, p.y, np.where(np.isin(eps, self.nan_eps), np.nan, p.t))

    def second_partials(self, eps, s):
        return self.base.second_partials(eps, s)


def test_mesh_raises_when_only_the_last_block_is_not_finite():
    assert 37 - 1 >= _BLOCK_VERTICES // 301    # the last row is not in the first block
    with pytest.raises(NonFinite):
        write_mesh(_RowNaN(nan_rows=[36]), 37, 301)


@pytest.mark.parametrize("paths", [("m.obj", "m.csv"), ("m.obj", None), (None, "m.csv")],
                         ids=["obj-csv", "obj", "csv"])
def test_mesh_not_finite_in_a_middle_block_keeps_the_old_files(tmp_path, paths):
    step = _BLOCK_VERTICES // 301
    assert 2 * step < 37                       # row step + 1 is in a middle block
    old = {}
    for name in filter(None, paths):
        (tmp_path / name).write_text(f"old {name}\n")
        (tmp_path / name).chmod(0o640)
        old[name] = (tmp_path / name).read_bytes()
    obj, csv = (tmp_path / name if name else None for name in paths)
    with pytest.raises(NonFinite):
        write_mesh(_RowNaN(nan_rows=[step + 1]), 37, 301, obj, csv, h_est=mesh_curvature)
    assert sorted(os.listdir(tmp_path)) == sorted(old)
    for name, data in old.items():
        assert (tmp_path / name).read_bytes() == data
        assert (tmp_path / name).stat().st_mode & 0o7777 == 0o640


def test_mesh_degenerate_point_after_a_non_finite_block_raises_degenerate(tmp_path):
    assert 36 >= _BLOCK_VERTICES // 301        # row 36 is not in row 1's block
    with pytest.raises(DegeneratePoint):
        write_mesh(_RowNaN(nan_rows=[1], degenerate_rows=[36]), 37, 301,
                   tmp_path / "m.obj", tmp_path / "m.csv")
    assert os.listdir(tmp_path) == []


def _traced_peak(patch, n_eps, n_s, out):
    """Traced peak of a whole OBJ+CSV `write_mesh` with the H fill."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_mesh(patch, n_eps, n_s, out / "m.obj", out / "m.csv", h_est=mesh_curvature)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_mesh_memory_does_not_grow_with_eps_rows(tmp_path):
    # only the 1-byte singular mask grows with the rows: 48 KB here
    patch = build_surface("helicoid-l")
    small = _traced_peak(patch, 128, 128, tmp_path)
    large = _traced_peak(patch, 512, 128, tmp_path)
    assert large - small < 64 * 1024


def test_export_obj_and_csv(tmp_path):
    sp = SpherePatch(1.0)
    obj = tmp_path / "s.obj"
    csv = tmp_path / "s.csv"
    write_mesh(sp, 6, 7, obj, csv)
    lines = obj.read_text().strip().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == 6 * 7
    assert nf == 2 * 5 * 6
    header = csv.read_text().splitlines()[0]
    assert header == "eps,s,x,y,t,nh_norm,h_est"
    assert len(csv.read_text().strip().splitlines()) == 1 + 6 * 7


@dataclasses.dataclass
class Fields:
    """The per-vertex fields of an (n_e, n_s) grid, as the exports print them."""

    eps: np.ndarray          # (n_e,)
    points: np.ndarray       # (n_e, n_s, 3)
    nh_norm: np.ndarray      # (n_e, n_s)
    geom_s: np.ndarray
    h_est: np.ndarray

    @property
    def shape(self):
        return self.nh_norm.shape


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


def write_fields(m, obj, csv):
    """Write hand-built fields to the paths obj and csv (either None) through
    the mesh writer's line functions, in blocks of rows as `write_mesh`
    takes them."""
    n_e, n_s = m.shape
    step = max(1, _BLOCK_VERTICES // n_s)
    with contextlib.ExitStack() as files:
        obj_fh, csv_fh = (files.enter_context(open(p, "wb")) if p else None for p in (obj, csv))
        if csv_fh:
            csv_fh.write(b"eps,s,x,y,t,nh_norm,h_est\n")
        for i in range(0, n_e, step):
            rows = slice(i, i + step)
            _write_vertices(obj_fh, csv_fh, m.eps[rows], *np.moveaxis(m.points[rows], -1, 0),
                            geom_s=m.geom_s[rows], nh_norm=m.nh_norm[rows], h_est=m.h_est[rows])
        if obj_fh:
            _write_faces(obj_fh, n_e, n_s)


@dataclasses.dataclass
class Grid:
    """A `write_mesh` call, and its fields from one whole-grid evaluation."""

    patch: ImmersedPatch
    n_eps: int
    n_s: int
    with_h: bool = False

    def fields(self):
        eps, s = _grid(self.patch, self.n_eps, self.n_s)
        points, nh, geom_s = _whole_grid(self.patch, eps, s)
        h = mesh_curvature(self.patch, eps, s) if self.with_h else np.full(nh.shape, np.nan)
        return Fields(eps, points, nh, geom_s, h)

    def write(self, obj, csv):
        write_mesh(self.patch, self.n_eps, self.n_s, obj, csv,
                   h_est=mesh_curvature if self.with_h else None)


def assert_matches_oracle(case, out, files=("m.obj", "m.csv")):
    """Write `case`, a Grid or hand-built Fields, to the files named in
    `files` (either None) under `out` and compare them with the oracles."""
    obj, csv = (out / name if name else None for name in files)
    if isinstance(case, Grid):
        case.write(obj, csv)
        m = case.fields()
    else:
        write_fields(case, obj, csv)
        m = case
    if obj:
        assert obj.read_text() == oracle_obj(m)
    if csv:
        assert csv.read_text() == oracle_csv(m)


def sphere_mesh_with_h():
    grid = Grid(SpherePatch(1.0), 9, 8, with_h=True)
    assert np.all(np.isfinite(grid.fields().h_est))    # the poles are inset
    return grid


SPECIAL = np.array([-0.0, 5e-324, 1e300, np.inf, np.nan, -np.inf, 0.1, -2.5e-17,
                    1.0 / 3.0, 2.0**53 + 2.0, -1e-300, 123456789.0])


def special_mesh():
    """Hand-built 3x4 fields whose every column holds -0, subnormals, huge,
    inf and nan values."""
    n_e, n_s = 3, 4

    def pick(*shape):
        return RNG.choice(SPECIAL, size=shape)

    # the unused picks stand for fields meshes no longer keep, so every kept
    # field draws the values it drew before and later tests see the same RNG
    eps, _s, points = pick(n_e), pick(n_s), pick(n_e, n_s, 3)
    pick(n_e, n_s, 3)
    nh_norm = pick(n_e, n_s)
    for _ in range(3):
        pick(n_e, n_s, 3)
    return Fields(eps=eps, points=points, nh_norm=nh_norm, geom_s=pick(n_e, n_s),
                  h_est=pick(n_e, n_s))


VERTEX_FIELDS = ("x", "y", "t", "nh_norm", "geom_s", "h_est")
NEG_NAN = np.copysign(np.nan, -1.0)


def field_mesh(eps=(0.1, -0.0, 1e300), n_s=4, **fields):
    """Hand-built fields over `eps`: each given field is broadcast to
    (n_e, n_s), a row vector making it constant along eps and a column
    vector constant along s; every other field differs at every vertex."""
    n_e = len(eps)
    ramp = np.arange(n_e * n_s).reshape(n_e, n_s) / 7.0
    f = {name: np.broadcast_to(np.asarray(fields.get(name, ramp + k), float), (n_e, n_s)).copy()
         for k, name in enumerate(VERTEX_FIELDS)}
    return Fields(eps=np.array(eps, float), points=np.stack([f["x"], f["y"], f["t"]], axis=-1),
                  nh_norm=f["nh_norm"], geom_s=f["geom_s"], h_est=f["h_est"])


def _one_negative_zero():
    z = np.zeros((3, 4))
    z[1, 2] = -0.0
    return z


def _nans_of_both_signs():
    nans = np.full((3, 4), np.nan)
    nans[::2, 1::2] = NEG_NAN
    return nans


def multi_block_mesh():
    """3000 x 3 vertices: more than one block of eps rows, and of faces.
    x changes every row, t where the second block starts, y is constant
    along eps, and nh_norm mixes values outside the kernel's range."""
    n_e, n_s = 3000, 3
    rows = np.arange(n_e)[:, None]
    nh = np.arange(n_e * n_s).reshape(n_e, n_s) * 1e-6
    nh[::7] = 0.0
    return field_mesh(eps=np.linspace(-1.0, 1.0, n_e), n_s=n_s, x=rows / 7.0,
                      y=[0.25, -0.0, 3e-5],
                      t=np.where(rows < _BLOCK_VERTICES // n_s, 0.5, -1e16), nh_norm=nh)


@pytest.mark.parametrize("make", [
    lambda: Grid(SpherePatch(1.0), 2, 2),
    lambda: Grid(SigmaLambdaPatch(helix_curve(0.8), 1.2, -1), 3, 5),
    sphere_mesh_with_h,
    special_mesh,
    lambda: field_mesh(y=SPECIAL[:4], geom_s=[0.0, 0.5, 1.0, 1.5]),
    lambda: field_mesh(x=SPECIAL[4:7, None], t=[[-0.0], [0.0], [-0.0]]),
    lambda: field_mesh(nh_norm=1.0 / 3.0, t=-0.0),
    lambda: field_mesh(x=_one_negative_zero(), geom_s=[0.0, -0.0, 0.0, 0.0]),
    lambda: field_mesh(h_est=np.nan),
    lambda: field_mesh(h_est=_nans_of_both_signs(), y=[[np.nan], [NEG_NAN], [np.nan]]),
    multi_block_mesh,
], ids=["2x2", "3x5", "sphere-with-h", "special-values", "constant-along-eps",
        "constant-along-s", "constant-along-both", "one-negative-zero", "all-nan",
        "nan-both-signs", "multi-block"])
def test_export_bytes_match_per_vertex_oracle(tmp_path, make):
    assert_matches_oracle(make(), tmp_path)


@pytest.mark.parametrize("case, files", [
    (Grid(SpherePatch(1.0), 37, 301), ("m.obj", "m.csv")),
    (Grid(SpherePatch(1.0), 37, 301), ("m.obj", None)),
    (Grid(SpherePatch(1.0), 37, 301), (None, "m.csv")),
    (Grid(build_surface("helicoid-l"), 37, 301, with_h=True), ("m.obj", "m.csv")),
], ids=["sphere-37x301", "sphere-37x301-obj-only", "sphere-37x301-csv-only",
        "helicoid-l-37x301-h"])
def test_streamed_bytes_match_per_vertex_oracle(tmp_path, case, files):
    # 301 columns divide no block of rows, and the helicoid's singular
    # columns put NaN into h_est on every row, next to every block edge
    assert 37 > _BLOCK_VERTICES // 301 and _BLOCK_VERTICES % 301
    assert_matches_oracle(case, tmp_path, files)


def test_bitwise_constant_columns_are_converted_once(tmp_path, monkeypatch):
    sizes = []

    def recording(x):
        sizes.append(x.size)
        return _float_text(x)

    monkeypatch.setattr("h1geo.surfaces._float_text", recording)
    m = field_mesh(x=SPECIAL[4:7, None], y=SPECIAL[:4], t=np.nan, nh_norm=_one_negative_zero(),
                   h_est=_nans_of_both_signs())
    assert_matches_oracle(m, tmp_path)
    # x once per eps row, y once per s column and t once, for both files;
    # then eps once per row, and geom_s, the -0 among zeros and the nans of
    # both signs per vertex
    assert sizes == [3, 4, 1, 3, 12, 12, 12]


@st.composite
def axis_constant_meshes(draw):
    """Small fields drawn from SPECIAL, 0.0 and a negative nan, each
    constant along eps, along s, along both or neither."""
    value = st.sampled_from([*SPECIAL.tolist(), 0.0, NEG_NAN])
    n_e, n_s = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def field(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)

    fields = {name: field(draw(st.sampled_from([(n_e, n_s), (n_e, 1), (n_s,), ()])))
              for name in VERTEX_FIELDS}
    return field_mesh(eps=field((n_e,)), n_s=n_s, **fields)


@settings(max_examples=150, deadline=None)
@given(m=axis_constant_meshes())
def test_export_bytes_match_oracle_for_axis_constant_fields(tmp_path_factory, m):
    out = tmp_path_factory.getbasetemp() / "axis-constant"
    out.mkdir(exist_ok=True)
    assert_matches_oracle(m, out)


def text_of(rows):
    """The strings of uint8 text rows padded with 0 bytes."""
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def boundary_values():
    """Powers of ten from 1e-6 to 1e17 and their neighbours, the ends of the
    kernel's range, a classic rounding case, the smallest subnormal, exact
    ties at the 18th digit (the first two in the kernel's range), both
    signs of each, and nan, inf and zeros."""
    tens = 10.0 ** np.arange(-6, 18)
    v = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                        [1e-4, 1e15, 0.1 + 0.2, 5e-324, 562949953421312.125,
                         562949953421312.375, 1125899906842624.25]])
    return np.concatenate([v, -v, [np.nan, NEG_NAN, np.inf, -np.inf]])


def test_float_text_matches_percent_g_at_boundaries():
    x = boundary_values()
    assert text_of(_float_text(x)) == ["%.17g" % v for v in x.tolist()]


FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=1e-4, max_value=1e15),
    st.floats(min_value=-1e15, max_value=-1e-4),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from([NEG_NAN, 0.0, -0.0, 5e-324, -5e-324]))


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40))
def test_float_text_matches_percent_g(values):
    x = np.array(values, dtype=float)
    assert text_of(_float_text(x)) == ["%.17g" % v for v in x.tolist()]


def test_float_text_matches_percent_g_for_decimal_roundings():
    # values with trailing zeros among their 17 digits, and every exponent
    rng = np.random.default_rng(7)
    digits = 10.0 ** rng.integers(0, 17, 20000)
    scale = 10.0 ** rng.integers(-5, 16, 20000)
    x = np.round(rng.uniform(-1.0, 1.0, 20000) * digits) / digits * scale
    assert text_of(_float_text(x)) == ["%.17g" % v for v in x.tolist()]


def test_int_text_matches_percent_d():
    tens = 10 ** np.arange(1, 10)
    top = _MAX_RES * _MAX_RES      # the largest vertex id of a mesh
    v = np.concatenate([[0, 1, 2, top - 1, top], tens - 1, tens, tens + 1])
    assert text_of(_int_text(v)) == ["%d" % i for i in v.tolist()]


def test_export_determinism(tmp_path):
    sp = SpherePatch(1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_mesh(sp, 5, 5, csv=p1)
    write_mesh(sp, 5, 5, csv=p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture
def restore_umask():
    """Restore the process umask after a test that sets it."""
    saved = os.umask(0o022)
    yield
    os.umask(saved)


@pytest.mark.parametrize("mask", [0o022, 0o007, 0o077], ids=["022", "007", "077"])
def test_atomic_write_gives_a_new_file_the_umask_mode(tmp_path, restore_umask, mask):
    os.umask(mask)
    atomic_write(tmp_path / "new.txt", "x\n")
    assert (tmp_path / "new.txt").stat().st_mode & 0o7777 == 0o666 & ~mask


def test_atomic_write_keeps_an_overwritten_file_mode(tmp_path, restore_umask):
    path = tmp_path / "old.txt"
    path.write_text("old\n")
    path.chmod(0o640)
    atomic_write(path, "new\n")    # a new file would get 0o644 under umask 0o022
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o7777 == 0o640


@pytest.mark.parametrize("existing", [True, False], ids=["overwrite", "new"])
def test_atomic_write_failing_block_source_leaves_no_trace(tmp_path, existing):
    # the block that `_replacing` guards, as the mesh writer's, writes and then raises
    path = tmp_path / "out.txt"
    if existing:
        path.write_text("old\n")
    with pytest.raises(RuntimeError, match="block source failed"):
        with _replacing(path) as fh:
            fh.write(b"v 1\n" * 1000)
            raise RuntimeError("block source failed")
    assert os.listdir(tmp_path) == (["out.txt"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


@pytest.mark.parametrize("existing", [True, False], ids=["overwrite", "new"])
def test_atomic_write_failing_partway_leaves_no_trace(tmp_path, existing):
    path = tmp_path / "out.txt"
    if existing:
        path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(path, "v 1\n" * 1000 + "\ud800\n")    # a lone surrogate cannot be encoded
    assert os.listdir(tmp_path) == (["out.txt"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


# ---------------------------------------------------------------------------
# wrappers


def test_translated_patch_keeps_frame_data():
    sp = SpherePatch(1.0)
    tp = sp.translated(Point(0.4, -0.3, 1.2))
    nd0 = sp.normal_data(0.7, 1.3)
    nd1 = tp.normal_data(0.7, 1.3)
    assert np.allclose(nd1.normal, nd0.normal, atol=0)
    assert nd1.nh_norm == nd0.nh_norm


def test_dilated_patch_partials_match_fd():
    sp = SpherePatch(1.0)
    dp = sp.dilated(0.4)
    fe, fs, _ = dp.partials(0.9, 1.2)
    fe2, fs2, _ = fd_partials(dp, 0.9, 1.2)
    assert np.max(np.abs(fe - fe2)) < 1e-7
    assert np.max(np.abs(fs - fs2)) < 1e-7


def test_composed_transforms_keep_metadata_and_partials():
    p0 = Point(0.4, -0.3, 1.2)
    tp = SpherePatch(1.0).dilated(0.3).translated(p0).flipped()
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


def _wave(e, s):
    """An analytic vertical speed (u, u_eps, u_s)."""
    e, s = np.asarray(e, float), np.asarray(s, float)
    return (np.sin(e) * np.cos(s) + 0.5, np.cos(e) * np.cos(s), -np.sin(e) * np.sin(s))


# the forms whose partials are held to fd_partials: the moves, and a vertical
# variation p + tau u T, whose partials are exact too
_FD_FORMS = {**_FORMS, "varied": lambda p: VerticalVariation(p, _wave, 0.3)}


@pytest.mark.parametrize("form", sorted(_FD_FORMS))
@pytest.mark.parametrize("params", [{}, {"lam": 1.3, "r": 0.7, "d": 0.4}],
                         ids=["defaults", "non-unit"])   # a unit value hides rho^2 vs rho
@pytest.mark.parametrize("name", sorted(catalog()) + ["vertical-plane"])
def test_partials_match_fd_across_catalog(name, params, form):
    if name == "vertical-plane":
        base = plane_patch((1.0, 0.5, 0.0), params.get("d", 0.3))
    else:   # each builder takes only the parameters it declares
        declared = inspect.signature(catalog()[name]).parameters
        base = build_surface(name, **{k: v for k, v in params.items() if k in declared})
    patch = _FD_FORMS[form](base)
    # its own generator, so the module RNG draws of later tests stay as they were
    rng = np.random.default_rng(97)
    eps = patch.eps_lo + (patch.eps_hi - patch.eps_lo) * rng.uniform(0.1, 0.9, 8)
    s = patch.s_lo + (patch.s_hi - patch.s_lo) * rng.uniform(0.1, 0.9, 8)
    fe, fs, p = patch.partials(eps, s)
    fe2, fs2, p2 = fd_partials(patch, eps, s)
    assert np.max(np.abs(fe - fe2)) < 1e-7
    assert np.max(np.abs(fs - fs2)) < 1e-7
    assert np.array_equal(p.as_array(), p2.as_array())


_DECLARED = {
    "cylinder-lower": lambda: cylinder_S(1.3)[0],
    "cylinder-upper-lam-1": lambda: cylinder_S(-1.0)[1],
    "sphere-sheet-lower": lambda: sphere_graph(0.7)[0],
    "sphere-sheet-upper": lambda: sphere_graph(0.7)[1],
    "bernstein-y^2": lambda: build_surface("bernstein", g="y^2"),
    "bernstein-3y^2": lambda: build_surface("bernstein", g="3*y^2"),
    "plane-tilted": lambda: plane_patch((0.3, -0.2, 1.0), 0.4),
    "sigma-zero-helix": lambda: SigmaZeroPatch(helix_curve(0.8, eps_min=-1, eps_max=1),
                                                 s_range=(-0.5, 1.5)),
}


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("name", sorted(_DECLARED))
def test_chart_partials_follow_the_chain_rule(name, form):
    patch = _FORMS[form](_DECLARED[name]())
    charts = patch.quadrature_charts()
    assert charts and all(isinstance(c, Chart) for c in charts)
    rng = np.random.default_rng(31)
    for chart in charts:
        a_lo, a_hi, b_lo, b_hi = chart.rect
        a = a_lo + (a_hi - a_lo) * rng.uniform(0.1, 0.9, 8)
        b = b_lo + (b_hi - b_lo) * rng.uniform(0.1, 0.9, 8)
        ha, hb = 1e-6 * max(a_hi - a_lo, 1.0), 1e-6 * max(b_hi - b_lo, 1.0)
        eps, s, det = chart.to_base(a, b)
        det = np.broadcast_to(det, a.shape)
        # the stated det J against central differences of to_base
        ea, sa = (_central(lambda x: chart.to_base(x, b)[k], a, ha) for k in (0, 1))
        eb, sb = (_central(lambda x: chart.to_base(a, x)[k], b, hb) for k in (0, 1))
        assert np.max(np.abs(ea * sb - eb * sa - det)) < 1e-7 * max(1.0, np.max(np.abs(det)))
        # chain rule: the chart's raw normal is the oriented cross product of
        # the central differences of the patch's points along a and b
        def pts(aa, bb):
            return patch.point(*chart.to_base(aa, bb)[:2])

        q = pts(a, b)
        fa = cartesian_to_frame(q, _central(lambda x: pts(x, b).as_array(), a, ha))
        fb = cartesian_to_frame(q, _central(lambda x: pts(a, x).as_array(), b, hb))
        e2, s2, p, raw = chart.samples(patch, a, b)
        scale = np.linalg.norm(fa, axis=-1) + np.linalg.norm(fb, axis=-1)
        assert np.all(np.linalg.norm(raw - patch.orientation * cross_c(fa, fb), axis=-1)
                      < 1e-7 * scale)
        # the chart's samples are the patch's points at the base parameters,
        # and its raw normal is det J times the patch's, with det J > 0
        assert np.array_equal(e2, eps) and np.array_equal(s2, s)
        p0, _, _, raw0 = patch.frame(eps, s)
        assert np.array_equal(p.as_array(), p0.as_array())
        assert np.all(det > 0.0)
        assert np.allclose(raw, det[..., None] * raw0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_patches_that_declare_nothing_are_their_own_chart(form):
    patches = [SpherePatch(1.0),
               SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1),
               SigmaZeroPatch(line_curve(eps_min=-1, eps_max=1), s_range=(0.0, 2.0)),
               helicoid_L(1.0, 1.0, k_max=2).pieces[1],
               VerticalCylinder(1.5),
               plane_patch((1.0, 0.5, 0.0), 0.3),
               plane_patch((3.0, 0.5, 1.0), 0.1),          # cone point (0.5, -3) outside
               build_surface("bernstein", g="10*y")]   # curve x = -5 outside
    for base in patches:
        patch = _FORMS[form](base)
        assert patch.quadrature_charts() == [], base.label


def test_charts_split_where_the_singular_set_lies():
    # the cone point on a side gives three triangles, on a corner two
    assert len(plane_patch((2.0, 0.0, 1.0)).quadrature_charts()) == 3
    assert len(plane_patch((2.0, 2.0, 1.0)).quadrature_charts()) == 2
    # for g = 3y^2 the curve x = -g'(y)/2 = -3y leaves [-3, 3]^2 at y = +-1:
    # one whole-row chart on each outer piece, two split charts on the middle
    charts = build_surface("bernstein", g="3*y^2").quadrature_charts()
    cuts = [(-3.0, -1.0), (-1.0, 1.0), (-1.0, 1.0), (1.0, 3.0)]
    assert [c.rect[2:] for c in charts] == [pytest.approx(c, abs=1e-15) for c in cuts]
    assert [c.rect[:2] for c in charts] == [(-3.0, 3.0), (0.0, 1.0), (0.0, 1.0), (-3.0, 3.0)]
    lower, upper = cylinder_S(0.8)
    for sheet in (lower, upper):
        assert [c.rect[2:] for c in sheet.quadrature_charts()] == [(-1.0, 0.0), (0.0, 1.0)]
    assert [c.rect[2:] for c in sphere_graph(0.8)[0].quadrature_charts()] == [(0.0, 1.0)]
    # sigma-zero splits at its base curve s = 0 when it lies inside
    sz = build_surface("sigma-zero")
    assert [c.rect for c in sz.quadrature_charts()] == [(-2.0, 2.0, -2.0, 0.0),
                                                        (-2.0, 2.0, 0.0, 2.0)]


def test_moved_patches_keep_their_singular_curves():
    # a move changes points, not parameters: every moved patch keeps the
    # base's curves, and the defect pairs its own Z with its own tangent
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    assert sl.flipped().lam == -1.0 and sl.dilated(0.2).lam == np.exp(-0.2)
    p0, s0 = Point(0.4, -0.3, 1.2), 0.3
    bg = build_surface("bernstein", g="y^2")
    y = np.linspace(-0.8, 0.8, 5)
    base = orthogonality_defect(bg, 0, y)
    assert np.allclose(base, -1.0, atol=1e-6)   # -g''/2
    assert orthogonality_defect(bg.translated(p0), 0, y).tobytes() == base.tobytes()
    assert np.allclose(orthogonality_defect(bg.dilated(s0), 0, y), np.exp(s0) * base,
                       rtol=1e-12, atol=0.0)
    assert np.allclose(orthogonality_defect(bg.flipped(), 0, y), -base, rtol=1e-12, atol=0.0)
    helix = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    eps = np.linspace(-1.0, 1.0, 5)
    for moved in (helix.translated(p0), helix.dilated(-s0), helix.flipped(),
                  helix.dilated(s0).translated(p0).flipped()):
        for idx in (0, 1):
            assert np.max(np.abs(orthogonality_defect(moved, idx, eps))) < 1e-6


def test_frame_is_the_single_evaluation_path():
    # normal_data carries the partials it was built from, and frame's raw
    # normal is the oriented cross product of those partials, bit for bit
    patches = [SpherePatch(1.0),
               SigmaLambdaPatch(helix_curve(1.0, eps_min=-1, eps_max=1), 1.0, -1),
               helicoid_L(1.0, 1.0, k_max=2).pieces[1],
               SpherePatch(0.7).dilated(0.2).translated(Point(0.1, 0.2, 0.3))]
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
    assert not np.any(write_mesh(vc, 16, 8))
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
    bg = build_surface("bernstein", g="7 + 3*y")
    assert isinstance(bg, BernsteinGraph)


def test_catalog_unknown_surface():
    with pytest.raises(UnknownSurface):
        build_surface("nosuch")


def test_plane_has_one_isolated_singular_vertex():
    pl = plane_patch(rect=(-2.0, 2.0, -2.0, 2.0))
    # an odd grid puts a vertex exactly at the origin
    comps = singular_components(write_mesh(pl, 33, 33))
    assert len(comps) == 1
    assert len(comps[0]) == 1
