import numpy as np
import pytest

from h1geo import geodesics
from h1geo.geodesics import (
    FieldAlongGeodesic,
    GeodesicSpec,
    conserved_quantity,
    curve_geodesic_residual,
    cut_time,
    geodesic_point,
    geodesic_residual,
    geodesic_velocity,
    jacobi_residual,
    stable_ratios,
    tangent_jacobi_field,
)
from h1geo.hgroup import ORIGIN, Point, dilate, group_mul

RNG = np.random.default_rng(90125)


def rand_specs(n, lam_lo=1e-9, lam_hi=10.0):
    theta = RNG.uniform(0, 2 * np.pi, n)
    lam = np.exp(RNG.uniform(np.log(lam_lo), np.log(lam_hi), n)) * RNG.choice([-1, 1], n)
    return GeodesicSpec(ORIGIN, theta, lam)


# ---------------------------------------------------------------------------
# closed form


def test_point_at_zero_is_base():
    base = Point(0.3, -0.7, 1.1)
    g = GeodesicSpec(base, 1.2, 0.8)
    p = geodesic_point(g, 0.0)
    assert np.allclose([p.x, p.y, p.t], [0.3, -0.7, 1.1], atol=0)


def test_point_north_pole():
    # lambda = 1 from the origin reaches (0, 0, pi/2) at s = pi
    g = GeodesicSpec(ORIGIN, 0.0, 1.0)
    p = geodesic_point(g, np.pi)
    assert abs(p.x) < 1e-15 and abs(p.y) < 1e-15
    assert abs(p.t - np.pi / 2) < 1e-15


def test_point_quarter_turn():
    # substitute s = pi/2 into the closed form with A = 1, B = 0
    g = GeodesicSpec(ORIGIN, 0.0, 1.0)
    p = geodesic_point(g, np.pi / 2)
    assert np.allclose([p.x, p.y, p.t], [0.0, -1.0, np.pi / 4], atol=1e-15)


def test_velocity_initial_and_quarter_turn():
    g = GeodesicSpec(ORIGIN, 0.0, 1.0)
    v0 = geodesic_velocity(g, 0.0)
    assert np.allclose(v0, [1.0, 0.0, 0.0], atol=0)
    v = geodesic_velocity(g, np.pi / 2)
    assert np.allclose(v, [-1.0, 0.0, 0.0], atol=1e-15)


def test_velocity_unit_norm_everywhere():
    g = rand_specs(1000)
    s = RNG.uniform(-5, 5, 1000)
    v = geodesic_velocity(g, s)
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < 1e-15
    assert np.all(v[..., 2] == 0.0)


def test_velocity_is_the_rotating_phase_without_the_point(monkeypatch):
    calls = []

    def counting(lam, s):
        calls.append(s)
        return stable_ratios(lam, s)

    monkeypatch.setattr(geodesics, "stable_ratios", counting)
    g = GeodesicSpec(Point(0.3, -0.7, 1.1), 0.9, -1.7)
    s = np.linspace(-2.0, 2.0, 9)
    v = geodesic_velocity(g, s)
    assert calls == []
    phase = 0.9 - 2.0 * -1.7 * s
    assert np.array_equal(v, np.stack([np.cos(phase), np.sin(phase), np.zeros(9)], axis=-1))


def test_stable_ratios_match_closed_form_away_from_switch():
    lam = RNG.uniform(0.1, 5.0, 100)
    s = RNG.uniform(0.1, 3.0, 100)
    sig, kap, tau = stable_ratios(lam, s)
    z = 2 * lam * s
    assert np.allclose(sig, np.sin(z) / (2 * lam), rtol=1e-14)
    assert np.allclose(kap, (1 - np.cos(z)) / (2 * lam), rtol=1e-13, atol=1e-15)
    assert np.allclose(tau, (s - np.sin(z) / (2 * lam)) / (2 * lam), rtol=1e-12, atol=1e-15)


def test_small_lambda_continuity_with_line():
    # A curvature-lambda geodesic separates from its tangent line by
    # kappa = lambda s^2 in the plane and lambda s^3/3 vertically, so the
    # numerically evaluated gap must match that bound -- no cancellation
    # noise on top.  (At lambda = 1e-9, s = 10 the true gap is ~1e-7, so a
    # flat 1e-8 bound is unattainable; see the lambda = 1e-11 case below.)
    theta = 0.9
    s = np.linspace(0.0, 10.0, 101)
    for lam, flat_tol in ((1e-9, None), (1e-11, 1e-8)):
        line = GeodesicSpec(ORIGIN, theta, 0.0)
        geo = GeodesicSpec(ORIGIN, theta, lam)
        d = np.abs(geodesic_point(geo, s).as_array() - geodesic_point(line, s).as_array())
        bound = lam * s**2 + lam * s**3 / 3.0 + 1e-12
        assert np.all(d.max(axis=-1) <= bound)
        if flat_tol is not None:
            assert np.max(d) < flat_tol


def test_lambda_zero_is_line():
    base = Point(0.5, -0.25, 2.0)
    g = GeodesicSpec(base, 0.3, 0.0)
    s = np.linspace(-2, 2, 9)
    p = geodesic_point(g, s)
    A, B = np.cos(0.3), np.sin(0.3)
    assert np.allclose(p.x, 0.5 + A * s, atol=1e-15)
    assert np.allclose(p.y, -0.25 + B * s, atol=1e-15)
    assert np.allclose(p.t, 2.0 + (A * (-0.25) - B * 0.5) * s, atol=1e-15)


# ---------------------------------------------------------------------------
# residuals


def test_geodesic_residual_small_on_closed_form():
    g = GeodesicSpec(ORIGIN, 0.0, 1.0)
    assert geodesic_residual(g, 0.7) < 1e-10


def test_geodesic_residual_zero_for_lines():
    g = GeodesicSpec(Point(1.0, 2.0, 3.0), 1.1, 0.0)
    s = np.linspace(-3, 3, 11)
    assert np.max(geodesic_residual(g, s)) < 1e-15


def test_geodesic_residual_batch():
    n = 10000
    g = rand_specs(n)
    smax = np.minimum(10.0, np.pi / np.abs(g.lam))
    s = RNG.uniform(0.0, 1.0, n) * smax
    res = geodesic_residual(g, s)
    assert np.max(res) < 1e-8


def test_residual_detects_perturbed_curve():
    # t-coordinate offset by 0.01 s^2 breaks horizontality
    g = GeodesicSpec(ORIGIN, 0.0, 1.0)

    def perturbed(s):
        p = geodesic_point(g, s)
        return Point(p.x, p.y, p.t + 0.01 * np.asarray(s) ** 2)

    res = curve_geodesic_residual(perturbed, 1.0, 0.8)
    assert res > 1e-3


def test_fd_residual_small_on_true_geodesic():
    g = GeodesicSpec(ORIGIN, 0.4, 1.3)
    res = curve_geodesic_residual(lambda s: geodesic_point(g, s), 1.3, 0.9)
    assert res < 1e-7


def test_reversal_flips_curvature():
    # gamma(-s) solves the geodesic equation with curvature -lambda, and
    # coincides with the geodesic from the same point in direction theta+pi
    g = GeodesicSpec(ORIGIN, 0.7, 1.4)
    rev = GeodesicSpec(ORIGIN, 0.7 + np.pi, -1.4)
    s = np.linspace(0, 2, 21)
    d = geodesic_point(g, -s).as_array() - geodesic_point(rev, s).as_array()
    assert np.max(np.abs(d)) < 1e-14
    res = curve_geodesic_residual(lambda u: geodesic_point(g, -u), -1.4, 0.6)
    assert res < 1e-7


# ---------------------------------------------------------------------------
# covariance properties


def test_dilation_covariance():
    # dilate(s, gamma^lambda(u)) = gamma^{e^-s lambda}(e^s u)
    for _ in range(20):
        theta = RNG.uniform(0, 2 * np.pi)
        lam = RNG.uniform(0.2, 3.0)
        s = RNG.uniform(-1, 1)
        u = RNG.uniform(0, 2)
        lhs = dilate(s, geodesic_point(GeodesicSpec(ORIGIN, theta, lam), u)).as_array()
        rhs = geodesic_point(GeodesicSpec(ORIGIN, theta, np.exp(-s) * lam), np.exp(s) * u).as_array()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_left_translation_covariance():
    p = Point(0.7, -1.2, 0.4)
    theta, lam = 1.1, 0.8
    s = np.linspace(0, 3, 13)
    from_origin = geodesic_point(GeodesicSpec(ORIGIN, theta, lam), s)
    translated = group_mul(p, from_origin).as_array()
    direct = geodesic_point(GeodesicSpec(p, theta, lam), s).as_array()
    assert np.max(np.abs(translated - direct)) < 1e-14


def test_pole_concurrence():
    lam = 1.0
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    p = geodesic_point(GeodesicSpec(ORIGIN, theta, lam), np.pi / lam)
    pole = np.array([0.0, 0.0, np.pi / (2 * lam**2)])
    assert np.max(np.abs(p.as_array() - pole)) < 1e-12


def test_injectivity_before_cut():
    lam = 1.0
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    s = np.linspace(0.05, np.pi - 0.05, 60)
    pts = geodesic_point(GeodesicSpec(ORIGIN, theta[:, None], lam), s[None, :]).as_array()
    flat = pts.reshape(-1, 3)
    # distinct directions never meet before the cut; check a random pair sample
    idx = RNG.choice(len(flat), size=(4000, 2))
    idx = idx[idx[:, 0] != idx[:, 1]]
    same_dir = (idx[:, 0] // 60) == (idx[:, 1] // 60)
    d = np.linalg.norm(flat[idx[:, 0]] - flat[idx[:, 1]], axis=-1)
    assert np.min(d[~same_dir]) > 1e-3


def test_monotone_t_for_nonzero_curvature():
    g = GeodesicSpec(ORIGIN, 0.3, 0.9)
    s = np.linspace(0, 3 * np.pi, 400)
    t = np.asarray(geodesic_point(g, s).t)
    assert np.all(np.diff(t) > 0)


# ---------------------------------------------------------------------------
# conserved quantity and Jacobi fields


def test_conserved_quantity_tangent():
    g = GeodesicSpec(ORIGIN, 0.2, 1.5)
    field = tangent_jacobi_field(g, 0.0, 1.0)
    s = np.linspace(0, 2, 100)
    vals = conserved_quantity(g, field, s)
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_conserved_quantity_constant_along_100_geodesics():
    for _ in range(100):
        theta = RNG.uniform(0, 2 * np.pi)
        lam = RNG.uniform(-2, 2)
        b = RNG.uniform(-2, 2)
        g = GeodesicSpec(ORIGIN, theta, lam)
        field = tangent_jacobi_field(g, 0.0, b)
        span = np.pi / max(abs(lam), 0.3)
        s = np.linspace(0, span, 100)
        vals = conserved_quantity(g, field, s)
        assert np.std(vals) < 1e-10


def test_jacobi_residual_tangent_constant():
    g = GeodesicSpec(ORIGIN, 0.9, 1.1)
    field = tangent_jacobi_field(g, 0.0, 0.7)
    s = np.linspace(0.1, 2.5, 25)
    assert np.max(jacobi_residual(g, field, s)) < 1e-10


def test_jacobi_residual_affine_tangent_lambda_zero():
    g = GeodesicSpec(ORIGIN, 0.9, 0.0)
    field = tangent_jacobi_field(g, 0.4, 0.7)
    s = np.linspace(-2, 2, 25)
    assert np.max(jacobi_residual(g, field, s)) < 1e-10


def test_jacobi_residual_rejects_affine_tangent_nonzero_lambda():
    # (a s + b) gamma' with a != 0 fails the Jacobi equation when lambda != 0
    g = GeodesicSpec(ORIGIN, 0.9, 1.2)
    field = tangent_jacobi_field(g, 0.5, 0.0)
    assert jacobi_residual(g, field, 1.0) > 1e-2


def test_jacobi_residual_orthogonal_family_closed_form():
    # V(s) = (1, 0, -sin(2s)) along the geodesic from the origin with
    # theta = pi/2, lambda = 1 (hand-derived variation field of the family
    # of geodesics orthogonal to the x-axis)
    g = GeodesicSpec(ORIGIN, np.pi / 2, 1.0)

    def coeffs(s):
        s = np.asarray(s, float)
        one = np.ones_like(s)
        return np.stack([one, np.zeros_like(s), -np.sin(2 * s)], axis=-1)

    field = FieldAlongGeodesic(g, coeffs)
    s = np.linspace(0.05, np.pi - 0.05, 40)
    assert np.max(jacobi_residual(g, field, s)) < 1e-6
    # and the conserved quantity of this variation field vanishes identically
    assert np.max(np.abs(conserved_quantity(g, field, s))) < 1e-14


# ---------------------------------------------------------------------------
# cut time


def bisect_cut(h, lam, tol=1e-14):
    """Independent oracle: bisection on h - 2 lam sin(2 lam s)/(1 - cos(2 lam s))."""

    def f(s):
        z = 2 * lam * s
        return 2 * lam * np.sin(z) / (1 - np.cos(z)) - h

    span = np.pi / abs(lam)
    lo, hi = 1e-6 * span, (1 - 1e-6) * span
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_cut_time_flat():
    assert cut_time(0.0, 1.0) == pytest.approx(np.pi / 2, abs=0)
    assert cut_time(0.0, -2.0) == pytest.approx(np.pi / 4, abs=1e-16)


def test_cut_time_hand_value():
    assert cut_time(2.0, 1.0) == pytest.approx(np.pi / 4, abs=1e-15)
    assert cut_time(2.0, 1.0) == pytest.approx(bisect_cut(2.0, 1.0), abs=1e-10)


def test_cut_time_reflection_identity():
    h = RNG.uniform(-10, 10, 1000)
    lam = RNG.uniform(0.2, 4.0, 1000) * RNG.choice([-1, 1], 1000)
    total = cut_time(h, lam) + cut_time(-h, lam)
    assert np.max(np.abs(total - np.pi / np.abs(lam))) < 1e-12


def test_cut_time_bisection_agreement():
    for _ in range(50):
        h = RNG.uniform(-8, 8)
        lam = RNG.uniform(0.3, 3.0) * (1 if RNG.uniform() < 0.5 else -1)
        assert abs(cut_time(h, lam) - bisect_cut(h, lam)) < 1e-10


def test_cut_time_rejects_lambda_zero():
    with pytest.raises(ValueError):
        cut_time(1.0, 0.0)


def test_cut_time_sign_structure():
    # <V, T> = h kappa/lambda - 2 sigma is negative before the cut and
    # positive after (side +J)
    h, lam = 1.3, 0.8
    s_cut = cut_time(h, lam)
    s = np.linspace(1e-3, np.pi / lam - 1e-3, 500)
    sig, kap, _ = stable_ratios(lam, s)
    vt = h * kap / lam - 2 * sig
    assert np.all(vt[s < s_cut - 1e-6] < 0)
    assert np.all(vt[s > s_cut + 1e-6] > 0)


def test_velocity_is_derivative_of_position():
    # independent oracle: central difference of the closed-form position
    from h1geo.hgroup import cartesian_to_frame

    worst = 0.0
    for _ in range(50):
        g = GeodesicSpec(ORIGIN, RNG.uniform(0, 2 * np.pi), RNG.uniform(-3, 3))
        s = RNG.uniform(0, 2)
        h = 1e-6
        d = (geodesic_point(g, s + h).as_array()
             - geodesic_point(g, s - h).as_array()) / (2 * h)
        fd = cartesian_to_frame(geodesic_point(g, s), d)
        worst = max(worst, float(np.max(np.abs(fd - geodesic_velocity(g, s)))))
    assert worst < 1e-8
