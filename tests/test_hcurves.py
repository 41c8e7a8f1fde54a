from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import h1geo.hcurves as hc
from h1geo.errors import ConfigError, DegenerateCurve
from h1geo.geodesics import GeodesicSpec, geodesic_point
from h1geo.hcurves import (
    PlanarCurve,
    curve_from_samples,
    helix_curve,
    horizontal_lift,
    line_curve,
    load_curve_csv,
)
from h1geo.hgroup import ORIGIN, Point
from h1geo.surfaces import _curve_data
from oracles import planar_of

RNG = np.random.default_rng(777)


def lift_t(curve, eps):
    return curve.jet(eps)[0].t


def fd_tdot(curve, eps, h=1e-6):
    return (np.asarray(lift_t(curve, eps + h)) - np.asarray(lift_t(curve, eps - h))) / (2 * h)


def horizontality_defect(curve, n=400):
    eps = np.linspace(curve.eps_min + 1e-3, curve.eps_max - 1e-3, n)
    p, (xd, yd), _, _ = curve.jet(eps)
    return np.max(np.abs(fd_tdot(curve, eps) - (xd * p.y - p.x * yd)))


def test_lift_of_x_axis_is_x_axis():
    planar = PlanarCurve(
        lambda e: (np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        -2.0, 2.0)
    c = horizontal_lift(planar, 0.0)
    eps = np.linspace(-2, 2, 17)
    p = c.position(eps)
    assert np.allclose(p.x, eps, atol=0)
    assert np.max(np.abs(np.asarray(p.t))) < 1e-12


def test_lift_of_planar_circle_is_helix():
    # the arclength circle of radius 1/(2r) lifts to the catalog helix
    r = 1.3

    def xy(e):
        e = np.asarray(e, float)
        return np.sin(2 * r * e) / (2 * r), (np.cos(2 * r * e) - 1) / (2 * r)

    def d1(e):
        e = np.asarray(e, float)
        return np.cos(2 * r * e), -np.sin(2 * r * e)

    def d2(e):
        e = np.asarray(e, float)
        return -2 * r * np.sin(2 * r * e), -2 * r * np.cos(2 * r * e)

    def d3(e):
        e = np.asarray(e, float)
        return -4 * r * r * np.cos(2 * r * e), 4 * r * r * np.sin(2 * r * e)

    planar = PlanarCurve(xy, d1, d2, d3, -1.5, 1.5)
    lifted = horizontal_lift(planar, 0.0)
    eps = np.linspace(-1.4, 1.4, 31)
    t_expect = (eps - np.sin(2 * r * eps) / (2 * r)) / (2 * r)
    # the lift integrates from eps_min, so match after anchoring at 0
    t_got = np.asarray(lift_t(lifted, eps)) - np.asarray(lift_t(lifted, 0.0))
    assert np.max(np.abs(t_got - t_expect)) < 1e-9


def test_lift_rejects_constant_point():
    planar = PlanarCurve(
        lambda e: (np.ones_like(np.asarray(e, float)), np.ones_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)
    with pytest.raises(DegenerateCurve):
        horizontal_lift(planar, 0.0)


def test_lift_vertical_translation_freedom():
    r = 0.7
    a = helix_curve(r)
    planar = planar_of(a)
    delta = 0.321
    c0 = horizontal_lift(planar, 0.0)
    c1 = horizontal_lift(planar, delta)
    eps = np.linspace(a.eps_min + 0.1, a.eps_max - 0.1, 11)
    d = c1.position(eps).as_array() - c0.position(eps).as_array()
    assert np.allclose(d[:, :2], 0.0, atol=0)
    assert np.allclose(d[:, 2], delta, atol=1e-12)


def test_planar_curvature_catalog():
    line = line_curve()
    eps = np.linspace(-3, 3, 9)
    assert np.max(np.abs(_curve_data(line, eps)[3])) == 0.0

    r = 0.9
    helix = helix_curve(r)
    assert np.allclose(_curve_data(helix, eps)[3], -2 * r, atol=1e-14)


def test_planar_curvature_unit_circle():
    # positively traversed unit circle has curvature +1
    planar = PlanarCurve(
        lambda e: (np.cos(e), np.sin(e)),
        lambda e: (-np.sin(e), np.cos(e)),
        lambda e: (-np.cos(e), -np.sin(e)),
        lambda e: (np.sin(e), -np.cos(e)),
        0.0, 2 * np.pi)
    c = horizontal_lift(planar, 0.0)
    assert np.allclose(_curve_data(c, np.linspace(0.2, 6.0, 12))[3], 1.0, atol=1e-14)


def test_reparameterize_identity_on_arclength_input():
    # horizontal_lift measures arclength from eps_min, so an arclength
    # curve keeps its parameter
    helix = helix_curve(1.1)
    out = horizontal_lift(planar_of(helix))
    assert out.eps_min == helix.eps_min
    assert out.eps_max == pytest.approx(helix.eps_max, abs=1e-14)
    eps = np.linspace(out.eps_min, out.eps_max, 40)
    p0, p1 = helix.position(eps), out.position(eps)
    assert np.max(np.hypot(p1.x - p0.x, p1.y - p0.y)) < 1e-10


def test_reparameterize_constant_speed():
    planar = PlanarCurve(
        lambda e: (2.0 * np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)
    out = horizontal_lift(planar)
    assert out.eps_max == pytest.approx(2.0, abs=1e-12)
    eps = np.linspace(0, 2, 21)
    assert np.allclose(out.position(eps).x, eps, atol=1e-10)


def test_reparameterize_ellipse_speed():
    planar = PlanarCurve(
        lambda e: (2.0 * np.cos(e), np.sin(e)),
        lambda e: (-2.0 * np.sin(e), np.cos(e)),
        lambda e: (-2.0 * np.cos(e), -np.sin(e)),
        lambda e: (2.0 * np.sin(e), -np.cos(e)),
        0.0, 2 * np.pi)
    out = horizontal_lift(planar)
    eps = np.linspace(0, out.eps_max, 1000)
    assert np.max(np.abs(np.hypot(*out.jet(eps)[1]) - 1.0)) < 1e-8


def test_helix_is_geodesic_curve():
    r = 1.0
    helix = helix_curve(r)
    eps = np.linspace(helix.eps_min + 0.05, helix.eps_max - 0.05, 33)
    geo = geodesic_point(GeodesicSpec(ORIGIN, 0.0, r), eps)
    d = helix.position(eps).as_array() - geo.as_array()
    assert np.max(np.abs(d)) < 1e-13


def test_horizontality_defect_on_catalog():
    for curve in (line_curve(0.4), helix_curve(0.8)):
        assert horizontality_defect(curve) < 1e-9


def test_curve_from_samples_roundtrip():
    # dense samples of the helix reproduce it after spline + reparam + lift
    helix = helix_curve(1.0, eps_min=-1.5, eps_max=1.5)
    eps = np.linspace(-1.5, 1.5, 400)
    p = helix.position(eps)
    rebuilt = curve_from_samples(eps, p.x, p.y, t0=float(lift_t(helix, -1.5)))
    ee = np.linspace(0.05, rebuilt.eps_max - 0.05, 50)
    p = rebuilt.position(ee)
    q = helix.position(ee + helix.eps_min)
    assert np.max(np.abs(p.as_array() - q.as_array())) < 1e-6
    assert _curve_data(rebuilt, 1.0)[3] == pytest.approx(-2.0, abs=1e-4)


def test_load_curve_csv(tmp_path):
    eps = np.linspace(0, 2, 100)
    path = tmp_path / "curve.csv"
    lines = ["eps,x,y"] + [f"{e},{e},{0.0}" for e in eps]
    path.write_text("\n".join(lines) + "\n")
    c = load_curve_csv(path)
    assert c.eps_max == pytest.approx(2.0, abs=1e-9)
    p = c.position(1.0)
    assert float(p.x) == pytest.approx(1.0, abs=1e-9)


def test_load_curve_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(DegenerateCurve):
        load_curve_csv(path)


def test_curvature_rate_zero_on_catalog():
    helix = helix_curve(0.6)
    assert abs(_curve_data(helix, 0.3)[4]) < 1e-10


def test_reparameterize_rejects_vanishing_speed():
    planar = PlanarCurve(
        lambda e: (np.asarray(e, float) ** 2, np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)  # speed vanishes at the eps = 0 end
    with pytest.raises(DegenerateCurve):
        horizontal_lift(planar)


# ---------------------------------------------------------------------------
# the tabulated lift: purity, thread safety and oracles

GL16_NODES, GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def fourier_samples(n=200):
    """A smooth planar curve that is not arclength-parameterized.  Near u = 0.515
    its speed drops to 0.6% of the mean, so the direction turns almost fully
    within a tiny arclength: the lift must refine there (equal cells alone were
    9e-5 off)."""
    u = np.linspace(0.0, 1.0, n)
    x = u + 0.10 * np.sin(2 * np.pi * u + 0.4) + 0.05 * np.sin(4 * np.pi * u + 2.2)
    y = 0.30 * np.sin(2 * np.pi * u + 1.9) + 0.15 * np.sin(4 * np.pi * u + 4.1)
    return u, x, y


CSV_SAMPLES = fourier_samples()
CSV_CURVE = curve_from_samples(*CSV_SAMPLES)         # queried by every test
CSV_FRESH = curve_from_samples(*CSV_SAMPLES)         # queried only pointwise


def pointwise(curve, eps):
    return np.array([lift_t(curve, float(e)) for e in np.ravel(eps)]).reshape(np.shape(eps))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1.0), max_size=20),
    st.randoms(use_true_random=False),
)
def test_lift_is_pure_for_any_query_order_and_batch(fracs, earlier, rnd):
    span = CSV_CURVE.eps_max - CSV_CURVE.eps_min
    eps = CSV_CURVE.eps_min + span * np.array(fracs)
    expect = pointwise(CSV_FRESH, eps)
    lift_t(CSV_CURVE, CSV_CURVE.eps_min + span * np.array(earlier))
    order = list(range(eps.size))
    rnd.shuffle(order)
    assert np.array_equal(lift_t(CSV_CURVE, eps[order]), expect[order])
    assert np.array_equal(pointwise(CSV_CURVE, eps), expect)
    assert isinstance(lift_t(CSV_CURVE, float(eps[0])), float)
    if eps.size % 2 == 0:
        grid = eps.reshape(2, -1)
        assert np.array_equal(lift_t(CSV_CURVE, grid), expect.reshape(2, -1))
        assert np.array_equal(lift_t(CSV_CURVE, grid.T), expect.reshape(2, -1).T)


def test_lift_threads_match_serial():
    eps = np.linspace(CSV_CURVE.eps_min, CSV_CURVE.eps_max, 4001)
    chunks = np.array_split(eps[::-1], 40)
    serial = [lift_t(CSV_FRESH, c) for c in chunks]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda c: lift_t(CSV_CURVE, c), chunks))
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


@pytest.mark.parametrize("closed", [
    helix_curve(0.5), helix_curve(1.0), helix_curve(3.0),
    line_curve(0.7, Point(0.3, -1.2, 0.5)), line_curve(1.0, Point(-4.0, 2.5, 0.0)),
], ids=["helix-0.5", "helix-1", "helix-3", "line", "line-far"])
def test_generic_lift_matches_closed_form(closed):
    lifted = horizontal_lift(planar_of(closed), float(lift_t(closed, closed.eps_min)))
    eps = np.linspace(closed.eps_min, closed.eps_max, 2001)
    assert np.max(np.abs(lift_t(lifted, eps) - lift_t(closed, eps))) < 1e-13


def test_generic_lift_extrapolates_beyond_the_ends():
    # a query outside the curve takes Newton's method out of the end cell,
    # unbracketed on the outer side; the helix is analytic there
    helix = helix_curve(0.9)
    lifted = horizontal_lift(planar_of(helix), float(lift_t(helix, helix.eps_min)))
    eps = np.array([helix.eps_min - 0.05, helix.eps_max + 0.05])
    assert np.max(np.abs(lifted.position(eps).as_array() - helix.position(eps).as_array())) < 1e-13


def gl16(f, a, b):
    half = 0.5 * (b - a)
    e = (0.5 * (a + b))[:, None] + half[:, None] * GL16_NODES
    return half * (f(e) @ GL16_WEIGHTS)


def test_csv_lift_matches_knot_aligned_oracle():
    # scipy's spline, integrated over its own parameter u by a 16-point
    # Gauss-Legendre rule on each knot interval cut in 4 (one rule per
    # interval is 8.6e-9 off in length at the speed dip; four have
    # converged to the last digit), is the oracle for both the arclength
    # eps(u) and the lift t(u)
    u, x, y = CSV_SAMPLES
    sx, sy = CubicSpline(u, x), CubicSpline(u, y)
    grid = np.concatenate([np.linspace(a, b, 4, endpoint=False) for a, b in zip(u[:-1], u[1:])]
                          + [u[-1:]])

    def speed(e):
        return np.hypot(sx(e, 1), sy(e, 1))

    def tdot(e):
        return sx(e, 1) * sy(e) - sx(e) * sy(e, 1)

    def integral(f, q):
        at_grid = np.concatenate([[0.0], np.cumsum(gl16(f, grid[:-1], grid[1:]))])
        k = np.clip(np.searchsorted(grid, q) - 1, 0, grid.size - 2)
        return at_grid[k] + gl16(f, grid[k], q)

    assert integral(speed, u[-1:])[0] == pytest.approx(CSV_CURVE.eps_max, rel=1e-14, abs=0)
    q = np.linspace(u[0], u[-1], 3001)[1:-1]
    eps = integral(speed, q)
    p = CSV_CURVE.position(eps)
    assert np.max(np.abs(p.t - integral(tdot, q))) < 1e-12
    assert np.max(np.hypot(p.x - sx(q), p.y - sy(q))) < 1e-12


def test_spline_matches_scipy():
    for u, x, y in (CSV_SAMPLES, (np.cumsum(RNG.uniform(0.1, 1.0, 30)),
                                  RNG.normal(size=30), RNG.normal(size=30)),
                    (np.array([0.0, 0.3, 1.1, 1.5]), RNG.normal(size=4), RNG.normal(size=4))):
        c = hc._not_a_knot(u, np.stack([x, y], axis=-1))
        planar = hc._spline_curve(u, x, y)
        e = np.linspace(u[0] - 0.1, u[-1] + 0.1, 997)
        for k, s in enumerate((CubicSpline(u, x), CubicSpline(u, y))):
            assert np.max(np.abs(c[..., k] - s.c) / np.max(np.abs(s.c), axis=1)[:, None]) < 1e-13
            for nu, f in enumerate((planar.xy, planar.d1, planar.d2, planar.d3)):
                want = s(e, nu)
                assert np.max(np.abs(f(e)[k] - want)) < 1e-13 * np.max(np.abs(want))


def test_csv_curve_is_one_arclength_curve():
    # xy, d1 and d2 are read at the one u that Newton finds for eps, so the
    # central differences of xy and of d1 converge to d1 and d2 like the
    # step squared (a PCHIP-inverted parameter stalled at 1.5e-5 and 1e-4),
    # and |d1| = 1 to rounding
    eps = np.linspace(0.01, CSV_CURVE.eps_max - 0.01, 401)
    derivs = [lambda e: (CSV_CURVE.position(e).x, CSV_CURVE.position(e).y),
              lambda e: CSV_CURVE.jet(e)[1], lambda e: CSV_CURVE.jet(e)[2]]
    assert np.max(np.abs(np.hypot(*derivs[1](eps)) - 1.0)) < 1e-15
    for f, df in zip(derivs[:-1], derivs[1:]):
        xd, yd = df(eps)
        errs = []
        for h in (1e-5, 1e-6):
            (xp, yp), (xm, ym) = f(eps + h), f(eps - h)
            errs.append(np.max(np.hypot((xp - xm) / (2 * h) - xd, (yp - ym) / (2 * h) - yd)))
        assert errs[1] < errs[0] / 50


def test_load_curve_csv_unreadable_file(tmp_path):
    with pytest.raises(ConfigError):
        load_curve_csv(tmp_path / "missing.csv")
    with pytest.raises(ConfigError):
        load_curve_csv(tmp_path)   # a directory


@pytest.mark.parametrize("text", [
    "", "eps,x,y\n", "eps,x,y\n0,0\n1,1\n2,2\n3,3\n", "eps,x,y\n0,0,0\n1,a,0\n2,2,0\n3,3,0\n",
    "eps,x,y\n0,0,0\n1,nan,0\n2,2,0\n3,3,0\n", "eps,x,y\n0,0,0\n1,1,inf\n2,2,0\n3,3,0\n",
], ids=["empty", "header-only", "short-rows", "non-numeric", "nan", "inf"])
def test_load_curve_csv_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DegenerateCurve):
        load_curve_csv(path)


def test_lift_refinement_stops_at_the_cell_budget(monkeypatch):
    # t' jumps every 1e-5, so every cell would be refined about 7 times over
    def zeros(e):
        z = np.zeros_like(np.asarray(e, float))
        return z, z

    def d1(e):
        phase = 2.0 * np.floor(np.asarray(e, float) * 1e5)
        return np.cos(phase), np.sin(phase)

    planar = PlanarCurve(lambda e: (np.asarray(e, float), np.zeros_like(e)), d1, zeros, zeros,
                         0.0, 1.0)
    monkeypatch.setattr(hc, "_LIFT_MAX_CELLS", 2 * hc._LIFT_CELLS)
    edges, lengths, t_edges = hc._lift_table(planar, 0.0)
    assert edges.size - 1 <= 2 * hc._LIFT_CELLS and edges.size == lengths.size == t_edges.size
    assert np.all(np.diff(edges) > 0) and np.all(np.isfinite(t_edges))
    assert lengths[-1] == pytest.approx(1.0, rel=1e-14)
