from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import h1geo.hcurves as hc
from h1geo.errors import ConfigError, DegenerateCurve, NotArclength
from h1geo.geodesics import GeodesicSpec, geodesic_point
from h1geo.hcurves import (
    PlanarCurve,
    curve_from_samples,
    helix_curve,
    horizontal_lift,
    line_curve,
    load_curve_csv,
    reparameterize_arclength,
)
from h1geo.hgroup import ORIGIN, Point

RNG = np.random.default_rng(777)


def fd_tdot(curve, eps, h=1e-6):
    return (np.asarray(curve.t_of(eps + h)) - np.asarray(curve.t_of(eps - h))) / (2 * h)


def horizontality_defect(curve, n=400):
    eps = np.linspace(curve.eps_min + 1e-3, curve.eps_max - 1e-3, n)
    x, y = curve.planar.xy(eps)
    xd, yd = curve.planar.d1(eps)
    return np.max(np.abs(fd_tdot(curve, eps) - (xd * y - x * yd)))


def test_lift_of_x_axis_is_x_axis():
    planar = PlanarCurve(
        lambda e: (np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
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

    planar = PlanarCurve(xy, d1, d2, -1.5, 1.5)
    lifted = horizontal_lift(planar, 0.0)
    eps = np.linspace(-1.4, 1.4, 31)
    t_expect = (eps - np.sin(2 * r * eps) / (2 * r)) / (2 * r)
    # the lift integrates from eps_min, so match after anchoring at 0
    t_got = np.asarray(lifted.t_of(eps)) - np.asarray(lifted.t_of(0.0))
    assert np.max(np.abs(t_got - t_expect)) < 1e-9


def test_lift_rejects_constant_point():
    planar = PlanarCurve(
        lambda e: (np.ones_like(np.asarray(e, float)), np.ones_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)
    # zero speed is both degenerate and a (vacuous) arclength failure
    with pytest.raises(NotArclength):
        horizontal_lift(planar, 0.0)
    with pytest.raises(DegenerateCurve):
        horizontal_lift(planar, 0.0)


def test_lift_rejects_non_arclength():
    planar = PlanarCurve(
        lambda e: (2.0 * np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)
    with pytest.raises(NotArclength):
        horizontal_lift(planar, 0.0)


def test_lift_vertical_translation_freedom():
    r = 0.7
    a = helix_curve(r)
    planar = a.planar
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
    assert np.max(np.abs(line.planar_curvature(eps))) == 0.0

    r = 0.9
    helix = helix_curve(r)
    assert np.allclose(helix.planar_curvature(eps), -2 * r, atol=1e-14)


def test_planar_curvature_unit_circle():
    # positively traversed unit circle has curvature +1
    planar = PlanarCurve(
        lambda e: (np.cos(e), np.sin(e)),
        lambda e: (-np.sin(e), np.cos(e)),
        lambda e: (-np.cos(e), -np.sin(e)),
        0.0, 2 * np.pi)
    c = horizontal_lift(planar, 0.0)
    assert np.allclose(c.planar_curvature(np.linspace(0.2, 6.0, 12)), 1.0, atol=1e-14)


def test_reparameterize_identity_on_arclength_input():
    helix = helix_curve(1.1)
    out = reparameterize_arclength(helix.planar)
    eps = np.linspace(0.0, out.eps_max, 40)
    x0, y0 = helix.planar.xy(eps + helix.eps_min)
    x1, y1 = out.xy(eps)
    assert np.max(np.hypot(x1 - x0, y1 - y0)) < 1e-10


def test_reparameterize_constant_speed():
    planar = PlanarCurve(
        lambda e: (2.0 * np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        lambda e: (np.zeros_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)
    out = reparameterize_arclength(planar)
    assert out.eps_max == pytest.approx(2.0, abs=1e-12)
    eps = np.linspace(0, 2, 21)
    x, _ = out.xy(eps)
    assert np.allclose(x, eps, atol=1e-10)


def test_reparameterize_ellipse_speed():
    planar = PlanarCurve(
        lambda e: (2.0 * np.cos(e), np.sin(e)),
        lambda e: (-2.0 * np.sin(e), np.cos(e)),
        lambda e: (-2.0 * np.cos(e), -np.sin(e)),
        0.0, 2 * np.pi)
    out = reparameterize_arclength(planar)
    eps = np.linspace(0, out.eps_max, 1000)
    assert np.max(np.abs(out.speed(eps) - 1.0)) < 1e-8


def test_helix_is_geodesic_curve():
    r = 1.0
    helix = helix_curve(r)
    eps = np.linspace(helix.eps_min + 0.05, helix.eps_max - 0.05, 33)
    geo = geodesic_point(GeodesicSpec(ORIGIN, 0.0, r), eps)
    d = helix.position(eps).as_array() - geo.as_array()
    assert np.max(np.abs(d)) < 1e-13


def test_velocity_reads_only_the_planar_tangent():
    helix = helix_curve(0.8)
    calls = []

    def t_of(e):
        calls.append(e)
        return helix.t_of(e)

    curve = hc.HorizontalCurve(helix.planar, t_of)
    eps = np.linspace(-1.0, 1.0, 7)
    v = curve.velocity(eps)
    assert calls == []
    assert v.shape == (7, 3)
    assert np.array_equal(v[..., :2], np.stack(helix.planar.d1(eps), axis=-1))
    assert np.all(v[..., 2] == 0.0)


def test_horizontality_defect_on_catalog():
    for curve in (line_curve(0.4), helix_curve(0.8)):
        assert horizontality_defect(curve) < 1e-9


def test_curve_from_samples_roundtrip():
    # dense samples of the helix reproduce it after spline + reparam + lift
    helix = helix_curve(1.0, eps_min=-1.5, eps_max=1.5)
    eps = np.linspace(-1.5, 1.5, 400)
    x, y = helix.planar.xy(eps)
    rebuilt = curve_from_samples(eps, x, y, t0=float(helix.t_of(-1.5)))
    ee = np.linspace(0.05, rebuilt.eps_max - 0.05, 50)
    p = rebuilt.position(ee)
    q = helix.position(ee + helix.eps_min)
    assert np.max(np.abs(p.as_array() - q.as_array())) < 1e-6
    assert rebuilt.planar_curvature(1.0) == pytest.approx(-2.0, abs=1e-4)


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
    assert abs(helix.curvature_rate(0.3)) < 1e-10


def test_reparameterize_rejects_vanishing_speed():
    planar = PlanarCurve(
        lambda e: (np.asarray(e, float) ** 2, np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.asarray(e, float), np.zeros_like(np.asarray(e, float))),
        lambda e: (2.0 * np.ones_like(np.asarray(e, float)), np.zeros_like(np.asarray(e, float))),
        0.0, 1.0)  # speed vanishes at the eps = 0 grid endpoint
    with pytest.raises(DegenerateCurve):
        reparameterize_arclength(planar)


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
    return np.array([curve.t_of(float(e)) for e in np.ravel(eps)]).reshape(np.shape(eps))


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
    CSV_CURVE.t_of(CSV_CURVE.eps_min + span * np.array(earlier))
    order = list(range(eps.size))
    rnd.shuffle(order)
    assert np.array_equal(CSV_CURVE.t_of(eps[order]), expect[order])
    assert np.array_equal(pointwise(CSV_CURVE, eps), expect)
    assert isinstance(CSV_CURVE.t_of(float(eps[0])), float)
    if eps.size % 2 == 0:
        grid = eps.reshape(2, -1)
        assert np.array_equal(CSV_CURVE.t_of(grid), expect.reshape(2, -1))
        assert np.array_equal(CSV_CURVE.t_of(grid.T), expect.reshape(2, -1).T)


def test_lift_threads_match_serial():
    eps = np.linspace(CSV_CURVE.eps_min, CSV_CURVE.eps_max, 4001)
    chunks = np.array_split(eps[::-1], 40)
    serial = [CSV_FRESH.t_of(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(CSV_CURVE.t_of, chunks))
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


@pytest.mark.parametrize("closed", [
    helix_curve(0.5), helix_curve(1.0), helix_curve(3.0),
    line_curve(0.7, Point(0.3, -1.2, 0.5)), line_curve(1.0, Point(-4.0, 2.5, 0.0)),
], ids=["helix-0.5", "helix-1", "helix-3", "line", "line-far"])
def test_generic_lift_matches_closed_form(closed):
    lifted = horizontal_lift(closed.planar, float(closed.t_of(closed.eps_min)))
    eps = np.linspace(closed.eps_min, closed.eps_max, 2001)
    assert np.max(np.abs(lifted.t_of(eps) - closed.t_of(eps))) < 1e-13


def gl16(f, a, b):
    half = 0.5 * (b - a)
    e = (0.5 * (a + b))[:, None] + half[:, None] * GL16_NODES
    return half * (f(e) @ GL16_WEIGHTS)


def test_csv_lift_matches_knot_aligned_oracle():
    # reparameterize_arclength inverts the spline's arclength with PCHIP on a
    # 4096-point grid, so the integrand is smooth between those knots; the
    # oracle is a 16-point Gauss-Legendre rule on each knot interval
    u, x, y = CSV_SAMPLES
    sx, sy = CubicSpline(u, x), CubicSpline(u, y)
    ugrid = np.linspace(u[0], u[-1], 4096)
    knots = np.concatenate([[0.0], np.cumsum(gl16(
        lambda e: np.hypot(sx(e, 1), sy(e, 1)), ugrid[:-1], ugrid[1:]))])
    # the curve's knots come from composite Simpson, which is 2e-11 off here;
    # a knot that far from a cell edge costs the oracle nothing
    assert knots[-1] == pytest.approx(CSV_CURVE.eps_max, abs=1e-10)

    def tdot(e):
        xx, yy = CSV_CURVE.planar.xy(e)
        xd, yd = CSV_CURVE.planar.d1(e)
        return xd * yy - xx * yd

    at_knots = np.concatenate([[0.0], np.cumsum(gl16(tdot, knots[:-1], knots[1:]))])
    eps = np.linspace(0.0, CSV_CURVE.eps_max, 3001)[1:-1]
    k = np.searchsorted(knots, eps) - 1
    oracle = at_knots[k] + gl16(tdot, knots[k], eps)
    assert np.max(np.abs(CSV_CURVE.t_of(eps) - oracle)) < 1e-12


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

    planar = PlanarCurve(lambda e: (np.asarray(e, float), np.zeros_like(e)), d1, zeros, 0.0, 1.0)
    monkeypatch.setattr(hc, "_LIFT_MAX_CELLS", 2 * hc.VALIDATION_GRID)
    edges, t_edges = hc._lift_table(planar, 0.0)
    assert edges.size - 1 <= 2 * hc.VALIDATION_GRID and edges.size == t_edges.size
    assert np.all(np.diff(edges) > 0) and np.all(np.isfinite(t_edges))
