"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run `pytest -s tests/test_acceptance.py`
to see them live).  Expected values are closed forms, hand-derived constants,
or independent oracles (bisection, finite differences); tolerances are fixed
here and never loosened at runtime.
"""

import numpy as np
import pytest

from h1geo import curvature as crv
from h1geo import measures as msr
from h1geo.geodesics import (
    FieldAlongGeodesic,
    GeodesicSpec,
    conserved_quantity,
    cut_time,
    geodesic_point,
    geodesic_residual,
    jacobi_residual,
    tangent_jacobi_field,
)
from h1geo.hcurves import helix_curve, line_curve
from h1geo.hgroup import ORIGIN, Point, frame_to_cartesian
from h1geo.surfaces import (
    BernsteinGraph,
    SigmaLambdaPatch,
    SpherePatch,
    cylinder_S,
    helicoid_L,
    parse_g,
    plane_patch,
    sphere_graph,
)
from h1geo.verify import G_AFFINE, G_CUBIC, G_SQUARE

LAMBDAS = (0.5, 1.0, 2.0)


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sphere_quads():
    out = {}
    for lam in LAMBDAS:
        out[lam] = msr.quad_many(SpherePatch(lam), 256, ("area", "volume"))
    return out


def quadratic_g():
    return parse_g(G_SQUARE)


def affine_g():
    return parse_g(G_AFFINE)


def test_criterion_01_sphere_area(sphere_quads):
    worst = max(abs(sphere_quads[lam]["area"].value - np.pi**2 / lam**3)
                / (np.pi**2 / lam**3) for lam in LAMBDAS)
    report(1, worst < 1e-4, f"sphere area = pi^2/lambda^3, worst rel err {worst:.2e}")


def test_criterion_02_sphere_volume(sphere_quads):
    worst = max(abs(sphere_quads[lam]["volume"].value - 3 * np.pi**2 / (8 * lam**4))
                / (3 * np.pi**2 / (8 * lam**4)) for lam in LAMBDAS)
    report(2, worst < 1e-4, f"sphere volume = 3pi^2/(8 lambda^4), worst rel err {worst:.2e}")


def test_criterion_03_minkowski(sphere_quads):
    rng = np.random.default_rng(3)
    worst = 0.0
    for lam in LAMBDAS:
        sp = SpherePatch(lam)
        H = float(np.mean(crv.mean_curvature_char(
            sp, rng.uniform(0, 2 * np.pi, 20),
            rng.uniform(0.3 / lam, np.pi / lam - 0.3 / lam, 20))))
        a = sphere_quads[lam]["area"].value
        v = sphere_quads[lam]["volume"].value
        worst = max(worst, abs(3 * a - 8 * H * v) / (3 * a))
    report(3, worst < 1e-4, f"3A = 8HV with measured H, worst defect {worst:.2e}")


def test_criterion_04_iso_constant(sphere_quads):
    expect = (8.0 / 3.0) ** 3 * np.pi**2
    worst = max(abs(sphere_quads[lam]["area"].value**4
                    / sphere_quads[lam]["volume"].value**3 - expect) / expect
                for lam in LAMBDAS)
    report(4, worst < 1e-3, f"A^4/V^3 = (8/3)^3 pi^2 across lambda, worst rel err {worst:.2e}")


def test_criterion_05_geodesic_residual_and_poles():
    rng = np.random.default_rng(5)
    n = 10_000
    theta = rng.uniform(0, 2 * np.pi, n)
    lam = np.exp(rng.uniform(np.log(1e-9), np.log(10.0), n)) * rng.choice([-1, 1], n)
    s = rng.uniform(0, 1, n) * np.minimum(10.0, np.pi / np.abs(lam))
    res = float(np.max(geodesic_residual(GeodesicSpec(ORIGIN, theta, lam), s)))
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pole = geodesic_point(GeodesicSpec(ORIGIN, th, 1.0), np.pi).as_array()
    gap = float(np.max(np.abs(pole - [0, 0, np.pi / 2])))
    report(5, res < 1e-8 and gap < 1e-12,
           f"residual {res:.2e} over 1e4 samples, pole spread {gap:.2e}")


def test_criterion_06_conserved_quantity():
    rng = np.random.default_rng(6)
    worst_std = 0.0
    for _ in range(100):
        g = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), rng.uniform(-2, 2))
        field = tangent_jacobi_field(g, 0.0, rng.uniform(-2, 2))
        span = np.pi / max(abs(float(np.asarray(g.lam))), 0.3)
        worst_std = max(worst_std, float(np.std(
            conserved_quantity(g, field, np.linspace(0, span, 100)))))
    patch = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, +1)
    worst_orth = 0.0
    for eps in rng.uniform(-1.5, 1.5, 10):
        e = float(eps)
        vals = conserved_quantity(patch.generating_geodesic(e),
                                  lambda u: patch.variation_coeffs(e, u),
                                  rng.uniform(0.0, np.pi, 100))
        worst_orth = max(worst_orth, float(np.max(np.abs(vals))))
    report(6, worst_std < 1e-10 and worst_orth < 1e-10,
           f"constancy std {worst_std:.2e}, orthogonal-family value {worst_orth:.2e}")


def test_criterion_07_jacobi_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for lam in (0.6, 1.0, 1.7):
        for curve in (line_curve(eps_min=-2, eps_max=2),
                      helix_curve(1.0, eps_min=-2, eps_max=2)):
            patch = SigmaLambdaPatch(curve, lam, +1)
            for eps in rng.uniform(-1.5, 1.5, 6):
                e = float(eps)
                g = patch.generating_geodesic(e)
                field = FieldAlongGeodesic(g, lambda u: patch.variation_coeffs(e, u))
                s = rng.uniform(0.05, np.pi / lam - 0.05, 28)
                count += s.size
                worst = max(worst, float(np.max(jacobi_residual(g, field, s))))
    tan_ok = True
    for _ in range(20):
        g = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), rng.uniform(0.3, 2.0))
        tan_ok &= float(np.max(jacobi_residual(
            g, tangent_jacobi_field(g, 0.0, 1.3), rng.uniform(0.1, 2.0, 5)))) < 1e-10
        g0 = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), 0.0)
        tan_ok &= float(np.max(jacobi_residual(
            g0, tangent_jacobi_field(g0, 0.7, 1.3), rng.uniform(-2, 2, 5)))) < 1e-10
    # the a != 0 tangent candidates must fail when lambda != 0
    g1 = GeodesicSpec(ORIGIN, 0.4, 1.1)
    rejects = float(jacobi_residual(g1, tangent_jacobi_field(g1, 0.5, 0.0), 1.0)) > 1e-2
    report(7, worst < 1e-6 and tan_ok and rejects,
           f"variation-field residual {worst:.2e} over {count} samples "
           f"(finite-difference second derivative)")


def test_criterion_08_cut_identities():
    rng = np.random.default_rng(8)
    exact = float(cut_time(0.0, 1.0)) == np.pi / 2
    h = rng.uniform(-10, 10, 1000)
    lam = rng.uniform(0.2, 4.0, 1000) * rng.choice([-1, 1], 1000)
    refl = float(np.max(np.abs(cut_time(h, lam) + cut_time(-h, lam) - np.pi / np.abs(lam))))

    def bisect(hh, ll):
        span = np.pi / abs(ll)
        lo, hi = 1e-6 * span, (1 - 1e-6) * span

        def f(ss):
            z = 2 * ll * ss
            return 2 * ll * np.sin(z) / (1 - np.cos(z)) - hh

        flo = f(lo)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if flo * f(mid) <= 0:
                hi = mid
            else:
                lo, flo = mid, f(mid)
        return 0.5 * (lo + hi)

    worst_b = max(abs(float(cut_time(hh, ll)) - bisect(hh, ll))
                  for hh, ll in zip(rng.uniform(-8, 8, 30), rng.uniform(0.3, 3.0, 30)))
    report(8, exact and refl < 1e-12 and worst_b < 1e-10,
           f"cut(0,1) exact, reflection {refl:.2e}, bisection gap {worst_b:.2e}")


def test_criterion_09_mean_curvature():
    rng = np.random.default_rng(9)
    worst = 0.0
    cases = [(SpherePatch(1.0), 1.0, (0.4, np.pi - 0.4))]
    cases.append((SigmaLambdaPatch(line_curve(eps_min=-2, eps_max=2), 1.0, +1),
                  1.0, (0.15, 0.85)))
    lo, up = cylinder_S(1.0)
    cases.append((lo, 1.0, (-0.4, 0.4)))
    cases.append((up, 1.0, (-0.4, 0.4)))
    fam = helicoid_L(1.0, 1.0, k_max=2)
    for piece in fam.pieces:
        cases.append((piece, 1.0, (0.2, 0.8)))
    cases.append((BernsteinGraph(quadratic_g()), 0.0, (1.0, 2.5)))
    cases.append((BernsteinGraph(affine_g()), 0.0, (1.0, 2.5)))
    for patch, expected, (lo_s, hi_s) in cases:
        eps = rng.uniform(patch.eps_lo + 0.3, patch.eps_hi - 0.3, 30)
        s = rng.uniform(lo_s, hi_s, 30)
        H = crv.mean_curvature_char(patch, eps, s)
        worst = max(worst, float(np.max(np.abs(H - expected))))
    lam = 1.0
    lower, upper = sphere_graph(lam)
    phi = rng.uniform(0, 2 * np.pi, 100)
    rho = rng.uniform(0.05, 0.95, 100)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    pde = max(float(np.max(np.abs(crv.graph_pde_residual(upper, x, y, lam)))),
              float(np.max(np.abs(crv.graph_pde_residual(lower, x, y, -lam)))))
    report(9, worst < 1e-4 and pde < 1e-6,
           f"H constant within {worst:.2e}; sheet PDE residual {pde:.2e}")


def test_criterion_10_orthogonality():
    rng = np.random.default_rng(10)
    worst = 0.0
    for curve in (line_curve(eps_min=-2, eps_max=2),
                  helix_curve(1.0, eps_min=-2, eps_max=2)):
        patch = SigmaLambdaPatch(curve, 1.0, +1)
        for idx in (0, 1):
            for eps in rng.uniform(-1.0, 1.0, 8):
                worst = max(worst, abs(float(
                    crv.orthogonality_defect(patch, idx, float(eps)))))
    bg_aff = BernsteinGraph(affine_g())
    for y in rng.uniform(-1.0, 1.0, 8):
        worst = max(worst, abs(float(crv.orthogonality_defect(bg_aff, 0, float(y)))))
    bg_quad = BernsteinGraph(quadratic_g())
    neg = max(abs(float(crv.orthogonality_defect(bg_quad, 0, float(y))) - (-1.0))
              for y in rng.uniform(-1.0, 1.0, 8))
    report(10, worst < 1e-6 and neg < 1e-6,
           f"stationary defects {worst:.2e}; negative control hits -g''/2 "
           f"within {neg:.2e}")


def test_criterion_11_calibration():
    rng = np.random.default_rng(11)
    worst = 0.0
    for graph in (plane_patch((0.0, 0.0, 1.0)), plane_patch((-0.7, 0.4, 1.0)),
                  BernsteinGraph(parse_g("0")), BernsteinGraph(parse_g("2*y + 1"))):
        pts = rng.uniform(-2, 2, size=(100, 3))
        q = Point(pts[:, 0], pts[:, 1], pts[:, 2])
        keep = crv.locus_distance(graph, q) > 0.05
        div = crv.calibration_divergence(graph, Point(pts[keep, 0], pts[keep, 1], pts[keep, 2]))
        worst = max(worst, float(np.max(np.abs(div))))
    cubic = BernsteinGraph(parse_g(G_CUBIC))
    control = max(abs(float(crv.calibration_divergence(
        cubic, Point(-3.0 * 0.7**2 / 2.0 + d, 0.7, 0.1)))) for d in (-2e-6, 2e-6, 5e-6))
    report(11, worst < 1e-6 and control > 1e-2,
           f"stationary families divergence {worst:.2e}; control max {control:.2e}")


def test_criterion_12_helicoid_bookkeeping():
    fam = helicoid_L(1.0, 1.0, k_max=4)
    # measured second-branch lift against the reflection of the measured first
    c2_gap = abs(fam.measured_lift(2, 1) - (np.pi / 2 - fam.measured_lift(1, 1)))
    c2_gap = min(c2_gap, abs(c2_gap - fam.pitch))
    worst = max(fam.offset_defect(b, k) for b in (1, 2) for k in range(1, 5))
    worst = max(worst, fam.match_residual)
    lifts = fam.canonical_lifts()
    keys = list(lifts)
    min_gap = min(
        min(abs(lifts[a] - lifts[b]), fam.pitch - abs(lifts[a] - lifts[b]))
        for i, a in enumerate(keys) for b in keys[i + 1:])
    report(12, c2_gap < 1e-12 and worst < 1e-8 and min_gap > 1e-6,
           f"c2 identity {c2_gap:.1e}, offsets match within {worst:.2e}, "
           f"min curve separation {min_gap:.2e}")


def test_criterion_13_dilation_homogeneity():
    worst = 0.0
    sp = SpherePatch(1.0)
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    for s0 in (-0.5, np.log(2.0)):
        ra, rv = msr.dilation_homogeneity(sp, s0, 96)
        worst = max(worst, abs(ra - np.exp(3 * s0)) / np.exp(3 * s0),
                    abs(rv - np.exp(4 * s0)) / np.exp(4 * s0))
        ra2, _ = msr.dilation_homogeneity(sl, s0, 96)
        worst = max(worst, abs(ra2 - np.exp(3 * s0)) / np.exp(3 * s0))
    report(13, worst < 1e-4, f"(A, V) scale as (e^3s, e^4s), worst rel err {worst:.2e}")


def test_criterion_14_first_variation():
    # vertical variations p + tau u T: the stretch u = t, and u = cos eps
    sp = SpherePatch(1.0)

    def stretch(e, s):
        fe, fs, p = sp.partials(e, s)
        return p.t, frame_to_cartesian(p, fe)[..., 2], frame_to_cartesian(p, fs)[..., 2]

    fv = msr.first_variation_check(sp, stretch, dt=1e-4, n=16)
    rel = fv.defect / abs(fv.a_prime)
    fv0 = msr.first_variation_check(
        sp, lambda e, s: (np.cos(np.asarray(e, float)) + 0.0 * np.asarray(s),
                          -np.sin(np.asarray(e, float)) + 0.0 * np.asarray(s), 0.0),
        dt=1e-4, n=16)
    a = msr.area(sp, 96).value
    rel0 = abs(fv0.a_prime) / a
    report(14, rel < 1e-3 and rel0 < 1e-3,
           f"A'=2HV' defect {rel:.2e} of A'; mean-zero A' is {rel0:.2e} of A")


def test_criterion_15_ruling():
    # geodesic charts: the characteristic velocity is constant in the chart,
    # so RK4 is exact and 4 steps check the launch angle and lambda; graph
    # sheets: the characteristics curve in the chart, so the trace is an
    # independent check of the closed-form geodesic
    charts = [
        (SpherePatch(1.0), [(0.3, 1.2), (2.0, 1.8)]),
        (SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, +1),
         [(0.0, 0.5), (-1.0, 0.45)]),
        (SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, -1),
         [(0.0, 0.5), (0.7, 0.6)]),
        (helicoid_L(1.0, 1.0, k_max=1).pieces[0], [(0.0, 0.5), (0.4, 0.55)]),
        (BernsteinGraph(affine_g()), [(0.5, 0.5), (1.0, -0.5)]),
    ]
    sphere_lower, sphere_upper = sphere_graph(1.0)
    sheets = [
        (sphere_lower, [(0.5, 0.45), (3.0, 0.7)]),
        (sphere_upper, [(1.5, 0.5), (5.0, 0.65)]),
        *((sheet, [(-0.5, 0.26), (1.0, -0.25)]) for sheet in cylinder_S(1.0)),
        (sphere_upper.translated(Point(-0.4, 0.1, 0.2)).dilated(-0.3), [(2.5, 0.55)]),
    ]
    worst = 0.0
    for cases, arclen, n_steps in ((charts, 1.0, 4), (sheets, 0.3, 40)):
        for patch, seeds in cases:
            for e0, s0 in seeds:
                worst = max(worst, crv.characteristic_deviation(
                    patch, e0, s0, arclen=arclen, n_steps=n_steps))
    report(15, worst < 1e-5,
           f"characteristic traces track curvature-H geodesics within {worst:.2e}")
