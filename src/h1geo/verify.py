"""Named verification suites over the closed-form identities.

Each suite returns a list of Check records (measured vs expected with a
tolerance and the source of the expected value); the CLI and the acceptance
tests share these implementations.  All randomness is seeded, so reports
are deterministic.  The Bernstein graphs t = xy + g(y) the suites build
take g as text, read by `surfaces.parse_g`, as the CLI's --g is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import curvature as crv
from . import measures as msr
from .geodesics import (
    FieldAlongGeodesic,
    GeodesicSpec,
    conserved_quantity,
    cut_time,
    geodesic_point,
    geodesic_residual,
    jacobi_residual,
    tangent_jacobi_field,
)
from .hcurves import helix_curve, line_curve
from .hgroup import ORIGIN, Point, frame_to_cartesian
from .surfaces import (
    BernsteinGraph,
    SigmaLambdaPatch,
    SigmaZeroPatch,
    SpherePatch,
    cylinder_S,
    helicoid_L,
    parse_g,
    plane_patch,
    sphere_graph,
)

SEED = 20240915


# g of the Bernstein graphs t = xy + g(y) the suites build, read by parse_g
G_SQUARE = "y^2"
G_AFFINE = "3*y + 7"
G_CUBIC = "y^3"


@dataclass(frozen=True)
class Check:
    """One verified identity: pass iff the deviation is within tolerance.

    mode 'abs': |measured - expected| <= tol
    mode 'rel': |measured - expected| <= tol * |expected|
    mode 'min': measured >= expected (tol unused; separation checks)
    """

    name: str
    measured: float
    expected: float
    tol: float
    source: str
    mode: str = "abs"

    @property
    def passed(self) -> bool:
        if self.mode == "min":
            return bool(self.measured >= self.expected)
        gap = abs(self.measured - self.expected)
        if self.mode == "rel":
            return bool(gap <= self.tol * abs(self.expected))
        return bool(gap <= self.tol)

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


DEFAULT_TOLERANCES = {
    "geodesic-residual": 1e-8,
    "pole-concurrence": 1e-12,
    "cut-flat": 1e-15,
    "cut-reflection": 1e-12,
    "cut-bisection": 1e-10,
    "conserved-std": 1e-10,
    "conserved-orthogonal": 1e-10,
    "jacobi-orthogonal": 1e-6,
    "jacobi-tangent": 1e-10,
    "mean-curvature": 1e-4,
    "graph-pde": 1e-6,
    "ruling": 1e-5,
    "helicoid-c2": 1e-12,
    "helicoid-offsets": 1e-8,
    "helicoid-distinct": 1e-6,
    "sphere-area": 1e-4,
    "sphere-volume": 1e-4,
    "minkowski": 1e-4,
    "dilation": 1e-4,
    "first-variation": 1e-3,
    "orthogonality": 1e-6,
    "bernstein-defect": 1e-6,
    "calibration-zero": 1e-6,
    "calibration-control": 1e-2,
    "iso-ratio": 1e-3,
}


def _tol(tols: dict | None, name: str) -> float:
    return (tols or {}).get(name, DEFAULT_TOLERANCES[name])


def _relative(gap, scale) -> float:
    """|gap| / |scale|, inf or nan where scale is 0, so the check fails."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.abs(gap) / np.abs(np.float64(scale)))


def _bisect_cut(h, lam):
    def f(s):
        z = 2 * lam * s
        return 2 * lam * np.sin(z) / (1 - np.cos(z)) - h

    span = np.pi / abs(lam)
    lo, hi = 1e-6 * span, (1 - 1e-6) * span
    flo = f(lo)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------


def suite_geodesics(tols=None) -> list[Check]:
    rng = np.random.default_rng(SEED)
    checks = []

    n = 10_000
    theta = rng.uniform(0, 2 * np.pi, n)
    lam = np.exp(rng.uniform(np.log(1e-9), np.log(10.0), n)) * rng.choice([-1, 1], n)
    smax = np.minimum(10.0, np.pi / np.abs(lam))
    s = rng.uniform(0, 1, n) * smax
    res = geodesic_residual(GeodesicSpec(ORIGIN, theta, lam), s)
    checks.append(Check("geodesic-residual", float(np.max(res)), 0.0,
                        _tol(tols, "geodesic-residual"),
                        "closed form solves the geodesic equation"))

    th64 = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pole = geodesic_point(GeodesicSpec(ORIGIN, th64, 1.0), np.pi).as_array()
    gap = float(np.max(np.abs(pole - [0.0, 0.0, np.pi / 2])))
    checks.append(Check("pole-concurrence", gap, 0.0, _tol(tols, "pole-concurrence"),
                        "all unit-curvature geodesics meet at (0,0,pi/2) after length pi"))

    checks.append(Check("cut-flat", float(cut_time(0.0, 1.0)), np.pi / 2,
                        _tol(tols, "cut-flat"), "flat generator cut at pi/(2 lambda)"))

    h = rng.uniform(-10, 10, 1000)
    lam2 = rng.uniform(0.2, 4.0, 1000) * rng.choice([-1, 1], 1000)
    refl = float(np.max(np.abs(cut_time(h, lam2) + cut_time(-h, lam2) - np.pi / np.abs(lam2))))
    checks.append(Check("cut-reflection", refl, 0.0, _tol(tols, "cut-reflection"),
                        "cut(h) + cut(-h) = pi/|lambda|"))

    worst = 0.0
    for _ in range(40):
        hh = rng.uniform(-8, 8)
        ll = rng.uniform(0.3, 3.0) * (1 if rng.uniform() < 0.5 else -1)
        worst = max(worst, abs(float(cut_time(hh, ll)) - _bisect_cut(hh, ll)))
    checks.append(Check("cut-bisection", worst, 0.0, _tol(tols, "cut-bisection"),
                        "bisection oracle on the cut equation"))
    return checks


def suite_jacobi(tols=None) -> list[Check]:
    """Each check draws its cases one by one, in the order of the seeded
    draws, and evaluates them in one batch: cases along the first axis,
    samples along the last."""
    rng = np.random.default_rng(SEED + 1)
    checks = []

    draws = np.array([[rng.uniform(0, 2 * np.pi), rng.uniform(-2, 2), rng.uniform(-2, 2)]
                      for _ in range(100)])
    theta, lam, b = draws.T[..., None]
    g = GeodesicSpec(ORIGIN, theta, lam)
    span = np.pi / np.maximum(np.abs(lam), 0.3)
    # C order, so that each row's std sums in the order of a single geodesic's
    s = np.ascontiguousarray(np.linspace(0, span[:, 0], 100, axis=-1))
    vals = conserved_quantity(g, tangent_jacobi_field(g, 0.0, b), s)
    checks.append(Check("conserved-std", float(np.max(np.std(vals, axis=-1))), 0.0,
                        _tol(tols, "conserved-std"),
                        "lambda<V,T> + <V,gamma'> is constant along geodesics"))

    worst = 0.0
    for curve in (line_curve(eps_min=-2, eps_max=2), helix_curve(1.0, eps_min=-2, eps_max=2)):
        patch = SigmaLambdaPatch(curve, 1.0, +1)
        eps = rng.uniform(-1.5, 1.5, 5)[:, None]
        s = np.array([rng.uniform(0.05, np.pi - 0.05, 40) for _ in range(eps.size)])
        worst = max(worst, float(np.max(np.abs(conserved_quantity(
            patch.generating_geodesic(eps), lambda u: patch.variation_coeffs(eps, u), s)))))
    checks.append(Check("conserved-orthogonal", worst, 0.0,
                        _tol(tols, "conserved-orthogonal"),
                        "orthogonal-family conserved quantity vanishes"))

    worst = 0.0
    count = 0
    for lam in (0.6, 1.0, 1.7):
        for curve in (line_curve(eps_min=-2, eps_max=2),
                      helix_curve(1.0, eps_min=-2, eps_max=2)):
            patch = SigmaLambdaPatch(curve, lam, +1)
            eps = rng.uniform(-1.5, 1.5, 6)[:, None]
            s = np.array([rng.uniform(0.05, np.pi / lam - 0.05, 28) for _ in range(eps.size)])
            g = patch.generating_geodesic(eps)
            fd_field = FieldAlongGeodesic(g, lambda u: patch.variation_coeffs(eps, u))
            count += s.size
            worst = max(worst, float(np.max(jacobi_residual(g, fd_field, s))))
    checks.append(Check("jacobi-orthogonal", worst, 0.0, _tol(tols, "jacobi-orthogonal"),
                        f"orthogonal variation fields solve the Jacobi equation "
                        f"({count} finite-difference samples)"))

    # per case: lam, theta, b, 10 s; then theta, a, b, 10 s of a lambda = 0 line
    draws = np.array([[rng.uniform(0.3, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(-2, 2),
                       *rng.uniform(0.1, 2.0, 10), rng.uniform(0, 2 * np.pi),
                       rng.uniform(-1, 1), rng.uniform(-1, 1), *rng.uniform(-2, 2, 10)]
                      for _ in range(20)])
    lam, theta, b = draws[:, :3].T[..., None]
    g = GeodesicSpec(ORIGIN, theta, lam)
    worst = float(np.max(jacobi_residual(g, tangent_jacobi_field(g, 0.0, b), draws[:, 3:13])))
    theta0, a0, b0 = draws[:, 13:16].T[..., None]
    g0 = GeodesicSpec(ORIGIN, theta0, 0.0)
    worst = max(worst, float(np.max(jacobi_residual(g0, tangent_jacobi_field(g0, a0, b0),
                                                    draws[:, 16:]))))
    checks.append(Check("jacobi-tangent", worst, 0.0, _tol(tols, "jacobi-tangent"),
                        "tangent fields b gamma' (and (as+b) gamma' when lambda = 0)"))
    return checks


def ruling_cases():
    """The two checks of the ruling property, as (check name, arclen,
    n_steps, source, cases), each case a (label, patch, seeds) triple.

    In the geodesic charts of `ruling` the characteristic velocity is
    constant in parameter space, so RK4 is exact at any step count: 4 steps
    read rounding only, and the check tests the launch angle and lambda.
    On the graph sheets of `ruling[graph-sheets]` the characteristics curve
    in the chart, so the RK4 trace is independent of the closed-form
    geodesic it is compared with.  Their seeds keep the traces at least 0.1
    from the singular set and from the strip or rim edge, where the graph
    chart folds.
    """
    line = line_curve(eps_min=-3, eps_max=3)
    lower, upper = sphere_graph(1.0)
    cyl_lower, cyl_upper = cylinder_S(1.0)
    sheet_seeds = [(0.3, 0.4), (2.0, 0.6), (4.0, 0.75)]
    strip_seeds = [(0.0, 0.25), (0.5, -0.25)]
    return [
        ("ruling", 1.0, 4,
         "characteristic traces follow curvature-H geodesics over arclength 1 "
         "(constant chart velocity: RK4 is exact, 4 steps)", [
             ("sphere", SpherePatch(1.0), [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
             ("sigma-lambda", SigmaLambdaPatch(line, 1.0, +1),
              [(0.0, 0.5), (-1.0, 0.45), (1.2, 0.55)]),
             ("cylinder(sigma chart)", SigmaLambdaPatch(line, 1.0, -1),
              [(0.0, 0.5), (0.7, 0.6)]),
             ("helicoid", helicoid_L(1.0, 1.0, k_max=1).pieces[0], [(0.0, 0.5), (0.4, 0.55)]),
             ("bernstein(affine)", BernsteinGraph(parse_g(G_AFFINE)), [(0.5, 0.5), (1.0, -0.5)]),
         ]),
        ("ruling[graph-sheets]", 0.3, 40,
         "characteristic traces, curved in the graph chart, follow curvature-H "
         "geodesics over arclength 0.3 (RK4, 40 steps)", [
             ("sphere-lower", lower, sheet_seeds),
             ("sphere-upper", upper, sheet_seeds),
             ("cylinder-lower", cyl_lower, strip_seeds),
             ("cylinder-upper", cyl_upper, strip_seeds),
             ("sphere-lower(translated,dilated)",
              lower.translated(Point(0.3, -0.2, 0.5)).dilated(0.4), [(1.0, 0.5), (3.5, 0.65)]),
         ]),
    ]


def suite_curvature(tols=None) -> list[Check]:
    rng = np.random.default_rng(SEED + 2)
    checks = []
    tol_h = _tol(tols, "mean-curvature")

    cases = []
    sp = SpherePatch(1.0)
    cases.append(("sphere", sp, 1.0, (0.4, np.pi - 0.4)))
    sl = SigmaLambdaPatch(line_curve(eps_min=-2, eps_max=2), 1.0, +1)
    cases.append(("sigma-lambda(x-axis)", sl, 1.0, (0.15, 0.85)))
    lo, up = cylinder_S(1.0)
    cases.append(("cylinder-lower", lo, 1.0, (-0.4, 0.4)))
    cases.append(("cylinder-upper", up, 1.0, (-0.4, 0.4)))
    fam4 = helicoid_L(1.0, 1.0, k_max=4)
    for i, k in enumerate((0, 1, 4, 5)):   # levels 1 and 2 of both branches
        cases.append((f"helicoid-piece{i}", fam4.pieces[k], 1.0, (0.2, 0.8)))
    cases.append(("bernstein(y^2)", BernsteinGraph(parse_g(G_SQUARE)), 0.0, (1.0, 2.5)))
    sz = SigmaZeroPatch(helix_curve(1.0, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
    cases.append(("sigma-zero(helix)", sz, 0.0, (0.3, 1.2)))

    for name, patch, expected, (lo_s, hi_s) in cases:
        eps = rng.uniform(patch.eps_lo + 0.3, patch.eps_hi - 0.3, 40)
        s = rng.uniform(lo_s, hi_s, 40)
        H = crv.mean_curvature_char(patch, eps, s)
        checks.append(Check(f"mean-curvature[{name}]", float(np.max(np.abs(H - expected))),
                            0.0, tol_h, f"constant mean curvature {expected:g}"))

    lower, upper = sphere_graph(1.0)
    phi = rng.uniform(0, 2 * np.pi, 100)
    rho = rng.uniform(0.05, 0.95, 100)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    worst = max(float(np.max(np.abs(crv.graph_pde_residual(upper, x, y, 1.0)))),
                float(np.max(np.abs(crv.graph_pde_residual(lower, x, y, -1.0)))))
    checks.append(Check("graph-pde[sphere-sheets]", worst, 0.0, _tol(tols, "graph-pde"),
                        "radial sheets solve the prescribed-curvature graph equation"))

    for check, arclen, n_steps, source, ruling in ruling_cases():
        worst = max(crv.characteristic_deviation(patch, *np.array(seeds).T,
                                                 arclen=arclen, n_steps=n_steps)
                    for _label, patch, seeds in ruling)
        checks.append(Check(check, worst, 0.0, _tol(tols, "ruling"), source))

    c2_gap = abs(fam4.measured_lift(2, 1) - (np.pi / 2 - fam4.measured_lift(1, 1)))
    c2_gap = min(c2_gap, abs(c2_gap - fam4.pitch))
    checks.append(Check("helicoid-c2", c2_gap, 0.0,
                        _tol(tols, "helicoid-c2"),
                        "measured c2 = pi/(2 lambda^2) - measured c1"))
    worst = max(fam4.offset_defect(b, k) for b in (1, 2) for k in range(1, 5))
    worst = max(worst, fam4.match_residual)
    checks.append(Check("helicoid-offsets", worst, 0.0, _tol(tols, "helicoid-offsets"),
                        "singular helices sit at the predicted vertical offsets (mod pitch)"))
    lifts = fam4.canonical_lifts()
    keys = list(lifts)
    min_gap = np.inf
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            d = abs(lifts[keys[i]] - lifts[keys[j]])
            min_gap = min(min_gap, min(d, fam4.pitch - d))
    checks.append(Check("helicoid-distinct", float(min_gap),
                        _tol(tols, "helicoid-distinct"), 0.0,
                        "all singular helices are pairwise distinct", mode="min"))
    return checks


def suite_minkowski(tols=None, n: int = 256) -> list[Check]:
    checks = []
    areas = {}
    for lam in (0.5, 1.0, 2.0):
        sp = SpherePatch(lam)
        res = msr.quad_many(sp, n, ("area", "volume"))
        a, v = res["area"].value, res["volume"].value
        areas[lam] = a
        checks.append(Check(f"sphere-area[lam={lam:g}]", a, np.pi**2 / lam**3,
                            _tol(tols, "sphere-area"),
                            "A = pi^2/lambda^3", mode="rel"))
        checks.append(Check(f"sphere-volume[lam={lam:g}]", v, 3 * np.pi**2 / (8 * lam**4),
                            _tol(tols, "sphere-volume"),
                            "V = 3 pi^2/(8 lambda^4)", mode="rel"))
        checks.append(Check(f"minkowski[lam={lam:g}]",
                            abs(3 * a - 8 * lam * v) / (3 * a), 0.0,
                            _tol(tols, "minkowski"), "3A = 8HV"))

    sp = SpherePatch(1.0)
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    dilations = (-0.5, np.log(2.0))
    for s0, (ra, rv), (ra2, _) in zip(dilations, msr.dilation_homogeneity(sp, dilations, 96),
                                      msr.dilation_homogeneity(sl, dilations, 96)):
        checks.append(Check(f"dilation-area[sphere,s={s0:.3f}]", ra, np.exp(3 * s0),
                            _tol(tols, "dilation"), "area scales by e^{3s}", mode="rel"))
        checks.append(Check(f"dilation-volume[sphere,s={s0:.3f}]", rv, np.exp(4 * s0),
                            _tol(tols, "dilation"), "volume scales by e^{4s}", mode="rel"))
        checks.append(Check(f"dilation-area[sigma,s={s0:.3f}]", ra2, np.exp(3 * s0),
                            _tol(tols, "dilation"), "area scales by e^{3s}", mode="rel"))

    # the stretch u = t, (x, y, t) -> (x, y, (1 + tau) t), scales Lebesgue volume
    # by 1 + tau, so V'(0) = V; its normal speed is t N_T
    def stretch(e, s):
        fe, fs, p = sp.partials(e, s)
        return p.t, frame_to_cartesian(p, fe)[..., 2], frame_to_cartesian(p, fs)[..., 2]

    def stretch_speed(e, s):
        p, _, _, raw = sp.frame(e, s)
        return p.t * raw[..., 2] / np.linalg.norm(raw, axis=-1)

    def mean_zero(e, s):
        return np.cos(np.asarray(e, float)) + 0.0 * np.asarray(s)

    tol = _tol(tols, "first-variation")
    fv, fv0 = msr.first_variation(sp, (stretch_speed, mean_zero))
    a1, v1 = fv["a_prime"].value, fv["v_prime"].value
    checks.append(Check("first-variation[stretch]", _relative(a1 - 2.0 * sp.lam * v1, a1), 0.0,
                        tol, "A'(0) = 2H V'(0) under the stretch u = t"))
    fd = msr.first_variation_check(sp, stretch, dt=1e-3, n=16)
    checks.append(Check("first-variation[volume-rate]", fd.v_prime, 3 * np.pi**2 / 8, tol,
                        "V'(0) = V = 3 pi^2/8 under the stretch u = t", mode="rel"))
    checks.append(Check("first-variation[mean-zero]",
                        abs(fv0["a_prime"].value) / areas[1.0], 0.0, tol,
                        "A'(0) = 0 for volume-preserving modes"))
    checks.append(Check("first-variation[formula]", _relative(a1 - fd.a_prime, fd.a_prime), 0.0,
                        tol, "A'(0) = -integral 2H t N_T against the vertical variation u = t"))
    return checks


def suite_bernstein(tols=None, g=None) -> list[Check]:
    """`g`, a text for parse_g, replaces the suite's two graphs t = xy + g(y)."""
    rng = np.random.default_rng(SEED + 3)
    checks = []
    tol_orth = _tol(tols, "orthogonality")

    for label, curve in (("x-axis", line_curve(eps_min=-2, eps_max=2)),
                         ("helix", helix_curve(1.0, eps_min=-2, eps_max=2))):
        patch = SigmaLambdaPatch(curve, 1.0, +1)
        worst = max(float(np.max(np.abs(crv.orthogonality_defect(
            patch, idx, rng.uniform(-1.0, 1.0, 8))))) for idx in (0, 1))
        checks.append(Check(f"orthogonality[sigma,{label}]", worst, 0.0, tol_orth,
                            "characteristic curves meet singular curves at right angles"))

    for label, text in [(g, g)] if g else [("ay+b", G_AFFINE), ("y^2", G_SQUARE)]:
        patch = BernsteinGraph(parse_g(text))
        y = rng.uniform(-1.0, 1.0, 8)
        ddg = patch.jet(y)[2]
        worst = float(np.max(np.abs(crv.orthogonality_defect(patch, 0, y) - (-ddg / 2.0))))
        stationary = bool(np.all(np.abs(patch.jet(np.linspace(-2, 2, 64))[2]) < 1e-12))
        verdict = "area-stationary" if stationary else "NOT area-stationary"
        checks.append(Check(f"bernstein-defect[t=xy+{label}]", worst, 0.0,
                            _tol(tols, "bernstein-defect"),
                            f"defect equals -g''/2 ({verdict})"))

    tol_cal = _tol(tols, "calibration-zero")
    for label, graph in (("planes", plane_patch((-0.7, 0.4, 1.0))),
                         ("t=xy", BernsteinGraph(parse_g("0"))),
                         ("t=xy+2y+1", BernsteinGraph(parse_g("2*y + 1")))):
        pts = rng.uniform(-2, 2, size=(100, 3))
        q = Point(pts[:, 0], pts[:, 1], pts[:, 2])
        keep = crv.locus_distance(graph, q) > 0.05
        q = Point(pts[keep, 0], pts[keep, 1], pts[keep, 2])
        div = crv.calibration_divergence(graph, q)
        checks.append(Check(f"calibration-zero[{label}]", float(np.max(np.abs(div))), 0.0,
                            tol_cal, "foliation field is divergence-free"))

    cubic = BernsteinGraph(parse_g(G_CUBIC))
    y0 = np.array([[0.4], [0.7], [-0.9]])
    x0 = -3.0 * y0**2 / 2.0
    q = Point(x0 + [-2e-6, 2e-6, 5e-6], y0, 0.1)
    worst = float(np.max(np.abs(crv.calibration_divergence(cubic, q))))
    checks.append(Check("calibration-control[t=xy+y^3]", worst,
                        _tol(tols, "calibration-control"), 0.0,
                        "non-stationary family shows a divergence jump at the locus",
                        mode="min"))
    return checks


def suite_iso(tols=None, n: int = 256) -> list[Check]:
    checks = []
    expect = (8.0 / 3.0) ** 3 * np.pi**2
    for lam in (0.5, 1.0, 2.0):
        r = msr.iso_ratio(SpherePatch(lam), n)
        checks.append(Check(f"iso-ratio[lam={lam:g}]", r, expect,
                            _tol(tols, "iso-ratio"),
                            "A^4/V^3 = (8/3)^3 pi^2, independent of lambda", mode="rel"))
    return checks


SUITES = {
    "geodesics": suite_geodesics,
    "jacobi": suite_jacobi,
    "curvature": suite_curvature,
    "minkowski": suite_minkowski,
    "bernstein": suite_bernstein,
    "iso": suite_iso,
}


def run_suite(name: str, tols=None, g=None) -> list[Check]:
    """Checks of one named suite, or of every suite in order for 'all';
    `g`, a text for parse_g, replaces the bernstein suite's graphs."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    if g:
        parse_g(g)   # a malformed g fails before any suite runs
    suites = dict(SUITES, bernstein=lambda t: suite_bernstein(t, g))
    return [c for key in (SUITES if name == "all" else (name,)) for c in suites[key](tols)]
