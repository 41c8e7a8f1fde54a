"""Named verification suites over the closed-form identities.

Each suite returns a list of Check records (measured vs expected with a
tolerance and the source of the expected value); the CLI and the acceptance
tests share these implementations.  All randomness is seeded, so reports
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .hgroup import ORIGIN, Point
from .surfaces import (
    bernstein_graph,
    build_sigma_lambda,
    build_sigma_zero,
    cylinder_S,
    helicoid_L,
    sphere_geodesic,
    sphere_graph,
)

SEED = 20240915


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
        return {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tol": self.tol,
            "mode": self.mode,
            "source": self.source,
            "passed": self.passed,
        }


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
    if tols and name in tols:
        return tols[name]
    return DEFAULT_TOLERANCES[name]


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
    rng = np.random.default_rng(SEED + 1)
    checks = []

    worst_std = 0.0
    for _ in range(100):
        g = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), rng.uniform(-2, 2))
        field = tangent_jacobi_field(g, 0.0, rng.uniform(-2, 2))
        span = np.pi / max(abs(float(np.asarray(g.lam))), 0.3)
        vals = conserved_quantity(g, field, np.linspace(0, span, 100))
        worst_std = max(worst_std, float(np.std(vals)))
    checks.append(Check("conserved-std", worst_std, 0.0, _tol(tols, "conserved-std"),
                        "lambda<V,T> + <V,gamma'> is constant along geodesics"))

    worst = 0.0
    for curve in (line_curve(eps_min=-2, eps_max=2), helix_curve(1.0, eps_min=-2, eps_max=2)):
        patch = build_sigma_lambda(curve, 1.0, +1)
        for eps in rng.uniform(-1.5, 1.5, 5):
            field = patch.variation_field(float(eps))
            s = rng.uniform(0.05, np.pi - 0.05, 40)
            worst = max(worst, float(np.max(np.abs(
                conserved_quantity(field.geodesic, field, s)))))
    checks.append(Check("conserved-orthogonal", worst, 0.0,
                        _tol(tols, "conserved-orthogonal"),
                        "orthogonal-family conserved quantity vanishes"))

    worst = 0.0
    count = 0
    for lam in (0.6, 1.0, 1.7):
        for curve in (line_curve(eps_min=-2, eps_max=2),
                      helix_curve(1.0, eps_min=-2, eps_max=2)):
            patch = build_sigma_lambda(curve, lam, +1)
            for eps in rng.uniform(-1.5, 1.5, 6):
                g = patch.generating_geodesic(float(eps))
                coeffs = patch.variation_field(float(eps)).coeffs
                fd_field = FieldAlongGeodesic(g, coeffs)  # no analytic derivative
                s = rng.uniform(0.05, np.pi / lam - 0.05, 28)
                count += s.size
                worst = max(worst, float(np.max(jacobi_residual(g, fd_field, s))))
    checks.append(Check("jacobi-orthogonal", worst, 0.0, _tol(tols, "jacobi-orthogonal"),
                        f"orthogonal variation fields solve the Jacobi equation "
                        f"({count} finite-difference samples)"))

    worst = 0.0
    for _ in range(20):
        lam = rng.uniform(0.3, 2.0)
        g = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), lam)
        field = tangent_jacobi_field(g, 0.0, rng.uniform(-2, 2))
        worst = max(worst, float(np.max(jacobi_residual(g, field, rng.uniform(0.1, 2.0, 10)))))
        g0 = GeodesicSpec(ORIGIN, rng.uniform(0, 2 * np.pi), 0.0)
        field0 = tangent_jacobi_field(g0, rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst = max(worst, float(np.max(jacobi_residual(g0, field0, rng.uniform(-2, 2, 10)))))
    checks.append(Check("jacobi-tangent", worst, 0.0, _tol(tols, "jacobi-tangent"),
                        "tangent fields b gamma' (and (as+b) gamma' when lambda = 0)"))
    return checks


def suite_curvature(tols=None) -> list[Check]:
    rng = np.random.default_rng(SEED + 2)
    checks = []
    tol_h = _tol(tols, "mean-curvature")

    cases = []
    sp = sphere_geodesic(1.0)
    cases.append(("sphere", sp, 1.0, (0.4, np.pi - 0.4)))
    sl = build_sigma_lambda(line_curve(eps_min=-2, eps_max=2), 1.0, +1)
    cases.append(("sigma-lambda(x-axis)", sl, 1.0, (0.15, 0.85)))
    lo, up = cylinder_S(1.0)
    cases.append(("cylinder-lower", lo, 1.0, (-0.4, 0.4)))
    cases.append(("cylinder-upper", up, 1.0, (-0.4, 0.4)))
    fam = helicoid_L(1.0, 1.0, k_max=2)
    for i, piece in enumerate(fam.pieces[:4]):
        cases.append((f"helicoid-piece{i}", piece, 1.0, (0.2, 0.8)))
    bg = bernstein_graph(lambda y: np.asarray(y, float) ** 2,
                         lambda y: 2 * np.asarray(y, float),
                         lambda y: 2.0 + 0 * np.asarray(y, float))
    cases.append(("bernstein(y^2)", bg, 0.0, (1.0, 2.5)))
    sz = build_sigma_zero(helix_curve(1.0, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
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

    ruling_cases = [
        ("sphere", sp, [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
        ("sigma-lambda", build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, +1),
         [(0.0, 0.5), (-1.0, 0.45), (1.2, 0.55)]),
        ("cylinder(sigma chart)", build_sigma_lambda(line_curve(eps_min=-3, eps_max=3), 1.0, -1),
         [(0.0, 0.5), (0.7, 0.6)]),
        ("helicoid", fam.pieces[0], [(0.0, 0.5), (0.4, 0.55)]),
        ("bernstein(affine)", bernstein_graph(
            lambda yy: 3 * np.asarray(yy, float) + 7,
            lambda yy: 3.0 + 0 * np.asarray(yy, float),
            lambda yy: 0.0 * np.asarray(yy, float)), [(0.5, 0.5), (1.0, -0.5)]),
    ]
    worst = 0.0
    for _name, patch, seeds in ruling_cases:
        e0, s0 = np.array(seeds).T
        worst = max(worst, crv.characteristic_deviation(patch, e0, s0,
                                                        arclen=1.0, n_steps=200))
    checks.append(Check("ruling", worst, 0.0, _tol(tols, "ruling"),
                        "characteristic traces follow curvature-H geodesics over arclength 1"))

    fam4 = helicoid_L(1.0, 1.0, k_max=4)
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
    for lam in (0.5, 1.0, 2.0):
        sp = sphere_geodesic(lam)
        res = msr.quad_many(sp, n, ("area", "volume"))
        a, v = res["area"].value, res["volume"].value
        checks.append(Check(f"sphere-area[lam={lam:g}]", a, np.pi**2 / lam**3,
                            _tol(tols, "sphere-area"),
                            "A = pi^2/lambda^3", mode="rel"))
        checks.append(Check(f"sphere-volume[lam={lam:g}]", v, 3 * np.pi**2 / (8 * lam**4),
                            _tol(tols, "sphere-volume"),
                            "V = 3 pi^2/(8 lambda^4)", mode="rel"))
        checks.append(Check(f"minkowski[lam={lam:g}]",
                            abs(3 * a - 8 * lam * v) / (3 * a), 0.0,
                            _tol(tols, "minkowski"), "3A = 8HV"))

    sp = sphere_geodesic(1.0)
    sl = build_sigma_lambda(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    for s0 in (-0.5, np.log(2.0)):
        ra, rv = msr.dilation_homogeneity(sp, s0, 96)
        checks.append(Check(f"dilation-area[sphere,s={s0:.3f}]", ra, np.exp(3 * s0),
                            _tol(tols, "dilation"), "area scales by e^{3s}", mode="rel"))
        checks.append(Check(f"dilation-volume[sphere,s={s0:.3f}]", rv, np.exp(4 * s0),
                            _tol(tols, "dilation"), "volume scales by e^{4s}", mode="rel"))
        ra2, _ = msr.dilation_homogeneity(sl, s0, 96)
        checks.append(Check(f"dilation-area[sigma,s={s0:.3f}]", ra2, np.exp(3 * s0),
                            _tol(tols, "dilation"), "area scales by e^{3s}", mode="rel"))

    fv = msr.first_variation_check(sp, lambda e, s: 1.0 + 0.0 * np.asarray(e),
                                   dt=1e-4, n=96)
    checks.append(Check("first-variation[unit]", fv.defect / abs(fv.a_prime), 0.0,
                        _tol(tols, "first-variation"),
                        "A'(0) = 2H V'(0) under unit normal speed"))
    ref = {k: e.value for k, e in msr.quad_many(sp, 96, ("area", "rarea")).items()}
    checks.append(Check("first-variation[volume-rate]", fv.v_prime, -ref["rarea"],
                        _tol(tols, "first-variation"),
                        "V'(0) = -(Riemannian area) for u = 1", mode="rel"))
    fv0 = msr.first_variation_check(
        sp, lambda e, s: np.cos(np.asarray(e, float)) + 0.0 * np.asarray(s), dt=1e-4, n=96)
    checks.append(Check("first-variation[mean-zero]", abs(fv0.a_prime) / ref["area"], 0.0,
                        _tol(tols, "first-variation"),
                        "A'(0) = 0 for volume-preserving modes"))
    return checks


def suite_bernstein(tols=None, g_data=None) -> list[Check]:
    rng = np.random.default_rng(SEED + 3)
    checks = []
    tol_orth = _tol(tols, "orthogonality")

    for label, curve in (("x-axis", line_curve(eps_min=-2, eps_max=2)),
                         ("helix", helix_curve(1.0, eps_min=-2, eps_max=2))):
        patch = build_sigma_lambda(curve, 1.0, +1)
        worst = 0.0
        for idx in (0, 1):
            for eps in rng.uniform(-1.0, 1.0, 8):
                worst = max(worst, abs(float(crv.orthogonality_defect(patch, idx, float(eps)))))
        checks.append(Check(f"orthogonality[sigma,{label}]", worst, 0.0, tol_orth,
                            "characteristic curves meet singular curves at right angles"))

    if g_data is None:
        g_cases = [
            ("ay+b", (lambda y: 3 * np.asarray(y, float) + 7,
                      lambda y: 3.0 + 0 * np.asarray(y, float),
                      lambda y: 0.0 * np.asarray(y, float))),
            ("y^2", (lambda y: np.asarray(y, float) ** 2,
                     lambda y: 2 * np.asarray(y, float),
                     lambda y: 2.0 + 0 * np.asarray(y, float))),
        ]
    else:
        g_cases = [g_data]
    for label, (g, dg, ddg) in g_cases:
        patch = bernstein_graph(g, dg, ddg)
        worst = 0.0
        for y in rng.uniform(-1.0, 1.0, 8):
            defect = float(crv.orthogonality_defect(patch, 0, float(y)))
            worst = max(worst, abs(defect - (-float(np.asarray(ddg(y))) / 2.0)))
        stationary = bool(np.all(np.abs(ddg(np.linspace(-2, 2, 64))) < 1e-12))
        verdict = "area-stationary" if stationary else "NOT area-stationary"
        checks.append(Check(f"bernstein-defect[t=xy+{label}]", worst, 0.0,
                            _tol(tols, "bernstein-defect"),
                            f"defect equals -g''/2 ({verdict})"))

    tol_cal = _tol(tols, "calibration-zero")
    for label, fol in (("planes", crv.plane_foliation(0.7, -0.4)),
                       ("t=xy", crv.bernstein_foliation(0.0)),
                       ("t=xy+2y+1", crv.bernstein_foliation(2.0))):
        pts = rng.uniform(-2, 2, size=(100, 3))
        q = Point(pts[:, 0], pts[:, 1], pts[:, 2])
        keep = fol.locus_distance(q) > 0.05
        q = Point(pts[keep, 0], pts[keep, 1], pts[keep, 2])
        div = crv.calibration_divergence(fol, q)
        checks.append(Check(f"calibration-zero[{label}]", float(np.max(np.abs(div))), 0.0,
                            tol_cal, "foliation field is divergence-free"))

    cubic = crv.bernstein_foliation(lambda y: 3.0 * np.asarray(y, float) ** 2, label="cubic")
    worst = 0.0
    for y0 in (0.4, 0.7, -0.9):
        x0 = -3.0 * y0**2 / 2.0
        for d in (-2e-6, 2e-6, 5e-6):
            worst = max(worst, abs(float(crv.calibration_divergence(
                cubic, Point(x0 + d, y0, 0.1)))))
    checks.append(Check("calibration-control[t=xy+y^3]", worst,
                        _tol(tols, "calibration-control"), 0.0,
                        "non-stationary family shows a divergence jump at the locus",
                        mode="min"))
    return checks


def suite_iso(tols=None, n: int = 256) -> list[Check]:
    checks = []
    expect = (8.0 / 3.0) ** 3 * np.pi**2
    for lam in (0.5, 1.0, 2.0):
        r = msr.iso_ratio(sphere_geodesic(lam), n)
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


def run_suite(name: str, tols=None, **kwargs) -> list[Check]:
    """Checks of one named suite, or of every suite in order for 'all'."""
    if name != "all" and name not in SUITES:
        raise KeyError(name)
    out = []
    for key in SUITES if name == "all" else (name,):
        if key == "bernstein":
            out.extend(SUITES[key](tols, g_data=kwargs.get("g_data")))
        else:
            out.extend(SUITES[key](tols))
    return out
