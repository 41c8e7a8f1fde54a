"""Sub-Riemannian area and enclosed volume by tensor Gauss-Legendre quadrature.

The area of a patch is the integral of |N_H| against the Riemannian area
element, which in parameters is just |(F_eps x F_s)_H| d eps ds; the volume
enclosed by a closed oriented patch is -(1/4) of the flux of the dilation
generator W, i.e. -(1/4) <W, F_eps x F_s> d eps ds with the inner normal.
Neither integrand needs a normalization, so singular rows (|N_H| -> 0) are
handled by the quadrature never sampling cell endpoints.

`integrate` returns plain values from one sample sweep at a fixed n.
`quad_many` is the only place that wraps them in an Estimate: it sweeps a
ladder of resolutions from coarse to fine, with n as a cap, and stops once
the Richardson difference of two neighbouring levels meets RTOL or the
roundoff floor of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotClosedSurface, OrientationUnset, StepTooSmall
from .hgroup import W_field, dot_c
from .surfaces import ImmersedPatch, PerturbedPatch

GAUSS_ORDER = 8
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_BLOCK_SAMPLES = 1 << 17   # samples evaluated at once by a sweep
RTOL = 1e-10               # relative target of the Richardson difference
FLOOR_ULPS = 8             # roundoff floor, in ulps of sum |f| w
MIN_CELLS = 8              # coarsest level at which quad_many may stop


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float       # max(|I_m - I_prev|, roundoff floor of I_m)
    samples: int       # integrand samples of the sweep that gave value
    converged: bool    # the Richardson difference met max(RTOL |I_m|, floor)


def _axis_rule(lo: float, hi: float, n: int):
    """Gauss-Legendre points and weights for n equal cells on [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (centers[:, None] + half * _NODES[None, :]).ravel()
    wts = np.tile(half * _WEIGHTS, n)
    return pts, wts


def _sweep(patch: ImmersedPatch, n: int, kinds: tuple):
    """({kind: sum f w}, {kind: sum |f| w}) from one n x n-cell sweep shared
    between the integrands 'area', 'rarea' and 'volume'.

    The sweep runs in blocks of whole eps rows, about _BLOCK_SAMPLES samples
    each.  Each row's s-sum is kept and the rows are combined with the eps
    weights once at the end, so the values do not depend on the block size.
    """
    if patch.eps_hi == patch.eps_lo or patch.s_hi == patch.s_lo:
        return {k: 0.0 for k in kinds}, {k: 0.0 for k in kinds}
    eps_pts, eps_wts = _axis_rule(patch.eps_lo, patch.eps_hi, n)
    s_pts, s_wts = _axis_rule(patch.s_lo, patch.s_hi, n)
    rows = {k: np.empty(eps_pts.size) for k in kinds}
    # area and rarea integrands are >= 0, so only volume needs its own |f| sum
    abs_rows = {k: np.empty(eps_pts.size) for k in kinds if k == "volume"}
    block = max(1, _BLOCK_SAMPLES // s_pts.size)
    for start in range(0, eps_pts.size, block):
        p, _, _, raw = patch.frame(eps_pts[start:start + block, None], s_pts[None, :])
        for kind in kinds:
            if kind == "area":
                f = np.hypot(raw[..., 0], raw[..., 1])
            elif kind == "rarea":
                f = np.linalg.norm(raw, axis=-1)
            elif kind == "volume":
                f = -0.25 * dot_c(W_field(p), raw)
            else:
                raise ValueError(kind)
            if not np.all(np.isfinite(f)):
                raise NonFinite(f"{kind} integrand produced non-finite samples")
            rows[kind][start:start + block] = (f * s_wts).sum(axis=1)
            if kind in abs_rows:
                abs_rows[kind][start:start + block] = (np.abs(f) * s_wts).sum(axis=1)
    values = {k: float((r * eps_wts).sum()) for k, r in rows.items()}
    return values, {k: float((abs_rows[k] * eps_wts).sum()) if k in abs_rows else values[k]
                    for k in kinds}


def integrate(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """{kind: value} from one n x n-cell sweep (see _sweep)."""
    return _sweep(patch, n, kinds)[0]


def _levels(n: int) -> list:
    """Cells per side visited by quad_many, coarse to fine: n >> k for k from
    the coarsest level of at least MIN_CELLS // 2 (and at least k = 1) down
    to 0.  Halving by n >> k keeps the last pair (n // 2, n) of a fixed-n
    sweep for odd n too."""
    if n < 2:
        return [n]
    k = 1
    while n >> (k + 1) >= MIN_CELLS // 2:
        k += 1
    return [n >> j for j in range(k, -1, -1)]


def quad_many(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """{kind: Estimate}, refined until every kind converges, with n cells per
    side as the cap.

    At each level m >= MIN_CELLS, kind k has converged when
    |I_m - I_prev| <= max(RTOL |I_m|, floor_m), where floor_m is FLOOR_ULPS
    ulps of sum |f| w from the same sweep.  The error stated is
    max(|I_m - I_prev|, floor_m); a patch that never converges ends on the
    (n // 2, n) pair with its plain Richardson difference.
    """
    prev = None
    for m in _levels(n):
        values, mags = _sweep(patch, m, kinds)
        floors = {k: FLOOR_ULPS * np.finfo(float).eps * mags[k] for k in kinds}
        diffs = {k: abs(values[k] - prev[k]) if prev is not None else 0.0 for k in kinds}
        met = {k: prev is not None and m >= MIN_CELLS
               and diffs[k] <= max(RTOL * abs(values[k]), floors[k]) for k in kinds}
        if all(met.values()):
            break
        prev = values
    samples = (GAUSS_ORDER * m) ** 2
    return {k: Estimate(values[k], max(diffs[k], floors[k]), samples, met[k])
            for k in kinds}


def _values(patch: ImmersedPatch, n: int, kinds: tuple) -> list:
    """The values of quad_many, in the order of kinds."""
    res = quad_many(patch, n, kinds)
    return [res[k].value for k in kinds]


def area(patch: ImmersedPatch, n: int = 256) -> Estimate:
    """Sub-Riemannian area: integral of |N_H| d(area)."""
    return quad_many(patch, n, ("area",))["area"]


def riemannian_area(patch: ImmersedPatch, n: int = 128) -> Estimate:
    """Riemannian area of the patch (no |N_H| weight)."""
    return quad_many(patch, n, ("rarea",))["rarea"]


def volume_enclosed(patch: ImmersedPatch, n: int = 256) -> Estimate:
    """-(1/4) flux of W through the patch; the enclosed volume for closed
    patches oriented by the inner normal."""
    if patch.orientation not in (1, -1):
        raise OrientationUnset("volume needs an oriented patch")
    return quad_many(patch, n, ("volume",))["volume"]


def minkowski_check(patch: ImmersedPatch, H: float, n: int = 256) -> float:
    """|3A - 8 H V| / (3A) for a closed CMC patch."""
    if not patch.closed:
        raise NotClosedSurface("Minkowski identity applies to closed surfaces")
    a, v = _values(patch, n, ("area", "volume"))
    return abs(3.0 * a - 8.0 * H * v) / (3.0 * a)


def dilation_homogeneity(patch: ImmersedPatch, s: float, n: int = 128):
    """(A(phi_s patch)/A(patch), V(phi_s patch)/V(patch)); expected
    (e^{3s}, e^{4s})."""
    a0, v0 = _values(patch, n, ("area", "volume"))
    a1, v1 = _values(patch.dilated(s), n, ("area", "volume"))
    return a1 / a0, v1 / v0


def iso_ratio(patch: ImmersedPatch, n: int = 256) -> float:
    """A^4 / V^3, invariant under dilations; (8/3)^3 pi^2 on the spheres."""
    a, v = _values(patch, n, ("area", "volume"))
    return a**4 / v**3


@dataclass(frozen=True)
class FirstVariationResult:
    a_prime: float
    v_prime: float
    defect: float            # |A'(0) - 2 H V'(0)|


def first_variation_check(patch: ImmersedPatch, u, dt: float = 1e-4,
                          n: int = 128, H: float | None = None) -> FirstVariationResult:
    """Central-difference first variation under the normal perturbation u*N.

    Displaces by t*u*N for t = +-dt, integrates area and volume of each
    displaced patch in one sweep, and reports A'(0), V'(0) and the
    stationarity defect |A'(0) - 2 H V'(0)|.
    """
    if dt < 1e-7:
        raise StepTooSmall(f"variation step {dt} below 1e-7")
    if H is None:
        if patch.lam is None:
            raise ValueError("patch has no nominal curvature; pass H")
        H = patch.lam
    # both sides at the same fixed n: the difference needs identical nodes
    lo, hi = (integrate(PerturbedPatch(patch, u, t), n, ("area", "volume"))
              for t in (-dt, dt))
    a_prime = (hi["area"] - lo["area"]) / (2 * dt)
    v_prime = (hi["volume"] - lo["volume"]) / (2 * dt)
    return FirstVariationResult(a_prime, v_prime, abs(a_prime - 2.0 * H * v_prime))


def measures_report(patch: ImmersedPatch, surface: str, lam: float | None,
                    n: int = 128, H: float | None = None) -> dict:
    """Structured report with exact field names; open patches report null
    volume-dependent entries, and A = 0 or V = 0 (a degenerate domain) null
    ratios.  n caps the cells per side; `samples` is the size of the sweep
    the values come from, and `*_converged` says whether each met RTOL."""
    kinds = ("area", "volume") if patch.closed else ("area",)
    res = quad_many(patch, n, kinds)
    a = res["area"]
    if H is None:
        H = patch.lam
    report = {
        "surface": surface,
        "lambda": lam,
        "A": a.value,
        "A_err": a.error,
        "A_converged": a.converged,
        "V": None,
        "V_err": None,
        "V_converged": None,
        "H": H,
        "minkowski_defect": None,
        "iso_ratio": None,
        "samples": a.samples,
    }
    if patch.closed:
        v = res["volume"]
        report["V"] = v.value
        report["V_err"] = v.error
        report["V_converged"] = v.converged
        if H is not None and a.value != 0.0:
            report["minkowski_defect"] = abs(3 * a.value - 8 * H * v.value) / (3 * a.value)
        if v.value != 0.0:
            report["iso_ratio"] = a.value**4 / v.value**3
    return report
