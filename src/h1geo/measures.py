"""Sub-Riemannian area and enclosed volume by tensor Gauss-Legendre quadrature.

The area of a patch is the integral of |N_H| against the Riemannian area
element, which in parameters is just |(F_eps x F_s)_H| d eps ds; the volume
enclosed by a closed oriented patch is -(1/4) of the flux of the dilation
generator W, i.e. -(1/4) <W, F_eps x F_s> d eps ds with the inner normal.
Neither integrand needs a normalization, so singular rows (|N_H| -> 0) are
handled by the quadrature never sampling cell endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotClosedSurface, OrientationUnset, StepTooSmall
from .hgroup import W_field, dot_c
from .surfaces import ImmersedPatch, PerturbedPatch

GAUSS_ORDER = 8
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_BLOCK_SAMPLES = 1 << 17   # samples evaluated at once by _integrate_multi


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float   # Richardson comparison against half resolution
    cells: int


def _axis_rule(lo: float, hi: float, n: int):
    """Gauss-Legendre points and weights for n equal cells on [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (centers[:, None] + half * _NODES[None, :]).ravel()
    wts = np.tile(half * _WEIGHTS, n)
    return pts, wts


def _integrate_multi(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """One quadrature sweep shared between the requested integrands.

    The sweep runs in blocks of whole eps rows, about _BLOCK_SAMPLES samples
    each.  Each row's s-sum is kept and the rows are combined with the eps
    weights once at the end, so the value does not depend on the block size.
    """
    if patch.eps_hi == patch.eps_lo or patch.s_hi == patch.s_lo:
        return {k: 0.0 for k in kinds}
    eps_pts, eps_wts = _axis_rule(patch.eps_lo, patch.eps_hi, n)
    s_pts, s_wts = _axis_rule(patch.s_lo, patch.s_hi, n)
    rows = {k: np.empty(eps_pts.size) for k in kinds}
    block = max(1, _BLOCK_SAMPLES // s_pts.size)
    for start in range(0, eps_pts.size, block):
        p, _, _, raw = patch.frame(eps_pts[start:start + block, None], s_pts[None, :])
        for kind in kinds:
            if kind == "area":
                f = np.hypot(raw[..., 0], raw[..., 1])
            elif kind == "rarea":
                f = np.linalg.norm(raw, axis=-1)
            elif kind == "volume":
                f = -0.25 * dot_c(W_field(p).coeffs, raw)
            else:
                raise ValueError(kind)
            if not np.all(np.isfinite(f)):
                raise NonFinite(f"{kind} integrand produced non-finite samples")
            rows[kind][start:start + block] = (f * s_wts).sum(axis=1)
    return {k: float((r * eps_wts).sum()) for k, r in rows.items()}


def quad_many(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """QuadratureResults for several integrands sharing the sample sweep."""
    values = _integrate_multi(patch, n, kinds)
    halves = _integrate_multi(patch, max(n // 2, 1), kinds) if n >= 2 else values
    out = {}
    for kind in kinds:
        err = abs(values[kind] - halves[kind]) if values[kind] != 0.0 else 0.0
        out[kind] = QuadratureResult(values[kind], err, n * n)
    return out


def area(patch: ImmersedPatch, n: int = 256) -> QuadratureResult:
    """Sub-Riemannian area: integral of |N_H| d(area)."""
    return quad_many(patch, n, ("area",))["area"]


def riemannian_area(patch: ImmersedPatch, n: int = 128) -> QuadratureResult:
    """Riemannian area of the patch (no |N_H| weight)."""
    return quad_many(patch, n, ("rarea",))["rarea"]


def volume_enclosed(patch: ImmersedPatch, n: int = 256) -> QuadratureResult:
    """-(1/4) flux of W through the patch; the enclosed volume for closed
    patches oriented by the inner normal."""
    if patch.orientation not in (1, -1):
        raise OrientationUnset("volume needs an oriented patch")
    return quad_many(patch, n, ("volume",))["volume"]


def minkowski_check(patch: ImmersedPatch, H: float, n: int = 256) -> float:
    """|3A - 8 H V| / (3A) for a closed CMC patch."""
    if not patch.closed:
        raise NotClosedSurface("Minkowski identity applies to closed surfaces")
    res = quad_many(patch, n, ("area", "volume"))
    a, v = res["area"].value, res["volume"].value
    return abs(3.0 * a - 8.0 * H * v) / (3.0 * a)


def dilation_homogeneity(patch: ImmersedPatch, s: float, n: int = 128):
    """(A(phi_s patch)/A(patch), V(phi_s patch)/V(patch)); expected
    (e^{3s}, e^{4s})."""
    base = quad_many(patch, n, ("area", "volume"))
    dil = quad_many(patch.dilated(s), n, ("area", "volume"))
    return (dil["area"].value / base["area"].value,
            dil["volume"].value / base["volume"].value)


def iso_ratio(patch: ImmersedPatch, n: int = 256) -> float:
    """A^4 / V^3, invariant under dilations; (8/3)^3 pi^2 on the spheres."""
    res = quad_many(patch, n, ("area", "volume"))
    return res["area"].value**4 / res["volume"].value**3


@dataclass(frozen=True)
class FirstVariationResult:
    a_prime: float
    v_prime: float
    defect: float            # |A'(0) - 2 H V'(0)|
    v_prime_direct: float    # -integral of u d(area), the analytic V'(0)


def first_variation_check(patch: ImmersedPatch, u, dt: float = 1e-4,
                          n: int = 128, H: float | None = None) -> FirstVariationResult:
    """Central-difference first variation under the normal perturbation u*N.

    Displaces by t*u*N for t = +-dt, quadratures area and volume, and
    reports A'(0), V'(0), the stationarity defect |A'(0) - 2 H V'(0)|, and
    the analytic volume derivative -int u dArea for cross-checking.
    """
    if dt < 1e-7:
        raise StepTooSmall(f"variation step {dt} below 1e-7")
    if H is None:
        if patch.lam is None:
            raise ValueError("patch has no nominal curvature; pass H")
        H = patch.lam
    lo, hi = (_integrate_multi(PerturbedPatch(patch, u, t), n, ("area", "volume"))
              for t in (-dt, dt))
    a_prime = (hi["area"] - lo["area"]) / (2 * dt)
    v_prime = (hi["volume"] - lo["volume"]) / (2 * dt)
    defect = abs(a_prime - 2.0 * H * v_prime)

    # -int u d(area) with the same rule
    eps_pts, eps_wts = _axis_rule(patch.eps_lo, patch.eps_hi, n)
    s_pts, s_wts = _axis_rule(patch.s_lo, patch.s_hi, n)
    _, _, _, raw = patch.frame(eps_pts[:, None], s_pts[None, :])
    uu = np.broadcast_to(np.asarray(u(eps_pts[:, None], s_pts[None, :]), float),
                         raw.shape[:-1])
    v_direct = -float(np.einsum("i,ij,j->", eps_wts, uu * np.linalg.norm(raw, axis=-1), s_wts))
    return FirstVariationResult(a_prime, v_prime, defect, v_direct)


def measures_report(patch: ImmersedPatch, surface: str, lam: float | None,
                    n: int = 128, H: float | None = None) -> dict:
    """Structured report with exact field names; open patches report null
    volume-dependent entries."""
    kinds = ("area", "volume") if patch.closed else ("area",)
    res = quad_many(patch, n, kinds)
    a = res["area"]
    if H is None:
        H = patch.lam
    report = {
        "surface": surface,
        "lambda": lam,
        "A": a.value,
        "A_err": a.error_estimate,
        "V": None,
        "V_err": None,
        "H": H,
        "minkowski_defect": None,
        "iso_ratio": None,
    }
    if patch.closed:
        v = res["volume"]
        report["V"] = v.value
        report["V_err"] = v.error_estimate
        if H is not None:
            report["minkowski_defect"] = abs(3 * a.value - 8 * H * v.value) / (3 * a.value)
        report["iso_ratio"] = a.value**4 / v.value**3
    return report
