"""Sub-Riemannian area and enclosed volume by tensor Gauss-Legendre quadrature.

The area of a patch is the integral of |N_H| against the Riemannian area
element, which in parameters is just |(F_eps x F_s)_H| d eps ds; the volume
enclosed by a closed oriented patch is -(1/4) of the flux of the dilation
generator W, i.e. -(1/4) <W, F_eps x F_s> d eps ds with the inner normal.
Neither integrand needs a normalization, so singular rows (|N_H| -> 0) are
handled by the quadrature never sampling cell endpoints.

`integrate` returns plain values from one sample sweep; `quad_many` is the
only place that wraps them in an Estimate, whose Richardson error costs a
second sweep at half resolution and is computed only where it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotClosedSurface, OrientationUnset, StepTooSmall
from .hgroup import W_field, dot_c
from .surfaces import ImmersedPatch, PerturbedPatch

GAUSS_ORDER = 8
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_BLOCK_SAMPLES = 1 << 17   # samples evaluated at once by integrate


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float   # Richardson comparison against half resolution


def _axis_rule(lo: float, hi: float, n: int):
    """Gauss-Legendre points and weights for n equal cells on [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (centers[:, None] + half * _NODES[None, :]).ravel()
    wts = np.tile(half * _WEIGHTS, n)
    return pts, wts


def integrate(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """{kind: value} from one n x n-cell sweep shared between the integrands
    'area', 'rarea' and 'volume'.

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
    """{kind: Estimate}: the sweep at n, with |I_n - I_{n/2}| as the error."""
    values = integrate(patch, n, kinds)
    halves = integrate(patch, max(n // 2, 1), kinds) if n >= 2 else values
    return {k: Estimate(v, abs(v - halves[k]) if v != 0.0 else 0.0)
            for k, v in values.items()}


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
    res = integrate(patch, n, ("area", "volume"))
    a, v = res["area"], res["volume"]
    return abs(3.0 * a - 8.0 * H * v) / (3.0 * a)


def dilation_homogeneity(patch: ImmersedPatch, s: float, n: int = 128):
    """(A(phi_s patch)/A(patch), V(phi_s patch)/V(patch)); expected
    (e^{3s}, e^{4s})."""
    base = integrate(patch, n, ("area", "volume"))
    dil = integrate(patch.dilated(s), n, ("area", "volume"))
    return dil["area"] / base["area"], dil["volume"] / base["volume"]


def iso_ratio(patch: ImmersedPatch, n: int = 256) -> float:
    """A^4 / V^3, invariant under dilations; (8/3)^3 pi^2 on the spheres."""
    res = integrate(patch, n, ("area", "volume"))
    return res["area"]**4 / res["volume"]**3


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
    lo, hi = (integrate(PerturbedPatch(patch, u, t), n, ("area", "volume"))
              for t in (-dt, dt))
    a_prime = (hi["area"] - lo["area"]) / (2 * dt)
    v_prime = (hi["volume"] - lo["volume"]) / (2 * dt)
    return FirstVariationResult(a_prime, v_prime, abs(a_prime - 2.0 * H * v_prime))


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
        "A_err": a.error,
        "V": None,
        "V_err": None,
        "H": H,
        "minkowski_defect": None,
        "iso_ratio": None,
    }
    if patch.closed:
        v = res["volume"]
        report["V"] = v.value
        report["V_err"] = v.error
        if H is not None:
            report["minkowski_defect"] = abs(3 * a.value - 8 * H * v.value) / (3 * a.value)
        report["iso_ratio"] = a.value**4 / v.value**3
    return report
