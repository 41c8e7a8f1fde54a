"""Sub-Riemannian area and enclosed volume by tensor Gauss-Legendre quadrature.

The area of a patch is the integral of |N_H| against the Riemannian area
element, which in parameters is just |(F_eps x F_s)_H| d eps ds; the volume
enclosed by a closed oriented patch is -(1/4) of the flux of the dilation
generator W, i.e. -(1/4) <W, F_eps x F_s> d eps ds with the inner normal.
Neither integrand needs a normalization, so singular rows (|N_H| -> 0) are
handled by the quadrature never sampling cell endpoints.  Where |N_H| stops
being smooth inside a patch, the patch declares `quadrature_charts`,
`Chart` maps of its parameters on which it is smooth again, and each sweep
sums over them.

`integrate` returns plain values from one sample sweep at a fixed n.
`quad_many` is the only place that wraps them in an Estimate: it sweeps a
ladder of resolutions from coarse to fine, with n as a cap, and stops once
the Richardson difference of two neighbouring levels meets RTOL or the
roundoff floor of the sum.  Next to the built-in integrands it takes named
integrand functions of the sample, as `first_variation` does: A'(0) and
V'(0) of a closed patch under a normal variation u N, or under each of
several speeds, from one ladder over the base patch, with the mean
curvature read pointwise from `curvature` once per sample, from the
patch's second partials.
`dilation_homogeneity` takes one dilation parameter or several, and sweeps
the base patch's ladder once for all of them.
`first_variation_check` is its finite-difference oracle: fixed-n sweeps of
the vertical variation p + tau u T, whose normal speed is u N_T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature as crv
from .errors import (
    NonFinite,
    NotClosedSurface,
    OrientationUnset,
    StepTooSmall,
)
from .hgroup import W_field, dot_c
from .surfaces import ImmersedPatch, VerticalVariation, _box_chart

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


def _area(eps, s, p, raw):
    return np.hypot(raw[..., 0], raw[..., 1])


def _volume(eps, s, p, raw):
    return -0.25 * dot_c(W_field(p), raw)


# A named integrand maps the samples (eps, s, p, raw) of one block to the
# integrand values f.
_INTEGRANDS = {"area": _area, "volume": _volume}
_NONNEGATIVE = ("area",)   # sum |f| w is sum f w for these


def _sweep(patch: ImmersedPatch, n: int, kinds: tuple):
    """({kind: sum f w}, {kind: roundoff floor}, samples) from one sweep of
    n x n cells over each of the patch's quadrature charts, or over its own
    rectangle as one `_box_chart` when it declares none, shared between the
    integrands and summed over the charts in order.

    A kind is a built-in name ('area', 'volume'), a (name, fn)
    pair with fn a named integrand (see _INTEGRANDS), or a (names, fn) pair
    with names a tuple and fn returning one f per name, so that integrands
    that share work do it once per sample; results are keyed by name.  An
    integrand sees the base parameters (eps, s) of its samples and the
    chart's raw normal, which carries the map's Jacobian.  The floor of a
    kind is FLOOR_ULPS ulps of sum |f| w, plus sum rel |f| w on a chart that
    states the relative rounding rel of its samples.

    Each chart is swept in blocks of whole rows, about _BLOCK_SAMPLES
    samples each.  Each row's s-sum is kept and the rows are combined with
    the eps weights once at the end, so the values do not depend on the
    block size.
    """
    groups = [_group(k) for k in kinds]
    nonnegative = {k for k in kinds if k in _NONNEGATIVE}
    charts = (patch.quadrature_charts()
              or [_box_chart((patch.eps_lo, patch.eps_hi, patch.s_lo, patch.s_hi))])
    parts = [_sweep_chart(patch, chart, n, groups, nonnegative) for chart in charts]
    values, floors = {}, {}
    for k in (name for names, _ in groups for name in names):
        value, mag, rounding = (_total([part[k][i] for part in parts]) for i in range(3))
        values[k] = value
        floors[k] = float(FLOOR_ULPS * np.finfo(float).eps * mag)
        if rounding is not None:
            floors[k] += rounding
    return values, floors, len(parts) * (GAUSS_ORDER * n) ** 2


def _group(kind):
    """(names, fn) of a kind, with fn returning one f per name; a single
    name's integrand is wrapped to return its one f."""
    names, fn = (kind, _INTEGRANDS[kind]) if isinstance(kind, str) else kind
    if isinstance(names, str):
        return (names,), lambda *sample: (fn(*sample),)
    return tuple(names), fn


def _total(terms: list):
    """Left-to-right sum of the terms that are not None, or None; a single
    term comes back as it is, so a patch with one chart keeps its bits."""
    terms = [t for t in terms if t is not None]
    return sum(terms[1:], terms[0]) if terms else None


def _sweep_chart(patch: ImmersedPatch, chart, n: int, groups: list, nonnegative: set) -> dict:
    """{kind: (sum f w, sum |f| w, sum rel |f| w or None)} over one `Chart`
    of the patch, the last where the chart states a roundoff rel; sum |f| w
    is sum f w for the kinds in `nonnegative`."""
    eps_pts, eps_wts = _axis_rule(*chart.rect[:2], n)
    s_pts, s_wts = _axis_rule(*chart.rect[2:], n)
    names = [name for names, _ in groups for name in names]
    rows = {k: np.empty(eps_pts.size) for k in names}
    abs_rows = {k: np.empty(eps_pts.size) for k in names if k not in nonnegative}
    round_rows = {k: np.empty(eps_pts.size) for k in names} if chart.roundoff else {}
    block = max(1, _BLOCK_SAMPLES // s_pts.size)
    for start in range(0, eps_pts.size, block):
        a, b = eps_pts[start:start + block, None], s_pts[None, :]
        eps, s, p, raw = chart.samples(patch, a, b)
        rel = chart.roundoff(a, b) if round_rows else None
        for kinds, fn in groups:
            for kind, f in zip(kinds, fn(eps, s, p, raw)):
                if not np.all(np.isfinite(f)):
                    raise NonFinite(f"{kind} integrand produced non-finite samples")
                rows[kind][start:start + block] = (f * s_wts).sum(axis=1)
                if kind in abs_rows:
                    abs_rows[kind][start:start + block] = (np.abs(f) * s_wts).sum(axis=1)
                if round_rows:
                    round_rows[kind][start:start + block] = (rel * np.abs(f) * s_wts).sum(axis=1)
    out = {}
    for k in names:
        value = float((rows[k] * eps_wts).sum())
        mag = float((abs_rows[k] * eps_wts).sum()) if k in abs_rows else value
        out[k] = (value, mag,
                  float((round_rows[k] * eps_wts).sum()) if round_rows else None)
    return out


def integrate(patch: ImmersedPatch, n: int, kinds: tuple) -> dict:
    """{kind: value} from one n x n-cell sweep of each chart (see _sweep)."""
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
    side as the cap; kinds as in _sweep.

    At each level m >= MIN_CELLS, kind k has converged when
    |I_m - I_prev| <= max(RTOL |I_m|, floor_m), where floor_m is the
    roundoff floor of the same sweep (see _sweep).  The error stated is
    max(|I_m - I_prev|, floor_m); a patch that never converges ends on the
    (n // 2, n) pair with its plain Richardson difference.
    """
    prev = None
    for m in _levels(n):
        values, floors, samples = _sweep(patch, m, kinds)
        diffs = {k: abs(v - prev[k]) if prev is not None else 0.0 for k, v in values.items()}
        met = {k: prev is not None and m >= MIN_CELLS
               and diffs[k] <= max(RTOL * abs(v), floors[k]) for k, v in values.items()}
        if all(met.values()):
            break
        prev = values
    return {k: Estimate(v, max(diffs[k], floors[k]), samples, met[k])
            for k, v in values.items()}


def _values(patch: ImmersedPatch, n: int, kinds: tuple) -> list:
    """The values of quad_many, in the order of kinds."""
    res = quad_many(patch, n, kinds)
    return [res[k].value for k in kinds]


def area(patch: ImmersedPatch, n: int = 256) -> Estimate:
    """Sub-Riemannian area: integral of |N_H| d(area)."""
    return quad_many(patch, n, ("area",))["area"]


def volume_enclosed(patch: ImmersedPatch, n: int = 256) -> Estimate:
    """-(1/4) flux of W through the patch; the enclosed volume for closed
    patches oriented by the inner normal."""
    if patch.orientation not in (1, -1):
        raise OrientationUnset("volume needs an oriented patch")
    return quad_many(patch, n, ("volume",))["volume"]


def dilation_homogeneity(patch: ImmersedPatch, s, n: int = 128):
    """(A(phi_s patch)/A(patch), V(phi_s patch)/V(patch)); expected
    (e^{3s}, e^{4s}).  With a sequence of s, one such pair per s, in order,
    over one ladder of the base patch."""
    a0, v0 = _values(patch, n, ("area", "volume"))
    out = []
    for si in [s] if np.ndim(s) == 0 else s:
        a1, v1 = _values(patch.dilated(si), n, ("area", "volume"))
        out.append((a1 / a0, v1 / v0))
    return out[0] if np.ndim(s) == 0 else out


def iso_ratio(patch: ImmersedPatch, n: int = 256) -> float:
    """A^4 / V^3, invariant under dilations; (8/3)^3 pi^2 on the spheres."""
    a, v = _values(patch, n, ("area", "volume"))
    return a**4 / v**3


FIRST_VARIATION_CELLS = 96   # cap of first_variation's ladder; S_lambda stops at 12


def first_variation(patch: ImmersedPatch, u):
    """{'a_prime': Estimate, 'v_prime': Estimate}: A'(0) and V'(0) of a closed
    patch under the normal variation u N, from one quad_many ladder over the
    base patch with FIRST_VARIATION_CELLS cells per side as the cap.  With a
    sequence of speeds for u, one such dict per speed, in order, from one
    ladder: H is taken once per sample for all of them, and the ladder
    refines until every speed has converged.

    On the regular set A'(0) = -integral 2 H u dSigma and V'(0) = -integral
    u dSigma, dSigma = |raw| d eps ds the Riemannian area element.  H is
    curvature.mean_curvature_char, read once per sample.  An open patch's
    variation has a boundary term, so it raises NotClosedSurface.  The term
    along singular curves is not evaluated, so the result is A'(0) only for
    closed patches whose singular set is isolated points, as on the spheres,
    where it adds no term.  Each speed is evaluated once per sample.
    """
    if not patch.closed:
        raise NotClosedSurface("first variation formula applies to closed surfaces")
    speeds = [u] if callable(u) else list(u)

    def integrands(eps, s, p, raw):
        H = crv.mean_curvature_char(patch, eps, s)
        da = np.linalg.norm(raw, axis=-1)
        out = []
        for w in speeds:
            ud = np.asarray(w(eps, s), float) * da
            out += [-2.0 * H * ud, -ud]
        return out

    names = [(f"a_prime[{i}]", f"v_prime[{i}]") for i in range(len(speeds))]
    res = quad_many(patch, FIRST_VARIATION_CELLS, ((sum(names, ()), integrands),))
    out = [{"a_prime": res[a], "v_prime": res[v]} for a, v in names]
    return out[0] if callable(u) else out


@dataclass(frozen=True)
class FirstVariationResult:
    a_prime: float
    v_prime: float
    defect: float            # |A'(0) - 2 lam V'(0)|


def first_variation_check(patch: ImmersedPatch, u, dt: float = 1e-4,
                          n: int = 128) -> FirstVariationResult:
    """A'(0), V'(0) and |A'(0) - 2 lam V'(0)| under the vertical variation
    p + tau u T, u(eps, s) -> (u, u_eps, u_s): the oracle for `first_variation`
    with normal speed u N_T.  One sweep at the same n for each tau = +-dt,
    +-dt/2, and Richardson's step (4 D(dt/2) - D(dt)) / 3 over the two central
    differences of area and volume."""
    if dt < 1e-7:
        raise StepTooSmall(f"variation step {dt} below 1e-7")
    if patch.lam is None:
        raise ValueError("patch has no nominal curvature")
    diffs = []
    for h in (dt, 0.5 * dt):
        lo, hi = (integrate(VerticalVariation(patch, u, tau), n, ("area", "volume"))
                  for tau in (-h, h))
        diffs.append({k: (hi[k] - lo[k]) / (2 * h) for k in hi})
    a_prime, v_prime = ((4.0 * diffs[1][k] - diffs[0][k]) / 3.0 for k in ("area", "volume"))
    return FirstVariationResult(a_prime, v_prime, abs(a_prime - 2.0 * patch.lam * v_prime))


def measures_report(patch: ImmersedPatch, surface: str, lam: float | None,
                    n: int = 128, H: float | None = None) -> dict:
    """Structured report with exact field names; open patches report null
    volume-dependent entries, and A = 0 or V = 0 (a degenerate domain) null
    ratios.  n caps the cells per side; `samples` is the size of the sweep
    the values come from, and `*_converged` says whether each met RTOL."""
    kinds = ("area", "volume") if patch.closed else ("area",)
    res = quad_many(patch, n, kinds)
    a = res["area"]
    H = patch.lam if H is None else H
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
