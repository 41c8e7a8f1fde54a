"""Mean curvature, stationarity diagnostics, and the calibration of graphs.

The mean curvature of a patch at a regular point is evaluated intrinsically:
-2H = <D_Z nu_H, Z> is a first derivative along the characteristic field
Z = J(nu_H), so it is differenced along the straight parameter line through
the point in Z's direction, and no graph structure is assumed.  Integral
curves of Z (characteristic traces) serve the ruling check only.
Graphs additionally support the prescribed-curvature PDE residual

    (u_y+x)^2 u_xx - 2 (u_y+x)(u_x-y) u_xy + (u_x-y)^2 u_yy
        = -2H ((u_x-y)^2 + (u_y+x)^2)^{3/2},

whose H is measured with respect to the downward graph normal.  The
calibrating field of a graph is the horizontal unit normal of its vertical
translates, which foliate the group: it is read from the same `height`
as the graph's partials, so any graph, curved or not, can be calibrated.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSingularCurve, OnSingularLocus, SingularPoint
from .geodesics import GeodesicSpec, geodesic_point
from .hgroup import Point, conn_c, cross_c, divergence, dot_c
from .surfaces import _BLOCK_VERTICES, ImmersedPatch, NormalData, TOL_SINGULAR

# The difference step h of mean_curvature_char: its ends sit at parameter
# offsets +-h/2 and +-h along Z's velocity, that is at arclength about h/2
# and h from the point, and Richardson's step over the two removes the h^2
# term of the central differences.
H_CHAR_STEP = 1e-4
# The rounding of that H, in units of eps / h.  H(k) = -(1/2) <(nu_+ - nu_-)
# / (2k), Z> reads the unit nu_H at the two ends of the line; each end carries
# about 4 ulps, 2 of nu_H itself and 2 from rounding the end's parameters
# (eps, s) +- k (ve, vs), so H(k) is off by about 2 eps / k and (4 H(h/2) -
# H(h)) / 3 by (16 + 2) / 3 = 6 eps / h.  At the Gauss nodes of S_lambda
# (lambda = 0.5, 1, 2, and S_1 dilated, translated and flipped) the error
# measures 2.5 to 4.2 eps / h.
H_ROUNDOFF = 6.0


def _asf(x):
    return np.asarray(x, float)


def _z_velocity(nd: NormalData):
    """Parameter-space velocity (deps, ds) of the unit characteristic field
    at the points of `nd`: the solution of deps F_eps + ds F_s = Z, by
    Cramer's rule on the frame (F_eps, F_s, N) with N the unit normal, in
    which the tangent Z has no N part:
    deps = [Z, F_s, N] / [F_eps, F_s, N] and ds = [F_eps, Z, N] / [F_eps, F_s, N],
    [a, b, c] = <a, b x c> the triple product.  Where F_eps and F_s are
    nearly parallel, at an angle theta, these lose digits as 1 / sin(theta),
    while the determinant |F_eps|^2 |F_s|^2 - <F_eps, F_s>^2 of their Gram
    system loses them as 1 / sin(theta)^2."""
    ws = cross_c(nd.fs, nd.normal)     # [a, F_s, N] = <a, ws>
    we = cross_c(nd.normal, nd.fe)     # [F_eps, a, N] = <a, we>
    det = dot_c(nd.fe, ws)
    return dot_c(nd.z, ws) / det, dot_c(nd.z, we) / det


def _char_velocity(patch: ImmersedPatch, eps, s):
    """Parameter-space velocity (deps, ds) of the unit characteristic field."""
    return _z_velocity(patch.normal_data(eps, s))


def trace_characteristic(patch: ImmersedPatch, eps0, s0, arclen,
                         n_steps: int = 200):
    """RK4 integration of the characteristic field in parameter space.

    `arclen` is signed (a negative length traces backward) and may be an
    array that broadcasts against the seeds, so one sweep runs both
    directions: arclen = [[a], [-a]] over seeds of shape (n,) traces each
    seed forward and backward.  Returns (eps_path, s_path) arrays of shape
    (n_steps + 1,) + the broadcast shape of (eps0, s0, arclen); the trace
    has unit speed, so step k sits at arclength k*arclen/n_steps.
    Raises ValueError when n_steps < 1.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    h = _asf(arclen) / n_steps
    eps, s, _ = np.broadcast_arrays(_asf(eps0), _asf(s0), h)
    eps_path, s_path = [eps], [s]
    for _ in range(n_steps):
        k1e, k1s = _char_velocity(patch, eps, s)
        k2e, k2s = _char_velocity(patch, eps + 0.5 * h * k1e, s + 0.5 * h * k1s)
        k3e, k3s = _char_velocity(patch, eps + 0.5 * h * k2e, s + 0.5 * h * k2s)
        k4e, k4s = _char_velocity(patch, eps + h * k3e, s + h * k3s)
        eps = eps + h / 6.0 * (k1e + 2 * k2e + 2 * k3e + k4e)
        s = s + h / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
        eps_path.append(eps)
        s_path.append(s)
    return np.array(eps_path), np.array(s_path)


def _forward_back(seed_ndim: int):
    """Signs (+1, -1) on a leading axis that broadcasts against seeds of
    `seed_ndim` dimensions; times a length, one sweep goes both ways."""
    return np.array([1.0, -1.0]).reshape((2,) + (1,) * seed_ndim)


def _mean_curvature(patch: ImmersedPatch, eps, s, tol_singular: float):
    """(H, regular): the estimate of mean_curvature_char and the mask of the
    points where its stencil is regular.  A point is not regular when
    |N_H| < 10 * tol_singular there, or when an end of its stencil lies in
    the singular band (where nu_H is NaN) or across a singular curve: both
    fail <nu_end, nu_seed> > 0.  H is meaningless there.  Non-regular seeds
    take no step, so no end is evaluated at NaN parameters."""
    nd = patch.normal_data(eps, s)
    regular = nd.nh_norm >= 10 * tol_singular
    ve, vs = (np.where(regular, v, 0.0) for v in _z_velocity(nd))
    signs = _forward_back(regular.ndim)

    def slope(k):
        # keeps only nu_H of the ends, so the two pairs' NormalData are never
        # alive together, which would raise peak memory
        nu = patch.normal_data(eps + signs * k * ve, s + signs * k * vs).nu_h
        return (nu[0] - nu[1]) / (2.0 * k), np.all(dot_c(nu, nd.nu_h) > 0, axis=0)

    (half, half_ok), (full, full_ok) = slope(H_CHAR_STEP / 2), slope(H_CHAR_STEP)
    regular = regular & half_ok & full_ok
    dnu = (4.0 * half - full) / 3.0
    cov = dnu + conn_c(nd.z, nd.nu_h)
    return -0.5 * dot_c(cov, nd.z), regular


def mean_curvature_char(patch: ImmersedPatch, eps, s):
    """H = -(1/2) <D_Z nu_H, Z> at (eps, s).

    D_Z nu_H is a first derivative along Z, so nu_H is differenced along the
    straight parameter line through the point in the direction of Z's
    parameter velocity (ve, vs): central differences with ends at
    (eps, s) +- k (ve, vs) for k = h / 2 and h, h = H_CHAR_STEP, combined
    by Richardson's step (4 D(h / 2) - D(h)) / 3.  That costs one
    `normal_data` call at the points and one for each pair of ends.  The
    rounding is about H_ROUNDOFF eps / h.

    Raises SingularPoint when |N_H| < 10 * TOL_SINGULAR at the point, or
    when an end of the stencil lies in the singular band or across a
    singular curve (the horizontal normal blows up or flips there).
    """
    H, regular = _mean_curvature(patch, eps, s, TOL_SINGULAR)
    if not np.all(regular):
        raise SingularPoint("mean curvature requested too close to the singular set")
    return H


def characteristic_deviation(patch: ImmersedPatch, eps0, s0, arclen: float = 1.0,
                             n_steps: int = 200, lam: float | None = None):
    """Max distance between a characteristic trace and the closed-form
    geodesic of curvature lam launched with the same initial data.

    The trace covers total arclength `arclen`, split evenly forward and
    backward from the seed so cut boundaries are not crossed; both halves
    run in one sweep.  With lam = None the patch's nominal constant
    curvature is used.  This is the numerical form of the ruling property
    of CMC surfaces.  eps0 and s0 may be arrays of seeds; all are traced
    together and the maximum over them is returned.  n_steps counts both
    halves, so it must be even and at least 2 (ValueError otherwise).
    """
    if n_steps < 2 or n_steps % 2:
        raise ValueError(f"n_steps must be even and at least 2, got {n_steps}")
    if lam is None:
        if patch.lam is None:
            raise ValueError("patch has no nominal curvature; pass lam")
        lam = patch.lam
    nd0 = patch.normal_data(eps0, s0)
    theta = np.arctan2(nd0.z[..., 1], nd0.z[..., 0])
    geo = GeodesicSpec(nd0.base, theta, lam)
    signs = _forward_back(theta.ndim)
    ep, sp = trace_characteristic(patch, eps0, s0, signs * arclen / 2.0, n_steps // 2)
    tau = np.multiply.outer(np.linspace(0.0, arclen / 2.0, n_steps // 2 + 1), signs)
    trace_pts = patch.point(ep, sp).as_array()
    geo_pts = geodesic_point(geo, tau).as_array()
    return float(np.max(np.abs(trace_pts - geo_pts)))


# ---------------------------------------------------------------------------
# Graph PDE


def _graph_lhs(graph, x, y, what: str):
    """(LHS, w^2) of the graph equation at (x, y), with w^2 = (u_x-y)^2 +
    (u_y+x)^2; raises SingularPoint naming `what` where w < TOL_SINGULAR."""
    x, y = _asf(x), _asf(y)
    (_, ux, uy), (uxx, uxy, uyy) = graph.height(x, y), graph.hessian(x, y)
    p = ux - y
    q = uy + x
    w2 = p * p + q * q
    if np.any(w2 < TOL_SINGULAR**2):
        raise SingularPoint(f"{what} at a singular graph point")
    return q * q * uxx - 2.0 * q * p * uxy + p * p * uyy, w2


def graph_pde_residual(graph, x, y, H):
    """LHS - RHS of the prescribed-curvature graph equation at (x, y).

    `graph`'s `height` and `hessian` give the derivatives in Cartesian
    (x, y).  H is measured with respect to the downward graph normal; for a
    sheet whose inner normal points upward, pass -H.
    """
    lhs, w2 = _graph_lhs(graph, x, y, "graph PDE residual")
    rhs = -2.0 * np.asarray(H, float) * w2**1.5
    return lhs - rhs


def graph_pde_mean_curvature(graph, x, y):
    """The H solving the graph equation pointwise (downward-normal sign),
    from `graph`'s `height` and `hessian`: an estimate independent of
    mean_curvature_char's differences along Z."""
    lhs, w2 = _graph_lhs(graph, x, y, "graph mean curvature")
    return -lhs / (2.0 * w2**1.5)


# ---------------------------------------------------------------------------
# Stationarity at singular curves


DEFECT_OFFSET = 10 * TOL_SINGULAR   # the probe's distance into the regular side


def orthogonality_defect(patch: ImmersedPatch, index: int, param):
    """<limit characteristic direction, singular-curve tangent> at `param`
    on the curve patch.singular_curves()[index].

    The tangent is d eps F_eps + d s F_s at the curve, from the curve's
    `rate` and the patch's own partials.  Z is sampled at DEFECT_OFFSET and
    twice that into the regular side and extrapolated linearly to the curve,
    which removes the O(offset) rotation bias of the characteristic
    direction.  Zero means the patch is compatible with area-stationarity at
    this curve.
    """
    curves = patch.singular_curves()
    if not curves:
        raise NoSingularCurve(f"{patch.label} carries no singular curve")
    curve = curves[int(index)]
    on_curve = curve.inward(param, 0.0)
    fe, fs, _ = patch.partials(*on_curve)
    de, ds = (_asf(r)[..., None] for r in curve.rate(param))
    tangent = de * fe + ds * fs

    def pairing(off):
        pe, ps = curve.inward(param, off)
        nd = patch.normal_data(pe, ps)
        if np.any(nd.singular):
            shape, k = nd.singular.shape, np.flatnonzero(nd.singular)[0]
            at = [np.broadcast_to(v, shape).flat[k] for v in (param, pe, ps, *on_curve)]
            lost = ": the offset is lost to rounding there" if at[1:3] == at[3:] else ""
            raise SingularPoint(f"probe offset {off:g} from {curve.label} of {patch.label} "
                                f"at parameter {at[0]:g} landed inside the singular band{lost}")
        return dot_c(nd.z, tangent)

    d1 = pairing(DEFECT_OFFSET)
    d2 = pairing(2.0 * DEFECT_OFFSET)
    return 2.0 * d1 - d2


# ---------------------------------------------------------------------------
# Calibration by vertical translates of a graph


LOCUS_GUARD = 1e-9   # calibration_divergence refuses probes this close to the locus


def _calibration_components(graph, q: Point):
    """(u_x - y, u_y + x) at the vertical line through q, read from the
    graph's `height`: minus the horizontal part of its upward normal."""
    _, ux, uy = graph.height(q.x, q.y)
    return ux - _asf(q.y), uy + _asf(q.x)


def locus_distance(graph, q: Point):
    """|(u_x - y, u_y + x)| at q: zero on the vertical lines through the
    graph's singular set, which is where the calibrating field is undefined."""
    return np.hypot(*_calibration_components(graph, q))


def _calibration_field(graph, q: Point):
    """The horizontal unit normal nu_H = -(u_x - y, u_y + x, 0) / |...| of
    the upward normal of the vertical translate of `graph` through q, as
    frame coefficients; the field of the foliation of the group by those
    translates, constant along vertical lines.  NaN on the singular locus."""
    a, b = _calibration_components(graph, q)
    w = np.hypot(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.stack(np.broadcast_arrays(-a / w, -b / w, np.zeros_like(w)), axis=-1)


def calibration_divergence(graph, q: Point):
    """Riemannian divergence of the calibrating field of `graph` (anything
    with `height`) at q, by frame differencing with hgroup's step.

    It equals -2H of the translate through q, with H that of the upward
    normal: zero on the area-stationary planes and graphs t = xy + ay + b,
    which the field then calibrates.  A probe whose stencil straddles a
    non-orthogonal singular locus picks up the distributional jump of nu_H
    and reports a large value.  Raises OnSingularLocus if q itself sits
    within LOCUS_GUARD of the locus.
    """
    if np.any(locus_distance(graph, q) < LOCUS_GUARD):
        raise OnSingularLocus(f"probe point on the singular locus of {graph.label}")
    return divergence(lambda p: _calibration_field(graph, p), q)


def mesh_curvature(patch: ImmersedPatch, eps, s, nh_norm,
                   tol_singular: float = TOL_SINGULAR) -> np.ndarray:
    """H at the vertices of the grid of eps rows and s columns, whose |N_H|
    is nh_norm, (len(eps), len(s)): NaN near the singular set, where
    mean_curvature_char would raise.  The grid is taken in blocks of whole
    eps rows: each vertex carries the four ends of its stencil, so a block
    holds a quarter of _BLOCK_VERTICES vertices."""
    h = np.full(np.shape(nh_norm), np.nan)
    step = max(1, _BLOCK_VERTICES // (4 * len(s)))
    for i in range(0, len(eps), step):
        rows = slice(i, i + step)
        ok = nh_norm[rows] >= 10 * tol_singular
        if np.any(ok):
            e = np.broadcast_to(eps[rows, None], ok.shape)[ok]
            H, regular = _mean_curvature(patch, e, np.broadcast_to(s, ok.shape)[ok], tol_singular)
            h[rows][ok] = np.where(regular, H, np.nan)
    return h
