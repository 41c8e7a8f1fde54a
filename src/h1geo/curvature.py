"""Mean curvature, stationarity diagnostics, and the calibration of graphs.

The mean curvature of a patch at a regular point is read intrinsically
from its first and second partials, with no graph structure assumed:
H = <N, D_Z Z> / (2 |N_H|) for the characteristic field Z = J(nu_H).  On a
singular curve, where N_H = 0, the limit of nu_H is read from the same
second partials.  Integral curves of Z (characteristic traces) serve the
ruling check only.
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
from .hgroup import Point, cross_c, divergence, dot_c, j_c
from .surfaces import ImmersedPatch, NormalData, TOL_SINGULAR, _T, _twist


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


def _mean_curvature(patch: ImmersedPatch, eps, s):
    """(H, |N_H|): the H of mean_curvature_char and the |N_H| of the same
    `normal_data` call; H is meaningless, or NaN, where |N_H| < 10 TOL_SINGULAR."""
    nd = patch.normal_data(eps, s)
    ee, se, ss = patch.second_partials(eps, s)
    ve, vs = (v[..., None] for v in _z_velocity(nd))
    # the normal part of D_Z Z: d_s F_eps + tau T is the symmetric mixed term
    dzz = ve * ve * ee + 2.0 * ve * vs * (se + 0.5 * _twist(nd.fe, nd.fs)) + vs * vs * ss
    with np.errstate(invalid="ignore", divide="ignore"):
        H = dot_c(nd.normal, dzz) / (2.0 * nd.nh_norm)
    return H, nd.nh_norm


def mean_curvature_char(patch: ImmersedPatch, eps, s):
    """H = -(1/2) <D_Z nu_H, Z> at (eps, s), from one `normal_data` and one
    `second_partials` call.

    <nu_H, Z>, <T, Z> and <D_Z T, Z> = <JZ, Z> vanish, so H = <N, D_Z Z> /
    (2 |N_H|).  With Z = ve F_eps + vs F_s, (ve, vs) from _z_velocity, the
    normal part of D_Z Z is that of ve^2 d_eps F_eps + 2 ve vs (d_s F_eps +
    tau T) + vs^2 d_s F_s, as d_eps F_s = d_s F_eps + 2 tau T and
    conn(Z, Z) = 0 for a horizontal Z.  A tangent error in the second
    partials does not reach H, which carries the rounding of the partials.

    Raises SingularPoint when |N_H| < 10 * TOL_SINGULAR at the point.
    """
    H, nh = _mean_curvature(patch, eps, s)
    if not np.all(nh >= 10 * TOL_SINGULAR):
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
    signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * theta.ndim)   # both ways at once
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
    from `graph`'s `height` and `hessian`: an estimate independent of the
    patch frame that mean_curvature_char reads."""
    lhs, w2 = _graph_lhs(graph, x, y, "graph mean curvature")
    return -lhs / (2.0 * w2**1.5)


# ---------------------------------------------------------------------------
# Stationarity at singular curves


def orthogonality_defect(patch: ImmersedPatch, index: int, param):
    """<limit characteristic direction, singular-curve tangent> at `param`
    on the curve patch.singular_curves()[index].

    The tangent is d eps F_eps + d s F_s, from the curve's `rate` and the
    patch's partials.  N_H vanishes on the curve, so the limit of nu_H is
    the direction of the horizontal part of the raw normal's derivative
    along the curve's `inward` direction w, orientation * (d_w F_eps x F_s +
    F_eps x d_w F_s); a tangent error in `second_partials` moves only its
    vertical part.  Z is J of that limit.  Zero means the patch is
    compatible with area-stationarity at this curve.  Raises SingularPoint
    where the horizontal part vanishes or is not finite.
    """
    curves = patch.singular_curves()
    if not curves:
        raise NoSingularCurve(f"{patch.label} carries no singular curve")
    curve = curves[int(index)]
    eps, s = curve.at(param)
    fe, fs, _ = patch.partials(eps, s)
    ee, se, ss = patch.second_partials(eps, s)
    we, ws = curve.inward
    raw_rate = patch.orientation * (cross_c(we * ee + ws * se, fs)
                                    + cross_c(fe, we * (se + _twist(fe, fs)) + ws * ss))
    horizontal = raw_rate * (1.0 - _T)
    size = np.hypot(horizontal[..., 0], horizontal[..., 1])
    bad = ~(np.isfinite(size) & (size > 0.0))
    if np.any(bad):
        raise SingularPoint(f"no limit of the characteristic direction at {curve.label} of "
                            f"{patch.label}, parameter {np.broadcast_to(param, bad.shape)[bad][0]:g}")
    de, ds = (_asf(r)[..., None] for r in curve.rate(param))
    return dot_c(j_c(horizontal), de * fe + ds * fs) / size


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


def mesh_curvature(patch: ImmersedPatch, eps, s) -> np.ndarray:
    """H at the vertices of the grid of eps rows and s columns,
    (len(eps), len(s)): NaN near the singular set, where
    mean_curvature_char would raise."""
    H, nh = _mean_curvature(patch, _asf(eps)[:, None], _asf(s)[None, :])
    return np.where(nh >= 10 * TOL_SINGULAR, H, np.nan)
