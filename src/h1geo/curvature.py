"""Mean curvature, stationarity diagnostics, and calibration fields.

The mean curvature of a patch at a regular point is evaluated intrinsically:
-2H = <D_Z nu_H, Z> along a short characteristic trace (an integral curve of
Z = J(nu_H) followed in parameter space), so no graph structure is assumed.
Graphs additionally support the prescribed-curvature PDE residual

    (u_y+x)^2 u_xx - 2 (u_y+x)(u_x-y) u_xy + (u_x-y)^2 u_yy
        = -2H ((u_x-y)^2 + (u_y+x)^2)^{3/2},

whose H is measured with respect to the downward graph normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoSingularCurve, OnSingularLocus, SingularPoint
from .geodesics import GeodesicSpec, geodesic_point
from .hgroup import Point, conn_c, divergence, dot_c
from .surfaces import ImmersedPatch, SingularCurveRef, TOL_SINGULAR

H_CHAR_STEP = 1e-4  # arclength step along the characteristic trace


def _asf(x):
    return np.asarray(x, float)


def _char_velocity(patch: ImmersedPatch, eps, s):
    """Parameter-space velocity (deps, ds) of the unit characteristic field."""
    nd = patch.normal_data(eps, s)
    fe, fs = nd.fe, nd.fs
    g11 = dot_c(fe, fe)
    g12 = dot_c(fe, fs)
    g22 = dot_c(fs, fs)
    b1 = dot_c(nd.z, fe)
    b2 = dot_c(nd.z, fs)
    det = g11 * g22 - g12 * g12
    return (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det


def trace_characteristic(patch: ImmersedPatch, eps0, s0, arclen,
                         n_steps: int = 200):
    """RK4 integration of the characteristic field in parameter space.

    `arclen` is signed (a negative length traces backward) and may be an
    array that broadcasts against the seeds, so one sweep runs both
    directions: arclen = [[a], [-a]] over seeds of shape (n,) traces each
    seed forward and backward.  Returns (eps_path, s_path) arrays of shape
    (n_steps + 1,) + the broadcast shape of (eps0, s0, arclen); the trace
    has unit speed, so step k sits at arclength k*arclen/n_steps.
    """
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
    `seed_ndim` dimensions; times a length, one sweep traces both ways."""
    return np.array([1.0, -1.0]).reshape((2,) + (1,) * seed_ndim)


def mean_curvature_char(patch: ImmersedPatch, eps, s, h_fd: float = H_CHAR_STEP,
                        tol_singular: float = TOL_SINGULAR):
    """H = -(1/2) <D_Z nu_H, Z> via a central difference of nu_H along the
    characteristic trace through (eps, s).

    Raises SingularPoint when |N_H| < 10 * tol_singular at the point (the
    horizontal normal blows up across singular curves).
    """
    nd = patch.normal_data(eps, s)
    if np.any(nd.nh_norm < 10 * tol_singular):
        raise SingularPoint("mean curvature requested too close to the singular set")
    ends_e, ends_s = trace_characteristic(patch, eps, s, _forward_back(nd.nh_norm.ndim) * h_fd,
                                          n_steps=1)
    nu = patch.normal_data(ends_e[-1], ends_s[-1]).nu_h
    dnu = (nu[0] - nu[1]) / (2.0 * h_fd)
    cov = dnu + conn_c(nd.z, nd.nu_h)
    return -0.5 * dot_c(cov, nd.z)


def characteristic_deviation(patch: ImmersedPatch, eps0, s0, arclen: float = 1.0,
                             n_steps: int = 200, lam: float | None = None):
    """Max distance between a characteristic trace and the closed-form
    geodesic of curvature lam launched with the same initial data.

    The trace covers total arclength `arclen`, split evenly forward and
    backward from the seed so cut boundaries are not crossed; both halves
    run in one sweep.  With lam = None the patch's nominal constant
    curvature is used.  This is the numerical form of the ruling property
    of CMC surfaces.  eps0 and s0 may be arrays of seeds; all are traced
    together and the maximum over them is returned.
    """
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


def _graph_bundle(source):
    if hasattr(source, "graph_bundle"):
        bundle = source.graph_bundle()
        if bundle[3] is not None:
            return bundle
        source = bundle[0]
    if callable(source):
        return _fd_bundle(source)
    return source  # assume a 6-tuple of callables


def _fd_bundle(u: Callable, h: float = 1e-3):
    """Fourth-order central-difference derivative bundle for a graph u(x, y)."""

    def d1(f, axis):
        def g(x, y):
            x, y = _asf(x), _asf(y)
            if axis == 0:
                vals = [f(x + k * h, y) for k in (-2, -1, 1, 2)]
            else:
                vals = [f(x, y + k * h) for k in (-2, -1, 1, 2)]
            return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        return g

    def d2(f, axis):
        def g(x, y):
            x, y = _asf(x), _asf(y)
            if axis == 0:
                vals = [f(x + k * h, y) for k in (-2, -1, 0, 1, 2)]
            else:
                vals = [f(x, y + k * h) for k in (-2, -1, 0, 1, 2)]
            return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
        return g

    ux = d1(u, 0)
    uy = d1(u, 1)
    return u, ux, uy, d2(u, 0), d1(ux, 1), d2(u, 1)


def _graph_lhs(source, x, y, tol_singular: float, what: str):
    """(LHS, w^2) of the graph equation at (x, y), with w^2 = (u_x-y)^2 +
    (u_y+x)^2; raises SingularPoint naming `what` where w < tol_singular."""
    u, ux, uy, uxx, uxy, uyy = _graph_bundle(source)
    x, y = _asf(x), _asf(y)
    p = ux(x, y) - y
    q = uy(x, y) + x
    w2 = p * p + q * q
    if np.any(w2 < tol_singular**2):
        raise SingularPoint(f"{what} at a singular graph point")
    return q * q * uxx(x, y) - 2.0 * q * p * uxy(x, y) + p * p * uyy(x, y), w2


def graph_pde_residual(source, x, y, H, tol_singular: float = TOL_SINGULAR):
    """LHS - RHS of the prescribed-curvature graph equation at (x, y).

    `source` is a GraphPatch, a bundle of six callables, or a bare u(x, y)
    (then fourth-order differences supply the derivatives).  H is measured
    with respect to the downward graph normal; for a sheet whose inner
    normal points upward, pass -H.
    """
    lhs, w2 = _graph_lhs(source, x, y, tol_singular, "graph PDE residual")
    rhs = -2.0 * np.asarray(H, float) * w2**1.5
    return lhs - rhs


def graph_pde_mean_curvature(source, x, y, tol_singular: float = TOL_SINGULAR):
    """The H solving the graph equation pointwise (downward-normal sign)."""
    lhs, w2 = _graph_lhs(source, x, y, tol_singular, "graph mean curvature")
    return -lhs / (2.0 * w2**1.5)


# ---------------------------------------------------------------------------
# Stationarity at singular curves


def orthogonality_defect(patch: ImmersedPatch, curve, eps,
                         offset: float = 10 * TOL_SINGULAR):
    """<limit characteristic direction, singular-curve tangent> at `eps`.

    `curve` is a SingularCurveRef from patch.singular_curves(), or an index
    into that list.  Z is sampled at `offset` and `2*offset` into the
    regular side and extrapolated linearly to the curve, which removes the
    O(offset) rotation bias of the characteristic direction.  Zero means
    the patch is compatible with area-stationarity at this curve.
    """
    if not isinstance(curve, SingularCurveRef):
        curves = patch.singular_curves()
        if not curves:
            raise NoSingularCurve(f"{patch.label} carries no singular curve")
        curve = curves[int(curve)]
    tangent = _asf(curve.tangent(eps))

    def pairing(off):
        pe, ps = curve.inward(eps, off)
        nd = patch.normal_data(pe, ps)
        if np.any(nd.singular):
            shape, k = nd.singular.shape, np.flatnonzero(nd.singular)[0]
            at = [np.broadcast_to(v, shape).flat[k]
                  for v in (eps, pe, ps, *curve.inward(eps, 0.0))]
            lost = ": the offset is lost to rounding there" if at[1:3] == at[3:] else ""
            raise SingularPoint(f"probe offset {off:g} from {curve.label} of {patch.label} "
                                f"at parameter {at[0]:g} landed inside the singular band{lost}")
        return dot_c(nd.z, tangent)

    d1 = pairing(offset)
    d2 = pairing(2.0 * offset)
    return 2.0 * d1 - d2


# ---------------------------------------------------------------------------
# Calibration foliations (vertical translates of area-stationary graphs)


@dataclass(frozen=True)
class GraphFoliation:
    """The field nu_H of the foliation of the group by vertical translates
    of a graph t = u(x, y); constant along vertical lines.

    With the upward graph normal, nu_H = -(u_x - y, u_y + x, 0)/|...|.
    """

    ux: Callable
    uy: Callable
    label: str = "foliation"

    def components(self, p: Point):
        x, y = _asf(p.x), _asf(p.y)
        return self.ux(x, y) - y, self.uy(x, y) + x

    def locus_distance(self, p: Point):
        a, b = self.components(p)
        return np.hypot(a, b)

    def horizontal_normal(self, p: Point):
        a, b = self.components(p)
        w = np.hypot(a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.stack(np.broadcast_arrays(-a / w, -b / w, np.zeros_like(w)), axis=-1)
        return out


def plane_foliation(alpha: float = 0.0, beta: float = 0.0) -> GraphFoliation:
    """Translates of the plane t = alpha x + beta y; singular locus is the
    vertical line (y, x) = (alpha, -beta)."""
    return GraphFoliation(
        lambda x, y: alpha + 0.0 * x,
        lambda x, y: beta + 0.0 * x,
        label=f"plane({alpha:g},{beta:g})")


def bernstein_foliation(dg: Callable | float, label: str = "bernstein") -> GraphFoliation:
    """Translates of t = x y + g(y); pass g' as a callable or the constant a
    for the stationary family g = a y + b.  Singular locus: 2x + g'(y) = 0."""
    if not callable(dg):
        a = float(dg)

        def dgf(y):
            return a + 0.0 * _asf(y)
    else:
        dgf = dg
    return GraphFoliation(
        lambda x, y: _asf(y) + 0.0 * _asf(x),
        lambda x, y: _asf(x) + dgf(y),
        label=label)


def calibration_divergence(foliation: GraphFoliation, q: Point,
                           h_fd: float = 1e-5, guard: float = 1e-9):
    """Riemannian divergence of the foliation field at q by frame differencing.

    Zero (to differencing accuracy) characterizes the area-minimizing
    families; a probe whose stencil straddles a non-orthogonal singular
    locus picks up the distributional jump of nu_H and reports a large
    value.  Raises OnSingularLocus if q itself sits on the locus.
    """
    if np.any(foliation.locus_distance(q) < guard):
        raise OnSingularLocus(f"probe point on the singular locus of {foliation.label}")
    return divergence(foliation.horizontal_normal, q, h_fd=h_fd)


def fill_mesh_curvature(m, h_fd: float = H_CHAR_STEP,
                        tol_singular: float = TOL_SINGULAR) -> None:
    """Populate mesh.h_est at regular vertices (NaN near the singular set)."""
    eps = np.broadcast_to(m.eps[:, None], m.shape)
    s = np.broadcast_to(m.s[None, :], m.shape)
    ok = m.nh_norm >= 10 * tol_singular
    if not np.any(ok):
        return
    h = np.full(m.shape, np.nan)
    h[ok] = mean_curvature_char(m.patch, eps[ok], s[ok], h_fd=h_fd,
                                tol_singular=tol_singular)
    m.h_est = h
