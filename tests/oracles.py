"""Reference computations that only the tests use.

Each is an independent method for a quantity the library computes in
closed form: central differences of a patch's points for its partials,
fourth-order differences of a graph's height for its derivatives,
five-point differences of a curve for the geodesic equation, the group
inverse for the group law, the Riemannian area element as a named
quadrature integrand, and the planar curve under a closed-form horizontal
curve, whose lift the closed form checks.
"""

from typing import Callable

import numpy as np

from h1geo.geodesics import H_FD2
from h1geo.hcurves import PlanarCurve
from h1geo.hgroup import Point, cartesian_to_frame, conn_c, j_c

GRAPH_FD_STEP = 1e-3   # step of fd_bundle's fourth-order differences


def _asf(x):
    return np.asarray(x, float)


def fd_partials(patch, eps, s):
    """(F_eps, F_s, p) by central differences of `patch.point`, steps 1e-6
    of each parameter range (at least 1e-6); the reference for `partials`."""
    he = 1e-6 * max(patch.eps_hi - patch.eps_lo, 1.0)
    hs = 1e-6 * max(patch.s_hi - patch.s_lo, 1.0)
    eps = _asf(eps)
    s = _asf(s)
    p = patch.point(eps, s)
    de = (patch.point(eps + he, s).as_array() - patch.point(eps - he, s).as_array()) / (2 * he)
    ds = (patch.point(eps, s + hs).as_array() - patch.point(eps, s - hs).as_array()) / (2 * hs)
    return cartesian_to_frame(p, de), cartesian_to_frame(p, ds), p


def fd_bundle(u: Callable):
    """(u, u_x, u_y, u_xx, u_xy, u_yy) callables of a bare graph u(x, y) by
    fourth-order central differences of step GRAPH_FD_STEP; the reference
    for graphs' own `height` and `hessian`."""
    h = GRAPH_FD_STEP

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


def curve_geodesic_residual(position: Callable[[float], Point], lam: float, s):
    """Geodesic-equation residual of an arbitrary coordinate curve.

    `position` maps arclength to a Point; derivatives are taken by
    five-point central differences with step H_FD2.  Detects
    non-geodesics (including non-horizontal curves, whose velocity picks
    up a T-coefficient).
    """
    s = np.asarray(s, float)
    h = H_FD2

    def xyz(u):
        return position(u).as_array()

    f_2m, f_m, f_0, f_p, f_2p = (xyz(s - 2 * h), xyz(s - h), xyz(s), xyz(s + h), xyz(s + 2 * h))
    d1 = (f_2m - 8 * f_m + 8 * f_p - f_2p) / (12 * h)
    d2 = (-f_2m + 16 * f_m - 30 * f_0 + 16 * f_p - f_2p) / (12 * h * h)
    p = Point.from_array(f_0)
    vel = cartesian_to_frame(p, d1)
    # plain derivative of the frame coefficients of the velocity:
    # (x'', y'', t'' - x''y + xy'')
    dc = d2[..., 2] - d2[..., 0] * np.asarray(p.y, float) + np.asarray(p.x, float) * d2[..., 1]
    dvel = np.stack([d2[..., 0], d2[..., 1], dc], axis=-1)
    cov = dvel + conn_c(vel, vel)
    res = cov + 2.0 * lam * j_c(vel)
    return np.linalg.norm(res, axis=-1)


def group_inv(p: Point) -> Point:
    """The inverse of p under the group law: (-x, -y, -t)."""
    return Point(-p.x, -p.y, -p.t)


def _rarea(eps, s, p, raw):
    return np.linalg.norm(raw, axis=-1), None


# the Riemannian area of a patch (no |N_H| weight) as a `quad_many` kind:
# quad_many(patch, n, (RAREA,))["rarea"]
RAREA = ("rarea", _rarea)


def planar_of(curve) -> PlanarCurve:
    """The planar curve under a closed-form horizontal curve (the circle
    under a helix, the line under a line), each part read from its `jet`:
    the input of a lift whose output the closed form checks."""
    def part(k):
        def f(e):
            jet = curve.jet(e)
            return (jet[0].x, jet[0].y) if k == 0 else jet[k]
        return f

    return PlanarCurve(*map(part, range(4)), curve.eps_min, curve.eps_max)
