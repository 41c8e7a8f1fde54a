"""Reference computations that only the tests use.

Each is an independent method for a quantity the library computes in
closed form: central differences of a patch's points for its partials,
fourth-order differences of a patch's partials for its second partials,
a Richardson stencil of nu_H along Z for the mean curvature,
fourth-order differences of a graph's height for its derivatives,
five-point differences of a curve for the geodesic equation, the group
inverse for the group law, the Riemannian area element as a named
quadrature integrand, and the planar curve under a closed-form horizontal
curve, whose lift the closed form checks.
"""

from typing import Callable

import numpy as np

from h1geo.curvature import _z_velocity
from h1geo.geodesics import H_FD2
from h1geo.hcurves import PlanarCurve
from h1geo.hgroup import Point, cartesian_to_frame, conn_c, dot_c, j_c

GRAPH_FD_STEP = 1e-3   # step of fd_bundle's fourth-order differences
# The step h of stencil_mean_curvature: its ends sit at parameter offsets
# +-h/2 and +-h along Z's velocity, and Richardson's step over the two
# removes the h^2 term of the central differences.
STENCIL_STEP = 1e-4
# The rounding of that H, in units of eps / h: each end's unit nu_H carries
# about 4 ulps, so H(k) is off by about 2 eps / k and (4 H(h/2) - H(h)) / 3
# by (16 + 2) / 3 = 6 eps / h.  Near a singular set the Richardson remainder
# passes this (2.8e-10 on the lambda = 1 cylinder sheet at y = 0.001 of the
# half-width).
STENCIL_ROUNDOFF = 6.0


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


def fd_second_partials(patch, eps, s, steps=(1e-3, 1e-3)):
    """(d_eps F_eps, d_s F_eps, d_s F_s) by fourth-order central differences
    of `patch.partials` with the steps (in eps, in s); the reference for
    `second_partials`, whose tangent parts it does not fix."""
    he, hs = steps

    def d(k, along_eps, h):
        vals = [patch.partials(eps + j * h, s)[k] if along_eps else patch.partials(eps, s + j * h)[k]
                for j in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    return d(0, True, he), d(0, False, hs), d(1, False, hs)


def stencil_mean_curvature(patch, eps, s):
    """H = -(1/2) <D_Z nu_H, Z> with D_Z nu_H differenced along the straight
    parameter line through (eps, s) in the direction of Z's parameter
    velocity: central differences of nu_H with ends at +-k (ve, vs) for
    k = h / 2 and h, h = STENCIL_STEP, combined by Richardson's step
    (4 D(h / 2) - D(h)) / 3.  Its rounding is about STENCIL_ROUNDOFF eps / h
    away from singular sets.  The points must be regular and so must the
    stencil's ends (nu_H is NaN in the singular band)."""
    nd = patch.normal_data(eps, s)
    ve, vs = _z_velocity(nd)
    signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(ve))

    def slope(k):
        nu = -j_c(patch.normal_data(eps + signs * k * ve, s + signs * k * vs).z)
        return (nu[0] - nu[1]) / (2.0 * k)

    dnu = (4.0 * slope(STENCIL_STEP / 2) - slope(STENCIL_STEP)) / 3.0
    return -0.5 * dot_c(dnu + conn_c(nd.z, -j_c(nd.z)), nd.z)


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
    return np.linalg.norm(raw, axis=-1)


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
