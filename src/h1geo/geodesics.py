"""Closed-form geodesics of the Heisenberg group and their checkers.

A geodesic of curvature lambda is an arclength horizontal curve solving
D_{gamma'} gamma' + 2 lambda J(gamma') = 0.  With initial point
(x0, y0, t0) and initial horizontal direction (A, B) = (cos theta, sin theta)
the solution is, writing z = 2 lambda s,

    x(s) = x0 + A sigma + B kappa
    y(s) = y0 - A kappa + B sigma
    t(s) = t0 + tau + (A x0 + B y0) kappa - (B x0 - A y0) sigma

where sigma = sin(z)/(2 lambda), kappa = (1 - cos(z))/(2 lambda) and
tau = (s - sigma)/(2 lambda).  The three ratios are evaluated by series
when |z| is small, which makes every formula continuous through
lambda = 0 (straight lines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hgroup
from .hgroup import Point, conn_c, curvature_tensor, dot_c, j_c

SERIES_SWITCH = 1e-4  # evaluate sigma/kappa/tau by series for |2*lambda*s| below this
H_FD2 = 2e-4          # step of the five-point second derivatives; at 1e-5 the
                      # roundoff floor eps/h^2 would sit above the 1e-6 residual targets


def stable_ratios(lam, s):
    """(sigma, kappa, tau) as above, stable across lambda = 0.

    Broadcasts over arrays; the series branch uses four Taylor terms, which
    keeps the relative truncation error below 1e-30 at the switch point.
    """
    lam = np.asarray(lam, float)
    s = np.asarray(s, float)
    z = 2.0 * lam * s
    small = np.abs(z) < SERIES_SWITCH
    den = np.where(small, 1.0, 2.0 * lam)
    with np.errstate(invalid="ignore"):
        sig_closed = np.sin(z) / den
        kap_closed = (1.0 - np.cos(z)) / den
        tau_closed = (s - sig_closed) / den
    z2 = z * z
    sig_series = s * (1.0 - z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0)))
    kap_series = s * (z / 2.0) * (1.0 - z2 / 12.0 * (1.0 - z2 / 30.0 * (1.0 - z2 / 56.0)))
    tau_series = s * s * (z / 6.0) * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0 * (1.0 - z2 / 72.0)))
    sigma = np.where(small, sig_series, sig_closed)
    kappa = np.where(small, kap_series, kap_closed)
    tau = np.where(small, tau_series, tau_closed)
    return sigma, kappa, tau


@dataclass(frozen=True)
class GeodesicSpec:
    """Initial data: base point, horizontal direction angle, signed curvature."""

    base: Point
    theta: float | np.ndarray
    lam: float | np.ndarray


def _point_ab(base: Point, A, B, ratios) -> Point:
    """The point of the closed form from base, direction (A, B) and the
    `stable_ratios` triple (sigma, kappa, tau) at its lambda and s."""
    sigma, kappa, tau = ratios
    x0 = np.asarray(base.x, float)
    y0 = np.asarray(base.y, float)
    t0 = np.asarray(base.t, float)
    x = x0 + A * sigma + B * kappa
    y = y0 - A * kappa + B * sigma
    t = t0 + tau + (A * x0 + B * y0) * kappa - (B * x0 - A * y0) * sigma
    return Point(x, y, t)


def geodesic_point(g: GeodesicSpec, s) -> Point:
    """Point at arclength s along the geodesic."""
    th = np.asarray(g.theta, float)
    return _point_ab(g.base, np.cos(th), np.sin(th), stable_ratios(g.lam, s))


def geodesic_velocity(g: GeodesicSpec, s) -> np.ndarray:
    """Unit horizontal velocity at arclength s, in frame coefficients.

    The planar direction rotates: (x', y') = (cos(theta - z), sin(theta - z))
    with z = 2 lambda s, so the frame coefficients are exactly unit.
    """
    phase = np.asarray(g.theta, float) - 2.0 * np.asarray(g.lam, float) * np.asarray(s, float)
    a = np.cos(phase)
    return np.stack(np.broadcast_arrays(a, np.sin(phase), np.zeros_like(a)), axis=-1)


def geodesic_velocity_dcoeffs(g: GeodesicSpec, s) -> np.ndarray:
    """Plain s-derivative of the velocity frame coefficients: -2*lambda*J(gamma')."""
    lam = np.asarray(g.lam, float)
    phase = np.asarray(g.theta, float) - 2.0 * lam * np.asarray(s, float)
    da = 2.0 * lam * np.sin(phase)
    db = -2.0 * lam * np.cos(phase)
    return np.stack(np.broadcast_arrays(da, db, np.zeros_like(da)), axis=-1)


def geodesic_residual(g: GeodesicSpec, s):
    """Norm of D_{gamma'} gamma' + 2 lambda J(gamma') from analytic derivatives.

    The velocity is converted from Cartesian derivatives of the closed form
    through the frame machinery (rather than from the rotating-phase
    shortcut), so the residual genuinely exercises the coordinate formulas,
    the frame conversion and the connection table together.
    """
    lam = np.asarray(g.lam, float)
    th = np.asarray(g.theta, float)
    A, B = np.cos(th), np.sin(th)
    z = 2.0 * lam * np.asarray(s, float)
    p = geodesic_point(g, s)
    xd = A * np.cos(z) + B * np.sin(z)
    yd = -A * np.sin(z) + B * np.cos(z)
    td = xd * p.y - p.x * yd            # horizontality
    xdd = 2.0 * lam * yd
    ydd = -2.0 * lam * xd
    tdd = xdd * p.y - p.x * ydd          # d/ds of (x'y - xy')
    vel = hgroup.cartesian_to_frame(p, np.stack(np.broadcast_arrays(xd, yd, td), axis=-1))
    # plain s-derivative of the velocity coefficients (a, b, c):
    # a' = x'', b' = y'', c' = t'' - x''y + xy'' (the x'y' cross terms cancel)
    dc = tdd - xdd * p.y + p.x * ydd
    dvel = np.stack(np.broadcast_arrays(xdd, ydd, dc), axis=-1)
    cov = dvel + conn_c(vel, vel)
    res = cov + 2.0 * lam[..., None] * j_c(vel)
    return np.linalg.norm(res, axis=-1)


@dataclass(frozen=True)
class FieldAlongGeodesic:
    """A vector field V(s) along a geodesic, as frame coefficients.

    `coeffs` maps arclength to shape (..., 3).  `dcoeffs` and `ddcoeffs`
    are its first and second analytic s-derivatives, given both or neither;
    without them `jacobi_residual` differences `coeffs`.
    """

    geodesic: GeodesicSpec
    coeffs: Callable
    dcoeffs: Callable | None = None
    ddcoeffs: Callable | None = None

    def __post_init__(self):
        if (self.dcoeffs is None) != (self.ddcoeffs is None):
            raise ValueError("a field carries both analytic derivatives or neither")


def tangent_jacobi_field(g: GeodesicSpec, a, b) -> FieldAlongGeodesic:
    """V = (a s + b) gamma', the tangent Jacobi candidates.

    a, b and the geodesic's theta and lam broadcast against s, so one field
    can carry a batch of geodesics, each with its own a and b."""
    a = np.asarray(a, float)
    lam = np.asarray(g.lam, float)[..., None]

    def coeffs(s):
        s = np.asarray(s, float)
        f = a * s + b
        return f[..., None] * geodesic_velocity(g, s)

    def dcoeffs(s):
        s = np.asarray(s, float)
        f = a * s + b
        vc = geodesic_velocity(g, s)
        dvc = geodesic_velocity_dcoeffs(g, s)
        return a[..., None] * vc + f[..., None] * dvc

    def ddcoeffs(s):
        # gamma''' coefficients: d/ds(-2 lam J(gamma')) = -4 lam^2 gamma'
        s = np.asarray(s, float)
        f = a * s + b
        vc = geodesic_velocity(g, s)
        dvc = geodesic_velocity_dcoeffs(g, s)
        return 2 * a[..., None] * dvc - 4 * lam * lam * f[..., None] * vc

    return FieldAlongGeodesic(g, coeffs, dcoeffs, ddcoeffs)


def conserved_quantity(g: GeodesicSpec, field: FieldAlongGeodesic | Callable, s):
    """lambda <V, T> + <V, gamma'>, constant along the geodesic for variation fields."""
    coeffs = field.coeffs if isinstance(field, FieldAlongGeodesic) else field
    v = np.asarray(coeffs(s), float)
    vel = geodesic_velocity(g, s)
    return np.asarray(g.lam, float) * v[..., 2] + dot_c(v, vel)


def second_cov_deriv(g: GeodesicSpec, s, v, vdot, vddot) -> np.ndarray:
    """Second covariant derivative along the geodesic from coefficient derivatives.

    With W = V' = vdot + conn(gamma', v),
    V'' = vddot + conn(d gamma'/ds, v) + 2 conn(gamma', vdot)
          + conn(gamma', conn(gamma', v)).
    """
    vel = geodesic_velocity(g, s)
    dvel = geodesic_velocity_dcoeffs(g, s)
    return (
        vddot
        + conn_c(dvel, v)
        + 2.0 * conn_c(vel, vdot)
        + conn_c(vel, conn_c(vel, v))
    )


def jacobi_residual(g: GeodesicSpec, field: FieldAlongGeodesic, s):
    """Norm of V'' + R(V, gamma')gamma' + 2 lambda (J(V') - <V, gamma'> T).

    V'' is the second covariant derivative along the geodesic.  The plain
    coefficient derivatives are the field's analytic ones when it carries
    them, otherwise five-point central differences of step H_FD2.
    """
    s = np.asarray(s, float)
    h = H_FD2
    v = np.asarray(field.coeffs(s), float)
    if field.dcoeffs is not None:
        vdot = np.asarray(field.dcoeffs(s), float)
        vddot = np.asarray(field.ddcoeffs(s), float)
    else:
        f_2m = np.asarray(field.coeffs(s - 2 * h), float)
        f_m = np.asarray(field.coeffs(s - h), float)
        f_p = np.asarray(field.coeffs(s + h), float)
        f_2p = np.asarray(field.coeffs(s + 2 * h), float)
        vdot = (-f_2p + 8 * f_p - 8 * f_m + f_2m) / (12 * h)
        vddot = (-f_2p + 16 * f_p - 30 * v + 16 * f_m - f_2m) / (12 * h * h)
    vel = geodesic_velocity(g, s)
    vpp = second_cov_deriv(g, s, v, vdot, vddot)
    vprime = vdot + conn_c(vel, v)
    lam = np.asarray(g.lam, float)
    tangential = dot_c(v, vel)
    correction = j_c(vprime)
    correction[..., 2] -= tangential
    res = vpp + curvature_tensor(v, vel, vel) + 2.0 * lam[..., None] * correction
    return np.linalg.norm(res, axis=-1)


def cut_time(h, lam):
    """First parameter s in (0, pi/|lambda|) where the orthogonal geodesic
    family from a curve of planar curvature h becomes horizontal again.

    Solves h = 2 lambda sin(2 lambda s) / (1 - cos(2 lambda s)), i.e.
    cot(|lambda| s) = h / (2 |lambda|), in closed form.
    """
    lam = np.asarray(lam, float)
    if np.any(lam == 0.0):
        raise ValueError("cut_time requires lambda != 0 (use the ruled builder for lambda = 0)")
    al = np.abs(lam)
    return (np.pi / 2.0 - np.arctan(np.asarray(h, float) / (2.0 * al))) / al
