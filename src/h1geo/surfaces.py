"""Parametric immersions: the surface catalog, builders, normals, meshing.

Every patch maps a parameter rectangle [eps_lo, eps_hi] x [s_lo, s_hi] into
the group and reports its first partials as frame-coefficient triples.  For
cut-bounded builders the second parameter is rectified to sigma = s/s_cut in
[0, 1] so domains stay rectangular.  The unit normal is

    N = orientation * (F_eps x F_s) / |F_eps x F_s|

in frame coefficients; the singular set is where the horizontal part N_H
vanishes, and there the horizontal normal nu_H and the characteristic field
Z = J(nu_H) are withheld.

Each sample is evaluated along one path:

    partials -> frame -> normal_data -> {quadrature, characteristic field}

A patch class implements only `partials(eps, s) -> (F_eps, F_s, p)`: both
partials as frame triples and the point, from one evaluation of the chart.
`frame` adds the unnormalized oriented normal, which the quadrature
integrands read, and `normal_data` normalizes it and carries the partials
on, so the characteristic traces never evaluate a sample twice.
`fd_partials` is the finite-difference reference for `partials`; the tests
hold every patch to it, and `PerturbedPatch`, with no closed form, uses it.
A `SurfaceMesh` keeps the grid, the points, |N_H|, the geometric s and the
mean-curvature estimate.  An orthogonal-geodesic patch reads its curve's
`position`, `planar.d1` and `planar.d2` once per call, on eps as given, and
forms h = x'y'' - x''y' from them; a sigma-lambda call also reads d1 and d2
at eps +- h_fd, for `curvature_rate`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneratePoint, NonFinite, UnknownSurface
from .geodesics import GeodesicSpec, cut_time, stable_ratios
from .hcurves import HorizontalCurve, helix_curve, line_curve
from .hgroup import (
    Point,
    cartesian_to_frame,
    cross_c,
    dilate,
    frame_to_cartesian,
    group_mul,
    j_c,
)

TOL_SINGULAR = 1e-6


def _asf(x):
    return np.asarray(x, float)


@dataclass(frozen=True)
class NormalData:
    """Per-point normal bundle and the partials it came from.

    Singular entries of nu_h and z are NaN.  `fe` and `fs` are the frame
    triples F_eps and F_s returned by `partials` at the same points.
    """

    base: Point
    normal: np.ndarray       # (..., 3) unit N
    nh_norm: np.ndarray      # |N_H|
    nu_h: np.ndarray         # (..., 3) or NaN where singular
    z: np.ndarray            # J(nu_h)
    singular: np.ndarray     # bool mask |N_H| < tol
    fe: np.ndarray           # (..., 3) F_eps
    fs: np.ndarray           # (..., 3) F_s


def _unit_normal(raw):
    """raw / |raw|, refusing points where the immersion partials are dependent.
    A squared norm that overflows raises FloatingPointError instead of
    reading |raw| = inf, which would give N = 0."""
    with np.errstate(over="raise"):
        nrm = np.linalg.norm(raw, axis=-1)
    if np.any(nrm < 1e-12):
        raise DegeneratePoint("immersion partials are dependent at a requested point")
    return raw / nrm[..., None]


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


class ImmersedPatch:
    """Base class: subclasses supply `partials`."""

    label = "patch"
    lam = None            # expected constant mean curvature, when known
    closed = False        # True when the parameter rectangle sweeps a closed surface
    open_s_ends = (False, False)  # degenerate parameterization rows to inset when meshing

    def __init__(self, eps_lo, eps_hi, s_lo, s_hi, orientation=1):
        self.eps_lo = float(eps_lo)
        self.eps_hi = float(eps_hi)
        self.s_lo = float(s_lo)
        self.s_hi = float(s_hi)
        self.orientation = orientation

    # -- geometry ----------------------------------------------------------
    def partials(self, eps, s):
        """(F_eps, F_s, p): the partials as frame triples and the point."""
        raise NotImplementedError

    def point(self, eps, s) -> Point:
        return self.partials(eps, s)[2]

    def geometric_s(self, eps, s):
        """Geometric second coordinate (un-rectified); identity by default."""
        return np.broadcast_arrays(_asf(eps), _asf(s))[1]

    # -- normals -----------------------------------------------------------
    def frame(self, eps, s):
        """(p, F_eps, F_s, raw) from one `partials` call.

        raw = orientation * (F_eps x F_s), unnormalized and without a
        degeneracy check, so integrands that vanish on degenerate rows can
        read it directly.
        """
        fe, fs, p = self.partials(eps, s)
        return p, fe, fs, self.orientation * cross_c(fe, fs)

    def normal_data(self, eps, s) -> NormalData:
        p, fe, fs, raw = self.frame(eps, s)
        n = _unit_normal(raw)
        nh = np.hypot(n[..., 0], n[..., 1])
        singular = nh < TOL_SINGULAR
        with np.errstate(invalid="ignore", divide="ignore"):
            nu = np.stack([n[..., 0] / nh, n[..., 1] / nh, np.zeros_like(nh)], axis=-1)
        nu = np.where(singular[..., None], np.nan, nu)
        return NormalData(p, n, nh, nu, j_c(nu), singular, fe, fs)

    # -- orientation and group motions ---------------------------------------
    def flipped(self) -> "ImmersedPatch":
        return _MappedPatch(self, "", sign=-1)

    def translated(self, p0: Point) -> "ImmersedPatch":
        """Left translation by p0; frame coefficients of partials are unchanged."""
        return _MappedPatch(self, "+translated", move=lambda p: group_mul(p0, p))

    def dilated(self, s0: float) -> "ImmersedPatch":
        """Image under the dilation phi_{s0}.

        The pushforward acts on the frame by X -> e^{s0} X, Y -> e^{s0} Y,
        T -> e^{2 s0} T, so partials transform analytically.
        """
        s0 = float(s0)
        es = np.exp(s0)
        return _MappedPatch(self, "+dilated", move=lambda p: dilate(s0, p),
                            scale=np.array([es, es, es * es]), lam_factor=np.exp(-s0))

    def singular_curves(self):
        """Singular boundary curves carried by the patch, when known."""
        return []


class _MappedPatch(ImmersedPatch):
    """A base patch seen through a map of the group.

    `move` maps the base's points (None keeps them), `scale` multiplies the
    frame coefficients of both partials (the map's constant pushforward on
    the frame), `sign` multiplies the orientation, and the nominal
    curvature becomes sign * lam_factor * lam.
    """

    def __init__(self, base: ImmersedPatch, suffix: str, move=None, scale=1.0,
                 sign: int = 1, lam_factor=1):
        super().__init__(base.eps_lo, base.eps_hi, base.s_lo, base.s_hi,
                         orientation=sign * base.orientation)
        self._base = base
        self._move = move
        self._scale = scale
        self.label = base.label + suffix
        self.closed = base.closed
        self.open_s_ends = base.open_s_ends
        self.lam = None if base.lam is None else sign * lam_factor * base.lam

    def partials(self, eps, s):
        fe, fs, p = self._base.partials(eps, s)
        return (fe * self._scale, fs * self._scale,
                p if self._move is None else self._move(p))

    def geometric_s(self, eps, s):
        return self._base.geometric_s(eps, s)

    def singular_curves(self):
        # the base's curves lie on this patch only when no point moved
        return self._base.singular_curves() if self._move is None else []


class PerturbedPatch(ImmersedPatch):
    """Normal perturbation exp-map style: q = p + amp * u(eps,s) * N(p).

    The displacement is a straight line in frame coefficients re-expressed
    at the base point (first-order exponential map); partials are
    `fd_partials` of the displaced immersion.
    """

    def __init__(self, base: ImmersedPatch, u: Callable, amp: float):
        super().__init__(base.eps_lo, base.eps_hi, base.s_lo, base.s_hi,
                         orientation=base.orientation)
        self._base = base
        self.label = base.label + "+perturbed"
        self.closed = base.closed
        self.open_s_ends = base.open_s_ends
        self._u = u
        self._amp = float(amp)

    partials = fd_partials

    def point(self, eps, s):
        p, _, _, raw = self._base.frame(eps, s)
        disp = self._amp * _asf(self._u(eps, s))[..., None] * _unit_normal(raw)
        return Point.from_array(p.as_array() + frame_to_cartesian(p, disp))


# ---------------------------------------------------------------------------
# Spheres


class SpherePatch(ImmersedPatch):
    """The compact sphere of curvature lam > 0: union of all geodesics of
    curvature lam from the origin, run over [0, pi/lam].

    Parameters are (theta, s); the poles (0,0,0) and (0,0,pi/(2 lam^2)) are
    parameterization-degenerate rows, so meshes inset them slightly.  The
    default orientation is the inner normal, for which the mean curvature
    is +lam.
    """

    closed = True
    open_s_ends = (True, True)

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("sphere curvature must be positive")
        super().__init__(0.0, 2 * np.pi, 0.0, np.pi / lam,
                         orientation=-1)  # raw cross points outward; flip to inner
        self.lam = float(lam)
        self.label = f"sphere(lam={lam:g})"

    def partials(self, eps, s):
        th = _asf(eps)
        s = _asf(s)
        sig, kap, tau = stable_ratios(self.lam, s)
        A, B = np.cos(th), np.sin(th)
        p = Point(A * sig + B * kap, -A * kap + B * sig, tau + 0.0 * A)
        dx_th = -B * sig + A * kap
        dy_th = B * kap + A * sig
        c_th = -dx_th * _asf(p.y) + dy_th * _asf(p.x)
        fe = np.stack(np.broadcast_arrays(dx_th, dy_th, c_th), axis=-1)
        phase = th - 2.0 * self.lam * s
        fs = np.stack(np.broadcast_arrays(
            np.cos(phase), np.sin(phase), np.zeros_like(phase)), axis=-1)
        return fe, fs, p


def sphere_geodesic(lam: float) -> SpherePatch:
    return SpherePatch(lam)


def _sphere_profile(lam: float, sheet: int):
    """Radial profile t = f(rho) of one sheet; sheet = -1 lower, +1 upper.

    The sphere with poles at (0,0,0) and (0,0,pi/(2 lam^2)) has
    f(rho) = pi/(4 lam^2) + sheet * (lam rho sqrt(1-lam^2 rho^2)
             + arccos(lam rho)) / (2 lam^2),
    recovered by inverting the geodesic parameterization.
    """
    def f(rho):
        rho = _asf(rho)
        w = np.sqrt(np.maximum(1.0 - (lam * rho) ** 2, 0.0))
        return np.pi / (4 * lam**2) + sheet * (lam * rho * w + np.arccos(np.clip(lam * rho, -1, 1))) / (2 * lam**2)

    def df(rho):
        rho = _asf(rho)
        w = np.sqrt(np.maximum(1.0 - (lam * rho) ** 2, 1e-300))
        return -sheet * lam * rho**2 / w

    def ddf(rho):
        rho = _asf(rho)
        w2 = np.maximum(1.0 - (lam * rho) ** 2, 1e-300)
        return -sheet * lam * rho * (2.0 - (lam * rho) ** 2) / w2**1.5

    return f, df, ddf


class SphereGraphSheet(ImmersedPatch):
    """One radial graph sheet of the sphere, parameterized by (phi, rho).

    Default orientation is the inner normal (upward on the lower sheet,
    downward on the upper).
    """

    open_s_ends = (True, True)  # rho = 0 is a polar-coordinate degeneracy; rho = 1/lam is vertical

    def __init__(self, lam: float, sheet: int):
        if lam <= 0:
            raise ValueError("sphere curvature must be positive")
        # raw cross has T-coefficient -rho (downward); the lower sheet flips it
        # so N points up, i.e. into the enclosed ball on both sheets
        super().__init__(0.0, 2 * np.pi, 0.0, 1.0 / lam, orientation=sheet)
        self.lam = float(lam)
        self.sheet = int(sheet)
        self.label = f"sphere-sheet({'upper' if sheet > 0 else 'lower'},lam={lam:g})"
        self.profile = _sphere_profile(lam, sheet)

    def partials(self, eps, s):
        phi, rho = _asf(eps), _asf(s)
        f, df, _ = self.profile
        cph, sph = np.cos(phi), np.sin(phi)
        p = Point(rho * cph, rho * sph, f(rho) + 0.0 * phi)
        de = np.stack(np.broadcast_arrays(-rho * sph, rho * cph, rho * rho + 0.0 * cph), axis=-1)
        c_r = df(rho) - cph * _asf(p.y) + sph * _asf(p.x)
        dr = np.stack(np.broadcast_arrays(cph + 0.0 * rho, sph + 0.0 * rho, c_r), axis=-1)
        return de, dr, p

    def graph_bundle(self):
        """(u, ux, uy, uxx, uxy, uyy) callables in Cartesian (x, y)."""
        f, df, ddf = self.profile

        def split(x, y):
            x, y = _asf(x), _asf(y)
            rho = np.hypot(x, y)
            rho = np.maximum(rho, 1e-300)
            return x, y, rho

        def u(x, y):
            _, _, rho = split(x, y)
            return f(rho)

        def ux(x, y):
            x, _, rho = split(x, y)
            return df(rho) * x / rho

        def uy(x, y):
            _, y, rho = split(x, y)
            return df(rho) * y / rho

        def uxx(x, y):
            x, y, rho = split(x, y)
            return ddf(rho) * x * x / rho**2 + df(rho) * y * y / rho**3

        def uyy(x, y):
            x, y, rho = split(x, y)
            return ddf(rho) * y * y / rho**2 + df(rho) * x * x / rho**3

        def uxy(x, y):
            x, y, rho = split(x, y)
            return ddf(rho) * x * y / rho**2 - df(rho) * x * y / rho**3

        return u, ux, uy, uxx, uxy, uyy


def sphere_graph(lam: float):
    """Both radial graph sheets (lower, upper) of the sphere of curvature lam."""
    return SphereGraphSheet(lam, -1), SphereGraphSheet(lam, +1)


# ---------------------------------------------------------------------------
# Graphs over the xy-plane


class GraphPatch(ImmersedPatch):
    """Graph t = u(x, y) over a rectangle, with analytic partials.

    In the frame, F_x = (1, 0, u_x - y) and F_y = (0, 1, u_y + x); the raw
    normal (orientation +1) is the upward direction (y - u_x, -x - u_y, 1).
    """

    def __init__(self, u, ux, uy, rect, orientation=1, label="graph",
                 uxx=None, uxy=None, uyy=None, lam=None):
        super().__init__(rect[0], rect[1], rect[2], rect[3], orientation=orientation)
        self.u, self.ux, self.uy = u, ux, uy
        self.uxx, self.uxy, self.uyy = uxx, uxy, uyy
        self.label = label
        self.lam = lam

    def partials(self, eps, s):
        x, y = np.broadcast_arrays(_asf(eps), _asf(s))
        p = Point(x + 0.0 * y, y + 0.0 * x, self.u(x, y))
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        fx = np.stack([one, zero, self.ux(x, y) - y], axis=-1)
        fy = np.stack([zero, one, self.uy(x, y) + x], axis=-1)
        return fx, fy, p

    def graph_bundle(self):
        return self.u, self.ux, self.uy, self.uxx, self.uxy, self.uyy


@dataclass(frozen=True)
class SingularCurveRef:
    """A singular curve on a patch with an inward probe into the regular side."""

    point: Callable          # param -> Point
    tangent: Callable        # param -> frame triple of the curve tangent
    inward: Callable         # (param, offset) -> (eps, s) patch parameters
    label: str = "singular"


class BernsteinGraph(GraphPatch):
    """The graph t = x y + g(y); minimal for every C^2 g, area-stationary
    only for affine g.  Singular curve: x = -g'(y)/2.

    Orientation +1 (upward normal, <N,T> > 0) so the characteristic field
    on the side 2x + g'(y) > 0 is +X and the singular-curve pairing
    <Z, Gamma'(y)> evaluates to -g''(y)/2.
    """

    def __init__(self, g, dg, ddg, rect=(-3.0, 3.0, -3.0, 3.0)):
        def u(x, y):
            return x * y + g(y)

        def ux(x, y):
            return _asf(y) + 0.0 * _asf(x)

        def uy(x, y):
            return _asf(x) + dg(y)

        def uxx(x, y):
            return np.zeros(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))

        def uxy(x, y):
            return np.ones(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))

        def uyy(x, y):
            return ddg(y) + 0.0 * _asf(x)

        super().__init__(u, ux, uy, rect, orientation=1, label="bernstein",
                         uxx=uxx, uxy=uxy, uyy=uyy, lam=0.0)
        self.g, self.dg, self.ddg = g, dg, ddg

    def singular_curves(self):
        def pt(y):
            y = _asf(y)
            return Point(-self.dg(y) / 2.0, y, self.g(y) - self.dg(y) * y / 2.0)

        def tangent(y):
            y = _asf(y)
            return np.stack(np.broadcast_arrays(-self.ddg(y) / 2.0, np.ones_like(y), np.zeros_like(y)), axis=-1)

        def inward(y, offset):
            y = _asf(y)
            return -self.dg(y) / 2.0 + offset, y

        return [SingularCurveRef(pt, tangent, inward, label="bernstein-singular")]


def bernstein_graph(g, dg=None, ddg=None, rect=(-3.0, 3.0, -3.0, 3.0),
                    h_fd: float = 1e-5) -> BernsteinGraph:
    """Build the graph t = xy + g(y); derivative callables default to FD."""
    if dg is None:
        def dg(y):
            return (g(_asf(y) + h_fd) - g(_asf(y) - h_fd)) / (2 * h_fd)
    if ddg is None:
        def ddg(y):
            return (g(_asf(y) + h_fd) - 2 * g(_asf(y)) + g(_asf(y) - h_fd)) / (h_fd * h_fd)
    return BernsteinGraph(g, dg, ddg, rect)


def plane_patch(normal=(0.0, 0.0, 1.0), d: float = 0.0,
                rect=(-2.0, 2.0, -2.0, 2.0)) -> ImmersedPatch:
    """The Euclidean plane <normal, (x,y,t)> = d as a patch.

    Non-vertical planes become graphs t = (d - n1 x - n2 y)/n3 (one isolated
    singular point); vertical planes are parameterized by (arclength, t) and
    have no singular points.
    """
    n1, n2, n3 = (float(v) for v in normal)
    if abs(n3) > 1e-14:
        a, b, c = -n1 / n3, -n2 / n3, d / n3

        def u(x, y):
            return a * _asf(x) + b * _asf(y) + c

        def ux(x, y):
            return a + 0.0 * _asf(x) + 0.0 * _asf(y)

        def uy(x, y):
            return b + 0.0 * _asf(x) + 0.0 * _asf(y)

        def zero2(x, y):
            return np.zeros(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))

        return GraphPatch(u, ux, uy, rect, label="plane", uxx=zero2, uxy=zero2,
                          uyy=zero2, lam=0.0)
    return _VerticalPlane(n1, n2, d, rect)


class _VerticalPlane(ImmersedPatch):
    lam = 0.0

    def __init__(self, n1, n2, d, rect):
        super().__init__(*rect)
        nrm = np.hypot(n1, n2)
        self._dir = (-n2 / nrm, n1 / nrm)
        self._base = (n1 * d / nrm**2, n2 * d / nrm**2)
        self.label = "vertical-plane"

    def partials(self, eps, s):
        ell, t = np.broadcast_arrays(_asf(eps), _asf(s))
        p = Point(self._base[0] + ell * self._dir[0],
                  self._base[1] + ell * self._dir[1], t + 0.0 * ell)
        dx, dy = self._dir
        c = -dx * _asf(p.y) + dy * _asf(p.x)
        fe = np.stack([dx + 0.0 * ell, dy + 0.0 * ell, c], axis=-1)
        fs = np.stack([0.0 * ell, 0.0 * ell, 1.0 + 0.0 * ell], axis=-1)
        return fe, fs, p


class VerticalCylinder(ImmersedPatch):
    """The right circular cylinder x^2 + y^2 = rho^2, parameterized (phi, t).

    Vertical surface: empty singular set, constant mean curvature.
    """

    def __init__(self, rho: float, t_range=(-2.0, 2.0)):
        if not rho > 0:
            raise ValueError("cylinder radius must be positive")
        super().__init__(0.0, 2 * np.pi, t_range[0], t_range[1])
        self.rho = float(rho)
        self.label = f"vertical-cylinder(rho={rho:g})"

    def partials(self, eps, s):
        phi, t = np.broadcast_arrays(_asf(eps), _asf(s))
        rho = self.rho
        p = Point(rho * np.cos(phi), rho * np.sin(phi), t + 0.0 * phi)
        fe = np.stack([-rho * np.sin(phi), rho * np.cos(phi), rho * rho + 0.0 * phi], axis=-1)
        fs = np.stack([0.0 * phi, 0.0 * phi, 1.0 + 0.0 * phi], axis=-1)
        return fe, fs, p


# ---------------------------------------------------------------------------
# Orthogonal-geodesic builders


def _curve_data(curve: HorizontalCurve, eps):
    """(position, (x', y'), (x'', y''), h) of the curve on `eps` as given.

    The orthogonal-geodesic patches derive every per-eps quantity from
    these, so one patch call fetches its curve once on the eps axis and
    never on the broadcast (eps, s) grid.
    """
    eps = _asf(eps)
    (xd, yd), (xdd, ydd) = curve.planar.d1(eps), curve.planar.d2(eps)
    return curve.position(eps), (xd, yd), (xdd, ydd), xd * ydd - xdd * yd


class SigmaLambdaPatch(ImmersedPatch):
    """Surface swept by geodesics of curvature lam leaving a horizontal curve
    orthogonally (initial velocity side * J(Gamma')), cut at the first
    return of horizontality.

    The s-parameter is rectified: sigma in [0, 1] maps to s = sigma *
    s_cut(eps) with s_cut = cut_time(side * h(eps), lam).  The singular set
    is exactly the two boundary rows sigma = 0 and sigma = 1.  The default
    orientation makes N = +T on the base curve, for which the mean
    curvature is +lam.
    """

    def __init__(self, curve: HorizontalCurve, lam: float, side: int = 1,
                 eps_range=None, label=None):
        if lam == 0:
            raise ValueError("use build_sigma_zero for the ruled lambda = 0 builder")
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        lo, hi = eps_range if eps_range is not None else (curve.eps_min, curve.eps_max)
        super().__init__(lo, hi, 0.0, 1.0, orientation=side)
        self.curve = curve
        self.lam = float(lam)
        self.side = int(side)
        self.label = label or f"sigma-lambda({curve.label},lam={lam:g},side={side:+d})"

    # -- geometry ------------------------------------------------------------
    def s_cut(self, eps, h=None):
        """cut_time(side h(eps), lam); `h` is the planar curvature at eps,
        passed by callers that already hold it."""
        if h is None:
            h = self.curve.planar_curvature(eps)
        return cut_time(self.side * h, self.lam)

    def s_cut_rate(self, eps, h=None):
        """d s_cut / d eps = -2 side h'(eps) / (4 lam^2 + h^2)."""
        if h is None:
            h = self.curve.planar_curvature(eps)
        hdot = self.curve.curvature_rate(eps)
        return -2.0 * self.side * hdot / (4.0 * self.lam**2 + h * h)

    def geometric_s(self, eps, s):
        return _asf(s) * self.s_cut(eps)

    def _along(self, data, sgeo):
        """(point, geodesic velocity, variation coefficients) at geometric s.

        `data` is the curve data of `_curve_data` on the eps axis and `sgeo`
        broadcasts against it; stable_ratios runs once for all three.  The
        variation field is

            a = x' - side y'' sig + side x'' kap
            b = y' + side y'' kap + side x'' sig
            c = h kap / lam - 2 side sig
        """
        p, (xd, yd), (xdd, ydd), h = data
        sgeo = _asf(sgeo)
        sig, kap, tau = stable_ratios(self.lam, sgeo)
        A = -self.side * yd
        B = self.side * xd
        x0, y0, t0 = _asf(p.x), _asf(p.y), _asf(p.t)
        x = x0 + A * sig + B * kap
        y = y0 - A * kap + B * sig
        t = t0 + tau + (A * x0 + B * y0) * kap - (B * x0 - A * y0) * sig
        theta = np.arctan2(self.side * xd, -self.side * yd)
        phase = theta - 2.0 * self.lam * sgeo
        gdot = np.stack(np.broadcast_arrays(np.cos(phase), np.sin(phase),
                                            np.zeros_like(phase)), axis=-1)
        a = xd - self.side * ydd * sig + self.side * xdd * kap
        b = yd + self.side * ydd * kap + self.side * xdd * sig
        cv = h * kap / self.lam - 2.0 * self.side * sig
        return Point(x, y, t), gdot, np.stack(np.broadcast_arrays(a, b, cv), axis=-1)

    def variation_coeffs(self, eps, sgeo):
        """Frame triple of the variation field V_eps at geometric s (see `_along`)."""
        return self._along(_curve_data(self.curve, eps), sgeo)[2]

    def variation_dcoeffs(self, eps, sgeo):
        """Analytic d/ds of the variation coefficients (sig' = cos z, kap' = sin z)."""
        _, (xd, yd), (xdd, ydd), h = _curve_data(self.curve, eps)
        z = 2.0 * self.lam * _asf(sgeo)
        cz, sz = np.cos(z), np.sin(z)
        da = self.side * (-ydd * cz + xdd * sz)
        db = self.side * (ydd * sz + xdd * cz)
        dc = h * sz / self.lam - 2.0 * self.side * cz
        return np.stack(np.broadcast_arrays(da, db, dc), axis=-1)

    def partials(self, eps, s):
        sig = _asf(s)
        data = _curve_data(self.curve, eps)
        h = data[3]
        scut = self.s_cut(eps, h)
        p, gdot, v = self._along(data, sig * scut)
        fe = v + (sig * self.s_cut_rate(eps, h))[..., None] * gdot
        fs = scut[..., None] * gdot
        return fe, fs, p

    # -- structure -------------------------------------------------------------
    def generating_geodesic(self, eps) -> GeodesicSpec:
        xd, yd = self.curve.planar.d1(float(eps))
        theta = float(np.arctan2(self.side * xd, -self.side * yd))
        return GeodesicSpec(self.curve.position(float(eps)), theta, self.lam)

    def variation_field(self, eps):
        """The variation field along the generating geodesic at eps, with
        analytic first derivative (a FieldAlongGeodesic)."""
        from .geodesics import FieldAlongGeodesic

        e = float(eps)
        return FieldAlongGeodesic(
            self.generating_geodesic(e),
            lambda s: self.variation_coeffs(e, s),
            lambda s: self.variation_dcoeffs(e, s),
        )

    def far_curve_point(self, eps) -> Point:
        return self.point(_asf(eps), 1.0)

    def far_curve_tangent(self, eps):
        """Gamma_1'(eps) = V(s_cut) + s_cut'(eps) gamma'(s_cut), a frame triple:
        F_eps at sigma = 1."""
        return self.partials(eps, 1.0)[0]

    def singular_curves(self):
        def base_inward(e, offset):
            return _asf(e), offset / self.s_cut(_asf(e))

        def far_inward(e, offset):
            return _asf(e), 1.0 - offset / self.s_cut(_asf(e))

        base = SingularCurveRef(
            lambda e: self.curve.position(_asf(e)),
            lambda e: self.curve.velocity(_asf(e)),
            base_inward, label="base")
        far = SingularCurveRef(self.far_curve_point, self.far_curve_tangent,
                               far_inward, label="far")
        return [base, far]


def build_sigma_lambda(curve: HorizontalCurve, lam: float, side: int = 1,
                       eps_range=None) -> SigmaLambdaPatch:
    return SigmaLambdaPatch(curve, lam, side, eps_range)


class SigmaZeroPatch(ImmersedPatch):
    """Ruled surface of horizontal lines leaving a horizontal curve
    orthogonally (direction J(Gamma')); area-stationary when the generator
    is C^2.

    F(eps, s) = (x - s y', y + s x', t - s (x x' + y y')).  The variation
    field is V = (x' - s y'') X + (y' + s x'') Y + (s^2 h - 2 s) T; the
    T-coefficient follows by differentiating F (for the x-axis it equals
    -2s, twice the value a naive reading of the line formula suggests) and
    is validated against finite differences of F in the tests.
    """

    lam = 0.0

    def __init__(self, curve: HorizontalCurve, s_range=(-2.0, 2.0), eps_range=None):
        lo, hi = eps_range if eps_range is not None else (curve.eps_min, curve.eps_max)
        super().__init__(lo, hi, s_range[0], s_range[1], orientation=1)
        self.curve = curve
        self.label = f"sigma-zero({curve.label})"

    def partials(self, eps, s):
        """F_s is broadcast to the sample shape."""
        p, (xd, yd), (xdd, ydd), h = _curve_data(self.curve, eps)
        s = _asf(s)
        x0, y0, t0 = _asf(p.x), _asf(p.y), _asf(p.t)
        fe = np.stack([xd - s * ydd, yd + s * xdd, s * s * h - 2.0 * s], axis=-1)
        fs = np.broadcast_to(np.stack([-yd, xd, np.zeros_like(xd)], axis=-1), fe.shape)
        return fe, fs, Point(x0 - s * yd, y0 + s * xd, t0 - s * (x0 * xd + y0 * yd))

    def variation_coeffs(self, eps, s):
        return self.partials(eps, s)[0]

    def singular_curves(self):
        base = SingularCurveRef(
            lambda e: self.curve.position(_asf(e)),
            lambda e: self.curve.velocity(_asf(e)),
            lambda e, offset: (_asf(e), offset + 0.0 * _asf(e)),
            label="base")
        return [base]


def build_sigma_zero(curve: HorizontalCurve, s_range=(-2.0, 2.0),
                     eps_range=None) -> SigmaZeroPatch:
    return SigmaZeroPatch(curve, s_range, eps_range)


# ---------------------------------------------------------------------------
# Cylinders S_lambda


def _cylinder_bundles(lam: float, which: str):
    """Graph bundles for the two sheets over the strip |y| <= 1/(2|lam|).

    Both radicands use 1 - 4 lam^2 y^2; the sheets then agree on the strip
    boundary and solve the prescribed-curvature graph equation.
    """
    def w(y):
        return np.sqrt(np.maximum(1.0 - 4.0 * lam * lam * _asf(y) ** 2, 1e-300))

    if which == "lower":
        def u(x, y):
            x, y = _asf(x), _asf(y)
            return np.sign(y) / (2 * lam) * (
                np.arcsin(np.clip(2 * lam * y, -1, 1)) / (2 * lam) - y * w(y)) - x * y

        def uy(x, y):
            x, y = _asf(x), _asf(y)
            return np.sign(y) * 4 * lam * y * y / w(y) - x

        def uyy(x, y):
            x, y = _asf(x), _asf(y)
            return np.sign(y) * 4 * lam * y * (2.0 - 4 * lam * lam * y * y) / w(y) ** 3 + 0.0 * x
    else:
        def u(x, y):
            x, y = _asf(x), _asf(y)
            return (1.0 / (2 * lam)) * (
                (np.sign(lam) * np.pi - np.sign(y) * np.arcsin(np.clip(2 * lam * y, -1, 1))) / (2 * lam)
                + np.sign(y) * y * w(y)) - x * y

        def uy(x, y):
            x, y = _asf(x), _asf(y)
            return -np.sign(y) * 4 * lam * y * y / w(y) - x

        def uyy(x, y):
            x, y = _asf(x), _asf(y)
            return -np.sign(y) * 4 * lam * y * (2.0 - 4 * lam * lam * y * y) / w(y) ** 3 + 0.0 * x

    def ux(x, y):
        return -_asf(y) + 0.0 * _asf(x)

    def uxx(x, y):
        return np.zeros(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))

    def uxy(x, y):
        return -np.ones(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))

    return u, ux, uy, uxx, uxy, uyy


def cylinder_S(lam: float, x_range=(-2.0, 2.0)):
    """The two graph sheets (lower, upper) of the cylinder over the strip.

    Orientations point into the enclosed slab (up on the lower sheet, down
    on the upper), giving mean curvature +lam on both.
    """
    if lam == 0:
        raise ValueError("cylinder requires lam != 0")
    half = 1.0 / (2.0 * abs(lam))
    rect = (x_range[0], x_range[1], -half, half)
    lo_b = _cylinder_bundles(lam, "lower")
    up_b = _cylinder_bundles(lam, "upper")
    lower = GraphPatch(lo_b[0], lo_b[1], lo_b[2], rect, orientation=1,
                       label=f"cylinder-sheet(lower,lam={lam:g})",
                       uxx=lo_b[3], uxy=lo_b[4], uyy=lo_b[5], lam=lam)
    upper = GraphPatch(up_b[0], up_b[1], up_b[2], rect, orientation=-1,
                       label=f"cylinder-sheet(upper,lam={lam:g})",
                       uxx=up_b[3], uxy=up_b[4], uyy=up_b[5], lam=lam)
    lower.open_s_ends = (True, True)
    upper.open_s_ends = (True, True)
    return lower, upper


# ---------------------------------------------------------------------------
# Helicoids L_lambda


def _match_helix(points: Point, r: float, gen_shift: float, gen_lift: float,
                 eps: np.ndarray):
    """Match points against the helix Gamma(. + gen_shift) + gen_lift T.

    Returns (delta, lift, planar_residual) arrays, where point(eps) =
    Gamma(eps + gen_shift + delta) + (gen_lift + lift) T; delta is resolved
    into (-pi/(2r), pi/(2r)] and then continued along eps.
    """
    x, y, t = _asf(points.x), _asf(points.y), _asf(points.t)
    u_gen = eps + gen_shift
    # planar phase of the point relative to the circle center (0, -1/(2r))
    psi = np.arctan2(2 * r * x, 2 * r * y + 1.0)
    rad = np.hypot(2 * r * x, 2 * r * y + 1.0) / (2 * r)
    planar_res = np.abs(rad - 1.0 / (2 * r))
    period = np.pi / r
    raw = psi / (2 * r) - u_gen
    delta = raw - period * np.round(raw / period)
    # keep the branch continuous in eps
    for i in range(1, delta.size):
        k = np.round((delta[i] - delta[i - 1]) / period)
        delta[i] -= k * period
    u_land = u_gen + delta

    def t_helix(u):
        return (u - np.sin(2 * r * u) / (2 * r)) / (2 * r)

    lift = t - (t_helix(u_land) + gen_lift)
    return delta, lift, planar_res


@dataclass
class HelicoidFamily:
    """Pieces of the helicoidal surface built from successive singular helices.

    `offsets[(branch, k)]` holds the measured (delta, lift) of the k-th
    singular curve of branch 1 (+J start) or branch 2 (-J start) relative
    to the generating helix, plus the match residuals.
    """

    lam: float
    r: float
    pieces: list
    offsets: dict
    match_residual: float

    def c1(self) -> float:
        lam, r = self.lam, self.r
        s_cut = cut_time(-2.0 * r, lam)
        return (s_cut / (2 * lam)
                + (np.sign(lam) * np.pi - 2 * lam * s_cut) / (4 * r * r)
                - (r * r + lam * lam) * np.sin(2 * lam * s_cut) / (4 * lam * lam * r * r))

    def c2(self) -> float:
        return np.sign(self.lam) * np.pi / (2 * self.lam**2) - self.c1()

    def c1k(self, k: int) -> float:
        return k * self.c1() - np.sign(self.lam) * (k // 2) * np.pi / (2 * self.lam**2)

    def c2k(self, k: int) -> float:
        return np.sign(self.lam) * np.pi / (2 * self.lam**2) - self.c1k(k)

    def measured_lift(self, branch: int, k: int) -> float:
        return self.offsets[(branch, k)][1]

    @property
    def pitch(self) -> float:
        """Vertical translation by one pitch maps the helix set to itself
        (Gamma(eps + pi/r) = Gamma(eps) + pitch T), so vertical offsets of
        singular curves are well-defined only modulo this value."""
        return np.pi / (2 * self.r**2)

    def offset_defect(self, branch: int, k: int) -> float:
        """Distance of the measured lift from the predicted c_{ik}, modulo
        the screw pitch (the cumulative branch tracking may land on a
        different representative of the same curve)."""
        predicted = self.c1k(k) if branch == 1 else self.c2k(k)
        d = self.measured_lift(branch, k) - predicted
        return abs(d - self.pitch * np.round(d / self.pitch))

    def canonical_lifts(self):
        """Lift residues mod pitch for each singular curve; two curves are
        the same set exactly when their residues agree."""
        return {key: val[1] % self.pitch for key, val in self.offsets.items()}


def helicoid_L(lam: float, r: float, k_max: int = 2,
               eps_range=(-2.5, 2.5), n_check: int = 33) -> HelicoidFamily:
    """Build 2*k_max helicoid pieces by alternating orthogonal-geodesic sweeps.

    Branch 1 starts with side +J, branch 2 with side -J; each next level
    leaves the newest singular helix with opposite curvature and side,, and
    pieces with curvature -lam are re-oriented so every piece reports mean
    curvature +lam.  Each singular curve is verified to be a vertical
    translate of a shifted copy of the base helix; the worst match residual
    is recorded.
    """
    if lam == 0 or r <= 0:
        raise ValueError("helicoid requires lam != 0 and r > 0")
    eps = np.linspace(eps_range[0], eps_range[1], n_check)
    pieces = []
    offsets = {}
    worst = 0.0
    for branch, side0 in ((1, +1), (2, -1)):
        shift, lift = 0.0, 0.0
        side, mu = side0, lam
        for k in range(1, k_max + 1):
            gen = helix_curve(r, eps_shift=shift, t_shift=lift,
                              eps_min=eps_range[0] - 1.0, eps_max=eps_range[1] + 1.0)
            patch = SigmaLambdaPatch(gen, mu, side, eps_range=eps_range,
                                     label=f"helicoid(branch={branch},k={k})")
            if mu != lam:
                patch = patch.flipped()
            pieces.append(patch)
            landing = patch.point(eps, 1.0)
            d_arr, l_arr, p_res = _match_helix(landing, r, shift, lift, eps)
            worst = max(worst, float(np.max(p_res)),
                        float(np.ptp(d_arr)), float(np.ptp(l_arr)))
            d_step = float(np.mean(d_arr))
            l_step = float(np.mean(l_arr))
            shift += d_step
            lift += l_step
            offsets[(branch, k)] = (shift, lift)
            side, mu = -side, -mu
    return HelicoidFamily(lam, r, pieces, offsets, worst)


# ---------------------------------------------------------------------------
# Meshing and export


@dataclass
class SurfaceMesh:
    """Tensor-grid samples of a patch with |N_H| per vertex."""

    patch: ImmersedPatch
    eps: np.ndarray          # (n_e,)
    s: np.ndarray            # (n_s,) parameter values (sigma for rectified patches)
    points: np.ndarray       # (n_e, n_s, 3) Cartesian
    nh_norm: np.ndarray      # (n_e, n_s)
    geom_s: np.ndarray       # (n_e, n_s) geometric s values
    h_est: np.ndarray        # (n_e, n_s), NaN until filled

    @property
    def shape(self):
        return self.points.shape[:2]


def mesh(patch: ImmersedPatch, n_eps: int, n_s: int) -> SurfaceMesh:
    """Sample the patch on an (n_eps x n_s) tensor grid.

    Rows flagged `open_s_ends` (degenerate parameterizations such as sphere
    poles) are inset by half a grid step.  Raises NonFinite when a point or
    |N_H| is not finite, so no such mesh is ever written.
    """
    if n_eps < 2 or n_s < 2:
        raise ValueError("mesh needs at least 2 samples per axis")
    eps = np.linspace(patch.eps_lo, patch.eps_hi, n_eps)
    lo, hi = patch.s_lo, patch.s_hi
    half = (hi - lo) / (2.0 * (n_s - 1))
    if patch.open_s_ends[0]:
        lo += half
    if patch.open_s_ends[1]:
        hi -= half
    s = np.linspace(lo, hi, n_s)
    p, _, _, raw = patch.frame(eps[:, None], s[None, :])
    n = _unit_normal(raw)
    nh = np.hypot(n[..., 0], n[..., 1])
    points = p.as_array()
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(nh))):
        raise NonFinite(f"{patch.label}: a mesh point or |N_H| is not finite")
    geom = np.broadcast_to(patch.geometric_s(eps[:, None], s[None, :]), nh.shape).copy()
    return SurfaceMesh(patch=patch, eps=eps, s=s, points=points, nh_norm=nh,
                       geom_s=geom, h_est=np.full(nh.shape, np.nan))


def detect_singular(m: SurfaceMesh, tol_singular: float = TOL_SINGULAR) -> np.ndarray:
    """Indices (i, j) of mesh vertices with |N_H| < tol."""
    return np.argwhere(m.nh_norm < tol_singular)


def singular_components(m: SurfaceMesh, tol_singular: float = TOL_SINGULAR):
    """Connected components (4-neighbor) of flagged vertices, largest first.

    Reports component sizes without asserting any point/curve dichotomy.
    """
    mask = m.nh_norm < tol_singular
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    n_e, n_s = mask.shape
    for i0, j0 in np.argwhere(mask):
        if seen[i0, j0]:
            continue
        stack = [(i0, j0)]
        seen[i0, j0] = True
        members = []
        while stack:
            i, j = stack.pop()
            members.append((i, j))
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < n_e and 0 <= b < n_s and mask[a, b] and not seen[a, b]:
                    seen[a, b] = True
                    stack.append((a, b))
        comps.append(members)
    comps.sort(key=len, reverse=True)
    return comps


def format_rows(line: str, n: int, values) -> str:
    """n copies of the %-format `line` filled from the flat sequence `values`,
    in one formatting pass.  Every text writer formats through this;
    '%.17g' % x gives the same string as f"{x:.17g}" for every float, nan,
    inf and -0 included."""
    return (line * n) % tuple(values)


def export_obj(m: SurfaceMesh, path) -> None:
    """Wavefront OBJ: v records row-major, quads split into two triangles."""
    n_e, n_s = m.shape
    vid = np.arange(1, n_e * n_s + 1).reshape(n_e, n_s)
    a, b, c, d = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    faces = np.stack([a, b, c, a, c, d], axis=-1)    # (a, b, c), (a, c, d) per quad
    atomic_write(path, format_rows("v %.17g %.17g %.17g\n", n_e * n_s, m.points.ravel().tolist())
                 + format_rows("f %d %d %d\n", faces.size // 3, faces.ravel().tolist()))


def export_csv(m: SurfaceMesh, path) -> None:
    """CSV with columns eps,s,x,y,t,nh_norm,h_est (row-major vertex order)."""
    n_e, n_s = m.shape
    eps = np.broadcast_to(m.eps[:, None], (n_e, n_s))
    cols = np.stack([eps, m.geom_s, m.points[..., 0], m.points[..., 1], m.points[..., 2],
                     m.nh_norm, m.h_est], axis=-1)
    atomic_write(path, "eps,s,x,y,t,nh_norm,h_est\n"
                 + format_rows(",".join(["%.17g"] * 7) + "\n", n_e * n_s, cols.ravel().tolist()))


def atomic_write(path, text: str) -> None:
    import os
    import tempfile

    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Catalog


def _poly_bundle(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    return poly, poly.deriv(), poly.deriv(2)


def catalog():
    """Named surface builders with their parameter defaults; each takes only
    the parameters its surface has."""

    def make_sphere(lam=1.0):
        return sphere_geodesic(float(lam))

    def make_cylinder(lam=1.0, sheet="lower", x_range=(-2.0, 2.0)):
        if sheet not in ("lower", "upper"):
            raise ValueError(f"sheet must be 'lower' or 'upper' (got {sheet!r})")
        lower, upper = cylinder_S(float(lam), x_range)
        return lower if sheet == "lower" else upper

    def make_helicoid(lam=1.0, r=1.0):
        return helicoid_L(float(lam), float(r), k_max=1).pieces[0]

    def make_bernstein(g_coeffs=(0.0,)):
        g, dg, ddg = _poly_bundle(list(g_coeffs))
        return BernsteinGraph(g, dg, ddg)

    def make_plane(normal=(0.0, 0.0, 1.0), d=0.0):
        return plane_patch(normal, float(d))

    def make_vertical_cylinder(r=1.0):
        return VerticalCylinder(float(r))

    def make_sigma_lambda(curve=None, lam=1.0, side=1):
        if curve is None:
            curve = line_curve(eps_min=-2.0, eps_max=2.0)
        return build_sigma_lambda(curve, float(lam), int(side))

    def make_sigma_zero(curve=None, s_range=(-2.0, 2.0)):
        if curve is None:
            curve = line_curve(eps_min=-2.0, eps_max=2.0)
        return build_sigma_zero(curve, s_range)

    return {
        "sphere": make_sphere,
        "cylinder-s": make_cylinder,
        "helicoid-l": make_helicoid,
        "bernstein": make_bernstein,
        "plane": make_plane,
        "vertical-cylinder": make_vertical_cylinder,
        "sigma-lambda": make_sigma_lambda,
        "sigma-zero": make_sigma_zero,
    }


def build_surface(name: str, **params) -> ImmersedPatch:
    reg = catalog()
    if name not in reg:
        raise UnknownSurface(f"unknown surface {name!r}; known: {sorted(reg)}")
    extra = sorted(set(params) - set(inspect.signature(reg[name]).parameters))
    if extra:
        raise ValueError(f"surface {name!r} takes no parameter {', '.join(extra)}")
    return reg[name](**params)
