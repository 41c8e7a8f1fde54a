"""Parametric immersions: the surface catalog, builders, normals, meshing.

Every patch maps a parameter rectangle [eps_lo, eps_hi] x [s_lo, s_hi] into
the group and reports its first partials as frame-coefficient triples.  For
cut-bounded builders the second parameter is rectified to sigma = s/s_cut in
[0, 1] so domains stay rectangular.  The unit normal is

    N = orientation * (F_eps x F_s) / |F_eps x F_s|

in frame coefficients; the singular set is where the horizontal part N_H
vanishes, and there the characteristic field Z = J(nu_H), nu_H = N_H / |N_H|,
is withheld.

Each sample is evaluated along one path:

    partials -> frame -> {quadrature, normal_data -> {mesh, H, characteristic field}}

A patch class implements `partials(eps, s) -> (F_eps, F_s, p)`: both
partials as frame triples and the point, from one evaluation of the chart;
and `second_partials(eps, s) -> (d_eps F_eps, d_s F_eps, d_s F_s)`, the
plain derivatives of those triples, each exact up to a vector tangent to
the patch, as the mean curvature and the singular-curve defect read them.
A graph t = u(x, y) implements `height(x, y) -> (u, u_x, u_y)` and
`hessian` instead, which `GraphPatch` reads for both.
`frame` adds the unnormalized oriented normal, which the quadrature
integrands read, and `normal_data`, the one place where N, |N_H| and Z are
formed from it, carries the partials on, so the mesh writer, the mean
curvature and the characteristic traces each evaluate a sample once.
The Bernstein graph t = xy + g(y) reads the jet y -> (g, g', g'') that
`parse_g` makes of a text such as "(y+1)^100", exact by forward-mode
arithmetic, once per call.
A patch states its singular set in its parameters: `quadrature_charts`,
`Chart` maps on which |N_H| is smooth, read only by the quadrature, and
`singular_curves`, `SingularCurveRef`s.  A group motion moves points, not
parameters, so a moved patch keeps both, and scales its second partials as
it does its partials.
`write_mesh` streams a tensor grid of the patch into OBJ and CSV files and
keeps only its singular mask.  An orthogonal-geodesic patch reads its curve's
`jet` (the position and three derivatives) once per call, on eps as given,
and `_curve_data` forms h = x'y'' - x''y' and the rate h' = x'y''' - x'''y'
from it, for the partials of both orders, the cut time and its rate, and
the generating geodesic alike; a lifted curve reads them at one parameter.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegeneratePoint, NonFinite, UnknownSurface
from .geodesics import GeodesicSpec, _point_ab, cut_time, geodesic_velocity, stable_ratios
from .hcurves import HorizontalCurve, helix_curve, line_curve
from .hgroup import ORIGIN, Point, cross_c, dilate, group_mul, j_c

TOL_SINGULAR = 1e-6
_T = np.array([0.0, 0.0, 1.0])   # the frame triple of T
_ROOT_SAMPLES = 1024         # cells of each pass of _roots
HELICOID_EPS = (-2.5, 2.5)   # eps range of every helicoid piece
HELICOID_CHECKS = 33         # landing points matched per piece


def _asf(x):
    return np.asarray(x, float)


@dataclass(frozen=True)
class NormalData:
    """Per-point normal bundle and the partials it came from.

    z = J(nu_H), nu_H = N_H / |N_H|; its horizontal part is NaN where
    |N_H| < TOL_SINGULAR, the singular set, and nu_H = -J(z) elsewhere.
    `fe` and `fs` are the frame triples F_eps and F_s returned by
    `partials` at the same points.
    """

    base: Point
    normal: np.ndarray       # (..., 3) unit N
    nh_norm: np.ndarray      # |N_H|
    z: np.ndarray            # (..., 3) J(nu_H)
    fe: np.ndarray           # (..., 3) F_eps
    fs: np.ndarray           # (..., 3) F_s


def _twist(fe, fs):
    """d_eps F_s - d_s F_eps = 2 tau T, tau = a_eps b_s - b_eps a_s: the
    coordinate fields commute, and [X, Y] = -2T."""
    return (2.0 * (fe[..., 0] * fs[..., 1] - fe[..., 1] * fs[..., 0]))[..., None] * _T


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

    def second_partials(self, eps, s):
        """(d_eps F_eps, d_s F_eps, d_s F_s), each up to a tangent vector."""
        raise NotImplementedError(f"{self.label} states no second partials")

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
        """The bundle at (eps, s) from one `frame` call, N = raw / |raw|.
        Raises DegeneratePoint where the immersion partials are dependent;
        a squared norm that overflows raises FloatingPointError instead of
        reading |raw| = inf, which would give N = 0."""
        p, fe, fs, raw = self.frame(eps, s)
        with np.errstate(over="raise"):
            nrm = np.linalg.norm(raw, axis=-1)
        if np.any(nrm < 1e-12):
            raise DegeneratePoint("immersion partials are dependent at a requested point")
        n = raw / nrm[..., None]
        nh = np.hypot(n[..., 0], n[..., 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            z = j_c(np.where((nh < TOL_SINGULAR)[..., None], np.nan, n / nh[..., None]))
        return NormalData(p, n, nh, z, fe, fs)

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

    def singular_curves(self) -> list:
        """The patch's singular curves as `SingularCurveRef`s, when known."""
        return []

    def quadrature_charts(self) -> list:
        """The charts the quadrature integrates, summed: [] for the patch's
        own rectangle, or `Chart`s built from where the area integrand stops
        being smooth.  Nothing else reads them."""
        return []


@dataclass(frozen=True)
class Chart:
    """A map of a patch's parameters on which its area integrand is smooth.

    `to_base(a, b)` gives (eps, s, det): the patch parameters of (a, b) in
    the rectangle `rect` = (a_lo, a_hi, b_lo, b_hi) and the map's
    det J = eps_a s_b - eps_b s_a >= 0, so the orientation is kept.
    `roundoff`, when given, maps (a, b) to a bound on the relative rounding
    error the patch carries into the integrands at those samples.
    """

    to_base: Callable
    rect: tuple
    roundoff: Callable | None = None

    def samples(self, patch: ImmersedPatch, a, b):
        """(eps, s, p, raw) of `patch` at the chart parameters (a, b), from
        one `to_base` call: the patch parameters, the point, and the chart's
        raw normal orientation * (F_a x F_b), which by the chain rule is
        det J times the patch's `frame` raw normal."""
        eps, s, det = self.to_base(_asf(a), _asf(b))
        p, _, _, raw = patch.frame(eps, s)
        return eps, s, p, _asf(det)[..., None] * raw


def _box_chart(rect) -> Chart:
    """The patch itself on the sub-rectangle rect of its parameters."""
    return Chart(lambda a, b: (a, b, 1.0), rect)


# Rounding the base carries into a sine chart's integrands, relative, in
# units of eps / cos^2(pi b / 2).  Near a singular edge the base evaluates
# 1 - (s / L)^2 or its like from the rounded s, and cos^2 is that quantity.
# Against the charts' closed-form integrands the area samples of cylinder
# sheets measure at most 2.9 eps / cos^2 near the edge.
SINE_ROUNDOFF = 4.0


def _sine_roundoff(a, b):
    return SINE_ROUNDOFF * np.finfo(float).eps / np.cos(0.5 * np.pi * b) ** 2


def _sine_charts(patch: ImmersedPatch, mid: float) -> list:
    """Charts of `patch` under s = mid + L sin(pi b / 2): b in [-1, 0] with
    L = mid - s_lo, and b in [0, 1] with L = s_hi - mid; a side of length 0
    adds no chart.  An integrand with an inverse square root at s_lo or s_hi
    and a kink at mid is smooth in b: the map's s_b = L (pi/2) cos(pi b / 2)
    vanishes at b = -1 and b = 1 like the square root of the distance to
    those edges, and mid is a chart edge."""
    charts = []
    for b_lo, b_hi, L in ((-1.0, 0.0, mid - patch.s_lo), (0.0, 1.0, patch.s_hi - mid)):
        if L <= 0.0:
            continue

        def to_base(a, b, L=L):
            q = 0.5 * np.pi * b
            return a, mid + L * np.sin(q), 0.5 * np.pi * L * np.cos(q)

        charts.append(Chart(to_base, (patch.eps_lo, patch.eps_hi, b_lo, b_hi), _sine_roundoff))
    return charts


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

    def second_partials(self, eps, s):
        return tuple(d * self._scale for d in self._base.second_partials(eps, s))

    def geometric_s(self, eps, s):
        return self._base.geometric_s(eps, s)

    # a move changes points, not parameters: the base's curves and charts,
    # both stated in parameters, serve here too
    def singular_curves(self):
        return self._base.singular_curves()

    def quadrature_charts(self):
        return self._base.quadrature_charts()


class VerticalVariation(ImmersedPatch):
    """The vertical variation p + tau u T of a base patch, u(eps, s) ->
    (u, u_eps, u_s).  T = d/dt has frame coefficients (0, 0, 1) and x, y
    stay put, so the partials are exactly F_eps + tau u_eps T and
    F_s + tau u_s T, from one base `partials` call.  The normal speed is
    u N_T.  The variation moves the singular set, so it declares no charts,
    no singular curves, no nominal curvature and, u having no second
    derivatives, no second partials."""

    def __init__(self, base: ImmersedPatch, u: Callable, tau: float):
        super().__init__(base.eps_lo, base.eps_hi, base.s_lo, base.s_hi,
                         orientation=base.orientation)
        self._base, self._u, self._tau = base, u, float(tau)
        self.label = base.label + "+varied"
        self.closed = base.closed
        self.open_s_ends = base.open_s_ends

    def partials(self, eps, s):
        fe, fs, p = self._base.partials(eps, s)
        u, ue, us = (self._tau * _asf(v) for v in self._u(eps, s))
        return fe + ue[..., None] * _T, fs + us[..., None] * _T, Point(p.x, p.y, p.t + u)


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
        sig, kap, _ = ratios = stable_ratios(self.lam, s)
        A, B = np.cos(th), np.sin(th)
        p = _point_ab(ORIGIN, A, B, ratios)
        dx_th = -B * sig + A * kap
        dy_th = B * kap + A * sig
        c_th = -dx_th * _asf(p.y) + dy_th * _asf(p.x)
        fe = np.stack(np.broadcast_arrays(dx_th, dy_th, c_th), axis=-1)
        return fe, geodesic_velocity(GeodesicSpec(ORIGIN, th, self.lam), s), p

    def second_partials(self, eps, s):
        # d_theta F_theta = -(x, y, 0), d_theta F_s = J(F_s), d_s F_s = -2 lam J(F_s)
        fe, fs, p = self.partials(eps, s)
        x, y = np.broadcast_arrays(_asf(p.x), _asf(p.y))
        jfs = j_c(fs)
        return (np.stack([-x, -y, np.zeros_like(x)], axis=-1), jfs - _twist(fe, fs),
                -2.0 * self.lam * jfs)


class SphereGraphSheet(ImmersedPatch):
    """One radial graph sheet t = f(rho) of the sphere, parameterized by
    (phi, rho); sheet = -1 lower, +1 upper.

    The sphere with poles at (0,0,0) and (0,0,pi/(2 lam^2)) has
    f(rho) = pi/(4 lam^2) + sheet * (lam rho sqrt(1-lam^2 rho^2)
             + arccos(lam rho)) / (2 lam^2),
    recovered by inverting the geodesic parameterization.  `partials` is
    polar; `height` and `hessian` give the same graph in Cartesian (x, y),
    as every graph does.  Default orientation is the inner normal (upward
    on the lower sheet, downward on the upper).
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

    def _profile(self, rho):
        """(f(rho), f'(rho))."""
        lam, sheet = self.lam, self.sheet
        w = np.sqrt(np.maximum(1.0 - (lam * rho) ** 2, 0.0))
        f = (np.pi / (4 * lam**2)
             + sheet * (lam * rho * w + np.arccos(np.clip(lam * rho, -1, 1))) / (2 * lam**2))
        return f, -sheet * lam * rho**2 / np.sqrt(np.maximum(1.0 - (lam * rho) ** 2, 1e-300))

    def _profile_curvature(self, rho):
        """f''(rho)."""
        lr = self.lam * rho
        return -self.sheet * self.lam * rho * (2.0 - lr**2) / np.maximum(1.0 - lr**2, 1e-300)**1.5

    def partials(self, eps, s):
        phi, rho = _asf(eps), _asf(s)
        f, df = self._profile(rho)
        cph, sph = np.cos(phi), np.sin(phi)
        p = Point(rho * cph, rho * sph, f + 0.0 * phi)
        de = np.stack(np.broadcast_arrays(-rho * sph, rho * cph, rho * rho + 0.0 * cph), axis=-1)
        c_r = df - cph * _asf(p.y) + sph * _asf(p.x)
        dr = np.stack(np.broadcast_arrays(cph + 0.0 * rho, sph + 0.0 * rho, c_r), axis=-1)
        return de, dr, p

    def second_partials(self, eps, s):
        # F_rho's T coefficient c_r is f'(rho) itself, whatever phi
        phi, rho = np.broadcast_arrays(_asf(eps), _asf(s))
        cph, sph, zero = np.cos(phi), np.sin(phi), np.zeros_like(rho)
        return (np.stack([-rho * cph, -rho * sph, zero], axis=-1),
                np.stack([-sph, cph, 2.0 * rho], axis=-1),
                np.stack([zero, zero, self._profile_curvature(rho)], axis=-1))

    @staticmethod
    def _polar(x, y):
        x, y = _asf(x), _asf(y)
        return x, y, np.maximum(np.hypot(x, y), 1e-300)

    def height(self, x, y):
        """(u, u_x, u_y) in Cartesian (x, y)."""
        x, y, rho = self._polar(x, y)
        f, df = self._profile(rho)
        return f, df * x / rho, df * y / rho

    def hessian(self, x, y):
        """(u_xx, u_xy, u_yy) in Cartesian (x, y)."""
        x, y, rho = self._polar(x, y)
        df, ddf = self._profile(rho)[1], self._profile_curvature(rho)
        return (ddf * x * x / rho**2 + df * y * y / rho**3,
                ddf * x * y / rho**2 - df * x * y / rho**3,
                ddf * y * y / rho**2 + df * x * x / rho**3)

    def quadrature_charts(self):
        # |N_H| has an inverse square root at the vertical edge rho = 1/lam
        return _sine_charts(self, self.s_lo)


def sphere_graph(lam: float):
    """Both radial graph sheets (lower, upper) of the sphere of curvature lam."""
    return SphereGraphSheet(lam, -1), SphereGraphSheet(lam, +1)


# ---------------------------------------------------------------------------
# Graphs over the xy-plane


class GraphPatch(ImmersedPatch):
    """Graph t = u(x, y) over the rectangle of its parameters (x, y).

    A subclass states its height once: `height(x, y) -> (u, u_x, u_y)`,
    which `partials` reads, and `hessian(x, y) -> (u_xx, u_xy, u_yy)`,
    which `second_partials` and the graph equation in `curvature` read.  In
    the frame, F_x = (1, 0, u_x - y) and F_y = (0, 1, u_y + x), so the
    second partials are the vertical triples u_xx, u_xy - 1 and u_yy; the
    raw normal (orientation +1) is the upward direction (y - u_x, -x - u_y, 1).
    """

    def partials(self, eps, s):
        x, y = np.broadcast_arrays(_asf(eps), _asf(s))
        u, ux, uy = self.height(x, y)
        p = Point(x + 0.0 * y, y + 0.0 * x, u)
        one = np.ones_like(x)
        zero = np.zeros_like(x)
        fx = np.stack([one, zero, ux - y], axis=-1)
        fy = np.stack([zero, one, uy + x], axis=-1)
        return fx, fy, p

    def second_partials(self, eps, s):
        uxx, uxy, uyy = self.hessian(*np.broadcast_arrays(_asf(eps), _asf(s)))
        return uxx[..., None] * _T, (uxy - 1.0)[..., None] * _T, uyy[..., None] * _T


@dataclass(frozen=True)
class SingularCurveRef:
    """A singular curve of a patch, in its parameters.

    `at(param)` gives the patch parameters (eps, s) of the curve, and `rate`
    maps param to (d eps, d s) along it, so its tangent is d eps F_eps +
    d s F_s.  `inward` is a constant parameter direction (d eps, d s) into
    the regular side whose characteristic field the curve is paired with.
    """

    at: Callable             # param -> (eps, s) patch parameters
    rate: Callable           # param -> (d eps / d param, d s / d param)
    inward: tuple            # (d eps, d s) into the regular side
    label: str = "singular"


def _eps_row(s: float, inward: float, label: str) -> SingularCurveRef:
    """The singular curve along eps at the parameter s, entered toward s + inward."""
    return SingularCurveRef(lambda e: (_asf(e), s + 0.0 * _asf(e)), lambda e: (1.0, 0.0),
                            (0.0, inward), label)


G_MAX_TOKENS = 1000     # a longer g text is refused
G_MAX_EXPONENT = 1000   # and so is a larger power


def _g_program(text: str) -> list:
    """`text` as a postfix list of (op, arg) pairs.  Grammar: numbers, y, +,
    -, *, ^ with a nonnegative integer literal, and parentheses; − and ·
    stand for - and *.  A sign negates the power that follows it: 2*-y^2
    and -y^2 are -2y^2 and -(y^2)."""
    text = text.replace("−", "-").replace("·", "*").replace("⋅", "*")
    tokens = re.findall(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|\S", text)
    if len(tokens) > G_MAX_TOKENS:
        raise ConfigError(f"g is longer than the cap of {G_MAX_TOKENS} tokens")
    for i, tok in enumerate(tokens):   # any other token is refused where it stands
        if tok[0].isdigit() or tok[0] == ".":
            tokens[i] = np.float64(tok)   # a power of it overflows to inf, not an error
            if not np.isfinite(tokens[i]):
                raise ConfigError(f"literal {tok!r} in g is not finite")
    tokens = [None] + tokens[::-1]   # pop() takes the next token; None ends the text
    program = []

    def expr():
        term()
        while tokens[-1] in ("+", "-"):
            op = tokens.pop()
            term()
            program.append((op, None))

    def term():
        factor()
        while tokens[-1] == "*":
            tokens.pop()
            factor()
            program.append(("*", None))

    def factor():
        if tokens[-1] in ("+", "-"):   # a sign, the only unary operator
            negate = tokens.pop() == "-"
            factor()
            program.extend([("neg", None)] * negate)
            return
        tok = tokens.pop()
        if tok == "(":
            expr()
            if tokens.pop() != ")":
                raise ConfigError("unbalanced parentheses in g")
        elif tok == "y" or isinstance(tok, float):
            program.append(("y", None) if tok == "y" else ("const", tok))
        else:
            raise ConfigError(f"unexpected token {tok!r} in g")
        if tokens[-1] == "^":
            tokens.pop()
            exp = tokens.pop()
            if not (isinstance(exp, float) and exp.is_integer() and 0 <= exp <= G_MAX_EXPONENT):
                raise ConfigError(f"exponent {exp} is not an integer from 0 to the cap of "
                                  f"{G_MAX_EXPONENT}")
            program.append(("^", int(exp)))

    expr()
    if len(tokens) > 1:
        raise ConfigError(f"trailing tokens in g: {' '.join(map(str, tokens[:0:-1]))}")
    return program


_JET_OPS = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1], a[2] - b[2]),
    "*": lambda a, b: (a[0] * b[0], a[1] * b[0] + a[0] * b[1],
                       a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]),
}


def _jet(program: list, y):
    """(g, g', g'') at y: the postfix program run over (value, first, second)
    triples.  Constants and y carry the scalar derivatives 0 and 1."""
    stack = []
    for op, n in program:
        if op in _JET_OPS:
            b = stack.pop()
            stack.append(_JET_OPS[op](stack.pop(), b))
        elif op == "^":   # the exponents max(k, 0) keep n = 0 and 1 finite at v = 0
            v, d1, d2 = stack.pop()
            q = v ** max(n - 1, 0)
            stack.append((v**n, n * q * d1,
                          n * (n - 1) * v ** max(n - 2, 0) * d1 * d1 + n * q * d2))
        elif op == "neg":
            stack.append(tuple(-part for part in stack.pop()))
        else:
            stack.append((y, 1.0, 0.0) if op == "y" else (n, 0.0, 0.0))
    return stack[0]


def parse_g(text: str):
    """The jet y -> (g, g', g'') of the polynomial `text` in y, which
    `BernsteinGraph` reads: parsed once, and each call runs the program once
    for all three, exactly, by forward-mode (jet) arithmetic, never through
    power-basis coefficients, which cancel ((y+1)^100 expanded gives -8.8e10
    at y = -0.9).  ConfigError for a malformed text, a non-finite literal,
    more than G_MAX_TOKENS tokens, an exponent above G_MAX_EXPONENT, nesting
    beyond the recursion limit, and g, g' or g'' not finite at y = -1 or 1."""
    try:
        program = _g_program(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse g: {exc}") from exc
    with np.errstate(all="ignore"):
        if not all(np.all(np.isfinite(p)) for p in _jet(program, np.array([-1.0, 1.0]))):
            raise ConfigError("g, g' and g'' must be finite at y = -1 and y = 1")

    def jet(y):   # a part that does not depend on y still takes its shape
        return tuple(p + np.zeros(np.shape(y)) for p in _jet(program, _asf(y)))

    return jet


class BernsteinGraph(GraphPatch):
    """The graph t = x y + g(y); minimal for every C^2 g, area-stationary
    only for affine g.  Singular curve: x = -g'(y)/2.  `parse_g` turns a
    text such as "y^2" into the jet y -> (g, g', g'') it takes.

    Orientation +1 (upward normal, <N,T> > 0) so the characteristic field
    on the side 2x + g'(y) > 0 is +X and the singular-curve pairing
    <Z, Gamma'(y)> evaluates to -g''(y)/2.
    """

    label = "bernstein"
    lam = 0.0

    def __init__(self, jet, rect=(-3.0, 3.0, -3.0, 3.0)):
        super().__init__(*rect)
        self.jet = jet      # (g, g', g'') at y from one evaluation

    def height(self, x, y):
        g, dg, _ = self.jet(y)
        return x * y + g, _asf(y) + 0.0 * _asf(x), _asf(x) + dg

    def hessian(self, x, y):
        shape = np.broadcast_shapes(_asf(x).shape, _asf(y).shape)
        return np.zeros(shape), np.ones(shape), self.jet(y)[2] + 0.0 * _asf(x)

    def singular_curves(self):
        def at(y):
            y = _asf(y)
            return -self.jet(y)[1] / 2.0, y

        def rate(y):
            return -self.jet(_asf(y))[2] / 2.0, 1.0

        return [SingularCurveRef(at, rate, (1.0, 0.0), label="bernstein-singular")]

    def quadrature_charts(self):
        """|N_H| = |2x + g'(y)| has a kink along x = c(y) = -g'(y)/2.  The
        y-axis is cut where the curve crosses x = x_lo or x = x_hi; on a
        piece the curve crosses, each row is split at c(y) into two charts,
        x linear in a on [0, 1] with a = 1 (left) or a = 0 (right) on the
        curve; a piece it misses is one chart.  A curve that misses the
        rectangle adds no split."""
        x0, x1, y0, y1 = self.eps_lo, self.eps_hi, self.s_lo, self.s_hi

        def c(y):
            return -0.5 * self.jet(y)[1]

        def left(a, b):
            cb = c(b)
            return x0 + a * (cb - x0), b, cb - x0

        def right(a, b):
            cb = c(b)
            return cb + a * (x1 - cb), b, x1 - cb

        def crossing(y):   # changes sign where the curve crosses x = x0 or x = x1
            cy = c(y)
            return (cy - x0) * (cy - x1)

        cuts = sorted({y0, y1, *_roots(crossing, y0, y1)})
        charts, split = [], False
        for ya, yb in zip(cuts[:-1], cuts[1:]):
            if x0 < c(0.5 * (ya + yb)) < x1:
                split = True
                charts += [Chart(left, (0.0, 1.0, ya, yb)), Chart(right, (0.0, 1.0, ya, yb))]
            else:
                charts.append(_box_chart((x0, x1, ya, yb)))
        return charts if split else []


def _roots(f, lo: float, hi: float) -> list:
    """Interior zeros of f on [lo, hi] where it changes sign: f sampled at
    _ROOT_SAMPLES + 1 points, and each bracket resampled the same way until
    it is below rounding."""
    y = np.linspace(lo, hi, _ROOT_SAMPLES + 1)
    v = _asf(f(y))
    roots = list(y[1:-1][v[1:-1] == 0.0])
    i = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    a, b = y[i], y[i + 1]
    for _ in range(6 if i.size else 0):   # each pass narrows a bracket 1024-fold
        yy = np.linspace(a, b, _ROOT_SAMPLES + 1, axis=-1)
        vv = _asf(f(yy))
        j = np.argmax(vv[:, :-1] * vv[:, 1:] <= 0.0, axis=1)
        k = np.arange(j.size)
        a, b = yy[k, j], yy[k, j + 1]
    return roots + list(0.5 * (a + b))


def plane_patch(normal=(0.0, 0.0, 1.0), d: float = 0.0,
                rect=(-2.0, 2.0, -2.0, 2.0)) -> ImmersedPatch:
    """The Euclidean plane <normal, (x,y,t)> = d as a patch.

    Non-vertical planes become graphs t = (d - n1 x - n2 y)/n3 (one isolated
    singular point); vertical planes are parameterized by (arclength, t) and
    have no singular points.
    """
    n1, n2, n3 = (float(v) for v in normal)
    if abs(n3) > 1e-14:
        return _PlaneGraph(-n1 / n3, -n2 / n3, d / n3, rect)
    return _VerticalPlane(n1, n2, d, rect)


class _PlaneGraph(GraphPatch):
    """The graph t = a x + b y + c.  Its raw horizontal normal
    (y - a, -x - b) vanishes only at the cone point (x, y) = (-b, a), where
    |N_H| grows like the distance to it."""

    label = "plane"
    lam = 0.0

    def __init__(self, a, b, c, rect):
        super().__init__(*rect)
        self.a, self.b, self.c = a, b, c
        self.cone = (-b, a)

    def height(self, x, y):
        a, b, x, y = self.a, self.b, _asf(x), _asf(y)
        return a * x + b * y + self.c, a + 0.0 * x + 0.0 * y, b + 0.0 * x + 0.0 * y

    def hessian(self, x, y):
        zero = np.zeros(np.broadcast_shapes(_asf(x).shape, _asf(y).shape))
        return zero, zero, zero

    def quadrature_charts(self):
        """With the cone point P in the rectangle, one Duffy triangle per
        rectangle side V_i V_(i+1), counterclockwise:
        (a, b) -> P + a ((1 - b) E_1 + b E_2), E_k = V - P, on [0, 1]^2,
        with det J = a det(E_1, E_2).  The distance to P is a times a smooth
        function of b, so the integrand is smooth.  A side through P gives
        no triangle; a point outside the rectangle adds no split."""
        px, py = self.cone
        x0, x1, y0, y1 = self.eps_lo, self.eps_hi, self.s_lo, self.s_hi
        if not (x0 <= px <= x1 and y0 <= py <= y1):
            return []
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        charts = []
        for (vx0, vy0), (vx1, vy1) in zip(corners, corners[1:] + corners[:1]):
            e1x, e1y, e2x, e2y = vx0 - px, vy0 - py, vx1 - px, vy1 - py
            if e1x * e2y - e1y * e2x <= 0.0:
                continue

            def to_base(a, b, e1x=e1x, e1y=e1y, dx=e2x - e1x, dy=e2y - e1y):
                return px + a * (e1x + b * dx), py + a * (e1y + b * dy), a * (e1x * dy - e1y * dx)

            charts.append(Chart(to_base, (0.0, 1.0, 0.0, 1.0)))
        return charts


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

    def second_partials(self, eps, s):   # F_ell is constant, and F_s is T
        return (np.zeros(np.broadcast_shapes(np.shape(eps), np.shape(s)) + (3,)),) * 3


class VerticalCylinder(ImmersedPatch):
    """The right circular cylinder x^2 + y^2 = rho^2, parameterized (phi, t).

    Vertical surface: empty singular set, constant mean curvature; t in [-2, 2].
    """

    def __init__(self, rho: float):
        if not rho > 0:
            raise ValueError("cylinder radius must be positive")
        super().__init__(0.0, 2 * np.pi, -2.0, 2.0)
        self.rho = float(rho)
        self.label = f"vertical-cylinder(rho={rho:g})"

    def partials(self, eps, s):
        phi, t = np.broadcast_arrays(_asf(eps), _asf(s))
        rho = self.rho
        p = Point(rho * np.cos(phi), rho * np.sin(phi), t + 0.0 * phi)
        fe = np.stack([-rho * np.sin(phi), rho * np.cos(phi), rho * rho + 0.0 * phi], axis=-1)
        fs = np.stack([0.0 * phi, 0.0 * phi, 1.0 + 0.0 * phi], axis=-1)
        return fe, fs, p

    def second_partials(self, eps, s):
        phi, _ = np.broadcast_arrays(_asf(eps), _asf(s))
        fee = np.stack([-self.rho * np.cos(phi), -self.rho * np.sin(phi), 0.0 * phi], axis=-1)
        return fee, 0.0 * fee, 0.0 * fee


# ---------------------------------------------------------------------------
# Orthogonal-geodesic builders


def _curve_data(curve: HorizontalCurve, eps):
    """(position, (x', y'), (x'', y''), h, h', (x''', y''')) of the curve on
    `eps` as given, from one `jet` read.

    The orthogonal-geodesic patches derive every per-eps quantity from
    these, and nothing else forms h or h', so one patch call fetches its
    curve once on the eps axis and never on the broadcast (eps, s) grid.
    """
    p, (xd, yd), (xdd, ydd), (x3, y3) = curve.jet(_asf(eps))
    return p, (xd, yd), (xdd, ydd), xd * ydd - xdd * yd, xd * y3 - x3 * yd, (x3, y3)


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
            raise ValueError("use SigmaZeroPatch for the ruled lambda = 0 builder")
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        lo, hi = eps_range if eps_range is not None else (curve.eps_min, curve.eps_max)
        super().__init__(lo, hi, 0.0, 1.0, orientation=side)
        self.curve = curve
        self.lam = float(lam)
        self.side = int(side)
        self.label = label or f"sigma-lambda({curve.label},lam={lam:g},side={side:+d})"

    # -- geometry ------------------------------------------------------------
    def _cut(self, data):
        """(s_cut, d s_cut / d eps) from the curve data: cut_time(side h, lam)
        and -2 side h' / (4 lam^2 + h^2)."""
        h, hdot = data[3:5]
        return (cut_time(self.side * h, self.lam),
                -2.0 * self.side * hdot / (4.0 * self.lam**2 + h * h))

    def s_cut(self, eps):
        return self._cut(_curve_data(self.curve, eps))[0]

    def geometric_s(self, eps, s):
        return _asf(s) * self.s_cut(eps)

    def _along(self, data, sgeo):
        """(point, geodesic velocity, variation coefficients, ratios) at
        geometric s.

        `data` is the curve data of `_curve_data` on the eps axis and `sgeo`
        broadcasts against it.  The point and velocity are the generating
        geodesic's, from `geodesics._point_ab` and `geodesic_velocity`;
        stable_ratios runs once for the point and the variation field, which is

            a = x' - side y'' sig + side x'' kap
            b = y' + side y'' kap + side x'' sig
            c = h kap / lam - 2 side sig
        """
        p, (xd, yd), (xdd, ydd), h = data[:4]
        sgeo = _asf(sgeo)
        sig, kap, _ = ratios = stable_ratios(self.lam, sgeo)
        gdot = geodesic_velocity(self._geodesic(data), sgeo)
        a = xd - self.side * ydd * sig + self.side * xdd * kap
        b = yd + self.side * ydd * kap + self.side * xdd * sig
        cv = h * kap / self.lam - 2.0 * self.side * sig
        return (_point_ab(p, -self.side * yd, self.side * xd, ratios), gdot,
                np.stack(np.broadcast_arrays(a, b, cv), axis=-1), ratios)

    def variation_coeffs(self, eps, sgeo):
        """Frame triple of the variation field V_eps at geometric s (see `_along`)."""
        return self._along(_curve_data(self.curve, eps), sgeo)[2]

    def partials(self, eps, s):
        sig = _asf(s)
        data = _curve_data(self.curve, eps)
        scut, rate = self._cut(data)
        p, gdot, v, _ = self._along(data, sig * scut)
        fe = v + (sig * rate)[..., None] * gdot
        fs = scut[..., None] * gdot
        return fe, fs, p

    def second_partials(self, eps, s):
        """From F_eps = V + sigma s_cut' gamma' and F_sigma = s_cut gamma' at
        s = sigma s_cut, with d_s gamma' = -2 lam J(gamma'), d_eps gamma' =
        h J(gamma'), d_eps V from the curve data and d_s V = d_eps gamma' -
        `_twist`(V, gamma').  Terms along gamma' are tangent: s_cut'' drops."""
        sig = _asf(s)
        data = _curve_data(self.curve, eps)
        _, _, (xdd, ydd), h, hdot, (x3, y3) = data
        scut, rate = self._cut(data)
        _, g, v, (sn, kp, _) = self._along(data, sig * scut)
        side, jg = self.side, j_c(g)
        v_eps = np.stack(np.broadcast_arrays(xdd - side * y3 * sn + side * x3 * kp,
                                             ydd + side * y3 * kp + side * x3 * sn,
                                             hdot * kp / self.lam), axis=-1)
        v_s = h[..., None] * jg - _twist(v, g)
        spin = (2.0 * self.lam * sig * rate)[..., None]   # how far F_eps's gamma' turns in s
        return (v_eps + (sig * rate)[..., None] * (v_s + (h[..., None] - spin) * jg),
                scut[..., None] * (v_s - spin * jg),
                (-2.0 * self.lam * scut * scut)[..., None] * jg)

    # -- structure -------------------------------------------------------------
    def _geodesic(self, data) -> GeodesicSpec:
        """The generating geodesic at the curve data: launched from the curve
        point at the angle theta = arctan2(side x', -side y') of side J(Gamma')."""
        p, (xd, yd) = data[:2]
        return GeodesicSpec(p, np.arctan2(self.side * xd, -self.side * yd), self.lam)

    def generating_geodesic(self, eps) -> GeodesicSpec:
        """The geodesic leaving the base curve at eps; an array of eps gives
        one spec whose base and theta carry its shape."""
        return self._geodesic(_curve_data(self.curve, eps))

    def singular_curves(self):
        """The base curve sigma = 0 and the far curve sigma = 1, whose tangent
        F_eps(eps, 1) is V(s_cut) + s_cut'(eps) gamma'(s_cut)."""
        return [_eps_row(0.0, 1.0, "base"), _eps_row(1.0, -1.0, "far")]


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

    def __init__(self, curve: HorizontalCurve, s_range=(-2.0, 2.0)):
        super().__init__(curve.eps_min, curve.eps_max, s_range[0], s_range[1], orientation=1)
        self.curve = curve
        self.label = f"sigma-zero({curve.label})"

    def partials(self, eps, s):
        """F_s is broadcast to the sample shape."""
        p, (xd, yd), (xdd, ydd), h = _curve_data(self.curve, eps)[:4]
        s = _asf(s)
        x0, y0, t0 = _asf(p.x), _asf(p.y), _asf(p.t)
        fe = np.stack([xd - s * ydd, yd + s * xdd, s * s * h - 2.0 * s], axis=-1)
        fs = np.broadcast_to(np.stack([-yd, xd, np.zeros_like(xd)], axis=-1), fe.shape)
        return fe, fs, Point(x0 - s * yd, y0 + s * xd, t0 - s * (x0 * xd + y0 * yd))

    def second_partials(self, eps, s):
        _, _, (xdd, ydd), h, hdot, (x3, y3) = _curve_data(self.curve, eps)
        s = _asf(s)
        fee = np.stack(np.broadcast_arrays(xdd - s * y3, ydd + s * x3, s * s * hdot), axis=-1)
        fse = np.stack(np.broadcast_arrays(-ydd, xdd, 2.0 * s * h - 2.0), axis=-1)
        return fee, fse, np.zeros(fee.shape)

    def variation_coeffs(self, eps, s):
        return self.partials(eps, s)[0]

    def singular_curves(self):
        return [_eps_row(0.0, 1.0, "base")]

    def quadrature_charts(self):
        # |N_H| is a multiple of |s| near the base curve s = 0: a kink there
        # unless s = 0 is an edge
        if not self.s_lo < 0.0 < self.s_hi:
            return []
        return [_box_chart((self.eps_lo, self.eps_hi, self.s_lo, 0.0)),
                _box_chart((self.eps_lo, self.eps_hi, 0.0, self.s_hi))]


# ---------------------------------------------------------------------------
# Cylinders S_lambda


def cylinder_S(lam: float, x_range=(-2.0, 2.0)):
    """The two graph sheets (lower, upper) of the cylinder over the strip.

    Orientations point into the enclosed slab (up on the lower sheet, down
    on the upper), giving mean curvature +lam on both.
    """
    if lam == 0:
        raise ValueError("cylinder requires lam != 0")
    return _CylinderSheet(lam, "lower", x_range), _CylinderSheet(lam, "upper", x_range)


class _CylinderSheet(GraphPatch):
    """A graph sheet of the cylinder over the strip |y| <= 1/(2|lam|).

    Both sheets' radicands use w^2 = 1 - 4 lam^2 y^2; the sheets then agree
    on the strip boundary and solve the prescribed-curvature graph equation.
    """

    open_s_ends = (True, True)

    def __init__(self, lam: float, which: str, x_range):
        half = 1.0 / (2.0 * abs(lam))
        self.sign = 1 if which == "lower" else -1
        super().__init__(x_range[0], x_range[1], -half, half, orientation=self.sign)
        self.lam = lam
        self.label = f"cylinder-sheet({which},lam={lam:g})"

    def _w(self, y):
        return np.sqrt(np.maximum(1.0 - 4.0 * self.lam * self.lam * y ** 2, 1e-300))

    def height(self, x, y):
        x, y = _asf(x), _asf(y)
        lam, w = self.lam, self._w(y)
        if self.sign > 0:
            u = np.sign(y) / (2 * lam) * (
                np.arcsin(np.clip(2 * lam * y, -1, 1)) / (2 * lam) - y * w) - x * y
        else:
            u = (1.0 / (2 * lam)) * (
                (np.sign(lam) * np.pi - np.sign(y) * np.arcsin(np.clip(2 * lam * y, -1, 1))) / (2 * lam)
                + np.sign(y) * y * w) - x * y
        return u, -y + 0.0 * x, self.sign * np.sign(y) * 4 * lam * y * y / w - x

    def hessian(self, x, y):
        x, y = _asf(x), _asf(y)
        lam, shape = self.lam, np.broadcast_shapes(x.shape, y.shape)
        uyy = (self.sign * np.sign(y) * 4 * lam * y * (2.0 - 4 * lam * lam * y * y)
               / self._w(y) ** 3 + 0.0 * x)
        return np.zeros(shape), -np.ones(shape), uyy

    def quadrature_charts(self):
        # |N_H| = 2|y| / sqrt(1 - 4 lam^2 y^2): a kink on the singular curve
        # y = 0, inverse square roots at the strip edges
        return _sine_charts(self, 0.5 * (self.s_lo + self.s_hi))


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


def helicoid_L(lam: float, r: float, k_max: int = 2) -> HelicoidFamily:
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
    lo, hi = HELICOID_EPS
    eps = np.linspace(lo, hi, HELICOID_CHECKS)
    pieces = []
    offsets = {}
    worst = 0.0
    for branch, side0 in ((1, +1), (2, -1)):
        shift, lift = 0.0, 0.0
        side, mu = side0, lam
        for k in range(1, k_max + 1):
            gen = helix_curve(r, eps_shift=shift, t_shift=lift,
                              eps_min=lo - 1.0, eps_max=hi + 1.0)
            patch = SigmaLambdaPatch(gen, mu, side, eps_range=HELICOID_EPS,
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

_BLOCK_VERTICES = 4096       # vertices, or faces, evaluated and written at a time
_SQUEEZE_LINES = 1024        # lines of a block squeezed into bytes at a time


def _grid(patch: ImmersedPatch, n_eps: int, n_s: int):
    """(eps, s): the axes of an (n_eps x n_s) tensor grid over the patch.
    Rows flagged `open_s_ends` (degenerate parameterizations such as sphere
    poles) are inset by half a grid step."""
    if n_eps < 2 or n_s < 2:
        raise ValueError("mesh needs at least 2 samples per axis")
    lo, hi = patch.s_lo, patch.s_hi
    half = (hi - lo) / (2.0 * (n_s - 1))
    if patch.open_s_ends[0]:
        lo += half
    if patch.open_s_ends[1]:
        hi -= half
    return np.linspace(patch.eps_lo, patch.eps_hi, n_eps), np.linspace(lo, hi, n_s)


def write_mesh(patch: ImmersedPatch, n_eps: int, n_s: int, obj=None, csv=None,
               h_est: Callable | None = None) -> np.ndarray:
    """Sample the patch on the (n_eps x n_s) tensor grid `_grid`, write it to
    the paths `obj` and `csv` (either may be None), and return its singular
    mask |N_H| < TOL_SINGULAR, (n_eps, n_s) bool.

    The OBJ holds the v records row-major and each quad (a, b, c, d) as the
    triangles (a, b, c), (a, c, d); the CSV the columns eps, s (geometric),
    x, y, t, nh_norm and h_est, row-major.  h_est(patch, eps, s) gives the
    mean curvature on the grid of a block's eps rows and the s columns;
    without it the column reads nan.  It is called only for the CSV.

    The grid is streamed in blocks of whole eps rows, about _BLOCK_VERTICES
    vertices each: a block is evaluated by one `normal_data` call, checked,
    and its lines are appended to both files before the next block is
    evaluated, so only the mask outlives it.  The faces follow the last
    block.  Each file is written to a temp file in its directory and
    replaces its path only once both are complete, the OBJ first; an
    existing file keeps its mode, a new one gets 0o666 less the umask.  On
    any failure both temp files are removed and the old files stay as they
    were.  A degenerate point anywhere raises DegeneratePoint; otherwise a
    point or |N_H| that is not finite raises NonFinite once the whole grid
    is evaluated, so no such mesh is ever written.
    """
    eps, s = _grid(patch, n_eps, n_s)
    singular = np.empty((n_eps, n_s), bool)
    step = max(1, _BLOCK_VERTICES // n_s)
    finite = True
    with contextlib.ExitStack() as files:
        # the OBJ is entered last, so it replaces its path first; when that
        # fails, the CSV's old file stays too
        csv_fh = files.enter_context(_replacing(csv)) if csv else None
        obj_fh = files.enter_context(_replacing(obj)) if obj else None
        if csv_fh:
            csv_fh.write(b"eps,s,x,y,t,nh_norm,h_est\n")
        for i in range(0, n_eps, step):
            rows, e = slice(i, i + step), eps[i:i + step, None]
            nd = patch.normal_data(e, s[None, :])
            p, nh = nd.base, nd.nh_norm
            del nd                # so what follows holds only this block's fields
            singular[rows] = nh < TOL_SINGULAR
            finite = finite and all(np.isfinite(c).all() for c in (p.x, p.y, p.t, nh))
            if not finite:
                continue          # the rest is evaluated, for a DegeneratePoint, not written
            geom_s = h = None
            if csv_fh:
                geom_s = patch.geometric_s(e, s[None, :])
                h = np.nan if h_est is None else h_est(patch, eps[rows], s)
            _write_vertices(obj_fh, csv_fh, eps[rows], p.x, p.y, p.t, geom_s, nh, h)
        if not finite:
            raise NonFinite(f"{patch.label}: a mesh point or |N_H| is not finite")
        if obj_fh:
            _write_faces(obj_fh, n_eps, n_s)
    return singular


def singular_components(mask: np.ndarray):
    """Connected components (4-neighbor) of the vertices flagged in a
    `write_mesh` mask, largest first.

    Reports component sizes without asserting any point/curve dichotomy.
    """
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


# Text export.  `_float_text` turns a float64 array into the bytes of
# '%.17g' % v for each value, `_int_text` an integer array into those of
# '%d' % i: one uint8 text row per value, padded with 0 bytes.
# `_write_lines` lays the text rows of a block of lines and their separators
# into one matrix and writes it with the pad bytes dropped, so a file is
# built and written as bytes, a block of whole eps rows at a time, and never
# held whole.


def _digit_tables():
    """The four ASCII digits of 0..9999 in one word each: zero-filled, and
    with leading zeros as pad bytes (0 keeps its last digit); and the
    trailing zeros of each."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + np.uint8(48)
    lead = digits * np.maximum.accumulate(digits > 48, axis=1)
    lead[0, 3] = 48
    tz = 4 - np.maximum.accumulate(digits[:, ::-1] > 48, axis=1).sum(axis=1)
    return (digits.view(np.uint32).ravel().astype(np.uint64),
            lead.view(np.uint32).ravel().astype(np.uint64), tz.astype(np.uint8))


_DIGITS4, _LEAD4, _TZ4 = _digit_tables()
_POW10 = 10.0 ** np.arange(21)      # exact doubles
# _LOW[i, n]: the bytes below n of a 24-byte row, in its i-th 8-byte word
_LOW = ((np.arange(24) < np.arange(25)[:, None]) * 255).astype(np.uint8).view(np.uint64).T.copy()
_ZEROS7, _DOTS, _MINUS = np.uint64(0x30303030303030), np.uint64(0x2E2E2E2E2E2E2E2E), np.uint64(0x2D)
_NAMED = np.array([b"nan", b"inf", b"-inf", b"0", b"-0"], "S24").view(np.uint8).reshape(5, 24)


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker 1971),
    where a * b neither overflows nor underflows."""
    def split(v):
        c = 134217729.0 * v          # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    (ah, al), (bh, bl) = split(a), split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _float_text(x):
    """(n, 24) uint8 text rows of '%.17g' % v for the n values of x.

    For 1e-4 <= |v| < 1e15 '%.17g' prints fixed notation.  With
    k = floor(log10|v|), |v| * 10**(16 - k) is p + e exactly, and as
    p >= 1e16 > 2**53 is an even integer, D = p + rint(e) is the 17-digit
    integer rounded half to even, as '%.17g' rounds; where the log10
    estimate puts p + e outside [1e16, 1e17), k moves by one.  No double of
    the range lies within half a unit of the 17th digit below a power of
    ten, so D never rounds up to 1e17.  The digits of D sit at bytes 7..23
    of three 8-byte words after seven '0's; the text takes its integer part
    and its fraction from two byte shifts of them, then the '.', the sign,
    and the length once trailing zeros are stripped.  Other values go to
    `_fallback_text`."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.int64)
    p, e = _two_product(a, _POW10[16 - k])
    move = (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64)
            - ((p < 1e16) | ((p == 1e16) & (e < 0))))
    if move.any():
        k += move
        p, e = _two_product(a, _POW10[16 - k])
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    del a, p, e, move       # a block's text is built beside its cells: hold few temporaries
    hi = d // 10**8                                   # the first 9 digits
    lo = (d - hi * 10**8).astype(np.int32)            # the last 8; int32 divides faster
    hi = hi.astype(np.int32)
    g1, g2, g3, g4 = (g.astype(np.intp) for g in (hi // 10000 % 10000, hi % 10000,
                                                  lo // 10000, lo % 10000))
    words = [_ZEROS7 | (hi // 10**8 + 48).astype(np.uint64) << np.uint64(56),
             np.take(_DIGITS4, g1) | np.take(_DIGITS4, g2) << np.uint64(32),
             np.take(_DIGITS4, g3) | np.take(_DIGITS4, g4) << np.uint64(32)]
    tz = np.take(_TZ4, g4) + (g4 == 0) * (np.take(_TZ4, g3) + (g3 == 0) * (
        np.take(_TZ4, g2) + (g2 == 0) * np.take(_TZ4, g1)))
    del d, hi, lo, g1, g2, g3, g4
    frac = np.maximum(16 - tz - k, 0)                 # fraction digits printed
    neg = np.signbit(x)
    dot = neg + np.maximum(k, 0) + 1                  # the '.' follows the integer part
    end = dot + (frac > 0) * (1 + frac)
    shift = (8 * (7 + np.minimum(k, 0) - neg)).astype(np.uint64)   # in bits: 16..56
    text = np.empty((x.size, 3), np.uint64)
    for i, w in enumerate(words):
        whole, rest = w >> shift, w >> (shift - np.uint64(8))
        if i < 2:
            whole |= words[i + 1] << (np.uint64(64) - shift)
            rest |= words[i + 1] << (np.uint64(72) - shift)
        below, upto = np.take(_LOW[i], dot), np.take(_LOW[i], dot + 1)
        text[:, i] = (((whole & below) | (rest & ~upto) | (_DOTS & (upto ^ below)))
                      & np.take(_LOW[i], end))
    text[:, 0] ^= (text[:, 0] ^ _MINUS) & (neg * np.uint64(255))
    text = text.view(np.uint8)
    if not fast.all():
        text[~fast] = _fallback_text(x[~fast])
    return text


def _fallback_text(x):
    """Text rows of values outside the kernel's range: nan (of either sign),
    infinities and zeros from a table, the rest in one '%.17g' pass."""
    neg = np.signbit(x)
    kind = np.select([np.isnan(x), np.isinf(x), x == 0], [0, 1 + neg, 3 + neg], -1)
    text = _NAMED[kind]
    other = kind < 0
    if other.any():
        v = x[other].tolist()
        text[other] = np.array(("%.17g " * len(v) % tuple(v)).split(),
                               "S24").view(np.uint8).reshape(-1, 24)
    return text


def _int_text(v):
    """Text rows of '%d' % i for the non-negative integers of v, 4 bytes per
    4-digit group, leading zeros as pad bytes."""
    places = [10**(4 * g) for g in range((len(str(int(v.max(initial=0)))) + 3) // 4)][::-1]
    text = np.empty((v.size, len(places)), np.uint32)
    for g, place in enumerate(places):
        q = v // place % 10000
        lead = _LEAD4[q] * ((v >= place) | (place == 1))
        text[:, g] = lead + (_DIGITS4[q] - _LEAD4[q]) * (v >= 10000 * place)
    return text.view(np.uint8)


def _field_text(c, shape):
    """(n, n_s, 24) text rows of the values of c broadcast to shape (n, n_s):
    converted once per eps row when their bits are constant along each row,
    once per s column when constant along each column, once when both, and
    otherwise once per vertex; the rows are broadcast back to the grid."""
    c = np.broadcast_to(np.asarray(c, float), shape)
    bits = c.view(np.uint64)
    distinct = c[:1 if np.all(bits == bits[:1]) else None,
                 :1 if np.all(bits == bits[:, :1]) else None]
    text = _float_text(distinct.ravel()).reshape(*distinct.shape, 24)
    return np.broadcast_to(text, (*shape, 24))


def _write_lines(write, head: bytes, sep: bytes, shape, texts) -> None:
    """Write the lines of a (..., k) block of text cells: `head` when given,
    then the k cells of each line, each followed by `sep` but the last by a
    newline; pad bytes dropped.  `texts` yields (j, rows), the (..., w) text
    rows of cell j in any order, each laid straight into the cell matrix
    before the next is built; the matrix is squeezed into bytes and written
    _SQUEEZE_LINES lines at a time."""
    *lead, k, w = shape
    h = 1 if head else 0
    cells = np.zeros((*lead, h + k, w + 1), np.uint8)
    if head:
        cells[..., 0, :len(head)] = np.frombuffer(head, np.uint8)
    for j, text in texts:
        cells[..., h + j, :w] = text
        del text        # before the next cell's text is built
    cells[..., w] = ord(sep)
    cells[..., -1, w] = ord("\n")
    lines = cells.reshape(-1, (h + k) * (w + 1))
    for i in range(0, len(lines), _SQUEEZE_LINES):
        write(lines[i:i + _SQUEEZE_LINES].tobytes().translate(None, b"\0"))


def _write_vertices(obj, csv, eps, x, y, t, geom_s=None, nh_norm=None, h_est=None) -> None:
    """Append the lines of a block of whole eps rows to the binary files
    `obj` (v records) and `csv` (rows), either None.  eps is (n,), and the
    per-vertex fields broadcast together to (n, n_s); geom_s, nh_norm and
    h_est are printed only in the CSV.  x, y and t are converted once for
    both files, and their text is dropped as soon as both have it."""
    shape = np.broadcast_shapes(*map(np.shape, (eps[:, None], x, y, t, geom_s, nh_norm, h_est)))
    xyt = [_field_text(c, shape) for c in (x, y, t)]
    if obj:
        _write_lines(obj.write, b"v", b" ", (*shape, 3, 24), enumerate(xyt))
    if csv:
        def cells():
            for j in (2, 3, 4):
                yield j, xyt.pop(0)
            for j, c in ((0, eps[:, None]), (1, geom_s), (5, nh_norm), (6, h_est)):
                yield j, _field_text(c, shape)

        _write_lines(csv.write, b"", b",", (*shape, 7, 24), cells())


def _write_faces(obj, n_e: int, n_s: int) -> None:
    """Append the f lines of an (n_e x n_s) grid's quads to `obj`, a block
    of eps rows at a time: each vertex id of the block is converted to text
    once, and each triangle's corners are gathered from those rows."""
    step = max(1, _BLOCK_VERTICES // (2 * n_s))
    for i in range(0, n_e - 1, step):
        j = min(i + step, n_e - 1)
        ids = _int_text(np.arange(i * n_s + 1, (j + 1) * n_s + 1))     # rows i..j
        local = np.arange((j - i + 1) * n_s).reshape(-1, n_s)
        a, b, c, d = local[:-1, :-1], local[1:, :-1], local[1:, 1:], local[:-1, 1:]
        corners = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
        _write_lines(obj.write, b"f", b" ", (len(corners), 3, ids.shape[1]),
                     ((k, ids[corners[:, k]]) for k in range(3)))


@contextlib.contextmanager
def _replacing(path):
    """A binary file on a temp file in the directory of `path`, which
    replaces `path` by `os.replace` when the block exits normally, so a
    reader sees the old file or the whole new one.  The file gets the mode
    `open(path, "w")` would give it: an existing file keeps its mode, a new
    one gets 0o666 less the umask.  When the block raises, the temp file is
    removed and `path` is left as it was."""
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write(path, text: str) -> None:
    """Write `text` to `path` through `_replacing`.  On any failure, an
    encoding error included, the temp file is removed and `path` is left as
    it was."""
    with _replacing(path) as fh:
        fh.write(text.encode())


# ---------------------------------------------------------------------------
# Catalog


def catalog():
    """Named surface builders with their parameter defaults; each takes only
    the parameters its surface has."""

    def make_sphere(lam=1.0):
        return SpherePatch(float(lam))

    def make_cylinder(lam=1.0, sheet="lower", x_range=(-2.0, 2.0)):
        if sheet not in ("lower", "upper"):
            raise ValueError(f"sheet must be 'lower' or 'upper' (got {sheet!r})")
        lower, upper = cylinder_S(float(lam), x_range)
        return lower if sheet == "lower" else upper

    def make_helicoid(lam=1.0, r=1.0):
        return helicoid_L(float(lam), float(r), k_max=1).pieces[0]

    def make_bernstein(g="0"):
        return BernsteinGraph(parse_g(g))

    def make_plane(normal=(0.0, 0.0, 1.0), d=0.0):
        return plane_patch(normal, float(d))

    def make_vertical_cylinder(r=1.0):
        return VerticalCylinder(float(r))

    def make_sigma_lambda(curve=None, lam=1.0, side=1):
        if curve is None:
            curve = line_curve(eps_min=-2.0, eps_max=2.0)
        return SigmaLambdaPatch(curve, float(lam), int(side))

    def make_sigma_zero(curve=None, s_range=(-2.0, 2.0)):
        if curve is None:
            curve = line_curve(eps_min=-2.0, eps_max=2.0)
        return SigmaZeroPatch(curve, s_range)

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
