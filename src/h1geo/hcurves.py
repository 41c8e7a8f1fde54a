"""Horizontal curves: lifts of planar arclength curves and the generator catalog.

A horizontal curve (x, y, t) satisfies t' = x'y - xy'; the lift of a planar
arclength curve is unique up to a vertical translation.  The planar geodesic
curvature h = x'y'' - x''y' (normal convention (-y', x')) drives the cut
function of the orthogonal-geodesic surface builders.

A generic lift (every CSV curve) tabulates t once per curve, exact to
rounding on analytic curves and to ~1e-13 relative on splines, and answers a
batch of queries in one vectorized step; `t_of` is pure, so curves are safe
to share between threads.  Only the spline builders import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateCurve, NotArclength
from .geodesics import GeodesicSpec, geodesic_point
from .hgroup import Point

TOL_ARCLENGTH = 1e-6
VALIDATION_GRID = 1024
_LIFT_TOL = 1e-14    # per-cell lift error target, relative to max|(x, y)| * length
_LIFT_MAX_CELLS = 64 * VALIDATION_GRID
RATE_STEP = 1e-5           # central-difference step of curvature_rate
ARCLENGTH_NODES = 4096     # grid of reparameterize_arclength's length function
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class PlanarCurve:
    """A planar curve with two derivatives, as vectorized callables."""

    xy: Callable        # eps -> (x, y) arrays
    d1: Callable        # eps -> (x', y')
    d2: Callable        # eps -> (x'', y'')
    eps_min: float
    eps_max: float

    def speed(self, eps):
        xd, yd = self.d1(eps)
        return np.hypot(xd, yd)


def _check_arclength(planar: PlanarCurve) -> None:
    speed = planar.speed(np.linspace(planar.eps_min, planar.eps_max, VALIDATION_GRID))
    if np.any(speed < 1e-12):
        raise DegenerateCurve("planar speed vanishes on the validation grid")
    err = np.max(np.abs(speed - 1.0))
    if err > TOL_ARCLENGTH:
        raise NotArclength(f"speed deviates from 1 by {err:.3e} (tol {TOL_ARCLENGTH:.1e})")


def _lift_rule(planar: PlanarCurve, a, b):
    """Integral of t' = x'y - xy' over each [a, b] by the 8-point Gauss-Legendre
    rule of `measures`.  With 1-D a and b each sum runs in one fixed order."""
    half = 0.5 * (b - a)
    e = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
    x, y = planar.xy(e)
    xd, yd = planar.d1(e)
    return half * np.sum((xd * y - x * yd) * _GL_WEIGHTS, axis=-1)


@dataclass(frozen=True)
class HorizontalCurve:
    """Arclength horizontal curve: planar data plus the vertical coordinate.

    `t_of` is a closed form or the table of :func:`horizontal_lift`, a pure
    function of eps either way, so a curve may be shared between threads.
    """

    planar: PlanarCurve
    t_of: Callable                       # eps -> t
    label: str = "curve"

    @property
    def eps_min(self):
        return self.planar.eps_min

    @property
    def eps_max(self):
        return self.planar.eps_max

    def position(self, eps) -> Point:
        x, y = self.planar.xy(eps)
        return Point(x, y, self.t_of(eps))

    def velocity(self, eps) -> np.ndarray:
        """Unit horizontal velocity in frame coefficients; the T-coefficient
        is zero by lifting, so `t_of` is not evaluated."""
        xd, yd = (np.asarray(v, float) for v in self.planar.d1(eps))
        return np.stack(np.broadcast_arrays(xd, yd, np.zeros_like(xd)), axis=-1)

    def planar_curvature(self, eps):
        xd, yd = self.planar.d1(eps)
        xdd, ydd = self.planar.d2(eps)
        return xd * ydd - xdd * yd

    def curvature_rate(self, eps):
        """dh/deps by central differences of step RATE_STEP."""
        h = RATE_STEP
        return (self.planar_curvature(eps + h) - self.planar_curvature(eps - h)) / (2 * h)


def _planar_from_callables(fx, fy, dfx, dfy, ddfx, ddfy, eps_min, eps_max) -> PlanarCurve:
    def xy(e):
        e = np.asarray(e, float)
        return fx(e), fy(e)

    def d1(e):
        e = np.asarray(e, float)
        return dfx(e), dfy(e)

    def d2(e):
        e = np.asarray(e, float)
        return ddfx(e), ddfy(e)

    return PlanarCurve(xy, d1, d2, float(eps_min), float(eps_max))


def _lift_table(planar: PlanarCurve, t0: float):
    """Cell edges and the lift t at each edge.  Cells start as VALIDATION_GRID
    equal ones and are halved while their rule differs from the sum over their
    halves by more than _LIFT_TOL * max|(x, y)| * length, which rounding never
    reaches, so the depth is bounded; _LIFT_MAX_CELLS bounds the count.  The
    running sum is compensated (Neumaier): a plain cumsum drifts by ~1e3 ulps.
    """
    grid = np.linspace(planar.eps_min, planar.eps_max, VALIDATION_GRID + 1)
    tol = _LIFT_TOL * np.max(np.hypot(*planar.xy(grid))) * (grid[-1] - grid[0])
    lo, hi = grid[:-1], grid[1:]
    whole = _lift_rule(planar, lo, hi)
    done = []    # (left edges, increments) of the cells that met the target
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = _lift_rule(planar, lo, mid), _lift_rule(planar, mid, hi)
        split = np.abs(whole - (left + right)) > tol
        if sum(c.size for c, _ in done) + lo.size + np.count_nonzero(split) > _LIFT_MAX_CELLS:
            split[:] = False
        done.append((lo[~split], whole[~split]))
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        whole = np.concatenate([left[split], right[split]])
    cells, increments = map(np.concatenate, zip(*done))
    order = np.argsort(cells)
    t, comp, t_edges = t0, 0.0, [t0]
    for d in increments[order].tolist():
        t, old = t + d, t
        comp += (old - t) + d if abs(old) >= abs(d) else (d - t) + old
        t_edges.append(t + comp)
    return np.append(cells[order], planar.eps_max), np.array(t_edges)


def horizontal_lift(planar: PlanarCurve, t0: float = 0.0, label: str = "lift") -> HorizontalCurve:
    """Lift a planar arclength curve: t(eps) = t0 + integral of (x'y - xy').

    The integral is tabulated once, per Gauss-Legendre cell (see
    :func:`_lift_table`); a query adds one 8-point rule from the edge left of
    it, 8 planar evaluations per point for a whole batch.  Analytic curves
    come out exact to rounding (helix and line ~1e-15), spline curves within
    ~1e-13 of t's size.  The table is immutable: `t_of` is pure, the same for
    any batch, query order or thread.

    Raises NotArclength when the planar speed is off unit; callers may
    reparameterize first with :func:`reparameterize_arclength`.
    """
    _check_arclength(planar)
    edges, t_edges = _lift_table(planar, float(t0))
    edges.flags.writeable = t_edges.flags.writeable = False

    def t_of(e):
        e_in = np.asarray(e, float)
        e = e_in.ravel()
        k = np.clip(np.searchsorted(edges, e, side="right") - 1, 0, edges.size - 2)
        t = (t_edges[k] + _lift_rule(planar, edges[k], e)).reshape(e_in.shape)
        return float(t) if e_in.ndim == 0 else t

    return HorizontalCurve(planar, t_of, label=label)


def reparameterize_arclength(planar: PlanarCurve) -> PlanarCurve:
    """Arclength reparameterization by cumulative-length inversion.

    The length function is sampled on ARCLENGTH_NODES points, inverted with monotone
    PCHIP interpolation, and derivatives are chained analytically through
    the inverse.
    """
    from scipy.interpolate import PchipInterpolator

    u = np.linspace(planar.eps_min, planar.eps_max, ARCLENGTH_NODES)
    speed = planar.speed(u)
    if np.any(speed < 1e-12):
        raise DegenerateCurve("planar speed vanishes on the grid")
    # composite Simpson cumulative length on the refined grid
    mid = 0.5 * (u[:-1] + u[1:])
    smid = planar.speed(mid)
    seg = (u[1:] - u[:-1]) / 6.0 * (speed[:-1] + 4.0 * smid + speed[1:])
    length = np.concatenate([[0.0], np.cumsum(seg)])
    u_of_eps = PchipInterpolator(length, u)
    total = length[-1]

    def xy(e):
        return planar.xy(u_of_eps(np.asarray(e, float)))

    def d1(e):
        uu = u_of_eps(np.asarray(e, float))
        xd, yd = planar.d1(uu)
        sp = np.hypot(xd, yd)
        return xd / sp, yd / sp

    def d2(e):
        uu = u_of_eps(np.asarray(e, float))
        xd, yd = planar.d1(uu)
        xdd, ydd = planar.d2(uu)
        sp2 = xd * xd + yd * yd
        sp = np.sqrt(sp2)
        dot = xd * xdd + yd * ydd
        return (xdd * sp2 - xd * dot) / (sp2 * sp2), (ydd * sp2 - yd * dot) / (sp2 * sp2)

    return PlanarCurve(xy, d1, d2, 0.0, float(total))


def line_curve(theta: float = 0.0, base: Point = Point(0.0, 0.0, 0.0),
               eps_min: float = -5.0, eps_max: float = 5.0) -> HorizontalCurve:
    """Horizontal straight line through `base`; theta = 0 gives the x-axis."""
    g = GeodesicSpec(base, theta, 0.0)

    def t_of(e):
        return np.asarray(geodesic_point(g, e).t, float)

    ct, st = np.cos(theta), np.sin(theta)
    x0, y0 = float(base.x), float(base.y)
    planar = _planar_from_callables(
        lambda e: x0 + ct * e, lambda e: y0 + st * e,
        lambda e: ct * np.ones_like(e), lambda e: st * np.ones_like(e),
        lambda e: np.zeros_like(e), lambda e: np.zeros_like(e),
        eps_min, eps_max)
    return HorizontalCurve(planar, t_of, label="line")


def helix_curve(r: float, eps_shift: float = 0.0, t_shift: float = 0.0,
                eps_min: float | None = None, eps_max: float | None = None) -> HorizontalCurve:
    """The horizontal helix of radius r, planar curvature -2r, pitch pi/(2 r^2).

    With shift parameters the curve is Gamma(eps + eps_shift) raised by
    t_shift; these arise as the singular curves of the helicoidal surfaces.
    """
    if eps_min is None:
        eps_min = -np.pi / r
    if eps_max is None:
        eps_max = np.pi / r

    def xy(e):
        u = np.asarray(e, float) + eps_shift
        return np.sin(2 * r * u) / (2 * r), (np.cos(2 * r * u) - 1.0) / (2 * r)

    def d1(e):
        u = np.asarray(e, float) + eps_shift
        return np.cos(2 * r * u), -np.sin(2 * r * u)

    def d2(e):
        u = np.asarray(e, float) + eps_shift
        return -2 * r * np.sin(2 * r * u), -2 * r * np.cos(2 * r * u)

    def t_of(e):
        u = np.asarray(e, float) + eps_shift
        return (u - np.sin(2 * r * u) / (2 * r)) / (2 * r) + t_shift

    planar = PlanarCurve(xy, d1, d2, float(eps_min), float(eps_max))
    return HorizontalCurve(planar, t_of, label="helix")


def curve_from_samples(eps: np.ndarray, x: np.ndarray, y: np.ndarray,
                       t0: float = 0.0, label: str = "csv") -> HorizontalCurve:
    """Build a lifted curve from planar samples via cubic splines.

    Samples need not be arclength; the spline curve is reparameterized
    first.  `eps` must be strictly increasing.
    """
    from scipy.interpolate import CubicSpline

    eps = np.asarray(eps, float)
    if eps.ndim != 1 or eps.size < 4:
        raise DegenerateCurve("need at least 4 samples")
    if np.any(np.diff(eps) <= 0):
        raise DegenerateCurve("eps column must be strictly increasing")
    sx = CubicSpline(eps, np.asarray(x, float))
    sy = CubicSpline(eps, np.asarray(y, float))
    planar = PlanarCurve(
        lambda e: (sx(e), sy(e)),
        lambda e: (sx(e, 1), sy(e, 1)),
        lambda e: (sx(e, 2), sy(e, 2)),
        float(eps[0]), float(eps[-1]))
    arc = reparameterize_arclength(planar)
    return horizontal_lift(arc, t0=t0, label=label)


def load_curve_csv(path) -> HorizontalCurve:
    """Read the curve CSV format: header `eps,x,y`, strictly increasing eps.

    Raises ConfigError when the file cannot be read and DegenerateCurve when
    its content is malformed.
    """
    import csv

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
    except OSError as exc:
        raise ConfigError(f"cannot read curve file: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DegenerateCurve(f"curve CSV is not text: {exc}") from exc
    if [h.strip() for h in header[:3]] != ["eps", "x", "y"]:
        raise DegenerateCurve(f"curve CSV must start with header eps,x,y (got {header})")
    try:
        data = np.array([(float(r[0]), float(r[1]), float(r[2])) for r in rows if r]).reshape(-1, 3)
    except (IndexError, ValueError) as exc:
        raise DegenerateCurve(f"every curve CSV row needs three numbers: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise DegenerateCurve("curve CSV holds a value that is not finite")
    return curve_from_samples(data[:, 0], data[:, 1], data[:, 2], label="csv")
