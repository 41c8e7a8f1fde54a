"""Horizontal curves: lifts of planar curves and the generator catalog.

A horizontal curve (x, y, t) satisfies t' = x'y - xy'; the lift of a planar
curve is unique up to a vertical translation.  On an arclength curve the
planar geodesic curvature h = x'y'' - x''y' (normal convention (-y', x')) and
its rate h' = x'y''' - x'''y' drive the cut function of the
orthogonal-geodesic surface builders.

A `HorizontalCurve` is read through its `jet` alone, which gives the
position and three derivatives of (x, y) from one evaluation.
`horizontal_lift` is the one place a planar curve, in any regular parameter
u, becomes an arclength horizontal curve.  It tabulates the arclength L(u)
and the lift T(u) once per curve, on the same Gauss-Legendre cells in u, and
maps a query eps to u by Newton's method on L(u) = eps - eps_min, so the
position, the derivatives and t of a query are all read at one u.  A CSV
curve is a not-a-knot cubic spline built in numpy, whose knot intervals are
the lift's first cells.  Every function here is pure, so curves are safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateCurve
from .geodesics import GeodesicSpec, geodesic_point
from .hgroup import Point

_LIFT_CELLS = 1024   # first cells of a lift over a curve without breaks
_LIFT_TOL = 1e-14    # per-cell error target, relative to the length (times max|(x, y)| for t)
_LIFT_MAX_CELLS = 64 * _LIFT_CELLS
_NEWTON_MAX = 64     # enough for bisection alone to reach rounding
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class PlanarCurve:
    """A planar curve with three derivatives in its parameter, as vectorized
    callables.  `breaks` are the parameters, ends included, where a
    derivative may jump (a spline's knots); the lift starts its cells there."""

    xy: Callable        # eps -> (x, y) arrays
    d1: Callable        # eps -> (x', y')
    d2: Callable        # eps -> (x'', y'')
    d3: Callable        # eps -> (x''', y''')
    eps_min: float
    eps_max: float
    breaks: tuple = ()

    def speed(self, eps):
        xd, yd = self.d1(eps)
        return np.hypot(xd, yd)


def _gauss(f, a, b):
    """Integral of f over each [a, b] by the 8-point Gauss-Legendre rule of
    `measures`.  Each sum runs in one fixed order, so a value does not depend
    on the batch or the shape it is computed in."""
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES
    return half * np.sum(f(u) * _GL_WEIGHTS, axis=-1)


def _densities(planar: PlanarCurve, u):
    """(|P'|, x'y - xy') at u, stacked: the arclength and the lift densities."""
    x, y = planar.xy(u)
    xd, yd = planar.d1(u)
    return np.stack([np.hypot(xd, yd), xd * y - x * yd])


@dataclass(frozen=True)
class HorizontalCurve:
    """Arclength horizontal curve on [eps_min, eps_max].

    `jet` maps eps to (position, (x', y'), (x'', y''), (x''', y''')) in one
    evaluation.  It is a closed form or the table of :func:`horizontal_lift`,
    a pure function of eps either way, so a curve may be shared between
    threads.
    """

    jet: Callable
    eps_min: float
    eps_max: float
    label: str = "curve"

    def position(self, eps) -> Point:
        return self.jet(eps)[0]


def _running_sum(start: float, increments) -> np.ndarray:
    """start, then start plus each prefix sum of `increments`, compensated
    (Neumaier): a plain cumsum drifts by ~1e3 ulps."""
    total, comp, out = start, 0.0, [start]
    for d in increments.tolist():
        total, old = total + d, total
        comp += (old - total) + d if abs(old) >= abs(d) else (d - total) + old
        out.append(total + comp)
    return np.array(out)


def _lift_table(planar: PlanarCurve, t0: float):
    """Cell edges in u, with the arclength and the lift t at each edge.

    Cells start at the curve's breaks, or as _LIFT_CELLS equal ones, and are
    halved while the rule for either integral differs from the sum over the
    halves by more than _LIFT_TOL times the length (times max|(x, y)| for
    the lift), which rounding never reaches, so the depth is bounded;
    _LIFT_MAX_CELLS bounds the count.  DegenerateCurve when the planar speed
    is below 1e-12 at an edge, the two ends among them.
    """
    grid = (np.array(planar.breaks, float) if planar.breaks
            else np.linspace(planar.eps_min, planar.eps_max, _LIFT_CELLS + 1))

    def rule(a, b):   # (2, cells): the arclength and the lift over each cell
        return _gauss(lambda u: _densities(planar, u), a, b)

    lo, hi = grid[:-1], grid[1:]
    whole = rule(lo, hi)
    tol = _LIFT_TOL * np.sum(whole[0]) * np.array([[1.0], [np.max(np.hypot(*planar.xy(grid)))]])
    done = []    # (left edges, increments) of the cells that met the target
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        split = np.any(np.abs(whole - (left + right)) > tol, axis=0)
        if sum(c.size for c, _ in done) + lo.size + np.count_nonzero(split) > _LIFT_MAX_CELLS:
            split[:] = False
        done.append((lo[~split], whole[:, ~split]))
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        whole = np.concatenate([left[:, split], right[:, split]], axis=1)
    cells = np.concatenate([c for c, _ in done])
    order = np.argsort(cells)
    increments = np.concatenate([w for _, w in done], axis=1)[:, order]
    edges = np.append(cells[order], grid[-1])
    if not np.min(planar.speed(edges)) >= 1e-12:
        raise DegenerateCurve("planar speed vanishes on the curve")
    return edges, _running_sum(0.0, increments[0]), _running_sum(t0, increments[1])


def horizontal_lift(planar: PlanarCurve, t0: float = 0.0, label: str = "lift") -> HorizontalCurve:
    """Lift a planar curve in any regular parameter u to an arclength
    horizontal curve: eps = eps_min + L(u), t = t0 + integral of (x'y - xy').

    Both integrals are tabulated once over u, per Gauss-Legendre cell (see
    :func:`_lift_table`).  A query eps takes its cell from the length table
    and solves L(u) = eps - eps_min there by Newton's method, with L' = |P'|
    exact and the cell as the bracket (a step that leaves it bisects); L(u)
    is the edge's length plus one 8-point rule.  Position, derivatives (by
    the chain rule with du/deps = 1/|P'|) and t (one more rule) are then
    read at that u, all of them at once by `jet`.  Newton stops, for each
    query on its own, at a step or an arclength residual of 4 ulps, so
    every value is pure: the same for any batch, query order or thread.  An
    arclength curve keeps its parameter to rounding, and analytic curves
    lift exact to rounding (helix and line ~1e-15).

    Raises DegenerateCurve when the planar speed vanishes at a table edge.
    """
    edges, lengths, lifts = _lift_table(planar, float(t0))
    for table in (edges, lengths, lifts):
        table.flags.writeable = False
    inner, total = lengths[1:-1], float(lengths[-1])

    def solve(e):
        """(u, cell) of each query.  A query beyond an end extrapolates the
        end piece, unbracketed on the outer side."""
        s = np.asarray(e, float) - planar.eps_min
        k = np.searchsorted(inner, s, side="right")
        a, b, la = edges[k], edges[k + 1], lengths[k]
        lo, hi = np.where(s < 0.0, -np.inf, a), np.where(s > total, np.inf, b)
        u = a + (b - a) * ((s - la) / (lengths[k + 1] - la))
        u_tol, s_tol = 4.0 * np.spacing(np.maximum(abs(a), abs(b))), 4.0 * np.spacing(total)
        live = np.ones(u.shape, bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_MAX):
                half = 0.5 * (u - a)
                nodes = (0.5 * (a + u))[..., None] + half[..., None] * _GL_NODES
                speed = planar.speed(np.concatenate([nodes, u[..., None]], axis=-1))
                f = la + half * np.sum(speed[..., :-1] * _GL_WEIGHTS, axis=-1) - s
                lo, hi = np.where(f < 0.0, u, lo), np.where(f > 0.0, u, hi)
                done = abs(f) <= s_tol   # u stays, whatever the speed there
                new = np.where(done, u, u - f / speed[..., -1])
                bisect = ~((lo <= new) & (new <= hi)) & np.isfinite(lo + hi)
                new = np.where(bisect, 0.5 * (lo + hi), new)
                u, live = np.where(live, new, u), live & ~done & (abs(new - u) > u_tol)
                if not live.any():
                    break
        return u, k

    def derivs(u):
        """The first three eps-derivatives of (x, y) at u."""
        (xd, yd), (xdd, ydd), (x3, y3) = planar.d1(u), planar.d2(u), planar.d3(u)
        v, w = xd * xd + yd * yd, xd * xdd + yd * ydd
        z, sp = xdd * xdd + ydd * ydd + xd * x3 + yd * y3, np.sqrt(v)
        c1, c2 = (4.0 * w * w / v - z) / (v * v), -3.0 * w / (v * v)
        return ((xd / sp, yd / sp),
                ((xdd * v - xd * w) / (v * v), (ydd * v - yd * w) / (v * v)),
                ((x3 / v + c2 * xdd + c1 * xd) / sp, (y3 / v + c2 * ydd + c1 * yd) / sp))

    def jet(e):
        u, k = solve(e)
        x, y = planar.xy(u)
        t = lifts[k] + _gauss(lambda v: _densities(planar, v)[1], edges[k], u)
        return (Point(x, y, float(t) if t.ndim == 0 else t), *derivs(u))

    return HorizontalCurve(jet, planar.eps_min, planar.eps_min + total, label)


def line_curve(theta: float = 0.0, base: Point = Point(0.0, 0.0, 0.0),
               eps_min: float = -5.0, eps_max: float = 5.0) -> HorizontalCurve:
    """Horizontal straight line through `base`; theta = 0 gives the x-axis."""
    g = GeodesicSpec(base, theta, 0.0)
    ct, st = np.cos(theta), np.sin(theta)
    x0, y0 = float(base.x), float(base.y)

    def jet(e):
        t = np.asarray(geodesic_point(g, e).t, float)
        e = np.asarray(e, float)
        one, zero = np.ones_like(e), np.zeros_like(e)
        return Point(x0 + ct * e, y0 + st * e, t), (ct * one, st * one), (zero, zero), (zero, zero)

    return HorizontalCurve(jet, float(eps_min), float(eps_max), label="line")


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

    def jet(e):
        u = np.asarray(e, float) + eps_shift
        c, s = np.cos(2 * r * u), np.sin(2 * r * u)
        return (Point(s / (2 * r), (c - 1.0) / (2 * r), (u - s / (2 * r)) / (2 * r) + t_shift),
                (c, -s), (-2 * r * s, -2 * r * c), (-4 * r * r * c, 4 * r * r * s))

    return HorizontalCurve(jet, float(eps_min), float(eps_max), label="helix")


def _not_a_knot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients (4, n - 1, 2), highest power first, of the not-a-knot
    cubic spline through the n rows of v over the knots u, as in scipy's
    `CubicSpline(u, v).c`: the slopes at the knots solve one tridiagonal
    system, by elimination without pivoting (the Thomas algorithm)."""
    n, dx = u.size, np.diff(u)
    slope = np.diff(v, axis=0) / dx[:, None]
    lower, diag, upper, rhs = np.empty(n), np.empty(n), np.empty(n), np.empty_like(v)
    lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    # not-a-knot: the third derivative is continuous at the second and the
    # second-to-last knots
    d = u[2] - u[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = u[-1] - u[-3]
    lower[-1], diag[-1] = d, dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = np.empty_like(rhs)
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    return np.stack([t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t, s[:-1], v[:-1]])


def _spline_curve(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> PlanarCurve:
    """The not-a-knot cubic spline through (x, y) over the knots u, and its
    derivatives, each by Horner's rule on the piece left of the query (the
    first or last piece beyond the ends).  Its knots are its breaks; its
    third derivative is constant on each piece."""
    c = _not_a_knot(u, np.stack([x, y], axis=-1))
    polys = [c, c[:3] * np.array([3.0, 2.0, 1.0])[:, None, None],
             c[:2] * np.array([6.0, 2.0])[:, None, None], 6.0 * c[:1]]

    def derivative(poly):
        def f(e):
            e = np.asarray(e, float)
            k = np.searchsorted(u[1:-1], e, side="right")
            d, v = (e - u[k])[..., None], poly[0, k]
            for coef in poly[1:, k]:
                v = v * d + coef
            return v[..., 0], v[..., 1]
        return f

    return PlanarCurve(*map(derivative, polys), float(u[0]), float(u[-1]),
                       breaks=tuple(u.tolist()))


def curve_from_samples(eps: np.ndarray, x: np.ndarray, y: np.ndarray,
                       t0: float = 0.0, label: str = "csv") -> HorizontalCurve:
    """Build a lifted curve from planar samples: the not-a-knot cubic spline
    through them, lifted by :func:`horizontal_lift`.

    Samples need not be arclength.  `eps` must be strictly increasing; the
    spline's parameter is eps - eps[0], so the arclength runs from 0.
    """
    eps = np.asarray(eps, float)
    if eps.ndim != 1 or eps.size < 4:
        raise DegenerateCurve("need at least 4 samples")
    if np.any(np.diff(eps) <= 0):
        raise DegenerateCurve("eps column must be strictly increasing")
    planar = _spline_curve(eps - eps[0], np.asarray(x, float), np.asarray(y, float))
    return horizontal_lift(planar, t0=t0, label=label)


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
