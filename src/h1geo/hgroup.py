"""Algebraic and metric kernel of the first Heisenberg group.

Points live on R^3 with coordinates (x, y, t) and the group law

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + x'y - xy'),

i.e. [z, t] * [z', t'] = [z + z', t + t' + Im(z conj(z'))] for z = x + iy.
The left-invariant frame

    X = d/dx + y d/dt,    Y = d/dy - x d/dt,    T = d/dt

is declared orthonormal; every tangent vector is stored as its coefficient
triple (a, b, c) in this frame, an array of shape (..., 3), and no base
point travels with it.  In the frame the metric, the rotation J and the
Levi-Civita connection are all constant.  Cartesian components appear only
at I/O boundaries.

All functions broadcast over numpy arrays: a `Point` whose fields are
arrays represents a batch of points.  Everything here is a pure function
of its inputs; values are immutable and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

H_FD = 1e-5  # central-difference step of `divergence`


@dataclass(frozen=True)
class Point:
    """A point of the group, or a broadcastable batch of points."""

    x: float | np.ndarray
    y: float | np.ndarray
    t: float | np.ndarray

    def as_array(self) -> np.ndarray:
        """Stack coordinates into shape (..., 3)."""
        x, y, t = np.broadcast_arrays(
            np.asarray(self.x, float), np.asarray(self.y, float), np.asarray(self.t, float)
        )
        return np.stack([x, y, t], axis=-1)

    @classmethod
    def from_array(cls, arr) -> "Point":
        arr = np.asarray(arr, float)
        return cls(arr[..., 0], arr[..., 1], arr[..., 2])


ORIGIN = Point(0.0, 0.0, 0.0)


def group_mul(p: Point, q: Point) -> Point:
    return Point(p.x + q.x, p.y + q.y, p.t + q.t + q.x * p.y - p.x * q.y)


def dilate(s: float, p: Point) -> Point:
    """Intrinsic dilation (x, y, t) -> (e^s x, e^s y, e^{2s} t)."""
    es = np.exp(s)
    return Point(es * p.x, es * p.y, es * es * p.t)


def cartesian_to_frame(p: Point, v) -> np.ndarray:
    """Frame coefficients (a, b, c) of a Cartesian tangent vector at p.

    v has shape (..., 3); the T-coefficient is vt - vx*y + vy*x.
    """
    v = np.asarray(v, float)
    a = v[..., 0]
    b = v[..., 1]
    c = v[..., 2] - a * np.asarray(p.y, float) + b * np.asarray(p.x, float)
    return np.stack(np.broadcast_arrays(a, b, c), axis=-1)


def frame_to_cartesian(p: Point, coeffs) -> np.ndarray:
    """Inverse of :func:`cartesian_to_frame`."""
    coeffs = np.asarray(coeffs, float)
    a = coeffs[..., 0]
    b = coeffs[..., 1]
    c = coeffs[..., 2]
    vt = a * np.asarray(p.y, float) - b * np.asarray(p.x, float) + c
    return np.stack(np.broadcast_arrays(a, b, vt), axis=-1)


# ---------------------------------------------------------------------------
# Operations on coefficient triples.

def j_c(v) -> np.ndarray:
    """J(a, b, c) = (-b, a, 0): 90-degree rotation of the horizontal part."""
    v = np.asarray(v, float)
    out = np.zeros_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def dot_c(u, v):
    return np.sum(np.asarray(u, float) * np.asarray(v, float), axis=-1)


def cross_c(u, v) -> np.ndarray:
    """Cross product of frame triples; X x Y = T for the chosen orientation.

    The components are written out in `np.cross`'s order, so the bits are
    the same, without its axis handling on the small arrays of RK4 stages.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _connection_table() -> np.ndarray:
    """C[i, j, :] = frame coefficients of D_{E_i} E_j for E in (X, Y, T)."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = -1.0  # D_X Y = -T
    c[0, 2, 1] = 1.0   # D_X T = Y
    c[1, 0, 2] = 1.0   # D_Y X = T
    c[1, 2, 0] = -1.0  # D_Y T = -X
    c[2, 0, 1] = 1.0   # D_T X = Y
    c[2, 1, 0] = -1.0  # D_T Y = -X
    return c


CONNECTION = _connection_table()


def _bracket_table() -> np.ndarray:
    """B[i, j, :] = frame coefficients of [E_i, E_j]; only [X, Y] = -2T is nonzero."""
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = -2.0
    b[1, 0, 2] = 2.0
    return b


BRACKET = _bracket_table()


def conn_c(u, v) -> np.ndarray:
    """Connection term sum_ij u_i v_j D_{E_i} E_j for constant coefficients."""
    return np.einsum("...i,...j,ijk->...k", np.asarray(u, float), np.asarray(v, float), CONNECTION)


def _curvature_table() -> np.ndarray:
    """R[i, j, k, :] = coefficients of R(E_i, E_j) E_k, precomputed once.

    Uses R(U, V) W = D_U D_V W - D_V D_U W - D_{[U,V]} W on the constant
    frame, where the derivative of a constant combination w is
    D_{E_i} (sum_m w_m E_m) = sum_m w_m C[i, m, :].
    """
    r = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                term1 = np.einsum("m,mn->n", CONNECTION[j, k], CONNECTION[i])
                term2 = np.einsum("m,mn->n", CONNECTION[i, k], CONNECTION[j])
                term3 = np.einsum("m,mn->n", BRACKET[i, j], CONNECTION[:, k, :])
                r[i, j, k] = term1 - term2 - term3
    return r


CURVATURE = _curvature_table()


def curvature_tensor(u, v, w) -> np.ndarray:
    """R(u, v)w by multilinear extension of the precomputed frame table.

    Inputs are frame coefficient triples at a shared base point.
    """
    return np.einsum(
        "...i,...j,...k,ijkn->...n",
        np.asarray(u, float), np.asarray(v, float), np.asarray(w, float), CURVATURE,
    )


def W_field(p: Point) -> np.ndarray:
    """Generator of the dilations: W = x X + y Y + 2t T, as frame coefficients."""
    return np.stack(np.broadcast_arrays(
        np.asarray(p.x, float), np.asarray(p.y, float), 2.0 * np.asarray(p.t, float)), axis=-1)


def divergence(field, p: Point):
    """Riemannian divergence of a vector field, by frame differencing.

    `field` maps a Point to frame coefficients (shape (..., 3)).  The
    directional derivatives E_i(u_i) use central differences of step H_FD
    along the Cartesian straight line through p in the direction of E_i.  The frame
    fields X, Y, T are divergence-free (sum_i <D_{E_i} E_j, E_i> = 0 in the
    connection table), so no connection term enters: div = sum_i E_i(u_i).
    """
    base = p.as_array()
    div = 0.0
    for i in range(3):
        step = H_FD * frame_to_cartesian(p, np.eye(3)[i])
        up = np.asarray(field(Point.from_array(base + step)), float)
        dn = np.asarray(field(Point.from_array(base - step)), float)
        div = div + (up[..., i] - dn[..., i]) / (2.0 * H_FD)
    return div
