import numpy as np
import pytest

from h1geo.hgroup import (
    CONNECTION,
    CURVATURE,
    ORIGIN,
    Point,
    cartesian_to_frame,
    cross_c,
    curvature_tensor,
    dilate,
    divergence,
    dot_c,
    frame_to_cartesian,
    group_mul,
    j_c,
    W_field,
)

from oracles import group_inv

RNG = np.random.default_rng(20251)


def rand_points(n):
    arr = RNG.uniform(-3, 3, size=(n, 3))
    return Point.from_array(arr)


def test_group_mul_identity():
    p = Point(3.0, -1.0, 2.0)
    q = group_mul(ORIGIN, p)
    assert (q.x, q.y, q.t) == (3.0, -1.0, 2.0)


def test_group_mul_hand_value():
    # Im(z zbar') for z = 1, z' = i is -1
    q = group_mul(Point(1.0, 0.0, 0.0), Point(0.0, 1.0, 0.0))
    assert (q.x, q.y, q.t) == (1.0, 1.0, -1.0)


def test_group_inverse():
    p = Point(2.0, 3.0, 5.0)
    q = group_mul(p, group_inv(p))
    assert (q.x, q.y, q.t) == (0.0, 0.0, 0.0)
    assert group_inv(Point(0.0, 0.0, 0.0)) == Point(0.0, 0.0, 0.0)
    inv = group_inv(Point(1.0, 2.0, 3.0))
    assert (inv.x, inv.y, inv.t) == (-1.0, -2.0, -3.0)


def test_group_inv_involution():
    p = rand_points(50)
    pp = group_inv(group_inv(p))
    assert np.allclose(pp.as_array(), p.as_array(), rtol=0, atol=0)


def test_group_associativity():
    p, q, r = rand_points(20), rand_points(20), rand_points(20)
    lhs = group_mul(group_mul(p, q), r).as_array()
    rhs = group_mul(p, group_mul(q, r)).as_array()
    assert np.allclose(lhs, rhs, atol=1e-13)


def _frame(p):
    """Cartesian components of (X, Y, T) at p, one row each: (..., 3, 3)."""
    return np.stack([frame_to_cartesian(p, e) for e in np.eye(3)], axis=-2)


def test_frame_at_origin_and_generic():
    f0 = _frame(ORIGIN)
    assert np.array_equal(f0, np.eye(3))
    f = _frame(Point(2.0, -1.0, 7.0))
    assert np.array_equal(f[0], [1.0, 0.0, -1.0])
    assert np.array_equal(f[1], [0.0, 1.0, -2.0])
    assert np.array_equal(f[2], [0.0, 0.0, 1.0])


def test_frame_determinant_one():
    p = rand_points(100)
    det = np.linalg.det(_frame(p))
    assert np.allclose(det, 1.0, atol=0)


def test_frame_roundtrip():
    p = rand_points(200)
    v = RNG.normal(size=(200, 3))
    back = frame_to_cartesian(p, cartesian_to_frame(p, v))
    assert np.max(np.abs(back - v)) < 1e-14


def test_t_direction_is_frame_constant():
    p = rand_points(10)
    coeffs = cartesian_to_frame(p, np.broadcast_to([0.0, 0.0, 1.0], (10, 3)))
    assert np.allclose(coeffs, [0.0, 0.0, 1.0], atol=0)


def test_x_field_coefficients():
    p = rand_points(10)
    vx = np.stack([np.ones(10), np.zeros(10), np.asarray(p.y)], axis=-1)
    coeffs = cartesian_to_frame(p, vx)
    assert np.allclose(coeffs, [1.0, 0.0, 0.0], atol=0)


def test_j_operator():
    assert np.array_equal(j_c([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])   # J(X) = Y
    assert np.array_equal(j_c([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0])  # J(Y) = -X
    assert np.array_equal(j_c([0.0, 0.0, 5.0]), [0.0, 0.0, 0.0])   # J(T) = 0


def test_j_squared_is_minus_identity_on_horizontal():
    v = RNG.normal(size=(50, 3))
    v[:, 2] = 0.0
    assert np.allclose(j_c(j_c(v)), -v, atol=0)


def test_j_skew_adjoint():
    u = RNG.normal(size=(200, 3))
    v = RNG.normal(size=(200, 3))
    s = dot_c(j_c(u), v) + dot_c(u, j_c(v))
    assert np.max(np.abs(s)) < 1e-14


def test_connection_table_values():
    # D_X Y = -T, D_X T = Y, D_Y T = -X, D_Y X = T, D_T X = Y, D_T Y = -X
    assert np.array_equal(CONNECTION[0, 1], [0, 0, -1])
    assert np.array_equal(CONNECTION[0, 2], [0, 1, 0])
    assert np.array_equal(CONNECTION[1, 2], [-1, 0, 0])
    assert np.array_equal(CONNECTION[1, 0], [0, 0, 1])
    assert np.array_equal(CONNECTION[2, 0], [0, 1, 0])
    assert np.array_equal(CONNECTION[2, 1], [-1, 0, 0])
    assert np.array_equal(CONNECTION[0, 0], [0, 0, 0])
    assert np.array_equal(CONNECTION[1, 1], [0, 0, 0])
    assert np.array_equal(CONNECTION[2, 2], [0, 0, 0])


def test_metric_compatibility_on_table():
    # 0 = <D_Ei Ej, Ek> + <Ej, D_Ei Ek> for all frame index triples
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = CONNECTION[i, j, k] + CONNECTION[i, k, j]
                assert s == 0.0


def test_torsion_free_symmetry():
    assert np.array_equal(CONNECTION[0, 1] - CONNECTION[1, 0], [0, 0, -2])  # [X,Y] = -2T
    assert np.array_equal(CONNECTION[0, 2] - CONNECTION[2, 0], [0, 0, 0])
    assert np.array_equal(CONNECTION[1, 2] - CONNECTION[2, 1], [0, 0, 0])


def test_curvature_hand_expanded_values():
    # Oracle: expand R(U,V)W = D_U D_V W - D_V D_U W - D_[U,V] W by hand
    # with the table and [X,Y] = -2T.
    assert np.array_equal(CURVATURE[0, 1, 1], [-3, 0, 0])  # R(X,Y)Y = -3X
    assert np.array_equal(CURVATURE[0, 1, 0], [0, 3, 0])   # R(X,Y)X = 3Y
    assert np.array_equal(CURVATURE[0, 2, 2], [1, 0, 0])   # R(X,T)T = X
    assert np.array_equal(CURVATURE[0, 2, 0], [0, 0, -1])  # R(X,T)X = -T
    assert np.array_equal(CURVATURE[1, 2, 2], [0, 1, 0])   # R(Y,T)T = Y
    assert np.array_equal(CURVATURE[1, 2, 1], [0, 0, -1])  # R(Y,T)Y = -T
    assert np.array_equal(CURVATURE[0, 1, 2], [0, 0, 0])   # R(X,Y)T = 0
    assert np.array_equal(CURVATURE[0, 0, 1], [0, 0, 0])   # antisymmetry


def test_curvature_symmetries():
    basis = np.eye(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rij = curvature_tensor(basis[i], basis[j], basis[k])
                rji = curvature_tensor(basis[j], basis[i], basis[k])
                assert np.array_equal(rij, -rji)
                for m in range(3):
                    rm = curvature_tensor(basis[i], basis[j], basis[m])
                    assert rij[m] + rm[k] == pytest.approx(0.0, abs=0)


def test_sectional_curvatures():
    x, y, t = np.eye(3)
    assert dot_c(curvature_tensor(x, y, y), x) == -3.0
    assert dot_c(curvature_tensor(x, t, t), x) == 1.0
    assert dot_c(curvature_tensor(y, t, t), y) == 1.0


def test_dilate_identity_and_value():
    p = Point(1.0, 1.0, 1.0)
    d0 = dilate(0.0, p)
    assert (d0.x, d0.y, d0.t) == (1.0, 1.0, 1.0)
    d = dilate(np.log(2.0), p)
    assert np.allclose([d.x, d.y, d.t], [2.0, 2.0, 4.0], rtol=1e-15)


def test_dilate_group_homomorphism():
    p, q = rand_points(100), rand_points(100)
    s = 0.37
    lhs = dilate(s, group_mul(p, q)).as_array()
    rhs = group_mul(dilate(s, p), dilate(s, q)).as_array()
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dilate_inverse():
    p = rand_points(20)
    back = dilate(-0.8, dilate(0.8, p)).as_array()
    assert np.max(np.abs(back - p.as_array())) < 1e-13


def test_W_field_values():
    assert np.array_equal(W_field(ORIGIN), [0.0, 0.0, 0.0])
    assert np.array_equal(W_field(Point(1.0, 2.0, 3.0)), [1.0, 2.0, 6.0])
    # a batch gives the (..., 3) array; its own generator keeps the module RNG draws
    p = Point.from_array(np.random.default_rng(5).uniform(-3, 3, size=(40, 3)))
    assert np.array_equal(W_field(p), np.stack([p.x, p.y, 2.0 * p.t], axis=-1))


def test_W_divergence_is_four():
    div = divergence(W_field, rand_points(100))
    assert np.max(np.abs(div - 4.0)) < 1e-6


def test_frame_orthonormality_via_coefficients():
    # the frame Gram matrix is the identity by construction; cross-check that
    # frame coefficients of X, Y at random points are the canonical triples
    p = rand_points(30)
    f = _frame(p)
    for i in range(3):
        coeffs = cartesian_to_frame(p, f[..., i, :])
        expect = np.zeros(3)
        expect[i] = 1.0
        assert np.allclose(coeffs, expect, atol=0)


def test_cross_product_orientation():
    # X x Y = T in frame coefficients
    assert np.array_equal(cross_c([1, 0, 0], [0, 1, 0]), [0, 0, 1])


@pytest.mark.parametrize("shape_a, shape_b", [
    ((3,), (3,)),
    ((17, 3), (17, 3)),
    ((5, 1, 3), (1, 4, 3)),
    ((6, 3), (3,)),
])
def test_cross_c_is_bitwise_np_cross(shape_a, shape_b):
    a = RNG.standard_normal(shape_a) * 10.0 ** RNG.integers(-8, 8, shape_a)
    b = RNG.standard_normal(shape_b) * 10.0 ** RNG.integers(-8, 8, shape_b)
    got, want = cross_c(a, b), np.cross(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
