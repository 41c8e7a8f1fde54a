import mpmath
import numpy as np
import pytest

import h1geo.curvature as crv
from h1geo.curvature import (
    _char_velocity,
    calibration_divergence,
    characteristic_deviation,
    graph_pde_mean_curvature,
    graph_pde_residual,
    locus_distance,
    mean_curvature_char,
    mesh_curvature,
    orthogonality_defect,
    trace_characteristic,
)
from h1geo.errors import NoSingularCurve, OnSingularLocus, SingularPoint
from h1geo.hcurves import (
    PlanarCurve,
    curve_from_samples,
    helix_curve,
    horizontal_lift,
    line_curve,
)
from h1geo.hgroup import Point, dot_c
from h1geo.surfaces import (
    BernsteinGraph,
    ImmersedPatch,
    SigmaLambdaPatch,
    SigmaZeroPatch,
    SingularCurveRef,
    SpherePatch,
    TOL_SINGULAR,
    VerticalCylinder,
    VerticalVariation,
    _BLOCK_VERTICES,
    _grid,
    build_surface,
    catalog,
    cylinder_S,
    helicoid_L,
    parse_g,
    plane_patch,
    sphere_graph,
    write_mesh,
)
from h1geo.verify import G_AFFINE, G_CUBIC, G_SQUARE

from oracles import (
    STENCIL_ROUNDOFF,
    STENCIL_STEP,
    fd_bundle,
    fd_second_partials,
    stencil_mean_curvature,
)

RNG = np.random.default_rng(1234)


def make_bernstein(kind):
    return BernsteinGraph(parse_g(G_SQUARE if kind == "quadratic" else G_AFFINE))


# ---------------------------------------------------------------------------
# mean curvature, characteristic form


def test_sphere_mean_curvature():
    sp = SpherePatch(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 50)
    s = RNG.uniform(0.4, np.pi - 0.4, 50)
    H = mean_curvature_char(sp, eps, s)
    assert np.max(np.abs(H - 1.0)) < 1e-5


def test_plane_mean_curvature_zero():
    pl = plane_patch()
    H = mean_curvature_char(pl, 0.9, 0.7)
    assert abs(H) < 1e-8


def test_sigma_lambda_mean_curvature():
    sl = SigmaLambdaPatch(line_curve(eps_min=-2, eps_max=2), 2.0, +1)
    eps = RNG.uniform(-1.5, 1.5, 20)
    sig = RNG.uniform(0.2, 0.8, 20)
    H = mean_curvature_char(sl, eps, sig)
    assert np.max(np.abs(H - 2.0)) < 1e-5


def test_sigma_lambda_both_sides_positive_H():
    for side in (+1, -1):
        sl = SigmaLambdaPatch(helix_curve(1.0, eps_min=-2, eps_max=2), 1.0, side)
        H = mean_curvature_char(sl, 0.2, 0.55)
        assert abs(H - 1.0) < 1e-5


def test_sigma_zero_minimal():
    sz = SigmaZeroPatch(helix_curve(1.0, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5))
    H = mean_curvature_char(sz, np.array([0.1, -0.6]), np.array([0.8, -0.9]))
    assert np.max(np.abs(H)) < 1e-6


def test_mean_curvature_constancy_across_catalog():
    cases = [
        SpherePatch(1.0),
        SigmaLambdaPatch(line_curve(eps_min=-2, eps_max=2), 1.0, +1),
        cylinder_S(1.0)[0],
    ]
    bounds = [(0.4, np.pi - 0.4), (0.15, 0.85), (-0.4, 0.4)]
    for patch, (lo, hi) in zip(cases, bounds):
        eps = RNG.uniform(patch.eps_lo + 0.2, patch.eps_hi - 0.2, 200)
        s = RNG.uniform(lo, hi, 200)
        H = mean_curvature_char(patch, eps, s)
        assert np.std(H) < 1e-4, patch.label


def test_orientation_flip_negates_H():
    sp = SpherePatch(1.0)
    H1 = mean_curvature_char(sp, 0.9, 1.4)
    H2 = mean_curvature_char(sp.flipped(), 0.9, 1.4)
    assert abs(H1 + H2) < 1e-10


def test_mean_curvature_dilation_law():
    # H(phi_s Sigma) = e^{-s} H(Sigma) at corresponding points
    sp = SpherePatch(1.0)
    s0 = 0.6
    H0 = mean_curvature_char(sp, 1.1, 1.3)
    H1 = mean_curvature_char(sp.dilated(s0), 1.1, 1.3)
    assert abs(H1 - np.exp(-s0) * H0) < 1e-5


# ---------------------------------------------------------------------------
# second partials, and H read from them


def _csv_lift():
    """The lift of a not-a-knot spline through 17 samples, and the
    arclengths of its knots, where its third derivative jumps."""
    u = np.linspace(0.0, 4.0, 17)
    curve = curve_from_samples(u, u + 0.3 * np.sin(1.7 * u), 0.5 * u * np.cos(1.3 * u))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    knots = [0.0]
    for a, b in zip(u[:-1], u[1:]):
        v = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        dx = 1.0 + 0.51 * np.cos(1.7 * v)
        dy = 0.5 * np.cos(1.3 * v) - 0.65 * v * np.sin(1.3 * v)
        knots.append(knots[-1] + 0.5 * (b - a) * np.sum(weights * np.hypot(dx, dy)))
    return curve, np.array(knots)


_SECOND_PARTIAL_CLASSES = {
    "sphere": lambda: SpherePatch(1.3),
    "sphere-sheet-lower": lambda: sphere_graph(0.7)[0],
    "sphere-sheet-upper": lambda: sphere_graph(0.7)[1],
    "cylinder-lower": lambda: cylinder_S(1.3)[0],
    "cylinder-upper-lam-1": lambda: cylinder_S(-1.0)[1],
    "bernstein-cubic": lambda: build_surface("bernstein", g="0.5 - y + 0.4*y^3"),
    "plane-tilted": lambda: plane_patch((0.3, -0.2, 1.0), 0.4),
    "vertical-plane": lambda: plane_patch((1.0, 0.5, 0.0), 0.3),
    "vertical-cylinder": lambda: VerticalCylinder(1.3),
    "sigma-lambda-helix": lambda: SigmaLambdaPatch(helix_curve(0.8, eps_min=-2, eps_max=2),
                                                   1.3, -1),
    "sigma-lambda-line": lambda: SigmaLambdaPatch(
        line_curve(0.3, Point(0.4, -0.2, 0.1), eps_min=-2, eps_max=2), 0.7, +1),
    "sigma-lambda-csv": lambda: SigmaLambdaPatch(_csv_lift()[0], 1.1, +1),
    "sigma-zero-helix": lambda: SigmaZeroPatch(helix_curve(0.8, eps_min=-1, eps_max=1),
                                               s_range=(-0.5, 1.5)),
    "sigma-zero-csv": lambda: SigmaZeroPatch(_csv_lift()[0], s_range=(-0.5, 1.5)),
    "helicoid-flipped": lambda: helicoid_L(1.0, 1.3, k_max=2).pieces[1],
}
_MOVES = {
    "base": lambda p: p,
    "flipped": lambda p: p.flipped(),
    "translated": lambda p: p.translated(Point(0.3, -0.7, 1.1)),
    "dilated": lambda p: p.dilated(0.4),
}


@pytest.mark.parametrize("move", sorted(_MOVES))
@pytest.mark.parametrize("name", sorted(_SECOND_PARTIAL_CLASSES))
def test_second_partials_match_differences_of_partials(name, move):
    # only the normal parts are fixed: a tangent error reaches neither H nor
    # the defect.  Points stay off the cylinder sheets' line y = 0, where
    # u_yyy jumps, and off the lift's knots, where F_eps jumps along gamma'
    patch = _MOVES[move](_SECOND_PARTIAL_CLASSES[name]())
    rng = np.random.default_rng(53)
    eps = patch.eps_lo + (patch.eps_hi - patch.eps_lo) * rng.uniform(0.1, 0.9, 12)
    s = patch.s_lo + (patch.s_hi - patch.s_lo) * rng.uniform(0.1, 0.9, 12)
    steps = (1e-3 * (patch.eps_hi - patch.eps_lo), 1e-3 * (patch.s_hi - patch.s_lo))
    if name.startswith("cylinder"):
        s = np.where(np.abs(s) < 0.05, s + 0.1, s)
    if name.endswith("csv"):
        knots = _csv_lift()[1]
        eps = 0.5 * (knots[:-1] + knots[1:])[rng.permutation(16)[:12]]
        steps = (1e-4, steps[1])
    normal = patch.normal_data(eps, s).normal
    for k, (got, want) in enumerate(zip(patch.second_partials(eps, s),
                                        fd_second_partials(patch, eps, s, steps))):
        gap = np.abs(dot_c(normal, got - want)) / (1.0 + np.linalg.norm(want, axis=-1))
        assert np.max(gap) < 1e-7, ("d_eps F_eps", "d_s F_eps", "d_s F_s")[k]


def test_varied_patches_state_no_second_partials():
    # p + tau u T would need u's second derivatives, which u does not give
    varied = VerticalVariation(SpherePatch(1.0), lambda e, s: (0.0 * e, 0.0 * e, 0.0 * e), 0.1)
    with pytest.raises(NotImplementedError, match="sphere.*varied states no second partials"):
        varied.second_partials(0.3, 1.2)
    with pytest.raises(NotImplementedError):
        mean_curvature_char(varied, 0.3, 1.2)


def _closed_form_cases():
    cases = []
    for lam in (0.5, 1.0, 2.0):
        sp = SpherePatch(lam)
        cases += [(f"sphere-{lam:g}", sp, lam, (0.1, np.pi / lam - 0.1)),
                  (f"sphere-{lam:g}-moved", sp.dilated(0.3).translated(Point(0.7, -0.4, 1.1))
                   .flipped(), -lam * np.exp(-0.3), (0.1, np.pi / lam - 0.1))]
        for side in (1, -1):
            for label, curve in (("line", line_curve(eps_min=-2, eps_max=2)),
                                 ("helix", helix_curve(0.7, eps_min=-2, eps_max=2)),
                                 ("csv", _csv_lift()[0])):
                cases.append((f"sigma-lambda-{label}-{lam:g}-{side:+d}",
                              SigmaLambdaPatch(curve, lam, side), lam, (0.05, 0.95)))
    for piece in helicoid_L(1.0, 1.0, k_max=2).pieces:
        cases.append((piece.label, piece, 1.0, (0.05, 0.95)))
    cases.append(("sigma-zero-helix",
                  SigmaZeroPatch(helix_curve(1.0, eps_min=-2, eps_max=2), s_range=(-1.5, 1.5)),
                  0.0, (0.3, 1.2)))
    for r in (1.0, 1.2):
        cases.append((f"vertical-cylinder-{r:g}", VerticalCylinder(r), -1.0 / (2 * r), (-1.9, 1.9)))
    return cases


@pytest.mark.parametrize("name, patch, expected, s_range", _closed_form_cases(),
                         ids=[c[0] for c in _closed_form_cases()])
def test_mean_curvature_is_within_1e_14_of_its_closed_form(name, patch, expected, s_range):
    rng = np.random.default_rng(59)
    eps = rng.uniform(patch.eps_lo, patch.eps_hi, 200)
    s = rng.uniform(*s_range, 200)
    if name.startswith("sigma-zero"):
        s *= rng.choice([-1.0, 1.0], 200)
    assert np.max(np.abs(mean_curvature_char(patch, eps, s) - expected)) <= 1e-14


@pytest.mark.parametrize("name", sorted(catalog()))
def test_mean_curvature_agrees_with_the_stencil_oracle(name):
    # away from the singular set, where the stencil's ends stay regular
    patch = build_surface(name)
    frac = np.array([0.12, 0.31, 0.62, 0.83])
    eps, s = np.meshgrid(patch.eps_lo + frac * (patch.eps_hi - patch.eps_lo),
                         patch.s_lo + frac * (patch.s_hi - patch.s_lo), indexing="ij")
    keep = patch.normal_data(eps, s).nh_norm > 0.05
    assert keep.sum() >= 12
    gap = mean_curvature_char(patch, eps[keep], s[keep]) - stencil_mean_curvature(
        patch, eps[keep], s[keep])
    assert np.max(np.abs(gap)) <= 100 * STENCIL_ROUNDOFF * np.finfo(float).eps / STENCIL_STEP


def test_mean_curvature_rejects_singular_point():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    with pytest.raises(SingularPoint):
        mean_curvature_char(sl, 0.0, 1e-9)


def test_vertical_cylinder_constant_H():
    vc = VerticalCylinder(1.0)
    eps = RNG.uniform(0, 2 * np.pi, 30)
    s = RNG.uniform(-1, 1, 30)
    H = mean_curvature_char(vc, eps, s)
    assert np.std(H) < 1e-6


def test_helicoid_pieces_H():
    fam = helicoid_L(1.0, 1.0, k_max=2)
    for piece in fam.pieces:
        H = mean_curvature_char(piece, 0.2, 0.5)
        assert abs(H - 1.0) < 1e-5, piece.label


# ---------------------------------------------------------------------------
# graph PDE


def test_pde_plane_exact_zero():
    pl = plane_patch()
    assert graph_pde_residual(pl, 0.5, 0.8, 0.0) == 0.0


def test_pde_bernstein_exact_zero():
    bg = make_bernstein("affine")
    x = RNG.uniform(-2, 2, 20)
    y = RNG.uniform(-2, 2, 20)
    x = np.where(np.abs(2 * x + 3.0) < 0.2, x + 0.5, x)
    assert np.max(np.abs(graph_pde_residual(bg, x, y, 0.0))) == 0.0
    # every graph t = xy + g(y) is minimal off the singular curve
    bq = make_bernstein("quadratic")
    xq = np.where(np.abs(2 * x + 2 * y) < 0.2, x + 0.5, x)
    assert np.max(np.abs(graph_pde_residual(bq, xq, y, 0.0))) == 0.0


def test_pde_sphere_sheets_analytic():
    lam = 1.0
    lower, upper = sphere_graph(lam)
    phi = RNG.uniform(0, 2 * np.pi, 100)
    rho = RNG.uniform(0.05, 0.95 / lam, 100)
    x, y = rho * np.cos(phi), rho * np.sin(phi)
    # H in the displayed equation refers to the downward normal: the inner
    # normal is downward on the upper sheet (+lam) and upward on the lower
    # sheet (so -lam appears there)
    assert np.max(np.abs(graph_pde_residual(upper, x, y, lam))) < 1e-6
    assert np.max(np.abs(graph_pde_residual(lower, x, y, -lam))) < 1e-6


def test_pde_cylinder_sheets():
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = RNG.uniform(-1, 1, 60)
    y = RNG.uniform(0.05, 0.45, 60) * RNG.choice([-1, 1], 60)
    assert np.max(np.abs(graph_pde_residual(lower, x, y, -lam))) < 1e-6
    assert np.max(np.abs(graph_pde_residual(upper, x, y, lam))) < 1e-6


def test_pde_rejects_singular_graph_point():
    bg = make_bernstein("quadratic")
    with pytest.raises(SingularPoint):
        graph_pde_residual(bg, -0.5, 0.5, 0.0)  # on 2x + 2y = 0


# how far the test points lie from a graph's singular set toward its edges:
# at least 10% of the way in from both; the fourth-order differences of a
# cylinder sheet are off by 9e-8 relative at 90% of the way to the rim
_FRACTIONS = np.array([0.1, 0.5, 0.8])


def _bernstein_points(bg):
    """Points `_FRACTIONS` of the way from the singular curve x = -g'(y)/2
    to each side of the rectangle, at y 10% in from its ends."""
    y = np.linspace(0.8 * bg.s_lo, 0.8 * bg.s_hi, 5)
    c = -0.5 * np.asarray(bg.jet(y)[1])
    a = _FRACTIONS[:, None]
    return (np.concatenate([c + a * (bg.eps_lo - c), c + a * (bg.eps_hi - c)]).ravel(),
            np.tile(y, 6))


def _plane_points(pl):
    """A grid 10% in from the edges, without the points within a tenth of
    the width of the cone point."""
    x, y = (v.ravel() for v in np.meshgrid(np.linspace(-1.6, 1.6, 5), np.linspace(-1.6, 1.6, 5)))
    keep = np.hypot(x - pl.cone[0], y - pl.cone[1]) >= 0.4
    return x[keep], y[keep]


def _strip_points(sheet):
    """y `_FRACTIONS` of the way from the singular line y = 0 to each strip
    edge, x 10% in from the ends."""
    x, y = np.meshgrid(np.linspace(0.8 * sheet.eps_lo, 0.8 * sheet.eps_hi, 3),
                       sheet.s_hi * np.concatenate([-_FRACTIONS, _FRACTIONS]))
    return x.ravel(), y.ravel()


def _disc_points(sheet):
    """rho `_FRACTIONS` of the way from the singular centre to the vertical
    rim rho = 1/lam, at five angles."""
    rho, phi = np.meshgrid(_FRACTIONS / sheet.lam,
                           0.3 + np.linspace(0.0, 2 * np.pi, 5, endpoint=False))
    return (rho * np.cos(phi)).ravel(), (rho * np.sin(phi)).ravel()


_GRAPHS = {
    "bernstein-y^2": (lambda: make_bernstein("quadratic"), _bernstein_points),
    # g = 0.5 - y + y^3 / 3, its last coefficient the double nearest 1/3
    "bernstein-cubic": (lambda: BernsteinGraph(parse_g("0.5 - y + 0.3333333333333333*y^3")),
                        _bernstein_points),
    "plane-tilted": (lambda: plane_patch((0.3, -0.2, 1.0), 0.5), _plane_points),
    **{f"cylinder-{which}-lam{lam:g}": (lambda lam=lam, k=k: cylinder_S(lam)[k], _strip_points)
       for lam in (1.0, 0.6, -1.0) for k, which in enumerate(("lower", "upper"))},
    **{f"sphere-{which}-lam{lam:g}": (lambda lam=lam, k=k: sphere_graph(lam)[k], _disc_points)
       for lam in (1.0, 0.5) for k, which in enumerate(("lower", "upper"))},
}


@pytest.mark.parametrize("name", sorted(_GRAPHS))
def test_graph_derivatives_match_differences_of_u(name):
    # each graph's own u_x, u_y and hessian against fourth-order differences
    # of its own u, away from its singular set and edges
    make, points = _GRAPHS[name]
    graph = make()
    x, y = points(graph)
    _, ux, uy = graph.height(x, y)
    analytic = [ux, uy, *graph.hessian(x, y)]
    fd = fd_bundle(lambda xx, yy: graph.height(xx, yy)[0])
    for k, (value, d) in enumerate(zip(analytic, fd[1:])):
        value = np.broadcast_to(value, x.shape)
        gap = np.abs(value - d(x, y)) / np.maximum(1.0, np.abs(value))
        assert np.max(gap) < 1e-7, ("u_x", "u_y", "u_xx", "u_xy", "u_yy")[k]


def test_method_agreement_char_vs_pde():
    # characteristic-direction H vs the pointwise PDE H on shared regular
    # points of every catalog graph surface; the PDE H refers to the
    # downward normal, so the sign flips on upward-oriented patches
    lam = 1.0
    lower, upper = cylinder_S(lam)
    x = RNG.uniform(-0.5, 0.5, 10)
    y = RNG.uniform(0.1, 0.4, 10)
    H_char = mean_curvature_char(lower, x, y)
    H_pde = graph_pde_mean_curvature(lower, x, y)
    assert np.max(np.abs(H_char + H_pde)) < 1e-4  # lower sheet points up
    H_char_up = mean_curvature_char(upper, x, y)
    H_pde_up = graph_pde_mean_curvature(upper, x, y)
    assert np.max(np.abs(H_char_up - H_pde_up)) < 1e-4

    lo_sheet, up_sheet = sphere_graph(lam)
    phi = RNG.uniform(0, 2 * np.pi, 8)
    rho = RNG.uniform(0.2, 0.8, 8)
    xs, ys = rho * np.cos(phi), rho * np.sin(phi)
    # the sheet patches are (phi, rho)-parameterized; height and hessian are (x, y)
    assert np.max(np.abs(mean_curvature_char(lo_sheet, phi, rho)
                         + graph_pde_mean_curvature(lo_sheet, xs, ys))) < 1e-4
    assert np.max(np.abs(mean_curvature_char(up_sheet, phi, rho)
                         - graph_pde_mean_curvature(up_sheet, xs, ys))) < 1e-4

    bg = make_bernstein("quadratic")
    xq = RNG.uniform(0.5, 2.0, 8)
    yq = RNG.uniform(-1.0, 1.0, 8)
    assert np.max(np.abs(mean_curvature_char(bg, xq, yq)
                         - graph_pde_mean_curvature(bg, xq, yq))) < 1e-4


def _graph_sheets():
    cases = []
    for lam in (1.0, 0.6, -1.0):
        cases += [(f"cylinder-{which}-lam{lam:g}", sheet)
                  for which, sheet in zip(("lower", "upper"), cylinder_S(lam))]
    for lam in (1.0, 0.5):
        cases += [(f"sphere-{which}-lam{lam:g}", sheet)
                  for which, sheet in zip(("lower", "upper"), sphere_graph(lam))]
    return cases


@pytest.mark.parametrize("name, sheet", _graph_sheets(), ids=[n for n, _ in _graph_sheets()])
def test_mean_curvature_matches_the_graph_equation_on_curved_sheets(name, sheet):
    # the graph equation's H from each sheet's own hessian; seeds stay 0.1
    # from the singular set (y = 0, the sphere's centre) and the edges.  The
    # PDE H refers to the downward normal, and the lower sheets point up.
    rng = np.random.default_rng(17)
    a = rng.uniform(sheet.eps_lo + 0.1, sheet.eps_hi - 0.1, 30)
    if name.startswith("cylinder"):
        b = rng.choice([-1.0, 1.0], 30) * rng.uniform(0.1, sheet.s_hi - 0.1, 30)
    else:
        b = rng.uniform(sheet.s_lo + 0.1, sheet.s_hi - 0.1, 30)
    p = sheet.point(a, b)
    sign = -1.0 if "lower" in name else 1.0
    gap = mean_curvature_char(sheet, a, b) - sign * graph_pde_mean_curvature(sheet, p.x, p.y)
    assert np.max(np.abs(gap)) < 5e-11


# on the upper cylinder sheet at x = 0.3
CLEAR_Y = (2e-4, 5e-4, 1e-3)


def test_mean_curvature_next_to_the_singular_line_is_accurate():
    H = mean_curvature_char(cylinder_S(1.0)[1], 0.3, np.array(CLEAR_Y))
    assert np.max(np.abs(H - 1.0)) < 1e-9


@pytest.mark.parametrize("which", [0, 1], ids=["lower", "upper"])
def test_mean_curvature_on_the_cylinder_sheets_down_to_a_thousandth_of_the_half_width(which):
    # the height's own rounding, which the graph equation's H carries too,
    # is 1.7e-11 at y = 0.001 of the half-width; a difference stencil read
    # 2.8e-10 there
    sheet = cylinder_S(1.0)[which]
    frac = np.array([1e-3, 2e-3, 5e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    y = np.concatenate([-frac, frac]) * sheet.s_hi
    x = np.array([-0.3, 0.0, 0.3])[:, None]
    assert np.max(np.abs(mean_curvature_char(sheet, x, y) - 1.0)) < 2e-11


# ---------------------------------------------------------------------------
# characteristic traces / ruling


def test_trace_tangent_solve_is_consistent():
    # the parameter velocity reproduces Z in the tangent plane
    sp = SpherePatch(1.0)
    from h1geo.curvature import _char_velocity

    de, ds = _char_velocity(sp, 0.8, 1.2)
    fe, fs, _ = sp.partials(0.8, 1.2)
    nd = sp.normal_data(0.8, 1.2)
    recon = de * fe + ds * fs
    assert np.max(np.abs(recon - nd.z)) < 1e-12


def test_char_velocity_evaluates_the_patch_once():
    class CountingSphere(SpherePatch):
        calls = 0

        def partials(self, eps, s):
            self.calls += 1
            return super().partials(eps, s)

    sp = CountingSphere(1.0)
    _char_velocity(sp, np.array([0.8, 1.1]), np.array([1.2, 0.9]))
    assert sp.calls == 1


@pytest.mark.parametrize("patch, seeds", [
    (SpherePatch(1.0), [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
    (SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, -1), [(0.0, 0.5), (0.7, 0.6)]),
    (helicoid_L(1.0, 1.0, k_max=2).pieces[1], [(0.0, 0.5), (0.4, 0.55)]),
], ids=["sphere", "sigma-lambda-side-1", "helicoid-flipped"])
def test_characteristic_deviation_array_seeds_match_scalar_calls(patch, seeds):
    e0, s0 = np.array(seeds).T
    together = characteristic_deviation(patch, e0, s0, arclen=1.0, n_steps=20)
    one_by_one = max(characteristic_deviation(patch, e, s, arclen=1.0, n_steps=20)
                     for e, s in seeds)
    assert together == one_by_one


@pytest.mark.parametrize("patch, seeds", [
    (SpherePatch(1.0), [(0.3, 1.2), (2.0, 1.8), (4.0, 2.1)]),
    (SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, -1), [(0.0, 0.5), (0.7, 0.6)]),
    (helicoid_L(1.0, 1.0, k_max=2).pieces[1], [(0.0, 0.5), (0.4, 0.55)]),
], ids=["sphere", "sigma-lambda-side-1", "helicoid-flipped"])
def test_trace_with_signed_arclen_array_stacks_the_scalar_traces(patch, seeds):
    e0, s0 = np.array(seeds).T
    ep, spath = trace_characteristic(patch, e0, s0, np.array([[0.3], [-0.3]]), n_steps=12)
    assert ep.shape == spath.shape == (13, 2, len(seeds))
    for k, length in enumerate((0.3, -0.3)):
        e1, s1 = trace_characteristic(patch, e0, s0, length, n_steps=12)
        assert np.array_equal(ep[:, k], e1)
        assert np.array_equal(spath[:, k], s1)


def test_mean_curvature_evaluates_once_and_only_the_ruling_traces(monkeypatch):
    # H reads one normal_data and one second_partials call at the points;
    # only characteristic_deviation traces, both ways in one call
    shapes, traces = [], []

    class CountingSphere(SpherePatch):
        def normal_data(self, eps, s):
            shapes.append(np.broadcast(eps, s).shape)
            return super().normal_data(eps, s)

        def second_partials(self, eps, s):
            shapes.append(("second", np.broadcast(eps, s).shape))
            return super().second_partials(eps, s)

    def counting(*args, **kwargs):
        traces.append(args[3])
        return trace_characteristic(*args, **kwargs)

    monkeypatch.setattr(crv, "trace_characteristic", counting)
    sp = CountingSphere(1.0)
    mean_curvature_char(sp, np.array([0.3, 1.1, 2.0]), np.array([1.2, 0.8, 1.9]))
    assert shapes == [(3,), ("second", (3,))]
    assert traces == []
    characteristic_deviation(sp, np.array([0.3, 2.0]), np.array([1.2, 1.8]), n_steps=20)
    assert len(traces) == 1


@pytest.mark.parametrize("n_steps", [0, 1, 3, 41, -2])
def test_characteristic_deviation_rejects_steps_that_do_not_split_evenly(n_steps):
    # n_steps // 2 steps each way: 0 or 1 would trace nothing and read 0.0
    # whatever the curvature, and an odd count would drop a step
    with pytest.raises(ValueError, match="even and at least 2"):
        characteristic_deviation(SpherePatch(1.0), 0.3, 1.2, lam=5.0, n_steps=n_steps)


def test_characteristic_deviation_at_two_steps_sees_a_wrong_curvature():
    assert characteristic_deviation(SpherePatch(1.0), 0.3, 1.2, lam=5.0, n_steps=2) > 1e-2


@pytest.mark.parametrize("n_steps", [0, -1])
def test_trace_rejects_fewer_than_one_step(n_steps):
    with pytest.raises(ValueError, match="at least 1"):
        trace_characteristic(SpherePatch(1.0), 0.3, 1.2, 0.2, n_steps=n_steps)


def test_trace_moves_along_geodesic_parameter():
    # on the sigma patch Z = +gamma', so the trace advances the geometric s
    # linearly with arclength while eps stays fixed
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    ep, spath = trace_characteristic(sl, 0.2, 0.5, 0.3, n_steps=30)
    scut = float(sl.s_cut(0.2))
    assert np.max(np.abs(ep - 0.2)) < 1e-12
    expect = 0.5 + np.linspace(0, 0.3, 31) / scut
    assert np.max(np.abs(spath - expect)) < 1e-10


@pytest.mark.parametrize("case", ["sphere", "sigma", "cylinder", "plane", "bernstein"])
def test_ruling_property(case):
    # the cylinder runs on its orthogonal-geodesic chart (the graph chart
    # folds at the strip boundary mid-arc); the two representations are
    # verified to agree elsewhere.  Every chart here moves Z at constant
    # parameter velocity, where RK4 is exact, so 4 steps suffice.
    if case == "sphere":
        patch, seeds = SpherePatch(1.0), [(0.3, 1.2), (2.0, 1.8)]
    elif case == "sigma":
        patch = SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, +1)
        seeds = [(0.0, 0.5), (-1.0, 0.4)]
    elif case == "cylinder":
        patch = SigmaLambdaPatch(line_curve(eps_min=-3, eps_max=3), 1.0, -1)
        seeds = [(0.0, 0.5), (0.5, 0.6)]
    elif case == "plane":
        patch, seeds = plane_patch(rect=(-3, 3, -3, 3)), [(1.0, 1.0), (-1.5, 0.7)]
    else:
        patch, seeds = make_bernstein("affine"), [(0.5, 0.5), (1.0, -0.5)]
    for eps0, s0 in seeds:
        dev = characteristic_deviation(patch, eps0, s0, arclen=1.0, n_steps=4)
        assert dev < 1e-5, (case, dev)


# ---------------------------------------------------------------------------
# orthogonality defect


def test_defect_sigma_lambda_boundaries():
    for curve in (line_curve(eps_min=-2, eps_max=2), helix_curve(1.0, eps_min=-2, eps_max=2)):
        sl = SigmaLambdaPatch(curve, 1.0, +1)
        for idx in (0, 1):
            for eps in (-0.5, 0.0, 0.7):
                assert abs(orthogonality_defect(sl, idx, eps)) < 1e-6


def test_defect_bernstein_quadratic():
    bg = make_bernstein("quadratic")
    for y in (-0.8, 0.0, 0.5):
        d = orthogonality_defect(bg, 0, y)
        assert abs(d - (-1.0)) < 1e-6  # -g''/2 = -1


def test_defect_bernstein_affine():
    bg = make_bernstein("affine")
    for y in (-0.8, 0.0, 0.5):
        assert abs(orthogonality_defect(bg, 0, y)) < 1e-9


class _ShearedBernstein(ImmersedPatch):
    """t = xy + y^2 in the parameters x = eps + s, y = s.  Its singular curve
    x = -y is eps = -2s, oblique to both parameter axes, so its tangent
    needs both partials: -2 F_eps + F_s = -F_x + F_y."""

    def __init__(self):
        super().__init__(-3.0, 3.0, -3.0, 3.0)
        self._graph = make_bernstein("quadratic")
        self.label = "sheared-bernstein"

    def partials(self, eps, s):
        fx, fy, p = self._graph.partials(np.asarray(eps, float) + s, s)
        return fx, fx + fy, p

    def second_partials(self, eps, s):
        # d_x F_y = d_y F_x + 2T on a graph
        xx, xy, yy = self._graph.second_partials(np.asarray(eps, float) + s, s)
        return xx, xx + xy, xx + 2.0 * xy + np.array([0.0, 0.0, 2.0]) + yy

    def singular_curves(self):
        def at(y):
            y = np.asarray(y, float)
            return -2.0 * y, y

        return [SingularCurveRef(at, lambda y: (-2.0, 1.0), (1.0, 0.0))]


def test_defect_tangent_takes_both_partials():
    # the same surface and curve as t = xy + y^2, so the same -g''/2
    y = np.array([-0.8, 0.0, 0.5])
    d = orthogonality_defect(_ShearedBernstein(), 0, y)
    assert np.max(np.abs(d - (-1.0))) < 1e-6


class _AlongTheCurve(BernsteinGraph):
    """t = xy with the inward direction of its singular curve x = 0 along
    the curve itself, where N_H stays 0: no limit direction there."""

    def singular_curves(self):
        return [SingularCurveRef(lambda y: (0.0 * np.asarray(y), np.asarray(y, float)),
                                 lambda y: (0.0, 1.0), (0.0, 1.0), "along")]


def test_defect_refuses_where_the_limit_direction_vanishes():
    with pytest.raises(SingularPoint, match="no limit of the characteristic direction at along "
                                            "of bernstein, parameter -0.2"):
        orthogonality_defect(_AlongTheCurve(parse_g("0")), 0, np.array([-0.2, 0.5]))


def _ellipse_curve():
    """The lift of the ellipse (cos u, 0.6 sin u), u in [0.3, 2.8], from
    closed-form derivatives in u."""
    def part(k):
        def f(u):
            u = np.asarray(u, float) + 0.5 * np.pi * k
            return np.cos(u), 0.6 * np.sin(u)
        return f

    return horizontal_lift(PlanarCurve(*map(part, range(4)), 0.3, 2.8), label="ellipse")


def _ellipse_h(u):
    """(h, h') of the ellipse at the parameter u, by mpmath: h the planar
    curvature and h' its arclength rate."""
    def h(v):
        return 0.6 / (mpmath.sin(v) ** 2 + 0.36 * mpmath.cos(v) ** 2) ** 1.5

    speed = mpmath.sqrt(mpmath.sin(u) ** 2 + 0.36 * mpmath.cos(u) ** 2)
    return h(u), mpmath.diff(h, u) / speed


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_far_curve_defect_is_the_cut_time_rate(lam, side):
    # over a curve whose curvature varies the far curve sigma = 1 fails
    # orthogonality by s_cut'(eps) = -2 side h' / (4 lam^2 + h^2); the base
    # curve meets its characteristics at right angles
    curve = _ellipse_curve()
    eps = np.linspace(curve.eps_min, curve.eps_max, 11)[1:-1]
    p = curve.jet(eps)[0]
    expected = []
    with mpmath.workdps(30):
        for u in np.arctan2(np.asarray(p.y) / 0.6, np.asarray(p.x)):
            h, hdot = _ellipse_h(mpmath.mpf(float(u)))
            expected.append(float(-2 * side * hdot / (4 * lam**2 + h**2)))
    sl = SigmaLambdaPatch(curve, lam, side)
    assert np.max(np.abs(orthogonality_defect(sl, 1, eps) / expected - 1.0)) < 1e-12
    assert np.max(np.abs(orthogonality_defect(sl, 0, eps))) < 1e-14


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_helix_defect_vanishes_on_both_curves(lam, side):
    sl = SigmaLambdaPatch(helix_curve(0.7, eps_min=-2, eps_max=2), lam, side)
    eps = np.linspace(-1.5, 1.5, 9)
    for idx in (0, 1):
        assert np.max(np.abs(orthogonality_defect(sl, idx, eps))) <= 1e-14


def test_defect_requires_singular_curve():
    vp = plane_patch((0.0, 1.0, 0.0), 0.0)
    with pytest.raises(NoSingularCurve):
        orthogonality_defect(vp, 0, 0.0)


# ---------------------------------------------------------------------------
# calibration divergence


def _calibration_gap(graph, x, y, t):
    """max |div X - 2 H| at the probes, X the calibrating field of `graph`
    and H its graph equation's (downward-normal) mean curvature, a closed
    form in its `hessian`: div X = -2H of the upward normal."""
    div = calibration_divergence(graph, Point(x, y, t))
    return np.max(np.abs(div - 2.0 * graph_pde_mean_curvature(graph, x, y)))


def _off_locus(graph, pts):
    """The rows of pts (x, y, t) at least 0.05 from the graph's locus."""
    return pts[locus_distance(graph, Point(pts[:, 0], pts[:, 1], pts[:, 2])) > 0.05].T


def test_calibration_plane_families():
    for normal in ((0.0, 0.0, 1.0), (-0.7, 0.4, 1.0)):     # t = 0 and t = 0.7x - 0.4y
        plane = plane_patch(normal)
        assert _calibration_gap(plane, *_off_locus(plane, RNG.uniform(-2, 2, size=(100, 3)))) < 1e-6


def test_calibration_stationary_bernstein_families():
    for a in (0.0, 2.0):
        graph = BernsteinGraph(parse_g(f"{a}*y"))
        assert _calibration_gap(graph, *_off_locus(graph, RNG.uniform(-2, 2, size=(100, 3)))) < 1e-6


def test_calibration_stationary_family_clean_even_near_locus():
    # the jump of nu_H across the locus is invisible to the divergence when
    # the characteristic lines meet the singular curve orthogonally
    q = Point(2e-6, 0.7, 0.1)
    assert abs(calibration_divergence(BernsteinGraph(parse_g("0")), q)) < 1e-6


def test_calibration_cubic_control_detects_nonstationarity():
    cubic = BernsteinGraph(parse_g(G_CUBIC))   # t = xy + y^3, not area-stationary
    # probe a short segment straddling the locus 2x + 3y^2 = 0 at y = 0.7
    y0 = 0.7
    x0 = -3.0 * y0**2 / 2.0
    probes = [Point(x0 + d, y0, 0.0) for d in (-2e-5, -2e-6, 2e-6, 2e-5)]
    vals = [abs(calibration_divergence(cubic, q)) for q in probes]
    assert max(vals) > 1e-2
    # far from the locus the field is still divergence-free
    far = calibration_divergence(cubic, Point(1.5, 0.7, 0.0))
    assert abs(far) < 1e-6


def test_calibration_rejects_on_locus():
    with pytest.raises(OnSingularLocus):
        calibration_divergence(BernsteinGraph(parse_g("0")), Point(0.0, 0.3, 0.0))


def _sphere_sheet_probes(sheet, rng):
    phi = rng.uniform(0, 2 * np.pi, 100)
    rho = rng.uniform(0.1, 0.9, 100) / sheet.lam
    return rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-2, 2, 100)


def _cylinder_sheet_probes(sheet, rng):
    y = rng.uniform(0.1, 0.9, 100) * sheet.s_hi * rng.choice([-1, 1], 100)   # s_hi: the half-strip
    return rng.uniform(sheet.eps_lo, sheet.eps_hi, 100), y, rng.uniform(-2, 2, 100)


@pytest.mark.parametrize("sheets, probes", [
    (sphere_graph(1.0), _sphere_sheet_probes),
    (sphere_graph(0.5), _sphere_sheet_probes),
    (cylinder_S(1.0), _cylinder_sheet_probes),
    (cylinder_S(-1.0), _cylinder_sheet_probes),
    (cylinder_S(0.6), _cylinder_sheet_probes),
], ids=["sphere-1", "sphere-0.5", "cylinder-1", "cylinder--1", "cylinder-0.6"])
def test_calibration_of_curved_cmc_graphs(sheets, probes):
    # the translates of a CMC sheet all have curvature H, so its calibrating
    # field has divergence -2H everywhere off the locus, not 0
    rng = np.random.default_rng(19)
    for sheet in sheets:
        assert _calibration_gap(sheet, *probes(sheet, rng)) < 1e-6


def _gram_velocity(nd):
    """(deps, ds) from the 2x2 Gram system of F_eps and F_s: the reference
    for `_z_velocity` where the partials are far from parallel."""
    fe, fs = nd.fe, nd.fs
    g11, g12, g22 = dot_c(fe, fe), dot_c(fe, fs), dot_c(fs, fs)
    b1, b2 = dot_c(nd.z, fe), dot_c(nd.z, fs)
    det = g11 * g22 - g12 * g12
    return (g22 * b1 - g12 * b2) / det, (g11 * b2 - g12 * b1) / det


@pytest.mark.parametrize("name", sorted(catalog()))
def test_z_velocity_agrees_with_the_gram_system_away_from_parallel_partials(name):
    patch = build_surface(name)
    eps = np.linspace(patch.eps_lo, patch.eps_hi, 41)[1:-1, None]
    s = np.linspace(patch.s_lo, patch.s_hi, 41)[None, 1:-1]
    nd = patch.normal_data(eps, s)
    fe, fs = nd.fe, nd.fs
    cos = np.abs(dot_c(fe, fs)) / np.sqrt(dot_c(fe, fe) * dot_c(fs, fs))
    keep = (nd.nh_norm >= TOL_SINGULAR) & (np.arccos(np.minimum(cos, 1.0)) > 0.1)
    assert keep.sum() > 100
    for got, want in zip(crv._z_velocity(nd), _gram_velocity(nd)):
        assert np.max(np.abs(got[keep] - want[keep])) <= 1e-12


# ---------------------------------------------------------------------------
# mesh curvature fill


def test_blocked_fill_matches_one_whole_grid_call(tmp_path):
    # the mesh writer fills H a block of rows at a time; its CSV column,
    # printed round-trip exact, holds the bits of one call over the grid
    patch = build_surface("helicoid-l")
    assert 256 > _BLOCK_VERTICES // 256    # block edges fall inside the grid
    write_mesh(patch, 256, 256, csv=tmp_path / "m.csv", h_est=mesh_curvature)
    h = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1, usecols=6).reshape(256, 256)
    want = mesh_curvature(patch, *_grid(patch, 256, 256))
    assert np.isnan(want).any() and np.isfinite(want).any()
    assert h.tobytes() == want.tobytes()


def test_fill_mesh_curvature():
    sl = SigmaLambdaPatch(line_curve(eps_min=-1, eps_max=1), 1.0, +1)
    h = mesh_curvature(sl, *_grid(sl, 8, 9))
    interior = h[:, 2:-2]
    assert np.all(np.isfinite(interior))
    assert np.max(np.abs(interior - 1.0)) < 1e-4
    assert np.all(np.isnan(h[:, 0])) and np.all(np.isnan(h[:, -1]))
