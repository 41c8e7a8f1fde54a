"""Write every output that a "same numbers" change must keep, into one directory.

    python tools/same_numbers.py OUTDIR

OUTDIR receives:

- `verify-all.json`, from `h1geo verify --suite all --out`;
- the outputs of the benchmark's `suites`, `catalog` and `curve` workloads at
  seeds 11 and 12, one subdirectory per workload and seed, with the
  operations taken from `bench/workloads.make_ops`: the reports (JSON) and
  meshes (OBJ and CSV) unchanged, and each `verify` operation (among them
  `--suite bernstein --g` with the seed's polynomial) given
  `--out <name>.json`, so its checks are kept at full precision;
- `extra/`: 40x40 `--with-h` meshes of five surfaces, whose per-vertex mean
  curvature reads each patch's second partials, and the reports of a Bernstein graph
  whose singular curve crosses the rectangle's sides, of a cylinder sheet
  at a second lambda, and of sigma-zero at an odd cap, which puts its
  singular curve s = 0 inside a cell unless it is a chart edge;
- `extra/`: 40x40 meshes whose values the text kernel does not convert
  itself: a vertical cylinder of radius 1e-6 (values below 1e-4, and
  zeros) and the plane t = 1e16 (values of 1e15 and more);
- `extra/`: a 61x61 mesh and the report of the Bernstein graph with
  g = (y+1)^100, whose power-basis expansion cancels: a change to how
  `--g` is evaluated shows in its heights;
- `extra/`: a 256x256 `--with-h` mesh of helicoid-l, which spans several
  blocks of rows of the mesh evaluation, the mean curvature fill and the
  export, and whose singular vertices put NaN into `h_est` next to the
  fill's block edges;
- `extra/`: a 37x301 OBJ-only mesh and a 37x301 CSV-only `--with-h` mesh
  of the sphere, whose 301 columns divide no block of rows: the mesh writer
  serves both files in one pass, so each single-file path has its own
  output;
- `extra/graph-pde.txt`: the `repr` of `graph_pde_residual` and
  `graph_pde_mean_curvature` of every graph family (Bernstein with a
  quadratic and a cubic g, a tilted plane, both cylinder sheets at
  lambda = 1, 0.6 and -1, both sphere sheets at lambda = 1 and 0.5) on a
  fixed 4x4 grid of regular points of each;
- `extra/calibration.txt`: the `repr` of `calibration_divergence` of each of
  those graphs at the points of the same grid on it, so a change to the
  calibrating field or to the frame differencing shows which graph moved;
- `extra/mean-curvature.txt`: the `repr` of `mean_curvature_char` on the
  same 4x4 grid of every catalog surface (at its default parameters) and of
  every graph above, so a change to H or to a patch's second partials shows
  which H moved;
- `extra/normal-data.txt`: the `repr` of `normal_data`'s |N_H| (`nh_norm`)
  and characteristic field `z` on the same 4x4 grid of every catalog
  surface, so a change to how the normal bundle is formed shows which
  surface moved;
- `extra/ruling.txt`: the `repr` of `characteristic_deviation` for every
  case of both ruling checks (`verify.ruling_cases`), at the steps and
  arclength the curvature suite pins, one line per case, so a change to the
  traces or the partials shows which case moved and not only the maximum;
- `extra/suite-cases.txt`: the `repr` of every per-case value behind the
  maxima of the jacobi and bernstein suites, one line per case: the std of
  each geodesic of `conserved-std`, the largest |value| or residual of each
  geodesic of `conserved-orthogonal`, `jacobi-orthogonal` and
  `jacobi-tangent`, and each defect and divergence of the bernstein suite.
  They are recorded from the library calls the suites make, whether a call
  takes one case or a batch of them (cases along the first axes, samples
  along the last), so the file reads the same for both;
- `extra/curves.txt`: the `repr` of the `jet` of three horizontal curves (a
  line off the origin, a shifted and raised helix, and the lift of the
  curve workload's seed-11 CSV samples) on 9 equally spaced eps, and of
  `s_cut`, its rate (from `_cut`) and the base and angle of
  `generating_geodesic` of the sigma-lambda patch over each, on both sides,
  at the same eps;
- `extra/defects.txt`: the `repr` of `orthogonality_defect` on both singular
  curves of the sigma-lambda patches over those three curves (lambda = 0.5,
  1 and 2, both sides, at the same 9 eps), and on the singular curve of the
  Bernstein graphs with g = y^2, a cubic and (y+1)^100 at 9 y in [-1, 1];
  a defect that raises is written as its error;
- for every operation, `<name>.stdout`: its exit code, then its standard
  output without the `wrote PATH` lines (those name OUTDIR); a report's
  JSON is there, because `report` without `--out` prints it.

Run it in two checkouts (the script imports the `src/` and `bench/` next to
it) and compare with `diff -r OUT_A OUT_B`: an empty diff means both produce
byte-identical numbers.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from h1geo import curvature as crv, geodesics as geo, surfaces as srf, verify  # noqa: E402
from h1geo.errors import GeometryError  # noqa: E402
from h1geo.cli import main  # noqa: E402
from h1geo.hcurves import curve_from_samples, helix_curve, line_curve  # noqa: E402
from h1geo.hgroup import Point  # noqa: E402
import workloads  # noqa: E402

SEEDS = (11, 12)
EXTRA_WITH_H = ("sigma-lambda", "helicoid-l", "sigma-zero", "bernstein", "cylinder-s")
EXTRA_MESHES = {"vertical-cylinder-r1e-6": (["--surface", "vertical-cylinder", "--r", "1e-6"],
                                            "40x40"),
                "plane-d1e16": (["--surface", "plane", "--d", "1e16"], "40x40"),
                "bernstein-pow100": (["--surface", "bernstein", "--g", "(y+1)^100"], "61x61"),
                "helicoid-l-256x256-h": (["--surface", "helicoid-l", "--with-h"], "256x256")}
EXTRA_SINGLE_FILE = {"sphere-37x301-obj-only": ["--out", ".obj"],
                     "sphere-37x301-h-csv-only": ["--with-h", "--csv", ".csv"]}
EXTRA_REPORTS = {"bernstein-3y2": ["--surface", "bernstein", "--g", "3*y^2"],
                 "bernstein-pow100": ["--surface", "bernstein", "--g", "(y+1)^100"],
                 "cylinder-s-lam0.6": ["--surface", "cylinder-s", "--lambda", "0.6"],
                 "sigma-zero-9x9": ["--surface", "sigma-zero", "--res", "9x9"]}


def _run(argv, outdir, name):
    """Run one CLI operation; keep its exit code and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    kept = [line for line in buf.getvalue().splitlines(keepends=True)
            if not line.startswith("wrote ")]
    with open(os.path.join(outdir, name + ".stdout"), "w") as fh:
        fh.write(f"exit {rc}\n" + "".join(kept))


def _file_name(key):
    return key.replace(":", "-").replace("[", "-").replace("]", "")


# fractions of each parameter range where the graph equation and the mean
# curvature are evaluated: none is 0.5 (a cylinder's singular line y = 0) or
# an end (a sphere sheet's centre and rim), and both raise at a singular
# point, so a file that gets written holds regular points only
GRID = np.array([0.12, 0.31, 0.62, 0.83])


def _grid(patch):
    """The (4, 4) parameter grid of GRID's fractions over the patch."""
    return np.meshgrid(patch.eps_lo + GRID * (patch.eps_hi - patch.eps_lo),
                       patch.s_lo + GRID * (patch.s_hi - patch.s_lo), indexing="ij")


def _graphs():
    """(name, graph, H): each graph with the downward-normal H of its
    graph equation (-lam on a sheet whose inner normal points up)."""
    cases = [("bernstein-y^2", srf.build_surface("bernstein", g="y^2"), 0.0),
             ("bernstein-cubic", srf.build_surface("bernstein", g="0.5 - y + 0.4*y^3"), 0.0),
             ("plane-tilted", srf.plane_patch((0.3, -0.2, 1.0), 0.5), 0.0)]
    for lam in (1.0, 0.6, -1.0):
        lower, upper = srf.cylinder_S(lam)
        cases += [(f"cylinder-lower-lam{lam:g}", lower, -lam),
                  (f"cylinder-upper-lam{lam:g}", upper, lam)]
    for lam in (1.0, 0.5):
        lower, upper = srf.sphere_graph(lam)
        cases += [(f"sphere-lower-lam{lam:g}", lower, -lam),
                  (f"sphere-upper-lam{lam:g}", upper, lam)]
    return cases


def write_graph_pde(path):
    lines = []
    for name, graph, H in _graphs():
        p = graph.point(*_grid(graph))
        x, y = np.asarray(p.x, float).ravel(), np.asarray(p.y, float).ravel()
        lines += [f"{name} residual {crv.graph_pde_residual(graph, x, y, H).tolist()!r}\n",
                  f"{name} H {crv.graph_pde_mean_curvature(graph, x, y).tolist()!r}\n"]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_calibration(path):
    lines = [f"{name} {crv.calibration_divergence(graph, graph.point(*_grid(graph))).tolist()!r}\n"
             for name, graph, _H in _graphs()]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_mean_curvature(path):
    cases = [(name, srf.build_surface(name)) for name in sorted(srf.catalog())]
    cases += [(name, graph) for name, graph, _H in _graphs()]
    lines = [f"{name} {crv.mean_curvature_char(patch, *_grid(patch)).tolist()!r}\n"
             for name, patch in cases]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_normal_data(path):
    lines = []
    for name in sorted(srf.catalog()):
        patch = srf.build_surface(name)
        nd = patch.normal_data(*_grid(patch))
        lines += [f"{name} nh_norm {nd.nh_norm.tolist()!r}\n", f"{name} z {nd.z.tolist()!r}\n"]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_ruling(path):
    lines = []
    for check, arclen, n_steps, _source, cases in verify.ruling_cases():
        for label, patch, seeds in cases:
            dev = crv.characteristic_deviation(patch, *np.array(seeds).T,
                                               arclen=arclen, n_steps=n_steps)
            lines.append(f"{check} {label} {dev!r}\n")
    with open(path, "w") as fh:
        fh.write("".join(lines))


def _per_row(reduce, out):
    """reduce(out, axis=-1) for each case of a call's result, with cases
    along the first axes and samples along the last.  The result is reduced
    as the call returned it, in its own memory order, as the suite does."""
    return np.ravel(reduce(np.asarray(out), axis=-1)).tolist()


def _conserved_cases(g, field, s, out):
    # conserved-std passes the tangent field and checks each geodesic's std;
    # conserved-orthogonal passes the family's coefficients and checks |value|
    if isinstance(field, geo.FieldAlongGeodesic):
        return [("conserved-std", v) for v in _per_row(np.std, out)]
    return [("conserved-orthogonal", v) for v in _per_row(np.max, np.abs(out))]


def _jacobi_cases(g, field, s, out):
    if field.dcoeffs is None:
        label = "jacobi-orthogonal"
    else:
        label = "jacobi-tangent[lam=0]" if np.all(np.asarray(g.lam) == 0) else "jacobi-tangent"
    return [(label, v) for v in _per_row(np.max, out)]


def _defect_cases(patch, index, param, out):
    return [(f"orthogonality-defect {patch.label} {index}", float(v))
            for v in np.ravel(out)]


def _divergence_cases(graph, q, out):
    return [(f"calibration-divergence {graph.label}", float(v)) for v in np.ravel(out)]


def write_suite_cases(path):
    lines = []

    def record(module, name, cases):
        """Patch module.name so that each call appends its cases' lines."""
        fn = getattr(module, name)

        def wrapped(*args):
            out = fn(*args)
            lines.extend(f"{label} {value!r}\n" for label, value in cases(*args, out))
            return out
        return mock.patch.object(module, name, wrapped)

    with contextlib.ExitStack() as stack:
        for patch in (record(verify, "conserved_quantity", _conserved_cases),
                      record(verify, "jacobi_residual", _jacobi_cases),
                      record(crv, "orthogonality_defect", _defect_cases),
                      record(crv, "calibration_divergence", _divergence_cases)):
            stack.enter_context(patch)
        verify.suite_jacobi()
        verify.suite_bernstein()
    # grouped by check, in call order within each: a loop may interleave
    # the cases of two checks (jacobi-tangent's two kinds) that a batch splits
    with open(path, "w") as fh:
        fh.write("".join(sorted(lines, key=lambda line: line.split(" ")[0])))


def _curves():
    u, x, y = workloads.curve_samples(np.random.default_rng(11))
    return [("line", line_curve(0.3, Point(0.4, -0.2, 0.1), eps_min=-2.0, eps_max=2.0)),
            ("helix-shifted", helix_curve(0.8, eps_shift=0.3, t_shift=-0.25,
                                          eps_min=-2.0, eps_max=2.0)),
            ("csv-11", curve_from_samples(u, x, y))]


def write_curves(path):
    lines = []
    for name, curve in _curves():
        eps = np.linspace(curve.eps_min, curve.eps_max, 9)
        p, *derivs = curve.jet(eps)
        values = [p.x, p.y, p.t] + [v for pair in derivs for v in pair]
        lines.append(f"{name} jet {[np.asarray(v).tolist() for v in values]!r}\n")
        for side in (1, -1):
            sl = srf.SigmaLambdaPatch(curve, 1.3, side)
            g = sl.generating_geodesic(eps)
            lines += [f"{name} side={side:+d} s_cut {sl.s_cut(eps).tolist()!r}\n",
                      f"{name} side={side:+d} s_cut_rate "
                      f"{sl._cut(srf._curve_data(curve, eps))[1].tolist()!r}\n",
                      f"{name} side={side:+d} base {g.base.as_array().tolist()!r}\n",
                      f"{name} side={side:+d} theta {np.asarray(g.theta).tolist()!r}\n"]
    with open(path, "w") as fh:
        fh.write("".join(lines))


def _defect_line(name, patch, index, param):
    try:
        value = crv.orthogonality_defect(patch, index, param).tolist()
    except GeometryError as exc:
        value = f"{type(exc).__name__}: {exc}"
    return f"{name} {value!r}\n"


def write_defects(path):
    lines = []
    for name, curve in _curves():
        eps = np.linspace(curve.eps_min, curve.eps_max, 9)
        for lam in (0.5, 1.0, 2.0):
            for side in (1, -1):
                sl = srf.SigmaLambdaPatch(curve, lam, side)
                lines += [_defect_line(f"{name} lam={lam:g} side={side:+d} {label}", sl, index, eps)
                          for index, label in enumerate(("base", "far"))]
    y = np.linspace(-1.0, 1.0, 9)
    for g in ("y^2", "0.5 - y + 0.4*y^3", "(y+1)^100"):
        lines.append(_defect_line(f"bernstein g={g}", srf.build_surface("bernstein", g=g), 0, y))
    with open(path, "w") as fh:
        fh.write("".join(lines))


def write_all(outdir):
    os.makedirs(outdir, exist_ok=True)
    _run(["verify", "--suite", "all", "--out", os.path.join(outdir, "verify-all.json")],
         outdir, "verify-all")
    for workload in ("suites", "catalog", "curve"):
        for seed in SEEDS:
            workdir = os.path.join(outdir, f"{workload}-{seed}")
            os.makedirs(workdir, exist_ok=True)
            for op in workloads.make_ops(workload, seed, workdir):
                name = _file_name(op["key"])
                json_out = os.path.join(workdir, name + ".json")
                _run(op["argv"] + (["--out", json_out] if op["cmd"] == "verify" else []),
                     workdir, name)
    extra = os.path.join(outdir, "extra")
    os.makedirs(extra, exist_ok=True)
    for surf in EXTRA_WITH_H:
        tag = f"{surf}-40x40-h"
        _run(["mesh", "--surface", surf, "--res", "40x40", "--with-h",
              "--out", os.path.join(extra, tag + ".obj"),
              "--csv", os.path.join(extra, tag + ".csv")], extra, tag)
    for tag, (argv, res) in EXTRA_MESHES.items():
        _run(["mesh", *argv, "--res", res, "--out", os.path.join(extra, tag + ".obj"),
              "--csv", os.path.join(extra, tag + ".csv")], extra, tag)
    for tag, (*flags, ext) in EXTRA_SINGLE_FILE.items():
        _run(["mesh", "--surface", "sphere", "--res", "37x301", *flags,
              os.path.join(extra, tag + ext)], extra, tag)
    for tag, argv in EXTRA_REPORTS.items():
        _run(["report", *argv], extra, "report-" + tag)
    write_graph_pde(os.path.join(extra, "graph-pde.txt"))
    write_calibration(os.path.join(extra, "calibration.txt"))
    write_mean_curvature(os.path.join(extra, "mean-curvature.txt"))
    write_normal_data(os.path.join(extra, "normal-data.txt"))
    write_ruling(os.path.join(extra, "ruling.txt"))
    write_suite_cases(os.path.join(extra, "suite-cases.txt"))
    write_curves(os.path.join(extra, "curves.txt"))
    write_defects(os.path.join(extra, "defects.txt"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/same_numbers.py OUTDIR")
    write_all(sys.argv[1])
