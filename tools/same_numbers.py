"""Write every output that a "same numbers" change must keep, into one directory.

    python tools/same_numbers.py OUTDIR

OUTDIR receives:

- `verify-all.json`, from `h1geo verify --suite all --out`;
- the reports (JSON) and meshes (OBJ and CSV) of the benchmark's `catalog`
  and `curve` workloads at seeds 11 and 12, one subdirectory per workload
  and seed, with the operations taken unchanged from `bench/workloads.make_ops`;
- `extra/`: 40x40 `--with-h` meshes of five surfaces whose per-vertex mean
  curvature runs characteristic traces, and the reports of a Bernstein graph
  whose singular curve crosses the rectangle's sides, of a cylinder sheet
  at a second lambda, and of sigma-zero at an odd cap, which puts its
  singular curve s = 0 inside a cell unless it is a chart edge;
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from h1geo.cli import main  # noqa: E402
import workloads  # noqa: E402

SEEDS = (11, 12)
EXTRA_WITH_H = ("sigma-lambda", "helicoid-l", "sigma-zero", "bernstein", "cylinder-s")
EXTRA_REPORTS = {"bernstein-3y2": ["--surface", "bernstein", "--g", "3*y^2"],
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


def write_all(outdir):
    os.makedirs(outdir, exist_ok=True)
    _run(["verify", "--suite", "all", "--out", os.path.join(outdir, "verify-all.json")],
         outdir, "verify-all")
    for workload in ("catalog", "curve"):
        for seed in SEEDS:
            workdir = os.path.join(outdir, f"{workload}-{seed}")
            os.makedirs(workdir, exist_ok=True)
            for op in workloads.make_ops(workload, seed, workdir):
                _run(op["argv"], workdir, _file_name(op["key"]))
    extra = os.path.join(outdir, "extra")
    os.makedirs(extra, exist_ok=True)
    for surf in EXTRA_WITH_H:
        tag = f"{surf}-40x40-h"
        _run(["mesh", "--surface", surf, "--res", "40x40", "--with-h",
              "--out", os.path.join(extra, tag + ".obj"),
              "--csv", os.path.join(extra, tag + ".csv")], extra, tag)
    for tag, argv in EXTRA_REPORTS.items():
        _run(["report", *argv], extra, "report-" + tag)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/same_numbers.py OUTDIR")
    write_all(sys.argv[1])
