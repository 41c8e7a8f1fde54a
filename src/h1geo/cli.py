"""Batch front-end: build surfaces, export meshes, run verification suites.

Subcommands:
    mesh    sample a surface and write OBJ and/or CSV
    verify  run a named identity suite, write a JSON report, exit 1 on failure
    report  area/volume/curvature summary for one surface as JSON

mesh and report take the surface flags; verify takes only --suite, --tol,
--g, --out and --config.  --g is passed as text to the catalog (mesh,
report) or to the bernstein suite (verify), which read it with
`surfaces.parse_g`.  Exit codes: 0 success, 1 failed verification checks,
2 configuration error, 3 numerical failure.  Flags win over the optional
--config JSON file, which may hold keys of the other commands.
Reports carry no timestamps and all randomness is seeded, so identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import curvature as crv
from . import measures as msr
from . import surfaces as srf
from . import verify as vfy
from .errors import ConfigError, DegenerateCurve, GeometryError, UnknownSurface
from .hcurves import load_curve_csv


# ---------------------------------------------------------------------------
# configuration


# the JSON type each config-file key accepts (null leaves the key unset);
# flags need no such check, argparse has typed them already
_KEY_TYPES = {"surface": str, "g": str, "curve": str, "res": str, "out": str, "csv": str,
              "suite": str, "sheet": str, "lambda": float, "r": float, "d": float,
              "side": int, "with-h": bool}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer", bool: "true or false"}


def _check_config_type(key: str, value) -> None:
    want = _KEY_TYPES[key]
    accepted = (int, float) if want is float else want
    # bool is an int subclass, so true/false must be told apart explicitly
    if value is not None and (isinstance(value, bool) != (want is bool)
                              or not isinstance(value, accepted)):
        raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[want]} (got {value!r})")


# The largest mesh side.  A mesh holds its 1-byte singular mask plus one
# block of rows, so a helicoid OBJ+CSV mesh peaks near 37 MB at 1024x1024 and
# near 43 MB at 2048x2048, 34 MB of it the interpreter and its imports.
_MAX_RES = 2048


def _parse_res(text: str):
    try:
        a, b = text.lower().split("x")
        na, nb = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"resolution must look like 128x128 (got {text!r})") from exc
    if not (2 <= na <= _MAX_RES and 2 <= nb <= _MAX_RES):
        raise ConfigError(f"resolution sides must lie in [2, {_MAX_RES}] (got {text!r})")
    return na, nb


def _nonblank(key: str, value):
    """value, unless a blank string: an empty value is an error, not an absent flag."""
    if isinstance(value, str) and not value.strip():
        raise ConfigError(f"--{key.replace('_', '-')} must not be empty (got {value!r})")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if _nonblank("config", getattr(args, "config", None)):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key.startswith("tol-"):
                cfg.setdefault("tols", {})[key[4:]] = value
            elif key in _KEY_TYPES:
                _check_config_type(key, value)
                cfg["lam" if key == "lambda" else key.replace("-", "_")] = _nonblank(key, value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key, value in vars(args).items():
        if key in ("config", "command", "tol"):
            continue
        # flags win; argparse leaves unset flags at None (with_h at False)
        if _nonblank(key, value) is not None and value is not False:
            cfg[key] = value
        else:
            cfg.setdefault(key, value)
    return cfg


def _parse_tols(pairs) -> dict:
    tols = {}
    for name, value in pairs or []:
        if name not in vfy.DEFAULT_TOLERANCES:
            raise ConfigError(
                f"unknown tolerance {name!r}; known: {sorted(vfy.DEFAULT_TOLERANCES)}")
        try:
            val = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            val = math.nan
        if not (math.isfinite(val) and val > 0):
            raise ConfigError(f"tolerance {name!r} must be a finite positive number "
                              f"(got {value!r})")
        tols[name] = val
    return tols


def _build_patch(cfg: dict):
    name = cfg.get("surface")
    if not name:
        raise ConfigError("--surface is required")
    # JSON config files accept Infinity and NaN, so flags are not the only source
    for key, flag in (("lam", "lambda"), ("r", "r"), ("d", "d")):
        value = cfg.get(key)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ConfigError(f"--{flag} must be finite (got {value!r})")
    params = {k: cfg[k] for k in ("lam", "r", "side", "sheet", "d", "g") if cfg.get(k) is not None}
    if cfg.get("curve"):
        try:
            params["curve"] = load_curve_csv(cfg["curve"])
        except DegenerateCurve as exc:
            raise ConfigError(f"malformed curve file: {exc}") from exc
    try:
        return srf.build_surface(name, **params)
    except ValueError as exc:
        raise ConfigError(f"invalid surface parameters: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_mesh(cfg: dict) -> int:
    out = cfg.get("out")
    if not out and not cfg.get("csv"):
        raise ConfigError("mesh needs --out (OBJ path) and/or --csv")
    patch = _build_patch(cfg)
    n_eps, n_s = _parse_res(cfg.get("res") or "64x64")
    singular = srf.write_mesh(patch, n_eps, n_s, obj=out, csv=cfg.get("csv"),
                              h_est=crv.mesh_curvature if cfg.get("with_h") else None)
    if out:
        print(f"wrote {out} ({n_eps * n_s} vertices)")
    if cfg.get("csv"):
        print(f"wrote {cfg['csv']}")
    comps = srf.singular_components(singular)
    print(f"singular vertices: {np.count_nonzero(singular)} in {len(comps)} component(s)")
    return 0


def _format_check(c) -> str:
    status = "PASS" if c.passed else "FAIL"
    return (f"{status}  {c.name}: measured={c.measured:.6e} expected={c.expected:.6g} "
            f"tol={c.tol:g} ({c.mode}) -- {c.source}")


def cmd_verify(cfg: dict, g_flag: bool) -> int:
    suite = cfg.get("suite") or "all"
    if suite != "all" and suite not in vfy.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; known: {sorted(vfy.SUITES)} or 'all'")
    if g_flag and suite not in ("bernstein", "all"):   # a config file's g may serve report
        raise ConfigError(f"--g is read only by --suite bernstein or all (got {suite!r})")
    checks = vfy.run_suite(suite, cfg.get("tols"), cfg.get("g"))
    for c in checks:
        print(_format_check(c))
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if cfg.get("out"):
        payload = {"suite": suite, "checks": [c.as_dict() for c in checks],
                   "passed": n_fail == 0}
        srf.atomic_write(cfg["out"], json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {cfg['out']}")
    return 0 if n_fail == 0 else 1


def _measure_H(patch):
    """Mean curvature averaged over a deterministic interior probe grid."""
    eps = np.linspace(patch.eps_lo, patch.eps_hi, 7)[1:-1]
    s = np.linspace(patch.s_lo, patch.s_hi, 7)[1:-1]
    ee, ss = np.meshgrid(eps, s, indexing="ij")
    H, nh = crv._mean_curvature(patch, ee, ss)
    ok = nh >= 1e-2
    if not np.any(ok):
        return patch.lam
    return float(np.mean(H[ok]))


def cmd_report(cfg: dict) -> int:
    patch = _build_patch(cfg)
    n, n_s = _parse_res(cfg.get("res") or "128x128")
    if n != n_s:
        raise ConfigError(f"report sweeps the same number of cells per side; "
                          f"--res must be NxN (got {cfg['res']!r})")
    report = msr.measures_report(patch, cfg.get("surface"), cfg.get("lam"), n=n,
                                 H=_measure_H(patch))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.get("out"):
        srf.atomic_write(cfg["out"], text)
        print(f"wrote {cfg['out']}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h1geo",
        description="Heisenberg-group geometry: surfaces, meshes, identity suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="sample a surface to OBJ/CSV")
    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_report = sub.add_parser("report", help="measures summary for one surface")
    for p in (p_mesh, p_report):
        p.add_argument("--surface", help="catalog name (see docs)")
        p.add_argument("--lambda", dest="lam", type=float, help="curvature parameter")
        p.add_argument("--r", type=float, help="helix/cylinder radius")
        p.add_argument("--curve", help="CSV curve file (header eps,x,y)")
        p.add_argument("--side", type=int, choices=(1, -1), help="orthogonal family side")
        p.add_argument("--sheet", choices=("lower", "upper"), help="cylinder sheet")
        p.add_argument("--d", type=float, help="plane offset")
        p.add_argument("--res", help="grid resolution NxM")
    for p in (p_mesh, p_verify, p_report):
        p.add_argument("--g", help="polynomial g(y) for bernstein graphs, e.g. 'y^2'")
        p.add_argument("--out", help="output path")
        p.add_argument("--config", help="JSON config file (flags win)")
    p_mesh.add_argument("--csv", help="also write the vertex CSV here")
    p_mesh.add_argument("--with-h", dest="with_h", action="store_true",
                        help="fill per-vertex mean curvature (slower)")
    p_verify.add_argument("--suite",
                          help="geodesics|jacobi|curvature|minkowski|bernstein|iso|all")
    p_verify.add_argument("--tol", nargs=2, action="append", metavar=("NAME", "VALUE"),
                          help="override a named tolerance (repeatable)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # accept --tol-<name> <value> sugar by rewriting to --tol <name> <value>
    rewritten = []
    for arg in argv:
        if arg.startswith("--tol-"):
            rewritten.extend(["--tol", arg[6:]])
        else:
            rewritten.append(arg)
    parser = _make_parser()
    try:
        args = parser.parse_args(rewritten)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = {}
    try:
        cfg = _merge_config(args)
        if getattr(args, "tol", None):
            cfg.setdefault("tols", {}).update(_parse_tols(args.tol))
        if cfg.get("tols"):
            cfg["tols"] = _parse_tols(list(cfg["tols"].items()))
        # overflow and NaN are caught as errors or non-finite results, so
        # numpy's RuntimeWarnings would only repeat them on stderr
        with np.errstate(all="ignore"):
            if args.command == "mesh":
                return cmd_mesh(cfg)
            if args.command == "verify":
                return cmd_verify(cfg, g_flag=args.g is not None)
            return cmd_report(cfg)
    except (ConfigError, UnknownSurface) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # input files map their own errors; this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError):   # their text names no input
        surface = f" of surface {cfg['surface']}" if cfg.get("surface") else ""
        print(f"numerical failure: float overflow in {args.command}{surface}", file=sys.stderr)
        return 3
    except (GeometryError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
