"""Tests of the benchmark itself: output checks, span arithmetic, and the
result line of a quick-size run.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from h1geo.cli import main as cli_main  # noqa: E402
from h1geo.verify import DEFAULT_TOLERANCES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks


def sphere_report(lam: float, **override) -> str:
    rep = {"surface": "sphere", "lambda": lam, "A": math.pi**2 / lam**3, "A_err": 1e-14,
           "V": 3 * math.pi**2 / (8 * lam**4), "V_err": 1e-14, "H": lam,
           "minkowski_defect": 0.0, "iso_ratio": (8 / 3) ** 3 * math.pi**2}
    rep.update(override)
    return json.dumps(rep)


SPHERE_OP = {"key": "report:sphere", "cmd": "report", "lam": 1.25,
             "argv": ["report", "--surface", "sphere", "--lambda", "1.25"]}


def test_exact_sphere_report_passes():
    assert workloads.check_op(SPHERE_OP, 0, sphere_report(1.25), DEFAULT_TOLERANCES, {}) == []


@pytest.mark.parametrize("override", [
    {"A": math.pi**2 / 1.25**3 * (1 + 1e-3)},    # wrong area
    {"V": 1.0, "V_err": 10.0},                   # wrong volume, even with a wide bound
    {"H": 1.0},                                  # wrong mean curvature
    {"iso_ratio": 100.0},
    {"A": math.pi**2 / 1.25**3 * (1 + 1e-5), "A_err": 1e-9},   # within tol, bound too small
    {"A": float("nan")},
])
def test_injected_wrong_report_value_fails(override):
    problems = workloads.check_op(SPHERE_OP, 0, sphere_report(1.25, **override),
                                  DEFAULT_TOLERANCES, {})
    assert problems


def test_nonzero_exit_and_garbage_fail():
    assert workloads.check_op(SPHERE_OP, 3, "", DEFAULT_TOLERANCES, {})
    assert workloads.check_op(SPHERE_OP, 0, "not json", DEFAULT_TOLERANCES, {})
    verify_op = {"key": "verify:iso", "cmd": "verify", "argv": ["verify", "--suite", "iso"]}
    assert workloads.check_op(verify_op, 0, "PASS  a\n1/1 checks passed\n",
                              DEFAULT_TOLERANCES, {}) == []
    assert workloads.check_op(verify_op, 1, "FAIL  a\n0/1 checks passed\n",
                              DEFAULT_TOLERANCES, {})


def test_seed_cylinder_sheet_report_is_counted_as_failure():
    op = {"key": "report:cylinder-s", "cmd": "report", "lam": 1.0,
          "argv": ["report", "--surface", "cylinder-s", "--lambda", "1.0"]}
    rep = {"A": 3.963774555386419, "A_err": 0.01500606007977856, "H": 1.0}
    problems = workloads.check_op(op, 0, json.dumps(rep), DEFAULT_TOLERANCES, {})
    assert any("A_err" in p for p in problems) and any("relative error" in p for p in problems)
    assert op["key"] in workloads.KNOWN_DEFECTS


@pytest.fixture()
def sphere_mesh(tmp_path, capsys):
    op = workloads._mesh_op("sphere", ["--lambda", "1.5"], (6, 5),
                            lambda name: str(tmp_path / name), with_h=True)
    assert cli_main(op["argv"]) == 0
    capsys.readouterr()
    return op


def test_mesh_check_passes_and_is_repeatable(sphere_mesh):
    digests = {}
    assert workloads.check_op(sphere_mesh, 0, "", DEFAULT_TOLERANCES, digests) == []
    assert workloads.check_op(sphere_mesh, 0, "", DEFAULT_TOLERANCES, digests) == []


def _first_line(prefix):
    def edit(lines, replacement):
        i = next(k for k, ln in enumerate(lines) if ln.startswith(prefix))
        return lines[:i] + ([replacement] if replacement is not None else []) + lines[i + 1:]
    return edit


@pytest.mark.parametrize("edit, replacement", [
    (_first_line("v "), "v nan 0 0"),          # non-finite coordinate
    (_first_line("v "), "v 123 0 0"),          # disagrees with the CSV
    (_first_line("v "), None),                 # vertex dropped
    (_first_line("f "), "f 1 2 999"),          # face index out of range
])
def test_corrupted_obj_fails(sphere_mesh, edit, replacement):
    path = Path(sphere_mesh["obj"])
    path.write_text("\n".join(edit(path.read_text().splitlines(), replacement)) + "\n")
    digests = {}
    assert workloads.check_op(sphere_mesh, 0, "", DEFAULT_TOLERANCES, digests)
    # a repetition with the same bytes fails again without being parsed again
    assert workloads.check_op(sphere_mesh, 0, "", DEFAULT_TOLERANCES, digests)


def test_changed_bytes_between_repetitions_fail(sphere_mesh):
    digests = {sphere_mesh["key"]: ("0" * 64, [])}
    assert workloads.check_op(sphere_mesh, 0, "", DEFAULT_TOLERANCES, digests)


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.make_ops("catalog", 7, str(tmp_path))
    b = workloads.make_ops("catalog", 7, str(tmp_path))
    c = workloads.make_ops("catalog", 8, str(tmp_path))
    assert a == b and a != c
    workloads.make_ops("curve", 7, str(tmp_path))
    first = (tmp_path / "curve.csv").read_text()
    workloads.make_ops("curve", 7, str(tmp_path))
    assert (tmp_path / "curve.csv").read_text() == first


# ---------------------------------------------------------------------------
# spans


def test_self_times_sum_to_root_wall_time():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x

    def middle(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_leaf = tr.wrap("hgroup.leaf", leaf)
    wrapped_middle = tr.wrap("geodesics.middle", middle)
    with tr.span("bench.pass"):
        wrapped_middle(1)
        wrapped_leaf(2)
    spans = [{"name": tr.names[n], "start": tr.start[i], "end": tr.end[i],
              "parent": tr.parent[i]} for i, n in enumerate(tr.span_name)]
    selfs = tracer.self_times(spans)
    root = spans[0]
    assert root["parent"] == -1 and sum(selfs) == root["end"] - root["start"]
    assert all(s >= 0 for s in selfs)


def test_nested_same_name_counts_once():
    tr = tracer.Tracer()
    inner = tr.wrap("hgroup.same", lambda x: x)
    outer = tr.wrap("hgroup.same", lambda x: inner(x))
    outer(1)
    assert len(tr.span_name) == 1


# ---------------------------------------------------------------------------
# quick-size runs through the command line


def test_quick_end_to_end_prints_every_metric_with_unit():
    names = {m["name"] for m in SPEC["end_to_end"]}
    printed = set()
    for wl in ("suites", "catalog"):
        proc = run_bench("--workload", wl, "--seed", "3", "--seconds", "0", "--trace", "0",
                         "--quick")
        assert proc.returncode == 0, proc.stderr
        res = last_json(proc.stdout)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1
        assert set(res["metrics"]) == names
        for m in SPEC["end_to_end"]:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[1] in {"setup_s", "pass_s", "verify_s", "report_s",
                                                 "mesh_s", "fail_ratio", "peak_rss_mb"}:
                printed.add(parts[1])
    assert printed == {"setup_s", "pass_s", "verify_s", "report_s", "mesh_s", "fail_ratio",
                       "peak_rss_mb"}


def test_quick_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "catalog", "--seed", "3", "--seconds", "0", "--trace", "1",
                     "--quick")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc.stdout)
    assert res["correct"]
    # every failure is a listed known defect, and each occurrence is counted
    failed_lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("# failed")]
    assert all("(known defect):" in ln for ln in failed_lines)
    assert res["failed"] == sum(int(ln.split()[2][1:]) for ln in failed_lines)
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == layer
    info = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# traced pass"))
    words = info.split()
    traced, self_sum = float(words[3]), float(words[-2])
    assert self_sum == pytest.approx(traced, rel=0.02)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
