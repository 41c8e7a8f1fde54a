"""h1geo benchmark: times the `verify`, `report` and `mesh` CLI commands.

    python3 bench/run.py --workload suites|catalog|curve|all --seed N \
        --seconds S --trace 0|1 [--quick]

Each measurement runs in a fresh child interpreter (bench/child.py) with
BLAS/OpenMP pinned to one thread, writing into a temporary directory under
the checkout that is removed afterwards.  With --trace 0 the run reports the
end-to-end metrics: cold-import set-up time, pass time (each operation's
median over the passes that fit in --seconds, summed) and peak memory; with
--trace 1 a separate child makes one untraced and one traced pass and the
run reports the per-layer metrics of the traced pass plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload both ways and prints every table.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3          # cold imports in their own children before and after the
                           # run child, plus the run child's own
CHILD_TIMEOUT_S = 170
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# end-to-end metric units; each workload prints the command times it runs
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "verify_s": "s", "report_s": "s",
             "mesh_s": "s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}
# the metrics every workload reports in its result line (BENCHMARK.json end_to_end)
E2E_RESULT = ("setup_s", "pass_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'none' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run_child(spec: dict, workdir: str, tag: str) -> dict:
    spec = dict(spec, src=str(SRC))
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), spec_path, result_path],
                              env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def tally(passes: list[dict]):
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    unexpected = [f for f in failures if f["key"] not in workloads.KNOWN_DEFECTS]
    return attempted, failures, unexpected


def end_to_end(workload: str, seed: int, seconds: float, quick: bool, workdir: str):
    ops = workloads.make_ops(workload, seed, workdir, quick)

    def setup_samples(tag):
        return [run_child({"mode": "setup"}, workdir, f"{tag}{k}")["setup_s"]
                for k in range(SETUP_SAMPLES)]

    setups = setup_samples("setup-before")
    res = run_child({"mode": "run", "ops": ops, "seconds": seconds}, workdir, "run")
    setups += [res["setup_s"], *setup_samples("setup-after")]
    passes = res["passes"]
    attempted, failures, unexpected = tally(passes)
    # each operation's median over the passes, so that a burst of load on the
    # machine during one operation of one pass does not count
    op_s = [statistics.median(p["op_s"][k] for p in passes) for k in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (sum(op_s), len(passes)),
    }
    for cmd in ("verify", "report", "mesh"):
        if any(op["cmd"] == cmd for op in ops):
            metrics[f"{cmd}_s"] = (sum(t for op, t in zip(ops, op_s) if op["cmd"] == cmd),
                                   len(passes))
    print("# pass times " + " ".join(f"{p['pass_s']:.3f}" for p in passes) + " s")
    for k, op in enumerate(ops):
        times = [p["op_s"][k] for p in passes]
        print(f"# {op['key']:32s} {op_s[k]:10.4f} s median, "
              f"{min(times):.4f} to {max(times):.4f} s over {len(times)} passes")
    metrics["fail_ratio"] = (len(failures) / attempted, attempted)
    # the first pass's peak, read before its outputs were parsed by the checks
    metrics["peak_rss_mb"] = (passes[0]["rss_mb"], 1)
    return metrics, attempted, failures, unexpected


def per_layer(workload: str, seed: int, quick: bool, workdir: str):
    ops = workloads.make_ops(workload, seed, workdir, quick)
    spans_path = os.path.join(workdir, "spans.jsonl")
    res = run_child({"mode": "trace", "ops": ops, "spans": spans_path}, workdir, "trace")
    spans = tracer.read_jsonl(spans_path)
    metrics = tracer.layer_metrics(spans, res["export_bytes"])
    untraced, traced = res["passes"]
    metrics["trace_overhead"] = (traced["pass_s"] / untraced["pass_s"] - 1.0, "ratio")
    attempted, failures, unexpected = tally(res["passes"])
    check = {"self_sum_s": sum(tracer.self_times(spans)), "traced_pass_s": traced["pass_s"],
             "spans": len(spans), "wrapped": res["wrapped"]}
    return metrics, attempted, failures, unexpected, check


def print_failures(failures) -> None:
    """One line per distinct failure, with how often it occurred."""
    seen: dict = {}
    for f in failures:
        key = (f["key"], "; ".join(f["problems"]))
        seen[key] = seen.get(key, 0) + 1
    for (key, problems), times in seen.items():
        known = " (known defect)" if key in workloads.KNOWN_DEFECTS else ""
        print(f"# failed x{times} {key}{known}: {problems}")


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            info: dict) -> dict:
    """Run one workload one way; print its table and return the result object."""
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_tmp")
    try:
        print(f"# workload {workload}, seed {seed}, trace {int(trace)}"
              f"{', quick' if quick else ''}")
        print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
        if trace:
            metrics, attempted, failures, unexpected, check = per_layer(
                workload, seed, quick, workdir)
            print(f"# traced pass {check['traced_pass_s']:.4f} s, {check['spans']} spans, "
                  f"{check['wrapped']} bindings wrapped, "
                  f"self times sum to {check['self_sum_s']:.4f} s")
            for name, (value, unit) in metrics.items():
                print(f"# {name:32s} {value:16.6g} {unit}")
            values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            metrics, attempted, failures, unexpected = end_to_end(
                workload, seed, seconds, quick, workdir)
            for name, (value, n) in metrics.items():
                what = {"setup_s": f"median of {n}", "fail_ratio": f"of {n} ops",
                        "peak_rss_mb": "first pass"}.get(
                    name, f"sum of operation medians over {n} passes")
                print(f"# {name:12s} {value:12.6g} {E2E_UNITS[name]:5s} ({what})")
            values = {k: {"value": metrics[k][0], "unit": E2E_UNITS[k]} for k in E2E_RESULT}
        print_failures(failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": values}


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child,
    # and through the finally blocks that remove the temporary directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrink every operation (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not (SRC / "h1geo" / "cli.py").is_file():
        print(f"error: no h1geo sources under {SRC}", file=sys.stderr)
        return 2
    info = machine_info()
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.quick, info)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for wl in workloads.WORKLOADS:
                for trace in (False, True):
                    one = measure(wl, args.seed, args.seconds, trace, args.quick, info)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{wl}.{k}": v for k, v in one["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
