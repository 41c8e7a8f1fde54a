"""Child interpreter of the benchmark: one fresh process per measurement.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds `src` (the directory that contains the h1geo package), `mode`
and, except for mode "setup", the operations and the time budget:

- "setup": time the cold `import h1geo.cli` and exit;
- "run": repeat passes over the operations while at least half of one more
  pass is expected to fall within `seconds` (at least one pass), timing each
  operation and checking each output;
- "trace": one untraced pass, then one pass with every h1geo layer wrapped
  by the span tracer; spans are written to SPEC["spans"] as JSONL.

RESULT receives the import time, per-pass timings, failures and peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def run_pass(ops, cli, tols, digests, tracer=None) -> dict:
    """Time one pass over the operations, then check every output."""
    import workloads

    results = []
    with contextlib.ExitStack() as outer:
        if tracer is not None:
            outer.enter_context(tracer.span("bench.pass"))
        t_pass = time.perf_counter()
        for op in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(list(op["argv"]))
                except Exception as exc:   # a traceback is a failed operation, not a crash
                    rc = f"uncaught {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            results.append((op, rc, buf.getvalue(), dt))
        pass_s = time.perf_counter() - t_pass
    # read before the checks, which parse the outputs, so it is the program's own peak
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = []
    for op, rc, stdout, _ in results:
        problems = workloads.check_op(op, rc, stdout, tols, digests)
        if problems:
            failed.append({"key": op["key"], "problems": problems})
    return {"pass_s": pass_s, "op_s": [dt for *_, dt in results], "attempted": len(ops),
            "failed": failed, "rss_mb": rss_mb}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    # only the standard library is loaded so far, so this import is cold
    t0 = time.perf_counter()
    import h1geo.cli as cli
    setup_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        from h1geo.verify import DEFAULT_TOLERANCES

        tols = dict(DEFAULT_TOLERANCES)
        digests: dict = {}
        passes = []
        t_run = time.perf_counter()
        if spec["mode"] == "trace":
            from tracer import Tracer

            passes.append(run_pass(spec["ops"], cli, tols, digests))
            tracer = Tracer()
            result["wrapped"] = tracer.install()
            passes.append(run_pass(spec["ops"], cli, tols, digests, tracer))
            tracer.write_jsonl(spec["spans"])
            result["export_bytes"] = sum(tracer.export_bytes)
        else:
            # another pass starts only if at least half of one of the average
            # length (its checks included) falls within the time budget
            while True:
                passes.append(run_pass(spec["ops"], cli, tols, digests))
                elapsed = time.perf_counter() - t_run
                if elapsed + 0.5 * elapsed / len(passes) > spec["seconds"]:
                    break
        result["passes"] = passes
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
