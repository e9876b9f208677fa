"""Run one benchmark operation in a fresh process.

Reads a JSON request on stdin:
    {"op": <operation>, "src": <directory holding qsikit>,
     "trace": <span file to write, or null>}
and prints one JSON object on its last stdout line:
    {"errors": [...], "summary": {...}, "timings": {...}}
With a span file, the tracer wraps qsikit's public functions around the
operation and writes its spans there at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import bench_inputs
import bench_trace


def run(request):
    import qsikit.cli

    package = Path(qsikit.__file__).resolve().parent
    if package.parent != Path(request["src"]).resolve():
        return {"errors": [f"qsikit imported from {package}, not from "
                           f"{request['src']}"], "summary": {}, "timings": {}}
    op = request["op"]
    tracer = bench_trace.Tracer().install() if request["trace"] else None
    summary, timings, errors = {}, {}, []
    try:
        if op["kind"] == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = qsikit.cli.main(op["argv"])
            errors = bench_inputs.check_cli(op, code, out.getvalue())
        else:
            summary, timings = bench_inputs.run_op(op, time.perf_counter)
            errors = bench_inputs.check_summary(op, summary)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        errors = [f"{op.get('name') or op['kind']}: raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.dump(request["trace"])
    return {"errors": errors, "summary": summary, "timings": timings}


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
