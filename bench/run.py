"""The qsikit benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it uses the package under
src/ next to this directory and refuses to run without it. Workloads
(see README.md for why each was chosen):

    lattice    decide_qsi_group on PSL(2,7), A6 and PSL(2,11)
    sweep      the PSU(4,2) twice-Steinberg witness and 10^4-sample sweep
    tables     character tables of A8, M11, PSU(4,2) and A9
    cli-cold   short `qsikit` commands, each a cold process

One client runs the workload's operations one after another (a closed
loop), each in a fresh single-threaded process, and repeats the whole
list (a pass) while another pass still fits in --seconds. Every output
is checked against relabelling-invariant expected values.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, in which
untraced and traced passes alternate so that the tracing overhead is
measured too. Either way the line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_inputs
import bench_trace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_STARTS = 9          # cold starts per run behind setup_s
IMPORTTIME_RUNS = 5       # `-X importtime` starts behind import.*
OP_TIMEOUT_S = 150
# cmd_tail_s on cli-cold: a percentile fixed here, not picked from the
# sample count, which grows as the code gets faster. 15 commands a pass
# and 6 or 7 passes a run leave about 25 samples beyond p75.
CLI_TAIL_PERCENTILE = 75
CLI_MAIN = "import sys\nfrom qsikit.cli import main\nsys.exit(main())"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_run(cmd, env, stdin_text=None):
    """(seconds, return code, stdout, stderr) of one child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=stdin_text, capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", "timed out"
    return time.perf_counter() - start, proc.returncode, proc.stdout, \
        proc.stderr


def cold_start_seconds(env):
    seconds, code, _, stderr = timed_run(
        [sys.executable, "-c", "import qsikit.cli"], env)
    if code != 0:
        raise RuntimeError(f"import qsikit.cli failed: {stderr.strip()}")
    return seconds


def run_op(op, env, span_file=None):
    """Run one operation in a fresh process and check its output."""
    if op["kind"] == "cli" and span_file is None:
        latency, code, stdout, stderr = timed_run(
            [sys.executable, "-c", CLI_MAIN] + op["argv"], env)
        errors = bench_inputs.check_cli(op, code, stdout)
        return {"latency": latency, "errors": errors, "seconds": latency,
                "items": 1, "item_seconds": latency, "stderr": stderr}
    request = {"op": op, "src": str(SRC),
               "trace": str(span_file) if span_file else None}
    latency, code, stdout, stderr = timed_run(
        [sys.executable, str(BENCH / "bench_worker.py")], env,
        json.dumps(request))
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"errors": [f"worker exit code {code}, no result"]}
    if code != 0 and not result["errors"]:
        result["errors"] = [f"worker exit code {code}"]
    timings = result.get("timings", {})
    summary = result.get("summary", {})
    if op["kind"] == "cli":
        seconds = item_seconds = latency
        items = 1
    else:
        seconds = timings.get("op_s", latency)
        item_seconds = timings.get("sweep_s", seconds)
        items = summary.get("items", 0)
    return {"latency": latency, "errors": result["errors"],
            "seconds": seconds, "items": items,
            "item_seconds": item_seconds, "stderr": stderr}


def run_pass(ops, env, span_dir=None, tag=""):
    """One pass over the workload's operations."""
    results = []
    for index, op in enumerate(ops):
        span_file = span_dir / f"{tag}op{index}.json" if span_dir else None
        results.append(run_op(op, env, span_file))
    return results


def pass_wall(results):
    return sum(r["seconds"] for r in results)


def pass_rate(results):
    return (sum(r["items"] for r in results)
            / sum(r["item_seconds"] for r in results))


def latency_figures(workload, passes):
    """(cmd_p50_s, cmd_tail_s, tail label) from the operation latencies.

    Each operation's latency is its median over the passes, so that
    neither figure depends on how many passes fit in the run. cmd_p50_s
    is the median of these. cmd_tail_s is the fixed percentile of all
    samples on cli-cold, whose commands are many and alike; elsewhere a
    pass holds one to four unlike operations, and it is the slowest
    operation's latency."""
    per_op = [statistics.median(p[i]["latency"] for p in passes)
              for i in range(len(passes[0]))]
    if workload != "cli-cold":
        return statistics.median(per_op), max(per_op), "slowest operation"
    latencies = [r["latency"] for p in passes for r in p]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return (statistics.median(per_op), cuts[CLI_TAIL_PERCENTILE - 1],
            f"p{CLI_TAIL_PERCENTILE}")


def measure_untraced(workload, ops, env, seconds):
    cold_start_seconds(env)  # compiles bytecode in a fresh checkout
    setup = [cold_start_seconds(env) for _ in range(SETUP_STARTS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, env))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    p50, tail_value, tail_label = latency_figures(workload, passes)
    print(f"{len(passes)} passes, {len(passes) * len(ops)} latency "
          f"samples, cmd_tail_s is the {tail_label}")
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "cmd_p50_s": (p50, "s"),
        "cmd_tail_s": (tail_value, "s"),
        "items_per_s": (statistics.median(pass_rate(p) for p in passes),
                        "1/s"),
    }
    return passes, metrics


def measure_traced(ops, env, seconds, span_dir):
    plain, traced, span_files = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, env))
        tag = f"pass{len(traced)}-"
        traced.append(run_pass(ops, env, span_dir, tag))
        span_files += sorted(span_dir.glob(f"{tag}op*.json"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    metrics = bench_trace.per_layer(span_files, len(traced))
    stderr_texts = [timed_run([sys.executable, "-X", "importtime", "-c",
                               "import qsikit.cli"], env)[3]
                    for _ in range(IMPORTTIME_RUNS)]
    metrics.update(bench_trace.import_times(stderr_texts))
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(
        pass_wall(p) for p in plain), "s")
    shares = ", ".join(f"{layer} {metrics[layer + '.s'][0] / traced_wall:.0%}"
                       for layer in ("perm", "chartab", "qsi"))
    print(f"{len(traced)} traced and {len(plain)} untraced passes; "
          f"self time of {shares} of the traced wall_s")
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsikit" / "__init__.py").is_file():
        print(f"error: no qsikit package under {SRC}; run the benchmark "
              "inside a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    ops = bench_inputs.workload_ops(args.workload, args.seed, ROOT, work)
    if args.trace:
        results, metrics = measure_traced(ops, env, args.seconds, work)
    else:
        results, metrics = measure_untraced(args.workload, ops, env,
                                            args.seconds)

    flat = [r for p in results for r in p]
    failed = [r for r in flat if r["errors"]]
    for r in failed:
        print("\n".join(r["errors"]), r["stderr"], sep="\n", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
