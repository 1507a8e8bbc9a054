"""convser benchmark: seeded workloads run through ``convser.cli.main``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {prep,train,grid} --seed N --seconds S --trace {0,1}

``--trace 0`` times the workload untraced, in this process, for at least S
seconds and prints the end-to-end metrics. ``--trace 1`` runs one pass of
the workload untraced and one traced, each in a child process, and prints
the per-layer metrics. Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 1
when any output check failed and 2 when the program could not be run.

``--toy`` shrinks every input so the whole benchmark runs in seconds; the
self-test in test_perfbench.py uses it.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
# both children of a traced run must finish inside the 180 s a run may take
TRACED_RUN_BUDGET_S = 170

import environment  # noqa: E402  (sibling modules of this script)
from layers import COMPUTED, PER_LAYER_UNITS, layer_metrics, make_hooks, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (FULL, TOY, WORKLOADS, Runner, SetupError, peak_rss_mb,  # noqa: E402
                       tree_size)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "pass_s": "s",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}


class NoProgram(RuntimeError):
    """The checkout holds no convser source to benchmark."""


def import_convser():
    """Import convser from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "convser" / "__init__.py").is_file():
        raise NoProgram(f"no convser package under {src}")
    sys.path.insert(0, str(src))
    import convser
    import convser.cli  # noqa: F401  (the tracer wraps names in every loaded module)

    found = Path(convser.__file__).resolve().parent
    if found != (src / "convser").resolve():
        raise NoProgram(f"convser imported from {found}, not {src}")
    return convser


def result_line(attempted, failed, metrics, units):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def timed_run(workload, seconds):
    """Set up, then run passes until `seconds` have elapsed (at least one)."""
    r = workload.r
    setup_times = workload.setup(r.scale.setup_reps)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes)))
    digests = sorted({p.digest for p in passes})
    r.tally("artifact digest", [] if len(digests) == 1 else
            [f"{len(digests)} different digests across {len(passes)} passes"])
    print(f"artifacts sha256 {' '.join(digests)} ({len(passes)} passes)")
    print(f"setup_s samples {setup_times}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(p.work / p.work_seconds for p in passes),
        "pass_s": statistics.median(p.seconds for p in passes),
        "success_rate": 1.0 - r.failed / r.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return result_line(r.attempted, r.failed, metrics, END_TO_END_UNITS)


def child_pass(workload, role, trace_path):
    """One set-up and one pass, for the traced comparison; returns a dict."""
    r, scale = workload.r, workload.r.scale
    start = time.perf_counter()
    workload.setup(1)
    setup_s = time.perf_counter() - start
    traced = role == "traced"
    predicts = scale.traced_predicts if traced else scale.latency_predicts
    first = workload.run_pass(0, predicts=predicts, jobs=1)
    out = {"compare_s": setup_s + first.compare_s, "digest": first.digest, "metrics": {}}
    m = out["metrics"]
    if "val_accuracy" in first.extra:
        m["cli.val_accuracy"] = first.extra["val_accuracy"]
    if "predict_s" in first.extra and not traced:
        m["cli.evaluate_clips_per_s"] = first.extra["evaluate_clips_per_s"]
        m["cli.predict_ms.p50"] = 1e3 * percentile(first.extra["predict_s"], 50)
        m["cli.predict_ms.p90"] = 1e3 * percentile(first.extra["predict_s"], 90)
    if traced:
        m.update(layer_metrics(r.tracer.spans))
        store = first.extra.get("store") or tree_size(workload.store / "features")
        m["dsp_features.store_bytes"], m["dsp_features.store_files"] = store
        r.tracer.write_jsonl(trace_path)
        out["missing"] = r.tracer.missing
    elif workload.name == "grid":
        parallel = workload.run_pass(1, jobs=workload.jobs())
        jobs = parallel.extra["jobs"]
        cells = parallel.extra["cell_s"]
        wall = parallel.extra["grid_wall_s"]
        m["train_eval.cell_s.p50"] = statistics.median(cells) if cells else None
        m["train_eval.cell_s.max"] = max(cells) if cells else None
        m["train_eval.pool_idle_share"] = 1.0 - sum(cells) / (jobs * wall)
        m["train_eval.pool_efficiency"] = first.extra["grid_wall_s"] / (jobs * wall)
        m["train_eval.worker_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        r.tally("grid --jobs N artifacts", [] if parallel.digest == first.digest else
                ["differ from the serial grid's"])
        out["parallel_digest"] = parallel.digest
    out.update(attempted=r.attempted, failed=r.failed)
    return out


def run_child(args, role, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--child", role] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SetupError(f"{role} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def traced_run(args):
    deadline = time.monotonic() + TRACED_RUN_BUDGET_S
    untraced = run_child(args, "untraced", deadline)
    traced = run_child(args, "traced", deadline)
    metrics = dict.fromkeys(PER_LAYER_UNITS)
    metrics.update(untraced["metrics"])
    metrics.update({k: v for k, v in traced["metrics"].items() if k not in untraced["metrics"]})
    metrics["bench.trace_overhead"] = traced["compare_s"] / untraced["compare_s"]
    print(f"artifacts sha256 untraced {untraced['digest']} traced {traced['digest']}")
    if "parallel_digest" in untraced:
        print(f"artifacts sha256 grid --jobs N {untraced['parallel_digest']}")
    same = untraced["digest"] == traced["digest"]
    if not same:
        print("check failed: traced and untraced passes wrote different artifacts",
              file=sys.stderr)
    attempted = untraced["attempted"] + traced["attempted"] + 1
    failed = untraced["failed"] + traced["failed"] + (not same)
    absent = sorted(k for k, v in metrics.items() if v is None)
    print(f"missing functions: {traced.get('missing', [])}")
    print(f"absent (layer idle on this workload; reported as 0): {absent}")
    print(f"computed, not timed: {list(COMPUTED)}")
    values = {k: (0 if v is None else v) for k, v in metrics.items()}
    return result_line(attempted, failed, values, PER_LAYER_UNITS), failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--child", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scale = TOY if args.toy else FULL
    try:
        convser = import_convser()
    except (NoProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment.describe(), sort_keys=True))
    if args.trace and not args.child:
        try:
            line, failed = traced_run(args)
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(line)
        return 1 if failed else 0

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = None
    if args.child == "traced":
        tracer = Tracer(make_hooks(convser))
        tracer.install(convser)
    runner = Runner(convser.cli, work, args.seed, scale, tracer)
    workload = WORKLOADS[args.workload](runner)
    try:
        if args.child:
            trace_path = WORK_ROOT / f"trace-{args.workload}-s{args.seed}.jsonl"
            out = child_pass(workload, args.child, trace_path)
            print(json.dumps(out))
            return 1 if out["failed"] else 0
        line = timed_run(workload, args.seconds)
        print(line)
        return 1 if runner.failed else 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
