"""desklm benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload prep --seed 1 --seconds 30 --trace 0

Set-up builds the workload's inputs from ``--seed`` (repeated, and its
median reported as ``setup_s``); then iterations of the workload run back
to back for about ``--seconds``, each checked for correctness outside its
timed region.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the
per-layer metrics, from a run that alternates untraced and traced
iterations so the tracing overhead is measured in the same process.

End-to-end metrics, each measured on every workload:

* ``wall_s``: median seconds of one iteration.
* ``tokens_per_s``: median throughput of the token-processing stage:
  encode (cold tokenizer load included) on prep, all three widths'
  training on sweep, ``trainer.train`` (checkpoints and spike checks
  included) on train-eval.
* ``bits_per_byte``: code length of the workload's data under its model:
  the unigram entropy of the packed tokens on prep, the widest width's
  final smoothed training loss on sweep, the direct-average eval BPB on
  train-eval.  Fixed for a seed while the arithmetic is unchanged.
* ``tokens_per_byte``: tokenizer compression of the kept corpus (prep),
  the training rows (sweep) or the eval sets (train-eval).
* ``peak_rss_mb``: peak resident set of this process plus its children.
* ``ok_frac``: 1 - failed / attempted operations (steps, round trips,
  eval domains, gradient coordinates).

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the program cannot be loaded.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads.  Two threads on a
# two-core box buy a 6-15% faster step for ~1.9 cores of CPU, add noise
# on a shared machine and would hide a process-pool gain.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INHERITED_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "tokens_per_s": "tokens/s",
             "bits_per_byte": "bits/byte", "tokens_per_byte": "ratio",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}


def load_program():
    """Import desklm from this checkout's sources, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import desklm
    except ImportError as e:
        print(f"bench: cannot import desklm from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(desklm.__file__).resolve().parent.parent != SRC:
        print(f"bench: desklm resolved to {desklm.__file__}, not under {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "inherited_threads": INHERITED_THREADS}


def cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@dataclass
class Measured:
    setup_s: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)
    iters: list = field(default_factory=list)       # (Iteration, traced?)
    traced: list = field(default_factory=list)      # Spans of traced iterations
    plain_wall: list = field(default_factory=list)  # untraced, warm-up excluded
    plain_cpu: list = field(default_factory=list)
    finish: tuple = (0, 0, [])


def measure(wl, args, tracer, targets) -> Measured:
    """Set up SETUP_REPEATS times, then iterate for about args.seconds.

    In a traced run, iteration 0 warms up, then traced (odd) and untraced
    (even) iterations alternate.
    """
    import layers
    from tracing import NullTracer

    trace = tracer is not None
    m = Measured()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        for k in range(SETUP_REPEATS):
            work = work_root / f"setup{k}"
            work.mkdir()
            first = len(tracer.spans) if trace else 0
            t0 = perf_counter()
            with (tracer.installed(targets, "setup", f"setup-{k}") if trace else nullcontext()):
                st = wl.setup(args.seed, work)
            m.setup_s.append(perf_counter() - t0)
            if trace:
                m.setup_spans.append(layers.Spans(tracer.tree(first, len(tracer.spans))))

        start = perf_counter()
        while True:
            k = len(m.iters)
            traced_now = trace and k % 2 == 1
            first = len(tracer.spans) if trace else 0
            c0 = cpu_seconds()
            with (tracer.installed(targets, "iteration", f"iter-{k}") if traced_now
                  else nullcontext()):
                out = wl.run(st, tracer if traced_now else NullTracer())
            c1 = cpu_seconds()
            it = wl.check(st, out)
            m.iters.append((it, traced_now))
            if traced_now:
                m.traced.append(layers.Spans(tracer.tree(first, len(tracer.spans))))
            elif k > 0 or not trace:
                m.plain_wall.append(it.wall)
                m.plain_cpu.append(c1 - c0)
            elapsed = perf_counter() - start
            enough = len(m.iters) >= (3 if trace else 1)
            if enough and elapsed + statistics.median(i.wall for i, _ in m.iters) > args.seconds:
                break
        m.finish = wl.finish(st)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:   # another run still has its directory there
            pass
    return m


def layer_report(m: Measured, args, tracer):
    import layers

    facts = [it.facts for it, traced in m.iters if traced]
    metrics = layers.run_metrics(m.traced, facts, m.setup_spans)
    nproc = len(os.sched_getaffinity(0))
    metrics["proc.cpu_util"] = sum(m.plain_cpu) / (sum(m.plain_wall) * nproc)
    traced_wall = statistics.median(i.wall for i, t in m.iters if t)
    plain_wall = statistics.median(m.plain_wall)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    units = {k: v[0] for k, v in layers.METRICS.items()}
    notes = {k: v[1] for k, v in layers.METRICS.items()}
    notes.update(layers.ratio_bases(m.traced, facts))
    notes["proc.cpu_util"] = (f"{sum(m.plain_cpu):.2f} CPU s / ({sum(m.plain_wall):.2f} s "
                              f"x {nproc}), over {len(m.plain_wall)} untraced iterations")
    print_table(metrics, units, notes)
    print(f"tracing overhead on {args.workload}: {traced_wall - plain_wall:+.4f} s per "
          f"iteration ({traced_wall:.4f} s traced vs {plain_wall:.4f} s untraced)")
    return metrics, units


def end_to_end_report(m: Measured, failed: int, attempted: int):
    first = m.iters[0][0]
    metrics = {
        "setup_s": statistics.median(m.setup_s),
        "wall_s": statistics.median(it.wall for it, _ in m.iters),
        "tokens_per_s": statistics.median(it.stage_tokens / it.stage_s for it, _ in m.iters),
        "bits_per_byte": first.bits_per_byte,
        "tokens_per_byte": first.tokens_per_byte,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    print_table(metrics, E2E_UNITS, {})
    print(f"iterations: {len(m.iters)}, wall s: "
          + " ".join(f"{it.wall:.3f}" for it, _ in m.iters)
          + "; set-ups: " + " ".join(f"{s:.3f}" for s in m.setup_s))
    return metrics, E2E_UNITS


def run(args) -> int:
    import layers
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    m = measure(wl, args, tracer, layers.targets() if args.trace else None)

    end_attempted, end_failed, end_problems = m.finish
    problems = [p for it, _ in m.iters for p in it.problems] + end_problems
    if len({it.digest for it, _ in m.iters}) != 1:
        problems.append(f"outputs differ across the {len(m.iters)} iterations of one run")
    attempted = sum(it.attempted for it, _ in m.iters) + end_attempted
    failed = sum(it.failed for it, _ in m.iters) + end_failed

    if args.trace:
        metrics, units = layer_report(m, args, tracer)
        want = declared("per_layer")
    else:
        metrics, units = end_to_end_report(m, failed, attempted)
        want = declared("end_to_end")
    got = {k: units.get(k) for k in metrics}
    if got != want:
        problems.append(f"metrics {sorted(set(got.items()) ^ set(want.items()))} "
                        "differ from BENCHMARK.json")
    for k, v in metrics.items():
        if not math.isfinite(v):
            problems.append(f"metric {k} is {v}")
            metrics[k] = None
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": got[k]} for k in sorted(metrics)}}))
    return 1 if problems else 0


def print_table(metrics, units, notes):
    for k in sorted(metrics):
        v = metrics[k]
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<42} {v:>14.6g} {units[k]:<9}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("prep", "sweep", "train-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
