"""Interleaved pairs of benchmark runs, parent against change, summarised.

    python tools/bench_pairs.py --parent REV [--pairs N] [--seed S] \\
        [--seconds T] [--workload W ...] --out BENCH_<n>.json

The parent is ``git archive REV`` and the change is this working tree, both
taken once at the start (``src/``, ``bench/`` and ``BENCHMARK.json``).  Every
run gets a fresh temporary copy of its side and a fresh process of the command
``BENCHMARK.json`` names, with ``--workload W --seed S --seconds T --trace 0``.  Pair
``i`` runs the parent first when ``i`` is even and the change first when it
is odd, and all pairs of one workload run before the next workload.

For each end-to-end metric ``BENCHMARK.json`` names, the output holds each
side's median and inclusive quartiles, the change's median over the
parent's, the pairs each side won (ties count for neither), the parent's
interquartile range over its median, ``unresolved_by_spread`` when that range
is wider than the metric's bound, and the raw values in run order: the
layout of ``BENCH_26.json``.  The tool reports; it judges no claim.  Defaults:
10 pairs, seed 29, the benchmark's ``run_seconds``, every workload.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "bench", "BENCHMARK.json")
SIDES = ("parent", "change")


def summarize(spec, parent, change, first_side):
    """One metric's row from its declaration in BENCHMARK.json and the
    parent's and change's values, pair by pair."""
    sign = 1 if spec["better"] == "higher" else -1
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "change_over_parent": cm / pm if pm else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "parent_iqr_over_median": (p3 - p1) / abs(pm) if pm else None,
        "unresolved_by_spread": p3 - p1 > spec["bound"] * abs(pm),
        "parent_values": list(parent), "change_values": list(change),
        "first_side": list(first_side),
    }


def summarize_workload(specs, runs, first_side):
    """``runs[side]`` is the list of that side's run results, pair by pair;
    ``specs`` the end-to-end declarations of BENCHMARK.json."""
    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    every = runs["parent"] + runs["change"]
    return {
        "exit_codes": sorted({r["exit_code"] for r in every}),
        "correct": all(r["correct"] for r in every),
        "metrics": {s["name"]: summarize(s, values("parent", s["name"]),
                                         values("change", s["name"]), first_side)
                    for s in specs},
    }


def snapshot(rev, dest: Path) -> str:
    """Copy the parent (``git archive rev``) and this working tree to ``dest``;
    the parent's short commit hash."""
    git = ["git", "-C", str(ROOT)]
    tar = subprocess.run([*git, "archive", "--format=tar", rev, *TREE],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest / "parent", filter="data")
    for name in TREE:
        src, dst = ROOT / name, dest / "change" / name
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return subprocess.run([*git, "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def bench_command(bench, args, workload) -> list[str]:
    """The command ``BENCHMARK.json`` names, for one untraced run of ``workload``."""
    return [*bench["command"], "--workload", workload, "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}", "--trace", "0"]


def run_once(tree: Path, cmd, seconds):
    """One run of ``cmd`` in a fresh copy of ``tree``; its result line and exit code."""
    with tempfile.TemporaryDirectory(prefix="bench-run-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy)
        done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                              timeout=600 + 20 * seconds)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} on {tree.name} printed no result "
                 f"(exit {done.returncode}): {done.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "exit_code": done.returncode}


def main(argv=None) -> int:
    # Stopped, the tool leaves through SystemExit: subprocess.run kills the bench
    # run it waits on, and both temporary trees are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=29)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    workloads = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = Path(tmp)
        rev = snapshot(args.parent, trees)
        for workload in args.workload:
            runs, first_side = {side: [] for side in SIDES}, []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first_side.append(order[0])
                for side in order:
                    runs[side].append(run_once(trees / side, bench_command(bench, args, workload),
                                               args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{s} tokens_per_s {runs[s][-1]['metrics']['tokens_per_s']['value']:.6g}"
                    for s in SIDES), file=sys.stderr)
            workloads.append({
                "workload": workload, "seed": args.seed, "pairs": args.pairs,
                **summarize_workload(bench["end_to_end"], runs, first_side)})
    report = {
        "command": " ".join(bench_command(bench, args, "W")),
        "parent": f"{rev} (git archive of {args.parent})",
        "change": "the working tree",
        "method": f"{args.pairs} interleaved pairs per workload by tools/bench_pairs.py, "
                  "parent first in even pairs; each run a fresh process in a fresh copy of "
                  "its tree's src/, bench/ and BENCHMARK.json; quartiles by the inclusive "
                  "method; a win is a pair in which that side reads better, ties count for "
                  "neither; unresolved by spread when the parent's interquartile range, "
                  "over its median, is wider than the metric's BENCHMARK.json bound",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                   f"Python {platform.python_version()}, 1 BLAS thread (bench/run.py pins it)",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for w in report["workloads"]:
        for name, m in w["metrics"].items():
            print(f"{w['workload']:<10} {name:<16} {m['parent']['median']:>12.6g} "
                  f"{m['change']['median']:>12.6g}  wins {m['change_wins']}-{m['parent_wins']}"
                  + ("  unresolved by spread" if m["unresolved_by_spread"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
