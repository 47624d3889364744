"""tools/bench_pairs.py: its summary arithmetic on hand-made pairs, and its
cleanup when it is stopped."""
import argparse
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "tokens_per_s", "unit": "tokens/s", "better": "higher", "bound": 0.25}
FIRST = ["parent", "change", "parent", "change", "parent"]


def test_lower_is_better_quartiles_wins_ties_and_spread():
    row = bench_pairs.summarize(WALL, [1.0, 2.0, 3.0, 4.0, 5.0],
                                [0.5, 2.0, 2.5, 4.5, 4.0], FIRST)
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert row["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0}
    assert row["change_over_parent"] == pytest.approx(2.5 / 3.0)
    assert (row["change_wins"], row["parent_wins"]) == (3, 1)     # pair 2 ties
    assert row["parent_iqr_over_median"] == pytest.approx(2.0 / 3.0)
    assert row["unresolved_by_spread"]                            # 0.67 > 0.25
    assert row["parent_values"][3] == 4.0 and row["change_values"][3] == 4.5
    assert row["first_side"] == FIRST and row["bound"] == 0.25


def test_higher_is_better_interpolates_quartiles():
    row = bench_pairs.summarize(RATE, [100.0, 101.0, 102.0, 103.0],
                                [110.0, 100.0, 102.0, 120.0], FIRST[:4])
    assert row["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.25}
    assert (row["change_wins"], row["parent_wins"]) == (2, 1)
    assert not row["unresolved_by_spread"]                        # 1.5 / 101.5


def test_identical_sides_win_nothing_and_a_zero_median_has_no_ratio():
    row = bench_pairs.summarize(RATE, [0.0, 0.0], [0.0, 0.0], FIRST[:2])
    assert (row["change_wins"], row["parent_wins"]) == (0, 0)
    assert row["change_over_parent"] is None and row["parent_iqr_over_median"] is None
    assert not row["unresolved_by_spread"]


def test_workload_row_collects_exit_codes_and_correctness():
    def run(wall, code=0):
        return {"exit_code": code, "correct": code == 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    runs = {"parent": [run(1.0), run(2.0)], "change": [run(0.9), run(2.5, code=1)]}
    got = bench_pairs.summarize_workload([WALL], runs, FIRST[:2])
    assert got["exit_codes"] == [0, 1] and not got["correct"]
    assert got["metrics"]["wall_s"]["change_values"] == [0.9, 2.5]
    assert (got["metrics"]["wall_s"]["change_wins"],
            got["metrics"]["wall_s"]["parent_wins"]) == (1, 1)


def test_each_run_is_the_command_the_benchmark_names():
    bench = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    args = argparse.Namespace(seed=29, seconds=30.0)
    assert bench_pairs.bench_command(bench, args, "sweep") == [
        *bench["command"], "--workload", "sweep", "--seed", "29", "--seconds", "30",
        "--trace", "0"]


# Runs the tool's main on two trees whose bench/run.py (argv[3]) only sleeps.
DRIVER = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

def snapshot(rev, dest):
    for side in tool.SIDES:
        (dest / side / "bench").mkdir(parents=True)
        (dest / side / "bench" / "run.py").write_text(sys.argv[3])
    return rev

tool.snapshot = snapshot
sys.exit(tool.main(["--parent", "HEAD", "--workload", "prep", "--out", sys.argv[2]]))
"""
STUB = "import os, time\nopen(os.environ['STUB_PID'], 'w').write(str(os.getpid()))\ntime.sleep(60)\n"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_removes_the_temporary_trees_and_stops_the_bench_run(tmp_path):
    tmp, pid_file = tmp_path / "tmp", tmp_path / "stub.pid"
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp), "STUB_PID": str(pid_file)}
    tool = subprocess.Popen([sys.executable, "-c", DRIVER, str(TOOL), str(tmp_path / "out.json"),
                             STUB], env=env)
    stub = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline and tool.poll() is None, "no bench run started"
            time.sleep(0.05)
        stub = int(pid_file.read_text())
        assert len(list(tmp.glob("bench-run-*"))) == 1
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp.iterdir()) == []
        assert not _alive(stub)
    finally:
        tool.kill()
        tool.wait(timeout=30)
        if stub is not None and _alive(stub):
            os.kill(stub, signal.SIGKILL)
