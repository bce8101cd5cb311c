"""Smoke test of the benchmark harness itself, at `--smoke` scale (2,000 x 32).

Runs the real command in fresh processes: all four workloads end to end and
a traced run (twice, for the repeatability of the counted metrics).  Checks
the output contract of BENCHMARK.json, not performance.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units of the per-layer metrics that count work and so repeat exactly for a
#: fixed seed; every other per-layer metric depends on timing.
EXACT_UNITS = {"count", "B", "B/B", "MB", "rows/row"}


def run(workload: str, trace: int, tmp_path: pathlib.Path) -> tuple[dict, str]:
    """One benchmark process; its last-line result and its whole output."""
    out = tmp_path / f"{workload}-{trace}.json"
    # Output goes to files, not pipes, so that waiting for the command is not
    # also waiting for whatever it started; its own session makes those findable.
    with open(tmp_path / "stdout", "w+") as stdout, open(tmp_path / "stderr", "w+") as stderr:
        process = subprocess.Popen(
            [
                sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
                "--seed", "11", "--seconds", "0.3", "--trace", str(trace), "--out", str(out),
            ],  # fmt: skip
            stdout=stdout,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            returncode = process.wait(timeout=120)
        finally:
            survivors = session_members(process.pid)
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
        stdout.seek(0), stderr.seek(0)
        output, errors = stdout.read(), stderr.read()
    assert returncode == 0, output + errors
    assert not survivors, f"the run left processes behind: {survivors}"
    result = json.loads(output.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(out.read_text())["metrics"] == result["metrics"]
    return result, output


def session_members(session: int) -> list[int]:
    """PIDs still in `session` (Linux /proc), the waited-for leader aside."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit() and int(entry.name) != session:
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # ended while we were looking
                continue
            # "pid (comm) state ppid pgrp session ..."
            if int(stat.rpartition(")")[2].split()[3]) == session:
                members.append(int(entry.name))
    return members


def leftovers() -> set[str]:
    """Shared-memory segments and scratch stores a run must not leave behind."""
    shm = pathlib.Path("/dev/shm")
    segments = {str(p) for p in shm.glob("repro_shm_*")} if shm.is_dir() else set()
    return segments | {str(p) for p in (BENCH / "out").glob("scratch-*")}


def check_declared(result: dict, output: str, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        # Printed by name with its unit, not only inside the JSON line.
        assert re.search(rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$",
                         output, re.MULTILINE)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_every_declared_metric(workload, tmp_path):
    before = leftovers()
    result, output = run(workload, 0, tmp_path)
    check_declared(result, output, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert leftovers() == before


def test_traced_run_reports_every_layer_metric_and_counts_repeat(tmp_path):
    before = leftovers()
    first, output = run("live_updates", 1, tmp_path)
    second, _ = run("live_updates", 1, tmp_path)
    check_declared(first, output, SPEC["per_layer"])
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert len(counted) >= 12
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    spans = (BENCH / "out" / "trace-live_updates.jsonl").read_text().splitlines()
    assert {"id", "name", "layer", "start", "end", "parent", "request"} <= set(json.loads(spans[0]))
    assert leftovers() == before


def test_work_tree_stays_clean():
    """Everything a run writes is ignored by git (bench/out/, bytecode)."""
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    status = subprocess.run(
        ["git", "status", "--short", "--", "bench"], cwd=ROOT, capture_output=True, text=True
    )
    untracked_outputs = [line for line in status.stdout.splitlines() if "bench/out" in line]
    assert not untracked_outputs, status.stdout
