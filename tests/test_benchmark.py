"""Guard for the benchmark under ``perfbench/``: one traced run at tiny
input sizes must finish and pass its own output checks.  The traced run
wraps ``CheckpointStore`` entry points, the components driver gate and
the public stage builders by name, so renaming or deleting any of them
fails here instead of in a benchmark run.  Both benchmark workloads run:
``cold_disk`` covers the disk-mode checkpointed stages, ``dup_heavy`` the
memory-mode edge stages fused into the pairs stage."""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_run_succeeds():
    _traced_run("cold_disk")


def test_traced_benchmark_dup_heavy_run_succeeds():
    _traced_run("dup_heavy")


def _traced_run(workload: str) -> None:
    # The benchmark caches under ``.bench_cache/`` of its working directory
    # and puts Ray's session files there only when that path fits Ray's
    # socket-path limit, so run it from a short temp dir, never the repo.
    cwd = tempfile.mkdtemp(prefix="pb-")
    try:
        p = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", "1", "--tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=600,
        )
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
