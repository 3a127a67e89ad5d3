"""Every output of the benchmark's default-seed batches against its
recorded digest.

`perfbench/run.py` checks each task's output against
`perfbench/reference.json` (and its certificate) only while a timed run
goes.  This test runs one untimed pass of the default-seed batch of each
workload through the same `run.Checker` and fails on any task it
refuses, so a changed output shows up here first.  The pass runs in a
subprocess because `run.import_library` imports `zinbiel` afresh; the
problem files go to a temporary directory and nothing under perfbench/
is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# one pass of one workload's default-seed batch, checked: prints the
# number of tasks run and the (task id, reason) of each failure
_PASS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
workload = sys.argv[2]
with tempfile.TemporaryDirectory() as workdir:
    lib, batch, _ = run.set_up(workload, run.workloads.DEFAULT_SEED,
                               Path(workdir))
    batch.write_files()
    checker = run.Checker(lib, batch, run.load_reference(workload))
    run.run_pass(lib, batch.tasks, checker)
print(json.dumps([checker.attempted, checker.failures]))
"""


@pytest.mark.parametrize("workload", ["cohomology", "session", "extend"])
def test_every_benchmark_output_matches_its_reference(workload, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _PASS, str(PERFBENCH), workload],
        capture_output=True, text=True, cwd=tmp_path, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    attempted, failures = json.loads(done.stdout.splitlines()[-1])
    assert attempted > 0
    assert failures == []
