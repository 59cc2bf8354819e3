"""The benchmark harness runs end to end on the library's public calls."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_desk_workload_runs_correctly():
    proc, result = _run("desk-asp", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert "probability check skipped" not in proc.stdout


def test_traced_desk_workload_reads_every_gradient():
    # the tracer reads nbytes, size, itemsize and count_nonzero of each gradient
    proc, result = _run("desk-asp", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    # only the three hooks known to be stale go unmeasured: a refactor that
    # unhooks another (models.bind, models.copy, ...) fails here instead of
    # quietly zeroing a per-layer metric
    report = next(json.loads(line[len("report "):]) for line in proc.stdout.splitlines()
                  if line.startswith("report "))
    assert set(report["unmeasured"]) == {"losses.adversarial_loss", "models.forward_shared",
                                         "nn.lstm_encode"}


def test_read_path_workload_runs_correctly():
    # batched inference: evaluate's error rates equal the reference's
    proc, result = _run("eval-probe", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert "probability check skipped" not in proc.stdout


def test_paper_workload_runs_correctly():
    # the one tier-1 run of the LSTM kernel at d = 200, checked against reference.py
    proc, result = _run("paper-asp", trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert "probability check skipped" not in proc.stdout
