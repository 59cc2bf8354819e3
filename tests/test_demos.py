"""Every Python demo runs to completion against the current library.

Demo 03, the sp-vs-asp comparison, is the slowest (about 10 s). The shell
demo 05 runs in ``test_cli``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_tape_basics.py", "02_lstm_sentiment.py",
                                  "03_adversarial_multitask.py", "04_transfer.py"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
