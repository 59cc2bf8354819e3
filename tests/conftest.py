import gc
import glob
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def no_cycle_collector():
    """Run the test with the cycle collector off: only reference counting frees objects."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="session", autouse=True)
def no_process_left():
    """End the fold helper after the session, then check that no child process is left.

    The children are read from ``/proc/self/task/*/children``; where the
    kernel has no such file, nothing is checked.
    """
    yield
    from advmtl import processes

    processes._stop_helper()
    children = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            children.update(fh.read().split())
    assert not children, f"child processes left running: {sorted(children, key=int)}"
