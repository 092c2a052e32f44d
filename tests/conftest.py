"""Test-wide settings.

Hypothesis runs with a fixed set of examples, no example database and no
deadline, so the results depend neither on a random seed nor on the speed
of the machine.  Each property test pins its examples with `@seed`: the
derandomized default seeds a test from its source text, so any edit to
its body would draw other examples.  Every test must also stop the
threads it starts: one left alive fails the test.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("cemhelm", derandomize=True, database=None, deadline=None)
settings.load_profile("cemhelm")


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")
