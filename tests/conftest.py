import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves more threads running than it started with."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before, f"{after - before} thread(s) left running: {threading.enumerate()}"
