"""Fixtures shared by the test modules, and the one hypothesis profile."""

import tracemalloc

import pytest
from hypothesis import settings

# Every property test draws the same examples on every run, with no time
# limit per example; each test states only its own max_examples.
settings.register_profile("collapsar", derandomize=True, deadline=None)
settings.load_profile("collapsar")


def _traced(call):
    """Run ``call()`` under tracemalloc; give its result, the bytes it kept and its peak.

    Both counts are taken above the traced total when tracing started, so
    only what the call allocates is counted.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, live - base, peak - base


@pytest.fixture
def traced_memory():
    """The memory gates' one measurement: ``traced_memory(call) -> (result, live, peak)``."""
    return _traced
