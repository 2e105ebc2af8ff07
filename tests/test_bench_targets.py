"""Every function the benchmark's traced run wraps still exists.

`bench/tracing.py` wraps package functions by name; a renamed or removed
one would otherwise show only as a failed traced run.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


@pytest.fixture(scope="module")
def tracing():
    if not os.path.isfile(os.path.join(BENCH, "tracing.py")):
        pytest.skip("no bench/ directory in this checkout")
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_every_target_resolves(tracing):
    missing = []
    for owner_path, attr, span in tracing.TARGETS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:  # the tracer reads class members from the class __dict__
            raw = vars(getattr(owner, cls, object)).get(attr)
            raw = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            raw = getattr(owner, attr, None)
        if not callable(raw):
            missing.append(f"{owner_path}.{attr} ({span})")
    assert not missing, f"wrapped names that no longer resolve: {missing}"
