"""The names the benchmark's tracer patches must exist where it looks them up.

``perfbench/tracing.py`` replaces module attributes through
``owner.__dict__[attr]``, so a renamed or deleted seam would break only the
traced benchmark.  These tests import the tracer and check every site.
"""

import sys
from pathlib import Path

import pytest

from superchar.laurent import LaurentPoly

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return tracing


def test_function_sites_exist(tracing):
    for name, sites in tracing.FUNCTION_SITES.items():
        for owner, attr in sites:
            assert attr in owner.__dict__, (name, owner.__name__, attr)


def test_method_sites_exist(tracing):
    for name, methods in tracing.METHOD_SITES.items():
        for method in methods:
            assert method in LaurentPoly.__dict__, (name, method)


def test_memo_caches_keep_their_api(tracing):
    for fn in tracing.MEMO_CACHES:
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), fn
