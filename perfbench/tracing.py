"""Call-site wrappers around the library's public entry points.

Nothing under ``src/`` is edited: each wrapper replaces a module attribute
(or a ``LaurentPoly`` method) at the place where callers look it up, and is
removed again by ``Patches.undo``.  Two kinds are installed:

* ``LhsCapture`` keeps the left-hand side handed to ``poly_comparison``, so
  every timed request can be digested after its timer stops;
* ``Tracer.install`` records one span per call at every layer entry point:
  name, start, end, parent span and request ID, in flat arrays kept in
  memory and written out when the run ends.

Self time is a span's duration minus the durations of its direct children;
calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

from superchar import folding, laurent, lr, report, schur, verify
from superchar.laurent import LaurentPoly

from metrics import VERIFY_CHECKS

# Span name -> every (module, attribute) through which callers reach it.
FUNCTION_SITES = {
    "laurent.det": [(laurent, "det"), (schur, "det")],
    "laurent.divide_linear": [(laurent, "divide_linear"), (schur, "divide_linear")],
    "schur.h_list": [(schur, "h_list")],
    "schur.super_schur": [(schur, "super_schur"), (folding, "super_schur")],
    "schur.bracket_schur": [(schur, "bracket_schur"), (folding, "bracket_schur")],
    "schur.schur_in_table": [(schur, "schur_in_table")],
    "schur.schur_expand": [(schur, "schur_expand")],
    "lr.lr_coeff": [(lr, "lr_coeff"), (folding, "lr_coeff")],
    "folding.kr_supercharacter": [(folding, "kr_supercharacter")],
    "folding.decomposition_rhs": [(folding, "decomposition_rhs")],
    "folding.general_dc_check": [(folding, "general_dc_check")],
    "report.poly_comparison": [
        (report, "poly_comparison"),
        (verify, "poly_comparison"),
        (folding, "poly_comparison"),
    ],
    "report.suite_to_json": [(verify, "suite_to_json")],
    **{f"verify.{name}": [(verify, name)] for name in VERIFY_CHECKS},
}

# Span name -> LaurentPoly methods.  Subtraction is its own span; it calls
# __add__ underneath, so every subtraction also yields one add span.
METHOD_SITES = {
    "laurent.mul": ("__mul__", "__rmul__"),
    "laurent.add": ("__add__", "__radd__"),
    "laurent.sub": ("__sub__", "__rsub__"),
    "laurent.map_terms": ("map_terms",),
}

# Memo caches whose hit and miss counts are read around each call.
CACHED = {
    "schur.h_list": schur._h_list_cached,
    "schur.super_schur": schur.super_schur,
    "schur.bracket_schur": schur.bracket_schur,
    "lr.lr_coeff": lr.lr_coeff,
}

MEMO_CACHES = (
    schur._h_list_cached,
    schur.super_schur,
    schur.bracket_schur,
    schur.bracket_schur_altform,
    schur._bialternant_in,
    lr.lr_coeff,
)


def cache_entries() -> int:
    """Entries held by the memo caches right now."""
    return sum(fn.cache_info().currsize for fn in MEMO_CACHES)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _keep_cache_api(wrapper, fn):
    # clear_caches() reaches the memo caches through the patched names.
    for attr in ("cache_clear", "cache_info"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


class LhsCapture:
    """Holds the left-hand side of the latest exact comparison."""

    def __init__(self):
        self.lhs = None

    def install(self, patches: Patches) -> None:
        real = report.poly_comparison

        def poly_comparison(check_id, params, lhs, rhs):
            self.lhs = lhs
            return real(check_id, params, lhs, rhs)

        for owner, attr in FUNCTION_SITES["report.poly_comparison"]:
            patches.set(owner, attr, poly_comparison)


class Tracer:
    """In-memory span recorder for the wrapped entry points."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, cache=None, pairs: bool = False):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, counts = self._stack, self.counts
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, requests = self.parent, self.request
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pairs:
                other = args[1]
                counts["laurent.mul.term_pairs"] += len(args[0]) * (
                    len(other) if isinstance(other, LaurentPoly) else 1
                )
            if cache is not None:
                before = cache.cache_info()
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if cache is not None:
                    after = cache.cache_info()
                    counts[f"{name}.hits"] += after.hits - before.hits
                    counts[f"{name}.misses"] += after.misses - before.misses

        return _keep_cache_api(wrapper, fn)

    def install(self, patches: Patches) -> None:
        for name, sites in FUNCTION_SITES.items():
            owner, attr = sites[0]
            wrapped = self._wrap(name, owner.__dict__[attr], cache=CACHED.get(name))
            for owner, attr in sites:
                patches.set(owner, attr, wrapped)
        for name, methods in METHOD_SITES.items():
            for method in methods:
                fn = LaurentPoly.__dict__[method]
                patches.set(LaurentPoly, method, self._wrap(name, fn, pairs=name == "laurent.mul"))

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name_id[i]]]
            agg["calls"] += 1
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: name, start, end, parent, request."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.request[i]}\n"
                )
