"""Request pools, seeded stratified sampling and request execution.

A request is a plain tuple of JSON-friendly values; ``request_key`` turns it
into the string that indexes the pinned digests.  A request's call
arguments (cases, branches, alphabets) are built before its timer starts,
so the timed call passes only ready-made inputs to the library.

Kinds of request, each run as the matching ``superchar`` subcommand would:

    ("fold", tag, r, s, branch, a, m)        fold --branch (verify_decomposition)
    ("cauchy", kind, nx, ny, nT, degmax)     verify --check <cauchy kind>
    ("sum", kind, nT, degmax)                verify --check <classical sum>
    ("power_det", m)                         verify --check power_det
    ("dc", relation, lam, nx, ny, xi)        verify --check <dc relation>
"""

from __future__ import annotations

import hashlib
import json
import random

from superchar import folding, verify
from superchar.partitions import in_hook, partitions_upto

FOLD_MAX_RANK = 3
FOLD_MAX_AM = 4


def request_key(req: tuple) -> str:
    return json.dumps(req, separators=(",", ":"))


def fold_pool() -> list[tuple]:
    """Every in-hook decomposition request with r+s <= 3 and a, m <= 4."""
    out = []
    for case in verify.fold_cases(FOLD_MAX_RANK):
        M, N = folding.ambient_hook(case)
        for branch in folding.branches(case):
            for a in range(1, FOLD_MAX_AM + 1):
                for m in range(1, FOLD_MAX_AM + 1):
                    if in_hook((m,) * a, M, N):
                        out.append(("fold", case.tag.value, case.r, case.s, branch.name, a, m))
    return out


def identity_pool() -> list[tuple]:
    """Single identity checks from the four pools of ``superchar verify``.

    power_det m=7 is left out: one such request takes minutes.
    """
    out = []
    for kind in verify.CAUCHY_KINDS:
        for nx in range(3):
            for ny in range(3):
                for nT in range(1, 4):
                    for degmax in (7, 8):
                        out.append(("cauchy", kind, nx, ny, nT, degmax))
    for kind in verify.SUM_KINDS:
        for nT in range(1, 6):
            for degmax in range(11):
                out.append(("sum", kind, nT, degmax))
    for m in range(1, 7):
        out.append(("power_det", m))
    lams = partitions_upto(7)
    for relation in folding.DC_RELATIONS:
        xis = (1, -1) if relation in folding.XI_RELATIONS else (1,)
        for lam in lams:
            for nx in range(4):
                for ny in range(3):
                    for xi in xis:
                        out.append(("dc", relation, list(lam), nx, ny, xi))
    return out


# How each request workload samples its pool (see ``plan``): the requests
# run in every round, the size of the top stratum, then (end rank, stratum
# size) segments over the rest of the pool in order of falling cost.
SAMPLING = {
    # Top stratum: the six costliest requests, all rank-3 4x4 rectangles.
    # The 45 requests around the 90th percentile (pool ranks 126-170) and the
    # 300 around the median (ranks 556-855) run in every round, so neither
    # quantile rests on one or two sampled requests; strata of 2 to 8
    # elsewhere.
    "fold_requests": {"pool": "fold", "take_all": 0, "head": 6,
                      "segments": ((100, 8), (120, 4), (165, 1), (300, 3), (550, 2),
                                   (850, 1), (None, 2))},
    # Every round: power_det m=6 and schur_sum nT=5 degmax=10, the two
    # costliest checks (3.4 s and 1.1 s pinned; the next costs 0.8 s).
    "identity_requests": {"pool": "identity", "take_all": 2, "head": 0,
                          "segments": ((None, 5),)},
}


def strata(pool: list[tuple], cost: dict[str, float], take_all: int, head: int,
           segments: tuple) -> list[list[tuple]]:
    """Cut the pool, sorted by pinned cost, into strata of neighbouring cost."""
    ranked = sorted(pool, key=lambda r: (-cost[request_key(r)], request_key(r)))
    out = [[r] for r in ranked[:take_all]]
    rest = ranked[take_all:]
    if head:
        out.append(rest[:head])
        rest = rest[head:]
    start = 0
    for end, size in segments:
        part = rest[start:end]
        out += [part[i : i + size] for i in range(0, len(part), size)]
        start = len(rest) if end is None else end
    return out


def plan(workload: str, seed: int, pinned: dict) -> list[tuple[tuple, int]]:
    """One seeded round of (request, weight), one request from every stratum.

    A request's weight is the size of its stratum: the number of pool
    requests it stands for, so weighted figures describe the whole pool.
    Strata come in pairs that draw from opposite ends (balanced systematic
    sampling): a costly pick in one stratum goes with a cheap pick in its
    neighbour, so every seed's round carries nearly the same work and the
    same spread of request sizes.  The round is shuffled.
    """
    spec = SAMPLING[workload]
    pins = pinned[spec["pool"]]
    pool = fold_pool() if spec["pool"] == "fold" else identity_pool()
    cost = {key: value[1] for key, value in pins.items()}
    layers = strata(pool, cost, spec["take_all"], spec["head"], spec["segments"])
    rng = random.Random(seed)
    rnd = []
    for j in range(0, len(layers), 2):
        u = rng.random()
        rnd.append((layers[j][int(u * len(layers[j]))], len(layers[j])))
        if j + 1 < len(layers):
            n = len(layers[j + 1])
            rnd.append((layers[j + 1][min(int((1 - u) * n), n - 1)], n))
    rng.shuffle(rnd)
    return rnd


def prepare(req: tuple) -> tuple:
    """(module, function name, args) for the request, with every input built.

    The function is looked up on its module at call time, so a call-site
    wrapper installed after ``prepare`` still sees the call.
    """
    kind = req[0]
    if kind == "fold":
        _, tag, r, s, branch, a, m = req
        case = folding.FoldingCase(folding.FoldingTag(tag), r, s)
        args = (case, folding.get_branch(case, branch), a, m)
        return folding, "verify_decomposition", args
    if kind == "cauchy":
        _, check, nx, ny, nT, degmax = req
        X, Y, _ = verify.cauchy_alphabets(nx, ny, nT)
        return verify, "cauchy_check", (check, X, Y, nT, degmax)
    if kind == "sum":
        _, check, nT, degmax = req
        return verify, "littlewood_sum_check", (check, nT, degmax)
    if kind == "power_det":
        return verify, "power_det_check", (req[1],)
    if kind == "dc":
        _, relation, lam, nx, ny, xi = req
        X, Y, _ = verify.cauchy_alphabets(nx, ny, 1)
        return folding, "general_dc_check", (relation, tuple(lam), X, Y, xi)
    raise ValueError(f"unknown request kind {kind!r}")


def call(prepared: tuple):
    module, name, args = prepared
    return getattr(module, name)(*args)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lhs_digest(poly) -> str:
    """Digest of a request's serialized character (the compared left side)."""
    return digest(poly.to_json())[:32]
