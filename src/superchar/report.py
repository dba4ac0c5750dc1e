"""Structured pass/fail records shared by the verification layers."""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .laurent import LaurentPoly

# json.dumps with keyword arguments builds a JSONEncoder per call; these are
# the encoders it would build, made once.
_REPORT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_PARAMS_KEY = json.JSONEncoder(sort_keys=True, default=str)


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    params: dict
    passed: bool
    witness: object = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("a passing report carries no witness")
        if not self.passed and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self) -> dict:
        out = {"id": self.check_id, "params": self.params, "pass": self.passed}
        if self.witness is not None:
            witness = self.witness
            if isinstance(witness, LaurentPoly):
                witness = witness.to_json_dict()
            out["witness"] = witness
        return out

    def to_json(self) -> str:
        return _REPORT_JSON.encode(self.to_json_dict())

    def sort_key(self) -> tuple[str, str]:
        return (self.check_id, _PARAMS_KEY.encode(self.params))


def poly_comparison(check_id: str, params: dict, lhs, rhs) -> VerificationReport:
    """Report exact equality of two polynomials, witnessing the difference.

    Equal sides pass on one comparison of their terms; only a failing
    comparison forms lhs - rhs.
    """
    if lhs == rhs:
        return VerificationReport(check_id, params, True)
    return VerificationReport(check_id, params, False, witness=lhs - rhs)


def _first_failures(
    reports: list[tuple[str, dict]], failures: Iterator[tuple[str, object]]
) -> list[VerificationReport]:
    """One report per ``(check_id, params)`` pair, witnessing its first failure.

    ``failures`` yields ``(check_id, witness)`` for each failing instance in
    enumeration order.  It is always exhausted, so every instance is evaluated
    even after a check's first failure.
    """
    ids = {check_id for check_id, _ in reports}
    first: dict[str, object] = {}
    for check_id, witness in failures:
        if check_id not in ids:
            raise ValueError(f"failure under unreported check {check_id!r}")
        first.setdefault(check_id, witness)
    return [
        VerificationReport(check_id, params, check_id not in first, first.get(check_id))
        for check_id, params in reports
    ]


def value_comparison(check_id: str, params: dict, expected, actual) -> VerificationReport:
    if expected == actual:
        return VerificationReport(check_id, params, True)
    return VerificationReport(
        check_id, params, False, witness={"expected": str(expected), "actual": str(actual)}
    )
