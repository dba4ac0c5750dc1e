"""Command-line front end.

Exit status: 0 on success (and on all-pass for checks), 1 when a requested
check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from fractions import Fraction

from . import folding, lr, verify, weights
from .laurent import VarTable
from .partitions import as_partition
from .schur import Alphabet, BracketType, bracket_schur


def parse_partition(text: str):
    if not text:
        return ()
    try:
        return as_partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_tokens(text: str) -> list[tuple[int, str | None, int]]:
    """Alphabet tokens: variable names, name^-1 inverses, +-1 constants, -name."""
    out = []
    if not text:
        return out
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise ValueError("empty alphabet token")
        sign = 1
        if token in ("1", "+1", "-1"):
            out.append((int(token), None, 0))
            continue
        if token.startswith("-"):
            sign = -1
            token = token[1:]
        power = 1
        if token.endswith("^-1"):
            power = -1
            token = token[: -len("^-1")]
        if not token.isidentifier():
            raise ValueError(f"bad alphabet token {raw!r}")
        out.append((sign, token, power))
    return out


def _build_alphabets(x_text: str, y_text: str) -> tuple[Alphabet, Alphabet]:
    x_tokens = _parse_tokens(x_text)
    y_tokens = _parse_tokens(y_text)
    names: list[str] = []
    for sign, name, power in x_tokens + y_tokens:
        if name is not None and name not in names:
            names.append(name)
    table = VarTable(names)

    def build(tokens) -> Alphabet:
        elems = []
        for sign, name, power in tokens:
            exps = [0] * len(table)
            if name is not None:
                exps[table.index[name]] = power
            elems.append((sign, tuple(exps)))
        return Alphabet(table, tuple(elems))

    return build(x_tokens), build(y_tokens)


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _frac(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def _cmd_char(args) -> int:
    X, Y = _build_alphabets(args.x, args.y)
    tag = BracketType(args.bracket)
    poly = bracket_schur(tag, args.lam, X, Y)
    _emit(poly.to_json() + "\n", args.out)
    return 0


def _cmd_fold(args) -> int:
    case = folding.FoldingCase(folding.FoldingTag(args.case), args.r, args.s)
    if args.branch is None:
        poly = folding.kr_supercharacter(case, args.a, args.m)
        payload = poly.to_json() + "\n" if args.json else str(poly) + "\n"
        _emit(payload, args.out)
        return 0
    branch = folding.get_branch(case, args.branch)
    report = folding.verify_decomposition(case, branch, args.a, args.m)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_lr(args) -> int:
    value = lr.lr_coeff(args.lam, args.mu, args.nu)
    if args.json:
        payload = json.dumps(
            {
                "lam": list(args.lam),
                "mu": list(args.mu),
                "nu": list(args.nu),
                "coefficient": value,
            }
        )
        _emit(payload + "\n", args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _cmd_weights(args) -> int:
    kind = weights.FamilyKind(args.family)
    if args.r is not None and kind in weights.FIXED_R:
        raise ValueError(f"--family {args.family} does not read --r")
    r = weights.FIXED_R.get(kind, 0 if args.r is None else args.r)
    family = weights.AlgebraFamily(kind, r, args.s)
    hw = weights.hw_from_diagram(family, args.lam)
    labels = weights.kd_labels(family, hw)
    payload = json.dumps(
        {
            "family": family.describe(),
            "lambda": list(args.lam),
            "highest_weight": [_frac(v) for v in hw],
            "kac_dynkin": [_frac(v) for v in labels],
            "finite_dimensional": weights.is_finite_dimensional(family, labels),
        }
    )
    _emit(payload + "\n", args.out)
    return 0


# The verify flags with their defaults; each check reads only some of them.
_VERIFY_DEFAULTS = {"nx": 1, "ny": 0, "nt": 2, "degmax": 4, "m": 2, "lam": (), "xi": 1}

# Each pool of verify checks: its check names, the flags it reads, and how to
# run one of its checks from the parsed flags.
_VERIFY_POOLS = (
    (verify.CAUCHY_KINDS, ("nx", "ny", "nt", "degmax"), lambda c, a: verify.cauchy_check(
        c, *verify.cauchy_alphabets(a.nx, a.ny, a.nt)[:2], a.nt, a.degmax)),
    (verify.SUM_KINDS, ("nt", "degmax"), lambda c, a: verify.littlewood_sum_check(
        c, a.nt, a.degmax)),
    (("power_det",), ("m",), lambda c, a: verify.power_det_check(a.m)),
    (folding.DC_RELATIONS, ("nx", "ny", "lam", "xi"), lambda c, a: folding.general_dc_check(
        c, a.lam, *verify.cauchy_alphabets(a.nx, a.ny, 1)[:2], a.xi)),
)


def _cmd_verify(args) -> int:
    check = args.check
    reads, run = next((reads, run) for names, reads, run in _VERIFY_POOLS if check in names)
    unread = [f for f in _VERIFY_DEFAULTS if f not in reads and getattr(args, f) is not None]
    if unread:
        flags = ", ".join("--" + name for name in unread)
        raise ValueError(f"--check {check} does not read {flags}")
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, _VERIFY_DEFAULTS[name])
    report = run(check, args)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    given = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(verify.SuiteConfig)
        if getattr(args, f.name) is not None
    }
    if args.config:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"--config takes no field flags, got {flags}")
        with open(args.config, "r", encoding="utf-8") as fh:
            config = verify.SuiteConfig.from_json_dict(json.load(fh))
    else:
        config = verify.SuiteConfig(**given)
    if args.persist:  # an unusable directory exits 2 before the battery runs
        os.makedirs(args.persist, exist_ok=True)
    reports = verify.run_suite(config)
    payload = verify.suite_to_json(reports)
    _emit(payload, args.out)
    if args.persist:
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
        with open(os.path.join(args.persist, f"suite-{stamp}.json"), "w") as fh:
            fh.write(payload)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact characters from folded alphabets, with an identity battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="one bracket character as JSON")
    p.add_argument("--lambda", dest="lam", type=parse_partition, default=(), metavar="PARTS")
    p.add_argument("--x", default="", help="comma-separated X alphabet tokens")
    p.add_argument("--y", default="", help="comma-separated Y alphabet tokens")
    p.add_argument("--bracket", choices=[t.value for t in BracketType], default="plain")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("fold", help="folded rectangle character or decomposition check")
    p.add_argument("--case", choices=[t.value for t in folding.FoldingTag], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--branch")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("lr", help="one Littlewood-Richardson coefficient")
    p.add_argument("--lam", type=parse_partition, required=True)
    p.add_argument("--mu", type=parse_partition, default=())
    p.add_argument("--nu", type=parse_partition, default=())
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("weights", help="highest weight and labels of a diagram")
    p.add_argument("--family", choices=sorted(k.value for k in weights.FamilyKind), required=True)
    p.add_argument("--r", type=int, help="default 0; an error for a family without r")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=parse_partition, default=())
    p.add_argument("--out")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("verify", help="run a single identity check")
    p.add_argument(
        "--check", choices=[c for names, _, _ in _VERIFY_POOLS for c in names], required=True
    )
    for name, default in _VERIFY_DEFAULTS.items():
        p.add_argument(
            "--" + name,
            type=parse_partition if name == "lam" else int,
            choices=(1, -1) if name == "xi" else None,
            help=f"default {default}; an error for a check that does not read it",
        )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run the whole battery")
    p.add_argument(
        "--config", help="JSON file mirroring the SuiteConfig fields; takes no field flags"
    )
    for field in dataclasses.fields(verify.SuiteConfig):
        flag = "--" + field.name.replace("_", "-")
        p.add_argument(flag, dest=field.name, type=int, help=f"default {field.default}")
    p.add_argument("--persist", help="directory for timestamped result copies")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except RecursionError:
        parser.exit(2, "error: input too large: recursion depth exceeded\n")
    except MemoryError:
        parser.exit(2, "error: input too large: out of memory\n")


if __name__ == "__main__":
    sys.exit(main())
