"""Command-line front end.

Every verb maps to one library operation or scan:

    expand          Borel closure of a monomial under an exponent cap
    power           generators of the k-th power of a squarefree expansion
    localize        localized generator and ideal at a variable subset
    colon-profile   linear-quotient colon sets, q, depth, depth-zero flag
    lambda          stability index of the maximal ideal
    ever-associated whether the maximal ideal is ever associated
    stable-set      stable set of associated primes (members by default)
    ass             brute-force associated primes of the first powers
    persist         persistence check Ass(I^k) within Ass(I^{k+1})
    validate        every closed form cross-checked against the oracle
    table           stable set rendered as an A / u_A / P_A / lambda table

Exit status: 0 success, 1 domain error, 2 usage error, 3 validation
mismatch, 4 internal error (a failed self-check: a bug, never bad input).
All computation is deterministic; there is no randomness anywhere, so
equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import assprimes, jsonio, quotients, stability
from .borel import borel_closure, expand_squarefree, power_generators
from .localization import (
    localize_by_saturation,
    localize_closed_form,
    localized_expansion,
    parse_subset,
)
from .monomials import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    parse_monomial,
    parse_squarefree,
)


class _UsageError(ValueError):
    pass


def xstr(w: Monomial | None) -> str:
    """Human display like x_1^2x_3; None and the unit monomial show as 1."""
    return "1" if w is None else str(w)


def _set_str(labels) -> str:
    return "{" + ",".join(str(i) for i in labels) + "}"


def _prime_str(labels) -> str:
    if not labels:
        return "(0)"
    return "(" + ",".join(f"x_{i}" for i in labels) + ")"


def _lambda_str(value) -> str:
    return "inf" if value == math.inf else str(int(value))


def _ground_from_args(args) -> GroundSet:
    if getattr(args, "vars", None):
        try:
            return GroundSet(tuple(int(p) for p in args.vars.split(",")))
        except ValueError as exc:
            raise _UsageError(f"malformed --vars {args.vars!r}: {exc}") from None
    if args.n is not None:
        if args.n < 1:
            raise _UsageError("--n must be at least 1")
        return GroundSet.contiguous(args.n)
    raise _UsageError("one of --n or --vars is required")


def _squarefree_from_args(args, ground: GroundSet) -> SquarefreeMonomial:
    try:
        return parse_squarefree(args.u, ground)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _print_ideal(J: MonomialIdeal, fmt: str, out) -> None:
    if fmt == "json":
        print(jsonio.emit(jsonio.ideal_to_obj(J)), file=out)
    else:
        print(f"# {len(J.generators)} generators over {J.ground}", file=out)
        for g in J.generators:
            print(xstr(g), file=out)


def _cmd_expand(args, out) -> int:
    ground = _ground_from_args(args)
    try:
        w = parse_monomial(args.u, ground)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    J = borel_closure(w, args.k)
    _print_ideal(J, args.format, out)
    return 0


def _cmd_power(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    J = power_generators(u, args.k)
    _print_ideal(J, args.format, out)
    return 0


def _cmd_localize(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    try:
        A = parse_subset(args.A or "", ground)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    local = localize_closed_form(u, A)
    expansion = localized_expansion(u, A)
    if not A.is_everything and A.members:
        sat = localize_by_saturation(expand_squarefree(u), A)
        if not (sat.is_unit if expansion is None else sat == expansion):
            raise AssertionError("closed form and saturation disagree")
    if args.format == "json":
        obj = jsonio.localization_to_obj(u, A, local, expansion)
        print(jsonio.emit(obj), file=out)
    else:
        gen_str = "1" if local.is_unit_ideal else xstr(local.as_squarefree().to_monomial())
        print(f"u_A = {gen_str} over vars={','.join(map(str, local.ground)) or '-'}", file=out)
        if expansion is None:
            print("localized ideal = (1)  [whole ring]", file=out)
        else:
            print(f"localized ideal = ({', '.join(xstr(g) for g in expansion.generators)})", file=out)
    return 0


def _cmd_colon_profile(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    J, profile = quotients._power_profile(u, args.k)
    if args.format == "json":
        print(jsonio.emit(jsonio.quotient_profile_to_obj(u, profile)), file=out)
    else:
        for pos, (g, s) in enumerate(zip(J.generators, profile.colon_sets), start=1):
            print(f"i={pos:<3} u_i={xstr(g):<24} colon={_set_str(sorted(s))}", file=out)
        print(f"q = {profile.q}", file=out)
        print(f"depth = {profile.depth}", file=out)
        print(f"m_in_ass = {str(profile.m_in_ass).lower()}", file=out)
    return 0


def _cmd_lambda(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    value = stability.lambda_max_ideal(u)
    if args.format == "json":
        obj = {
            "schema": jsonio.SCHEMA_VERSION,
            "u": jsonio.squarefree_to_obj(u),
            "n": len(ground),
            "lambda": jsonio.lambda_to_obj(value),
        }
        print(jsonio.emit(obj), file=out)
    else:
        print(_lambda_str(value), file=out)
    return 0


def _cmd_ever_associated(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    value = stability.ever_associated(u)
    if args.format == "json":
        obj = {
            "schema": jsonio.SCHEMA_VERSION,
            "u": jsonio.squarefree_to_obj(u),
            "n": len(ground),
            "ever_associated": value,
        }
        print(jsonio.emit(obj), file=out)
    else:
        print(str(value).lower(), file=out)
    return 0


def _entries_for_output(u, args):
    entries = stability.stable_set_enumerate(
        u,
        members_only=not getattr(args, "all", False),
        enumeration_bound=args.max_n,
    )
    if getattr(args, "paper_order", False):
        entries = sorted(entries, key=lambda e: (-len(e.subset), e.subset))
    return entries


def _print_entry_table(entries, out) -> None:
    rows = [("A", "u_A", "P_A", "lambda")]
    for e in entries:
        gen = "1" if e.generator.is_unit_ideal else "".join(
            f"x_{i}" for i in e.generator.indices
        )
        rows.append(
            (
                _set_str(e.subset),
                gen,
                _prime_str(e.prime),
                _lambda_str(e.stability_index),
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    for r in rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip(), file=out)


def _cmd_stable_set(args, out) -> int:
    ground = _ground_from_args(args)
    if not ground.is_contiguous:
        raise ValueError("stable-set needs contiguous variables; use --n")
    u = _squarefree_from_args(args, ground)
    entries = _entries_for_output(u, args)
    if args.format == "json":
        print(jsonio.emit(jsonio.stable_set_to_obj(u, entries)), file=out)
    else:
        _print_entry_table(entries, out)
    return 0


def _cmd_ass(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    profile = assprimes.ass_profile(u, kmax=args.kmax, ceiling=args.ceiling)
    if args.format == "json":
        print(jsonio.emit(jsonio.ass_profile_to_obj(profile)), file=out)
    else:
        for k in range(1, profile.kmax + 1):
            primes = profile.primes_at(k)
            listing = ", ".join(_prime_str(p) for p in primes)
            print(f"k={k}: {len(primes)} primes: {listing}", file=out)
        print(f"stable_from = {profile.stable_from}", file=out)
    return 0


def _cmd_persist(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    report = assprimes.persistence_scan(u, kmax=args.kmax, ceiling=args.ceiling)
    if args.format == "json":
        print(jsonio.emit(jsonio.persistence_to_obj(report)), file=out)
    else:
        if report.ok:
            print(f"no violations up to k={args.kmax}", file=out)
        else:
            for k, prime in report.violations:
                print(f"VIOLATION: {_prime_str(prime)} in Ass(I^{k}) only", file=out)
    return 0 if report.ok else 3


def _cmd_validate(args, out) -> int:
    ground = _ground_from_args(args)
    u = _squarefree_from_args(args, ground)
    report = assprimes.cross_validate(
        u, kmax=args.kmax, ceiling=args.ceiling, enumeration_bound=args.max_n
    )
    if args.format == "json":
        print(jsonio.emit(jsonio.cross_validation_to_obj(report)), file=out)
    else:
        total = (
            report.depth_checks
            + report.localization_checks
            + report.membership_checks
            + report.sharpness_checks
        )
        print(f"all {total} checks passed (kmax={args.kmax})", file=out)
    return 0


def _load_config(path: str | None) -> dict:
    defaults = {
        "max_n": stability.DEFAULT_ENUMERATION_BOUND,
        "max_kmax": 6,
        "cell_ceiling": assprimes.CELL_CEILING,
    }
    if not path:
        return defaults
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError(f"config {path!r} must hold a JSON object")
    for key, value in data.items():
        if key not in defaults:
            raise _UsageError(
                f"unknown config key {key!r}; expected one of {', '.join(defaults)}"
            )
        if type(value) is not int or value < 1:
            raise _UsageError(f"config key {key!r} must be a positive integer, not {value!r}")
    defaults.update(data)
    return defaults


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelstab",
        description="Squarefree principal Borel ideals: expansions, "
        "localizations, stability indices and associated-prime scans.",
    )
    parser.add_argument("--config", help="JSON file with scan ceilings")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, with_k=False, with_kmax=False):
        p.add_argument("--u", required=True, help="monomial, e.g. 1,3,4,5 or 2^2,3")
        p.add_argument("--n", type=int, help="contiguous ground set 1..n")
        p.add_argument("--vars", help="explicit ground set labels, e.g. 2,3,5")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if with_k:
            p.add_argument("--k", type=int, default=1)
        if with_kmax:
            p.add_argument("--kmax", type=int, default=3)

    common(sub.add_parser("expand", help="Borel closure under a cap"), with_k=True)
    common(sub.add_parser("power", help="generators of the k-th power"), with_k=True)
    loc = sub.add_parser("localize", help="monomial localization at P_A")
    common(loc)
    loc.add_argument("--A", help="subset, e.g. 1,5 (empty for no localization)")
    common(sub.add_parser("colon-profile", help="q, depth and colon sets"), with_k=True)
    common(sub.add_parser("lambda", help="stability index of the maximal ideal"))
    common(sub.add_parser("ever-associated", help="is the maximal ideal ever associated"))
    for name in ("stable-set", "table"):
        p = sub.add_parser(name, help="stable set of associated primes")
        common(p)
        p.add_argument("--all", action="store_true", help="include non-members")
        p.add_argument(
            "--paper-order",
            action="store_true",
            help="reference row order: largest subsets first",
        )
    common(sub.add_parser("ass", help="brute-force associated primes"), with_kmax=True)
    common(sub.add_parser("persist", help="persistence scan"), with_kmax=True)
    common(sub.add_parser("validate", help="cross-validate formulas vs oracle"), with_kmax=True)
    return parser


_HANDLERS = {
    "expand": _cmd_expand,
    "power": _cmd_power,
    "localize": _cmd_localize,
    "colon-profile": _cmd_colon_profile,
    "lambda": _cmd_lambda,
    "ever-associated": _cmd_ever_associated,
    "stable-set": _cmd_stable_set,
    "table": _cmd_stable_set,
    "ass": _cmd_ass,
    "persist": _cmd_persist,
    "validate": _cmd_validate,
}


def run(argv, out=None, err=None) -> int:
    """Parse and execute one invocation; returns the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        args.max_n = config["max_n"]
        args.ceiling = config["cell_ceiling"]
        if getattr(args, "kmax", None) is not None and args.kmax > config["max_kmax"]:
            raise ValueError(
                f"kmax={args.kmax} above the configured ceiling {config['max_kmax']}"
            )
        return _HANDLERS[args.verb](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except assprimes.CrossValidationError as exc:
        print(f"validation mismatch: {exc}", file=err)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=err)
        return 4
    except (ValueError, assprimes.ResourceLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
