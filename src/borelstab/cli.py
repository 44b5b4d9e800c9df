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
    table           alias of stable-set (an A / u_A / P_A / lambda table)

The ground set is exactly one of ``--n`` (labels 1..n) or ``--vars``
(explicit labels); giving both, or neither, is a usage error.  Each verb
returns its result as a JSON object or as table lines, and :func:`run`
prints it: one place from argv to output.  Argparse's own usage errors
and ``--help`` also go to the streams :func:`run` is given.  Each
subparser carries its handler, and :func:`run` parses ``--u`` once, after
the config, the ``--kmax`` ceiling and the ground set, and hands it to the
handler.

A process loads only the modules its verb runs: each handler imports its
own.  Every verb loads ``cli``, ``jsonio`` and ``monomials`` (which holds
the two exceptions :func:`run` maps to exit statuses); ``expand`` and
``power`` add ``borel``; ``localize`` adds ``borel`` and
``localization``; ``colon-profile`` adds ``borel`` and ``quotients``;
``lambda``, ``ever-associated``, ``stable-set`` and ``table`` add
``localization`` and ``stability``; ``ass``, ``persist`` and
``validate`` load everything.  The config holds only the keys its file
sets, so the default of each ceiling stays with the function that
applies it.

Exit status: 0 success, 1 domain error, 2 usage error, 3 validation
mismatch, 4 internal error (a failed self-check: a bug, never bad input),
141 when the reader closes stdout early (128 + SIGPIPE, no traceback).
All computation is deterministic; there is no randomness anywhere, so
equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import jsonio
from .monomials import (
    CrossValidationError,
    GroundSet,
    ResourceLimitError,
    parse_monomial,
    parse_squarefree,
    vector_to_str,
)

_CONFIG_KEYS = ("max_n", "max_kmax", "cell_ceiling")


class _UsageError(ValueError):
    pass


def _usage(parse, text: str, ground: GroundSet):
    """``parse(text, ground)``, with a malformed argument as a usage error."""
    try:
        return parse(text, ground)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _set_str(labels) -> str:
    return "{" + ",".join(str(i) for i in labels) + "}"


def _prime_str(labels) -> str:
    if not labels:
        return "(0)"
    return "(" + ",".join(f"x_{i}" for i in labels) + ")"


def _generator_str(local) -> str:
    """A localized generator ``u_A``; the whole ring (None) shows as 1."""
    return "1" if local is None else str(local)


def _ground_from_args(args) -> GroundSet:
    if args.vars is not None:
        try:
            return GroundSet(tuple(int(p) for p in args.vars.split(",")))
        except ValueError as exc:
            raise _UsageError(f"malformed --vars {args.vars!r}: {exc}") from None
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    try:
        return GroundSet.contiguous(args.n)
    except OverflowError:
        raise _UsageError(f"--n {args.n} is too large") from None


def _cmd_ideal(args, u):
    """expand and power: the generators of one ideal."""
    from .borel import borel_closure, power_generators

    J = (borel_closure if args.verb == "expand" else power_generators)(u, args.k)
    if args.format == "json":
        return jsonio.ideal_to_obj(J), 0
    lines = [vector_to_str(J.ground.indices, v) for v in J.vectors]
    return [f"# {len(J)} generators over {J.ground}", *lines], 0


def _cmd_localize(args, u):
    from . import localization
    from .borel import expand_squarefree

    A = _usage(localization.parse_subset, args.A or "", u.ground)
    local = localization.localize_closed_form(u, A)
    expansion = None if local is None else expand_squarefree(local)
    if A.complement:
        sat = localization.localize_by_saturation(expand_squarefree(u), A)
        if not (sat.is_unit if expansion is None else sat == expansion):
            raise AssertionError("closed form and saturation disagree")
    if args.format == "json":
        return jsonio.localization_to_obj(u, A, local, expansion), 0
    labels = ",".join(map(str, A.complement)) or "-"
    ideal = "(1)  [whole ring]" if expansion is None else str(expansion)
    return [f"u_A = {_generator_str(local)} over vars={labels}", f"localized ideal = {ideal}"], 0


def _cmd_colon_profile(args, u):
    from .borel import power_generators
    from .quotients import quotient_profile

    profile = quotient_profile(u, args.k)
    if args.format == "json":
        return jsonio.quotient_profile_to_obj(u, profile), 0
    J = power_generators(u, args.k)  # the table prints each generator
    labels = J.ground.indices
    lines = [
        f"i={pos:<3} u_i={vector_to_str(labels, g):<24} colon={_set_str(sorted(s))}"
        for pos, (g, s) in enumerate(zip(J.vectors, profile.colon_sets), start=1)
    ]
    flag = str(profile.m_in_ass).lower()
    return lines + [f"q = {profile.q}", f"depth = {profile.depth}", f"m_in_ass = {flag}"], 0


def _cmd_max_ideal(args, u):
    """lambda and ever-associated: one value of the maximal ideal."""
    from . import stability

    if args.verb == "lambda":
        key, value = "lambda", jsonio.lambda_to_obj(stability.lambda_max_ideal(u))
    else:
        key, value = "ever_associated", stability.ever_associated(u)
    if args.format == "json":
        return jsonio.max_ideal_to_obj(u, key, value), 0
    return [str(value).lower()], 0


def _cmd_stable_set(args, u):
    from . import stability

    entries = stability.stable_set_enumerate(u, members_only=not args.all, **args.bound)
    if args.paper_order:
        entries.sort(key=lambda e: (-len(e.subset), e.subset))
    if args.format == "json":
        return jsonio.stable_set_to_obj(u, entries), 0
    rows = [("A", "u_A", "P_A", "lambda")]
    rows += [
        (
            _set_str(e.subset),
            _generator_str(e.generator),
            _prime_str(e.prime),
            str(jsonio.lambda_to_obj(e.stability_index)),
        )
        for e in entries
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows], 0


def _cmd_ass(args, u):
    from . import assprimes

    profile = assprimes.ass_profile(u, kmax=args.kmax, **args.ceiling)
    if args.format == "json":
        return jsonio.ass_profile_to_obj(profile), 0
    lines = []
    for k in range(1, profile.kmax + 1):
        primes = profile.primes_at(k)
        lines.append(f"k={k}: {len(primes)} primes: {', '.join(map(_prime_str, primes))}")
    return lines + [f"stable_from = {profile.stable_from}"], 0


def _cmd_persist(args, u):
    from . import assprimes

    report = assprimes.persistence_scan(u, kmax=args.kmax, **args.ceiling)
    status = 0 if report.ok else 3
    if args.format == "json":
        return jsonio.persistence_to_obj(report), status
    if report.ok:
        return [f"no violations up to k={args.kmax}"], status
    return [f"VIOLATION: {_prime_str(p)} in Ass(I^{k}) only" for k, p in report.violations], status


def _cmd_validate(args, u):
    from . import assprimes

    report = assprimes.cross_validate(u, kmax=args.kmax, **args.ceiling, **args.bound)
    obj = jsonio.cross_validation_to_obj(report)
    if args.format == "json":
        return obj, 0
    return [f"all {sum(obj['checks'].values())} checks passed (kmax={args.kmax})"], 0


def _load_config(path: str | None) -> dict:
    """The keys the config file sets; a key it leaves out keeps the
    default of the function that reads it."""
    if not path:
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError(f"config {path!r} must hold a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise _UsageError(
                f"unknown config key {key!r}; expected one of {', '.join(_CONFIG_KEYS)}"
            )
        if type(value) is not int or value < 1:
            raise _UsageError(f"config key {key!r} must be a positive integer, not {value!r}")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelstab",
        description="Squarefree principal Borel ideals: expansions, "
        "localizations, stability indices and associated-prime scans.",
    )
    parser.add_argument("--config", help="JSON file with scan ceilings")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, summary, **counter):
        """A subparser carrying its handler, with ``--u``, the ground set,
        ``--format`` and the integer options in ``counter`` (``k`` or
        ``kmax``, each with its default)."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--u", required=True, help="monomial, e.g. 1,3,4,5 or 2^2,3")
        ground = p.add_mutually_exclusive_group(required=True)
        ground.add_argument("--n", type=int, help="contiguous ground set 1..n")
        ground.add_argument("--vars", help="explicit ground set labels, e.g. 2,3,5")
        p.add_argument("--format", choices=("table", "json"), default="table")
        for flag, default in counter.items():
            p.add_argument(f"--{flag}", type=int, default=default)
        p.set_defaults(handler=handler)
        return p

    verb("expand", _cmd_ideal, "Borel closure under a cap", k=1)
    verb("power", _cmd_ideal, "generators of the k-th power", k=1)
    loc = verb("localize", _cmd_localize, "monomial localization at P_A")
    loc.add_argument("--A", help="subset, e.g. 1,5 (empty for no localization)")
    verb("colon-profile", _cmd_colon_profile, "q, depth and colon sets", k=1)
    verb("lambda", _cmd_max_ideal, "stability index of the maximal ideal")
    verb("ever-associated", _cmd_max_ideal, "is the maximal ideal ever associated")
    for name in ("stable-set", "table"):
        p = verb(name, _cmd_stable_set, "stable set of associated primes")
        p.add_argument("--all", action="store_true", help="include non-members")
        p.add_argument(
            "--paper-order",
            action="store_true",
            help="reference row order: largest subsets first",
        )
    verb("ass", _cmd_ass, "brute-force associated primes", kmax=3)
    verb("persist", _cmd_persist, "persistence scan", kmax=3)
    verb("validate", _cmd_validate, "cross-validate formulas vs oracle", kmax=3)
    return parser


def run(argv, out=None, err=None) -> int:
    """Parse one invocation, run its verb and print the result in the
    requested format; returns the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        args.bound = {"enumeration_bound": config["max_n"]} if "max_n" in config else {}
        args.ceiling = {"ceiling": config["cell_ceiling"]} if "cell_ceiling" in config else {}
        max_kmax = config.get("max_kmax", 6)
        if getattr(args, "kmax", None) is not None and args.kmax > max_kmax:
            raise ValueError(f"kmax={args.kmax} above the configured ceiling {max_kmax}")
        ground = _ground_from_args(args)
        parse = parse_monomial if args.verb == "expand" else parse_squarefree
        payload, status = args.handler(args, _usage(parse, args.u, ground))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except CrossValidationError as exc:
        print(f"validation mismatch: {exc}", file=err)
        return 3
    except AssertionError as exc:
        print(f"internal error: {exc}", file=err)
        return 4
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    print(jsonio.emit(payload) if args.format == "json" else "\n".join(payload), file=out)
    return status


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: devnull takes the exit flush; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
