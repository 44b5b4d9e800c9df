"""Correctness checks for every op, by routes other than the timed one.

* powers: generators against the benchmark's own enumeration in
  :mod:`cases`; depth against ``n - q - 1`` and the colon sets recomputed
  from that enumeration; the depth-zero flag against the stability index
  ``lambda_max_ideal(u) <= k``.
* oracle: each Ass(I^k) against the stable-set prediction (``P_A`` with
  ``A`` a member and ``lambda <= k``), the persistence scan against "no
  violations", the cross-validation tallies against counts worked out
  from ``n``, ``kmax`` and the prediction.
* cli: the exit status against the expected one; JSON output against the
  library's answer to the same request, built here from library calls;
  table output against the same request run in this process.

Expected answers are computed once per case and cached.  A check returns
``None`` when the answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json

from borelstab import (
    GroundSet,
    SquarefreeMonomial,
    VariableSubset,
    assprimes,
    borel,
    jsonio,
    localization,
    quotients,
    stability,
)
from borelstab import cli as borelstab_cli
from borelstab.monomials import parse_monomial

from cases import Case, power_vectors


def squarefree(n: int, u: tuple[int, ...]) -> SquarefreeMonomial:
    return SquarefreeMonomial(GroundSet.contiguous(n), u)


def library_call(case: Case):
    """The timed call of a library case: the function, looked up on its
    module at call time so that trace wrappers apply, and its arguments."""
    u = squarefree(case.n, case.u)
    if case.op == "power_generators":
        return borel.power_generators, (u, case.k)
    if case.op == "quotient_profile":
        return quotients.quotient_profile, (u, case.k)
    if case.op == "depth_zero_witness":
        return quotients.depth_zero_witness, (u, case.k)
    if case.op in ("ass_profile", "persistence_scan", "cross_validate"):
        return getattr(assprimes, case.op), (u, case.n, case.k)
    raise ValueError(f"unknown op {case.op!r}")


def _colon_size(vec: tuple[int, ...], k: int) -> int:
    top = max(i for i, e in enumerate(vec, start=1) if e)
    return sum(1 for j in range(1, top) if vec[j - 1] != k)


class Checker:
    """Checks answers; caches what each distinct case should produce."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _vectors(self, case: Case) -> list[tuple[int, ...]]:
        return self._memo(("vec", case.n, case.u, case.k), lambda: power_vectors(case.u, case.n, case.k))

    def _prediction(self, n: int, u: tuple[int, ...]):
        """(A, prime, lambda) of every stable-set member, closed-form route."""

        def compute():
            entries = stability.stable_set_enumerate(squarefree(n, u), members_only=True)
            return [(e.subset, e.prime, e.stability_index) for e in entries]

        return self._memo(("pred", n, u), compute)

    def _ass_at(self, case: Case, k: int) -> set:
        return {prime for _, prime, lam in self._prediction(case.n, case.u) if prime and lam <= k}

    def check(self, case: Case, result) -> str | None:
        if case.op == "cli":
            return self.check_cli(case, result)
        return getattr(self, "_check_" + case.op)(case, result)

    # --- powers -----------------------------------------------------------

    def _check_power_generators(self, case: Case, J) -> str | None:
        got = J.generator_vectors()
        want = self._vectors(case)
        if got != want:
            return f"{len(got)} generators, expected {len(want)} in decreasing lex order"
        return None

    def _check_quotient_profile(self, case: Case, p) -> str | None:
        vecs = self._vectors(case)
        sizes = [0] + [_colon_size(v, case.k) for v in vecs[1:]]
        q = max(sizes)
        if [len(s) for s in p.colon_sets] != sizes or p.q != q:
            return f"colon sets or q={p.q} differ from the enumeration (q={q})"
        if p.depth != case.n - q - 1:
            return f"depth {p.depth} != n - q - 1 = {case.n - q - 1}"
        lam = stability.lambda_max_ideal(squarefree(case.n, case.u))
        if p.m_in_ass != (lam <= case.k):
            return f"m_in_ass={p.m_in_ass} but lambda_max_ideal={lam}, k={case.k}"
        return None

    def _check_depth_zero_witness(self, case: Case, w) -> str | None:
        vec = w.exponent_vector()
        if vec not in set(self._vectors(case)):
            return f"witness {w} is not a generator of the power"
        if _colon_size(vec, case.k) != case.n - 1:
            return f"witness {w} has a colon set smaller than n - 1"
        return None

    # --- oracle -----------------------------------------------------------

    def _check_ass_profile(self, case: Case, profile) -> str | None:
        for k in range(1, case.k + 1):
            got = set(profile.primes_at(k))
            want = self._ass_at(case, k)
            if got != want:
                return f"Ass(I^{k}) has {len(got)} primes, stable-set prediction {len(want)}"
        return None

    def _check_persistence_scan(self, case: Case, report) -> str | None:
        if not report.ok or report.violations:
            return f"persistence violations {report.violations}"
        return None

    def _check_cross_validate(self, case: Case, report) -> str | None:
        subsets = 2**case.n
        sharp = sum(1 for _, _, lam in self._prediction(case.n, case.u) if lam <= case.k)
        want = (case.k, case.k * (subsets - 1), case.k * subsets, sharp)
        got = (
            report.depth_checks,
            report.localization_checks,
            report.membership_checks,
            report.sharpness_checks,
        )
        if got != want:
            return f"check tallies {got}, expected {want}"
        return None

    # --- cli --------------------------------------------------------------

    def check_cli(self, case: Case, result) -> str | None:
        """``result`` is ``(exit_status, stdout_bytes)``."""
        code, stdout = result
        if code != case.exit:
            return f"exit {code}, expected {case.exit}"
        if case.exit != 0:
            return "unexpected output on a failing request" if stdout else None
        text = stdout.decode()
        if "json" in case.argv:
            want = self._memo(("json", case.argv), lambda: library_json(case.argv))
            try:
                got = json.loads(text)
            except json.JSONDecodeError as exc:
                return f"malformed JSON output: {exc}"
            return None if got == want else "JSON output differs from the library's answer"
        want = self._memo(("table", case.argv), lambda: in_process_output(case.argv))
        if (code, text) != want:
            return "table output differs from the same request run in-process"
        return None


def in_process_output(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = borelstab_cli.run(list(argv), out=out, err=err)
    return code, out.getvalue()


def _options(argv) -> dict:
    opts: dict = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if name in ("all", "paper-order"):
            opts[name] = True
            i += 1
        else:
            opts[name] = argv[i + 1]
            i += 2
    return opts


def library_json(argv) -> dict:
    """The JSON object the CLI should print for ``argv``, built from library
    calls and the jsonio encoders, without going through cli.py."""
    verb, opts = argv[0], _options(argv)
    n = int(opts["n"])
    ground = GroundSet.contiguous(n)
    if verb == "expand":
        J = borel.borel_closure(parse_monomial(opts["u"], ground), int(opts["k"]))
        return jsonio.ideal_to_obj(J)
    u = SquarefreeMonomial(ground, tuple(int(i) for i in opts["u"].split(",")))
    head = {"schema": jsonio.SCHEMA_VERSION, "u": jsonio.squarefree_to_obj(u), "n": n}
    if verb == "lambda":
        return {**head, "lambda": jsonio.lambda_to_obj(stability.lambda_max_ideal(u))}
    if verb == "ever-associated":
        return {**head, "ever_associated": stability.ever_associated(u)}
    if verb == "localize":
        A = VariableSubset(ground, tuple(int(i) for i in opts["A"].split(",")))
        local = localization.localize_closed_form(u, A)
        expansion = localization.localized_expansion(u, A)
        return jsonio.localization_to_obj(u, A, local, expansion)
    if verb in ("stable-set", "table"):
        entries = stability.stable_set_enumerate(u, members_only="all" not in opts)
        if "paper-order" in opts:
            entries = sorted(entries, key=lambda e: (-len(e.subset), e.subset))
        return jsonio.stable_set_to_obj(u, entries)
    if verb == "power":
        return jsonio.ideal_to_obj(borel.power_generators(u, int(opts["k"])))
    if verb == "colon-profile":
        return jsonio.quotient_profile_to_obj(u, quotients.quotient_profile(u, int(opts["k"])))
    kmax = int(opts["kmax"])
    if verb == "ass":
        return jsonio.ass_profile_to_obj(assprimes.ass_profile(u, n, kmax))
    if verb == "persist":
        return jsonio.persistence_to_obj(assprimes.persistence_scan(u, n, kmax))
    if verb == "validate":
        return jsonio.cross_validation_to_obj(assprimes.cross_validate(u, n, kmax))
    raise ValueError(f"unknown verb {verb!r}")
