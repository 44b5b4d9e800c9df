"""CLI verbs, exit codes, JSON goldens and determinism."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borelstab.cli import run


DATA = Path(__file__).parent / "data"

# Table and JSON output of power, colon-profile, localize and expand,
# captured before monomials were stored as exponent vectors; JSON output of
# stable-set, ass, persist, validate, lambda and ever-associated, which pins
# every jsonio encoder byte for byte; table output of those six verbs and of
# the table alias; error paths, each with its exit code and stderr
# (``exit`` and ``stderr`` default to 0 and ""); and table output of
# power, colon-profile and expand over ``--vars`` labels that are not
# 1..n, with exponents above 1.
CLI_GOLDENS = json.loads((DATA / "cli_goldens.json").read_text())


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestVerbs:
    def test_lambda_worked(self):
        code, out, _ = invoke(["lambda", "--u", "2,3", "--n", "3"])
        assert code == 0 and out.strip() == "2"

    def test_lambda_infinite(self):
        code, out, _ = invoke(["lambda", "--u", "1,3,4,5", "--n", "5"])
        assert code == 0 and out.strip() == "inf"

    def test_expand(self):
        code, out, _ = invoke(["expand", "--u", "2,3", "--n", "3"])
        assert code == 0
        assert out.splitlines()[1:] == ["x_1x_2", "x_1x_3", "x_2x_3"]

    def test_power_json(self):
        code, out, _ = invoke(
            ["power", "--u", "2,3", "--n", "3", "--k", "2", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert len(obj["generators"]) == 6

    def test_localize(self):
        code, out, _ = invoke(["localize", "--u", "1,3,4,5", "--n", "5", "--A", "1,5"])
        assert code == 0
        assert "u_A = x_3x_4" in out
        assert "(x_2x_3, x_2x_4, x_3x_4)" in out

    def test_localize_empty_subset(self):
        code, out, _ = invoke(["localize", "--u", "2,3", "--n", "3", "--A", ""])
        assert code == 0
        assert "u_A = x_2x_3" in out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_localize_subset_sorted_without_repeats(self, fmt):
        argv = ["localize", "--u", "1,3", "--n", "3", "--format", fmt, "--A"]
        got = invoke([*argv, "3,1,3"])
        assert got == invoke([*argv, "1,3"]) and got[0] == 0

    def test_colon_profile(self):
        code, out, _ = invoke(["colon-profile", "--u", "2,3", "--n", "3", "--k", "2"])
        assert code == 0
        assert "q = 2" in out and "depth = 0" in out and "m_in_ass = true" in out

    def test_ever_associated(self):
        code, out, _ = invoke(["ever-associated", "--u", "2,3", "--n", "4"])
        assert code == 0 and out.strip() == "false"

    def test_stable_set_members_only_by_default(self):
        code, out, _ = invoke(
            ["stable-set", "--u", "1,3,4,5", "--n", "5", "--format", "json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["entries"]) == 12
        assert all(e["member"] for e in obj["entries"])

    def test_members_only_shape_for_principal_ideal(self):
        # two one-variable localizations survive; the oracle agrees
        code, out, _ = invoke(
            ["stable-set", "--u", "1,2", "--n", "3", "--format", "json"]
        )
        obj = json.loads(out)
        assert code == 0
        got = {(tuple(e["A"]), tuple(e["prime"]), e["lambda"]) for e in obj["entries"]}
        assert got == {((1, 3), (2,), 1), ((2, 3), (1,), 1)}

    def test_stable_set_all(self):
        code, out, _ = invoke(
            ["stable-set", "--u", "2,3", "--n", "3", "--all", "--format", "json"]
        )
        obj = json.loads(out)
        assert code == 0 and len(obj["entries"]) == 8

    def test_entry_json_shape(self):
        _, out, _ = invoke(
            ["stable-set", "--u", "1,3,4,5", "--n", "5", "--format", "json"]
        )
        entries = {tuple(e["A"]): e for e in json.loads(out)["entries"]}
        assert entries[(1, 2)] == {
            "A": [1, 2],
            "uA": {"4": 1, "5": 1},
            "prime": [3, 4, 5],
            "member": True,
            "lambda": 2,
        }

    def test_table_paper_order(self):
        code, out, _ = invoke(
            ["table", "--u", "1,3,4,5", "--n", "5", "--paper-order"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["A", "u_A"]
        assert lines[1].startswith("{2,3,4,5}")
        assert lines[-1].startswith("{1}")
        assert len(lines) == 13

    def test_ass(self):
        code, out, _ = invoke(["ass", "--u", "2,3", "--n", "3", "--kmax", "2"])
        assert code == 0
        assert "k=1: 3 primes" in out and "k=2: 4 primes" in out

    def test_persist(self):
        code, out, _ = invoke(["persist", "--u", "2,3", "--n", "3", "--kmax", "2"])
        assert code == 0 and "no violations" in out

    def test_validate(self):
        code, out, _ = invoke(["validate", "--u", "2,3", "--n", "3", "--kmax", "2"])
        assert code == 0 and "checks passed" in out


# JSON fields that hold variable labels: dicts keyed by label, and (nested)
# lists of labels
LABEL_KEYED = {"u", "uA", "witness"}
LABEL_LISTS = {"A", "prime", "primes", "colon_sets"}


def relabeled(obj, labels, key=None):
    """A verb's JSON with every label ``i`` replaced by ``labels[i - 1]``."""
    if isinstance(obj, dict):
        if key in LABEL_KEYED:
            return {str(labels[int(i) - 1]): e for i, e in obj.items()}
        return {k: relabeled(v, labels, k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [relabeled(v, labels, key) for v in obj]
    if key in LABEL_LISTS:
        return labels[obj - 1]
    return obj


def relabel_cases():
    """Seeded generators with n <= 5, each with an order-preserving
    relabeling of 1..n onto labels that are not 1..n."""
    rng = random.Random(16)
    cases = []
    for n in (2, 3, 3, 4, 4, 5, 5, 5):
        support = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        labels = list(range(1, n + 1))
        while labels == list(range(1, n + 1)):
            labels = sorted(rng.sample(range(1, 3 * n), n))
        cases.append((n, support, labels))
    return cases


@pytest.mark.parametrize(
    "verb",
    [
        ["lambda"],
        ["ever-associated"],
        ["colon-profile", "--k", "3"],
        ["stable-set", "--all"],
        ["ass", "--kmax", "3"],
        ["persist", "--kmax", "3"],
        ["validate", "--kmax", "3"],
    ],
    ids=lambda verb: verb[0],
)
def test_relabeled_ground_gives_relabeled_answer(verb):
    # an order-preserving relabeling of the variables carries the expansion
    # of u to the expansion of the relabeled u, so every verb answers on
    # --vars exactly as on --n, with labels mapped
    cases = relabel_cases()
    finite = 0
    for n, support, labels in cases:
        u = ",".join(map(str, support))
        mapped = ",".join(str(labels[i - 1]) for i in support)
        code, out, err = invoke([*verb, "--u", u, "--n", str(n), "--format", "json"])
        expected = (code, relabeled(json.loads(out), labels), err)
        vars_ = ",".join(map(str, labels))
        code, out, err = invoke([*verb, "--u", mapped, "--vars", vars_, "--format", "json"])
        assert (code, json.loads(out), err) == expected, (verb, u, labels)
        if verb == ["lambda"]:
            finite += json.loads(out)["lambda"] != "inf"
    # the seed covers finite and infinite indices
    assert verb != ["lambda"] or 0 < finite < len(cases)


class TestExitCodes:
    def test_usage_error_on_malformed_monomial(self):
        code, _, err = invoke(["lambda", "--u", "x^y", "--n", "3"])
        assert code == 2 and "usage error" in err

    def test_usage_error_on_missing_ground(self):
        code, _, err = invoke(["lambda", "--u", "2,3"])
        assert code == 2

    def test_usage_error_on_unknown_flag(self):
        code, _, _ = invoke(["lambda", "--bogus", "1"])
        assert code == 2

    def test_domain_error_on_bound(self):
        code, _, err = invoke(["validate", "--u", "2,3", "--n", "3", "--kmax", "40"])
        assert code == 1 and "ceiling" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_domain_error_on_expand_cap_below_one(self, k):
        code, out, err = invoke(["expand", "--u", "", "--n", "3", "--k", k])
        assert (code, out) == (1, "") and "cap must be positive" in err

    @pytest.mark.parametrize("verb", ["power", "colon-profile"])
    def test_huge_power_refused_at_once(self, verb):
        # the Borel walk would hold 10^23 prefix sums at one position
        start = time.perf_counter()
        code, out, err = invoke([verb, "--u", "2,3", "--n", "3", "--k", "9" * 23])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{10**23} prefix sums" in err and "ceiling of 10000000" in err

    def test_large_colon_profile_answers(self):
        # 301 prefix sums at most, far under the ceiling; the closed-pipe
        # check of the CI workflow runs this request
        code, out, err = invoke(["colon-profile", "--u", "2,3", "--n", "3", "--k", "300"])
        assert (code, err) == (0, "") and out.startswith("i=1 ")

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_kmax": 1}))
        code, _, err = invoke(
            ["--config", str(cfg), "ass", "--u", "2,3", "--n", "3", "--kmax", "2"]
        )
        assert code == 1 and "ceiling" in err

    def test_unreadable_config(self):
        code, _, err = invoke(["--config", "/no/such/file.json", "lambda", "--u", "2", "--n", "2"])
        assert code == 2

    def _config_run(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        return invoke(["--config", str(cfg), "ass", "--u", "2,3", "--n", "3"])

    def test_config_cell_ceiling(self, tmp_path):
        code, _, err = self._config_run(tmp_path, json.dumps({"cell_ceiling": 7}))
        assert code == 1 and "8 box cells exceed the ceiling 7" in err

    def test_config_not_an_object(self, tmp_path):
        code, _, err = self._config_run(tmp_path, "[1, 2]")
        assert code == 2 and "JSON object" in err

    def test_config_unknown_key(self, tmp_path):
        # the key of the former generator ceiling must not be ignored silently
        code, _, err = self._config_run(tmp_path, json.dumps({"generator_ceiling": 5000}))
        assert code == 2 and "generator_ceiling" in err

    @pytest.mark.parametrize("value", ["x", 0, -3, 2.5, True, None])
    def test_config_value_not_positive_integer(self, tmp_path, value):
        code, _, err = self._config_run(tmp_path, json.dumps({"max_kmax": value}))
        assert code == 2 and "positive integer" in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_usage_error_on_nonpositive_n(self, n):
        code, _, err = invoke(["lambda", "--u", "2,3", "--n", n])
        assert code == 2 and "--n must be at least 1" in err

    def test_usage_error_on_n_too_large_for_a_tuple(self):
        code, out, err = invoke(["lambda", "--u", "2", "--n", "99999999999999999999"])
        assert (code, out) == (2, "")
        assert err == "usage error: --n 99999999999999999999 is too large\n"

    @pytest.mark.parametrize("labels", ["3,2", "2,2", "0,2", "a,2"])
    def test_usage_error_on_bad_vars(self, labels):
        code, out, err = invoke(["power", "--u", "2", "--vars", labels, "--k", "1"])
        assert code == 2 and out == "" and f"usage error: malformed --vars '{labels}'" in err

    @pytest.mark.parametrize("labels", ["1,2,3", ""])
    def test_usage_error_on_both_n_and_vars(self, labels):
        # each alone is a different ground set: n = 5 gives inf, vars 1,2,3 gives 2
        code, out, err = invoke(["lambda", "--u", "2,3", "--n", "5", "--vars", labels])
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_argparse_error_goes_to_the_given_err(self, capsys):
        code, out, err = invoke(["lambda", "--u", "2,3", "--n", "3", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: borelstab") and "unrecognized arguments: --bogus" in err
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_the_given_out(self, capsys):
        code, out, err = invoke(["--help"])
        assert (code, err) == (0, "") and out.startswith("usage: borelstab")
        assert capsys.readouterr() == ("", "")

    def test_usage_error_on_empty_vars(self):
        code, out, err = invoke(["lambda", "--u", "2,3", "--vars", ""])
        assert (code, out) == (2, "") and "usage error: malformed --vars ''" in err

    def test_cell_ceiling_caps_the_box(self):
        # I^2 has only 210 generators but a box of 3^20 cells
        code, _, err = invoke(["ass", "--u", "20", "--n", "20", "--kmax", "2"])
        assert code == 1 and "ceiling" in err


# Requests with two faults each, and the one a request reports: the
# config file, the --kmax ceiling, the ground set, --u, then the verb's own
# arguments and the library's refusals.
FIRST_FAULT = [
    ("ass --u 2,9 --n 3 --kmax 7", 1, "error: kmax=7 above the configured ceiling 6"),
    ("ass --u 2,3 --n 0 --kmax 7", 1, "error: kmax=7 above the configured ceiling 6"),
    ("localize --u 2,9 --n 3 --A 1,x", 2, "usage error: x_9 not in ground set (1, 2, 3)"),
    # two labels outside the ground set: the first after sorting
    ("localize --u 1,3 --n 3 --A 9,1,7", 2, "usage error: 7 not in ambient ground set (1, 2, 3)"),
    ("expand --u 2^2,9 --n 3 --k 0", 2, "usage error: x_9 not in ground set (1, 2, 3)"),
    (
        "power --u 2^2,3 --n 3 --k 0",
        2,
        "usage error: '2^2,3' is not a non-unit squarefree monomial",
    ),
    ("stable-set --u 2,x --n 13", 2, "usage error: malformed monomial term 'x'"),
    ("validate --u 5 --n 13 --kmax 7", 1, "error: kmax=7 above the configured ceiling 6"),
]


@pytest.mark.parametrize("argv, code, message", FIRST_FAULT, ids=[f[0] for f in FIRST_FAULT])
def test_first_fault_reported(argv, code, message):
    assert invoke(argv.split()) == (code, "", message + "\n")


class TestDeterminism:
    def test_ass_json_golden(self):
        golden = (DATA / "ass_u1345_n5_kmax3.json").read_text()
        code, out, _ = invoke(
            ["ass", "--u", "1,3,4,5", "--n", "5", "--kmax", "3", "--format", "json"]
        )
        assert code == 0 and out == golden

    @pytest.mark.parametrize("golden", CLI_GOLDENS, ids=lambda g: g["argv"])
    def test_cli_golden(self, golden):
        expected = (golden.get("exit", 0), golden["stdout"], golden.get("stderr", ""))
        assert invoke(golden["argv"].split()) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--u", "1,3,4,5", "--n", "5"],
            ["stable-set", "--u", "1,3,4,5", "--n", "5", "--format", "json"],
            ["ass", "--u", "2,3", "--n", "3", "--kmax", "2", "--format", "json"],
        ],
    )
    def test_byte_identical_runs(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_validate_refuses_n_above_enumeration_bound(tmp_path):
    argv = ["validate", "--u", "5", "--n", "13", "--kmax", "1"]
    code, out, err = invoke(argv)
    assert code == 1 and "enumeration bound" in err and not out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_n": 13}))
    code, out, _ = invoke(["--config", str(cfg), *argv])
    assert code == 0 and "checks passed" in out


# Makes the closed form drop the first index of u_A, so the localize verb's
# self-check against the saturation route fails.
BROKEN_CLOSED_FORM = """
import sys
from borelstab import localization
from borelstab.cli import run
from borelstab.monomials import SquarefreeMonomial

real = localization.localize_closed_form


def dropped(u, A):
    local = real(u, A)
    return SquarefreeMonomial(local.ground, local.indices[1:])


localization.localize_closed_form = dropped
sys.exit(run(sys.argv[1:]))
"""

LOCALIZE = ["localize", "--u", "1,3,4,5", "--n", "5", "--A", "1,2"]


def test_internal_fault_exits_4(monkeypatch):
    from borelstab import localization
    from borelstab.monomials import SquarefreeMonomial

    real = localization.localize_closed_form

    def dropped(u, A):
        local = real(u, A)
        return SquarefreeMonomial(local.ground, local.indices[1:])

    monkeypatch.setattr(localization, "localize_closed_form", dropped)
    # the empty A too: the saturation route projects onto every position
    for argv in (LOCALIZE, LOCALIZE[:-2]):
        code, out, err = invoke(argv)
        assert code == 4 and not out
        assert err == "internal error: closed form and saturation disagree\n"


def test_internal_fault_exits_4_under_optimize(monkeypatch):
    import borelstab

    src = str(Path(borelstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CLOSED_FORM, *LOCALIZE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("internal error: ")


def test_validation_mismatch_exits_3(monkeypatch):
    from borelstab import assprimes

    real = assprimes._m_in_ass
    monkeypatch.setattr(
        assprimes, "_m_in_ass", lambda vectors, ceiling: not real(vectors, ceiling)
    )
    code, out, err = invoke(["validate", "--u", "2,3", "--n", "3", "--kmax", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("validation mismatch: oracle mismatch: {'check': 'localization'")


def test_persistence_violation_exits_3(monkeypatch):
    from borelstab import assprimes

    real = assprimes.ass_profile

    def reversed_powers(*args):
        # Ass(I) and Ass(I^2) swapped: the maximal ideal, first associated
        # to I^2, now seems to drop out of the second power
        profile = real(*args)
        return assprimes.AssProfile(
            profile.u, profile.kmax, profile.witnesses_by_power[::-1], None
        )

    monkeypatch.setattr(assprimes, "ass_profile", reversed_powers)
    argv = ["persist", "--u", "2,3", "--n", "3", "--kmax", "2"]
    assert invoke(argv) == (3, "VIOLATION: (x_1,x_2,x_3) in Ass(I^1) only\n", "")
    code, out, err = invoke([*argv, "--format", "json"])
    assert (code, err) == (3, "")
    assert json.loads(out)["violations"] == [{"k": 1, "prime": [1, 2, 3]}]


def test_resource_limit_exits_1_in_a_fresh_process(monkeypatch):
    # the exception mapping of run() with assprimes loaded by the handler
    import borelstab

    src = str(Path(borelstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    proc = subprocess.run(
        [sys.executable, "-m", "borelstab.cli", "ass", "--u", "20", "--n", "20", "--kmax", "2"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "box cells exceed the ceiling" in proc.stderr


def test_closed_pipe_exits_141_without_traceback(monkeypatch):
    # the reader takes one line of a 2 MB table and closes the pipe
    import borelstab

    src = str(Path(borelstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    argv = ["colon-profile", "--u", "2,3", "--n", "3", "--k", "300"]
    with subprocess.Popen(
        [sys.executable, "-m", "borelstab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first.startswith(b"i=1 ")
    assert (proc.returncode, err) == (141, b"")
