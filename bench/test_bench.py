"""Self-tests of the benchmark: ``python3 -m pytest bench -q``.

They run tiny slices of each workload through the same harness and
checkers as the real runs, so they finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import run
from cases import Case, build_cases, power_count, power_vectors
from checks import Checker
from harness import run_cli_pass, run_library_pass
from spans import Tracer, span_table

BENCH_DIR = Path(__file__).resolve().parent


def tiny(workload: str) -> list[Case]:
    """The three smallest ops of the workload's real case list (seed 0)."""
    body = [c for c in build_cases(workload, 0) if not c.ladder]
    return sorted(body, key=lambda c: power_count(c.u, c.n, c.k) if c.u else 0)[:3]


def fail_ratio(case_list, result) -> float:
    bad = sum(
        1
        for o in result.outcomes
        if run.is_failure(case_list[o.case], o) or o.status == "timeout"
    )
    return bad / len(result.outcomes)


@pytest.mark.parametrize("workload", ["powers", "oracle"])
def test_library_smoke(workload):
    case_list = tiny(workload)
    result = run_library_pass(case_list, Checker())
    assert [o.status for o in result.outcomes] == ["ok"] * 3
    assert fail_ratio(case_list, result) == 0


def test_cli_smoke():
    case_list = tiny("cli")
    result = run_cli_pass(case_list, Checker())
    assert [o.status for o in result.outcomes] == ["ok"] * 3
    assert all(o.rss_kib > 0 and o.ns > 0 for o in result.outcomes)


def test_malformed_requests_expect_their_exit_codes():
    case_list = [c for c in build_cases("cli", 0) if c.exit != 0]
    assert {c.exit for c in case_list} == {1, 2}
    result = run_cli_pass(case_list, Checker())
    assert [o.status for o in result.outcomes] == ["ok"] * len(case_list)


def test_same_seed_same_case_list():
    for workload in cases.WORKLOADS:
        assert build_cases(workload, 7) == build_cases(workload, 7)
        assert build_cases(workload, 1) != build_cases(workload, 2)


def test_seed_keeps_the_work_per_rung():
    """Seeds change u, not the generator counts that set the cost."""

    def counts(seed):
        return sorted((c.n, c.k, power_count(c.u, c.n, c.k)) for c in build_cases("powers", seed))

    assert counts(1) == counts(2) == counts(3)


def test_corrupted_library_answer_is_counted():
    case_list = tiny("powers")

    def drop_last_generator(case, answer):
        if case.op != "power_generators":
            return answer
        return type(answer)(answer.ground, answer.generators[:-1])

    result = run_library_pass(case_list, Checker(), tamper=drop_last_generator)
    tampered = [c.op == "power_generators" for c in case_list]
    assert [o.status == "wrong" for o in result.outcomes] == tampered
    assert fail_ratio(case_list, result) == pytest.approx(sum(tampered) / len(case_list))


def test_corrupted_cli_answer_is_counted():
    case_list = tiny("cli")

    def garble(case, answer):
        code, stdout = answer
        return code, stdout.replace(b"1", b"2") + b"x"

    result = run_cli_pass(case_list, Checker(), tamper=garble)
    assert all(o.status == "wrong" for o in result.outcomes)
    assert fail_ratio(case_list, result) == 1


def test_frontier_ladder_times_out_and_stops(monkeypatch):
    monkeypatch.setattr(cases, "FRONTIER_CAP_S", 0.05)
    ladder = [Case("power_generators", 8, (2, 4, 6, 8), k, ladder="t") for k in (1, 2, 3)]
    result = run_library_pass(ladder, Checker())
    assert [o.status for o in result.outcomes] == ["ok", "timeout", "skipped"]
    assert not any(run.is_failure(c, o) for c, o in zip(ladder, result.outcomes))
    (row,) = run.frontier_summary(ladder, [result])
    assert (row["reached_k"], row["timeout_k"]) == (1, 2)


def test_power_vectors_match_the_count():
    for u, n, k in [((2, 4, 5), 5, 3), ((1, 3), 4, 2), ((2, 4, 6, 7), 7, 2)]:
        vecs = power_vectors(u, n, k)
        assert len(vecs) == power_count(u, n, k)
        assert vecs == sorted(set(vecs), reverse=True)


def test_tracer_records_spans_and_counts():
    import borelstab.borel as borel

    original = borel.power_generators
    tracer = Tracer()
    tracer.install()
    try:
        assert borel.power_generators is not original
        case_list = [Case("power_generators", 5, (2, 4, 5), 2), Case("quotient_profile", 5, (2, 4, 5), 2)]
        result = run_library_pass(case_list, Checker(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert borel.power_generators is original
    table = span_table(result.spans)
    calls, incl, self_ns, child = table["borel.power_generators"]
    assert calls == 2  # once directly, once beneath quotient_profile
    assert table["quotients.quotient_profile"][3] > 0
    assert result.counts["borel.generators"] == 2 * power_count(case_list[0].u, case_list[0].n, case_list[0].k)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
