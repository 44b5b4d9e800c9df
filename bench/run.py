"""The borelstab benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload powers|oracle|cli --seed N --seconds S --trace 0|1

Runs the workload's case list again and again, one op at a time, until
``S`` seconds of ops have run (at least one pass), checks every answer
outside the timed region, writes a result file with provenance under
``bench/out/`` and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The library is imported from ``src/`` of the checkout
the script sits in; without it the script exits 2 and prints no result.

A traced run alternates untraced and traced passes; the per-layer metrics
come from the traced ones and the tracing overhead is the difference of
the two kinds' median pass times.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from paths import OUT_DIR, ROOT, SRC, child_env

# Fresh processes timed per run for setup_s, cli.spawn_ms and cli.import_ms.
PROBES = 5
# Ops of a pass that must be slower than the reported tail latency.
TAIL_BEYOND = 10

# Every end-to-end metric, printed and kept in the result file.
REPORTED = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# The ones on the JSON line (and in BENCHMARK.json), each with a bound.
# The latency percentiles of single ops are left off: on a shared machine
# their run-to-run spread reaches 0.3, above the largest bound allowed.
END_TO_END = {name: REPORTED[name] for name in ("wall_s", "peak_rss_mib", "setup_s")}

# Per layer: (metric, unit).  Times sit next to the work counts that
# explain them; see README.md for the end-to-end metric each should move.
LAYERS = {
    "borel": [
        ("borel.power_generators.self_s", "s"),
        ("borel.power_generators.calls", "count"),
        ("borel.generators", "count"),
        ("borel.generators_per_s", "1/s"),
        ("borel.borel_closure.self_s", "s"),
        ("borel.expand_squarefree.self_s", "s"),
        ("borel.timeouts", "count"),
    ],
    "monomials": [
        ("monomials.minimalize.self_s", "s"),
        ("monomials.minimalize.calls", "count"),
        ("monomials.generators_in", "count"),
        ("monomials.saturate.self_s", "s"),
        ("monomials.colon.calls", "count"),
    ],
    "quotients": [
        ("quotients.quotient_profile.self_s", "s"),
        ("quotients.quotient_profile.child_s", "s"),
        ("quotients.depth_zero_witness.self_s", "s"),
    ],
    "localization": [
        ("localization.localize_closed_form.calls", "count"),
        ("localization.localize_closed_form.self_s", "s"),
        ("localization.localize_by_saturation.self_s", "s"),
        ("localization.closed_form_calls_per_subset", "1"),
    ],
    "stability": [
        ("stability.stable_set_enumerate.self_s", "s"),
        ("stability.subsets", "count"),
        ("stability.lambda_of_prime.calls", "count"),
    ],
    "assprimes": [
        ("assprimes.irreducible_decomposition.self_s", "s"),
        ("assprimes.box_cells", "count"),
        ("assprimes.components", "count"),
        ("assprimes.associated_primes.self_s", "s"),
        ("assprimes.primes", "count"),
        ("assprimes.m_in_ass.self_s", "s"),
        ("assprimes.m_in_ass.calls", "count"),
        ("assprimes.ass_profile.self_s", "s"),
        ("assprimes.cross_validate.self_s", "s"),
        ("assprimes.timeouts", "count"),
    ],
    "jsonio": [
        ("jsonio.emit.self_ms", "ms"),
        ("jsonio.bytes", "count"),
    ],
    "cli": [
        ("cli.spawn_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.run.self_ms", "ms"),
        ("cli.requests", "count"),
        ("cli.nonzero_exits", "count"),
    ],
    "trace": [
        ("trace.overhead_s", "s"),
    ],
}
ALL_LAYER = {name: unit for rows in LAYERS.values() for name, unit in rows}
# Self times of a layer that some workload never reaches read exactly 0.0
# on every run of that workload.  They are printed and kept in the result
# file, but the JSON line (and BENCHMARK.json) carries only the per-layer
# metrics that are measured on every workload: all counts, and these times.
IDLE_SOMEWHERE = {
    "borel.expand_squarefree.self_s",
    "monomials.minimalize.self_s",
    "monomials.saturate.self_s",
    "quotients.depth_zero_witness.self_s",
    "localization.localize_closed_form.self_s",
    "localization.localize_by_saturation.self_s",
    "stability.stable_set_enumerate.self_s",
    "assprimes.irreducible_decomposition.self_s",
    "assprimes.associated_primes.self_s",
    "assprimes.m_in_ass.self_s",
    "assprimes.ass_profile.self_s",
    "assprimes.cross_validate.self_s",
    "jsonio.emit.self_ms",
    "cli.run.self_ms",
}
PER_LAYER = {name: unit for name, unit in ALL_LAYER.items() if name not in IDLE_SOMEWHERE}

# The layer whose timeouts a capped op counts against.
OP_LAYER = {
    "power_generators": "borel",
    "quotient_profile": "quotients",
    "depth_zero_witness": "quotients",
    "ass_profile": "assprimes",
    "persistence_scan": "assprimes",
    "cross_validate": "assprimes",
    "cli": "cli",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("powers", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: import the library, build the case list, print 'ready'",
    )
    return parser.parse_args(argv)


def timed_child(argv: list[str], until_line: bool = False) -> tuple[float, str]:
    """Seconds from spawning ``argv`` to its exit (or to its first output
    line), and that output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline() if until_line else ""
        t1 = time.perf_counter()
        rest, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not until_line:
        t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return t1 - t0, line + rest


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-process time to ready: interpreter, import, case list."""
    argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--probe-setup"]
    return [timed_child(argv, until_line=True)[0] for _ in range(PROBES)]


def measure_cli_floor() -> tuple[list[float], list[float]]:
    """Bare interpreter spawns, and fresh ``import borelstab.cli`` times."""
    spawn = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBES)]
    code = "import time; t = time.perf_counter(); import borelstab.cli; print(time.perf_counter() - t)"
    imports = [float(timed_child([sys.executable, "-c", code])[1]) for _ in range(PROBES)]
    return spawn, imports


def provenance(args, caps, case_counts) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "borelstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "caps_s": caps,
        "case_count": case_counts,
    }


def is_failure(case, outcome) -> bool:
    """Wrong answers, exceptions, and caps hit outside a frontier ladder."""
    return outcome.status in ("wrong", "error") or (outcome.status == "timeout" and not case.ladder)


def tail(latencies: list[int]) -> tuple[int, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: its value
    and the percentile.  With too few samples, the maximum.

    It is taken per pass, so its rank is set by the case list and not by
    how many passes fit in the run; the run reports the median over passes.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_kib(workload: str, passes) -> int:
    """Peak resident memory of the work that completed.

    For ``cli``, the largest child that was not killed at the cap.  A
    library op stopped at its cap leaves behind a high-water mark that
    depends on how far it got in the time, so for ``powers`` and
    ``oracle`` the reading is this process's high-water mark just before
    the first op that hit a cap (or after the last op).
    """
    ops = [o for p in passes for o in p.outcomes if o.status != "skipped"]
    if workload == "cli":
        return max(o.rss_kib for o in ops if o.status != "timeout")
    peak = 0
    for o in ops:
        if o.status == "timeout":
            break
        peak = o.rss_kib
    return peak


def frontier_summary(cases, passes) -> list[dict]:
    """Per ladder and pass: the last k completed and the step that hit the cap."""
    out = []
    for p in passes:
        reached: dict[str, dict] = {}
        for o in p.outcomes:
            case = cases[o.case]
            if not case.ladder:
                continue
            row = reached.setdefault(case.ladder, {"ladder": case.ladder, "label": case.label,
                                                   "reached_k": 0, "timeout_k": None, "timeout_s": None})
            if o.status == "ok":
                row["reached_k"] = case.k
            elif o.status == "timeout" and row["timeout_k"] is None:
                row["timeout_k"], row["timeout_s"] = case.k, o.ns / 1e9
        out += [dict(row, traced=p.traced) for row in reached.values()]
    return out


def layer_values(cases, p, spawn_ms: float, import_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from spans import calls_beneath, span_table

    table = span_table(p.spans)
    counts = p.counts

    def self_s(name):
        return table[name][2] / 1e9 if name in table else 0.0

    def calls(name):
        return table[name][0] if name in table else 0

    pg_incl_s = table["borel.power_generators"][1] / 1e9 if "borel.power_generators" in table else 0.0
    subsets = counts.get("stability.subsets", 0)
    beneath = calls_beneath(p.spans, "localization.localize_closed_form", "stability.stable_set_enumerate")
    timeouts = {"borel": 0, "assprimes": 0}
    for o in p.outcomes:
        layer = OP_LAYER[cases[o.case].op]
        if o.status == "timeout" and layer in timeouts:
            timeouts[layer] += 1
    cli_ops = [o for o in p.outcomes if cases[o.case].op == "cli" and o.status != "skipped"]
    return {
        "borel.power_generators.self_s": self_s("borel.power_generators"),
        "borel.power_generators.calls": calls("borel.power_generators"),
        "borel.generators": counts.get("borel.generators", 0),
        "borel.generators_per_s": counts.get("borel.generators", 0) / pg_incl_s if pg_incl_s else 0.0,
        "borel.borel_closure.self_s": self_s("borel.borel_closure"),
        "borel.expand_squarefree.self_s": self_s("borel.expand_squarefree"),
        "borel.timeouts": timeouts["borel"],
        "monomials.minimalize.self_s": self_s("monomials.minimalize"),
        "monomials.minimalize.calls": calls("monomials.minimalize"),
        "monomials.generators_in": counts.get("monomials.generators_in", 0),
        "monomials.saturate.self_s": self_s("monomials.saturate"),
        "monomials.colon.calls": calls("monomials.colon"),
        "quotients.quotient_profile.self_s": self_s("quotients.quotient_profile"),
        "quotients.quotient_profile.child_s": table["quotients.quotient_profile"][3] / 1e9
        if "quotients.quotient_profile" in table else 0.0,
        "quotients.depth_zero_witness.self_s": self_s("quotients.depth_zero_witness"),
        "localization.localize_closed_form.calls": calls("localization.localize_closed_form"),
        "localization.localize_closed_form.self_s": self_s("localization.localize_closed_form"),
        "localization.localize_by_saturation.self_s": self_s("localization.localize_by_saturation"),
        "localization.closed_form_calls_per_subset": beneath / subsets if subsets else 0.0,
        "stability.stable_set_enumerate.self_s": self_s("stability.stable_set_enumerate"),
        "stability.subsets": subsets,
        "stability.lambda_of_prime.calls": calls("stability.lambda_of_prime"),
        "assprimes.irreducible_decomposition.self_s": self_s("assprimes.irreducible_decomposition"),
        "assprimes.box_cells": counts.get("assprimes.box_cells", 0),
        "assprimes.components": counts.get("assprimes.components", 0),
        "assprimes.associated_primes.self_s": self_s("assprimes.associated_primes"),
        "assprimes.primes": counts.get("assprimes.primes", 0),
        "assprimes.m_in_ass.self_s": self_s("assprimes.m_in_ass"),
        "assprimes.m_in_ass.calls": calls("assprimes.m_in_ass"),
        "assprimes.ass_profile.self_s": self_s("assprimes.ass_profile"),
        "assprimes.cross_validate.self_s": self_s("assprimes.cross_validate"),
        "assprimes.timeouts": timeouts["assprimes"],
        "jsonio.emit.self_ms": self_s("jsonio.emit") * 1e3,
        "jsonio.bytes": counts.get("jsonio.bytes", 0),
        "cli.spawn_ms": spawn_ms,
        "cli.import_ms": import_ms,
        "cli.run.self_ms": self_s("cli.run") * 1e3,
        "cli.requests": len(cli_ops),
        "cli.nonzero_exits": sum(1 for o in cli_ops if o.exit != 0),
    }


def end_to_end(workload: str, cases, untraced, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced passes, and the counts and
    tail details the result file records next to them."""
    ops = [o for p in untraced for o in p.outcomes if o.status != "skipped"]
    failed = sum(1 for o in ops if is_failure(cases[o.case], o))
    timeouts = sum(1 for o in ops if o.status == "timeout" and cases[o.case].ladder)
    tails = [tail([o.ns for o in p.outcomes if o.status != "skipped"]) for p in untraced]
    e2e = {
        "wall_s": statistics.median(p.wall_ns for p in untraced) / 1e9,
        "op_p50_ms": statistics.median(o.ns for o in ops) / 1e6,
        "op_tail_ms": statistics.median(ns for ns, _ in tails) / 1e6,
        "peak_rss_mib": peak_rss_kib(workload, untraced) / 1024,
        "setup_s": statistics.median(setup),
    }
    summary = {
        "fail_ratio": (failed + timeouts) / len(ops),
        "failed": failed,
        "frontier_timeouts": timeouts,
        "attempted": len(ops),
        "tail": {
            "percentile": tails[0][1],
            "ops_per_pass": len(ops) // len(untraced),
            "beyond": TAIL_BEYOND,
            "ms_per_pass": [ns / 1e6 for ns, _ in tails],
        },
    }
    return e2e, summary


def per_layer(cases, traced, untraced) -> dict[str, float]:
    """Median over traced passes of each per-layer metric, the CLI floor
    probes, and the tracing overhead."""
    spawn, imports = measure_cli_floor()
    spawn_ms, import_ms = statistics.median(spawn) * 1e3, statistics.median(imports) * 1e3
    passes = [layer_values(cases, p, spawn_ms, import_ms) for p in traced]
    layer = {name: statistics.median(v[name] for v in passes) for name in passes[0]}
    layer["trace.overhead_s"] = (
        statistics.median(p.wall_ns for p in traced) - statistics.median(p.wall_ns for p in untraced)
    ) / 1e9
    return layer


def run_passes(args, cases, checker) -> list:
    """Passes until ``--seconds`` of ops have run; a traced run alternates
    untraced and traced passes and runs at least one of each."""
    from harness import run_cli_pass, run_library_pass
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if args.workload == "cli":
            passes.append(run_cli_pass(cases, checker, traced=traced))
        elif traced:
            tracer.install()
            try:
                passes.append(run_library_pass(cases, checker, tracer=tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_library_pass(cases, checker))
        enough = time.perf_counter() - start >= args.seconds
        if enough and (not args.trace or len(passes) >= 2):
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "borelstab" / "__init__.py").is_file():
        print(f"error: no borelstab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import borelstab  # noqa: F401  (part of the set-up being measured)

    from cases import FRONTIER_CAP_S, OP_CAP_S, WORKLOADS, build_cases

    cases = build_cases(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    from checks import Checker

    OUT_DIR.mkdir(exist_ok=True)
    setup = measure_setup(args.workload, args.seed)
    passes = run_passes(args, cases, Checker())

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = failed = 0
    for p in passes:
        for o in p.outcomes:
            if o.status != "skipped":
                attempted += 1
                failed += is_failure(cases[o.case], o)
    e2e, summary = end_to_end(args.workload, cases, untraced, setup)

    caps = {"frontier": FRONTIER_CAP_S, "op": OP_CAP_S}
    counts = {w: len(build_cases(w, args.seed)) for w in WORKLOADS}
    record = {
        "provenance": provenance(args, caps, counts),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {name: {"value": v, "unit": REPORTED[name]} for name, v in e2e.items()},
        **summary,
        "setup_samples_s": setup,
        "frontier": frontier_summary(cases, passes),
        "failures": [
            {"op": cases[o.case].label, "status": o.status, "detail": o.detail}
            for p in passes for o in p.outcomes if is_failure(cases[o.case], o)
        ],
        "ops": [
            {"op": c.label, "ns": [p.outcomes[i].ns for p in untraced],
             "status": [p.outcomes[i].status for p in untraced]}
            for i, c in enumerate(cases)
        ],
    }

    print(f"workload={args.workload} seed={args.seed} cases={len(cases)} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    for row in record["frontier"]:
        if row["timeout_k"] is not None and not row["traced"]:
            print(f"frontier {row['ladder']}: reached k={row['reached_k']}, "
                  f"k={row['timeout_k']} timed out at {row['timeout_s']:.3f} s")
    for row in record["failures"]:
        print(f"FAILED {row['status']}: {row['op']}: {row['detail']}")

    if args.trace:
        layer = per_layer(cases, traced, untraced)
        record["per_layer"] = {name: {"value": layer[name], "unit": unit} for name, unit in ALL_LAYER.items()}
        metrics = {name: record["per_layer"][name] for name in PER_LAYER}
        print(f"{'layer':<13}{'metric':<46}{'value':>18}  unit")
        for lname, rows in LAYERS.items():
            for name, unit in rows:
                print(f"{lname:<13}{name:<46}{layer[name]:>18.6g}  {unit}")
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({
            "provenance": record["provenance"],
            "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"],
            "ops": [c.label for c in cases],
            "passes": [{"spans": p.spans, "counts": p.counts} for p in traced],
        }))
    else:
        for name, m in record["end_to_end"].items():
            print(f"{name:<14}{m['value']:>16.6f} {m['unit']}")
        metrics = {name: record["end_to_end"][name] for name in END_TO_END}
        tail_row = summary["tail"]
        print(f"{'':<14}tail is p{tail_row['percentile']:.1f} of {tail_row['ops_per_pass']} ops a pass, "
              f"median of {len(untraced)} passes; fail_ratio {summary['fail_ratio']:.4f} = "
              f"({summary['failed']} failed + {summary['frontier_timeouts']} frontier timeouts)"
              f" / {summary['attempted']} attempted")

    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
