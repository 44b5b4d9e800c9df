"""Run one pass over a case list: one op at a time, closed loop.

Library ops run in this process under a per-op cap enforced by
``SIGALRM``; CLI ops run as one fresh interpreter each, killed at the cap.
Each op is timed alone with ``perf_counter_ns`` and checked right after,
outside its timed window.  A ladder (a frontier rung) stops after its
first timeout, and the steps it did not reach are recorded as skipped.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns

from checks import Checker, library_call
from paths import BENCH_DIR, OUT_DIR, ROOT, child_env

CLI_TRACED = BENCH_DIR / "cli_traced.py"


class OpTimeout(BaseException):
    """Raised inside a library op that ran past its cap."""


@dataclass
class Outcome:
    """What one op did: ``status`` is ok, wrong, error, timeout or skipped.

    ``rss_kib`` is the peak resident memory after the op: the CLI child's
    own, or this process's high-water mark so far for a library op.
    """

    case: int
    ns: int
    status: str
    detail: str = ""
    rss_kib: int = 0
    exit: int = 0


@dataclass
class PassResult:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return sum(o.ns for o in self.outcomes)


class _Alarm:
    """Turns SIGALRM into :class:`OpTimeout` while an op is armed."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def start(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def stop(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_library_pass(cases, checker: Checker, tracer=None, tamper=None) -> PassResult:
    """Run every library case once; with ``tracer``, record spans."""
    result = PassResult(traced=tracer is not None)
    alarm = _Alarm()
    stopped: set[str] = set()
    for i, case in enumerate(cases):
        if case.ladder in stopped:
            result.outcomes.append(Outcome(i, 0, "skipped"))
            continue
        fn, args = library_call(case)
        if tracer is not None:
            tracer.begin(i)
        answer, status, detail = None, "ok", ""
        t0 = perf_counter_ns()
        try:
            alarm.start(case.cap_s)
            answer = fn(*args)
            alarm.stop()
        except OpTimeout:
            status = "timeout"
        except Exception as exc:  # the op's own failure is a result to record
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        finally:
            alarm.stop()
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.end()
        if status == "timeout" and case.ladder:
            stopped.add(case.ladder)
        if status == "ok":
            if tamper is not None:
                answer = tamper(case, answer)
            reason = checker.check(case, answer)
            if reason:
                status, detail = "wrong", reason
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.outcomes.append(Outcome(i, t1 - t0, status, detail, rss))
    if tracer is not None:
        result.spans, result.counts = tracer.take()
    return result


def _run_request(argv: list[str], cap_s: float, env: dict) -> tuple[int, int, bytes, bytes, int, bool]:
    """Run one CLI process; returns status, ns, stdout, stderr, peak RSS
    (KiB) and whether it was killed at the cap."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(cap_s, proc.kill)
        killer.start()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        t1 = perf_counter_ns()
        killer.cancel()
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        killed = proc.returncode == -signal.SIGKILL
        out.seek(0)
        err.seek(0)
        return proc.returncode, t1 - t0, out.read(), err.read(), usage.ru_maxrss, killed


def run_cli_pass(cases, checker: Checker, traced: bool = False, tamper=None) -> PassResult:
    """Run every CLI case as a fresh process.  Traced requests go through
    ``cli_traced.py``, which records spans into a file per request."""
    result = PassResult(traced=traced)
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    spans_file = OUT_DIR / f"spans-{os.getpid()}.json"
    if traced:
        env["BENCH_SPANS"] = str(spans_file)
    entry = [str(CLI_TRACED)] if traced else ["-m", "borelstab.cli"]
    counts: dict = {}
    for i, case in enumerate(cases):
        argv = [sys.executable, *entry, *case.argv]
        code, ns, stdout, stderr, rss, killed = _run_request(argv, case.cap_s, env)
        status, detail = "ok", ""
        if killed:
            status = "timeout"
        else:
            if tamper is not None:
                code, stdout = tamper(case, (code, stdout))
            reason = checker.check_cli(case, (code, stdout))
            if reason:
                status, detail = "wrong", f"{reason}; stderr: {stderr.decode()[-200:]!r}"
        result.outcomes.append(Outcome(i, ns, status, detail, rss, code))
        if traced and spans_file.exists():
            dumped = json.loads(spans_file.read_text())
            spans_file.unlink()
            result.spans += [[i, *span[1:]] for span in dumped["spans"]]
            for key, value in dumped["counts"].items():
                counts[key] = counts.get(key, 0) + value
    result.counts = counts
    return result
