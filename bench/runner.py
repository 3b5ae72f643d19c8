"""Closed loop with one client: each input goes through liouville.cli.run
exactly as `integrate --json <expr>` runs it, under a per-input time budget
enforced by an interval timer in this process (no threads, no child per
input)."""
from __future__ import annotations

import io
import json
import signal
import time
import traceback
from dataclasses import dataclass

from check import check_result
from workloads import ELEMENTARY, Case

OUTCOMES = ("ok", "wrong_verdict", "unsupported", "timeout", "crash",
            "verify_failure", "check_mismatch")


class BudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


@dataclass
class Result:
    case: Case
    outcome: str
    seconds: float
    detail: str = ""
    checked: bool = False


def _run_timed(cli, case: Case, budget: float):
    """(exit code or None, stdout text, seconds, exception text)."""
    out = io.StringIO()
    config = cli.RunConfig(integrand=case.text, json_output=True)
    code, error = None, ""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            code = cli.run(config, out=out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        error = "timeout"
    except Exception as exc:  # any crash of the program is one outcome
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    elapsed = time.perf_counter() - started
    signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), elapsed, error


def run_case(cli, case: Case, budget: float, check: bool = True) -> Result:
    code, text, elapsed, error = _run_timed(cli, case, budget)
    if error == "timeout":
        return Result(case, "timeout", elapsed)
    if error:
        return Result(case, "crash", elapsed, error)
    try:
        payload = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Result(case, "crash", elapsed, f"exit {code}, unreadable output {text!r}")
    status = payload.get("status")
    if status == "unsupported":
        return Result(case, "unsupported", elapsed, payload.get("error", ""))
    if status == "verification_failure":
        return Result(case, "verify_failure", elapsed, json.dumps(payload))
    if status != case.verdict:
        detail = json.dumps(payload.get("certificate", payload.get("r0", "")))
        return Result(case, "wrong_verdict", elapsed, f"{status}: {detail}")
    if status != ELEMENTARY or not check:
        return Result(case, "ok", elapsed)
    verdict, detail = check_result(case.integrand, payload)
    if verdict is False:
        return Result(case, "check_mismatch", elapsed, detail, checked=True)
    return Result(case, "ok", elapsed, detail, checked=verdict is True)
