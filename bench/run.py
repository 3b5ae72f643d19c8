"""liouville benchmark: time to verdict and verdict rate per workload.

    python3 bench/run.py --workload roundtrip|rational|tower --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; liouville is imported from its src/. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1. The lines before it name every
metric with its unit and list every failed input. A full record (inputs
hash, outcomes, failures, per-layer data) is written under bench/out/,
together with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter

import workloads
from runner import OUTCOMES, run_case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")

# Per-input budget (seconds) per workload. At the seed commit tower inputs
# end within 0.2 s or run for 8 s and more, and rational inputs end within
# about 2 s, so the same inputs time out on every run. The roundtrip fuzz
# has a continuous tail of slow inputs, so at any budget a few inputs end
# close to it; 0.5 s keeps the inputs that outlast it (mostly the numeric
# check on huge integrands) from dominating wall_s.
BUDGET = {"roundtrip": 0.5, "rational": 10.0, "tower": 2.0}

# Inputs per 30 seconds of --seconds, sized so one pass over the fixed
# input set takes about --seconds on two cores at the seed commit.
ROUNDTRIP_COUNT = 1200
RATIONAL_COUNTS = {"hermite": 30, "radical": 30, "rootsum": 18, "mixed": 8}
TOWER_COUNTS = {
    "log_product": 6, "log_product_unordered": 6, "nested_log": 20,
    "exp_pole": 20, "log_of_exp": 20, "exp_of_log": 20, "log_log_log": 2,
    "exp_exp_poly": 1, "tan_cube": 1, "erf": 2, "ei": 2, "li": 2,
    "exp_exp": 2, "log_log": 2, "dilog": 2,
}
SETUP_REPEATS = 15
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import liouville.cli; "
    "print(time.perf_counter() - t)"
)


def make_cases(workload: str, seed: int, seconds: int):
    scale = seconds / 30.0

    def n(count: int) -> int:
        return max(1, round(count * scale))

    if workload == "roundtrip":
        return workloads.roundtrip(seed, n(ROUNDTRIP_COUNT))
    if workload == "rational":
        return workloads.rational(seed, {k: n(v) for k, v in RATIONAL_COUNTS.items()})
    return workloads.tower(seed, {k: n(v) for k, v in TOWER_COUNTS.items()})


def inputs_hash(cases) -> str:
    h = hashlib.sha256()
    for c in cases:
        h.update(f"{c.text}\t{c.verdict}\n".encode())
    return h.hexdigest()


def import_liouville():
    """liouville.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "liouville", "cli.py")):
        raise SystemExit(f"no liouville sources under {SRC}")
    sys.path.insert(0, SRC)
    import liouville.cli as cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"liouville imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> float:
    """Median time of `import liouville.cli` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(cli, cases, budget: float, check: bool, tracer=None):
    results = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.begin_input(i)
        results.append(run_case(cli, case, budget, check=check))
    return results


def latency_ms(results, budget: float) -> list[float]:
    """Per-input time to verdict. A failed input counts as missing the
    limit: a timeout's own time already exceeds the budget, any other
    failure is counted as the budget plus its own time."""
    out = []
    for r in results:
        t = r.seconds
        if r.outcome not in ("ok", "timeout"):
            t += budget
        out.append(t * 1000.0)
    return out


def end_to_end(results, budget: float, setup_s: float) -> dict:
    lat = latency_ms(results, budget)
    ok = sum(r.outcome == "ok" for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(r.seconds for r in results), "s"),
        "verdict_p50_ms": (statistics.median(lat), "ms"),
        "verdict_p99_ms": (statistics.quantiles(lat, n=100, method="inclusive")[98], "ms"),
        "verdict_rate": (ok / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_SPANS = (
    "syntax.parse", "tower.build", "tower.derive", "integrate",
    "integrate.hermite", "integrate.logpart", "integrate.mismatch",
    "integrate.polypart_log", "integrate.rde", "integrate.combine",
    "verify.exact", "verify.dlog", "verify.numeric", "algebra.gcd",
    "algebra.resultant", "algebra.extended_gcd", "cli.render",
)
# layers with child spans, whose total (inclusive) time differs from self time
TOTAL_SPANS = (
    "tower.build", "tower.derive", "integrate", "integrate.hermite",
    "integrate.logpart", "integrate.mismatch", "integrate.polypart_log",
    "integrate.rde", "integrate.combine", "verify.exact", "verify.dlog",
    "verify.numeric",
)
COUNTED_SPANS = (
    "tower.derive", "integrate.hermite", "integrate.logpart", "integrate.rde",
    "verify.exact", "algebra.gcd", "algebra.resultant", "algebra.extended_gcd",
)


def per_layer(results, traced, tracer, untraced_wall: float) -> dict:
    interrupted = frozenset(i for i, r in enumerate(traced) if r.outcome == "timeout")
    summary = tracer.summary(interrupted)
    self_s, calls = summary["self_s"], summary["calls"]
    traced_wall = sum(r.seconds for r in traced)
    covered = sum(self_s.values())
    elementary = sum(r.case.verdict == workloads.ELEMENTARY and r.outcome == "ok"
                     for r in traced)
    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in TOTAL_SPANS:
        m[f"{name}.total_s"] = (summary["total_s"].get(name, 0.0), "s")
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for layer in ("tower", "integrate", "verify"):
        m[f"tower.derive.self_s.in_{layer}"] = (
            summary["derive_self_s_by_parent"].get(layer, 0.0), "s")
    m["verify.exact.calls_per_result"] = (
        calls.get("verify.exact", 0) / elementary if elementary else 0.0, "count")
    m["verify.numeric.timeouts"] = (tracer.numeric_timeouts, "count")
    m["algebra.max_coeff_bits"] = (summary["max_coeff_bits"], "bit")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.uncovered_s"] = (traced_wall - covered, "s")
    counts = Counter(r.outcome for r in results)
    for outcome in OUTCOMES:
        m[f"outcome.{outcome}"] = (counts.get(outcome, 0), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUDGET))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_liouville()
    budget = BUDGET[args.workload]
    cases = make_cases(args.workload, args.seed, args.seconds)
    digest = inputs_hash(cases)

    results = run_pass(cli, cases, budget, check=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "budget_s": budget, "inputs": len(cases),
              "inputs_sha256": digest}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}")
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, cases, budget, check=False, tracer=tracer)
        finally:
            tracer.uninstall()
        changed = [r.case.text for r, t in zip(results, traced)
                   if r.outcome != t.outcome and "timeout" not in (r.outcome, t.outcome)
                   and not (r.outcome == "check_mismatch" and t.outcome == "ok")]
        if changed:
            raise SystemExit(f"tracing changed the outcome of {changed[:3]}")
        metrics = per_layer(results, traced, tracer, sum(r.seconds for r in results))
        tracer.write(stem + "-spans.jsonl")
    else:
        metrics = end_to_end(results, budget, measure_setup())

    counts = Counter(r.outcome for r in results)
    failures = [r for r in results if r.outcome != "ok"]
    elementary_ok = [r for r in results
                     if r.outcome in ("ok", "check_mismatch")
                     and r.case.verdict == workloads.ELEMENTARY]
    checked = sum(r.checked for r in elementary_ok)
    families: dict[str, dict] = {}
    for r in results:
        fam = families.setdefault(r.case.family, {"inputs": 0, "seconds": 0.0, "max_s": 0.0})
        fam["inputs"] += 1
        fam["seconds"] += r.seconds
        fam["max_s"] = max(fam["max_s"], r.seconds)
    slowest_ok = sorted((r for r in results if r.outcome == "ok"), key=lambda r: -r.seconds)[:5]
    record.update({
        "families": families,
        "slowest_ok": [{"input": r.case.text, "seconds": r.seconds} for r in slowest_ok],
        "latency_ms": [round(t, 3) for t in latency_ms(results, budget)],
        "outcomes": {k: counts.get(k, 0) for k in OUTCOMES},
        "fail_rate": len(failures) / len(results),
        "independent_check": {"elementary_results": len(elementary_ok), "checked": checked},
        "failures": [{"outcome": r.outcome, "family": r.case.family, "input": r.case.text,
                      "seconds": r.seconds, "detail": r.detail} for r in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} inputs={len(cases)} budget={budget} s "
          f"sha256={digest[:16]}")
    for r in failures:
        print(f"# FAIL {r.outcome:14} [{r.case.family}] {r.case.text}  {r.detail[:160]}")
    print(f"# outcomes {dict(counts)}; fail_rate {record['fail_rate']:.6f} ratio; "
          f"independent check covered {checked} of {len(elementary_ok)} elementary results")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": counts.get("check_mismatch", 0) == 0,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
