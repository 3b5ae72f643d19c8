"""Command line interface and regression-corpus runner.

Exit codes: 0 = elementary (form printed), 1 = non-elementary (certificate
printed), 2 = unsupported or malformed input (including input nested too
deeply to parse), 3 = internal error (a result whose derivative does not
reproduce the integrand, or any other exception; must never happen).

Corpus format, one entry per line, '#' comments:

    <expr> ; elementary | non_elementary ; [expected form or certificate kind]
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra.gaussian import GaussRat
from .algebra.roots import gauss_sqrt
from .errors import UnsupportedError
from .syntax import (
    ParseError, Log, parse, pretty_print, add_e, mul_e, const_e,
)
from .tower import Tower, TowerElem, build_tower, convert_expr
from .integrate import (
    LiouvilleForm, NonElementary, RootSumTerm,
    ResidueNotConstant, RischOdeUnsolvable, LogDegreeObstruction,
    integrate,
)
from .verify import (
    numeric_check, verify_derivative, SingularIntervalError, VerificationReport,
)

EXIT_ELEMENTARY = 0
EXIT_NON_ELEMENTARY = 1
EXIT_UNSUPPORTED = 2
EXIT_VERIFY_BUG = 3

_DEFAULT_INTERVALS = [(1.0, 2.0), (2.0, 3.0), (0.25, 0.75), (3.0, 4.0), (-2.0, -1.0)]


@dataclass
class RunConfig:
    integrand: str | None = None
    var: str = "x"
    json_output: bool = False
    verify: bool = True
    interval: tuple[float, float] | None = None
    corpus: str | None = None


# ------------------------------------------------------------------ rendering


def _const_str(c: GaussRat) -> str:
    return pretty_print(const_e(c))


def _square_free_split(q: Fraction) -> tuple[Fraction, int]:
    """sqrt(q) = c * sqrt(k) for positive rational q, with k a squarefree
    integer; square parts extracted by trial division (constants are small)."""
    inner = q.numerator * q.denominator
    s, k = 1, 1
    n, d = inner, 2
    while d * d <= n:
        cnt = 0
        while n % d == 0:
            n //= d
            cnt += 1
        if cnt:
            s *= d ** (cnt // 2)
            if cnt % 2:
                k *= d
        d += 1
    if n > 1:
        k *= n
    return Fraction(s, q.denominator), k


def _sqrt_text(z: GaussRat) -> str:
    """Readable formal square root of a constant."""
    if z.is_rational():
        q = z.re
        if q > 0:
            c, k = _square_free_split(q)
            if c == 1:
                return f"sqrt({k})"
            return f"{_const_str(GaussRat(c))}*sqrt({k})"
        c, k = _square_free_split(-q)
        coef = _const_str(GaussRat(0, c))
        return f"{coef}*sqrt({k})" if c != 1 else f"i*sqrt({k})"
    return f"sqrt({_const_str(z)})"


def _radical_pair_strings(t: Tower, rs: RootSumTerm):
    """Expand a quadratic root sum into two explicit log terms carrying one
    formal radical constant."""
    p = rs.poly.coeff(1)
    q = rs.poly.coeff(0)
    a = -p / GaussRat(2)
    disc = a * a - q
    if gauss_sqrt(disc) is not None:
        return None  # reducible; should have split into rational roots
    sqrt_txt = _sqrt_text(disc)
    v0 = TowerElem(t, rs.level, rs.arg.coeff(0))
    v1 = TowerElem(t, rs.level, rs.arg.coeff(1))
    u = v0 + t.const(a) * v1
    # fold a rational constant v1 into the radicand: v1*sqrt(disc) =
    # sign(v1)*sqrt(v1^2*disc)
    arg_radical = None
    if v1.is_constant():
        c1 = v1.const_value()
        if c1.is_rational() and not c1.is_zero():
            folded = _sqrt_text(c1 * c1 * disc)
            arg_radical = (folded, 1 if c1.re > 0 else -1)
    lam_parts = []
    for sign in (1, -1):
        mark = "+" if sign > 0 else "-"
        if a.is_zero():
            lam = sqrt_txt if sign > 0 else f"-{sqrt_txt}"
        else:
            lam = f"{_const_str(a)} {mark} {sqrt_txt}"
        if v1.is_zero():
            arg = str(u)
        elif arg_radical is not None:
            folded, sigma = arg_radical
            arg_mark = "+" if sign * sigma > 0 else "-"
            arg = f"{u} {arg_mark} {folded}" if not u.is_zero() else (
                folded if sign * sigma > 0 else f"-{folded}"
            )
        else:
            arg = f"{u} {mark} {sqrt_txt}*({v1})"
        lam_parts.append((lam, arg))
    return lam_parts


def _rootsum_str(t: Tower, rs: RootSumTerm) -> str:
    if rs.poly.degree() == 2:
        pair = _radical_pair_strings(t, rs)
        if pair is not None:
            return " + ".join(f"({lam})*log({arg})" for lam, arg in pair)
    w = rs.poly.var
    parts = []
    for k in range(rs.arg.degree(), -1, -1):
        c = TowerElem(t, rs.level, rs.arg.coeff(k))
        if c.is_zero():
            continue
        if k == 0:
            parts.append(f"({c})")
        elif k == 1:
            parts.append(f"({c})*{w}")
        else:
            parts.append(f"({c})*{w}^{k}")
    arg_txt = " + ".join(parts) if parts else "0"
    return f"RootSum({rs.poly} = 0, {w}*log({arg_txt}))"


def render_text(t: Tower, form: LiouvilleForm) -> str:
    expr = t.to_expr(form.r0)
    for term in form.logs:
        expr = add_e(expr, mul_e(const_e(term.coeff), Log(t.to_expr(term.arg))))
    out = pretty_print(expr)
    for rs in form.root_sums:
        piece = _rootsum_str(t, rs)
        out = piece if out == "0" else f"{out} + {piece}"
    return out


def _cert_json(cert) -> dict:
    if isinstance(cert, RischOdeUnsolvable):
        return {
            "kind": cert.kind,
            "level": cert.level,
            "ode": cert.ode,
            "trace": list(cert.trace),
        }
    if isinstance(cert, ResidueNotConstant):
        return {"kind": cert.kind, "level": cert.level, "detail": cert.detail}
    out = {"kind": cert.kind, "level": cert.level, "detail": cert.detail}
    if cert.inner is not None:
        out["inner"] = _cert_json(cert.inner)
    return out


def _cert_text(cert) -> str:
    if isinstance(cert, RischOdeUnsolvable):
        msg = f"non-elementary: Risch ODE {cert.ode} has no rational solution"
        if cert.trace:
            msg += "\n  trace: " + "; ".join(cert.trace)
        return msg
    if isinstance(cert, ResidueNotConstant):
        return f"non-elementary: {cert.detail} (level {cert.level})"
    msg = f"non-elementary: {cert.detail} (level {cert.level})"
    if cert.inner is not None:
        msg += "\n  inner: " + _cert_text(cert.inner).replace("non-elementary: ", "")
    return msg


def result_json(t: Tower, res, report=None, symbolic_ok: bool = False) -> dict:
    if isinstance(res, NonElementary):
        return {
            "status": "non_elementary",
            "certificate": _cert_json(res.certificate),
            "assumptions": list(res.assumptions),
        }
    out = {
        "status": "elementary",
        "r0": pretty_print(t.to_expr(res.r0)),
        "logs": [
            {
                "lambda": _const_str(term.coeff),
                "arg": pretty_print(t.to_expr(term.arg)),
            }
            for term in res.logs
        ],
        "assumptions": list(res.assumptions),
    }
    if res.root_sums:
        out["root_sums"] = [
            {"poly": str(rs.poly), "term": _rootsum_str(t, rs), "level": rs.level}
            for rs in res.root_sums
        ]
    if report is not None:
        out["verification"] = {
            "symbolic_ok": symbolic_ok,
            "numeric": "passed" if report.conclusive else "inconclusive",
            "max_abs_error": report.max_abs_error,
            "max_rel_error": report.max_rel_error,
            "samples": [
                {
                    "interval": list(s.interval),
                    "abs_error": s.abs_error,
                }
                for s in report.numeric_samples
            ],
        }
    return out


# ------------------------------------------------------------------- running


def _numeric_report(t, res, f, interval):
    """The first conclusive report over the candidate intervals, else the first
    inconclusive one, else an empty one. A singular explicit interval raises."""
    fallback = None
    for cand in [interval] if interval else _DEFAULT_INTERVALS:
        try:
            report = numeric_check(t, res, f, cand)
            if report.conclusive:
                return report
            fallback = fallback or report
        except (SingularIntervalError, OverflowError, ZeroDivisionError):
            if interval:
                raise
    return fallback or VerificationReport()


def run(config: RunConfig, out=None) -> int:
    out = out or sys.stdout

    def emit(payload):
        print(payload, file=out)

    if config.corpus:
        return run_corpus(config.corpus, config.var, out)
    try:
        expr = parse(config.integrand)
        t, f = build_tower(expr, config.var)
        res = integrate(t, f)
    except ParseError as e:
        if config.json_output:
            emit(json.dumps({"status": "unsupported", "error": str(e)}))
        else:
            emit(f"parse error: {e}")
        return EXIT_UNSUPPORTED
    except UnsupportedError as e:
        if config.json_output:
            emit(json.dumps({"status": "unsupported", "error": str(e)}))
        else:
            emit(f"unsupported: {e}")
        return EXIT_UNSUPPORTED
    if isinstance(res, NonElementary):
        if config.json_output:
            emit(json.dumps(result_json(t, res)))
        else:
            emit(_cert_text(res.certificate))
            for a in res.assumptions:
                emit(f"  assuming: {a}")
        return EXIT_NON_ELEMENTARY
    symbolic_ok = config.verify and verify_derivative(t, res, f)
    if config.verify and not symbolic_ok:
        if config.json_output:
            emit(json.dumps({"status": "verification_failure"}))
        else:
            emit("internal error: result failed exact re-differentiation")
        return EXIT_VERIFY_BUG
    report = None
    if config.verify:
        try:
            report = _numeric_report(t, res, f, config.interval)
        except SingularIntervalError as e:
            if config.json_output:
                emit(json.dumps({"status": "unsupported", "error": str(e)}))
            else:
                emit(f"interval error: {e}")
            return EXIT_UNSUPPORTED
        if report.conclusive and not report.numeric_ok:
            if config.json_output:
                emit(json.dumps({"status": "verification_failure",
                                 "max_abs_error": report.max_abs_error,
                                 "max_rel_error": report.max_rel_error}))
            else:
                emit("internal error: numeric check failed with max relative "
                     f"error {report.max_rel_error:.3g}")
            return EXIT_VERIFY_BUG
    if config.json_output:
        emit(json.dumps(result_json(t, res, report, symbolic_ok)))
    else:
        emit(render_text(t, res))
        for a in res.assumptions:
            emit(f"  assuming: {a}")
        if report is not None and not report.conclusive:
            emit("  numeric check inconclusive")
    return EXIT_ELEMENTARY


# -------------------------------------------------------------------- corpus


_CERT_KINDS = {
    "risch_ode_unsolvable": RischOdeUnsolvable,
    "residue_not_constant": ResidueNotConstant,
    "log_degree_obstruction": LogDegreeObstruction,
}


def _check_expected_form(t: Tower, f: TowerElem, expected_text: str) -> bool:
    expected = convert_expr(t, parse(expected_text))
    return (t.derive(expected) - f).is_zero()


def run_corpus(path: str, var: str, out) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        print(f"cannot read corpus: {e}", file=out)
        return EXIT_UNSUPPORTED
    failures = 0
    total = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [fld.strip() for fld in line.split(";")]
        if len(fields) < 2 or fields[1] not in ("elementary", "non_elementary"):
            print(f"corpus line {lineno}: malformed entry", file=out)
            return EXIT_UNSUPPORTED
        text, verdict = fields[0], fields[1]
        expected = fields[2] if len(fields) > 2 and fields[2] else None
        total += 1
        started = time.perf_counter()
        status = "pass"
        detail = ""
        try:
            t, f = build_tower(parse(text), var)
            res = integrate(t, f)
            if isinstance(res, NonElementary):
                if verdict != "non_elementary":
                    status, detail = "FAIL", "expected elementary"
                elif expected and res.certificate.kind != expected:
                    status, detail = (
                        "FAIL",
                        f"certificate {res.certificate.kind}, expected {expected}",
                    )
            else:
                if verdict != "elementary":
                    status, detail = "FAIL", "expected non_elementary"
                elif not verify_derivative(t, res, f):
                    status, detail = "FAIL", "derivative mismatch"
                elif expected and not _check_expected_form(t, f, expected):
                    status, detail = "FAIL", "expected form does not differentiate back"
        except (ParseError, UnsupportedError) as e:
            status, detail = "FAIL", f"{type(e).__name__}: {e}"
        elapsed = (time.perf_counter() - started) * 1000.0
        if status == "FAIL":
            failures += 1
        pad = " " * max(1, 34 - len(text))
        print(f"{status:4} {text}{pad}{elapsed:8.1f} ms  {detail}", file=out)
    print(f"{total - failures}/{total} corpus entries passed", file=out)
    return EXIT_ELEMENTARY if failures == 0 else EXIT_NON_ELEMENTARY


# ---------------------------------------------------------------------- main


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("interval must be 'lo,hi'")
    if not lo < hi:
        raise argparse.ArgumentTypeError("interval must satisfy lo < hi")
    return lo, hi


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="integrate",
        description="Integrate an elementary expression in finite terms, or "
        "certify that no elementary antiderivative exists.",
    )
    ap.add_argument("integrand", nargs="?", help="expression to integrate")
    ap.add_argument("--var", default="x", help="integration variable (default x)")
    ap.add_argument("--json", action="store_true", dest="json_output")
    ap.add_argument("--no-verify", action="store_true")
    ap.add_argument("--interval", type=_parse_interval, default=None,
                    help="numeric check interval 'lo,hi'")
    ap.add_argument("--corpus", default=None, help="run a regression corpus file")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.integrand is None and args.corpus is None:
        ap.print_usage(sys.stderr)
        return EXIT_UNSUPPORTED
    if not args.var.isidentifier():
        print(f"invalid variable name {args.var!r}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    config = RunConfig(
        integrand=args.integrand,
        var=args.var,
        json_output=args.json_output,
        verify=not args.no_verify,
        interval=args.interval,
        corpus=args.corpus,
    )
    try:
        return run(config)
    except RecursionError:
        print("unsupported: input nests too deeply", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as e:
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_VERIFY_BUG


if __name__ == "__main__":
    sys.exit(main())
