"""CLI behavior: exit codes, JSON schema and round-trip, corpus runner."""
import io
import json
import os

from liouville.cli import RunConfig, run, main, run_corpus
from liouville.syntax import parse
from liouville.tower import build_tower, convert_expr

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "basic.txt")


def run_text(text, **kw):
    out = io.StringIO()
    code = run(RunConfig(integrand=text, **kw), out=out)
    return code, out.getvalue()


def test_exit_codes():
    code, out = run_text("1/x")
    assert code == 0 and "log(x)" in out

    code, out = run_text("exp(x^2)")
    assert code == 1 and "Risch ODE" in out and "2*x" in out

    code, out = run_text("x^(1/2)")
    assert code == 2 and "unsupported" in out

    code, out = run_text("log(")
    assert code == 2 and "column 5" in out


def test_invalid_interval_rejected():
    assert main(["1/x", "--interval", "2,1"]) == 2


def test_deep_nesting_exits_unsupported(capsys):
    """Input nested past the parser's recursion ends in exit 2, not in an
    uncaught RecursionError (which would exit 1, the non-elementary code)."""
    assert main(["(" * 3000 + "x" + ")" * 3000]) == 2
    err = capsys.readouterr().err
    assert err == "unsupported: input nests too deeply\n"


def test_unexpected_exception_exits_internal_error(monkeypatch, capsys):
    """Any other exception escaping run ends in exit 3 with one line on
    stderr."""
    import liouville.cli as cli_mod

    def broken(t, f):
        raise ValueError("first line\nsecond line")

    monkeypatch.setattr(cli_mod, "integrate", broken)
    assert main(["1/x"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: first line second line\n"


def test_json_output_schema():
    code, out = run_text("1/(x^2-1)", json_output=True)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "elementary"
    assert {"lambda", "arg"} <= set(payload["logs"][0].keys())
    assert payload["verification"]["symbolic_ok"] is True
    assert payload["verification"]["max_abs_error"] < 1e-6

    code, out = run_text("exp(x^2)", json_output=True)
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "non_elementary"
    assert payload["certificate"]["kind"] == "risch_ode_unsolvable"
    assert "y'" in payload["certificate"]["ode"]
    assert payload["assumptions"]


def test_json_round_trip_reverifies():
    """The rendered r0 and log arguments re-parse and rebuild a form whose
    derivative still matches the integrand exactly."""
    for text in ["1/x", "1/(x^2-1)", "log(x)", "1/(x*log(x))", "x*exp(x)",
                 "1/(x^2+1)^2"]:
        code, out = run_text(text, json_output=True)
        assert code == 0
        payload = json.loads(out)
        t, f = build_tower(parse(text))
        r0 = convert_expr(t, parse(payload["r0"]))
        total = t.derive(r0)
        for entry in payload["logs"]:
            lam = convert_expr(t, parse(entry["lambda"]))
            arg = convert_expr(t, parse(entry["arg"]))
            total = total + lam * t.derive(arg) / arg
        assert (total - f).is_zero(), text


def test_no_verify_flag():
    code, out = run_text("1/x", verify=False)
    assert code == 0


def test_corpus_runner():
    out = io.StringIO()
    code = run_corpus(CORPUS, "x", out)
    text = out.getvalue()
    assert code == 0, text
    assert "corpus entries passed" in text
    assert "FAIL" not in text


def test_corpus_empty(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\n\n")
    out = io.StringIO()
    assert run_corpus(str(p), "x", out) == 0
    assert "0/0" in out.getvalue()


def test_corpus_wrong_verdict(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1/x ; non_elementary\n")
    out = io.StringIO()
    assert run_corpus(str(p), "x", out) == 1
    assert "FAIL" in out.getvalue()


def test_corpus_malformed_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1/x\n")
    out = io.StringIO()
    assert run_corpus(str(p), "x", out) == 2
    assert "line 1" in out.getvalue()


def test_var_flag():
    code, out = run_text("1/u", var="u")
    assert code == 0 and "log(u)" in out


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("LIOUVILLE_MAX_DEGREE", "3")
    code, out = run_text("x^9*exp(x)")
    assert code == 2 and "LIOUVILLE_MAX_DEGREE" in out
    monkeypatch.delenv("LIOUVILLE_MAX_DEGREE")
    code, out = run_text("x^9*exp(x)")
    assert code == 0


def test_radical_rendering():
    code, out = run_text("1/(x^2-2)")
    assert code == 0
    assert "sqrt(2)" in out and "log(x - sqrt(2))" in out


def _corpus_entries():
    with open(CORPUS, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                fields = [fld.strip() for fld in line.split(";")]
                yield fields[0], fields[1]


def test_exact_check_runs_once_per_elementary_result(monkeypatch):
    """run re-differentiates an elementary result exactly once (the numeric
    check does not repeat it), and not at all without verification."""
    import liouville.cli as cli_mod
    import liouville.verify as verify_mod

    calls = []
    original = verify_mod.verify_derivative

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli_mod, "verify_derivative", counted)
    monkeypatch.setattr(verify_mod, "verify_derivative", counted)
    for text, verdict in _corpus_entries():
        for verify in (True, False):
            calls.clear()
            run_text(text, json_output=True, verify=verify)
            expected = 1 if verify and verdict == "elementary" else 0
            assert len(calls) == expected, (text, verify, len(calls))
