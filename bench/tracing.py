"""Per-layer spans, recorded by wrapping liouville's layer entry points from
outside; nothing in the program is edited.

Each wrapper pushes a span on one stack, so a span's self time (its
duration minus the time its child spans cover) stays correct through the
recursive _integrate, _solve_rde_level and integrate_polypart_log. Spans of
one input share that input's id; they are kept in memory and written out
when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from runner import BudgetExceeded

# (module, attribute, span name) for every seam; a function imported with
# `from ... import` is replaced in every liouville namespace that binds it
SEAMS = (
    ("liouville.cli", "parse", "syntax.parse"),
    ("liouville.cli", "build_tower", "tower.build"),
    ("liouville.cli", "integrate", "integrate"),
    ("liouville.integrate", "_integrate", "integrate"),
    ("liouville.integrate", "_hermite", "integrate.hermite"),
    ("liouville.integrate", "rothstein_trager", "integrate.logpart"),
    ("liouville.integrate", "_logs_dlog", None),  # named by its caller
    ("liouville.integrate", "integrate_polypart_log", "integrate.polypart_log"),
    ("liouville.integrate", "_solve_rde_level", "integrate.rde"),
    ("liouville.integrate", "combine", "integrate.combine"),
    ("liouville.verify", "verify_derivative", "verify.exact"),
    ("liouville.cli", "_numeric_report", "verify.numeric"),
    ("liouville.algebra.poly", "poly_gcd", "algebra.gcd"),
    ("liouville.algebra.poly", "resultant", "algebra.resultant"),
    ("liouville.algebra.poly", "extended_gcd", "algebra.extended_gcd"),
    ("liouville.cli", "result_json", "cli.render"),
)
DERIVE = "tower.derive"
_SIZED = ("algebra.gcd", "algebra.resultant")


def _dlog_name(parent: str | None) -> str:
    """_logs_dlog is the log-part mismatch under integrate and the exact
    re-differentiation of the log terms under verify."""
    if parent is not None and parent.startswith("verify"):
        return "verify.dlog"
    return "integrate.mismatch"


def _coeff_bits(value) -> int:
    """Largest numerator or denominator bit length inside a Gaussian
    rational, a polynomial, a rational function or an element of an
    algebraic extension, at any nesting depth."""
    if hasattr(value, "coeffs"):
        return max((_coeff_bits(c) for c in value.coeffs), default=0)
    if hasattr(value, "num"):
        return max(_coeff_bits(value.num), _coeff_bits(value.den))
    if hasattr(value, "rep"):
        return _coeff_bits(value.rep)
    return max(value.re.numerator.bit_length(), value.re.denominator.bit_length(),
               value.im.numerator.bit_length(), value.im.denominator.bit_length())


class Tracer:
    """Span stack and span store for one traced run."""

    def __init__(self):
        self.input_id = -1
        self.stack: list[list] = []  # [name, start, child time]
        self.spans: list[tuple] = []  # (input, name, parent, start, end, self)
        # duration of spans with no span of the same name above them, so a
        # recursive layer is not counted twice
        self.total_s: dict[str, float] = defaultdict(float)
        self.numeric_timeouts = 0
        self.max_coeff_bits: dict[int, int] = {}  # input id -> bits
        self._installed: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def begin_input(self, input_id: int):
        self.input_id = input_id
        self.stack.clear()

    def _enter(self, name: str):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self.stack.pop()
        end = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += end - start
        if all(frame[0] != name for frame in self.stack):
            self.total_s[name] += end - start
        self.spans.append((self.input_id, name, parent[0] if parent else None,
                           start, end, end - start - child))

    def _wrapper(self, fn, name: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name or _dlog_name(tracer.stack[-1][0] if tracer.stack else None)
            tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
            except BudgetExceeded:
                if span == "verify.numeric":
                    tracer.numeric_timeouts += 1
                raise
            finally:
                tracer._exit()
            if span in _SIZED:
                bits = tracer.max_coeff_bits
                bits[tracer.input_id] = max(bits.get(tracer.input_id, 0), _coeff_bits(out))
            return out

        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        """Replace every seam in every liouville namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "liouville" or n.startswith("liouville.")]
        for mod_name, attr, name in SEAMS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrapper(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, value))
                        setattr(mod, key, traced)
        tower_cls = sys.modules["liouville.tower"].Tower
        self._installed.append((tower_cls, "derive", tower_cls.derive))
        tower_cls.derive = self._wrapper(tower_cls.derive, DERIVE)

    def uninstall(self):
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    # -- results -------------------------------------------------------------------

    def summary(self, interrupted=frozenset()) -> dict:
        """Self and total time per span name over all inputs; call counts and the
        largest coefficient only over inputs not in `interrupted`, whose
        counts would depend on where the timer stopped them; tower.derive
        self time split by the layer of its parent span."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        derive_by_parent: dict[str, float] = defaultdict(float)
        for input_id, name, parent, _, _, own in self.spans:
            self_s[name] += own
            if input_id not in interrupted:
                calls[name] += 1
            if name == DERIVE:
                layer = parent.split(".")[0] if parent else "none"
                derive_by_parent[layer] += own
        bits = max((b for i, b in self.max_coeff_bits.items() if i not in interrupted),
                   default=0)
        return {"self_s": dict(self_s), "total_s": dict(self.total_s),
                "calls": dict(calls), "derive_self_s_by_parent": dict(derive_by_parent),
                "max_coeff_bits": bits}

    def write(self, path: str):
        """All spans as JSON lines: input id, name, parent, start, end, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
