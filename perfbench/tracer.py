"""Outside-in tracing: wrap klshell's public functions in timed spans.

Nothing inside klshell changes.  ``install`` replaces every name in the
``klshell`` modules that refers to a traced function with a wrapper that
records a span (name, start, end, parent, operation) in memory, and
``restore`` puts every original back.  Classes are traced through their
``__init__``.  ``splu`` is traced at the name ``klshell.solver`` calls, and
the factor object it returns is proxied so that triangular solves are
counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

MARK = "__perfbench_span__"
# bytes per assembled COO triplet: int64 row, int64 column, float64 value
COO_ENTRY_BYTES = 24


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    op: str              # the operation the span belongs to


class Tracer:
    """Spans and counters of the calls made while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)


class _CountingLU:
    """A SuperLU factor object whose ``solve`` calls are counted."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts["solver.triangular_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _on_solve_spd(tracer, args, kwargs):
    K = args[0] if args else kwargs["K"]
    tracer.peak("solver.n_dof", K.shape[0] if hasattr(K, "shape") else K.n)
    tracer.peak("solver.nnz_K", K.nnz)


def _on_factor(tracer, lu):
    tracer.peak("solver.nnz_LU", lu.nnz)
    return _CountingLU(lu, tracer)


def _on_assemble(tracer, args, kwargs):
    patch = args[0] if args else kwargs["patch"]
    nd = patch.conn.shape[1] * 3
    tracer.counts["elements.assemble.elements"] += patch.n_elements
    tracer.counts["elements.assemble.coo_bytes"] += (
        patch.n_elements * nd * nd * COO_ENTRY_BYTES)


def _on_write_field(tracer, args, kwargs):
    density = args[3] if len(args) > 3 else kwargs.get("density", 20)
    tracer.counts["fields.write_field.points"] += density * density


@dataclass(frozen=True)
class Target:
    span: str            # span name, "<layer>.<function>"
    module: str          # module that defines ``attr``
    attr: str
    on_call: object = None     # (tracer, args, kwargs) -> None
    on_result: object = None   # (tracer, result) -> result


TARGETS = (
    Target("cases.run_convergence", "klshell.cases", "run_convergence"),
    Target("cases.solve_case", "klshell.cases", "solve_case"),
    Target("cases.build_loads", "klshell.cases", "build_loads"),
    Target("nurbs.make_uniform", "klshell.nurbs", "make_uniform"),
    Target("elements.Patch", "klshell.elements", "Patch"),
    Target("elements.assemble", "klshell.elements", "assemble", on_call=_on_assemble),
    Target("elements.apply_constraints", "klshell.elements", "apply_constraints"),
    Target("solver.solve_spd", "klshell.solver", "solve_spd", on_call=_on_solve_spd),
    Target("solver.factor", "klshell.solver", "splu", on_result=_on_factor),
    Target("solver.relative_residual", "klshell.solver", "relative_residual"),
    Target("fields.displacement_at", "klshell.fields", "displacement_at"),
    Target("fields.energies", "klshell.fields", "energies"),
    Target("fields.l2_resultant_error", "klshell.fields", "l2_resultant_error"),
    Target("fields.write_field", "klshell.fields", "write_field",
           on_call=_on_write_field),
    Target("cli.write_report_csv", "klshell.cases", "write_report_csv"),
)


def _wrap(tracer: Tracer, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.on_call is not None:
            target.on_call(tracer, args, kwargs)
        result = tracer.call(target.span, fn, *args, **kwargs)
        if target.on_result is not None:
            result = target.on_result(tracer, result)
        return result
    setattr(wrapper, MARK, target.span)
    return wrapper


def _klshell_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "klshell" or name.startswith("klshell."))]


def install(tracer: Tracer, targets=TARGETS) -> list[tuple[object, str, object]]:
    """Wrap every target; return the (owner, name, original) list ``restore`` needs."""
    patched = []
    modules = _klshell_modules()
    for target in targets:
        home = sys.modules.get(target.module)
        fn = getattr(home, target.attr, None)
        cls = fn if isinstance(fn, type) else None
        if cls is not None:
            fn = cls.__dict__.get("__init__")
        if fn is None:
            print(f"perfbench: {target.module}.{target.attr} not found; "
                  f"{target.span} is not traced", file=sys.stderr)
            continue
        if cls is not None:
            setattr(cls, "__init__", _wrap(tracer, target, fn))
            patched.append((cls, "__init__", fn))
            continue
        wrapper = _wrap(tracer, target, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)
                    patched.append((module, name, fn))
    return patched


def restore(patched) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)


def leftover_wrappers() -> list[str]:
    """Names in the klshell modules (and their classes) still bound to a wrapper."""
    found = []
    for module in _klshell_modules():
        for name, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and hasattr(value.__dict__.get("__init__"), MARK):
                found.append(f"{module.__name__}.{name}.__init__")
    return found


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Inclusive seconds, self seconds and call count per span name.

    Self time is a span's duration minus the durations of its children;
    spans are properly nested on one thread, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, c in zip(spans, child):
        incl[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - c
        calls[s.name] += 1
    return incl, own, calls
