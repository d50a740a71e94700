"""Operation timing and optional spans around calls into srtrkit.

An operation is one unit of user work: the program part is timed as a whole,
then its outputs are checked outside the timed window. With tracing on, every
call made through ``Recorder.call`` (and every function wrapped with
``Recorder.wrap``) records a span (name, start, end, parent, operation id);
the spans stay in memory until ``dump_spans`` writes them out.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


class Check:
    """Collects the verdicts of one operation's checks.

    ``exact`` records a relative residual of an exact-answer check (an
    identity, agreement with expm, a Riccati residual); those feed
    ``accuracy_digits``. ``within`` and ``expect`` are pass/fail checks
    against a stated tolerance or a value known from construction.
    """

    def __init__(self):
        self.residuals: list[float] = []
        self.failures: list[str] = []
        self.failed_checks: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failures.append(f"{what}: {detail}")
        self.failed_checks.append(what)

    def exact(self, what: str, residual: float, tol: float) -> None:
        residual = float(residual)
        if not math.isfinite(residual) or residual > tol:
            self.fail(what, f"residual {residual:.3e} above {tol:g}")
        else:
            self.residuals.append(residual)

    def within(self, what: str, value: float, tol: float) -> None:
        value = float(value)
        if not math.isfinite(value) or value > tol:
            self.fail(what, f"{value:.3e} above {tol:g}")

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.fail(what, f"got {got!r}, expected {want!r}")


class Recorder:
    """Times operations; with ``tracing`` also records spans."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list = []
        self.ops: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = 0
        self._patched: list = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; with tracing on, record a span named ``name``."""
        if not self.tracing:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op_id)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        ``unwrap_all``; does nothing when tracing is off."""
        if not self.tracing:
            return
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    # -- operations ----------------------------------------------------------

    def run_op(self, name: str, program, check, known_fault: tuple = ()) -> dict:
        """Time ``program()``, then run ``check(outputs, Check)`` untimed.

        The operation fails when the program raises or a check fails. An
        operation kept for a known program fault names, in ``known_fault``,
        the checks whose failure is that fault; its residuals are left out
        of the accuracy figure. Its failure is the known one only when no
        other check failed and neither the program nor a check raised.
        """
        self._op_id += 1
        error = None
        outputs = None
        with self._op_span(name):
            start = perf_counter()
            try:
                outputs = program()
            except Exception as exc:  # any program error fails the operation
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        verdict = Check()
        if error is None:
            try:
                check(outputs, verdict)
            except Exception as exc:  # a malformed output can break a check
                verdict.fail("check raised", "%s: %s" % (type(exc).__name__, exc))
        else:
            verdict.fail("program raised", error)
        failed = bool(verdict.failures)
        op = {
            "name": name,
            "seconds": seconds,
            "failed": failed,
            "known_failure": failed and set(verdict.failed_checks) <= set(known_fault),
            "failures": verdict.failures,
            "residuals": [] if known_fault else verdict.residuals,
        }
        self.ops.append(op)
        return op

    @contextmanager
    def _op_span(self, name: str):
        if not self.tracing:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = ("op." + name, start, end, -1, self._op_id)

    def dump_spans(self, path) -> None:
        names = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans if s is not None], fh)


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds, measured on an empty call."""
    rec = Recorder(tracing=True)
    noop = lambda: None  # noqa: E731
    start = perf_counter()
    for _ in range(samples):
        rec.call("noop", noop)
    traced = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        noop()
    plain = perf_counter() - start
    return max(traced - plain, 0.0) / samples
