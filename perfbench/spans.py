"""Layer spans recorded from outside the library.

The traced run replaces each public function named in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent, op) in memory.  Every
namespace of the ``peirce_lab`` package that binds the function is patched,
because ``identities``, ``algebras`` and ``cli`` import names directly or
through the package.  A function the library no longer defines is reported as
absent; it is not an error.

A span's self time is its duration minus the time covered by its child spans.
A recursive call into the function that is already open records no new span,
so the memoized recursions of ``peirce`` cost one span per top-level call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from workloads import coeff_bits

MODULES = ("magma", "poly", "peirce", "identities", "algebras", "cli")

# Wrapped function -> the workload on which it must record calls.
TARGETS = {
    "magma.enumerate_monomials": "cli",
    "poly.rational_roots": "symbolic",
    "poly.divide_exact": "symbolic",
    "peirce.peirce_poly": "symbolic",
    "peirce.peirce_symbol": "symbolic",
    "identities.identity_peirce_poly": "symbolic",
    "identities.identity_symbol": "symbolic",
    "identities.spectrum": "symbolic",
    "identities.fusion_table": "symbolic",
    "algebras.StructureAlgebra.multiply": "concrete",
    "algebras.evaluate_monomial": "concrete",
    "algebras.linearize": "concrete",
    "algebras.second_linearization": "concrete",
    "algebras.verify_identity": "concrete",
    "algebras.verify_first_linearization": "concrete",
    "algebras.verify_second_linearization": "concrete",
    "algebras.spectrum_inclusion_check": "concrete",
    "algebras.fusion_empirical": "concrete",
    "algebras.solve": "concrete",
    "algebras.algebra_from_json": "concrete",
    "algebras.char_poly_matrix": "concrete",
    "algebras.null_space": "concrete",
    "algebras.eigen_decomposition": "concrete",
    "cli.main": "cli",
}


# Counter -> (function, target): calls of the function made while a span of
# the target is open.  Y(lam, mu, nu) is one Poly3 evaluation in fusion_table.
CALL_COUNTS = {
    "identities.fusion_table.y_evals": ("poly.Poly3.__call__", "identities.fusion_table"),
}


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    """Span recorder; spans are kept in memory until the run writes them out."""

    active: bool = False
    op_id: int = -1
    names: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # [name_id, start, end, parent, op]
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)  # [name_id, start, child_ns, span_index]
    _patches: list = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        self.stats[name] = stat = Stat()
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == name_id):
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            frame = [name_id, clock(), 0, len(spans)]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat.calls += 1
                stat.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[frame[3]] = (name_id, frame[1], end, parent, self.op_id)
            if observe is not None:
                observe(self, args, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, counter: str, fn, target_id: int):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.active and any(frame[0] == target_id for frame in stack):
                self.count(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Patch every ``peirce_lab`` namespace that binds a target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for name in TARGETS:
            owner, attr, original = _lookup(package, name)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            if name.count(".") > 1:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        for counter, (name, target) in CALL_COUNTS.items():
            owner, attr, original = _lookup(package, name)
            if original is None or target in self.absent:
                self.absent.append(counter)
                continue
            self._patch(owner, attr, original, self.count_calls(counter, original, self.names.index(target)))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_seconds_by_module(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_ns / 1e9
        return out

    def check_nesting(self) -> list[str]:
        """Spans must nest inside their parents and have self time >= 0."""
        problems = []
        for i, span in enumerate(self.spans):
            if span is None:
                problems.append(f"span {i} never closed")
                continue
            name_id, start, end, parent, _op = span
            if end < start:
                problems.append(f"span {i} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if p is None or not (p[1] <= start and end <= p[2]):
                    problems.append(f"span {i} is not inside its parent {parent}")
        for name, stat in self.stats.items():
            if stat.self_ns < 0:
                problems.append(f"{name} has negative self time")
        return problems


def _lookup(package, name: str):
    """(owner, attribute, value) for "module.function" or "module.Class.method"."""
    module_name, *path = name.split(".")
    owner = getattr(package, module_name, None)
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    return owner, path[-1], getattr(owner, path[-1], None) if owner is not None else None


def _terms(tracer, _args, result) -> None:
    tracer.count("poly.Poly3.terms.total", len(getattr(result, "coeffs", ())))
    tracer.count("poly.Poly3.terms.symbols")


def _roots_input(tracer, args, _result) -> None:
    if args:
        tracer.peak("poly.rational_roots.input_bits", coeff_bits(getattr(args[0], "coeffs", {}).values()))


OBSERVERS = {
    "peirce.peirce_symbol": _terms,
    "poly.rational_roots": _roots_input,
}
