"""Per-layer tracing from outside the package.

A Tracer replaces each public function of a layer at every module
attribute that holds it (``lacunary_asym.solvers.lambert_w``,
``lacunary_asym.asymptotics.solve_r``, ``lacunary_asym.cli.eval_exact``,
...), so calls between modules go through the wrapper too.  Wrappers are
installed only inside ``with tracer.installed():`` and the originals are
restored on exit; untraced runs execute the package untouched.

Each call records a span (name, start, end, parent span, operation id) in
memory; counts come from the values the functions return.  A layer's self
time is the duration of its spans minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

PACKAGE = "lacunary_asym"


def _rows(config) -> Iterable[Tuple[str, int]]:
    if config.command == "monotone":
        return [("cli.rows", (config.N + 1) * (config.R + 1))]
    return [("cli.rows", len(config.n_values))]


def _walk(result) -> Iterable[Tuple[str, int]]:
    return [("polyeval.log.calls", 1), ("polyeval.log.terms", result[1].terms_used)]


def _exact(value) -> Iterable[Tuple[str, int]]:
    return [("polyeval.exact.calls", 1), ("polyeval.exact.den_bits", value.denominator.bit_length())]


def _root(counter: str) -> Callable[[object], Iterable[Tuple[str, int]]]:
    return lambda root: [(counter, 1), ("solvers.iterations", root.iterations)]


def _asymptotics(_) -> Iterable[Tuple[str, int]]:
    return [("asymptotics.calls", 1)]


def _quadrature(result) -> Iterable[Tuple[str, int]]:
    return [("quadrature.calls", 1), ("quadrature.points", result.panels + 1)]


def _none(_) -> Iterable[Tuple[str, int]]:
    return ()


# (module, function, layer, counts from the returned value)
WRAPPED: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("cli", "main", "cli", _none),
    ("cli", "parse_config", "cli", _rows),
    ("polyeval", "eval_log", "polyeval.log", _walk),
    ("polyeval", "eval_float", "polyeval.log", _walk),
    ("polyeval", "eval_exact", "polyeval.exact", _exact),
    ("polyeval", "forward_difference", "polyeval.exact", _exact),
    ("polyeval", "certify_absolute_monotonicity", "polyeval.certify", _none),
    ("solvers", "lambert_w", "solvers", _root("solvers.lambert_w.calls")),
    ("solvers", "solve_r", "solvers", _root("solvers.solve_r.calls")),
    # solve_w returns lambert_w's result: its iterations are counted there.
    ("solvers", "solve_w", "solvers", _none),
    ("solvers", "residual_relations", "solvers", _none),
    ("asymptotics", "approx_theorem", "asymptotics", _asymptotics),
    ("asymptotics", "approximation_summary", "asymptotics", _asymptotics),
    ("asymptotics", "approx_bdm", "asymptotics", _asymptotics),
    ("asymptotics", "saddle_data", "asymptotics", _asymptotics),
    ("asymptotics", "rho", "asymptotics", _asymptotics),
    ("asymptotics", "theta3", "asymptotics", _asymptotics),
    ("asymptotics", "proof_residuals", "asymptotics", _asymptotics),
    ("quadrature", "integrate_original", "quadrature", _quadrature),
    ("quadrature", "integrate_shifted", "quadrature", _quadrature),
    ("quadrature", "gaussian_fourier", "quadrature", _quadrature),
)

LAYERS = ("cli", "polyeval.log", "polyeval.exact", "polyeval.certify", "solvers", "asymptotics", "quadrature")

COUNTERS = (
    ("cli.rows", "count"),
    ("polyeval.log.calls", "count"),
    ("polyeval.log.terms", "count"),
    ("polyeval.exact.calls", "count"),
    ("polyeval.exact.den_bits", "bit"),
    ("solvers.lambert_w.calls", "count"),
    ("solvers.solve_r.calls", "count"),
    ("solvers.iterations", "count"),
    ("asymptotics.calls", "count"),
    ("quadrature.calls", "count"),
    ("quadrature.points", "count"),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, operation id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, counts: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            for counter, increment in counts(result):
                self.counts[counter] += increment
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patched = []
        try:
            for module_name, function, layer, counts in WRAPPED:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
                wrapper = self._wrap(f"{layer}:{function}", original, counts)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds of each layer's spans not covered by their child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name.split(":")[0]] += end - start - covered
        return totals

    def write_spans(self, path, origin: float) -> None:
        """One JSON array per line: name, start and end in seconds from
        ``origin``, parent span index (-1 for none), operation id (the
        attempt number; its pool index is the id modulo the pool size)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, op]) + "\n")
