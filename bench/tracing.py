"""Spans around the package's public functions, recorded from outside.

The package imports by name (`from .automaton import shortest_reset_word`),
so a function is wrapped by rebinding every module global that refers to it,
and a method by replacing it on its class.  Each span keeps its name, start,
end and parent span in memory; self time is computed from the spans after
the pass, as a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
from collections import Counter
from pathlib import Path
from time import perf_counter

# (span name, module, qualified name inside the module, reported statistics);
# the unit of a statistic follows from its name.
TARGETS = (
    ("automaton.shortest_reset_word", "automaton", "shortest_reset_word", ("calls", "self_s")),
    ("automaton.shortest_reset_length", "automaton", "shortest_reset_length",
     ("calls", "self_s", "us_per_call")),
    ("automaton.dfa_init", "automaton", "Dfa.__post_init__", ("calls", "self_s")),
    ("automaton.read_dfa", "automaton", "read_dfa", ("self_s",)),
    ("automaton.is_synchronizing", "automaton", "is_synchronizing", ("self_s",)),
    ("automaton.greedy_reset_word", "automaton", "greedy_reset_word", ("self_s",)),
    ("automaton.is_strongly_connected", "automaton", "is_strongly_connected", ("self_s",)),
    ("exactlin.express_vectors", "exactlin", "express_vectors", ("calls", "self_s")),
    ("exactlin.check_sum_conditions", "exactlin", "check_sum_conditions", ("self_s",)),
    ("exactlin.RationalBasis.insert", "exactlin", "RationalBasis.insert",
     ("calls", "self_s", "grew_ratio")),
    ("exactlin.span_dimension", "exactlin", "span_dimension", ("calls", "self_s")),
    ("exactlin.matrix_rank", "exactlin", "matrix_rank", ("calls", "self_s")),
    ("rowmon.matrix_of_word", "rowmon", "matrix_of_word", ("calls", "self_s")),
    ("rowmon.multiply", "rowmon", "multiply", ("calls", "self_s")),
    ("equation.enumerate_solutions", "equation", "enumerate_solutions", ("calls", "self_s")),
    ("equation.is_solution", "equation", "is_solution", ("calls", "self_s")),
    ("equation.minimal_solution", "equation", "minimal_solution", ("calls", "self_s")),
    ("probe.allocation_probe", "probe", "allocation_probe", ("self_s",)),
    ("probe.bound_check", "probe", "bound_check", ("calls", "total_s")),
    ("probe.maximum_matching", "probe", "maximum_matching", ("calls", "self_s")),
    ("suites.rank-monotonicity", "suites", "rank_monotonicity_suite", ("self_s", "checks_per_s")),
    ("suites.sum-conditions", "suites", "sum_conditions_suite", ("self_s", "checks_per_s")),
    ("suites.basis-dimension", "suites", "basis_dimension_suite", ("self_s", "checks_per_s")),
    ("suites.sink-equation", "suites", "sink_equation_suite", ("self_s", "checks_per_s")),
    ("cli.run", "cli", "run", ("self_s",)),
    ("cli.render", "cli", "render", ("self_s", "bytes")),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us",
         "grew_ratio": "ratio", "checks_per_s": "1/s", "bytes": "B"}


class Tracer:
    """In-memory span store, one entry per span in each of four parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open = [-1]
        self.calls: Counter[str] = Counter()
        self.true_results: Counter[str] = Counter()

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.ends[sid] = perf_counter()
        self._open.pop()

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0})
            duration = self.ends[sid] - self.starts[sid]
            entry["total_s"] += duration
            entry["self_s"] += duration - child[sid]
        for name, count in self.calls.items():
            out.setdefault(name, {"self_s": 0.0, "total_s": 0.0})["calls"] = count
        return out

    def write(self, path: Path):
        """One span per line: id, parent, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid}\t{self.parents[sid]}\t{name}\t"
                         f"{self.starts[sid] - origin:.9f}\t{self.ends[sid] - origin:.9f}\n")


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        def traced_generator(*args, **kwargs):
            # One span per next(), so the time sums over the generator's steps.
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                yield item
        return traced_generator

    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if result is True:
            tracer.true_results[name] += 1
        return result
    return traced


def install(tracer: Tracer, package_modules) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what uninstall needs to put back."""
    by_name = {m.__name__.rpartition(".")[2]: m for m in package_modules}
    patches = []
    for span, module, qualname, _ in TARGETS:
        owner = by_name[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, span, original)
        if path:
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in package_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, suite_checks: dict[str, int], matched: int, offered: int,
                  rendered_bytes: int, overhead_ratio: float) -> dict[str, dict]:
    """Every reported per-layer metric; layers the pass never called read 0.

    The counts that come from outputs rather than spans (suite checks,
    matched and offered prefixes, rendered bytes) are read by the caller.
    """
    stats = tracer.stats()
    metrics = {}
    for span, _, _, fields in TARGETS:
        entry = stats.get(span, {"self_s": 0.0, "total_s": 0.0})
        calls = entry.get("calls", 0)
        derived = {
            "calls": calls,
            "self_s": entry["self_s"],
            "total_s": entry["total_s"],
            "us_per_call": entry["self_s"] / calls * 1e6 if calls else 0.0,
            "grew_ratio": tracer.true_results[span] / calls if calls else 0.0,
            "checks_per_s": (suite_checks.get(span.partition(".")[2], 0) / entry["total_s"]
                             if entry["total_s"] else 0.0),
            "bytes": rendered_bytes,
        }
        for field in fields:
            metrics[f"{span}.{field}"] = {"value": derived[field], "unit": UNITS[field]}
    metrics["probe.matched_ratio"] = {"value": matched / offered if offered else 0.0, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics
