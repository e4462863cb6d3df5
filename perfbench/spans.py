"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of ``wrsopt`` with timing
wrappers and puts the originals back afterwards.  ``engine``, ``importance``
and ``cli`` bind names such as ``fit_forest`` or ``candidate_key`` with
``from ... import``, so a function is replaced in every loaded ``wrsopt``
module whose namespace holds it, not only where it is defined.  Methods are
replaced on their class.

Spans are aggregated as they close: per span name, the call count, the
inclusive seconds, and the self seconds (inclusive time minus the time of
the spans opened inside it).  Only aggregates are kept, because a
20k-trial run opens hundreds of thousands of spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("importance.fit_forest", "wrsopt.importance", "fit_forest"),
    ("importance.main_effect_fractions", "wrsopt.importance", "main_effect_fractions"),
    ("samplers.rs_step", "wrsopt.samplers", "rs_step"),
    ("samplers.wrs_step", "wrsopt.samplers", "wrs_step"),
    ("space.candidate_key", "wrsopt.space", "candidate_key"),
    ("space.load_space", "wrsopt.space", "load_space"),
    ("engine.evaluate_with_cache", "wrsopt.engine", "evaluate_with_cache"),
    ("engine.execute_run", "wrsopt.engine", "execute_run"),
    ("triallog.write_log", "wrsopt.triallog", "write_log"),
    ("triallog.read_log", "wrsopt.triallog", "read_log"),
    ("reporting.summarize", "wrsopt.reporting", "summarize"),
    ("reporting.polyfit", "wrsopt.reporting", "polyfit"),
    ("reporting.compare", "wrsopt.reporting", "compare"),
    ("cli.main", "wrsopt.cli", "main"),
)

# (span name, module, class, method)
METHODS = (
    ("space.sample", "wrsopt.space", "SearchSpace", "sample"),
    ("objectives.call", "wrsopt.objectives", "Objective", "__call__"),
    ("samplers.sobol.ask", "wrsopt.samplers", "SobolSampler", "ask"),
    ("samplers.nelder_mead.ask", "wrsopt.samplers", "NelderMeadSampler", "ask"),
    ("samplers.nelder_mead.tell", "wrsopt.samplers", "NelderMeadSampler", "tell"),
    ("samplers.pso.ask", "wrsopt.samplers", "PsoSampler", "ask"),
    ("samplers.pso.tell", "wrsopt.samplers", "PsoSampler", "tell"),
    ("sobol.next_point", "wrsopt.sobol", "SobolEngine", "next_point"),
)

SPAN_NAMES = tuple(s[0] for s in FUNCTIONS) + tuple(s[0] for s in METHODS)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records from ``install()`` to ``uninstall()``; ``stats`` and
    ``forest_nodes`` hold what it saw."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Clear the figures and wrap every listed function wherever a
        ``wrsopt`` module binds it, and every listed method on its class."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.forest_nodes = 0
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wrsopt" or n.startswith("wrsopt.")]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st = self.stats[name]
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if name == "importance.fit_forest":
                self.forest_nodes += sum(2 * len(t.leaf_means) - 1 for t in result.trees)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
