"""In-memory span recorder, applied from outside the program.

The benchmark measures layers without editing them: :func:`install`
replaces each public callable named in :data:`TARGETS` with a wrapper
that records one span (name, start, end, parent) on a per-process stack.
Spans live in plain lists until the round ends; :meth:`SpanLog.aggregate`
then reduces them to per-name self time, inclusive time and call counts.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans partition the covered wall time
exactly and never exceed their span.

A target that no longer exists (a later refactor moved or deleted it) is
skipped with one warning; the metrics that depend on it read ``null``.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable

import numpy as np

#: (module, class or None, attribute, span name, weigh).  ``weigh`` maps
#: the call's arguments to a work count (cores built, PRNG lanes drawn)
#: that is summed per span name for outermost calls of that name.
TARGETS: tuple[tuple[str, str | None, str, str, Callable[..., int] | None], ...] = (
    ("repro.arch.coreblock", "CoreBlock", "__init__", "arch.block_build",
     lambda self, network, gid_lo, gid_hi: gid_hi - gid_lo),
    ("repro.arch.coreblock", "CoreBlock", "synapse_phase", "arch.synapse_phase", None),
    ("repro.arch.coreblock", "CoreBlock", "neuron_phase", "arch.neuron_phase", None),
    ("repro.arch.coreblock", "CoreBlock", "outgoing", "arch.outgoing", None),
    ("repro.arch.coreblock", "CoreBlock", "deliver", "arch.deliver", None),
    ("repro.util.rng", "LcgArray", "bernoulli", "util.lcg",
     lambda self, *a, **k: self.state.size),
    ("repro.util.rng", "LcgArray", "next_u8", "util.lcg",
     lambda self, *a, **k: self.state.size),
    ("repro.core.simulator", "CompassBase", "__init__", "core.sim_build", None),
    ("repro.core.simulator", "Compass", "step", "core.step", None),
    ("repro.core.pgas_simulator", "PgasCompass", "step", "core.step", None),
    ("repro.core.partition", "Partition", "rank_of_gid", "core.route", None),
    ("repro.core.buffers", "LocalBuffer", "push", "core.route", None),
    ("repro.core.buffers", "LocalBuffer", "drain", "core.route", None),
    ("repro.core.buffers", "RemoteSendBuffers", "push", "core.route", None),
    ("repro.core.buffers", "RemoteSendBuffers", "flush", "core.route", None),
    ("repro.runtime.mpi", "MpiEndpoint", "isend", "runtime.msg", None),
    ("repro.runtime.mpi", "MpiEndpoint", "iprobe", "runtime.msg", None),
    ("repro.runtime.mpi", "MpiEndpoint", "recv", "runtime.msg", None),
    ("repro.runtime.pgas", "PgasEndpoint", "put", "runtime.msg", None),
    ("repro.runtime.pgas", "PgasEndpoint", "read_window", "runtime.msg", None),
    ("repro.runtime.mpi", "MpiEndpoint", "reduce_scatter", "runtime.sync", None),
    ("repro.runtime.mpi", "MpiEndpoint", "reduce_scatter_fetch", "runtime.sync", None),
    ("repro.runtime.mpi", "VirtualMpiCluster", "reduce_scatter_finish", "runtime.sync", None),
    ("repro.runtime.pgas", "PgasEndpoint", "barrier", "runtime.sync", None),
    ("repro.exec.sequential", "SequentialAdapter", "prepare", "exec.prepare", None),
    ("repro.exec.pool", "ProcessPoolAdapter", "prepare", "exec.prepare", None),
    ("repro.exec.adapter", "SimulatorAdapter", "run", "exec.run", None),
    ("repro.exec.adapter", "SimulatorAdapter", "teardown", "exec.teardown", None),
    ("repro.exec.pool", "ProcessPoolAdapter", "teardown", "exec.teardown", None),
    ("repro.exec.pool", "ProcessPoolAdapter", "step", "exec.pool_step", None),
    ("repro.cocomac.model", None, "build_macaque_coreobject", "cocomac.coreobject", None),
    ("repro.compiler.pcc", "ParallelCompassCompiler", "compile", "compiler.pcc_compile", None),
    ("repro.apps.quicknet", None, "build_quickstart_network", "apps.quicknet_build",
     lambda n_cores=4, *a, **k: n_cores),
    ("repro.serve.server", None, "build_network", "serve.build_network", None),
    ("repro.serve.server", "SimServer", "submit", "serve.event", None),
    ("repro.serve.server", "SimServer", "run", "serve.event", None),
    ("repro.serve.server", "SimServer", "run_until", "serve.event", None),
    ("repro.serve.server", "SimServer", "run_before", "serve.event", None),
    ("repro.shard.router", "ShardRouter", "submit", "shard.route", None),
    ("repro.shard.router", "ShardRouter", "run", "shard.drain", None),
)


class SpanLog:
    """Append-only span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.weight: list[int] = []
        #: Span names whose numbers are incomplete: a target is gone, or a
        #: ``weigh`` no longer fits the callable's signature.
        self.missing: set[str] = set()
        self.warnings: list[str] = []
        self._stack: list[int] = []
        self._marks: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(
        self, fn: Callable[..., Any], name: str, weigh: Callable[..., int] | None = None
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so every call records one span."""
        nid = self._id(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, weight, clock = self._stack, self.weight, time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            outer = stack[-1] if stack else -1
            work = 0
            if weigh is not None and (outer < 0 or name_of[outer] != nid):
                try:
                    work = weigh(*args, **kwargs)
                except (TypeError, AttributeError):
                    if name not in self.missing:
                        self.missing.add(name)
                        self.warnings.append(f"cannot count work of {name}: signature changed")
            parent.append(outer)
            name_of.append(nid)
            weight.append(work)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def mark(self, label: str) -> None:
        """Remember the current span index as a window boundary."""
        self._marks[label] = len(self.start)

    def aggregate(self, lo_mark: str, hi_mark: str) -> dict[str, dict[str, Any]]:
        """Per-name totals over the spans started between two marks.

        ``self_ns`` sums every span of the name; ``incl_ns``, ``count``,
        ``work`` and the ``p50_ns``/``p99_ns`` durations cover only its
        outermost spans, so a method that calls a sibling with the same
        span name is not counted twice.
        """
        lo, hi = self._marks[lo_mark], self._marks[hi_mark]
        n = len(self.start)
        if n == 0 or lo >= hi:
            return {}
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        name_of = np.asarray(self.name_of, dtype=np.int64)
        weight = np.asarray(self.weight, dtype=np.int64)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        outermost = ~has_parent
        outermost[has_parent] = name_of[parent[has_parent]] != name_of[has_parent]
        window = np.zeros(n, dtype=bool)
        window[lo:hi] = True
        out: dict[str, dict[str, Any]] = {}
        for nid, name in enumerate(self.names):
            sel = window & (name_of == nid)
            if not sel.any():
                continue
            outer = sel & outermost
            out[name] = {
                "self_ns": int(self_ns[sel].sum()),
                "incl_ns": int(dur[outer].sum()),
                "count": int(outer.sum()),
                "work": int(weight[outer].sum()),
                "self_within_span": bool(
                    ((self_ns[sel] >= 0) & (self_ns[sel] <= dur[sel])).all()
                ),
                "p50_ns": float(np.percentile(dur[outer], 50)) if outer.any() else None,
                "p99_ns": float(np.percentile(dur[outer], 99)) if outer.any() else None,
            }
        return out


def install(log: SpanLog) -> None:
    """Wrap every target in :data:`TARGETS` that still exists."""
    for module, cls, attr, name, weigh in TARGETS:
        where = f"{module}.{cls + '.' if cls else ''}{attr}"
        try:
            owner: Any = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            # vars(), not getattr: wrap only where the callable is defined,
            # so an inherited method is not wrapped twice.
            fn = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            log.warnings.append(f"span target gone: {where} ({name} reads null)")
            log.missing.add(name)
            continue
        setattr(owner, attr, log.wrap(fn, name, weigh))
