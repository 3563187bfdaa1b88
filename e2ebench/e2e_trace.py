"""Span tracing from outside the program: wrap each layer's public entry
points, record spans in memory, and compute per-layer self time.

Every wrapped function is replaced at the name its caller looks it up by
(``repro.pipeline.stages.detect_overlaps``, ``repro.core.contig.
branch_removal``, a method on its class, ...), so the program itself is not
edited.  :class:`Tracer` installs the wrappers on ``__enter__`` and puts the
originals back on ``__exit__``; an untraced run therefore never goes through
a wrapper.

A span is ``(name, layer, start, end, parent, thread)``.  Spans opened on an
executor worker thread inside a ``map_ranks`` superstep take that superstep
as their parent, so the tree stays connected under the thread executor.  A
span's self time is its duration minus the part of its interval covered by
its children (the union, so concurrent children are not counted twice).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.pipeline import MAIN_STAGES, STAGE_REGISTRY

#: Layers, named after the program's modules, in report order.
LAYERS = ("pipeline", "kmer", "sparse", "align", "strgraph", "core", "mpi")

#: (module, attribute, span name, layer) for every wrapped module function.
#: The module is where the *caller* looks the name up.
FUNCTION_SITES = (
    ("repro.pipeline.stages", "count_kmers", "kmer.count", "kmer"),
    ("repro.pipeline.stages", "build_kmer_matrix", "kmer.matrix", "kmer"),
    ("repro.pipeline.stages", "detect_overlaps", "overlap.detect", "sparse"),
    ("repro.sparse.distmat", "spgemm_local", "sparse.spgemm_local", "sparse"),
    ("repro.sparse.distmat", "spgemm_symbolic", "sparse.symbolic", "sparse"),
    ("repro.sparse.spgemm", "expand_join", "sparse.expand", "sparse"),
    ("repro.pipeline.stages", "build_overlap_graph", "align.graph", "align"),
    ("repro.align.batch", "batch_xdrop_extend", "align.extend", "align"),
    ("repro.pipeline.stages", "transitive_reduction", "strgraph.tr", "strgraph"),
    ("repro.pipeline.stages", "contig_generation", "core.contig_generation", "core"),
    ("repro.core.contig", "branch_removal", "core.branch", "core"),
    ("repro.core.contig", "connected_components", "core.ccomp", "core"),
    ("repro.core.contig", "contig_sizes_distributed", "core.ccomp", "core"),
    ("repro.core.contig", "partition_contigs", "core.partition", "core"),
    ("repro.core.contig", "induced_subgraph", "core.induced", "core"),
    ("repro.core.contig", "exchange_sequences", "core.exchange", "core"),
    ("repro.core.contig", "local_assembly", "core.local_assembly", "core"),
)

#: Semiring factories whose ``add_reduce`` is timed as ``sparse.reduce``:
#: the seed semiring of C = A.A^T and the dirmin semiring of transitive
#: reduction, each wrapped where its caller builds it.
SEMIRING_SITES = (
    ("repro.overlap.detect", "seed_semiring"),
    ("repro.strgraph.transitive", "dirmin_semiring"),
)

#: Simulated collectives of ``SimComm``; all are spans ``mpi.collective``.
COLLECTIVES = (
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "allreduce", "reduce", "reduce_scatter", "sendrecv",
)

#: The distributed-vector exchanges (two all-to-alls plus the routing
#: around them); they are the contig stage's communication, so they count
#: in the ``mpi`` layer.
DISTVEC_METHODS = ("gather", "scatter_update")

@dataclasses.dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and boundary counts while its wrappers are installed.

    Use as a context manager around the traced call::

        with Tracer() as tr, tr.span("pipeline.run", "pipeline"):
            result = pipeline.run(...)
        table = tr.self_time_by_layer()
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                layer=layer,
                start=time.perf_counter(),
                parent=stack[-1] if stack else None,
                thread=threading.current_thread().name,
            )
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around a block."""
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, fn: Callable, name: str, layer: str, after=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(out)
            return out

        traced.__e2e_wrapper__ = True
        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer wrappers already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for owner, attr, name, layer in _targets():
            original = _raw(owner, attr)
            if name == "sparse.reduce":
                replacement = self._semiring_factory(original)
            elif name == "mpi.superstep":
                replacement = self._superstep(original)
            else:
                after = self._count_spgemm if name == "sparse.spgemm_local" else None
                replacement = self._wrap(original, name, layer, after)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- special wrappers -----------------------------------------------
    def _count_spgemm(self, out) -> None:
        product, flops = out
        self.count("sparse.flops", flops)
        self.count("sparse.out_nnz", product.nnz)

    def _semiring_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            semiring = factory(*args, **kwargs)
            return dataclasses.replace(
                semiring,
                add_reduce=self._wrap(
                    semiring.add_reduce, "sparse.reduce", "sparse"
                ),
            )

        traced_factory.__e2e_wrapper__ = True
        return traced_factory

    def _superstep(self, map_ranks: Callable) -> Callable:
        @functools.wraps(map_ranks)
        def traced_map_ranks(world, fn, *per_rank_args):
            # a rank step's own work belongs to the layer that issued the
            # superstep; only the dispatch and merge around it are ``mpi``
            caller = self._stack()
            layer = self.spans[caller[-1]].layer if caller else "mpi"
            span = self.open("mpi.superstep", "mpi")

            def step(ctx, *args):
                # rank steps may run on worker threads: parent their spans
                # under this superstep, then restore the thread's stack
                saved = self._stack()[:]
                self._local.stack = [span.id]
                try:
                    with self.span(f"{layer}.rank_step", layer):
                        return fn(ctx, *args)
                finally:
                    self._local.stack = saved

            try:
                return map_ranks(world, step, *per_rank_args)
            finally:
                self.close(span)

        traced_map_ranks.__e2e_wrapper__ = True
        return traced_map_ranks

    # -- analysis -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = []
        for s in self.spans:
            covered = _union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())
            )
            out.append(max(s.duration - covered, 0.0))
        return out

    def wall_by_name(self) -> dict[str, float]:
        """Summed (inclusive) duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return dict(out)

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            out[s.name] += self_s
        return dict(out)

    def calls_by_name(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def self_time_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s, self_s in zip(self.spans, self.self_times()):
            out[s.layer] = out.get(s.layer, 0.0) + self_s
        return out

    def to_records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _targets() -> list[tuple[Any, str, str, str]]:
    """(owner, attribute, span name, layer) of every wrapped callable."""
    out = [
        (importlib.import_module(mod), attr, name, layer)
        for mod, attr, name, layer in FUNCTION_SITES
    ]
    out += [
        (importlib.import_module(mod), attr, "sparse.reduce", "sparse")
        for mod, attr in SEMIRING_SITES
    ]
    importlib.import_module("repro.pipeline.stages")  # registers the stages
    out += [
        (STAGE_REGISTRY[stage], "run", f"pipeline.{stage}", "pipeline")
        for stage in MAIN_STAGES
    ]
    comm = importlib.import_module("repro.mpi.comm")
    out += [(comm.SimComm, m, "mpi.collective", "mpi") for m in COLLECTIVES]
    out.append((comm.SimWorld, "map_ranks", "mpi.superstep", "mpi"))
    distvec = importlib.import_module("repro.sparse.distvec").DistVector
    out += [(distvec, m, "mpi.distvec", "mpi") for m in DISTVEC_METHODS]
    return out


def _raw(owner: Any, attr: str) -> Any:
    # read a class attribute through __dict__, so what is restored is
    # exactly what was there (not a bound or inherited lookup)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def installed_wrappers() -> list[str]:
    """Wrapped callables currently installed (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _layer in _targets()
        if getattr(_raw(owner, attr), "__e2e_wrapper__", False)
    ]
