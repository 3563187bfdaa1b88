"""One benchmark run of one workload: set-up, timed region, correctness
checks, quality evaluation and, with tracing on, the traced run.

End-to-end metrics always come from the untraced assemblies of the timed
region.  The traced run is one extra assembly, made after the timed region
with the wrappers of :mod:`e2e_trace` installed, and feeds only the
per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro import MAIN_STAGES
from repro.kernels import native_available, resolve_kernel_tier
from repro.mpi.executor import make_executor
from repro.quality import evaluate_assembly
from repro.telemetry import get_registry

from e2e_trace import LAYERS, Tracer, installed_wrappers
from e2e_workloads import Workload, assemble, prepare, reference_digest

#: every operation is repeated at least this often, so the digest can be
#: compared across the run's repetitions
MIN_REPS = 2

#: a set-up that only samples reads takes milliseconds and is repeated in
#: bursts of this many seconds: one per input before its first assembly,
#: one after each assembly and one at the end, so the samples spread over
#: the run like the assemblies; ``setup_s`` is the median of all set-ups
SETUP_BURST_S = 0.15

#: the metric names and units, in print order, as ``BENCHMARK.json`` at the
#: repository root lists them
_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# environment and memory
# ---------------------------------------------------------------------------


def environment_stamp(workload: Workload) -> dict:
    """What a result depends on besides the code: results with different
    stamps are not compared."""
    config = workload.pipeline_config()
    workers = 1
    if config.executor == "thread":
        workers = make_executor("thread").max_workers or os.cpu_count()
    return {
        "workload": workload.name,
        "kernel_tier": resolve_kernel_tier(config.kernel_tier),
        "native_available": native_available(),
        "executor": config.executor,
        "executor_workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark (VmHWM) to the
    current RSS, so the next reading covers only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_bytes() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


class Operations:
    """Attempted/failed bookkeeping plus the checks every operation must
    pass."""

    def __init__(self, expected: list[str | None]) -> None:
        #: per input, the contig digest every assembly of it must produce
        #: (``None``: the digest of its first assembly)
        self.expected = list(expected)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: a failed check on the contig set itself (e.g. a misassembly);
        #: every operation producing that set fails, earlier or later
        self.standing: str | None = None

    def check(
        self, result, label: str, index: int = 0, problem: str | None = None
    ) -> bool:
        """Count one operation on input ``index``; ``problem`` fails it
        regardless of result."""
        self.attempted += 1
        if problem is None:
            problem = self._problem(result, index)
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
        return problem is None

    def _problem(self, result, index: int) -> str | None:
        if result is None:
            return "raised"
        digest = result.contig_digest()
        if digest is None or result.contigs.count == 0:
            return "produced no contigs"
        expected = self.expected[index]
        if expected is None:
            self.expected[index] = digest
        elif digest != expected:
            return f"contig digest {digest[:12]} != expected {expected[:12]}"
        return self.standing

    def fail_contig_set(self, reason: str) -> None:
        """Fail every operation so far (they all produced the expected
        contig sets or failed already) and every later one."""
        self.standing = reason
        self.failed = self.attempted
        self.errors.append(reason)


def _attempt(workload, prepared, ops: Operations, index: int, label: str):
    try:
        result = assemble(workload, prepared)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result = None
    ops.check(result, label, index)
    return result


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """Run one workload and return the result object ``run.py`` prints last."""
    stamp = environment_stamp(workload)
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    n = workload.inputs
    prepared: list = [None] * n
    setup_times: list[float] = []
    ops = Operations([None] * n)
    walls: list[list[float]] = [[] for _ in range(n)]
    firsts: list = [None] * n
    attempts = [0] * n
    peak_rss = 0

    # a set-up that builds artifacts takes seconds and is made once
    burst = SETUP_BURST_S if workload.setup_until is None else 0.0

    def set_up(i: int) -> None:
        """Set input ``i`` up, and again until ``burst`` seconds of its
        set-up have passed."""
        spent = 0.0
        while True:
            prepared[i] = None  # free the previous set-up before timing the next
            gc.collect()
            t0 = time.perf_counter()
            prepared[i] = prepare(workload, seed, i)
            setup_times.append(time.perf_counter() - t0)
            spent += setup_times[-1]
            if spent >= burst:
                return

    def timed_part(upto: int, part_seconds: float, min_reps: int) -> None:
        """Untraced assemblies of inputs ``0..upto-1``, the least attempted
        first, for ``part_seconds`` of assembly and until each was attempted
        ``min_reps`` times in all.  Each is followed by a burst of set-ups
        of its input."""
        nonlocal peak_rss
        spent = 0.0
        while min(attempts[:upto]) < min_reps or spent < part_seconds:
            i = attempts.index(min(attempts[:upto]))
            label = f"input {i} rep {attempts[i]}"
            attempts[i] += 1
            gc.collect()
            reset_peak_rss()
            t0 = time.perf_counter()
            result = _attempt(workload, prepared[i], ops, i, label)
            wall = time.perf_counter() - t0
            spent += wall
            peak_rss = max(peak_rss, peak_rss_bytes())
            if result is not None:
                walls[i].append(wall)
                if firsts[i] is None:
                    firsts[i] = result
            del result
            if burst:
                set_up(i)

    # Set-up and timed region alternate: input i is set up, then a share of
    # the timed region cycles through inputs 0..i.  So both spread over the
    # run, which averages over a machine whose speed drifts within tens of
    # seconds.
    for i in range(n):
        set_up(i)
        ops.expected[i] = reference_digest(workload, prepared[i])
        timed_part(i + 1, seconds / n, MIN_REPS if i == n - 1 else 1)
    if burst:
        set_up(0)

    # one evaluation of all inputs' contigs against their genomes laid end
    # to end, so completeness and NG50 pool the inputs
    quality = None
    if all(first is not None for first in firsts):
        quality = evaluate_assembly(
            [c for first in firsts for c in first.contigs.contigs],
            np.concatenate([p.genome for p in prepared]),
            k=workload.config["k"],
        )
        # On a repeat-free genome a misassembly can only be a wrong join.
        # With planted repeats, reads of two copies overlap as well as reads
        # of one locus do, so a walk may follow either: there it is a
        # quality figure (see README.md), not a check.
        if quality.misassemblies and workload.genome.get("n_repeats"):
            print(
                f"note: {quality.misassemblies} misassembled contig(s) "
                "across repeat copies",
                file=sys.stderr,
            )
        elif quality.misassemblies:
            ops.fail_contig_set(f"{quality.misassemblies} misassembled contig(s)")

    record = {
        "stamp": stamp,
        "seed": seed,
        "setup_s": setup_times,
        "walls_s": walls,
        "peak_rss_bytes": peak_rss,
    }
    if trace:
        metrics = traced_metrics(
            workload, prepared[0], ops, firsts[0], walls[0], peak_rss, quality,
            record,
        )
    else:
        metrics = end_to_end_metrics(
            prepared, firsts, walls, peak_rss, setup_times, quality
        )
    if quality is not None:
        record["quality"] = {
            "completeness": quality.completeness,
            "ng50": quality.ng50,
            "contigs": quality.n_contigs,
            "misassemblies": quality.misassemblies,
        }

    out = {
        "correct": ops.failed == 0 and quality is not None,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    record["errors"] = ops.errors
    record["result"] = out
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=float))
    for err in ops.errors:
        print(f"FAILED {err}", file=sys.stderr)
    # executor pools outlive worlds; stop their workers before exiting
    make_executor(workload.config["executor"]).shutdown()
    return out


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(prepared, firsts, walls, peak_rss, setup_times, quality) -> dict:
    if quality is None:
        return {}
    values = {
        # the bases of every timed assembly over the wall time of them all
        "bases_per_s": sum(p.bases * len(w) for p, w in zip(prepared, walls))
        / sum(map(sum, walls)),
        "peak_rss_mb": peak_rss / 2**20,
        "modeled_s": statistics.mean(first.modeled_total for first in firsts),
        "setup_s": statistics.median(setup_times),
        "completeness": quality.completeness,
        "ng50_bp": quality.ng50,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def traced_metrics(
    workload, prepared, ops, untraced, walls, peak_rss, quality, record
) -> dict:
    """The traced run: one more assembly of the first input with every
    layer wrapped."""
    registry = get_registry()
    supersteps0 = registry.value("mpi.supersteps")
    tracer = Tracer()
    result = None
    with tracer:
        with tracer.span("pipeline.run", "pipeline") as root:
            try:
                result = assemble(workload, prepared)
            except Exception:
                traceback.print_exc(file=sys.stderr)
    leftover = installed_wrappers()
    ops.check(
        result,
        "traced rep",
        problem=f"wrappers left installed: {leftover}" if leftover else None,
    )
    if result is None or leftover or untraced is None:
        return {}

    wall = root.duration
    by_name = tracer.wall_by_name()
    self_by_name = tracer.self_by_name()
    by_layer = tracer.self_time_by_layer()
    counts = result.counts
    stats = result.align_stats
    contigs = result.contigs
    log = result.world.log
    flops = tracer.counts.get("sparse.flops", 0.0)
    out_nnz = tracer.counts.get("sparse.out_nnz", 0.0)
    pairs = stats.pairs_aligned if stats is not None else 0
    kept = stats.dovetails if stats is not None else 0
    modeled_peak = result.peak_memory_bytes
    stage_walls = {s: by_name.get(f"pipeline.{s}", 0.0) for s in MAIN_STAGES}

    values = {
        "kmer.count_s": by_name.get("kmer.count", 0.0),
        "kmer.matrix_s": by_name.get("kmer.matrix", 0.0),
        "kmer.reliable_kmers": counts.get("reliable_kmers", 0),
        "kmer.A_nnz": counts.get("A_nnz", 0),
        "overlap.detect_s": by_name.get("overlap.detect", 0.0),
        "sparse.spgemm_local_s": by_name.get("sparse.spgemm_local", 0.0),
        "sparse.expand_s": by_name.get("sparse.expand", 0.0),
        "sparse.reduce_s": by_name.get("sparse.reduce", 0.0),
        "sparse.sort_gather_s": self_by_name.get("sparse.spgemm_local", 0.0),
        "sparse.symbolic_s": by_name.get("sparse.symbolic", 0.0),
        "sparse.flops": flops,
        "sparse.out_nnz": out_nnz,
        "sparse.yield": out_nnz / flops if flops else 0.0,
        "align.graph_s": by_name.get("align.graph", 0.0),
        "align.extend_s": by_name.get("align.extend", 0.0),
        "align.pairs": pairs,
        "align.kept": kept,
        "align.yield": kept / pairs if pairs else 0.0,
        "strgraph.tr_s": by_name.get("strgraph.tr", 0.0),
        "strgraph.rounds": counts.get("tr_rounds", 0),
        "strgraph.removed": counts.get("tr_removed", 0),
        "strgraph.S_nnz": counts.get("S_nnz", 0),
        "core.branch_s": by_name.get("core.branch", 0.0),
        "core.ccomp_s": by_name.get("core.ccomp", 0.0),
        "core.cc_rounds": contigs.cc_rounds,
        "core.partition_s": by_name.get("core.partition", 0.0),
        "core.partition_imbalance": (
            contigs.partition.imbalance if contigs.partition is not None else 0.0
        ),
        "core.induced_s": by_name.get("core.induced", 0.0),
        "core.exchange_s": by_name.get("core.exchange", 0.0),
        "core.local_assembly_s": by_name.get("core.local_assembly", 0.0),
        "core.contigs": contigs.count,
        "mpi.collective_s": by_name.get("mpi.collective", 0.0),
        "mpi.collectives": len(log.events),
        "mpi.comm_bytes": log.total_bytes(),
        "mpi.supersteps": registry.value("mpi.supersteps") - supersteps0,
        "mpi.superstep_s": by_name.get("mpi.superstep", 0.0),
        "mpi.distvec_s": by_name.get("mpi.distvec", 0.0),
    }
    for stage in MAIN_STAGES:
        values[f"pipeline.{stage}.wall_s"] = stage_walls[stage]
        values[f"pipeline.{stage}.modeled_s"] = result.stage_seconds(stage)
    values["pipeline.overhead_s"] = wall - sum(stage_walls.values())
    values["memory.rss_over_modeled"] = peak_rss / modeled_peak if modeled_peak else 0.0
    values["trace.overhead_pct"] = 100.0 * (wall / statistics.median(walls) - 1.0)
    # the share of the wall inside a wrapped layer boundary below the run
    # itself (more than 100% when rank steps overlap on worker threads)
    root_self = tracer.self_times()[root.id]
    values["trace.coverage_pct"] = 100.0 * (sum(by_layer.values()) - root_self) / wall
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = by_layer[layer]
    values["quality.misassemblies"] = quality.misassemblies

    table = self_time_table(tracer, wall)
    print(table, flush=True)
    record["self_time_table"] = table
    record["self_by_layer_s"] = by_layer
    record["spans"] = tracer.to_records()
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def self_time_table(tracer: Tracer, wall: float) -> str:
    """Per-layer and per-span self time of the traced run."""
    by_layer = tracer.self_time_by_layer()
    lines = [f"self time of the traced run ({wall:.3f} s wall)"]
    lines.append(f"{'layer':<12}{'self_s':>10}{'share':>9}")
    for layer in sorted(by_layer, key=by_layer.get, reverse=True):
        lines.append(
            f"{layer:<12}{by_layer[layer]:>10.3f}{by_layer[layer] / wall:>9.1%}"
        )
    lines.append(f"{'sum':<12}{sum(by_layer.values()):>10.3f}"
                 f"{sum(by_layer.values()) / wall:>9.1%}")
    calls = tracer.calls_by_name()
    incl = tracer.wall_by_name()
    selfs = tracer.self_by_name()
    lines.append(f"{'span':<28}{'calls':>8}{'total_s':>10}{'self_s':>10}")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        lines.append(
            f"{name:<28}{calls[name]:>8}{incl[name]:>10.3f}{selfs[name]:>10.3f}"
        )
    return "\n".join(lines)
