"""Smoke tests of the end-to-end benchmark at toy sizes.

Each workload runs with a shrunken genome so the whole file takes seconds;
the code paths (set-up, timed region, checks, traced run) are the real
ones.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import e2e_bench  # noqa: E402
import e2e_trace  # noqa: E402
from e2e_workloads import WORKLOADS, prepare  # noqa: E402

TOY_SIZES = {
    "clean-overlap": {"genome": {"length": 3000}, "depth": 8, "read_length": 400},
    "clean-overlap-thread": {
        "genome": {"length": 3000}, "depth": 8, "read_length": 400,
    },
    "noisy-align": {
        "genome": {"length": 1500}, "depth": 10, "read_length": 400, "inputs": 2,
    },
    "contig-p64": {
        "genome": {
            "length": 20_000,
            "n_repeats": 3,
            "repeat_length": 600,
            "repeat_copies": 3,
        },
        "depth": 5,
        "read_length": 400,
        "inputs": 2,
    },
}


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], **TOY_SIZES[name])


def benchmark_workloads() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    """Set each input up once only: toy set-ups take milliseconds."""
    monkeypatch.setattr(e2e_bench, "SETUP_BURST_S", 0.0)


@pytest.fixture
def assemble_spy(monkeypatch):
    """Record, for every assembly the benchmark makes, whether any tracing
    wrapper was installed at the time."""
    calls: list[bool] = []
    real = e2e_bench.assemble

    def spy(*args, **kwargs):
        calls.append(bool(e2e_trace.installed_wrappers()))
        return real(*args, **kwargs)

    monkeypatch.setattr(e2e_bench, "assemble", spy)
    return calls


@pytest.mark.parametrize("name", benchmark_workloads())
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path, assemble_spy):
    out = e2e_bench.run_benchmark(toy(name), 3, 0.0, False, tmp_path)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == e2e_bench.MIN_REPS * toy(name).inputs
    units = e2e_bench.END_TO_END
    assert list(out["metrics"]) == list(units)
    for name_, metric in out["metrics"].items():
        assert metric["unit"] == units[name_]
        assert isinstance(metric["value"], float)
    # the untraced run never goes through a wrapper
    assert assemble_spy and not any(assemble_spy)


@pytest.mark.parametrize("name", ["clean-overlap-thread", "contig-p64"])
def test_traced_run_emits_every_per_layer_metric(name, tmp_path, assemble_spy):
    out = e2e_bench.run_benchmark(toy(name), 4, 0.0, True, tmp_path)
    assert out["correct"] and out["failed"] == 0
    units = e2e_bench.PER_LAYER
    assert list(out["metrics"]) == list(units)
    assert all(m["unit"] == units[k] for k, m in out["metrics"].items())
    # untraced repetitions first, then exactly one traced assembly
    untraced = e2e_bench.MIN_REPS * toy(name).inputs
    assert assemble_spy == [False] * untraced + [True]
    # the wrappers are gone again
    assert e2e_trace.installed_wrappers() == []
    record = json.loads(next(tmp_path.glob("*-trace1.json")).read_text())
    assert record["spans"] and "self time" in record["self_time_table"]


def test_wrappers_installed_only_inside_tracer():
    assert e2e_trace.installed_wrappers() == []
    with e2e_trace.Tracer():
        installed = e2e_trace.installed_wrappers()
    assert len(installed) == len(e2e_trace._targets())
    assert e2e_trace.installed_wrappers() == []


def test_wrappers_removed_when_traced_call_raises():
    from repro.core import contig

    original = contig.branch_removal
    with pytest.raises(ValueError):
        with e2e_trace.Tracer():
            raise ValueError("boom")
    assert contig.branch_removal is original
    assert e2e_trace.installed_wrappers() == []


def test_self_time_subtracts_union_of_children():
    tracer = e2e_trace.Tracer()
    root = e2e_trace.Span(0, "root", "pipeline", 0.0, 10.0)
    a = e2e_trace.Span(1, "a", "sparse", 1.0, 5.0, parent=0)
    b = e2e_trace.Span(2, "b", "sparse", 3.0, 6.0, parent=0)  # overlaps a
    c = e2e_trace.Span(3, "c", "mpi", 2.0, 3.0, parent=1)
    tracer.spans = [root, a, b, c]
    assert tracer.self_times() == pytest.approx([5.0, 3.0, 3.0, 1.0])
    assert tracer.self_time_by_layer()["sparse"] == pytest.approx(6.0)


def test_seed_determines_inputs():
    workload = toy("noisy-align")
    one, again = prepare(workload, 1, 0), prepare(workload, 1, 0)
    two, other = prepare(workload, 2, 0), prepare(workload, 1, 1)
    assert np.array_equal(one.genome, again.genome)
    assert all(np.array_equal(x, y) for x, y in zip(one.reads, again.reads))
    # another seed, or another input of the same seed, is another genome
    for different in (two, other):
        assert not np.array_equal(one.genome, different.genome)
        assert not np.array_equal(one.reads[0], different.reads[0])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "clean-overlap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class _FakeResult:
    def __init__(self, digest: str) -> None:
        self.digest = digest
        self.contigs = type("Contigs", (), {"count": 1})()

    def contig_digest(self) -> str:
        return self.digest


def test_operations_fail_on_digest_change_and_on_the_contig_set():
    ops = e2e_bench.Operations([None, None])
    assert ops.check(_FakeResult("a"), "rep 0")
    assert not ops.check(_FakeResult("b"), "rep 1")
    assert not ops.check(None, "rep 2")
    assert (ops.attempted, ops.failed) == (3, 2)
    # a misassembly fails every operation, including later ones
    ops.fail_contig_set("1 misassembled contig(s)")
    assert ops.failed == 3
    assert not ops.check(_FakeResult("a"), "traced rep")
    assert (ops.attempted, ops.failed) == (4, 4)

    # each input has its own expected digest
    inputs = e2e_bench.Operations([None, None])
    assert inputs.check(_FakeResult("a"), "input 0", 0)
    assert inputs.check(_FakeResult("b"), "input 1", 1)
    assert not inputs.check(_FakeResult("a"), "input 1", 1)

    pinned = e2e_bench.Operations(["p4"])
    assert not pinned.check(_FakeResult("p64"), "rep 0")


@pytest.mark.parametrize("name, fails", [("noisy-align", True), ("contig-p64", False)])
def test_misassembly_fails_only_a_repeat_free_genome(name, fails, tmp_path, monkeypatch):
    real = e2e_bench.evaluate_assembly

    def one_misassembly(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), misassemblies=1)

    monkeypatch.setattr(e2e_bench, "evaluate_assembly", one_misassembly)
    out = e2e_bench.run_benchmark(toy(name), 3, 0.0, False, tmp_path)
    assert out["correct"] is not fails
    assert out["failed"] == (out["attempted"] if fails else 0)
