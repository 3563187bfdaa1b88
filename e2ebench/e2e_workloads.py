"""The four benchmark workloads: how each makes its inputs from a seed and
what one operation (one assembly) runs.

Every workload pins its executor.  The kernel tier is left at the program
default and recorded in the environment stamp.  Inputs come only from the
seed: each of a workload's independent inputs gets a child seed, which in
turn gives one for the genome, one for the read sampling, and one for the
order the reads are presented in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import Pipeline, PipelineConfig, PipelineResult
from repro.seq import GenomeSpec, make_genome, sample_reads


#: nprocs of the set-up pipeline of ``setup_until`` workloads
SETUP_NPROCS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    #: GenomeSpec fields other than the seed
    genome: dict
    depth: float
    read_length: int
    error_rate: float
    #: PipelineConfig fields of the timed assembly
    config: dict
    #: independent inputs (genome and reads) per run; the timed region
    #: cycles through them and the metrics pool them, so that one run
    #: averages over several genomes where a single one decides too much
    inputs: int = 1
    #: stop the set-up pipeline after this stage and time only the rest
    #: (``None``: set-up only samples reads, the timed run is the whole
    #: pipeline)
    setup_until: str | None = None

    def pipeline_config(self, **overrides) -> PipelineConfig:
        return PipelineConfig(**{**self.config, **overrides})


@dataclass
class Prepared:
    """One input of a workload, made by one set-up."""

    genome: np.ndarray
    reads: list[np.ndarray]
    bases: int
    #: artifacts injected into the timed run (``setup_until`` workloads)
    inject: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clean-overlap",
            genome={"length": 50_000},
            depth=20,
            read_length=2000,
            error_rate=0.0,
            config={"nprocs": 4, "k": 17, "executor": "serial"},
        ),
        Workload(
            name="clean-overlap-thread",
            genome={"length": 50_000},
            depth=20,
            read_length=2000,
            error_rate=0.0,
            config={"nprocs": 4, "k": 17, "executor": "thread"},
        ),
        Workload(
            name="noisy-align",
            genome={"length": 3_000},
            depth=15,
            read_length=1000,
            error_rate=0.05,
            config={
                "nprocs": 4,
                "k": 17,
                "xdrop": 7,
                "align_mode": "dp",
                "executor": "serial",
            },
            inputs=3,
        ),
        Workload(
            name="contig-p64",
            genome={
                "length": 260_000,
                "n_repeats": 26,
                "repeat_length": 1500,
                "repeat_copies": 3,
            },
            depth=5,
            read_length=800,
            error_rate=0.0,
            config={"nprocs": 64, "k": 31, "executor": "serial"},
            setup_until="TrReduction",
            inputs=3,
        ),
    )
}


def prepare(workload: Workload, seed: int, index: int) -> Prepared:
    """Set-up of input ``index``: sample the reads and, for ``setup_until``
    workloads, build the injected artifacts (the string graph S) at
    ``SETUP_NPROCS``."""
    input_ss = np.random.SeedSequence(seed).spawn(workload.inputs)[index]
    genome_ss, reads_ss, order_ss = input_ss.spawn(3)
    genome = make_genome(
        GenomeSpec(seed=int(genome_ss.generate_state(1)[0]), **workload.genome)
    )
    reads = sample_reads(
        genome,
        depth=workload.depth,
        mean_length=workload.read_length,
        rng=np.random.default_rng(reads_ss),
        error_rate=workload.error_rate,
    ).reads
    order = np.random.default_rng(order_ss).permutation(len(reads))
    reads = [reads[i] for i in order]
    prepared = Prepared(
        genome=genome, reads=reads, bases=int(sum(r.size for r in reads))
    )
    if workload.setup_until is not None:
        partial = Pipeline.default().run(
            reads,
            workload.pipeline_config(nprocs=SETUP_NPROCS),
            until=workload.setup_until,
        )
        prepared.inject = {
            "reads": partial.artifacts["reads"],
            "S": partial.artifacts["S"],
        }
    return prepared


def assemble(workload: Workload, prepared: Prepared, **overrides) -> PipelineResult:
    """One operation: the timed assembly through the public Pipeline API."""
    config = workload.pipeline_config(**overrides)
    if prepared.inject:
        return Pipeline.default().run(
            None, config, from_artifacts=prepared.inject, keep_artifacts=False
        )
    return Pipeline.default().run(prepared.reads, config, keep_artifacts=False)


def reference_digest(workload: Workload, prepared: Prepared) -> str | None:
    """The contig digest the timed run must reproduce, where one exists
    independently of the timed configuration: for ``setup_until``
    workloads, the same S assembled at the set-up rank count."""
    if not prepared.inject:
        return None
    return assemble(workload, prepared, nprocs=SETUP_NPROCS).contig_digest()
