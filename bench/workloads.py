"""The four workloads: one measured run each, with its output check.

Every run builds fresh inputs from a pool seed, drives the engine through its
public API and returns a ``Record``. Set-up (world or graph generation,
providers, run directory) is timed apart from the run. Engine time is the
run's wall time minus the time spent inside the provider stand-ins, scaled
to reference seconds by the meter (see meter.py).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dualgraph.chains as chains_mod
import dualgraph.kg as kg_mod
from dualgraph.chains import ChainConfig
from dualgraph.kg import KnowledgeGraph
from dualgraph.orchestrator import RunConfig, Runner, Variant
from dualgraph.providers.base import Providers
from dualgraph.providers.mock import HashEmbeddingProvider
from dualgraph.simulate import DEFAULT_ROOT_QUERY, World, bank_coverage, kg_coverage

from meter import EmbedProxy, InjectedFault, Meter, metered
from world import GrowthPlan, generate_world, planted_growth, sim_providers

WORKLOADS = ("sim-dual", "sim-outline", "graph-grow", "sim-dual-faults")


@dataclass(frozen=True)
class Size:
    name: str
    world: dict
    config: dict
    growth: tuple[int, ...]
    fault_gap: int
    fault_horizon: int
    pools: dict


FULL = Size(
    name="full",
    world=dict(n_communities=8, cores_per_community=5, concepts_per_community=20),
    config=dict(og_query_budget=10, kg_query_budget=16, urls_per_query=12, max_iter=25,
                early_stop_thresholds=90.0),
    growth=(100, 200, 400, 800),
    fault_gap=60,
    fault_horizon=800,
    # Steady timings on a shared host need many repetitions of one input, and
    # sim worlds differ by up to 20% in engine time, so the pools are small.
    # The faults pool must stay within sim-dual's, whose recorded final
    # states the resumed runs are compared with.
    pools={"sim-dual": 1, "sim-outline": 2, "graph-grow": 1, "sim-dual-faults": 1},
)
SMOKE = Size(
    name="smoke",
    world=dict(n_communities=3, cores_per_community=2, concepts_per_community=4),
    config=dict(og_query_budget=3, kg_query_budget=4, urls_per_query=6, max_iter=4,
                early_stop_thresholds=90.0),
    growth=(20, 30, 40),
    fault_gap=12,
    fault_horizon=60,
    pools={workload: 2 for workload in WORKLOADS},
)
SIZES = {size.name: size for size in (FULL, SMOKE)}
GRAPH_CHAIN_TOTAL = 16


@dataclass
class Record:
    """What one workload run measured and whether its output checked out."""

    pool_seed: int
    setup_s: float = 0.0
    engine_s: float = 0.0
    segments: list[float] = field(default_factory=list)
    wall_segments: list[float] = field(default_factory=list)
    units: list[tuple[int, int]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    dir_bytes: int = 0
    bank_coverage: float = 0.0
    kg_coverage: float = 0.0
    final_nodes: int = 0
    final_edges: int = 0
    resumes: int = 0
    redone_chat_calls: int = 0
    resume_mismatch: bool = False
    digests: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def fault_plan(pool_seed: int, size: Size) -> frozenset[int]:
    """Chat attempt numbers that fail: gaps drawn uniformly from 1..2*gap-1.

    Drawn from the seed alone, wherever they land (``select_chains`` calls
    included). Past the horizon no call fails, so every run completes.
    """
    rng = np.random.default_rng([pool_seed, 7919])
    faults, at = [], 0
    while True:
        at += int(rng.integers(1, 2 * size.fault_gap))
        if at > size.fault_horizon:
            return frozenset(faults)
        faults.append(at)


class _MarkingRunner(Runner):
    """Runner that cuts the engine's time at every checkpoint."""

    def __init__(self, config, providers, run_dir, meter, marks):
        super().__init__(config, providers, run_dir)
        self._meter = meter
        self._marks = marks

    def _checkpoint(self, state):
        super()._checkpoint(state)
        self._meter.cut()
        self._marks.append((len(self._meter.segments), state.iteration))


def _iterations(marks) -> list[tuple[int, int]]:
    """Segment ranges of the loop iterations, each with its checkpoint.

    An iteration lies between two checkpoints whose iteration numbers differ
    by one. After a fault it starts at the failure's checkpoint, so it holds
    the resume and the redone work but not the work lost before the fault.
    """
    return [(a[0], b[0]) for a, b in zip(marks, marks[1:]) if b[1] == a[1] + 1]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Prepared:
    """Inputs of one run, built during the timed set-up."""

    workload: str
    pool_seed: int
    meter: Meter
    setup_s: float = 0.0
    world: World | None = None
    config: RunConfig | None = None
    providers: Providers | None = None
    run_dir: Path | None = None
    plan: GrowthPlan | None = None
    embed: EmbedProxy | None = None
    chain_config: ChainConfig | None = None


def prepare(workload: str, pool_seed: int, size: Size, scratch: Path) -> Prepared:
    """Generate the world or graph, build the providers and make the run dir."""
    t0 = perf_counter()
    if workload == "graph-grow":
        meter = Meter()
        prep = Prepared(
            workload, pool_seed, meter,
            plan=planted_growth(pool_seed, list(size.growth)),
            embed=EmbedProxy(HashEmbeddingProvider(dim=32, seed=pool_seed), meter),
            chain_config=ChainConfig(total=GRAPH_CHAIN_TOTAL, seed=pool_seed),
        )
    else:
        variant = Variant.OUTLINE_ONLY if workload == "sim-outline" else Variant.DUAL_GRAPH
        world = generate_world(seed=pool_seed, **size.world)
        config = RunConfig(**size.config, seed=pool_seed, variant=variant)
        meter = Meter(fault_plan(pool_seed, size) if workload == "sim-dual-faults" else frozenset())
        prep = Prepared(
            workload, pool_seed, meter, world=world, config=config,
            providers=metered(sim_providers(world, config.embed_dim, config.seed), meter),
            run_dir=Path(tempfile.mkdtemp(dir=scratch)),
        )
    prep.setup_s = perf_counter() - t0
    return prep


def sim_run(prep: Prepared, expected: dict, tracer=None) -> Record:
    rec = Record(prep.pool_seed, setup_s=prep.setup_s)
    world, config, meter = prep.world, prep.config, prep.meter
    meter.attach(tracer)
    marks: list = []
    meter.start()
    try:
        runner = _MarkingRunner(config, prep.providers, prep.run_dir, meter, marks)
        with tracer.root() if tracer else nullcontext():
            while True:
                try:
                    state = runner.resume() if rec.resumes else runner.start(DEFAULT_ROOT_QUERY)
                    break
                except InjectedFault:
                    if not meter.faults:
                        raise
                    rec.resumes += 1
                    # A restarted process has none of the old providers' state.
                    with meter.timed("rebuild"):
                        fresh = metered(sim_providers(world, config.embed_dim, config.seed), meter)
                    runner = _MarkingRunner(config, fresh, prep.run_dir, meter, marks)
        meter.cut()
        meter.stop()
        rec.segments, rec.units = meter.scaled_segments(), _iterations(marks)
        rec.wall_segments = meter.segments
        rec.engine_s = sum(rec.segments)
        rec.counts = dict(meter.counts)
        rec.dir_bytes = _dir_bytes(prep.run_dir)
        _check_sim(rec, prep.workload, state, world, prep.run_dir, expected)
        rec.redone_chat_calls = meter.counts["chat.calls"] - len(state.audit)
    except Exception:
        rec.problems.append(traceback.format_exc())
    finally:
        meter.stop()
        shutil.rmtree(prep.run_dir, ignore_errors=True)
    return rec


def _check_sim(rec: Record, workload: str, state, world, run_dir: Path, expected: dict) -> None:
    if state.stage != "done" or not (state.report or "").strip():
        rec.problems.append(f"run ended at stage {state.stage!r} without a report")
    missing = sorted(i for i in state.og.all_citations() if i not in state.bank)
    if missing:
        rec.problems.append(f"outline cites ids absent from the bank: {missing[:10]}")
    written = (run_dir / "state.json").read_bytes()
    reloaded = Runner(state.config, None, run_dir).load_state()
    if reloaded.to_dict() != json.loads(written):
        rec.problems.append("state.json does not round-trip through load_state/to_dict")
    rec.bank_coverage = bank_coverage(state.bank, world)
    if state.kg is not None:
        rec.kg_coverage = kg_coverage(state.kg, world)
        rec.final_nodes, rec.final_edges = len(state.kg), state.kg.n_edges
    rec.digests["state"] = hashlib.sha256(written).hexdigest()
    want = expected.get(workload, {}).get(str(rec.pool_seed))
    if want is None:
        rec.problems.append(f"no recorded coverage for {workload} seed {rec.pool_seed}")
    elif rec.bank_coverage != want["bank_coverage"]:
        rec.problems.append(
            f"bank_coverage {rec.bank_coverage} != recorded {want['bank_coverage']}"
        )
    if workload == "sim-dual-faults":
        # Reported, not failed: the divergence comes from state held by the
        # sim chat stand-in, which a restart loses.
        clean = expected.get("sim-dual", {}).get(str(rec.pool_seed), {})
        rec.resume_mismatch = rec.digests["state"] != clean.get("state_sha256")


def graph_run(prep: Prepared, expected: dict, tracer=None) -> Record:
    rec = Record(prep.pool_seed, setup_s=prep.setup_s)
    pool_seed, plan, meter = prep.pool_seed, prep.plan, prep.meter
    meter.attach(tracer)
    passes = []
    try:
        kg = KnowledgeGraph()
        with tracer.root() if tracer else nullcontext():
            meter.start()
            for result, labels in plan.batches:
                first = len(meter.segments)
                kg = kg_mod.apply_extraction(kg, result, labels)
                meter.cut()
                new_ids = [n.node_id for n in result.new_nodes]
                vectors = prep.embed.embed([kg.nodes[nid].name for nid in new_ids])
                for nid, vec in zip(new_ids, vectors):
                    kg.nodes[nid].embedding = vec
                partition = kg_mod.detect_communities(kg, seed=pool_seed)
                meter.cut()
                clusters = kg_mod.cluster_semantic(kg)
                meter.cut()
                for nid in kg.node_ids():
                    kg.nodes[nid].cluster_id = clusters[nid]
                    kg.nodes[nid].community_id = partition.assignment[nid]
                chains = chains_mod.build_search_chains(kg, partition, prep.chain_config)
                meter.cut()
                kg.copy().to_document()
                meter.cut()
                rec.units.append((first, len(meter.segments)))
                passes.append((partition.assignment, clusters, chains))
        meter.stop()
        rec.segments = meter.scaled_segments()
        rec.wall_segments = meter.segments
        digest = hashlib.sha256()
        for assignment, clusters, chains in passes:
            # Both maps are keyed in node order.
            digest.update(
                json.dumps(
                    [list(assignment.values()), list(clusters.values()),
                     [c.to_dict() for c in chains]],
                    sort_keys=True,
                ).encode("utf-8")
            )
        rec.engine_s = sum(rec.segments)
        rec.counts = dict(meter.counts)
        rec.final_nodes, rec.final_edges = len(kg), kg.n_edges
        rec.digests["passes"] = digest.hexdigest()
        if (len(kg), kg.n_edges) != (len(plan.names), plan.n_edges):
            rec.problems.append(f"graph grew to {len(kg)} nodes / {kg.n_edges} edges")
        want = expected.get("graph-grow", {}).get(str(pool_seed))
        if want is None:
            rec.problems.append(f"no recorded digest for graph-grow seed {pool_seed}")
        elif rec.digests["passes"] != want["passes_sha256"]:
            rec.problems.append("partition, cluster or chain output differs from the recording")
    except Exception:
        rec.problems.append(traceback.format_exc())
    finally:
        meter.stop()
    return rec


def run_once(prep: Prepared, expected: dict, tracer=None) -> Record:
    if prep.workload == "graph-grow":
        return graph_run(prep, expected, tracer)
    return sim_run(prep, expected, tracer)
