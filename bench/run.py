"""Benchmark entry point: one workload, one seed, one JSON result line.

    env PYTHONHASHSEED=0 python3 bench/run.py --workload sim-dual --seed 1 --seconds 30 --trace 0

Runs the workload's pool of inputs in whole cycles (closed loop, one process,
one thread), in an order drawn from ``--seed``, for about ``--seconds``;
checks every run's output; and prints a details line and then the result
line. With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of traced runs, each paired with
an untraced run of the same input to measure the tracing overhead. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
MIN_CYCLES = 3
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "engine_s": "s",
    "iter_engine_s.p50": "s",
    "iter_engine_s.p90": "s",
    "provider_calls": "count",
    "embed_texts": "count",
    "peak_rss_mb": "MiB",
}

# Spans reported by total seconds, by call count, and by self time.
TIMED = (
    "orchestrator.checkpoint", "orchestrator.clone", "orchestrator.load_state",
    "orchestrator.dedup_queries", "chains.build_search_chains", "chains.rank_enrich",
    "chains.explore_similarity", "chains.explore_structural_holes",
    "chains.sbm_block_matrix", "chains.explore_block", "kg.apply_extraction",
    "kg.merge_nodes", "kg.cluster_semantic", "kg.detect_communities", "kg.copy",
    "kg.to_document", "kg.to_prompt_payload", "community.leiden_partition",
    "outline.parse_outline", "outline.render_outline", "outline.apply_revision",
    "evidence.to_document", "providers.chat", "providers.embed", "providers.search",
    "providers.fetch", "providers.parsers.render", "providers.parsers.parse",
)
CALLED = (
    "orchestrator.checkpoint", "orchestrator.clone", "orchestrator.load_state",
    "chains.build_search_chains", "kg.apply_extraction", "kg.copy", "outline.render_outline",
)
SELF = tuple(
    f"orchestrator.{fn}"
    for fn in ("run_search_pipeline", "gen_queries_from_kg", "gen_queries_from_og",
               "update_kg", "update_og", "evaluate_early_stop", "write_report")
)
COUNTED = {
    "orchestrator.checkpoint.bytes_written": "bytes",
    "orchestrator.dedup_queries.in": "count",
    "orchestrator.dedup_queries.kept": "count",
    "orchestrator.dedup_queries.embed_texts": "count",
    "orchestrator.chat_retries": "count",
    "chains.candidates": "count",
    "kg.neighbors.calls": "count",
    "kg.to_document.bytes": "bytes",
    "kg.to_prompt_payload.bytes": "bytes",
    "outline.repaired_citations": "count",
    "evidence.add.calls": "count",
    "evidence.url_dup_skips": "count",
    "evidence.to_document.bytes": "bytes",
    "providers.parsers.rejections": "count",
}
PER_RUN = {
    "orchestrator.query_yield.chain": "ratio",
    "orchestrator.query_yield.outline": "ratio",
    "orchestrator.resumes": "count",
    "orchestrator.redone_chat_calls": "count",
    "chains.selected_ratio": "ratio",
    "kg.final_nodes": "count",
    "kg.final_edges": "count",
    "community.n_communities": "count",
    "providers.chat.calls": "count",
    "providers.chat.prompt_bytes": "bytes",
    "providers.chat.response_bytes": "bytes",
    "providers.embed.calls": "count",
    "providers.search.calls": "count",
    "providers.fetch.calls": "count",
    "providers.fetch.errors": "count",
    "run.dir_bytes": "bytes",
    "run.bank_coverage": "ratio",
    "run.kg_coverage": "ratio",
}
PER_INVOCATION = {
    "orchestrator.resume_mismatch": "ratio",
    "chains.build_search_chains.p50_s": "s",
    "chains.build_search_chains.p90_s": "s",
    "run.failed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}
PER_LAYER = {
    **{f"{span}.s": "s" for span in TIMED},
    **{f"{span}.calls": "count" for span in CALLED},
    **{f"{span}.self_s": "s" for span in SELF},
    **COUNTED,
    **PER_RUN,
    **PER_INVOCATION,
}

# kg.merge_nodes stays silent: the sim chat never proposes a merge cluster.
NEVER_FIRES_IN_SIM = {"kg.merge_nodes", "orchestrator.load_state"}
MUST_FIRE = {
    "sim-dual": (set(TIMED) | set(SELF)) - NEVER_FIRES_IN_SIM,
    "sim-dual-faults": {"orchestrator.load_state"},
    "graph-grow": {"chains.build_search_chains", "kg.apply_extraction",
                   "community.leiden_partition"},
}
MUST_NOT_FIRE_PREFIX = {
    "sim-outline": ("chains.", "kg.", "community."),
    "graph-grow": ("orchestrator.", "providers.chat", "providers.search", "providers.fetch"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _setup_path() -> None:
    src = ROOT / "src"
    if not (src / "dualgraph" / "__init__.py").is_file():
        sys.exit(f"bench: no engine sources at {src}; run from a full checkout")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Community detection output depends on set iteration order, so the
        # recorded outputs hold only under one fixed string hash seed.
        sys.exit("bench: run with PYTHONHASHSEED=0 (see bench/README.md)")
    sys.path[:0] = [str(src), str(BENCH_DIR)]


def _provider_calls(counts: dict) -> int:
    return sum(counts.get(f"{p}.calls", 0) for p in ("chat", "search", "fetch", "embed"))


@dataclass
class Combined:
    """One input's time for each segment of its runs, over its repetitions."""

    pool_seed: int
    setup_s: float
    engine_s: float
    units: list[float]
    counts: dict


def combine(records, problems: list[str], wall: bool = False) -> list[Combined]:
    """Combine the repetitions of each input, keeping each segment's median.

    Runs of one input do identical work between the same provider calls and
    checkpoints. The scaling to reference seconds takes out the host's slow
    phases; the median over repetitions takes out what is left of short
    slowdowns and of the scaling's own noise. ``wall`` combines the unscaled
    segments instead. Repetitions whose segments do not line up mean the
    engine is not deterministic.
    """
    by_input: dict[int, list] = {}
    for r in records:
        if not r.problems:
            by_input.setdefault(r.pool_seed, []).append(r)
    out = []
    for pool_seed, reps in by_input.items():
        if len({(len(r.segments), tuple(r.units)) for r in reps}) > 1:
            problems.append(f"pool seed {pool_seed}: repeated runs split into different segments")
            reps = reps[:1]
        segments = [statistics.median(col) for col in zip(*(r.wall_segments if wall else r.segments
                                                            for r in reps))]
        out.append(Combined(
            pool_seed,
            setup_s=statistics.median(r.setup_s for r in reps),
            engine_s=sum(segments),
            units=[sum(segments[lo:hi]) for lo, hi in reps[0].units],
            counts=reps[0].counts,
        ))
    return out


def _median(values) -> float:
    """Median, or 0.0 when every run failed and there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(inputs: list[Combined]) -> dict[str, float]:
    units = [u for f in inputs for u in f.units]
    return {
        "setup_s": _median(f.setup_s for f in inputs),
        "engine_s": _median(f.engine_s for f in inputs),
        "iter_engine_s.p50": percentile(units, 0.5) if units else 0.0,
        "iter_engine_s.p90": percentile(units, 0.9) if units else 0.0,
        "provider_calls": _median(_provider_calls(f.counts) for f in inputs),
        "embed_texts": _median(f.counts.get("embed.texts", 0) for f in inputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(rec, stats: dict, counts: dict, last: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run."""
    out = {}
    for span in TIMED:
        out[f"{span}.s"] = stats.get(span, (0, 0.0, 0.0))[1]
    for span in CALLED:
        out[f"{span}.calls"] = stats.get(span, (0, 0.0, 0.0))[0]
    for span in SELF:
        out[f"{span}.self_s"] = stats.get(span, (0, 0.0, 0.0))[2]
    for name in COUNTED:
        out[name] = counts.get(name, 0)
    c = rec.counts
    out.update({
        "orchestrator.query_yield.chain": _ratio(counts.get("query.chain.banked", 0),
                                                 counts.get("query.chain.issued", 0)),
        "orchestrator.query_yield.outline": _ratio(counts.get("query.outline.banked", 0),
                                                   counts.get("query.outline.issued", 0)),
        "orchestrator.resumes": rec.resumes,
        "orchestrator.redone_chat_calls": rec.redone_chat_calls,
        "chains.selected_ratio": _ratio(counts.get("chains.selected", 0),
                                        counts.get("chains.offered", 0)),
        "kg.final_nodes": rec.final_nodes,
        "kg.final_edges": rec.final_edges,
        "community.n_communities": last.get("community.n_communities", 0),
        "providers.chat.calls": c.get("chat.calls", 0),
        "providers.chat.prompt_bytes": c.get("chat.prompt_bytes", 0),
        "providers.chat.response_bytes": c.get("chat.response_bytes", 0),
        "providers.embed.calls": c.get("embed.calls", 0),
        "providers.search.calls": c.get("search.calls", 0),
        "providers.fetch.calls": c.get("fetch.calls", 0),
        "providers.fetch.errors": c.get("fetch.errors", 0),
        "run.dir_bytes": rec.dir_bytes,
        "run.bank_coverage": rec.bank_coverage,
        "run.kg_coverage": rec.kg_coverage,
    })
    return out


def span_problems(workload: str, fired: set[str]) -> list[str]:
    """The tracing self-check: spans that must fire do, and bypassed layers stay dark."""
    problems = [f"span {name} never fired" for name in sorted(MUST_FIRE.get(workload, set()) - fired)]
    for prefix in MUST_NOT_FIRE_PREFIX.get(workload, ()):
        problems += [f"span {name} fired" for name in sorted(fired) if name.startswith(prefix)]
    return problems


def _prepare(workload: str, pool_seed: int, size, scratch: Path):
    """Set up several times; keep the last set-up and the median time.

    A set-up takes about a millisecond, so single timings swing with the
    host's contention. The median of several, scaled to reference seconds
    by the reference task timed before each, does not.
    """
    from meter import host_scale, time_reference
    from workloads import prepare

    times, references = [], []
    for _ in range(SETUP_REPEATS):
        start, end = time_reference()
        references.append(end - start)
        prep = prepare(workload, pool_seed, size, scratch)
        times.append(prep.setup_s)
        if len(times) < SETUP_REPEATS and prep.run_dir is not None:
            shutil.rmtree(prep.run_dir)
    prep.setup_s = statistics.median(times) * host_scale(references)
    return prep


def measure(workload: str, seed: int, seconds: float, size, trace: bool, scratch: Path):
    from spans import Tracer, installed
    from workloads import run_once

    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(size.name, {})
    order = list(range(size.pools[workload]))
    random.Random(seed).shuffle(order)
    records, traced, layer_runs, problems = [], [], [], []
    tracer = Tracer() if trace else None
    fired: set[str] = set()
    start = perf_counter()
    cycles = 0
    # Whole cycles over the pool, so every result covers the same inputs.
    # After the first three, another cycle starts if it should end no more
    # than half a cycle past the time given.
    while cycles < MIN_CYCLES or (perf_counter() - start) * (1 + 0.5 / cycles) <= seconds:
        for pool_seed in order:
            gc.collect()
            records.append(run_once(_prepare(workload, pool_seed, size, scratch), expected))
            if not trace:
                continue
            prep = _prepare(workload, pool_seed, size, scratch)
            gc.collect()
            with installed(tracer):
                rec = run_once(prep, expected, tracer)
            stats = tracer.span_stats(tracer.run_id)
            fired |= {name for name, entry in stats.items() if entry[0]}
            fired |= {name.rsplit(".", 1)[0] for name, n in tracer.counts.items() if n}
            root = stats.get("run", (0, 0.0, 0.0))
            traced.append((rec, root[1], root[2]))
            layer_runs.append(layer_values(rec, stats, dict(tracer.counts), dict(tracer.last)))
        cycles += 1
    every = records + [t[0] for t in traced]
    failed = [r for r in every if r.problems]
    for r in failed:
        problems.extend(f"pool seed {r.pool_seed}: {p}" for p in r.problems)
    inputs = combine(records, problems)
    if trace:
        problems.extend(span_problems(workload, fired))
        metrics = {
            name: _median(run[name] for run in layer_runs)
            for name in PER_LAYER if name not in PER_INVOCATION
        }
        chain_calls = tracer.durations("chains.build_search_chains")
        traced_recs = [t[0] for t in traced]
        wall = sum(t[1] for t in traced)
        metrics.update({
            "orchestrator.resume_mismatch": _ratio(sum(r.resume_mismatch for r in every), len(every)),
            "chains.build_search_chains.p50_s": percentile(chain_calls, 0.5) if chain_calls else 0.0,
            "chains.build_search_chains.p90_s": percentile(chain_calls, 0.9) if chain_calls else 0.0,
            "run.failed_share": _ratio(len(failed), len(every)),
            # Traced runs time no reference task, so both sides are unscaled.
            "trace.overhead_s": _median(f.engine_s for f in combine(traced_recs, problems, True))
            - _median(f.engine_s for f in combine(records, [], True)),
            "trace.accounted_share": 1.0 - _ratio(sum(t[2] for t in traced), wall),
        })
        units = PER_LAYER
    else:
        metrics = end_to_end(inputs)
        units = END_TO_END
    units_pooled = sum(len(f.units) for f in inputs)
    details = {
        "workload": workload,
        "seed": seed,
        "size": size.name,
        "runs": len(records),
        "traced_runs": len(traced),
        "cycles": cycles,
        "pool_seeds": [r.pool_seed for r in records],
        "iter_engine_s.samples": units_pooled,
        "iter_engine_s.beyond_p90": units_pooled - math.ceil(0.9 * units_pooled),
        "engine_wall_s": _median(f.engine_s for f in combine(records, [], True)),
        "resume_mismatch": sum(r.resume_mismatch for r in every),
        "bank_coverage": [r.bank_coverage for r in records],
        "run_engine_wall_s": [sum(r.wall_segments) for r in records],
        "run_host_scale": [_ratio(sum(r.segments), sum(r.wall_segments)) for r in records],
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-dual", "sim-outline", "graph-grow", "sim-dual-faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own checks")
    args = parser.parse_args(argv)
    _setup_path()
    from workloads import SIZES

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        details, result, tracer = measure(
            args.workload, args.seed, args.seconds, SIZES[args.size], bool(args.trace), scratch
        )
        if tracer is not None:
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
