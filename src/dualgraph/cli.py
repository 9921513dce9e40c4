"""Command line entry points.

Subcommands:
- run: start a research run in a fresh run directory
- resume: continue an interrupted run from its last checkpoint
- inspect-kg / inspect-og: human-readable views of checkpointed state
- chains: show the gap chains proposed and selected at an iteration
- simulate: paired variant comparison on synthetic corpora

Exit codes: 0 success, 1 usage or configuration error, 2 provider failure,
3 internal error. The commands read no credentials: live providers plug in
through the library (``Providers`` and ``orchestrator.run``).
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .checks import ParseError, SchemaViolation, loads, require_list, require_number, require_object
from .evidence import citation_token
from .ids import MAX_DIGITS
from .kg import KnowledgeGraph
from .orchestrator import ConfigError, RunConfig, Runner, RunState
from .providers.base import ProviderError
from .providers.mock import Fixture, load_fixture
from .rundir import RunDir
from .simulate import run_ablation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROVIDER = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this project reserves 2 for provider
    # failures, so usage problems are rerouted through _UsageError.
    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An integer flag's value. More than ``ids.MAX_DIGITS`` digits is a usage
    error, as ``ids.json_int`` makes it one in JSON, so a value has the same
    outcome on every interpreter."""
    if len(text.strip().lstrip("+-")) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"an integer of more than {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="dualgraph", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    run_p = sub.add_parser("run", help="start a research run")
    run_p.add_argument("--run-dir", required=True, help="directory for checkpoints and outputs")
    run_p.add_argument("--fixture", help="fixture JSON path (default: bundled demo)")
    run_p.add_argument("--config", help="JSON file with run configuration keys")
    run_p.add_argument("--force", action="store_true", help="overwrite an existing run directory")

    res_p = sub.add_parser("resume", help="continue an interrupted run")
    res_p.add_argument("--run-dir", required=True)
    res_p.add_argument("--fixture", help="fixture JSON path (default: bundled demo)")

    kg_p = sub.add_parser("inspect-kg", help="print the knowledge graph of a run")
    kg_p.add_argument("--run-dir", required=True)
    kg_p.add_argument("--iter", type=_integer, dest="iteration")
    kg_p.add_argument("--json", action="store_true", help="print the raw checkpoint file")

    og_p = sub.add_parser("inspect-og", help="print the outline of a run")
    og_p.add_argument("--run-dir", required=True)
    og_p.add_argument("--iter", type=_integer, dest="iteration")

    ch_p = sub.add_parser("chains", help="print the gap chains of an iteration")
    ch_p.add_argument("--run-dir", required=True)
    ch_p.add_argument("--iter", type=_integer, dest="iteration")

    sim_p = sub.add_parser("simulate", help="run the paired variant comparison")
    sim_p.add_argument("--seeds", type=_integer, default=10, help="number of paired seeds")
    sim_p.add_argument("--out", help="directory for ablation.csv and ablation.json")
    sim_p.add_argument("--communities", type=_integer, default=3)
    sim_p.add_argument("--cores", type=_integer, default=2)
    sim_p.add_argument("--concepts", type=_integer, default=4)
    sim_p.add_argument("--max-iter", type=_integer, default=12)
    return parser


def _demo_fixture() -> Fixture:
    ref = resources.files("dualgraph") / "fixtures" / "demo" / "fixture.json"
    with resources.as_file(ref) as path:
        return load_fixture(path)


def _load_fixture_arg(fixture_path: str | None) -> Fixture:
    if fixture_path is None:
        return _demo_fixture()
    path = Path(fixture_path)
    if not path.is_file():
        raise _UsageError(f"no fixture file at {path}")
    try:
        return load_fixture(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"fixture {path} is damaged: {type(exc).__name__}: {exc}") from None


def _check_dir_path(path: Path, what: str) -> None:
    """Usage error unless ``path`` is a directory or could be made one: its
    nearest existing ancestor must be a directory."""
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise _UsageError(f"{what} {path} is not a directory")
            return


def _resolve_config(fixture: Fixture, args) -> RunConfig:
    merged = dict(fixture.config)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise _UsageError(f"no config file at {path}")
        try:
            overrides = loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, an over-long integer or too deep a nesting
            raise _UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise _UsageError("config file must hold a JSON object")
        merged.update(overrides)
    config = RunConfig.from_dict(merged)
    recorded = RunConfig.from_dict(fixture.config).variant
    if config.variant is not recorded:
        raise _UsageError(
            f"fixture was recorded for variant {recorded.value!r}, "
            f"requested {config.variant.value!r}"
        )
    return config


def _finished(state: RunState, files: RunDir) -> int:
    print(f"run complete: {state.iteration} iteration(s), stopped={state.stopped}")
    print(f"report: {files.report_path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    fixture = _load_fixture_arg(args.fixture)
    config = _resolve_config(fixture, args)
    files = RunDir(args.run_dir)
    _check_dir_path(files.path, "run directory")
    if files.holds_run() and not args.force:
        raise _UsageError(
            f"run directory {files.path} already holds a run; pass --force to overwrite"
        )
    state = Runner(config, fixture.providers(config), files.path).start(fixture.root_query)
    return _finished(state, files)


def _cmd_resume(args) -> int:
    fixture = _load_fixture_arg(args.fixture)
    files = RunDir(args.run_dir)
    config = files.config()  # a run goes on with the config it began with
    return _finished(Runner(config, fixture.providers(config), files.path).resume(), files)


def _cmd_inspect_kg(args) -> int:
    files = RunDir(args.run_dir)
    if args.json:
        sys.stdout.write(files.read_iteration("kg", args.iteration))
        return EXIT_OK
    kg = files.read_iteration("kg", args.iteration, KnowledgeGraph.from_document)
    cores = sum(1 for n in kg.nodes.values() if n.is_core_entity)
    communities = {n.community_id for n in kg.nodes.values() if n.community_id is not None}
    clusters = {n.cluster_id for n in kg.nodes.values() if n.cluster_id is not None}
    print(f"nodes: {len(kg.nodes)} ({cores} core, {len(kg.nodes) - cores} concept)")
    print(f"edges: {len(kg.edges)}")
    print(f"communities: {len(communities)}  clusters: {len(clusters)}")
    for nid in kg.node_ids():
        node = kg.nodes[nid]
        kind = "core" if node.is_core_entity else "concept"
        print(
            f"  {nid} [{kind}] {node.name}"
            f" (cluster {node.cluster_id}, community {node.community_id})"
        )
    for eid in kg.edge_ids():
        edge = kg.edges[eid]
        cited = ", ".join(citation_token(i) for i in sorted(edge.evidence_ids))
        print(f"  {eid} {kg.representation(eid)} [evidence: {cited or 'none'}]")
    return EXIT_OK


def _cmd_inspect_og(args) -> int:
    sys.stdout.write(RunDir(args.run_dir).read_iteration("outline", args.iteration))
    return EXIT_OK


def _cmd_chains(args) -> int:
    files = RunDir(args.run_dir)
    # The one read of state.json, which rejects a run in another format.
    committed = files.iteration()
    iteration = committed if args.iteration is None else args.iteration
    names: dict[str, str] = {}
    if files.has_iteration("kg", iteration - 1):
        kg = files.read_iteration_file("kg", iteration - 1, KnowledgeGraph.from_document)
        names = {nid: node.name for nid, node in kg.nodes.items()}

    def render(text: str) -> list[str]:
        keys = ("candidates", "selected", "queries")
        doc = require_object(loads(text), "chains", set(keys))
        candidates, selected, queries = (require_list(doc[key], key) for key in keys)
        known = {c["chain_id"] for c in candidates}
        unknown = [cid for cid in selected if cid not in known]
        if unknown:
            raise SchemaViolation(f"selected ids name no candidate: {unknown}")
        lines = [f"iteration {iteration}: {len(candidates)} candidate chain(s)"]
        for c in candidates:
            mark = "*" if c["chain_id"] in selected else " "
            src = names.get(c["source_id"], c["source_id"])
            tgt = names.get(c["target_id"], c["target_id"])
            score = require_number(c["score"], f"{c['chain_id']} score")
            lines.append(
                f" {mark} {c['chain_id']} [{c['kind']}/{c['basis']}] "
                f"{src} -> {c['relation']} -> {tgt} (score {score:.4f})"
            )
        for cid, query in zip(selected, queries):
            lines.append(f"   query for {cid}: {query}")
        return lines

    print("\n".join(files.read_iteration_file("chains", iteration, render)))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.seeds < 1:
        raise _UsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.out:
        _check_dir_path(Path(args.out), "--out")
    summary = run_ablation(
        seeds=list(range(args.seeds)),
        world_kwargs={
            "n_communities": args.communities,
            "cores_per_community": args.cores,
            "concepts_per_community": args.concepts,
        },
        config_overrides={"max_iter": args.max_iter},
        out_dir=args.out,
    )
    mt = summary["mean_termination"]
    mc = summary["mean_final_coverage"]
    print(f"seeds: {summary['n_seeds']}")
    print(
        "mean termination iteration: "
        f"dualgraph {mt['dualgraph']:.2f}, outline-only {mt['outline-only']:.2f}"
    )
    print(
        "mean final coverage: "
        f"dualgraph {mc['dualgraph']:.4f}, outline-only {mc['outline-only']:.4f}"
    )
    print(
        f"coverage-at-2 wins for dualgraph: "
        f"{summary['coverage_at_2_wins']}/{summary['n_seeds']}"
    )
    if args.out:
        print(f"wrote {Path(args.out) / 'ablation.csv'}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "inspect-kg": _cmd_inspect_kg,
    "inspect-og": _cmd_inspect_og,
    "chains": _cmd_chains,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProviderError, ParseError) as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
