"""Release gate: ten end-to-end checks over the whole package.

Each test is one gate criterion; the conftest summary prints a PASS/FAIL
line per criterion at the end of the session. These tests lean on the
brute-force references in oracles.py, which share no code with the package.
"""

from __future__ import annotations

import copy
import json
import random
import string
import time

import pytest

from dualgraph.chains import (
    ChainConfig,
    allocate_quotas,
    bernoulli_entropy,
    build_search_chains,
    enrichment_score,
    sbm_block_matrix,
)
from dualgraph.kg import (
    CommunityPartition,
    KnowledgeGraph,
    bridging_score,
    degree_in_community,
)
from dualgraph.orchestrator import (
    RunConfig,
    Runner,
    RunState,
    evaluate_early_stop,
)
from dualgraph.outline import apply_revision, parse_outline, render_outline
from dualgraph.providers.base import Providers
from dualgraph.providers.mock import (
    FixtureFetchProvider,
    FixtureSearchProvider,
    HashEmbeddingProvider,
    StaticChatProvider,
    load_fixture,
)
from dualgraph.providers.parsers import (
    SCORE_DIMENSIONS,
    ParseError,
    parse_chain_selection,
    parse_extraction,
    parse_merge,
)
from dualgraph.simulate import (
    bank_coverage,
    generate_world,
    kg_coverage,
    run_ablation,
    run_sim,
)

from .builders import bank_with, dir_snapshot, mutate_outline, random_outline
from .oracles import (
    assert_chain_lists_equal,
    make_case,
    ref_bridging,
    ref_chain_pipeline,
    ref_deg_in,
    ref_enrichment,
    ref_entropy,
    ref_sbm,
)
from .test_orchestrator import DEMO_FIXTURE


def _graph(nodes, edges, labels):
    kg = KnowledgeGraph()
    for name, core in nodes:
        kg.add_node(name, core)
    for src, tgt, rel, ev in edges:
        kg.add_edge(src, tgt, rel, set(ev))
    assignment = {f"n{i + 1}": labels[i] for i in range(len(nodes))}
    for nid, c in assignment.items():
        kg.nodes[nid].community_id = c
    return kg, CommunityPartition(assignment=assignment, seed=0)


# -- criterion 1: scoring formulas -------------------------------------


def test_c01_formula_scores_match_brute_force(rng):
    start = time.monotonic()

    # Frozen examples, one trio per formula.
    kg, part = _graph(
        [("hub", False)] + [(f"x{i}", False) for i in range(5)],
        [("n1", f"n{i}", "r", ()) for i in range(2, 7)],
        [0, 1, 1, 0, 0, 0],
    )
    assert bridging_score(kg, part, "n1") == pytest.approx(0.4)
    assert degree_in_community(kg, part, "n1") == 3
    kg, part = _graph([("lone", False)], [], [0])
    assert bridging_score(kg, part, "n1") == 0.0
    assert degree_in_community(kg, part, "n1") == 0
    kg, part = _graph(
        [("a", False), ("b", False), ("c", False)],
        [("n1", "n2", "r", ()), ("n1", "n3", "r", ())],
        [0, 1, 1],
    )
    assert bridging_score(kg, part, "n1") == 1.0
    assert degree_in_community(kg, part, "n2") == 0

    kg, part = _graph([("a", True), ("b", True)], [("n1", "n2", "r", ())], [0, 0])
    assert enrichment_score(kg, part, "e1") == pytest.approx(2.0)
    nodes = [("u", True), ("v", False)] + [(f"w{i}", False) for i in range(8)]
    edges = [("n1", "n2", "link", (5,))]
    edges += [("n1", nid, "r", ()) for nid in ("n3", "n4", "n5", "n6")]
    edges += [("n2", nid, "r", ()) for nid in ("n7", "n8", "n9", "n10")]
    kg, part = _graph(nodes, edges, [0, 0, 0, 0, 1, 1, 0, 0, 1, 1])
    assert enrichment_score(kg, part, "e1") == pytest.approx(0.95)
    kg, part = _graph(
        [("a", False), ("b", False)], [("n1", "n2", "r", (1, 2, 3))], [0, 0]
    )
    assert enrichment_score(kg, part, "e1") == pytest.approx(0.25)

    kg, part = _graph(
        [(f"p{i}", False) for i in range(7)],
        [("n1", "n4", "r", ()), ("n2", "n5", "r", ())],
        [0, 0, 0, 1, 1, 1, 1],
    )
    assert sbm_block_matrix(kg, part, alpha=0.1).prob(0, 1) == pytest.approx(
        2.1 / 12.2, rel=1e-12
    )
    kg, part = _graph(
        [(f"p{i}", False) for i in range(3)], [("n1", "n2", "r", ())], [0, 0, 0]
    )
    assert sbm_block_matrix(kg, part, alpha=0.1).prob(0, 0) == pytest.approx(
        0.34375, rel=1e-12
    )
    kg, part = _graph([(f"p{i}", False) for i in range(4)], [], [0, 0, 1, 1])
    assert sbm_block_matrix(kg, part, alpha=0.1).prob(0, 1) == pytest.approx(
        0.1 / 4.2, rel=1e-12
    )

    assert bernoulli_entropy(0.5) == 1.0
    assert bernoulli_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)
    assert bernoulli_entropy(0.9) == pytest.approx(bernoulli_entropy(0.1), rel=1e-12)

    # Randomized cross-check of every formula against the references.
    for _ in range(120):
        kg, part, case = make_case(rng)
        for nid in case.nodes:
            assert degree_in_community(kg, part, nid) == ref_deg_in(case, nid)
            assert bridging_score(kg, part, nid) == pytest.approx(
                ref_bridging(case, nid), rel=1e-9, abs=1e-12
            )
        for eid in case.edges:
            assert enrichment_score(kg, part, eid) == pytest.approx(
                ref_enrichment(case, eid), rel=1e-9
            )
        block = sbm_block_matrix(kg, part, alpha=0.1)
        expected = ref_sbm(case, alpha=0.1)
        for (ci, cj), p in expected.items():
            got = block.prob(ci, cj)
            assert got == pytest.approx(p, rel=1e-9)
            assert bernoulli_entropy(got) == pytest.approx(ref_entropy(p), rel=1e-9)

    assert time.monotonic() - start < 5.0


# -- criterion 2: candidate chain pipeline -----------------------------


def test_c02_chain_pipeline_matches_brute_force(rng):
    start = time.monotonic()
    bases_seen: set[str] = set()
    for i in range(500):
        kg, part, case = make_case(rng)
        total = rng.choice((0, 1, 2, 3, 4, 5, 7, 8, 10, 12, 16, 20))
        threshold = rng.choice((0, 1, 1, 2))
        config = ChainConfig(total=total, enrich_evidence_threshold=threshold)
        actual = build_search_chains(kg, part, config)
        expected = ref_chain_pipeline(case, total, threshold, config.sbm_alpha)
        assert_chain_lists_equal(actual, expected)
        bases_seen.update(c.basis for c in actual)
    # The random corpus must have exercised every candidate family.
    assert bases_seen == {
        "enrichment",
        "similarity",
        "block_probability",
        "block_entropy",
        "structural_hole",
    }
    assert time.monotonic() - start < 60.0


# -- criterion 3: budget quotas ----------------------------------------

_CATEGORY = {
    "enrichment": "enrich",
    "similarity": "similarity",
    "block_probability": "block",
    "block_entropy": "block",
    "structural_hole": "hole",
}


def test_c03_quota_allocation_law(rng):
    for total in range(1, 65):
        plan = allocate_quotas(total)
        assert plan.enrich == total // 4
        assert plan.per_explore == total // 4
        assert plan.leftover == total - 4 * (total // 4)

        kg, part, case = make_case(rng)
        chains = build_search_chains(kg, part, ChainConfig(total=total))
        assert len(chains) <= total
        counts: dict[str, int] = {}
        for c in chains:
            counts[_CATEGORY[c.basis]] = counts.get(_CATEGORY[c.basis], 0) + 1
        expected = ref_chain_pipeline(case, total, 1, 0.1)
        want: dict[str, int] = {}
        for r in expected:
            want[_CATEGORY[r.basis]] = want.get(_CATEGORY[r.basis], 0) + 1
        assert counts == want


# -- criterion 4: citations survive revision ---------------------------


def test_c04_revision_never_loses_citations():
    embed = HashEmbeddingProvider(dim=16, seed=0).embed
    bank = bank_with(8)
    for seed in range(220):
        gen = random.Random(seed)
        og = random_outline(gen, bank_size=8)
        for _ in range(gen.randint(1, 3)):
            before = og.all_citations()
            revised = mutate_outline(copy.deepcopy(og), gen, bank_size=8)
            og = apply_revision(og, render_outline(revised), bank, embed)
            assert og.all_citations() >= before


# -- criterion 5: uncited outlines cannot stop -------------------------


def test_c05_uncited_outline_never_stops():
    judge = Providers(
        chat=StaticChatProvider(
            response=json.dumps({d: 100 for d in SCORE_DIMENSIONS})
        ),
        search=FixtureSearchProvider({}),
        fetch=FixtureFetchProvider({}),
        embed=HashEmbeddingProvider(dim=8),
    )
    config = RunConfig()

    checked = 0
    for seed in range(40):
        gen = random.Random(seed)
        og = random_outline(gen, bank_size=6)
        for node in og.walk():
            node.citations = set()
        state = RunState(root_query="q", config=config)
        state.og = parse_outline(render_outline(og))
        state.bank = bank_with(6)
        verdict = evaluate_early_stop(state, judge, config)
        assert verdict.scores["support"] == 0.0
        assert not verdict.stop
        checked += 1
    assert checked == 40

    # Contrast: one live citation and the same judge verdict stops the run.
    state = RunState(root_query="q", config=config)
    state.og = parse_outline("T\n1. A <citation>id_1</citation>\n")
    state.bank = bank_with(1)
    assert evaluate_early_stop(state, judge, config).stop


# -- criterion 6: variant call discipline ------------------------------


def test_c06_variant_call_discipline(tmp_path, monkeypatch):
    # Every graph operation reads a KnowledgeGraph, and every graph (fresh,
    # copied or loaded) is built through __init__: a run that builds none
    # touches none.
    graphs_built = 0
    build = KnowledgeGraph.__init__

    def counting_build(self):
        nonlocal graphs_built
        graphs_built += 1
        build(self)

    monkeypatch.setattr(KnowledgeGraph, "__init__", counting_build)

    world = generate_world(seed=0, n_communities=2, cores_per_community=1,
                           concepts_per_community=2)
    config = RunConfig(max_iter=4, og_query_budget=4, urls_per_query=8,
                       early_stop_thresholds=90.0, variant="outline-only")
    result = run_sim(world, config)
    assert graphs_built == 0, f"outline-only built {graphs_built} knowledge graphs"
    for t in range(result.state.iteration):
        steps = [e.split(":", 1)[1] for e in result.state.events
                 if e.startswith(f"iter{t}:")]
        expected = ["update_og", "gen_from_og", "dedup", "search"]
        if t >= 1:
            expected.append("early_stop")
        assert steps == expected, f"outline-only iteration {t}: {steps}"

    fixture = load_fixture(DEMO_FIXTURE)
    state = Runner(
        RunConfig.from_dict(fixture.config), fixture.providers(), tmp_path / "run"
    ).start(fixture.root_query)
    assert graphs_built > 0
    assert state.events[:4] == [
        "init:create_outline",
        "init:gen_from_og",
        "init:search",
        "init:build_kg",
    ]
    for t in range(state.iteration):
        steps = [e.split(":", 1)[1] for e in state.events if e.startswith(f"iter{t}:")]
        expected = ["gen_from_kg"]
        if t > 0:
            expected.append("gen_from_og")
        expected += ["dedup", "search", "update_kg", "update_og"]
        if t >= 1:
            expected.append("early_stop")
        assert steps == expected, f"dualgraph iteration {t}: {steps}"


# -- criterion 7: determinism ------------------------------------------


def test_c07_byte_identical_reruns(tmp_path):
    snapshots = []
    for name in ("r1", "r2", "r3"):
        fixture = load_fixture(DEMO_FIXTURE)
        Runner(
            RunConfig.from_dict(fixture.config), fixture.providers(), tmp_path / name
        ).start(fixture.root_query)
        snapshots.append(dir_snapshot(tmp_path / name))
    assert snapshots[0] == snapshots[1] == snapshots[2]

    for name in ("a1", "a2"):
        run_ablation(
            [0, 1],
            world_kwargs={"concepts_per_community": 2},
            config_overrides={"max_iter": 6},
            out_dir=tmp_path / name,
        )
    assert dir_snapshot(tmp_path / "a1") == dir_snapshot(tmp_path / "a2")


# -- criterion 8: the graph variant earns its keep ---------------------


def test_c08_paired_simulation_advantage():
    start = time.monotonic()
    summary = run_ablation(list(range(10)))
    assert summary["n_seeds"] == 10
    mt = summary["mean_termination"]
    assert mt["dualgraph"] <= mt["outline-only"], mt
    assert summary["coverage_at_2_wins"] >= 7, summary["coverage_at_2_wins"]
    assert time.monotonic() - start < 300.0


# -- criterion 9: parsers never crash ----------------------------------

_EXTRACTION_SEED = json.dumps(
    {
        "new_nodes": [
            {"node_id": "n3", "name": "flywheel storage", "is_core_entity": True},
            {"node_id": "n4", "name": "inertia response", "is_core_entity": False},
        ],
        "new_edges": [
            {"edge_id": "e2", "source_id": "n3", "target_id": "n4",
             "relation": "provides"},
            {"edge_id": "e3", "source_id": "n4", "target_id": "n1",
             "relation": "stabilizes"},
        ],
        "evidences_map": {"EN1": ["e2"], "EN2": ["e3", "e1"]},
    }
)
_MERGE_SEED = json.dumps(
    {
        "clusters": [
            {
                "cluster_id": "c1",
                "representative_concept": "grid storage",
                "source_node_ids": ["n1", "n2"],
                "similarity_justification": "same underlying asset class",
            }
        ]
    }
)
_SELECTION_SEED = json.dumps(
    {"chains": ["chain_1", "chain_3"], "search queries": ["alpha", "beta"]}
)


def _corrupt(text: str, gen: random.Random) -> str:
    op = gen.choice(
        ("truncate", "insert", "delete", "swap", "retype", "fence", "unicode")
    )
    if not text:
        return gen.choice(("", "null", "[]", "{}", '"x"'))
    if op == "truncate":
        return text[: gen.randrange(len(text))]
    if op == "insert":
        i = gen.randrange(len(text) + 1)
        return text[:i] + gen.choice(string.printable) + text[i:]
    if op == "delete":
        i = gen.randrange(len(text))
        return text[:i] + text[i + 1:]
    if op == "swap":
        i = gen.randrange(len(text))
        j = gen.randrange(len(text))
        chars = list(text)
        chars[i], chars[j] = chars[j], chars[i]
        return "".join(chars)
    if op == "retype":
        return text.replace('"', "'", gen.randint(1, 4))
    if op == "fence":
        return f"```json\n{text}\n```"
    i = gen.randrange(len(text))
    return text[:i] + "☃\x00\x1b" + text[i:]


def test_c09_parser_totality_fuzz():
    gen = random.Random(987654321)
    seeds = (_EXTRACTION_SEED, _MERGE_SEED, _SELECTION_SEED)
    outcomes = {"value": 0, "parse_error": 0}
    for i in range(10_000):
        doc = seeds[i % 3]
        # Every hundredth document passes through unmutated so the corpus
        # provably contains parseable members.
        if i % 100 != 0:
            for _ in range(gen.randint(1, 3)):
                doc = _corrupt(doc, gen)
        for parse in (
            lambda d: parse_extraction(d, {"n1", "n2"}, {"e1"}),
            parse_merge,
            lambda d: parse_chain_selection(d, chain_num=4),
        ):
            try:
                parse(doc)
                outcomes["value"] += 1
            except ParseError:
                outcomes["parse_error"] += 1
            # Anything else is a crash and fails the test by propagating.
    assert outcomes["value"] + outcomes["parse_error"] == 30_000
    assert outcomes["value"] > 0


# -- criterion 10: complete recovery of synthetic worlds ---------------


def test_c10_full_coverage_on_synthetic_worlds():
    worlds = [
        generate_world(seed=0, n_communities=2, cores_per_community=1,
                       concepts_per_community=2),
        generate_world(seed=1, n_communities=3, cores_per_community=2,
                       concepts_per_community=4),
        generate_world(seed=2, n_communities=1, cores_per_community=2,
                       concepts_per_community=4),
        generate_world(seed=3, n_communities=4, cores_per_community=2,
                       concepts_per_community=2),
        generate_world(seed=4, n_communities=3, cores_per_community=1,
                       concepts_per_community=3, extra_edge_prob=0.5),
        generate_world(seed=5, n_communities=2, cores_per_community=2,
                       concepts_per_community=6, docs_per_edge=2),
    ]
    config = RunConfig(
        max_iter=24,
        og_query_budget=6,
        kg_query_budget=6,
        urls_per_query=16,
        early_stop_thresholds=100.0,
        variant="dualgraph",
    )
    for world in worlds:
        result = run_sim(world, config)
        label = f"world seed {world.seed}"
        assert bank_coverage(result.state.bank, world) == 1.0, label
        assert kg_coverage(result.state.kg, world) == 1.0, label
