"""Gap discovery: scoring formulas, family rankings, budget assembly."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgraph.chains import (
    ChainConfig,
    allocate_quotas,
    bernoulli_entropy,
    build_search_chains,
    cross_community_score,
    enrichment_score,
    explore_block,
    explore_similarity,
    explore_structural_holes,
    format_chains_for_prompt,
    rank_enrich,
    sbm_block_matrix,
)
from dualgraph.kg import (
    CommunityPartition,
    EmbeddingMissingError,
    KnowledgeGraph,
    bridging_score,
    degree_in_community,
    node_importance,
)

from .oracles import (
    assert_chain_lists_equal,
    make_case,
    ref_chain_pipeline,
    ref_entropy,
    ref_block_list,
    ref_hole_list,
)


def _graph(nodes, edges, labels) -> tuple[KnowledgeGraph, CommunityPartition]:
    """nodes: (name, is_core); edges: (src, tgt, rel, evidence)."""
    kg = KnowledgeGraph()
    for name, core in nodes:
        kg.add_node(name, core)
    for src, tgt, rel, ev in edges:
        kg.add_edge(src, tgt, rel, set(ev))
    assignment = {f"n{i + 1}": labels[i] for i in range(len(nodes))}
    for nid, c in assignment.items():
        kg.nodes[nid].community_id = c
    return kg, CommunityPartition(assignment=assignment, seed=0)


class TestQuotas:
    @pytest.mark.parametrize(
        "total,expected",
        [(10, (2, 2, 2)), (4, (1, 1, 0)), (7, (1, 1, 3)), (20, (5, 5, 0)), (1, (0, 0, 1))],
    )
    def test_known_splits(self, total, expected):
        plan = allocate_quotas(total)
        assert (plan.enrich, plan.per_explore, plan.leftover) == expected

    @given(total=st.integers(min_value=0, max_value=256))
    def test_floor_arithmetic(self, total):
        plan = allocate_quotas(total)
        assert plan.enrich == plan.per_explore == total // 4
        assert plan.leftover == total - 4 * (total // 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocate_quotas(-1)


class TestTopologyScores:
    def test_bridging_two_of_five_neighbors_cross(self):
        kg, part = _graph(
            [("hub", False)] + [(f"x{i}", False) for i in range(5)],
            [("n1", f"n{i}", "r", ()) for i in range(2, 7)],
            labels=[0, 1, 1, 0, 0, 0],
        )
        assert bridging_score(kg, part, "n1") == pytest.approx(0.4)
        assert degree_in_community(kg, part, "n1") == 3

    def test_isolated_node_scores_zero(self):
        kg, part = _graph([("lone", False)], [], labels=[0])
        assert bridging_score(kg, part, "n1") == 0.0
        assert degree_in_community(kg, part, "n1") == 0

    def test_all_cross_neighbors_score_one(self):
        kg, part = _graph(
            [("a", False), ("b", False), ("c", False)],
            [("n1", "n2", "r", ()), ("n1", "n3", "r", ())],
            labels=[0, 1, 1],
        )
        assert bridging_score(kg, part, "n1") == 1.0

    def test_node_importance_cases(self):
        kg, _ = _graph([("a", True), ("b", True), ("c", False)], [], [0, 0, 0])
        assert node_importance(kg, "n1", "n2") == 1.0
        assert node_importance(kg, "n1", "n3") == 0.5
        assert node_importance(kg, "n3", "n3") == 0.0


class TestEnrichmentScore:
    def test_two_cores_no_crossing_no_evidence(self):
        kg, part = _graph(
            [("a", True), ("b", True)], [("n1", "n2", "r", ())], [0, 0]
        )
        assert enrichment_score(kg, part, "e1") == pytest.approx(2.0)

    def test_one_core_partial_crossing_one_evidence(self):
        nodes = [("u", True), ("v", False)]
        nodes += [(f"ua{i}", False) for i in range(2)]  # n3, n4 same community
        nodes += [(f"uc{i}", False) for i in range(2)]  # n5, n6 cross
        nodes += [(f"va{i}", False) for i in range(2)]  # n7, n8 same community
        nodes += [(f"vc{i}", False) for i in range(2)]  # n9, n10 cross
        edges = [("n1", "n2", "link", (5,))]
        edges += [("n1", nid, "r", ()) for nid in ("n3", "n4", "n5", "n6")]
        edges += [("n2", nid, "r", ()) for nid in ("n7", "n8", "n9", "n10")]
        labels = [0, 0, 0, 0, 1, 1, 0, 0, 1, 1]
        kg, part = _graph(nodes, edges, labels)
        # Both endpoints see five neighbors with two in the other community.
        assert cross_community_score(kg, part, "n1", "n2") == pytest.approx(0.4)
        assert enrichment_score(kg, part, "e1") == pytest.approx(0.95)

    def test_two_concepts_three_evidence_units(self):
        kg, part = _graph(
            [("a", False), ("b", False)], [("n1", "n2", "r", (1, 2, 3))], [0, 0]
        )
        assert enrichment_score(kg, part, "e1") == pytest.approx(0.25)


class TestRankEnrich:
    def _pool(self):
        # e1: concept pair, no crossing, no evidence -> score 1.0
        # e2: core pair, fully cross-community, one unit -> score 1.5
        return _graph(
            [("c1", False), ("c2", False), ("k1", True), ("k2", True)],
            [("n1", "n2", "r", ()), ("n3", "n4", "r", (1,))],
            labels=[0, 0, 0, 1],
        )

    def test_zero_evidence_outranks_higher_score(self):
        kg, part = self._pool()
        chains = rank_enrich(kg, part, evidence_threshold=1)
        assert [c.edge_id for c in chains] == ["e1", "e2"]
        assert chains[0].score < chains[1].score

    def test_quota_zero_empty(self):
        kg, part = self._pool()
        assert rank_enrich(kg, part, evidence_threshold=1, quota=0) == []

    def test_threshold_filters_pool(self):
        kg, part = self._pool()
        kg.edges["e2"].evidence_ids = {1, 2}
        assert [c.edge_id for c in rank_enrich(kg, part, evidence_threshold=1)] == ["e1"]
        assert rank_enrich(kg, part, evidence_threshold=0, quota=5)[0].edge_id == "e1"

    def test_matches_reference_sort_on_random_pools(self, rng):
        for _ in range(60):
            kg, part, case = make_case(rng)
            threshold = rng.choice((0, 1, 2))
            chains = rank_enrich(kg, part, evidence_threshold=threshold)
            two_stage = [
                (0 if not kg.edges[c.edge_id].evidence_ids else 1, -c.score)
                for c in chains
            ]
            assert two_stage == sorted(two_stage)
            assert {c.edge_id for c in chains} == {
                eid
                for eid, e in case.edges.items()
                if len(e[3]) <= threshold
            }


class TestBlockMatrix:
    def test_two_cross_edges_between_sizes_three_and_four(self):
        nodes = [(f"p{i}", False) for i in range(7)]
        edges = [("n1", "n4", "r", ()), ("n2", "n5", "r", ())]
        kg, part = _graph(nodes, edges, [0, 0, 0, 1, 1, 1, 1])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        assert block.prob(0, 1) == pytest.approx(2.1 / 12.2, rel=1e-12)
        assert block.prob(0, 1) == pytest.approx(0.172131, abs=1e-6)

    def test_one_internal_edge_in_size_three_community(self):
        nodes = [(f"p{i}", False) for i in range(3)]
        kg, part = _graph(nodes, [("n1", "n2", "r", ())], [0, 0, 0])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        assert block.prob(0, 0) == pytest.approx(0.34375, rel=1e-12)

    def test_smoothing_floor_keeps_entries_positive(self):
        nodes = [(f"p{i}", False) for i in range(4)]
        kg, part = _graph(nodes, [], [0, 0, 1, 1])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        assert block.prob(0, 1) == pytest.approx(0.1 / 4.2, rel=1e-12)
        assert block.prob(0, 1) == pytest.approx(0.023810, abs=1e-6)
        assert (block.matrix > 0).all() and (block.matrix < 1).all()

    def test_entries_stay_inside_open_interval_on_random_graphs(self, rng):
        for _ in range(30):
            kg, part, _ = make_case(rng)
            matrix = sbm_block_matrix(kg, part, alpha=0.1).matrix
            assert (matrix > 0).all() and (matrix < 1).all()


class TestBernoulliEntropy:
    def test_maximum_at_half(self):
        assert bernoulli_entropy(0.5) == 1.0

    def test_quarter_value(self):
        assert bernoulli_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    @given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_symmetry(self, p):
        assert bernoulli_entropy(p) == pytest.approx(bernoulli_entropy(1 - p), rel=1e-9)
        assert bernoulli_entropy(p) == pytest.approx(ref_entropy(p), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            bernoulli_entropy(p)


def _embedded(kg: KnowledgeGraph, vectors: dict[str, tuple[float, ...]]) -> None:
    for nid, vec in vectors.items():
        arr = np.asarray(vec, dtype=float)
        kg.nodes[nid].embedding = arr / np.linalg.norm(arr)


class TestExploreSimilarity:
    def test_ranks_unlinked_core_concept_pairs_by_cosine(self):
        kg, _ = _graph(
            [("core", True), ("near", False), ("far", False), ("linked", False)],
            [("n1", "n4", "r", ())],
            [0, 0, 0, 0],
        )
        _embedded(kg, {
            "n1": (1.0, 0.0),
            "n2": (0.9, 0.4),
            "n3": (0.1, 1.0),
            "n4": (1.0, 0.1),
        })
        chains = explore_similarity(kg)
        assert [(c.source_id, c.target_id) for c in chains] == [("n1", "n2"), ("n1", "n3")]
        assert chains[0].basis == "similarity"
        assert chains[0].score > chains[1].score

    def test_no_cores_or_fully_linked_graphs_are_empty(self):
        kg, _ = _graph([("a", False), ("b", False)], [], [0, 0])
        _embedded(kg, {"n1": (1, 0), "n2": (0, 1)})
        assert explore_similarity(kg) == []

        kg2, _ = _graph([("a", True), ("b", False)], [("n1", "n2", "r", ())], [0, 0])
        _embedded(kg2, {"n1": (1, 0), "n2": (0, 1)})
        assert explore_similarity(kg2) == []

    @pytest.mark.parametrize("bare", ["n1", "n2", "n3"])
    def test_missing_embedding_rejected(self, bare):
        # n2 is linked to the only core, so no candidate pair needs its vector.
        kg, _ = _graph(
            [("core", True), ("linked", False), ("free", False)],
            [("n1", "n2", "r", ())],
            [0, 0, 0],
        )
        _embedded(kg, {nid: (1.0, 0.0) for nid in ("n1", "n2", "n3") if nid != bare})
        with pytest.raises(EmbeddingMissingError, match=f"node {bare} "):
            explore_similarity(kg)


class TestExploreBlock:
    def test_odd_quota_favors_probability_half(self):
        nodes = [(f"p{i}", False) for i in range(6)]
        kg, part = _graph(nodes, [("n1", "n2", "r", ())], [0, 0, 0, 1, 1, 1])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        chains = explore_block(kg, part, block, quota=5)
        bases = [c.basis for c in chains[:5]]
        assert bases == ["block_probability"] * 3 + ["block_entropy"] * 2

    def test_single_community_is_empty(self):
        nodes = [(f"p{i}", False) for i in range(4)]
        kg, part = _graph(nodes, [("n1", "n2", "r", ())], [0, 0, 0, 0])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        assert explore_block(kg, part, block, quota=4) == []

    def test_excluded_and_adjacent_pairs_never_emitted(self):
        nodes = [(f"p{i}", False) for i in range(4)]
        kg, part = _graph(nodes, [("n1", "n3", "r", ())], [0, 0, 1, 1])
        block = sbm_block_matrix(kg, part, alpha=0.1)
        chains = explore_block(
            kg, part, block, quota=8, exclude_pairs={("n1", "n4")}
        )
        emitted = {(c.source_id, c.target_id) for c in chains}
        assert emitted == {("n2", "n3"), ("n2", "n4")}


class TestExploreStructuralHoles:
    def test_existing_bridge_edge_suppresses_that_pair(self):
        # Star around n5 makes it community 1's representative; the n1-n5
        # bridge edge already exists, so that pairing must not reappear.
        nodes = [(f"p{i}", False) for i in range(8)]
        edges = [
            ("n1", "n5", "r", ()),
            ("n2", "n1", "r", ()), ("n2", "n3", "r", ()), ("n2", "n4", "r", ()),
            ("n5", "n6", "r", ()), ("n5", "n7", "r", ()), ("n5", "n8", "r", ()),
        ]
        kg, part = _graph(nodes, edges, [0, 0, 0, 0, 1, 1, 1, 1])
        assert degree_in_community(kg, part, "n5") == 3
        pairs = {(c.source_id, c.target_id) for c in explore_structural_holes(kg, part)}
        assert ("n1", "n5") not in pairs and ("n5", "n1") not in pairs
        assert ("n2", "n5") in pairs

    def test_sparse_communities_yield_few_bridges_without_padding(self):
        # Community 0 has one crossing node and one spare; community 1 is a
        # single node whose pairing with community 0's rep already exists.
        kg, part = _graph(
            [("a", False), ("b", False), ("c", False)],
            [("n1", "n3", "r", ())],
            [0, 0, 1],
        )
        chains = explore_structural_holes(kg, part)
        assert [(c.source_id, c.target_id) for c in chains] == [("n2", "n3")]
        assert chains[0].basis == "structural_hole"
        assert chains[0].score == 0.0

    def test_two_community_graphs_match_reference(self):
        for seed in range(20):
            gen = random.Random(seed)
            kg, part, case = make_case(gen, max_nodes=15, max_communities=2)
            expected = ref_hole_list(case)
            actual = explore_structural_holes(kg, part)
            assert [(c.source_id, c.target_id) for c in actual] == [
                (r.source, r.target) for r in expected
            ]
            for got, want in zip(actual, expected):
                assert got.score == pytest.approx(want.score, rel=1e-9)


def _share_embeddings(kg: KnowledgeGraph, case, rng: random.Random) -> None:
    """Give half the nodes a copy of one of four embeddings, some of them
    nudged by one ulp per coordinate: cosines then tie exactly or differ in
    the last bits, where a matrix product and per-pair np.dot disagree."""
    ids = kg.node_ids()
    for nid in ids:
        if rng.random() < 0.5:
            vec = kg.nodes[rng.choice(ids[:4])].embedding.copy()
            if rng.random() < 0.5:
                vec = np.nextafter(vec, vec * rng.choice((-2.0, 2.0)))
            kg.nodes[nid].embedding = vec
            case.vectors[nid] = vec


def _assert_similarity_cuts(kg: KnowledgeGraph) -> None:
    full = explore_similarity(kg)
    for c in full:
        vc, vk = kg.nodes[c.source_id].embedding, kg.nodes[c.target_id].embedding
        assert c.score == float(np.dot(vc, vk))
    for quota in {*range(40), max(len(full) - 1, 0), len(full), len(full) + 1}:
        assert explore_similarity(kg, quota=quota) == full[:quota]


class TestBuildSearchChains:
    def test_matches_reference_pipeline_on_random_graphs(self, rng):
        config_pool = [
            ChainConfig(total=t, enrich_evidence_threshold=th)
            for t in (0, 1, 3, 4, 7, 10, 12, 20)
            for th in (0, 1)
        ]
        for _ in range(60):
            kg, part, case = make_case(rng)
            config = rng.choice(config_pool)
            actual = build_search_chains(kg, part, config)
            expected = ref_chain_pipeline(
                case, config.total, config.enrich_evidence_threshold, config.sbm_alpha
            )
            assert_chain_lists_equal(actual, expected)

    def test_unused_family_slots_flow_to_other_families(self):
        # No evidence-light edges and no cores: only block and hole families
        # can produce candidates, and they absorb the whole budget.
        nodes = [(f"p{i}", False) for i in range(6)]
        edges = [("n1", "n2", "r", (1, 2)), ("n4", "n5", "r", (3, 4))]
        kg, part = _graph(nodes, edges, [0, 0, 0, 1, 1, 1])
        for nid in kg.node_ids():
            kg.nodes[nid].embedding = np.eye(6)[int(nid[1:]) - 1]
        chains = build_search_chains(kg, part, ChainConfig(total=10, enrich_evidence_threshold=0))
        assert len(chains) > 2 * (10 // 4)
        assert {c.kind for c in chains} == {"explore"}

    def test_budget_respected_and_ids_sequential(self, rng):
        for _ in range(20):
            kg, part, _ = make_case(rng)
            total = rng.randint(0, 16)
            chains = build_search_chains(kg, part, ChainConfig(total=total))
            assert len(chains) <= total
            assert [c.chain_id for c in chains] == [
                f"chain_{i + 1}" for i in range(len(chains))
            ]

    @pytest.mark.parametrize("edge_factor", [0.4, 4.0])
    def test_cut_rankings_are_prefixes_on_many_communities(self, rng, edge_factor):
        # Eight communities over at most 60 nodes: many community pairs share
        # one block probability, so the lazy rankings merge tie groups.
        shared = 0
        for _ in range(12):
            kg, part, case = make_case(
                rng, max_nodes=60, max_communities=8, edge_factor=edge_factor
            )
            block = sbm_block_matrix(kg, part, alpha=0.1)
            probs = [block.prob(c, d) for c in block.labels for d in block.labels if c < d]
            shared += len(probs) - len(set(probs))
            for quota in (1, 4, 5):
                full = explore_block(kg, part, block, quota=quota)
                expected = ref_block_list(case, 0.1, quota, set())
                assert [(c.basis, c.source_id, c.target_id) for c in full] == [
                    (r.basis, r.source, r.target) for r in expected
                ]
                for got, want in zip(full, expected):
                    assert got.score == pytest.approx(want.score, rel=1e-12)
                for limit in (0, 1, quota, quota + 3, len(full) + 1):
                    assert explore_block(kg, part, block, quota=quota, limit=limit) == (
                        full[:limit]
                    )
            _assert_similarity_cuts(kg)
            for total in (10, 16):
                assert_chain_lists_equal(
                    build_search_chains(kg, part, ChainConfig(total=total)),
                    ref_chain_pipeline(case, total, 1, 0.1),
                )
        assert shared > 0

    def test_similarity_ties_at_the_cut(self, rng):
        for _ in range(12):
            kg, part, case = make_case(rng, max_nodes=60, max_communities=8, dim=32)
            _share_embeddings(kg, case, rng)
            _assert_similarity_cuts(kg)
            assert_chain_lists_equal(
                build_search_chains(kg, part, ChainConfig(total=16)),
                ref_chain_pipeline(case, 16, 1, 0.1),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(total=-1)
        with pytest.raises(ValueError):
            ChainConfig(total=1, enrich_evidence_threshold=-1)
        with pytest.raises(ValueError):
            ChainConfig(total=1, sbm_alpha=0.0)

    def test_prompt_rendering_lists_resolved_names(self):
        kg, part = _graph(
            [("alpha", True), ("beta", False)], [("n1", "n2", "links", ())], [0, 0]
        )
        chains = rank_enrich(kg, part, evidence_threshold=1)
        chains[0].chain_id = "chain_1"
        text = format_chains_for_prompt(chains, kg)
        assert text == "chain_1 | enrich | alpha -> links -> beta"
