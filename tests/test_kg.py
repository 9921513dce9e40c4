"""Knowledge graph: id discipline, extraction folding, merging, clustering."""

from __future__ import annotations

import random

import numpy as np
import pytest

from dualgraph.kg import (
    ClusterError,
    DuplicateIdError,
    EmbeddingMissingError,
    ExtractedEdge,
    ExtractedNode,
    ExtractionResult,
    KnowledgeGraph,
    MergeCluster,
    ProtectedNodeError,
    UnknownEvidenceLabelError,
    UnknownNodeError,
    apply_extraction,
    cluster_semantic,
    detect_communities,
    merge_nodes,
)

from . import oracles
from .oracles import CaseGraph, make_case, ref_semantic_clusters


def _small_graph() -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.add_node("storage", True)       # n1
    kg.add_node("curtailment", False)  # n2
    kg.add_node("grid codes", False)   # n3
    kg.add_edge("n1", "n2", "reduces", {1})      # e1
    kg.add_edge("n2", "n3", "regulated by")      # e2
    return kg


class TestGraphBasics:
    def test_ids_sequential(self):
        kg = _small_graph()
        assert kg.node_ids() == ["n1", "n2", "n3"]
        assert kg.edge_ids() == ["e1", "e2"]
        assert kg.next_node_num == 4
        assert kg.next_edge_num == 3

    def test_duplicate_triple_unions_evidence(self):
        kg = _small_graph()
        eid = kg.add_edge("n1", "n2", "reduces", {4})
        assert eid == "e1"
        assert kg.edges["e1"].evidence_ids == {1, 4}
        assert kg.n_edges == 2

    def test_edge_to_unknown_node_rejected(self):
        kg = _small_graph()
        with pytest.raises(UnknownNodeError):
            kg.add_edge("n1", "n9", "reduces")

    def test_neighbors_ignore_direction_and_multiplicity(self):
        kg = _small_graph()
        kg.add_edge("n2", "n1", "constrains")
        assert kg.neighbors("n2") == {"n1", "n3"}
        assert kg.undirected_pairs() == {("n1", "n2"), ("n2", "n3")}

    def test_representation_uses_names(self):
        kg = _small_graph()
        assert kg.representation("e1") == "storage - reduces -> curtailment"

    def test_dict_round_trip(self):
        kg = _small_graph()
        clone = KnowledgeGraph.from_dict(kg.to_dict())
        assert clone.to_dict() == kg.to_dict()
        assert clone.next_node_num == kg.next_node_num
        # The triple index is rebuilt, not just copied.
        assert clone.add_edge("n1", "n2", "reduces") == "e1"

    def test_from_dict_rejects_node_counter_that_reissues_an_id(self):
        doc = _small_graph().to_dict()
        doc["next_node_num"] = 2
        with pytest.raises(DuplicateIdError):
            KnowledgeGraph.from_dict(doc)
        # Ids past the largest one, as merges leave behind, stay legal.
        doc["next_node_num"] = 9
        assert KnowledgeGraph.from_dict(doc).add_node("x", False) == "n9"

    def test_from_dict_rejects_edge_counter_that_reissues_an_id(self):
        doc = _small_graph().to_dict()
        doc["next_edge_num"] = 1
        with pytest.raises(DuplicateIdError):
            KnowledgeGraph.from_dict(doc)
        doc["next_edge_num"] = 7
        assert KnowledgeGraph.from_dict(doc).add_edge("n3", "n1", "r") == "e7"

    def test_from_dict_rejects_repeated_triple(self):
        doc = _small_graph().to_dict()
        twin = dict(doc["knowledge_edges"][0], edge_id="e3", evidence_ids=[2])
        doc["knowledge_edges"].append(twin)
        doc["next_edge_num"] = 4
        with pytest.raises(DuplicateIdError):
            KnowledgeGraph.from_dict(doc)

    def test_prompt_payload_shape(self):
        payload = _small_graph().to_prompt_payload()
        assert [n["id"] for n in payload["nodes"]] == ["n1", "n2", "n3"]
        assert payload["nodes"][0]["is_core_entity"] is True
        assert payload["edges"][0] == {
            "id": "e1",
            "representation": "storage - reduces -> curtailment",
        }


def _mirror(kg: KnowledgeGraph) -> CaseGraph:
    """The graph's edges as oracle data, read without the adjacency index."""
    return CaseGraph(
        nodes=list(kg.nodes),
        edges={
            eid: (e.source_id, e.target_id, e.relation, frozenset(e.evidence_ids))
            for eid, e in kg.edges.items()
        },
    )


def _assert_index_matches_edges(kg: KnowledgeGraph) -> None:
    case = _mirror(kg)
    for v in kg.nodes:
        assert kg.neighbors(v) == oracles.neighbors(case, v), v


def _random_step(kg: KnowledgeGraph, gen: random.Random) -> KnowledgeGraph:
    """One random mutation; returns the graph to continue from."""
    ids = list(kg.nodes)
    op = gen.choice(("node", "edge", "edge", "extract", "extract", "merge", "copy", "dict"))
    if op == "node" or len(ids) < 2:
        kg.add_node(f"x{kg.next_node_num}", gen.random() < 0.3)
    elif op == "edge":
        src, tgt = gen.choice(ids), gen.choice(ids)  # self-loops included
        if gen.random() < 0.3 and kg.edges:
            # Reverse or restate an existing edge.
            e = kg.edges[gen.choice(list(kg.edges))]
            src, tgt = e.source_id, e.target_id
            if gen.random() < 0.5:
                src, tgt = tgt, src
        kg.add_edge(src, tgt, gen.choice(("r", "s")), {gen.randrange(5)})
    elif op == "extract":
        nodes = [ExtractedNode(f"n{kg.next_node_num}", f"x{kg.next_node_num}", False)]
        pool = ids + [nodes[0].node_id]
        edges, num = [], kg.next_edge_num
        for _ in range(gen.randint(1, 4)):
            if gen.random() < 0.3 and kg.edges:
                e = kg.edges[gen.choice(list(kg.edges))]  # re-observed triple
                src, tgt, rel = e.source_id, e.target_id, e.relation
            else:
                src, tgt, rel = gen.choice(pool), gen.choice(pool), gen.choice(("r", "s"))
            if any((d.source_id, d.target_id, d.relation) == (src, tgt, rel) for d in edges):
                continue
            edges.append(ExtractedEdge(f"e{num}", src, tgt, rel))
            num += 1
        batch = ExtractionResult(
            new_nodes=nodes, new_edges=edges, evidences_map={"EN1": [edges[0].edge_id]}
        )
        kg = apply_extraction(kg, batch, {"EN1": 1})
    elif op == "merge":
        concepts = [v for v in ids if not kg.nodes[v].is_core_entity]
        if len(concepts) >= 2:
            group = gen.sample(concepts, min(len(concepts), gen.randint(2, 3)))
            kg = merge_nodes(kg, [MergeCluster("merged", group)])
    elif op == "copy":
        kg = kg.copy()
    else:
        kg = KnowledgeGraph.from_dict(kg.to_dict())
    return kg


class TestAdjacencyIndex:
    def test_index_follows_every_mutation(self, rng):
        for _ in range(30):
            kg = KnowledgeGraph()
            for _ in range(40):
                kg = _random_step(kg, rng)
                _assert_index_matches_edges(kg)

    def test_derived_graphs_leave_the_original_index_alone(self):
        kg = _merge_fixture()
        before = {v: kg.neighbors(v) for v in kg.nodes}
        clone = kg.copy()
        clone.add_edge("n1", "n4", "funds")
        clone.add_edge("n4", clone.add_node("grid", False), "feeds")
        merge_nodes(kg, [MergeCluster("storage cost", ["n2", "n3", "n4"])])
        apply_extraction(
            kg,
            ExtractionResult(new_edges=[ExtractedEdge("e5", "n3", "n4", "funds")]),
            {},
        )
        assert {v: kg.neighbors(v) for v in kg.nodes} == before
        assert clone.neighbors("n1") == {"n2", "n3", "n4"}
        _assert_index_matches_edges(clone)


class TestApplyExtraction:
    def test_fresh_nodes_edges_and_evidence(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n4", "blackouts", False)],
            new_edges=[ExtractedEdge("e3", "n1", "n4", "prevents")],
            evidences_map={"EN1": ["e3", "e1"]},
        )
        out = apply_extraction(kg, batch, {"EN1": 7})
        assert out.nodes["n4"].name == "blackouts"
        assert out.edges["e3"].evidence_ids == {7}
        assert out.edges["e1"].evidence_ids == {1, 7}
        # Input graph untouched.
        assert "n4" not in kg.nodes

    def test_restated_ids_are_noops(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n1", "storage", True)],
            new_edges=[ExtractedEdge("e1", "n1", "n2", "reduces")],
            evidences_map={},
        )
        out = apply_extraction(kg, batch, {})
        assert out.to_dict() == kg.to_dict()

    def test_restated_id_with_new_content_rejected(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n1", "renamed", True)], new_edges=[]
        )
        with pytest.raises(DuplicateIdError):
            apply_extraction(kg, batch, {})

    def test_out_of_sequence_ids_rejected(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n6", "gap", False)], new_edges=[]
        )
        with pytest.raises(DuplicateIdError):
            apply_extraction(kg, batch, {})

    def test_reobserved_triple_consumes_id_but_keeps_original_edge(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[],
            new_edges=[ExtractedEdge("e3", "n1", "n2", "reduces")],
            evidences_map={"EN1": ["e3"]},
        )
        out = apply_extraction(kg, batch, {"EN1": 9})
        assert "e3" not in out.edges
        assert out.edges["e1"].evidence_ids == {1, 9}
        assert out.next_edge_num == 4  # the spent id is never reissued

    def test_unknown_evidence_label_rejected(self):
        kg = _small_graph()
        batch = ExtractionResult(evidences_map={"EN3": ["e1"]})
        with pytest.raises(UnknownEvidenceLabelError):
            apply_extraction(kg, batch, {"EN1": 1})

    def test_idempotent_application(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n4", "blackouts", False)],
            new_edges=[ExtractedEdge("e3", "n1", "n4", "prevents")],
            evidences_map={"EN1": ["e3"]},
        )
        once = apply_extraction(kg, batch, {"EN1": 7})
        twice = apply_extraction(once, batch, {"EN1": 7})
        assert twice.to_dict() == once.to_dict()


def _merge_fixture() -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.add_node("battery", True)            # n1
    kg.add_node("storage economics", False)  # n2
    kg.add_node("cost of storage", False)    # n3
    kg.add_node("capacity market", False)    # n4
    kg.add_edge("n1", "n2", "shapes", {1})   # e1
    kg.add_edge("n1", "n3", "shapes", {2})   # e2  parallel after merge
    kg.add_edge("n2", "n4", "funds", {3})    # e3
    kg.add_edge("n3", "n2", "equals", {4})   # e4  self-loop after merge
    return kg


class TestMergeNodes:
    def test_parallel_edges_union_onto_smallest_id(self):
        kg = _merge_fixture()
        out = merge_nodes(
            kg, [MergeCluster("storage cost", ["n2", "n3"])]
        )
        assert set(out.nodes) == {"n1", "n2", "n4"}
        assert out.nodes["n2"].name == "storage cost"
        assert out.edges["e1"].evidence_ids == {1, 2}
        assert "e2" not in out.edges

    def test_self_loop_dropped_is_only_evidence_loss(self, caplog):
        kg = _merge_fixture()
        before = kg.all_evidence_ids()
        with caplog.at_level("WARNING"):
            out = merge_nodes(kg, [MergeCluster("storage cost", ["n2", "n3"])])
        assert before - out.all_evidence_ids() == {4}
        assert any("self-loop" in r.message for r in caplog.records)

    def test_merged_node_invalidates_derived_attributes(self):
        kg = _merge_fixture()
        kg.nodes["n2"].embedding = np.ones(4)
        kg.nodes["n2"].community_id = 1
        out = merge_nodes(kg, [MergeCluster("storage cost", ["n2", "n3"])])
        assert out.nodes["n2"].embedding is None
        assert out.nodes["n2"].community_id is None

    def test_core_entities_protected_and_batch_atomic(self):
        kg = _merge_fixture()
        snapshot = kg.to_dict()
        with pytest.raises(ProtectedNodeError):
            merge_nodes(kg, [MergeCluster("x", ["n1", "n2"])])
        assert kg.to_dict() == snapshot

    @pytest.mark.parametrize(
        "clusters",
        [
            [MergeCluster("x", ["n2"])],
            [MergeCluster("x", ["n2", "n2"])],
            [MergeCluster("x", ["n2", "n9"])],
            [MergeCluster(" ", ["n2", "n3"])],
            [MergeCluster("x", ["n2", "n3"]), MergeCluster("y", ["n3", "n4"])],
        ],
    )
    def test_invalid_clusters_rejected(self, clusters):
        kg = _merge_fixture()
        with pytest.raises((ClusterError, UnknownNodeError)):
            merge_nodes(kg, clusters)

    def test_empty_cluster_list_returns_equal_graph(self):
        kg = _merge_fixture()
        assert merge_nodes(kg, []).to_dict() == kg.to_dict()


class TestClusterSemantic:
    def test_matches_union_find_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            kg, _, case = make_case(rng, max_nodes=10)
            threshold = rng.choice((0.3, 0.6, 0.85, 0.99))
            assert cluster_semantic(kg, threshold) == ref_semantic_clusters(
                case.nodes, case.vectors, threshold
            )

    def test_missing_embedding_rejected(self):
        kg = KnowledgeGraph()
        kg.add_node("a", False)
        with pytest.raises(EmbeddingMissingError):
            cluster_semantic(kg)

    def test_pair_exactly_at_threshold_is_clustered(self, rng):
        # A Gram-matrix entry can round below the per-pair dot product. At a
        # threshold equal to that product the pair must still be clustered;
        # the closest pairs are the ones no other pair joins transitively.
        for _ in range(5):
            kg, _, case = make_case(rng, max_nodes=60, dim=32)
            ids = kg.node_ids()
            closest = sorted(
                (
                    (float(np.dot(case.vectors[a], case.vectors[b])), a, b)
                    for i, a in enumerate(ids)
                    for b in ids[i + 1 :]
                ),
                reverse=True,
            )[:30]
            for threshold, a, b in closest:
                labels = cluster_semantic(kg, threshold)
                assert labels[a] == labels[b], (a, b)
            for threshold, _, _ in closest[::10]:
                assert cluster_semantic(kg, threshold) == ref_semantic_clusters(
                    case.nodes, case.vectors, threshold
                )

    def test_shared_embeddings_match_union_find_oracle(self, rng):
        for _ in range(10):
            kg, _, case = make_case(rng, max_nodes=60, dim=32)
            ids = kg.node_ids()
            for nid in ids:
                if rng.random() < 0.5:
                    vec = kg.nodes[rng.choice(ids[:4])].embedding
                    kg.nodes[nid].embedding = case.vectors[nid] = vec.copy()
            for threshold in (0.6, 0.85, 1.0):
                assert cluster_semantic(kg, threshold) == ref_semantic_clusters(
                    case.nodes, case.vectors, threshold
                )

    def test_transitive_closure_merges_chains(self):
        kg = KnowledgeGraph()
        for name in ("a", "b", "c"):
            kg.add_node(name, False)
        for nid, deg in (("n1", 0.0), ("n2", 20.0), ("n3", 40.0)):
            theta = np.radians(deg)
            kg.nodes[nid].embedding = np.array([np.cos(theta), np.sin(theta)])
        labels = cluster_semantic(kg, threshold=0.9)
        # Adjacent vectors are 20 degrees apart (cos 0.94), the outer pair 40
        # (cos 0.77): only transitivity joins all three.
        assert labels["n1"] == labels["n2"] == labels["n3"]


class TestDetectCommunities:
    def test_partition_covers_graph_with_contiguous_labels(self, rng):
        for _ in range(10):
            kg, _, _ = make_case(rng, max_nodes=12)
            part = detect_communities(kg, seed=3)
            assert set(part.assignment) == set(kg.node_ids())
            labels = set(part.assignment.values())
            assert labels == set(range(len(labels)))

    def test_respects_planted_split(self):
        kg = KnowledgeGraph()
        for i in range(6):
            kg.add_node(f"x{i}", False)
        for a, b in (("n1", "n2"), ("n2", "n3"), ("n3", "n1"),
                     ("n4", "n5"), ("n5", "n6"), ("n6", "n4")):
            kg.add_edge(a, b, "r")
        part = detect_communities(kg, seed=0)
        assert part.n_communities == 2
        assert part.community_of("n1") == part.community_of("n3")
        assert part.community_of("n1") != part.community_of("n4")
