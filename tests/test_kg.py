"""Knowledge graph: id discipline, extraction folding, merging, clustering."""

from __future__ import annotations

import random

import numpy as np
import pytest

from dualgraph.kg import (
    ClusterError,
    DanglingReferenceError,
    DuplicateIdError,
    EmbeddingMissingError,
    ExtractedEdge,
    ExtractedNode,
    ExtractionResult,
    KnowledgeGraph,
    KnowledgeGraphError,
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


def _snapshot(kg: KnowledgeGraph) -> tuple:
    """Everything a batch may change: content, id counters and adjacency index."""
    neighbors = {v: kg.neighbors(v) for v in kg.nodes}
    return kg.to_dict(), (kg.next_node_num, kg.next_edge_num), neighbors


def _apply(kg: KnowledgeGraph, batch: ExtractionResult, en_ids: dict) -> KnowledgeGraph:
    """apply_extraction, checked against the copy-then-insert reference: the
    same graph on success, and on rejection the same error and an untouched graph."""
    before = _snapshot(kg)
    try:
        expected = oracles.ref_apply_extraction(kg, batch, en_ids)
    except KnowledgeGraphError as exc:
        with pytest.raises(type(exc)):
            apply_extraction(kg, batch, en_ids)
        assert _snapshot(kg) == before
        raise
    out = apply_extraction(kg, batch, en_ids)
    assert out is kg
    assert _snapshot(out) == _snapshot(expected)
    return out


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

    @pytest.mark.parametrize("bad", [0, -3, True, 1.5, "2"])
    @pytest.mark.parametrize("relation", ["reduces", "feeds"])  # existing triple, new edge
    def test_edge_rejects_what_from_dict_rejects(self, bad, relation):
        kg = _small_graph()
        before = kg.to_dict()
        with pytest.raises(KnowledgeGraphError, match="not integers >= 1"):
            kg.add_edge("n1", "n2", relation, {2, bad})
        # Nothing changed, so the graph still round-trips through its document.
        assert kg.to_dict() == before
        assert KnowledgeGraph.from_document(kg.to_document()).to_dict() == before

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
        # The document stores no representation: it is rendered from the names.
        assert set(kg.to_dict()["knowledge_edges"][0]) == {
            "edge_id", "source_id", "target_id", "relation_name", "evidence_ids"
        }

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

    @pytest.mark.parametrize("key", ["knowledge_nodes", "knowledge_edges"])
    @pytest.mark.parametrize("fault", ["first-moved-last", "last-repeated"])
    def test_from_dict_rejects_ids_out_of_ascending_order(self, key, fault):
        doc = _small_graph().to_dict()
        if fault == "first-moved-last":
            doc[key].append(doc[key].pop(0))
        else:
            doc[key].append(doc[key][-1])
        with pytest.raises(DuplicateIdError, match="does not follow"):
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
    op = gen.choice(
        ("node", "edge", "edge", "extract", "extract", "merge", "retire", "copy", "dict")
    )
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
        kg.add_edge(src, tgt, gen.choice(("r", "s")), {gen.randint(1, 5)})
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
        kg = _apply(kg, batch, {"EN1": 1})
    elif op == "merge":
        concepts = [v for v in ids if not kg.nodes[v].is_core_entity]
        if len(concepts) >= 2:
            group = gen.sample(concepts, min(len(concepts), gen.randint(2, 3)))
            kg = merge_nodes(kg, [MergeCluster("merged", group)])
    elif op == "retire":
        # Retire the highest concept id, or the lowest edge between two concepts
        # as a self-loop; each cluster lists the node it keeps last.
        concepts = [v for v in ids if not kg.nodes[v].is_core_entity]
        inner = [
            e for e in kg.edges.values()
            if e.source_id != e.target_id and {e.source_id, e.target_id} <= set(concepts)
        ]
        if inner and gen.random() < 0.5:
            group = sorted((inner[0].source_id, inner[0].target_id), key=ids.index, reverse=True)
            kg = merge_nodes(kg, [MergeCluster("merged", group)])
        elif len(concepts) >= 2:
            group = [concepts[-1], gen.choice(concepts[:-1])]
            kg = merge_nodes(kg, [MergeCluster("merged", group)])
    elif op == "copy":
        kg = kg.copy()
    else:
        kg = KnowledgeGraph.from_dict(kg.to_dict())
    return kg


def _assert_ids_ascend(kg: KnowledgeGraph) -> None:
    nodes = [int(v[1:]) for v in kg.nodes]
    edges = [int(e[1:]) for e in kg.edges]
    assert nodes == sorted(nodes) and edges == sorted(edges)
    assert kg.node_ids() == list(kg.nodes) and kg.edge_ids() == list(kg.edges)


class TestAdjacencyIndex:
    def test_index_follows_every_mutation(self, rng):
        for _ in range(30):
            kg = KnowledgeGraph()
            for _ in range(40):
                kg = _random_step(kg, rng)
                _assert_index_matches_edges(kg)
                _assert_ids_ascend(kg)

    def test_derived_graphs_leave_the_original_index_alone(self):
        kg = _merge_fixture()
        before = {v: kg.neighbors(v) for v in kg.nodes}
        clone = kg.copy()
        clone.add_edge("n1", "n4", "funds")
        clone.add_edge("n4", clone.add_node("grid", False), "feeds")
        # A batch grows the graph it is given: here the clone, not the original.
        apply_extraction(
            clone,
            ExtractionResult(new_edges=[ExtractedEdge("e9", "n3", "n5", "funds")]),
            {},
        )
        assert {v: kg.neighbors(v) for v in kg.nodes} == before
        assert clone.neighbors("n1") == {"n2", "n3", "n4"}
        assert clone.neighbors("n5") == {"n3", "n4"}
        _assert_index_matches_edges(clone)


class TestApplyExtraction:
    def test_fresh_nodes_edges_and_evidence(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n4", "blackouts", False)],
            new_edges=[ExtractedEdge("e3", "n1", "n4", "prevents")],
            evidences_map={"EN1": ["e3", "e1"]},
        )
        out = _apply(kg, batch, {"EN1": 7})
        assert out.nodes["n4"].name == "blackouts"
        assert out.edges["e3"].evidence_ids == {7}
        assert out.edges["e1"].evidence_ids == {1, 7}
        # The batch went into the graph it was given; no copy was made.
        assert out is kg and "n4" in kg.nodes

    def test_restated_ids_are_noops(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n1", "storage", True)],
            new_edges=[ExtractedEdge("e1", "n1", "n2", "reduces")],
            evidences_map={},
        )
        before = kg.to_dict()
        assert _apply(kg, batch, {}).to_dict() == before

    def test_restated_id_with_new_content_rejected(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n1", "renamed", True)], new_edges=[]
        )
        with pytest.raises(DuplicateIdError):
            _apply(kg, batch, {})

    def test_handles_get_the_next_ids(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[
                ExtractedNode("n9", "gap", False),
                ExtractedNode("n4", "blackouts", False),
            ],
            new_edges=[
                ExtractedEdge("e7", "n4", "n9", "causes"),
                ExtractedEdge("e3", "n1", "n4", "prevents"),
            ],
            evidences_map={"EN1": ["e3", "e7"]},
        )
        out = _apply(kg, batch, {"EN1": 5})
        assert out.nodes["n4"].name == "gap"
        assert out.nodes["n5"].name == "blackouts"
        assert out.representation("e3") == "blackouts - causes -> gap"
        assert out.representation("e4") == "storage - prevents -> blackouts"
        assert out.edges["e3"].evidence_ids == out.edges["e4"].evidence_ids == {5}
        assert (out.next_node_num, out.next_edge_num) == (6, 5)

    def test_ids_issued_earlier_in_the_batch_are_not_references(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n9", "gap", False)],
            new_edges=[ExtractedEdge("e3", "n1", "n4", "prevents")],  # n4 is n9's id
        )
        with pytest.raises(UnknownNodeError):
            _apply(kg, batch, {})
        batch = ExtractionResult(
            new_edges=[ExtractedEdge("e8", "n1", "n3", "funds")],
            evidences_map={"EN1": ["e3"]},  # e3 is e8's id
        )
        with pytest.raises(DanglingReferenceError):
            _apply(kg, batch, {"EN1": 1})

    def test_repeated_handle_with_new_content_rejected(self):
        kg = _small_graph()
        same = ExtractedNode("n7", "gap", False)
        out = _apply(kg, ExtractionResult(new_nodes=[same, same]), {})
        assert out.node_ids() == ["n1", "n2", "n3", "n4"]
        batch = ExtractionResult(
            new_nodes=[same, ExtractedNode("n7", "other", False)]
        )
        with pytest.raises(DuplicateIdError):
            _apply(kg, batch, {})

    def test_reobserved_handle_uses_up_no_id(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[],
            new_edges=[
                ExtractedEdge("e3", "n1", "n2", "reduces"),
                ExtractedEdge("e4", "n3", "n1", "constrains"),
            ],
            evidences_map={"EN1": ["e3", "e4"]},
        )
        out = _apply(kg, batch, {"EN1": 9})
        assert out.edge_ids() == ["e1", "e2", "e3"]
        assert out.edges["e1"].evidence_ids == {1, 9}
        assert out.representation("e3") == "grid codes - constrains -> storage"
        assert out.edges["e3"].evidence_ids == {9}
        assert out.next_edge_num == 4

    def test_unknown_evidence_label_rejected(self):
        kg = _small_graph()
        batch = ExtractionResult(evidences_map={"EN3": ["e1"]})
        with pytest.raises(UnknownEvidenceLabelError):
            _apply(kg, batch, {"EN1": 1})

    def test_idempotent_application(self):
        kg = _small_graph()
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n4", "blackouts", False)],
            new_edges=[ExtractedEdge("e3", "n1", "n4", "prevents")],
            evidences_map={"EN1": ["e3"]},
        )
        once = _apply(kg, batch, {"EN1": 7}).to_dict()
        assert _apply(kg, batch, {"EN1": 7}).to_dict() == once

    def test_batch_failing_on_its_last_entry_leaves_the_graph_alone(self):
        kg = _small_graph()
        before = _snapshot(kg)
        batch = ExtractionResult(
            new_nodes=[ExtractedNode("n4", "blackouts", False), ExtractedNode("n5", "gap", True)],
            new_edges=[
                ExtractedEdge("e3", "n1", "n4", "prevents"),
                ExtractedEdge("e4", "n4", "n5", "widens"),
                ExtractedEdge("e5", "n1", "n2", "reduces"),  # re-observes e1
            ],
            evidences_map={"EN1": ["e3", "e1"], "EN2": ["e4", "e9"]},  # e9 is absent
        )
        with pytest.raises(DanglingReferenceError):
            _apply(kg, batch, {"EN1": 3, "EN2": 4})
        assert _snapshot(kg) == before
        # The rejected batch used up no id: a re-asked batch numbers as if first.
        batch.evidences_map["EN2"] = ["e4"]
        _apply(kg, batch, {"EN1": 3, "EN2": 4})
        assert kg.node_ids() == ["n1", "n2", "n3", "n4", "n5"]
        assert kg.edge_ids() == ["e1", "e2", "e3", "e4"]


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
    def test_changes_and_returns_the_graph_it_is_given(self):
        kg = _merge_fixture()
        assert merge_nodes(kg, [MergeCluster("storage cost", ["n2", "n3"])]) is kg
        assert kg.node_ids() == ["n1", "n2", "n4"]
        assert kg.edge_ids() == ["e1", "e3"]
        _assert_index_matches_edges(kg)

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
        def evidence_ids(g: KnowledgeGraph) -> set[int]:
            return {i for e in g.edges.values() for i in e.evidence_ids}

        kg = _merge_fixture()
        before = evidence_ids(kg)
        with caplog.at_level("WARNING"):
            out = merge_nodes(kg, [MergeCluster("storage cost", ["n2", "n3"])])
        assert before - evidence_ids(out) == {4}
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
        snapshot = kg.to_dict()
        with pytest.raises((ClusterError, UnknownNodeError)):
            merge_nodes(kg, clusters)
        assert kg.to_dict() == snapshot

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
