"""Evidence-grounded knowledge graph.

Nodes are entities or concepts (``n{k}`` ids); directed edges (``e{k}`` ids)
carry a relation name and the set of evidence ids that ground them. Edge
identity is the exact (source, target, relation) triple: re-observing a triple
unions evidence instead of duplicating the edge. Ids are issued sequentially
and never reused, including ids retired by node merges.

Every graph keeps an adjacency index next to its edges: for each node, the
nodes it shares a non-loop edge with, in either direction, and how many edges
join them. Every operation that adds or rewires edges maintains it, so
``neighbors`` is a lookup.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .community import leiden_partition
from .instrumentation import KG_OPS

log = logging.getLogger(__name__)

__all__ = [
    "KnowledgeGraphError",
    "UnknownNodeError",
    "DuplicateIdError",
    "UnknownEvidenceLabelError",
    "DanglingReferenceError",
    "ProtectedNodeError",
    "ClusterError",
    "EmbeddingMissingError",
    "KnowledgeNode",
    "KnowledgeEdge",
    "ExtractedNode",
    "ExtractedEdge",
    "ExtractionResult",
    "MergeCluster",
    "KnowledgeGraph",
    "CommunityPartition",
    "apply_extraction",
    "merge_nodes",
    "cluster_semantic",
    "detect_communities",
    "bridging_score",
    "degree_in_community",
    "node_importance",
    "gram_margin",
]


class KnowledgeGraphError(ValueError):
    pass


class UnknownNodeError(KnowledgeGraphError):
    pass


class DuplicateIdError(KnowledgeGraphError):
    pass


class UnknownEvidenceLabelError(KnowledgeGraphError):
    pass


class DanglingReferenceError(KnowledgeGraphError):
    pass


class ProtectedNodeError(KnowledgeGraphError):
    """Raised on any attempt to merge a core entity."""


class ClusterError(KnowledgeGraphError):
    pass


class EmbeddingMissingError(KnowledgeGraphError):
    pass


_NODE_ID_RE = re.compile(r"^n([1-9][0-9]*)$")
_EDGE_ID_RE = re.compile(r"^e([1-9][0-9]*)$")


def node_num(node_id: str) -> int:
    m = _NODE_ID_RE.match(node_id)
    if m is None:
        raise KnowledgeGraphError(f"malformed node id: {node_id!r}")
    return int(m.group(1))


def edge_num(edge_id: str) -> int:
    m = _EDGE_ID_RE.match(edge_id)
    if m is None:
        raise KnowledgeGraphError(f"malformed edge id: {edge_id!r}")
    return int(m.group(1))


@dataclass
class KnowledgeNode:
    node_id: str
    name: str
    is_core_entity: bool
    cluster_id: int | None = None
    community_id: int | None = None
    embedding: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class KnowledgeEdge:
    edge_id: str
    source_id: str
    target_id: str
    relation: str
    evidence_ids: set[int] = field(default_factory=set)

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.source_id, self.target_id, self.relation)


@dataclass
class ExtractedNode:
    node_id: str
    name: str
    is_core_entity: bool


@dataclass
class ExtractedEdge:
    edge_id: str
    source_id: str
    target_id: str
    relation: str


@dataclass
class ExtractionResult:
    """Parsed output of one extraction call.

    evidences_map keys are the EN labels of the statements shown to the
    provider; values list the edge ids each statement supports.
    """

    new_nodes: list[ExtractedNode] = field(default_factory=list)
    new_edges: list[ExtractedEdge] = field(default_factory=list)
    evidences_map: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class MergeCluster:
    representative_concept: str
    source_node_ids: list[str]


class KnowledgeGraph:
    def __init__(self) -> None:
        self.nodes: dict[str, KnowledgeNode] = {}
        self.edges: dict[str, KnowledgeEdge] = {}
        self._triples: dict[tuple[str, str, str], str] = {}
        # node -> {neighbour: edges joining the two}; isolated nodes are absent.
        self._adjacency: dict[str, dict[str, int]] = {}
        self.next_node_num: int = 1
        self.next_edge_num: int = 1

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_ids(self) -> list[str]:
        """Node ids in ascending numeric order."""
        return sorted(self.nodes, key=node_num)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges, key=edge_num)

    def edge_for_triple(self, source: str, target: str, relation: str) -> str | None:
        return self._triples.get((source, target, relation))

    def neighbors(self, v: str) -> set[str]:
        """Distinct adjacent nodes, ignoring direction and multiplicity."""
        if v not in self.nodes:
            raise UnknownNodeError(f"unknown node {v!r}")
        return set(self._adjacency.get(v, ()))

    def undirected_pairs(self) -> set[tuple[str, str]]:
        """Adjacent node pairs on the simple projection, numerically ordered."""
        pairs: set[tuple[str, str]] = set()
        for e in self.edges.values():
            if e.source_id == e.target_id:
                continue
            a, b = sorted((e.source_id, e.target_id), key=node_num)
            pairs.add((a, b))
        return pairs

    def all_evidence_ids(self) -> set[int]:
        out: set[int] = set()
        for e in self.edges.values():
            out |= e.evidence_ids
        return out

    def copy(self) -> "KnowledgeGraph":
        g = KnowledgeGraph()
        for n in self.nodes.values():
            g.nodes[n.node_id] = KnowledgeNode(
                node_id=n.node_id,
                name=n.name,
                is_core_entity=n.is_core_entity,
                cluster_id=n.cluster_id,
                community_id=n.community_id,
                embedding=n.embedding,
            )
        for e in self.edges.values():
            g.edges[e.edge_id] = KnowledgeEdge(
                edge_id=e.edge_id,
                source_id=e.source_id,
                target_id=e.target_id,
                relation=e.relation,
                evidence_ids=set(e.evidence_ids),
            )
        g._triples = dict(self._triples)
        g._adjacency = {v: dict(nbrs) for v, nbrs in self._adjacency.items()}
        g.next_node_num = self.next_node_num
        g.next_edge_num = self.next_edge_num
        return g

    # -- construction helpers (used by tests and the simulation world) --

    def add_node(self, name: str, is_core_entity: bool) -> str:
        nid = f"n{self.next_node_num}"
        self.next_node_num += 1
        self.nodes[nid] = KnowledgeNode(node_id=nid, name=name, is_core_entity=is_core_entity)
        return nid

    def add_edge(
        self, source: str, target: str, relation: str, evidence_ids: set[int] | None = None
    ) -> str:
        if source not in self.nodes:
            raise UnknownNodeError(f"unknown source {source!r}")
        if target not in self.nodes:
            raise UnknownNodeError(f"unknown target {target!r}")
        existing = self._triples.get((source, target, relation))
        if existing is not None:
            self.edges[existing].evidence_ids |= evidence_ids or set()
            return existing
        eid = f"e{self.next_edge_num}"
        self.next_edge_num += 1
        self.edges[eid] = KnowledgeEdge(
            edge_id=eid,
            source_id=source,
            target_id=target,
            relation=relation,
            evidence_ids=set(evidence_ids or set()),
        )
        self._triples[(source, target, relation)] = eid
        self._link(source, target)
        return eid

    def _link(self, a: str, b: str) -> None:
        """Record one more edge between a and b in the adjacency index."""
        if a == b:
            return
        for u, v in ((a, b), (b, a)):
            nbrs = self._adjacency.setdefault(u, {})
            nbrs[v] = nbrs.get(v, 0) + 1

    # -- serialization -------------------------------------------------

    def representation(self, edge_id: str) -> str:
        e = self.edges[edge_id]
        return (
            f"{self.nodes[e.source_id].name} - {e.relation} -> {self.nodes[e.target_id].name}"
        )

    def to_dict(self) -> dict:
        return {
            "knowledge_nodes": [
                {
                    "node_id": n.node_id,
                    "knowledge": n.name,
                    "is_core_entity": n.is_core_entity,
                    "cluster_id": n.cluster_id,
                    "community_id": n.community_id,
                }
                for n in self.nodes.values()
            ],
            "knowledge_edges": [
                {
                    "edge_id": e.edge_id,
                    "source_id": e.source_id,
                    "target_id": e.target_id,
                    "relation_name": e.relation,
                    "representation": self.representation(e.edge_id),
                    "evidence_ids": sorted(e.evidence_ids),
                }
                for e in self.edges.values()
            ],
            "next_node_num": self.next_node_num,
            "next_edge_num": self.next_edge_num,
        }

    def to_document(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "KnowledgeGraph":
        g = cls()
        for nd in doc["knowledge_nodes"]:
            node = KnowledgeNode(
                node_id=nd["node_id"],
                name=nd["knowledge"],
                is_core_entity=bool(nd["is_core_entity"]),
                cluster_id=nd.get("cluster_id"),
                community_id=nd.get("community_id"),
            )
            node_num(node.node_id)
            if node.node_id in g.nodes:
                raise DuplicateIdError(f"duplicate node id {node.node_id}")
            g.nodes[node.node_id] = node
        for ed in doc["knowledge_edges"]:
            edge = KnowledgeEdge(
                edge_id=ed["edge_id"],
                source_id=ed["source_id"],
                target_id=ed["target_id"],
                relation=ed["relation_name"],
                evidence_ids=set(int(i) for i in ed["evidence_ids"]),
            )
            edge_num(edge.edge_id)
            if edge.edge_id in g.edges:
                raise DuplicateIdError(f"duplicate edge id {edge.edge_id}")
            for endpoint in (edge.source_id, edge.target_id):
                if endpoint not in g.nodes:
                    raise UnknownNodeError(f"edge {edge.edge_id} references {endpoint!r}")
            if edge.triple in g._triples:
                raise DuplicateIdError(
                    f"edges {g._triples[edge.triple]} and {edge.edge_id} repeat {edge.triple}"
                )
            g.edges[edge.edge_id] = edge
            g._triples[edge.triple] = edge.edge_id
            g._link(edge.source_id, edge.target_id)
        # Counters past the largest id are legal (merges retire ids); counters
        # at or below it would reissue an id that is still in use.
        last_node = max((node_num(i) for i in g.nodes), default=0)
        last_edge = max((edge_num(i) for i in g.edges), default=0)
        g.next_node_num = int(doc.get("next_node_num", last_node + 1))
        g.next_edge_num = int(doc.get("next_edge_num", last_edge + 1))
        if g.next_node_num <= last_node:
            raise DuplicateIdError(
                f"next_node_num {g.next_node_num} would reissue n{last_node}"
            )
        if g.next_edge_num <= last_edge:
            raise DuplicateIdError(
                f"next_edge_num {g.next_edge_num} would reissue e{last_edge}"
            )
        return g

    @classmethod
    def from_document(cls, text: str) -> "KnowledgeGraph":
        return cls.from_dict(json.loads(text))

    def to_prompt_payload(self) -> dict:
        """The compact node/edge view shown to chat providers."""
        return {
            "nodes": [
                {"id": n.node_id, "knowledge": n.name, "is_core_entity": n.is_core_entity}
                for n in self.nodes.values()
            ],
            "edges": [
                {"id": e.edge_id, "representation": self.representation(e.edge_id)}
                for e in self.edges.values()
            ],
        }


@dataclass
class CommunityPartition:
    """Community labels for every node; labels are contiguous from 0."""

    assignment: dict[str, int]
    seed: int

    def community_of(self, node_id: str) -> int:
        try:
            return self.assignment[node_id]
        except KeyError:
            raise UnknownNodeError(f"node {node_id!r} not in partition") from None

    def communities(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for nid in sorted(self.assignment, key=node_num):
            out.setdefault(self.assignment[nid], []).append(nid)
        return dict(sorted(out.items()))

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


# -- operations --------------------------------------------------------


def apply_extraction(
    kg: KnowledgeGraph, result: ExtractionResult, en_ids: dict[str, int]
) -> KnowledgeGraph:
    """Fold one extraction batch into the graph; returns a new graph.

    Applying the same batch twice yields the same graph: restated nodes and
    edges are no-ops, re-observed triples union evidence into the surviving
    edge, and evidences_map entries follow the surviving edge id.
    """
    KG_OPS.bump("apply_extraction")
    g = kg.copy()

    for nd in result.new_nodes:
        node_num(nd.node_id)
        existing = g.nodes.get(nd.node_id)
        if existing is not None:
            if existing.name != nd.name or existing.is_core_entity != nd.is_core_entity:
                raise DuplicateIdError(
                    f"node id {nd.node_id} already exists with different content"
                )
            continue
        expected = f"n{g.next_node_num}"
        if nd.node_id != expected:
            raise DuplicateIdError(
                f"node id {nd.node_id} out of sequence (expected {expected})"
            )
        g.nodes[nd.node_id] = KnowledgeNode(
            node_id=nd.node_id, name=nd.name, is_core_entity=nd.is_core_entity
        )
        g.next_node_num += 1

    alias: dict[str, str] = {}
    for ed in result.new_edges:
        edge_num(ed.edge_id)
        for endpoint in (ed.source_id, ed.target_id):
            if endpoint not in g.nodes:
                raise UnknownNodeError(
                    f"edge {ed.edge_id} references unknown node {endpoint!r}"
                )
        triple = (ed.source_id, ed.target_id, ed.relation)
        existing = g.edges.get(ed.edge_id)
        if existing is not None:
            if existing.triple != triple:
                raise DuplicateIdError(
                    f"edge id {ed.edge_id} already exists with different content"
                )
            alias[ed.edge_id] = ed.edge_id
            continue
        surviving = g._triples.get(triple)
        if surviving is not None:
            # Re-observed relation: the freshly generated id is consumed (never
            # reused) but the original edge keeps the evidence.
            alias[ed.edge_id] = surviving
            if edge_num(ed.edge_id) >= g.next_edge_num:
                if ed.edge_id != f"e{g.next_edge_num}":
                    raise DuplicateIdError(
                        f"edge id {ed.edge_id} out of sequence (expected e{g.next_edge_num})"
                    )
                g.next_edge_num += 1
            continue
        expected = f"e{g.next_edge_num}"
        if ed.edge_id != expected:
            raise DuplicateIdError(
                f"edge id {ed.edge_id} out of sequence (expected {expected})"
            )
        g.edges[ed.edge_id] = KnowledgeEdge(
            edge_id=ed.edge_id,
            source_id=ed.source_id,
            target_id=ed.target_id,
            relation=ed.relation,
        )
        g._triples[triple] = ed.edge_id
        g._link(ed.source_id, ed.target_id)
        g.next_edge_num += 1
        alias[ed.edge_id] = ed.edge_id

    for label, edge_ids in result.evidences_map.items():
        if label not in en_ids:
            raise UnknownEvidenceLabelError(f"unknown evidence label {label!r}")
        ev_id = en_ids[label]
        for eid in edge_ids:
            target = alias.get(eid, eid)
            if target not in g.edges:
                raise DanglingReferenceError(
                    f"evidences_map references absent edge {eid!r}"
                )
            g.edges[target].evidence_ids.add(ev_id)

    return g


def merge_nodes(kg: KnowledgeGraph, clusters: list[MergeCluster]) -> KnowledgeGraph:
    """Collapse concept clusters into canonical nodes; returns a new graph.

    Any validation failure rejects the whole batch and leaves the input graph
    untouched. Core entities can never be merged. Redirected parallel edges
    union their evidence onto the smallest edge id; redirection that produces a
    self-loop drops the edge, and the dropped evidence ids are logged as the
    only permitted evidence loss.
    """
    KG_OPS.bump("merge_nodes")
    seen: set[str] = set()
    for cluster in clusters:
        if not (2 <= len(cluster.source_node_ids) <= 5):
            raise ClusterError(
                f"cluster size {len(cluster.source_node_ids)} outside 2..5"
            )
        if not cluster.representative_concept.strip():
            raise ClusterError("cluster has empty representative concept")
        if len(set(cluster.source_node_ids)) != len(cluster.source_node_ids):
            raise ClusterError("cluster repeats a source node")
        for nid in cluster.source_node_ids:
            if nid not in kg.nodes:
                raise UnknownNodeError(f"cluster references unknown node {nid!r}")
            if kg.nodes[nid].is_core_entity:
                raise ProtectedNodeError(f"refusing to merge core entity {nid}")
            if nid in seen:
                raise ClusterError(f"node {nid} appears in more than one cluster")
            seen.add(nid)

    g = kg.copy()
    canonical: dict[str, str] = {}
    for cluster in clusters:
        keep = min(cluster.source_node_ids, key=node_num)
        for nid in cluster.source_node_ids:
            canonical[nid] = keep
        node = g.nodes[keep]
        node.name = cluster.representative_concept
        node.embedding = None
        node.cluster_id = None
        node.community_id = None
        for nid in cluster.source_node_ids:
            if nid != keep:
                del g.nodes[nid]

    new_edges: dict[str, KnowledgeEdge] = {}
    new_triples: dict[tuple[str, str, str], str] = {}
    g._adjacency = {}
    for eid in sorted(g.edges, key=edge_num):
        e = g.edges[eid]
        src = canonical.get(e.source_id, e.source_id)
        tgt = canonical.get(e.target_id, e.target_id)
        if src == tgt:
            log.warning(
                "merge dropped self-loop edge %s (%s); evidence ids %s",
                e.edge_id,
                e.relation,
                sorted(e.evidence_ids),
            )
            continue
        triple = (src, tgt, e.relation)
        surviving = new_triples.get(triple)
        if surviving is not None:
            new_edges[surviving].evidence_ids |= e.evidence_ids
            continue
        e.source_id = src
        e.target_id = tgt
        new_edges[eid] = e
        new_triples[triple] = eid
        g._link(src, tgt)
    g.edges = new_edges
    g._triples = new_triples
    return g


# Rows of the Gram matrix formed at once, so memory stays linear in nodes.
_GRAM_ROWS = 512


def gram_margin(a: np.ndarray, b: np.ndarray) -> float:
    """A bound on how far an entry of ``a @ b.T`` may sit from ``np.dot`` of
    its two rows, for all entries.

    Both are float sums of the same n products in some order, so each lies
    within gamma_n * |a_i| * |b_j| of the exact value, gamma_n ~ n * eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and the two
    differ by about n * eps * |a_i| * |b_j|. The bound doubles that at the
    largest row norms: a cut placed at a computed entry is off by one such
    distance and the entries it compares by another.
    """
    dtype = np.result_type(a, b)
    eps = np.finfo(dtype if dtype.kind == "f" else float).eps
    norm_a = float(np.max(np.linalg.norm(a, axis=1), initial=0.0))
    norm_b = float(np.max(np.linalg.norm(b, axis=1), initial=0.0))
    return 4.0 * a.shape[1] * eps * norm_a * norm_b


def cluster_semantic(kg: KnowledgeGraph, threshold: float = 0.85) -> dict[str, int]:
    """Group nodes whose name embeddings are transitively cosine-close.

    Connected components of the graph over node pairs with cosine >= threshold;
    labels contiguous from 0 in numeric node order. Every node must already
    carry an embedding. The decision for each pair is the per-pair
    ``np.dot``; a Gram-matrix product only picks the pairs worth deciding.
    """
    KG_OPS.bump("cluster_semantic")
    ids = kg.node_ids()
    for nid in ids:
        if kg.nodes[nid].embedding is None:
            raise EmbeddingMissingError(f"node {nid} has no embedding")
    parent = {nid: nid for nid in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vectors = [kg.nodes[nid].embedding for nid in ids]
    if ids:
        stack = np.array(vectors)
        floor = threshold - gram_margin(stack, stack)
        for start in range(0, len(ids), _GRAM_ROWS):
            close = stack[start : start + _GRAM_ROWS] @ stack.T >= floor
            # Row r is node start + r; keep only its pairs with later nodes.
            for r, j in zip(*np.nonzero(np.triu(close, start + 1))):
                i = start + int(r)
                if float(np.dot(vectors[i], vectors[j])) >= threshold:
                    ra, rb = find(ids[i]), find(ids[j])
                    if ra != rb:
                        parent[max(ra, rb, key=node_num)] = min(ra, rb, key=node_num)

    labels: dict[str, int] = {}
    out: dict[str, int] = {}
    for nid in ids:
        root = find(nid)
        if root not in labels:
            labels[root] = len(labels)
        out[nid] = labels[root]
    return out


def detect_communities(
    kg: KnowledgeGraph, seed: int, resolution: float = 1.0
) -> CommunityPartition:
    """Community structure of the undirected simple projection, unit weights."""
    KG_OPS.bump("detect_communities")
    ids = kg.node_ids()
    assignment = leiden_partition(ids, kg.undirected_pairs(), seed=seed, resolution=resolution)
    return CommunityPartition(assignment=assignment, seed=seed)


def bridging_score(kg: KnowledgeGraph, partition: CommunityPartition, v: str) -> float:
    """Fraction of a node's distinct neighbors living in other communities."""
    nbrs = kg.neighbors(v)
    cv = partition.community_of(v)
    cross = sum(1 for u in nbrs if partition.community_of(u) != cv)
    return cross / max(len(nbrs), 1)


def degree_in_community(
    kg: KnowledgeGraph, partition: CommunityPartition, v: str
) -> int:
    """Distinct neighbors of v inside v's own community."""
    nbrs = kg.neighbors(v)
    cv = partition.community_of(v)
    return sum(1 for u in nbrs if partition.community_of(u) == cv)


def node_importance(kg: KnowledgeGraph, u: str, v: str) -> float:
    """1.0 when both endpoints are core entities, 0.5 for exactly one, else 0."""
    a = kg.nodes[u].is_core_entity
    b = kg.nodes[v].is_core_entity
    if a and b:
        return 1.0
    if a or b:
        return 0.5
    return 0.0
