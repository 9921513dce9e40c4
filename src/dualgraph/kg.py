"""Evidence-grounded knowledge graph.

Nodes are entities or concepts (``n{k}`` ids); directed edges (``e{k}`` ids)
carry a relation name and the set of evidence ids that ground them. Edge
identity is the exact (source, target, relation) triple: re-observing a triple
unions evidence instead of duplicating the edge. The graph issues every id,
sequentially, and never reuses one, including ids retired by node merges. In
an extraction batch, an id the graph does not hold is only a handle local to
the batch; ``apply_extraction`` gives it the next free id. A handle need only
pass ``ids.is_id``, the one check of every id's form; ``node_num`` and
``edge_num`` read an id's number where it is used.

``nodes`` and ``edges`` list ids in ascending numeric order: the graph appends
each id it issues and never reorders either dict, and ``from_dict`` rejects a
document in any other order. So dict order is the graph's order.

Every graph keeps an adjacency index next to its edges: for each node, the
nodes it shares a non-loop edge with, in either direction. ``_insert`` is the
one path that files an edge, under its id and its triple and in that index,
so ``neighbors`` is a lookup. ``adjacency`` hands out the index itself, for
callers that read many nodes' neighbours and copy none of them.

A graph is written two ways. ``to_document`` writes the checkpoint's JSON
directly, string by string, in exactly the bytes ``json.dumps`` gives
``to_dict``. ``to_prompt_json`` is the compact view prompts show, encoded once
per graph state: ``add_node``, ``_insert``, ``apply_extraction`` and
``merge_nodes`` drop the memo, and they are the only paths that add or rename
a node or add an edge, so ids, names and edges must change through them
alone. Evidence ids, embeddings and cluster and community ids, which the view
leaves out, may be set anywhere.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator, Mapping, Set
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from .checks import loads, require_bool, require_int, require_str
from .community import leiden_partition
from .ids import id_number, is_id

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
    "CommunityDegrees",
    "apply_extraction",
    "merge_nodes",
    "cluster_semantic",
    "detect_communities",
    "community_degrees",
    "bridging_score",
    "degree_in_community",
    "node_importance",
    "gram_blocks",
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


def node_num(node_id: str) -> int:
    num = id_number(node_id, "n")
    if num is None:
        raise KnowledgeGraphError(f"malformed node id: {node_id!r}")
    return num


def edge_num(edge_id: str) -> int:
    num = id_number(edge_id, "e")
    if num is None:
        raise KnowledgeGraphError(f"malformed edge id: {edge_id!r}")
    return num


def _check_evidence_ids(ids, edge) -> None:
    """Evidence ids are bank ids: integers >= 1, and a bool is not one.

    ``edge`` names the edge in the error, by id or by triple.
    """
    bad = [i for i in ids if type(i) is not int or i < 1]
    if bad:
        raise KnowledgeGraphError(
            f"edge {edge} cites evidence ids that are not integers >= 1: {bad}"
        )


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
    provider; values list the edges each statement supports. Ids the graph
    does not hold are handles local to the batch (see ``apply_extraction``).
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
        # node -> nodes it shares a non-loop edge with; isolated nodes are absent.
        self._adjacency: dict[str, set[str]] = {}
        self.next_node_num: int = 1
        self.next_edge_num: int = 1
        # to_prompt_json's text while ids, names and edges stay as they are.
        self._prompt_json: str | None = None

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_ids(self) -> list[str]:
        """Node ids in ascending numeric order, which is dict order."""
        return list(self.nodes)

    def edge_ids(self) -> list[str]:
        return list(self.edges)

    def edge_for_triple(self, source: str, target: str, relation: str) -> str | None:
        return self._triples.get((source, target, relation))

    def neighbors(self, v: str) -> set[str]:
        """Distinct adjacent nodes, ignoring direction and multiplicity."""
        if v not in self.nodes:
            raise UnknownNodeError(f"unknown node {v!r}")
        return set(self._adjacency.get(v, ()))

    @property
    def adjacency(self) -> Mapping[str, Set[str]]:
        """The adjacency index, not a copy: node -> distinct neighbours.

        Isolated nodes are absent. Callers read it and never change it.
        """
        return self._adjacency

    def undirected_pairs(self) -> set[tuple[str, str]]:
        """Adjacent node pairs on the simple projection, numerically ordered."""
        rank = {nid: i for i, nid in enumerate(self.nodes)}
        pairs: set[tuple[str, str]] = set()
        for e in self.edges.values():
            a, b = e.source_id, e.target_id
            if a != b:
                pairs.add((a, b) if rank[a] < rank[b] else (b, a))
        return pairs

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
        g._adjacency = {v: set(nbrs) for v, nbrs in self._adjacency.items()}
        g.next_node_num = self.next_node_num
        g.next_edge_num = self.next_edge_num
        g._prompt_json = self._prompt_json
        return g

    # -- construction helpers (used by tests) --

    def add_node(self, name: str, is_core_entity: bool) -> str:
        nid = f"n{self.next_node_num}"
        self.next_node_num += 1
        self.nodes[nid] = KnowledgeNode(node_id=nid, name=name, is_core_entity=is_core_entity)
        self._prompt_json = None
        return nid

    def add_edge(
        self, source: str, target: str, relation: str, evidence_ids: set[int] | None = None
    ) -> str:
        if source not in self.nodes:
            raise UnknownNodeError(f"unknown source {source!r}")
        if target not in self.nodes:
            raise UnknownNodeError(f"unknown target {target!r}")
        _check_evidence_ids(evidence_ids or (), (source, target, relation))
        existing = self._triples.get((source, target, relation))
        if existing is not None:
            self.edges[existing].evidence_ids |= evidence_ids or set()
            return existing
        eid = f"e{self.next_edge_num}"
        self.next_edge_num += 1
        self._insert(KnowledgeEdge(eid, source, target, relation, set(evidence_ids or ())))
        return eid

    def _insert(self, edge: KnowledgeEdge) -> None:
        """File a new edge by id and triple, and in the adjacency index."""
        self.edges[edge.edge_id] = edge
        self._triples[edge.triple] = edge.edge_id
        self._prompt_json = None
        a, b = edge.source_id, edge.target_id
        if a != b:
            self._adjacency.setdefault(a, set()).add(b)
            self._adjacency.setdefault(b, set()).add(a)

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
                    "evidence_ids": sorted(e.evidence_ids),
                }
                for e in self.edges.values()
            ],
            "next_node_num": self.next_node_num,
            "next_edge_num": self.next_edge_num,
        }

    def to_document(self) -> str:
        """``json.dumps(self.to_dict(), ensure_ascii=False)`` and a newline, written
        directly: each string through the encoder ``json`` itself uses, each
        other value spelled as ``json`` spells it."""
        s = encode_basestring
        nodes = ", ".join([
            f'{{"node_id": {s(n.node_id)}, "knowledge": {s(n.name)}, '
            f'"is_core_entity": {_literal(n.is_core_entity)}, '
            f'"cluster_id": {_literal(n.cluster_id)}, "community_id": {_literal(n.community_id)}}}'
            for n in self.nodes.values()
        ])
        edges = ", ".join([
            f'{{"edge_id": {s(e.edge_id)}, "source_id": {s(e.source_id)}, '
            f'"target_id": {s(e.target_id)}, "relation_name": {s(e.relation)}, '
            f'"evidence_ids": [{", ".join(map(_literal, sorted(e.evidence_ids)))}]}}'
            for e in self.edges.values()
        ])
        return (
            f'{{"knowledge_nodes": [{nodes}], "knowledge_edges": [{edges}], '
            f'"next_node_num": {_literal(self.next_node_num)}, '
            f'"next_edge_num": {_literal(self.next_edge_num)}}}\n'
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "KnowledgeGraph":
        """Rebuild a graph from ``to_dict`` output; its ids must ascend and its
        fields have the types ``to_dict`` writes."""
        def optional_int(value, what: str) -> int | None:
            return None if value is None else require_int(value, what)

        g = cls()
        last_node = last_edge = 0
        for nd in doc["knowledge_nodes"]:
            nid = nd["node_id"]
            num = node_num(nid)
            if num <= last_node:
                raise DuplicateIdError(f"node id {nid} does not follow n{last_node}")
            last_node = num
            g.nodes[nid] = KnowledgeNode(
                node_id=nid,
                name=require_str(nd["knowledge"], f"{nid}.knowledge", allow_empty=True),
                is_core_entity=require_bool(nd["is_core_entity"], f"{nid}.is_core_entity"),
                cluster_id=optional_int(nd.get("cluster_id"), f"{nid}.cluster_id"),
                community_id=optional_int(nd.get("community_id"), f"{nid}.community_id"),
            )
        for ed in doc["knowledge_edges"]:
            _check_evidence_ids(ed["evidence_ids"], ed["edge_id"])
            edge = KnowledgeEdge(
                edge_id=ed["edge_id"],
                source_id=ed["source_id"],
                target_id=ed["target_id"],
                relation=require_str(
                    ed["relation_name"], f"{ed['edge_id']}.relation_name", allow_empty=True
                ),
                evidence_ids=set(ed["evidence_ids"]),
            )
            num = edge_num(edge.edge_id)
            if num <= last_edge:
                raise DuplicateIdError(f"edge id {edge.edge_id} does not follow e{last_edge}")
            last_edge = num
            for endpoint in (edge.source_id, edge.target_id):
                if endpoint not in g.nodes:
                    raise UnknownNodeError(f"edge {edge.edge_id} references {endpoint!r}")
            if edge.triple in g._triples:
                raise DuplicateIdError(
                    f"edges {g._triples[edge.triple]} and {edge.edge_id} repeat {edge.triple}"
                )
            g._insert(edge)
        # Counters past the largest id are legal (merges retire ids); counters
        # at or below it would reissue an id that is still in use.
        g.next_node_num = require_int(doc.get("next_node_num", last_node + 1), "next_node_num")
        g.next_edge_num = require_int(doc.get("next_edge_num", last_edge + 1), "next_edge_num")
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
        return cls.from_dict(loads(text))

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

    def to_prompt_json(self) -> str:
        """``to_prompt_payload`` as every prompt that shows the graph carries it,
        encoded once per graph state (see the module docstring)."""
        if self._prompt_json is None:
            self._prompt_json = json.dumps(self.to_prompt_payload(), ensure_ascii=False)
        return self._prompt_json


def _literal(value) -> str:
    """None, a bool or an int as ``json.dumps`` spells it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


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

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


# -- operations --------------------------------------------------------


def apply_extraction(
    kg: KnowledgeGraph, result: ExtractionResult, en_ids: dict[str, int]
) -> KnowledgeGraph:
    """Fold one extraction batch into the graph in place; returns the graph.

    The graph issues every id. A batch id that the graph holds names that
    node or edge. Any other id is a handle local to the batch: each new handle
    gets the next ``n{k}`` or ``e{k}`` in batch order, except that an edge
    handle whose triple the graph already holds names the surviving edge and
    uses up no id. Restating a graph id or a handle with other content raises
    DuplicateIdError. Edge endpoints and evidences_map entries resolve through
    the batch's handles first, then through the ids the graph held before the
    batch; never through ids issued earlier in the same batch.

    The whole batch is checked before anything is inserted, so a rejected
    batch leaves the graph exactly as it was and the caller may re-ask.
    Fresh ids that run on from the graph's counters keep their numbers, and
    applying such a batch twice changes nothing the second time.
    """
    new_nodes: dict[str, KnowledgeNode] = {}
    node_handles: dict[str, str] = {}
    for nd in result.new_nodes:
        if not is_id(nd.node_id, "n"):
            raise KnowledgeGraphError(f"malformed node id: {nd.node_id!r}")
        nid = nd.node_id if nd.node_id in kg.nodes else node_handles.get(nd.node_id)
        if nid is not None:
            existing = kg.nodes.get(nid) or new_nodes[nid]
            if existing.name != nd.name or existing.is_core_entity != nd.is_core_entity:
                raise DuplicateIdError(
                    f"node id {nd.node_id} already exists with different content"
                )
            continue
        nid = f"n{kg.next_node_num + len(new_nodes)}"
        new_nodes[nid] = KnowledgeNode(nid, nd.name, nd.is_core_entity)
        node_handles[nd.node_id] = nid

    def node(ref: str, edge_id: str) -> str:
        nid = node_handles.get(ref, ref if ref in kg.nodes else None)
        if nid is None:
            raise UnknownNodeError(f"edge {edge_id} references unknown node {ref!r}")
        return nid

    new_edges: dict[str, KnowledgeEdge] = {}
    new_triples: dict[tuple[str, str, str], str] = {}
    edge_handles: dict[str, str] = {}
    for ed in result.new_edges:
        if not is_id(ed.edge_id, "e"):
            raise KnowledgeGraphError(f"malformed edge id: {ed.edge_id!r}")
        triple = (node(ed.source_id, ed.edge_id), node(ed.target_id, ed.edge_id), ed.relation)
        eid = ed.edge_id if ed.edge_id in kg.edges else edge_handles.get(ed.edge_id)
        if eid is not None:
            if (kg.edges.get(eid) or new_edges[eid]).triple != triple:
                raise DuplicateIdError(
                    f"edge id {ed.edge_id} already exists with different content"
                )
            continue
        eid = kg.edge_for_triple(*triple) or new_triples.get(triple)
        if eid is None:
            eid = f"e{kg.next_edge_num + len(new_edges)}"
            new_edges[eid] = KnowledgeEdge(eid, *triple)
            new_triples[triple] = eid
        edge_handles[ed.edge_id] = eid

    evidence: list[tuple[str, int]] = []
    for label, edge_ids in result.evidences_map.items():
        if label not in en_ids:
            raise UnknownEvidenceLabelError(f"unknown evidence label {label!r}")
        for ref in edge_ids:
            eid = edge_handles.get(ref, ref if ref in kg.edges else None)
            if eid is None:
                raise DanglingReferenceError(
                    f"evidences_map references absent edge {ref!r}"
                )
            evidence.append((eid, en_ids[label]))

    kg.nodes.update(new_nodes)
    kg._prompt_json = None
    kg.next_node_num += len(new_nodes)
    for edge in new_edges.values():
        kg._insert(edge)
    kg.next_edge_num += len(new_edges)
    for eid, ev_id in evidence:
        kg.edges[eid].evidence_ids.add(ev_id)
    return kg


def merge_nodes(kg: KnowledgeGraph, clusters: list[MergeCluster]) -> KnowledgeGraph:
    """Collapse concept clusters into canonical nodes in place; returns the graph.

    Any validation failure rejects the whole batch and leaves the graph as it
    was. Core entities can never be merged. Redirected parallel edges union
    their evidence onto the smallest edge id; redirection that produces a
    self-loop drops the edge, and its evidence ids are logged as the only
    permitted evidence loss.
    """
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

    kg._prompt_json = None
    canonical: dict[str, str] = {}
    for cluster in clusters:
        keep = min(cluster.source_node_ids, key=node_num)
        for nid in cluster.source_node_ids:
            canonical[nid] = keep
        node = kg.nodes[keep]
        node.name = cluster.representative_concept
        node.embedding = None
        node.cluster_id = None
        node.community_id = None
        for nid in cluster.source_node_ids:
            if nid != keep:
                del kg.nodes[nid]

    edges = kg.edges
    kg.edges, kg._triples, kg._adjacency = {}, {}, {}
    for e in edges.values():
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
        surviving = kg._triples.get((src, tgt, e.relation))
        if surviving is not None:
            kg.edges[surviving].evidence_ids |= e.evidence_ids
            continue
        e.source_id = src
        e.target_id = tgt
        kg._insert(e)
    return kg


# Bytes of one Gram block. Products are formed a block of rows at a time, so
# their memory stays flat as the graph grows.
_GRAM_BYTES = 1 << 20


def gram_blocks(
    a: np.ndarray, b: np.ndarray, upper: bool = False
) -> Iterator[tuple[int, np.ndarray]]:
    """``a @ b.T`` a block of rows at a time, as (first row, block) pairs. A
    block holds at most ``_GRAM_BYTES``, or one row where a row holds more.

    ``upper``: the block from row ``start`` is ``a[start:...] @ b[start:].T``.
    Where ``b`` begins with the rows of ``a``, that forms each pair of them
    once, above the diagonal, and every pair with the rest of ``b``.
    """
    row_bytes = len(b) * np.result_type(a, b).itemsize
    rows = max(1, _GRAM_BYTES // max(row_bytes, 1))
    for start in range(0, len(a), rows):
        yield start, a[start : start + rows] @ b[start if upper else 0 :].T


def gram_margin(a: np.ndarray, b: np.ndarray, dtypes: Iterable[np.dtype] = ()) -> float:
    """A bound on how far an entry of ``a @ b.T`` may sit from ``np.dot`` of
    its two rows, for all entries. ``dtypes``: others that ``np.dot`` may sum
    in, where the rows were cast to a wider one to be stacked.

    Both are float sums of the same n products in some order, so each lies
    within gamma_n * |a_i| * |b_j| of the exact value, gamma_n ~ n * eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and the two
    differ by about n * eps * |a_i| * |b_j|. The bound doubles that at the
    largest row norms: a cut placed at a computed entry is off by one such
    distance and the entries it compares by another.
    """
    eps = max(np.finfo(d if d.kind == "f" else float).eps for d in (np.result_type(a, b), *dtypes))
    norm_a = float(np.max(np.linalg.norm(a, axis=1), initial=0.0))
    norm_b = float(np.max(np.linalg.norm(b, axis=1), initial=0.0))
    return 4.0 * a.shape[1] * eps * norm_a * norm_b


def cluster_semantic(kg: KnowledgeGraph, threshold: float = 0.85) -> dict[str, int]:
    """Group nodes whose name embeddings are transitively cosine-close.

    Connected components of the graph over node pairs with cosine >= threshold;
    labels contiguous from 0 in numeric node order. Every node must already
    carry an embedding. The decision for each pair is the per-pair
    ``np.dot``; a Gram-matrix product only picks the pairs worth deciding.

    Every call decides every pair from scratch, each pair once, and reads the
    graph without changing it.
    """
    ids = kg.node_ids()
    vectors = [n.embedding for n in kg.nodes.values()]
    for nid, vector in zip(ids, vectors):
        if vector is None:
            raise EmbeddingMissingError(f"node {nid} has no embedding")
    if not ids:
        return {}
    stack = np.array(vectors)

    found = [np.empty((0, 2), dtype=np.intp)]
    floor = threshold - gram_margin(stack, stack, {v.dtype for v in vectors})
    for start, block in gram_blocks(stack, stack, upper=True):
        np.fill_diagonal(block, -np.inf)  # each row's entry for itself
        close = block >= floor
        if not close.any():
            continue
        r, c = np.nonzero(close)
        above = c > r  # row start + r meets row start + c
        i, j = start + r[above], start + c[above]
        near = [
            float(np.dot(vectors[a], vectors[b])) >= threshold
            for a, b in zip(i.tolist(), j.tolist())
        ]
        found.append(np.stack([i, j], axis=1)[np.array(near, dtype=bool)])
    pairs = np.concatenate(found)

    # Union-find on positions in node order; a root is its set's first node.
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.arange(len(ids))
    paired = np.flatnonzero(np.bincount(pairs.ravel(), minlength=len(ids)))
    root[paired] = [find(x) for x in paired.tolist()]
    # Numbering the roots in node order numbers the sets by their first nodes.
    labels = (np.cumsum(root == np.arange(len(ids))) - 1)[root]
    return dict(zip(ids, labels.tolist()))


def detect_communities(kg: KnowledgeGraph, seed: int) -> CommunityPartition:
    """Community structure of the undirected simple projection, unit weights."""
    ids = kg.node_ids()
    assignment = leiden_partition(ids, kg.undirected_pairs(), seed=seed)
    return CommunityPartition(assignment=assignment, seed=seed)


@dataclass(frozen=True)
class CommunityDegrees:
    """Neighbour counts under one partition, for every node and community.

    ``members`` maps each community label, ascending, to its nodes in numeric
    order. ``inside`` is each node's ``degree_in_community`` and ``bridging``
    its ``bridging_score``. ``links[i, j]`` counts the adjacent node pairs
    with one end in the i-th community of ``members`` and one in the j-th;
    the diagonal counts the pairs inside one community.
    """

    members: dict[int, list[str]]
    inside: dict[str, int]
    bridging: dict[str, float]
    links: np.ndarray


def community_degrees(kg: KnowledgeGraph, partition: CommunityPartition) -> CommunityDegrees:
    """Every node's ``degree_in_community`` and ``bridging_score``, and the
    links between communities, from one sweep over the adjacency index.

    The partition must place exactly the graph's nodes; a node on one side
    only is an ``UnknownNodeError``.
    """
    label = {v: partition.community_of(v) for v in kg.nodes}
    if len(partition.assignment) != len(label):
        stray = next(v for v in partition.assignment if v not in kg.nodes)
        raise UnknownNodeError(f"node {stray!r} is placed but not in the graph")
    members: dict[int, list[str]] = {}
    for v, c in label.items():
        members.setdefault(c, []).append(v)
    members = dict(sorted(members.items()))
    index = {c: i for i, c in enumerate(members)}
    slot = {v: index[c] for v, c in label.items()}

    # One entry per (node, neighbour), grouped by node in node order.
    nbrs = [kg._adjacency.get(v, ()) for v in label]
    degree = np.array([len(n) for n in nbrs], dtype=np.int64)
    theirs = np.array([slot[u] for n in nbrs for u in n], dtype=np.int64)
    ours = np.repeat(np.array(list(slot.values()), dtype=np.int64), degree)
    owner = np.repeat(np.arange(len(label)), degree)
    inside = np.bincount(owner, weights=ours == theirs, minlength=len(label)).astype(np.int64)
    # Whole numbers as floats divide exactly as ints do in bridging_score.
    bridging = (degree - inside) / np.maximum(degree, 1)
    k = len(members)
    links = np.bincount(k * ours + theirs, minlength=k * k).reshape(k, k)
    links[np.diag_indices(k)] //= 2  # a pair inside one community is seen from both ends
    return CommunityDegrees(
        members,
        dict(zip(label, inside.tolist())),
        dict(zip(label, bridging.tolist())),
        links,
    )


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
