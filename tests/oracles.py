"""Brute-force reference implementations used to cross-check the package.

Everything here works on plain dicts and tuples, shares no code with the
package under test, and favors obviousness over speed. The chain pipeline
reference applies each selection rule literally and in isolation. The one
exception is ``ref_apply_extraction``: it folds a batch into a copy of the
graph through the graph's own ``add_node`` and ``add_edge``, one entry at a
time, which is what the package did before it checked whole batches first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from dualgraph.kg import (
    CommunityPartition,
    DanglingReferenceError,
    DuplicateIdError,
    ExtractionResult,
    KnowledgeGraph,
    KnowledgeGraphError,
    UnknownEvidenceLabelError,
    UnknownNodeError,
)

RELATIONS = ("supports", "contradicts", "depends on", "measures", "links")


@dataclass
class CaseGraph:
    """Plain-data mirror of a knowledge graph plus its community labels."""

    nodes: list[str] = field(default_factory=list)  # numeric id order
    core: set[str] = field(default_factory=set)
    # eid -> (source, target, relation, evidence ids)
    edges: dict[str, tuple[str, str, str, frozenset]] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)
    vectors: dict[str, np.ndarray] = field(default_factory=dict)


def _num(ident: str) -> int:
    return int(ident[1:])


def undirected_pairs(case: CaseGraph) -> set[tuple[str, str]]:
    pairs = set()
    for src, tgt, _rel, _ev in case.edges.values():
        if src != tgt:
            pairs.add(tuple(sorted((src, tgt), key=_num)))
    return pairs


def neighbors(case: CaseGraph, v: str) -> set[str]:
    out = set()
    for a, b in undirected_pairs(case):
        if a == v:
            out.add(b)
        elif b == v:
            out.add(a)
    return out


def ref_deg_in(case: CaseGraph, v: str) -> int:
    return sum(1 for u in neighbors(case, v) if case.labels[u] == case.labels[v])


def ref_bridging(case: CaseGraph, v: str) -> float:
    nbrs = neighbors(case, v)
    if not nbrs:
        return 0.0
    cross = sum(1 for u in nbrs if case.labels[u] != case.labels[v])
    return cross / len(nbrs)


def ref_importance(case: CaseGraph, u: str, v: str) -> float:
    return {0: 0.0, 1: 0.5, 2: 1.0}[(u in case.core) + (v in case.core)]


def ref_enrichment(case: CaseGraph, eid: str) -> float:
    src, tgt, _rel, evidence = case.edges[eid]
    cross = 0.5 * (ref_bridging(case, src) + ref_bridging(case, tgt))
    return (1.0 + ref_importance(case, src, tgt) + cross) / (1.0 + len(evidence))


def ref_sbm(case: CaseGraph, alpha: float) -> dict[tuple[int, int], float]:
    """Smoothed block probabilities keyed by community label pair."""
    members: dict[int, list[str]] = {}
    for nid in case.nodes:
        members.setdefault(case.labels[nid], []).append(nid)
    counts: dict[tuple[int, int], int] = {}
    for a, b in undirected_pairs(case):
        ca, cb = case.labels[a], case.labels[b]
        counts[(ca, cb)] = counts.get((ca, cb), 0) + 1
        if ca != cb:
            counts[(cb, ca)] = counts.get((cb, ca), 0) + 1
    out: dict[tuple[int, int], float] = {}
    for ci, mi in members.items():
        for cj, mj in members.items():
            if ci == cj:
                possible = len(mi) * (len(mi) - 1) / 2.0
            else:
                possible = float(len(mi) * len(mj))
            out[(ci, cj)] = (counts.get((ci, cj), 0) + alpha) / (possible + 2.0 * alpha)
    return out


def ref_entropy(p: float) -> float:
    # Same formula, different expression shape than the implementation.
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / math.log(2.0)


def ref_quotas(total: int) -> tuple[int, int, int]:
    quarter = total // 4
    return quarter, quarter, total - 4 * quarter


@dataclass
class RefChain:
    kind: str
    basis: str
    source: str
    target: str
    score: float
    edge: str | None = None


def ref_enrich_list(case: CaseGraph, threshold: int) -> list[RefChain]:
    pool = [eid for eid, e in case.edges.items() if len(e[3]) <= threshold]
    scores = {eid: ref_enrichment(case, eid) for eid in pool}
    ordered = sorted(
        pool,
        key=lambda eid: (
            0 if not case.edges[eid][3] else 1,
            -scores[eid],
            _num(eid),
        ),
    )
    return [
        RefChain(
            kind="enrich",
            basis="enrichment",
            source=case.edges[eid][0],
            target=case.edges[eid][1],
            score=scores[eid],
            edge=eid,
        )
        for eid in ordered
    ]


def ref_similarity_list(case: CaseGraph) -> list[RefChain]:
    adjacent = undirected_pairs(case)
    rows = []
    for c in case.nodes:
        if c not in case.core:
            continue
        for k in case.nodes:
            if k in case.core:
                continue
            if tuple(sorted((c, k), key=_num)) in adjacent:
                continue
            sim = float(np.dot(case.vectors[c], case.vectors[k]))
            rows.append((sim, _num(c), _num(k), c, k))
    rows.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [
        RefChain(kind="explore", basis="similarity", source=c, target=k, score=sim)
        for sim, _, _, c, k in rows
    ]


def ref_hole_list(case: CaseGraph) -> list[RefChain]:
    adjacent = undirected_pairs(case)
    bscore = {v: ref_bridging(case, v) for v in case.nodes}
    din = {v: ref_deg_in(case, v) for v in case.nodes}
    members: dict[int, list[str]] = {}
    for nid in case.nodes:
        members.setdefault(case.labels[nid], []).append(nid)

    bridges: dict[int, list[str]] = {}
    hubs: dict[int, list[str]] = {}
    rep: dict[int, str] = {}
    for c in sorted(members):
        crossing = sorted(
            (v for v in members[c] if bscore[v] > 0.0),
            key=lambda v: (-bscore[v], _num(v)),
        )
        bridges[c] = crossing[:3]
        rest = sorted(
            (v for v in members[c] if v not in bridges[c]),
            key=lambda v: (-din[v], _num(v)),
        )
        hubs[c] = rest[:2]
        rep[c] = sorted(members[c], key=lambda v: (-din[v], _num(v)))[0]

    seen: set[tuple[str, str]] = set()
    rows = []
    for c1 in sorted(members):
        for c2 in sorted(members):
            if c1 == c2:
                continue
            for a in bridges[c1] + hubs[c1]:
                b = rep[c2]
                pair = tuple(sorted((a, b), key=_num))
                if a == b or pair in adjacent or pair in seen:
                    continue
                seen.add(pair)
                rows.append((bscore[a], _num(a), _num(b), a, b))
    rows.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [
        RefChain(kind="explore", basis="structural_hole", source=a, target=b, score=s)
        for s, _, _, a, b in rows
    ]


def ref_block_list(
    case: CaseGraph, alpha: float, quota: int, excluded: set[tuple[str, str]]
) -> list[RefChain]:
    adjacent = undirected_pairs(case)
    block = ref_sbm(case, alpha)
    pool = []
    for i, a in enumerate(case.nodes):
        for b in case.nodes[i + 1 :]:
            if case.labels[a] == case.labels[b]:
                continue
            pair = tuple(sorted((a, b), key=_num))
            if pair in adjacent or pair in excluded:
                continue
            pool.append((pair[0], pair[1], block[(case.labels[a], case.labels[b])]))

    by_prob = sorted(pool, key=lambda t: (-t[2], _num(t[0]), _num(t[1])))
    prob_quota = quota - quota // 2
    picked = by_prob[:prob_quota]
    taken = {(a, b) for a, b, _ in picked}
    by_entropy = sorted(
        (t for t in pool if (t[0], t[1]) not in taken),
        key=lambda t: (-ref_entropy(t[2]), _num(t[0]), _num(t[1])),
    )
    ent_picked = by_entropy[: quota // 2]
    taken |= {(a, b) for a, b, _ in ent_picked}
    extension = [t for t in by_prob if (t[0], t[1]) not in taken]

    rows = [
        RefChain(kind="explore", basis="block_probability", source=a, target=b, score=p)
        for a, b, p in picked
    ]
    rows += [
        RefChain(
            kind="explore",
            basis="block_entropy",
            source=a,
            target=b,
            score=ref_entropy(p),
        )
        for a, b, p in ent_picked
    ]
    rows += [
        RefChain(kind="explore", basis="block_probability", source=a, target=b, score=p)
        for a, b, p in extension
    ]
    return rows


def ref_chain_pipeline(
    case: CaseGraph, total: int, threshold: int, alpha: float
) -> list[RefChain]:
    """Full candidate assembly: four ranked families, quartered budget,
    leftover filled family by family in fixed order."""
    quarter, per_type, _ = ref_quotas(total)
    enrich = ref_enrich_list(case, threshold)
    similarity = ref_similarity_list(case)
    holes = ref_hole_list(case)
    excluded = {
        tuple(sorted((r.source, r.target), key=_num)) for r in similarity + holes
    }
    blocks = ref_block_list(case, alpha, per_type, excluded)

    ranked = [enrich, similarity, blocks, holes]
    quotas = [quarter, per_type, per_type, per_type]
    counts = [min(q, len(lst)) for q, lst in zip(quotas, ranked)]
    leftover = total - sum(counts)
    for i, lst in enumerate(ranked):
        if leftover <= 0:
            break
        extra = min(leftover, len(lst) - counts[i])
        counts[i] += extra
        leftover -= extra
    final: list[RefChain] = []
    for lst, count in zip(ranked, counts):
        final.extend(lst[:count])
    return final


def ref_semantic_clusters(
    ids: list[str], vectors: dict[str, np.ndarray], threshold: float
) -> dict[str, int]:
    """O(n^2) union-find over cosine-close pairs, labels in numeric id order."""
    parent = {nid: nid for nid in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for a in ids:
        for b in ids:
            if a == b:
                continue
            if float(np.dot(vectors[a], vectors[b])) >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb, key=_num)] = min(ra, rb, key=_num)

    labels: dict[str, int] = {}
    out: dict[str, int] = {}
    for nid in sorted(ids, key=_num):
        root = find(nid)
        if root not in labels:
            labels[root] = len(labels)
        out[nid] = labels[root]
    return out


def assert_chain_lists_equal(actual, expected: list[RefChain]) -> None:
    """Field-by-field comparison of package chains against reference rows."""
    assert len(actual) == len(expected), (
        f"{len(actual)} chains, reference built {len(expected)}"
    )
    for i, (got, want) in enumerate(zip(actual, expected)):
        label = f"chain {i + 1}"
        assert got.chain_id == f"chain_{i + 1}", label
        assert got.kind == want.kind, label
        assert got.basis == want.basis, label
        assert got.source_id == want.source, label
        assert got.target_id == want.target, label
        assert got.edge_id == want.edge, label
        assert math.isclose(got.score, want.score, rel_tol=1e-9, abs_tol=1e-12), (
            f"{label}: score {got.score} vs reference {want.score}"
        )


# -- extraction batches ------------------------------------------------


def _check_id(ident: str, prefix: str) -> None:
    digits = ident[1:]
    if ident[:1] != prefix or not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        raise KnowledgeGraphError(f"malformed id: {ident!r}")


def ref_apply_extraction(
    kg: KnowledgeGraph, result: ExtractionResult, en_ids: dict[str, int]
) -> KnowledgeGraph:
    """Copy-then-insert reference: the batch goes into a copy entry by entry,
    so a rejected batch can only ever have changed the copy."""
    g = kg.copy()
    node_handles: dict[str, str] = {}
    for nd in result.new_nodes:
        _check_id(nd.node_id, "n")
        nid = nd.node_id if nd.node_id in kg.nodes else node_handles.get(nd.node_id)
        if nid is not None:
            existing = g.nodes[nid]
            if (existing.name, existing.is_core_entity) != (nd.name, nd.is_core_entity):
                raise DuplicateIdError(f"node id {nd.node_id} restated with other content")
            continue
        node_handles[nd.node_id] = g.add_node(nd.name, nd.is_core_entity)

    def node(ref: str) -> str:
        nid = node_handles.get(ref, ref if ref in kg.nodes else None)
        if nid is None:
            raise UnknownNodeError(f"unknown node {ref!r}")
        return nid

    edge_handles: dict[str, str] = {}
    for ed in result.new_edges:
        _check_id(ed.edge_id, "e")
        triple = (node(ed.source_id), node(ed.target_id), ed.relation)
        eid = ed.edge_id if ed.edge_id in kg.edges else edge_handles.get(ed.edge_id)
        if eid is not None:
            if g.edges[eid].triple != triple:
                raise DuplicateIdError(f"edge id {ed.edge_id} restated with other content")
            continue
        edge_handles[ed.edge_id] = g.add_edge(*triple)

    for label, refs in result.evidences_map.items():
        if label not in en_ids:
            raise UnknownEvidenceLabelError(f"unknown evidence label {label!r}")
        for ref in refs:
            eid = edge_handles.get(ref, ref if ref in kg.edges else None)
            if eid is None:
                raise DanglingReferenceError(f"absent edge {ref!r}")
            g.edges[eid].evidence_ids.add(en_ids[label])
    return g


# -- randomized case construction --------------------------------------


def make_case(
    rng: random.Random,
    max_nodes: int = 12,
    max_communities: int = 4,
    edge_factor: float = 1.6,
    dim: int = 8,
) -> tuple[KnowledgeGraph, CommunityPartition, CaseGraph]:
    """One random small graph in both representations.

    Node and edge ids are dense from 1 so reference ordering rules and the
    package's id-based tie breaks agree on raw integers.
    """
    n = rng.randint(1, max_nodes)
    vec_rng = np.random.default_rng(rng.getrandbits(32))
    kg = KnowledgeGraph()
    case = CaseGraph()
    for _ in range(n):
        is_core = rng.random() < 0.4
        name = f"item{len(case.nodes) + 1}"
        nid = kg.add_node(name, is_core)
        case.nodes.append(nid)
        if is_core:
            case.core.add(nid)
        vec = vec_rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        kg.nodes[nid].embedding = vec
        case.vectors[nid] = vec

    raw = [rng.randrange(max_communities) for _ in range(n)]
    compact: dict[int, int] = {}
    for value in raw:
        if value not in compact:
            compact[value] = len(compact)
    for nid, value in zip(case.nodes, raw):
        case.labels[nid] = compact[value]
        kg.nodes[nid].community_id = compact[value]

    target_edges = rng.randint(0, max(1, int(edge_factor * n)))
    tried = 0
    while kg.n_edges < target_edges and tried < 10 * target_edges + 10:
        tried += 1
        if n < 2:
            break
        src, tgt = rng.sample(case.nodes, 2)
        relation = rng.choice(RELATIONS)
        if kg.edge_for_triple(src, tgt, relation) is not None:
            continue
        k = rng.choice((0, 0, 0, 1, 1, 2, 3))
        evidence = frozenset(rng.sample(range(1, 10), k))
        eid = kg.add_edge(src, tgt, relation, set(evidence))
        case.edges[eid] = (src, tgt, relation, evidence)

    partition = CommunityPartition(assignment=dict(case.labels), seed=0)
    return kg, partition, case
