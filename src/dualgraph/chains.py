"""Gap discovery: turn graph topology into ranked search chains.

Four chain families share one total budget N:

* enrichment targets weakly-evidenced existing edges;
* similarity exploration pairs unconnected core entities with concepts whose
  name embeddings are close;
* block-probability exploration proposes cross-community non-edges where a
  smoothed stochastic-block-model estimate is either high (likely links) or
  maximally uncertain (informative links);
* structural-hole exploration connects each community's bridge and hub nodes
  to other communities' representative nodes.

Budget split: enrichment and each exploration family get floor(N/4); the
remainder tops the lists up in the order enrichment, similarity, block,
structural-hole. All orderings are total, so output is deterministic.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Container, Iterator
from dataclasses import dataclass, field
from itertools import groupby, islice

import numpy as np

from .kg import (
    CommunityPartition,
    EmbeddingMissingError,
    KnowledgeEdge,
    KnowledgeGraph,
    bridging_score,
    degree_in_community,
    gram_margin,
    node_importance,
)

__all__ = [
    "ChainConfig",
    "SearchChain",
    "QuotaPlan",
    "SbmBlockMatrix",
    "allocate_quotas",
    "enrichment_score",
    "cross_community_score",
    "rank_enrich",
    "sbm_block_matrix",
    "bernoulli_entropy",
    "explore_similarity",
    "explore_block",
    "explore_structural_holes",
    "build_search_chains",
    "format_chains_for_prompt",
]

EXPLORE_RELATION_HINT = "hypothesized relation"


@dataclass(frozen=True)
class ChainConfig:
    total: int
    enrich_evidence_threshold: int = 1
    sbm_alpha: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError("total budget must be >= 0")
        if self.enrich_evidence_threshold < 0:
            raise ValueError("enrich threshold must be >= 0")
        if self.sbm_alpha <= 0:
            raise ValueError("smoothing alpha must be > 0")


@dataclass
class SearchChain:
    basis: str  # enrichment | similarity | block_probability | block_entropy | structural_hole
    source_id: str
    target_id: str
    relation: str
    score: float
    edge_id: str | None = None
    chain_id: str | None = None

    @property
    def kind(self) -> str:
        """"enrich" for an enrichment chain, "explore" for every other family."""
        return "enrich" if self.basis == "enrichment" else "explore"

    def to_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "kind": self.kind,
            "basis": self.basis,
            "source_id": self.source_id,
            "target_id": self.target_id,
            "relation": self.relation,
            "score": self.score,
            "edge_id": self.edge_id,
        }


@dataclass(frozen=True)
class QuotaPlan:
    enrich: int
    per_explore: int
    leftover: int


def allocate_quotas(total: int) -> QuotaPlan:
    """floor(N/4) to enrichment and to each exploration family; rest is leftover."""
    if total < 0:
        raise ValueError("total must be >= 0")
    quarter = total // 4
    return QuotaPlan(enrich=quarter, per_explore=quarter, leftover=total - 4 * quarter)


def cross_community_score(
    kg: KnowledgeGraph, partition: CommunityPartition, u: str, v: str
) -> float:
    """Mean of the two endpoints' bridging scores."""
    return 0.5 * (bridging_score(kg, partition, u) + bridging_score(kg, partition, v))


def enrichment_score(
    kg: KnowledgeGraph, partition: CommunityPartition, edge_id: str
) -> float:
    edge = kg.edges[edge_id]
    crossing = cross_community_score(kg, partition, edge.source_id, edge.target_id)
    return _enrichment(kg, edge, crossing)


def _enrichment(kg: KnowledgeGraph, edge: KnowledgeEdge, crossing: float) -> float:
    importance = node_importance(kg, edge.source_id, edge.target_id)
    return (1.0 + importance + crossing) / (1.0 + len(edge.evidence_ids))


def rank_enrich(
    kg: KnowledgeGraph,
    partition: CommunityPartition,
    evidence_threshold: int = 1,
    quota: int | None = None,
) -> list[SearchChain]:
    """Weakly-evidenced edges, zero-evidence edges always ahead of the rest.

    Both blocks order by descending score, ties by ascending edge id.
    quota=None returns the full ranked pool.
    """
    pool = [
        eid
        for eid in kg.edge_ids()
        if len(kg.edges[eid].evidence_ids) <= evidence_threshold
    ]
    bscore: dict[str, float] = {}
    scored: dict[str, float] = {}
    for eid in pool:
        e = kg.edges[eid]
        for v in (e.source_id, e.target_id):
            if v not in bscore:
                bscore[v] = bridging_score(kg, partition, v)
        # Same sum as cross_community_score, from one bridging score per node.
        scored[eid] = _enrichment(kg, e, 0.5 * (bscore[e.source_id] + bscore[e.target_id]))
    zero = [eid for eid in pool if not kg.edges[eid].evidence_ids]
    rest = [eid for eid in pool if kg.edges[eid].evidence_ids]
    # The pool is in edge id order and the sort is stable, so ties stay in it.
    zero.sort(key=lambda eid: -scored[eid])
    rest.sort(key=lambda eid: -scored[eid])
    ordered = zero + rest
    if quota is not None:
        ordered = ordered[:quota]
    chains = []
    for eid in ordered:
        e = kg.edges[eid]
        chains.append(
            SearchChain(
                basis="enrichment",
                source_id=e.source_id,
                target_id=e.target_id,
                relation=e.relation,
                score=scored[eid],
                edge_id=eid,
            )
        )
    return chains


@dataclass
class SbmBlockMatrix:
    """Smoothed block-model link probabilities between community pairs.

    The matrix is symmetric: prob(ci, cj) == prob(cj, ci).
    """

    labels: list[int]
    matrix: np.ndarray
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {c: i for i, c in enumerate(self.labels)}

    def prob(self, ci: int, cj: int) -> float:
        return float(self.matrix[self._index[ci], self._index[cj]])


def sbm_block_matrix(
    kg: KnowledgeGraph, partition: CommunityPartition, alpha: float = 0.1
) -> SbmBlockMatrix:
    """B[i][j] = (actual_edges + alpha) / (possible_pairs + 2*alpha).

    Edges are counted on the undirected simple projection. Off-diagonal
    possible pairs are n_i * n_j; diagonal is n_i * (n_i - 1) / 2. Smoothing
    keeps every entry strictly inside (0, 1).
    """
    comms = partition.communities()
    labels = list(comms.keys())
    sizes = {c: len(members) for c, members in comms.items()}
    k = len(labels)
    actual = np.zeros((k, k), dtype=float)
    index = {c: i for i, c in enumerate(labels)}
    for a, b in kg.undirected_pairs():
        ca = partition.community_of(a)
        cb = partition.community_of(b)
        i, j = index[ca], index[cb]
        actual[i, j] += 1.0
        if i != j:
            actual[j, i] += 1.0
    matrix = np.zeros((k, k), dtype=float)
    for i, ci in enumerate(labels):
        for j, cj in enumerate(labels):
            if i == j:
                possible = sizes[ci] * (sizes[ci] - 1) / 2.0
            else:
                possible = float(sizes[ci] * sizes[cj])
            matrix[i, j] = (actual[i, j] + alpha) / (possible + 2.0 * alpha)
    return SbmBlockMatrix(labels=labels, matrix=matrix)


def bernoulli_entropy(p: float) -> float:
    """H(p) in bits; defined only on the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"entropy undefined at p={p}")
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def explore_similarity(kg: KnowledgeGraph, quota: int | None = None) -> list[SearchChain]:
    """Unconnected (core entity, concept) pairs by name-embedding cosine.

    Ranked by descending cosine, ties by ascending node ids. quota=None returns
    every such pair, otherwise the first quota of that ranking. Each score is
    the per-pair ``np.dot``; one matrix product only narrows down the pairs
    that can reach the quota. Every node must already carry an embedding.
    """
    ids = kg.node_ids()
    for nid in ids:
        if kg.nodes[nid].embedding is None:
            raise EmbeddingMissingError(f"node {nid} has no embedding")
    cores = [v for v in ids if kg.nodes[v].is_core_entity]
    concepts = [v for v in ids if not kg.nodes[v].is_core_entity]
    column = {k: j for j, k in enumerate(concepts)}
    unlinked = np.ones((len(cores), len(concepts)), dtype=bool)
    for i, c in enumerate(cores):
        for k in kg.neighbors(c):
            if k in column:
                unlinked[i, column[k]] = False

    if quota is not None and quota < int(unlinked.sum()):
        if quota <= 0:
            return []
        core_vecs = np.array([kg.nodes[c].embedding for c in cores])
        concept_vecs = np.array([kg.nodes[k].embedding for k in concepts])
        approx = np.where(unlinked, core_vecs @ concept_vecs.T, -np.inf)
        cut = np.partition(approx, -quota, axis=None)[-quota]
        unlinked &= approx >= cut - gram_margin(core_vecs, concept_vecs)

    # Row and column order is numeric node order, so indices break ties.
    candidates: list[tuple[float, int, int]] = [
        (float(np.dot(kg.nodes[cores[i]].embedding, kg.nodes[concepts[j]].embedding)), i, j)
        for i, j in zip(*np.nonzero(unlinked))
    ]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    if quota is not None:
        candidates = candidates[:quota]
    return [
        SearchChain(
            basis="similarity",
            source_id=cores[i],
            target_id=concepts[j],
            relation=EXPLORE_RELATION_HINT,
            score=sim,
        )
        for sim, i, j in candidates
    ]


def _cross_pairs(
    first: list[str], second: list[str], rank: dict[str, int]
) -> Iterator[tuple[int, int, str, str]]:
    """Node pairs with one end in each list, as (rank a, rank b, a, b) with
    rank a < rank b, in ascending order. Both lists are sorted by rank."""
    first_ranks = [rank[v] for v in first]
    second_ranks = [rank[v] for v in second]
    partners = {v: (second, second_ranks) for v in first}
    partners.update((v, (first, first_ranks)) for v in second)
    for a in heapq.merge(first, second, key=rank.__getitem__):
        others, others_ranks = partners[a]
        for b in others[bisect_right(others_ranks, rank[a]) :]:
            yield rank[a], rank[b], a, b


def explore_block(
    kg: KnowledgeGraph,
    partition: CommunityPartition,
    block: SbmBlockMatrix,
    quota: int,
    exclude_pairs: Container[tuple[str, str]] = frozenset(),
    limit: int | None = None,
) -> list[SearchChain]:
    """Cross-community non-edges split between likely and uncertain links.

    ceil(quota/2) slots go to the highest block probabilities, floor(quota/2)
    to the highest entropies among the rest; any extension past the quota
    continues down the probability ranking. Ties order by the numeric node
    pair. Returns the first ``limit`` chains of that list, or all of it when
    limit is None.

    A pair's probability, and so its entropy, depends only on its two
    communities. Both rankings therefore walk community pairs best first and,
    within a run of equal values, merge those community pairs' node pairs in
    numeric order, producing only as many as the returned list needs.
    """
    ids = kg.node_ids()
    rank = {v: i for i, v in enumerate(ids)}  # numeric node order
    members: dict[int, list[str]] = {}
    for v in ids:
        members.setdefault(partition.community_of(v), []).append(v)
    labels = sorted(members)
    prob = {
        (c, d): block.prob(c, d) for i, c in enumerate(labels) for d in labels[i + 1 :]
    }
    entropy = {cd: bernoulli_entropy(p) for cd, p in prob.items()}
    linked: dict[str, set[str]] = {}

    def ranked(value: dict[tuple[int, int], float]) -> Iterator[tuple[str, str, float]]:
        best_first = sorted(value, key=lambda cd: -value[cd])
        for v, tied in groupby(best_first, key=value.__getitem__):
            runs = [_cross_pairs(members[c], members[d], rank) for c, d in tied]
            for _, _, a, b in heapq.merge(*runs):
                if a not in linked:
                    linked[a] = kg.neighbors(a)
                if b not in linked[a] and (a, b) not in exclude_pairs:
                    yield a, b, v

    room = len(ids) ** 2 if limit is None else limit  # len(ids) ** 2 > every pair
    prob_quota = quota - quota // 2
    ent_quota = quota // 2
    by_prob = ranked(prob)
    picked_prob = list(islice(by_prob, min(prob_quota, room)))
    taken = {(a, b) for a, b, _ in picked_prob}
    room -= len(picked_prob)
    picked_ent = list(
        islice(
            ((a, b, h) for a, b, h in ranked(entropy) if (a, b) not in taken),
            min(ent_quota, room),
        )
    )
    taken |= {(a, b) for a, b, _ in picked_ent}
    room -= len(picked_ent)
    extension = list(islice(((a, b, p) for a, b, p in by_prob if (a, b) not in taken), room))

    return [
        SearchChain(
            basis=basis,
            source_id=a,
            target_id=b,
            relation=EXPLORE_RELATION_HINT,
            score=score,
        )
        for basis, picked in (
            ("block_probability", picked_prob),
            ("block_entropy", picked_ent),
            ("block_probability", extension),
        )
        for a, b, score in picked
    ]


def explore_structural_holes(
    kg: KnowledgeGraph, partition: CommunityPartition
) -> list[SearchChain]:
    """Bridge/hub nodes of one community paired with representatives of others.

    Per community: bridges are the top-3 bridging scores among nodes with at
    least one cross-community neighbor; hubs are the top-2 in-community degrees
    excluding bridges; the representative is the highest in-community degree.
    Every (bridge-or-hub, other community's representative) non-edge is a
    candidate; unordered duplicates collapse to their first occurrence. The
    list ranks by the first node's bridging score, ties by ascending node ids.
    Returns all candidates; callers truncate.
    """
    comms = partition.communities()
    num = {v: i for i, v in enumerate(kg.node_ids())}
    bscore = {v: bridging_score(kg, partition, v) for v in partition.assignment}
    din = {v: degree_in_community(kg, partition, v) for v in partition.assignment}

    bridges: dict[int, list[str]] = {}
    hubs: dict[int, list[str]] = {}
    rep: dict[int, str] = {}
    for c, members in comms.items():
        crossing = [v for v in members if bscore[v] > 0.0]
        crossing.sort(key=lambda v: (-bscore[v], num[v]))
        bridges[c] = crossing[:3]
        rest = [v for v in members if v not in bridges[c]]
        rest.sort(key=lambda v: (-din[v], num[v]))
        hubs[c] = rest[:2]
        rep[c] = min(members, key=lambda v: (-din[v], num[v]))
    linked = {a: kg.neighbors(a) for c in comms for a in bridges[c] + hubs[c]}

    seen: set[tuple[str, str]] = set()
    candidates: list[tuple[float, int, int, str, str]] = []
    for c1 in comms:
        for c2 in comms:
            if c1 == c2:
                continue
            for a in bridges[c1] + hubs[c1]:
                b = rep[c2]
                if a == b or b in linked[a] or (a, b) in seen:
                    continue
                seen.update(((a, b), (b, a)))
                candidates.append((bscore[a], num[a], num[b], a, b))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [
        SearchChain(
            basis="structural_hole",
            source_id=a,
            target_id=b,
            relation=EXPLORE_RELATION_HINT,
            score=score,
        )
        for score, _, _, a, b in candidates
    ]


class _ProposedElsewhere:
    """The node pairs the similarity and structural-hole families propose.

    Similarity proposes every unlinked pair of one core entity and one
    concept. Block exploration only asks about unlinked pairs, so for it that
    family is the rule "one core entity, one concept", not a list of pairs.
    """

    def __init__(self, kg: KnowledgeGraph, holes: list[SearchChain]) -> None:
        self._kg = kg
        self._holes = {(c.source_id, c.target_id) for c in holes}
        self._holes |= {(b, a) for a, b in self._holes}

    def __contains__(self, pair: tuple[str, str]) -> bool:
        a, b = pair
        nodes = self._kg.nodes
        return nodes[a].is_core_entity != nodes[b].is_core_entity or pair in self._holes


def build_search_chains(
    kg: KnowledgeGraph, partition: CommunityPartition, config: ChainConfig
) -> list[SearchChain]:
    """Assemble the ranked chain list under the total budget.

    Block-probability exploration draws from a pool that excludes every pair
    the similarity or structural-hole families can propose, so no pair appears
    under two bases. Leftover slots (budget minus what the four base quotas
    consumed) extend the family lists in fixed order. chain_1, chain_2, ...
    number the final concatenation.
    """
    plan = allocate_quotas(config.total)
    # No family can fill more than the whole budget, so every ranking is cut
    # there; the counts below come out the same as on the uncut lists.
    enrich = rank_enrich(
        kg, partition, evidence_threshold=config.enrich_evidence_threshold, quota=config.total
    )
    similar = explore_similarity(kg, quota=config.total)
    holes = explore_structural_holes(kg, partition)
    block = sbm_block_matrix(kg, partition, alpha=config.sbm_alpha)
    blocks = explore_block(
        kg,
        partition,
        block,
        quota=plan.per_explore,
        exclude_pairs=_ProposedElsewhere(kg, holes),
        limit=config.total,
    )

    lists = [enrich, similar, blocks, holes]
    quotas = [plan.enrich, plan.per_explore, plan.per_explore, plan.per_explore]
    counts = [min(q, len(lst)) for q, lst in zip(quotas, lists)]
    leftover = config.total - sum(counts)
    for i, lst in enumerate(lists):
        if leftover <= 0:
            break
        extra = min(leftover, len(lst) - counts[i])
        counts[i] += extra
        leftover -= extra

    final: list[SearchChain] = []
    for lst, count in zip(lists, counts):
        final.extend(lst[:count])
    for i, chain in enumerate(final, start=1):
        chain.chain_id = f"chain_{i}"
    return final


def format_chains_for_prompt(chains: list[SearchChain], kg: KnowledgeGraph) -> str:
    """One line per chain: id, family, and the entity -> relation -> entity pattern."""
    lines = []
    for c in chains:
        src = kg.nodes[c.source_id].name
        tgt = kg.nodes[c.target_id].name
        lines.append(f"{c.chain_id} | {c.kind} | {src} -> {c.relation} -> {tgt}")
    return "\n".join(lines)
