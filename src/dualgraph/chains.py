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

``build_search_chains`` derives each per-node fact once per build: one sweep
of the adjacency index (``community_degrees``) gives every node's degrees and
bridging score and each community's members, and enrichment, block and
structural-hole exploration all read it. No family ranks past the budget: the
similarity Gram product is formed in row blocks under a running cut, and the
structural-hole and block rankings are generated best first and stopped at
their ``limit``. The families called alone compute what they need and return
their full lists, which ``tests/oracles.py`` pins.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import groupby, islice

import numpy as np

from .kg import (
    CommunityDegrees,
    CommunityPartition,
    EmbeddingMissingError,
    KnowledgeEdge,
    KnowledgeGraph,
    bridging_score,
    community_degrees,
    gram_blocks,
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
    "HoleRoles",
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
    degrees: CommunityDegrees | None = None,
) -> list[SearchChain]:
    """Weakly-evidenced edges, zero-evidence edges always ahead of the rest.

    Both blocks order by descending score, ties by ascending edge id.
    quota=None returns the full ranked pool. ``degrees`` is the build's
    ``community_degrees(kg, partition)``, computed here when not given.
    """
    if degrees is None:
        degrees = community_degrees(kg, partition)
    bscore = degrees.bridging
    pool = [e for e in kg.edges.values() if len(e.evidence_ids) <= evidence_threshold]
    # Same sum as cross_community_score, from one bridging score per node.
    scored = {
        e.edge_id: _enrichment(kg, e, 0.5 * (bscore[e.source_id] + bscore[e.target_id]))
        for e in pool
    }
    # The pool is in edge id order and nsmallest is a stable sort, so ties
    # stay in it.
    ordered = heapq.nsmallest(
        len(pool) if quota is None else quota,
        pool,
        key=lambda e: (bool(e.evidence_ids), -scored[e.edge_id]),
    )
    return [
        SearchChain(
            basis="enrichment",
            source_id=e.source_id,
            target_id=e.target_id,
            relation=e.relation,
            score=scored[e.edge_id],
            edge_id=e.edge_id,
        )
        for e in ordered
    ]


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
    kg: KnowledgeGraph,
    partition: CommunityPartition,
    alpha: float = 0.1,
    degrees: CommunityDegrees | None = None,
) -> SbmBlockMatrix:
    """B[i][j] = (actual_edges + alpha) / (possible_pairs + 2*alpha).

    Edges are counted on the undirected simple projection. Off-diagonal
    possible pairs are n_i * n_j; diagonal is n_i * (n_i - 1) / 2. Smoothing
    keeps every entry strictly inside (0, 1).

    The edge counts are ``degrees.links``, whole numbers, and the matrix is
    formed by array operations that round exactly as the formula does.
    ``degrees`` is the build's ``community_degrees(kg, partition)``, computed
    here when not given.
    """
    if degrees is None:
        degrees = community_degrees(kg, partition)
    k = len(degrees.members)
    sizes = np.array([len(members) for members in degrees.members.values()], dtype=float)
    possible = np.outer(sizes, sizes)
    possible[np.diag_indices(k)] = sizes * (sizes - 1.0) / 2.0
    return SbmBlockMatrix(
        labels=list(degrees.members),
        matrix=(degrees.links + alpha) / (possible + 2.0 * alpha),
    )


def bernoulli_entropy(p: float) -> float:
    """H(p) in bits; defined only on the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"entropy undefined at p={p}")
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def explore_similarity(kg: KnowledgeGraph, quota: int | None = None) -> list[SearchChain]:
    """Unconnected (core entity, concept) pairs by name-embedding cosine.

    Ranked by descending cosine, ties by ascending node ids. quota=None returns
    every such pair, otherwise the first quota of that ranking. Each score is
    the per-pair ``np.dot``; the Gram product only narrows down the pairs that
    can reach the quota. Every node must already carry an embedding.
    """
    ids = kg.node_ids()
    for nid in ids:
        if kg.nodes[nid].embedding is None:
            raise EmbeddingMissingError(f"node {nid} has no embedding")
    cores = [v for v in ids if kg.nodes[v].is_core_entity]
    concepts = [v for v in ids if not kg.nodes[v].is_core_entity]
    if quota is None:
        quota = len(cores) * len(concepts)
    if quota <= 0 or not cores or not concepts:
        return []
    column = {k: j for j, k in enumerate(concepts)}
    adjacency = kg.adjacency
    linked = np.array(
        [(i, column[k]) for i, c in enumerate(cores) for k in adjacency.get(c, ()) if k in column],
        dtype=np.intp,
    ).reshape(-1, 2)
    core_rows = [kg.nodes[c].embedding for c in cores]
    concept_rows = [kg.nodes[k].embedding for k in concepts]
    pairs = _closest_unlinked(
        np.array(core_rows),
        np.array(concept_rows),
        linked,
        quota,
        {v.dtype for v in core_rows + concept_rows},
    )

    # Row and column order is numeric node order, so indices break ties.
    candidates: list[tuple[float, int, int]] = [
        (float(np.dot(kg.nodes[cores[i]].embedding, kg.nodes[concepts[j]].embedding)), i, j)
        for i, j in pairs
    ]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    del candidates[quota:]
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


def _closest_unlinked(
    a: np.ndarray, b: np.ndarray, linked: np.ndarray, quota: int, dtypes: Iterable[np.dtype]
) -> Iterator[tuple[int, int]]:
    """(row, column) of every pair not in ``linked`` whose entry of ``a @ b.T``
    is no lower than the quota-th highest such entry less ``gram_margin``.
    ``linked`` holds (row, column) pairs in ascending row order. ``dtypes``:
    those of the rows before they were stacked, which ``np.dot`` of two of them
    sums in.

    The product is formed in ``gram_blocks``. A running cut, the
    quota-th highest entry of the pairs kept so far, drops a pair once it falls
    more than the margin below it. That cut never passes the final one, and
    the pairs above it stay kept, so the last cut is the final one and the
    pairs kept are the same as from the whole product.
    """
    margin = gram_margin(a, b, dtypes)
    cut = -np.inf
    kept_rows, kept_cols, kept_vals = np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    for start, gram in gram_blocks(a, b):
        lo, hi = np.searchsorted(linked[:, 0], [start, start + len(gram)])
        gram[linked[lo:hi, 0] - start, linked[lo:hi, 1]] = -np.inf
        best = gram.max(axis=1)
        if len(best) >= quota:
            # Each row's best entry is a distinct entry, so the quota-th best
            # of them is no higher than the quota-th best entry.
            cut = max(cut, np.partition(best, -quota)[-quota])
        # Never below the lowest float, so a linked pair's -inf never passes.
        floor = max(cut - margin, np.finfo(gram.dtype).min)
        hot = np.flatnonzero(best >= floor)
        r, c = np.nonzero(gram[hot] >= floor)
        kept_rows = np.concatenate([kept_rows, hot[r] + start])
        kept_cols = np.concatenate([kept_cols, c])
        kept_vals = np.concatenate([kept_vals, gram[hot[r], c]])
        if len(kept_vals) > quota:
            cut = np.partition(kept_vals, -quota)[-quota]
            keep = kept_vals >= cut - margin
            kept_rows, kept_cols, kept_vals = kept_rows[keep], kept_cols[keep], kept_vals[keep]
    return zip(kept_rows.tolist(), kept_cols.tolist())


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
    degrees: CommunityDegrees | None = None,
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
    ``degrees`` is the build's ``community_degrees(kg, partition)``, computed
    here when not given.
    """
    if degrees is None:
        degrees = community_degrees(kg, partition)
    ids = kg.node_ids()
    rank = {v: i for i, v in enumerate(ids)}  # numeric node order
    groups = list(degrees.members.values())
    # Community pairs (i, j), i < j, as two index arrays in row-major order.
    first, second = np.nonzero(~np.tri(len(groups), dtype=bool))
    at = np.array([block._index[c] for c in degrees.members], dtype=np.intp)
    prob = block.matrix[at[first], at[second]]
    entropy = np.array([bernoulli_entropy(p) for p in prob.tolist()])
    first, second = first.tolist(), second.tolist()
    adjacency = kg.adjacency

    def ranked(value: np.ndarray) -> Iterator[tuple[str, str, float]]:
        scores = value.tolist()
        # A stable sort, so pairs of equal value stay in row-major order.
        best_first = np.argsort(-value, kind="stable").tolist()
        for v, tied in groupby(best_first, key=scores.__getitem__):
            runs = [_cross_pairs(groups[first[t]], groups[second[t]], rank) for t in tied]
            for _, _, a, b in heapq.merge(*runs):
                if b not in adjacency.get(a, ()) and (a, b) not in exclude_pairs:
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


class HoleRoles:
    """Each community's structural-hole roles, from one build's degrees.

    Bridges are the top-3 bridging scores among nodes with at least one
    cross-community neighbor; hubs are the top-2 in-community degrees
    excluding bridges; the representative is the highest in-community degree.
    Ties go to the lower node id. Bridges and hubs are the community's
    proposers.
    """

    def __init__(self, kg: KnowledgeGraph, degrees: CommunityDegrees) -> None:
        rank = {v: i for i, v in enumerate(kg.nodes)}
        bscore, inside = degrees.bridging, degrees.inside
        self._bridging = bscore
        self._adjacency = kg.adjacency
        # (node, community) pairs. Members are in numeric order, and sorted
        # and max keep the first of equal nodes, so ties go to the lower id.
        self._proposers: list[tuple[str, int]] = []
        self._representatives: list[tuple[str, int]] = []
        for c, members in degrees.members.items():
            crossing = [v for v in members if bscore[v] > 0.0]
            bridges = sorted(crossing, key=bscore.__getitem__, reverse=True)[:3]
            rest = [v for v in members if v not in bridges]
            hubs = sorted(rest, key=inside.__getitem__, reverse=True)[:2]
            self._proposers += [(a, c) for a in bridges + hubs]
            self._representatives.append((max(members, key=inside.__getitem__), c))
        self._proposers.sort(key=lambda ac: (-bscore[ac[0]], rank[ac[0]]))
        self._representatives.sort(key=lambda bc: rank[bc[0]])
        self._proposer_set = {a for a, _ in self._proposers}
        self._representative_set = {b for b, _ in self._representatives}

    def holes(self) -> Iterator[tuple[str, str, float]]:
        """Every (proposer, other community's representative) non-edge with
        the proposer's bridging score, best first: by that score, ties by
        ascending node ids.

        A pair that qualifies both ways, a proposer that is its community's
        representative paired with a proposer that is the other's, is kept
        once, oriented from the community with the lower label.
        """
        for a, ca in self._proposers:
            nbrs = self._adjacency.get(a, ())
            a_represents = a in self._representative_set
            for b, cb in self._representatives:
                if cb == ca or b in nbrs:
                    continue
                if a_represents and cb < ca and b in self._proposer_set:
                    continue  # kept as (b, a)
                yield a, b, self._bridging[a]

    def __contains__(self, pair: tuple[str, str]) -> bool:
        """Whether ``holes`` proposes this pair in either orientation, for an
        unlinked pair of nodes in two communities."""
        a, b = pair
        return (a in self._proposer_set and b in self._representative_set) or (
            b in self._proposer_set and a in self._representative_set
        )


def explore_structural_holes(
    kg: KnowledgeGraph,
    partition: CommunityPartition,
    limit: int | None = None,
    roles: HoleRoles | None = None,
) -> list[SearchChain]:
    """Bridge/hub nodes of one community paired with representatives of others.

    Every (bridge-or-hub, other community's representative) non-edge is a
    candidate (see ``HoleRoles``), scored by the first node's bridging score.
    Returns the first ``limit`` candidates, or all of them when limit is None.
    ``roles`` is the build's ``HoleRoles``, computed here when not given.
    """
    if roles is None:
        roles = HoleRoles(kg, community_degrees(kg, partition))
    return [
        SearchChain(
            basis="structural_hole",
            source_id=a,
            target_id=b,
            relation=EXPLORE_RELATION_HINT,
            score=score,
        )
        for a, b, score in islice(roles.holes(), limit)
    ]


class _ProposedElsewhere:
    """The node pairs the similarity and structural-hole families propose.

    Similarity proposes every unlinked pair of one core entity and one
    concept. Block exploration only asks about unlinked pairs of nodes in two
    communities, so for it that family is the rule "one core entity, one
    concept", and the structural-hole family is ``HoleRoles``'s rule, not a
    list of pairs.
    """

    def __init__(self, kg: KnowledgeGraph, roles: HoleRoles) -> None:
        self._kg = kg
        self._roles = roles

    def __contains__(self, pair: tuple[str, str]) -> bool:
        a, b = pair
        nodes = self._kg.nodes
        return nodes[a].is_core_entity != nodes[b].is_core_entity or pair in self._roles


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
    # One sweep of the adjacency index serves every family, and the hole roles
    # serve both the hole family and the block family's exclusions.
    degrees = community_degrees(kg, partition)
    roles = HoleRoles(kg, degrees)
    # No family can fill more than the whole budget, so every ranking is cut
    # there; the counts below come out the same as on the uncut lists.
    enrich = rank_enrich(
        kg,
        partition,
        evidence_threshold=config.enrich_evidence_threshold,
        quota=config.total,
        degrees=degrees,
    )
    similar = explore_similarity(kg, quota=config.total)
    holes = explore_structural_holes(kg, partition, limit=config.total, roles=roles)
    block = sbm_block_matrix(kg, partition, alpha=config.sbm_alpha, degrees=degrees)
    blocks = explore_block(
        kg,
        partition,
        block,
        quota=plan.per_explore,
        exclude_pairs=_ProposedElsewhere(kg, roles),
        limit=config.total,
        degrees=degrees,
    )

    lists = [enrich, similar, blocks, holes]
    quotas = [plan.enrich, plan.per_explore, plan.per_explore, plan.per_explore]
    counts = [min(q, len(lst)) for q, lst in zip(quotas, lists)]
    leftover = config.total - sum(counts)
    for i, lst in enumerate(lists):
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
