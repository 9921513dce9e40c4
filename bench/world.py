"""Benchmark inputs: simulated worlds past 26 names and growing synthetic graphs.

The stock ``generate_world`` refuses worlds above 26 names because the stock
sim chat lists profiles as lettered content points ``a``..``z``. This module
keeps an uncapped copy of the generator and a chat stand-in that lists
profiles as numbered subsections ``2.1``, ``2.2``, ... instead, so a run can
be driven over hundreds of names without editing the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from dualgraph.kg import ExtractedEdge, ExtractedNode, ExtractionResult
from dualgraph.providers.base import Providers
from dualgraph.providers.mock import HashEmbeddingProvider
from dualgraph.simulate import (
    BRIDGE_RELATION,
    RELATIONS,
    SimChatProvider,
    SimDoc,
    SimSearchProvider,
    TruthEdge,
    World,
    _sim_fetcher,
)

FINDINGS_NUMBER = "2"
_PROFILE_HEADING_RE = re.compile(rf"^{FINDINGS_NUMBER}\.\d+ (?=Profile of )", re.MULTILINE)


def generate_world(
    seed: int = 0,
    n_communities: int = 3,
    cores_per_community: int = 2,
    concepts_per_community: int = 3,
    extra_edge_prob: float = 0.25,
    docs_per_edge: int = 1,
) -> World:
    """``dualgraph.simulate.generate_world`` without the 26-name cap.

    Same draws in the same order, so a world within the cap is equal to the
    stock one. Community letters run past ``z`` above 26 communities, which
    keeps names distinct but no longer alphabetic; benchmark worlds stay
    below that.
    """
    if n_communities < 1 or cores_per_community < 1 or concepts_per_community < 0:
        raise ValueError("world needs at least one community with one core each")
    rng = np.random.default_rng(seed)

    communities: list[list[str]] = []
    for c in range(n_communities):
        letter = chr(ord("a") + c)
        members = [f"core{letter}{i}" for i in range(cores_per_community)]
        members += [f"concept{letter}{i}" for i in range(concepts_per_community)]
        communities.append(members)

    truth: list[TruthEdge] = []
    seen_pairs: set[frozenset] = set()
    rel_idx = 0

    def push(u: str, v: str, relation: str) -> None:
        pair = frozenset((u, v))
        if u == v or pair in seen_pairs:
            return
        seen_pairs.add(pair)
        truth.append(TruthEdge(u, v, relation))

    for members in communities:
        for i in range(len(members) - 1):
            push(members[i], members[i + 1], RELATIONS[rel_idx % len(RELATIONS)])
            rel_idx += 1
        for j in range(2, len(members)):
            if rng.random() < extra_edge_prob:
                k = int(rng.integers(0, j - 1))
                push(members[k], members[j], RELATIONS[rel_idx % len(RELATIONS)])
                rel_idx += 1
    for c in range(n_communities - 1):
        push(communities[c][cores_per_community - 1], communities[c + 1][0], BRIDGE_RELATION)

    docs: list[SimDoc] = []
    by_name: dict[str, list[int]] = {}
    docs_for_edge: dict[int, list[int]] = {}
    doc_id = 0
    for e_idx, edge in enumerate(truth):
        docs_for_edge[e_idx] = []
        for copy_n in range(docs_per_edge):
            url = f"https://sim.test/doc{doc_id:04d}"
            title = f"Note {doc_id:04d}: {edge.source} and {edge.target}"
            text = (
                f"Observed link between {edge.source} and {edge.target}"
                f" (record {copy_n}).\n"
                f"[[{edge.source} :: {edge.relation} :: {edge.target}]]\n"
            )
            docs.append(
                SimDoc(doc_id, url, title, text, frozenset((edge.source, edge.target)), e_idx)
            )
            docs_for_edge[e_idx].append(doc_id)
            for name in (edge.source, edge.target):
                by_name.setdefault(name, []).append(doc_id)
            doc_id += 1
    return World(seed, communities, truth, docs, by_name, docs_for_edge)


class NumberedSimChat(SimChatProvider):
    """Sim chat that files profiles under ``2.N`` subsections.

    The stock stand-in letters each profile (``a.`` .. ``z.``) below
    ``2. Findings``. Here the N-th profile becomes heading ``2.N`` and is
    written into the report exactly as a lettered point would be, so for a
    world of 26 names or fewer only the outline numbering differs from a
    run through the stock stand-in.
    """

    def _revise_outline(self, prompt: str) -> str:
        lines = super()._revise_outline(prompt).split("\n")
        # Stock layout: title, two head lines, "2. Findings", one line per
        # profile, two tail lines. Each profile line is "<letter>. Profile ...".
        head, profiles, tail = lines[:4], lines[4:-2], lines[-2:]
        numbered = [
            f"{FINDINGS_NUMBER}.{i} {line[3:]}" for i, line in enumerate(profiles, start=1)
        ]
        return "\n".join(head + numbered + tail)

    def _write_section(self, prompt: str) -> str:
        # Strip the "2.N " prefix from profile headings so the stock writer
        # renders them as body text, the way it renders lettered points.
        return super()._write_section(_PROFILE_HEADING_RE.sub("", prompt))


def sim_providers(world: World, embed_dim: int, embed_seed: int, chat_cls=NumberedSimChat) -> Providers:
    """``dualgraph.simulate.sim_providers`` with a choice of chat stand-in."""
    return Providers(
        chat=chat_cls(world),
        search=SimSearchProvider(world),
        fetch=_sim_fetcher(world),
        embed=HashEmbeddingProvider(dim=embed_dim, seed=embed_seed),
    )


# -- synthetic growing graphs ------------------------------------------


@dataclass
class GrowthPlan:
    """Extraction batches that grow a graph one size step at a time."""

    names: list[str]
    batches: list[tuple[ExtractionResult, dict[str, int]]]
    n_edges: int


COMMUNITY_SIZE = 50
EDGES_PER_NODE = 3
CORE_SHARE = 0.3
INTRA_PROB = 0.9
EVIDENCE_PROB = 0.7
LABELS_PER_BATCH = 8


def planted_growth(seed: int, sizes: list[int]) -> GrowthPlan:
    """A planted-community graph delivered as ``apply_extraction`` batches.

    Node i joins community ``i // COMMUNITY_SIZE`` and links to
    ``EDGES_PER_NODE`` distinct earlier nodes, each drawn from its own
    community with probability ``INTRA_PROB``, so E = 3V - 6 and there are V/50
    communities at every size. A fixed share of the nodes, placed at random,
    are core entities. Sizes are exact so that graphs of different seeds cost
    about the same to process. Batch k adds nodes up to ``sizes[k]`` and every
    edge among them; a share of the new edges is tied to the batch's evidence
    labels, the rest carry no evidence.
    """
    rng = np.random.default_rng(seed)
    total = sizes[-1]
    core = np.zeros(total, dtype=bool)
    core[rng.permutation(total)[: round(CORE_SHARE * total)]] = True
    names = [f"{'core' if core[i] else 'concept'}{i // COMMUNITY_SIZE}x{i}" for i in range(total)]

    # Generated in order of the later endpoint, which is the order in which
    # edges become available as the graph grows.
    edges: list[tuple[int, int, str]] = []
    for i in range(1, total):
        lo = (i // COMMUNITY_SIZE) * COMMUNITY_SIZE
        targets: set[int] = set()
        while len(targets) < min(EDGES_PER_NODE, i):
            if i > lo and rng.random() < INTRA_PROB:
                j = int(rng.integers(lo, i))
            else:
                j = int(rng.integers(0, i))
            if j in targets:
                continue
            targets.add(j)
            relation = RELATIONS[int(rng.integers(0, len(RELATIONS)))]
            edges.append((i, j, relation) if rng.random() < 0.5 else (j, i, relation))

    batches: list[tuple[ExtractionResult, dict[str, int]]] = []
    next_edge = 1
    next_evidence = 1
    e_pos = 0
    start = 0
    for size in sizes:
        labels = {f"EN{k}": next_evidence + k - 1 for k in range(1, LABELS_PER_BATCH + 1)}
        next_evidence += LABELS_PER_BATCH
        result = ExtractionResult()
        for i in range(start, size):
            result.new_nodes.append(ExtractedNode(f"n{i + 1}", names[i], bool(core[i])))
        while e_pos < len(edges) and max(edges[e_pos][0], edges[e_pos][1]) < size:
            src, tgt, relation = edges[e_pos]
            eid = f"e{next_edge}"
            next_edge += 1
            result.new_edges.append(ExtractedEdge(eid, f"n{src + 1}", f"n{tgt + 1}", relation))
            if rng.random() < EVIDENCE_PROB:
                label = f"EN{int(rng.integers(1, LABELS_PER_BATCH + 1))}"
                result.evidences_map.setdefault(label, []).append(eid)
            e_pos += 1
        batches.append((result, labels))
        start = size
    return GrowthPlan(names=names, batches=batches, n_edges=len(edges))
