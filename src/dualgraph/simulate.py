"""Closed-world simulation harness.

Builds synthetic corpora with a known relation structure, provides rule-based
chat/search/fetch providers that drive the full run loop without a network or
a language model, and measures how much of the planted structure each run
recovers. Used for end-to-end checks and for head-to-head comparisons of the
dual-graph and outline-only variants.

World conventions:
- Node names look like ``corea0`` or ``conceptb2``: kind, community letter,
  index. Each name is a single alphanumeric token so bag-of-words embeddings
  keep distinct names apart.
- Every planted relation is carried by one or more documents whose text
  contains a machine-readable marker line ``[[source :: relation :: target]]``.
- Documents are indexed under both endpoint names. A search query is matched
  by whole tokens; documents mentioning all query names rank first, then
  documents mentioning any, each group in document order. The token
  ``overview`` returns a small fixed head of the corpus for bootstrap
  queries, so the first retrieval round seeds discovery without saturating
  the world.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import SCORE_DIMENSIONS
from .evidence import EvidenceBank, parse_citation_token
from .ids import id_number, is_id
from .kg import KnowledgeGraph, edge_num, node_num
from .orchestrator import ConfigError, RunConfig, RunState, Variant, drive
from .providers.base import Providers, SearchResult
from .providers.mock import FixtureFetchProvider, HashEmbeddingProvider

__all__ = [
    "TruthEdge",
    "SimDoc",
    "World",
    "generate_world",
    "bank_coverage",
    "kg_coverage",
    "SimSearchProvider",
    "SimChatProvider",
    "sim_providers",
    "SimRunResult",
    "run_sim",
    "run_ablation",
    "DEFAULT_ROOT_QUERY",
]

DEFAULT_ROOT_QUERY = "Map the planted relationship structure of the simulated corpus"

RELATIONS = ("supports", "regulates", "feeds", "limits", "stores", "balances")
BRIDGE_RELATION = "links"

MARKER_RE = re.compile(r"\[\[(.+?) :: (.+?) :: (.+?)\]\]")


@dataclass(frozen=True)
class TruthEdge:
    source: str
    target: str
    relation: str

    @property
    def pair(self) -> frozenset:
        return frozenset((self.source, self.target))


@dataclass
class SimDoc:
    doc_id: int
    url: str
    title: str
    text: str
    names: frozenset
    edge_index: int


@dataclass
class World:
    seed: int
    communities: list[list[str]]
    truth: list[TruthEdge]
    docs: list[SimDoc]
    by_name: dict[str, list[int]] = field(default_factory=dict)
    docs_for_edge: dict[int, list[int]] = field(default_factory=dict)

    @property
    def all_names(self) -> list[str]:
        return sorted(n for members in self.communities for n in members)


def generate_world(
    seed: int = 0,
    n_communities: int = 3,
    cores_per_community: int = 2,
    concepts_per_community: int = 3,
    extra_edge_prob: float = 0.25,
    docs_per_edge: int = 1,
) -> World:
    """Planted-community world: intra-community paths plus random shortcuts,
    one bridge between consecutive communities, one document per relation copy.
    """
    if n_communities < 1 or cores_per_community < 1 or concepts_per_community < 0:
        raise ConfigError("world needs at least one community with one core each")
    total = n_communities * (cores_per_community + concepts_per_community)
    if total > 26:
        # Content points are lettered a..z, so a world may not exceed 26 names.
        raise ConfigError(f"world too large: {total} names, limit 26")
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


# -- coverage ----------------------------------------------------------


def bank_coverage(bank: EvidenceBank, world: World) -> float:
    """Fraction of planted relations with at least one carrying document banked."""
    if not world.truth:
        return 1.0
    hit = 0
    for e_idx in range(len(world.truth)):
        if any(bank.has_url(world.docs[d].url) for d in world.docs_for_edge[e_idx]):
            hit += 1
    return hit / len(world.truth)


def kg_coverage(kg: KnowledgeGraph, world: World) -> float:
    """Fraction of planted relations present as an edge, matched by unordered
    endpoint names and ignoring the relation label."""
    if not world.truth:
        return 1.0
    present = set()
    for edge in kg.edges.values():
        present.add(
            frozenset((kg.nodes[edge.source_id].name, kg.nodes[edge.target_id].name))
        )
    hit = sum(1 for t in world.truth if t.pair in present)
    return hit / len(world.truth)


# -- search and fetch --------------------------------------------------


class SimSearchProvider:
    OVERVIEW_DOCS = 4

    def __init__(self, world: World):
        self.world = world
        self._names = set(world.all_names)

    def search(self, query: str, top_n: int) -> list[SearchResult]:
        tokens = set(query.split())
        names = sorted(self._names & tokens)
        ranked: list[int] = []
        if names:
            both = [
                d.doc_id for d in self.world.docs if all(n in d.names for n in names)
            ]
            some = [
                d.doc_id
                for d in self.world.docs
                if d.doc_id not in both and any(n in d.names for n in names)
            ]
            ranked = both + some
        elif "overview" in tokens:
            ranked = [d.doc_id for d in self.world.docs[: self.OVERVIEW_DOCS]]
        results = []
        for rank, d in enumerate(ranked[:top_n]):
            doc = self.world.docs[d]
            results.append(
                SearchResult(
                    url=doc.url,
                    title=doc.title,
                    snippet=doc.text.split("\n", 1)[0],
                    rank=rank,
                )
            )
        return results


def _sim_fetcher(world: World) -> FixtureFetchProvider:
    return FixtureFetchProvider({d.url: d.text for d in world.docs})


# -- chat --------------------------------------------------------------

_SECTION_RE = re.compile(r"^# (.+)$", re.MULTILINE)


def _sections(prompt: str) -> dict[str, str]:
    """Split a rendered prompt into its labeled blocks."""
    parts: dict[str, str] = {}
    matches = list(_SECTION_RE.finditer(prompt))
    for i, m in enumerate(matches):
        start = m.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(prompt)
        parts[m.group(1).strip()] = prompt[start:end].strip("\n")
    return parts


_PROFILE_RE = re.compile(r"Profile of (\S+)")
_CITE_RE = re.compile(r"<citation>(.*?)</citation>")
_REP_SPLIT = re.compile(r"^(.*?) - (.*?) -> (.*)$")
_PAGE_CONTENT_RE = re.compile(r"^<content>\n(.*?)\n</content>\n</page>$", re.DOTALL | re.MULTILINE)


def _listed(block: str) -> set[str]:
    """The queries of an executed-queries block, one per line."""
    return {q.strip() for q in block.splitlines() if q.strip() and q.strip() != "(none)"}


_STATIC_HEAD = ["1. Corpus map", "a. Approach to mapping the corpus"]
_STATIC_TAIL = ["3. Method notes", "a. Query trail kept for audit"]
_FINDINGS = "2. Findings"


class SimChatProvider:
    """Deterministic rule-based stand-in for the language model.

    Dispatches on fixed phrases of the rendered templates, reads the labeled
    blocks of the prompt, and answers from the world. Extraction is perfect:
    every marker in the evidence becomes a node pair and an edge.

    An answer is a function of the world and the prompt alone, so a resumed
    run's fresh provider answers exactly as the interrupted one would have.
    """

    def __init__(self, world: World):
        self.world = world

    def complete(self, prompt: str) -> str:
        if "Draft the outline of a deep-dive report" in prompt:
            return self._create_outline(prompt)
        if "revising the outline of an in-progress" in prompt:
            return self._revise_outline(prompt)
        if "turns the gaps of a report outline into web search queries" in prompt:
            return self._generate_queries(prompt)
        if "Candidate chains describe gaps" in prompt:
            return self._select_chains(prompt)
        if "Extract entity and concept relations" in prompt:
            return self._extract(prompt)
        if "propose merge clusters" in prompt:
            return '{"clusters": []}'
        if "screening search results" in prompt:
            return self._filter_urls(prompt)
        if "extracting evidence from fetched pages" in prompt:
            return self._assess_page(prompt)
        if "scoring whether the research can stop" in prompt:
            return self._judge(prompt)
        if "one self-contained Markdown section" in prompt:
            return self._write_section(prompt)
        raise AssertionError(f"sim chat cannot dispatch prompt: {prompt[:120]!r}")

    # outline handling

    def _create_outline(self, prompt: str) -> str:
        root = _sections(prompt)["Root Query"]
        lines = [root, *_STATIC_HEAD, _FINDINGS, *_STATIC_TAIL]
        return "\n".join(lines)

    @staticmethod
    def _parse_profiles(outline: str) -> list[tuple[str, set[int]]]:
        profiles: list[tuple[str, set[int]]] = []
        for line in outline.splitlines():
            m = _PROFILE_RE.search(line)
            if not m:
                continue
            cites: set[int] = set()
            cm = _CITE_RE.search(line)
            if cm:
                cites = set(map(parse_citation_token, cm.group(1).split(",")))
            profiles.append((m.group(1), cites))
        return profiles

    def _revise_outline(self, prompt: str) -> str:
        parts = _sections(prompt)
        current = parts["Current Outline"]
        evidence = parts["New Evidence"]
        title = current.splitlines()[0]
        profiles = self._parse_profiles(current)
        order = [name for name, _ in profiles]
        cites = {name: set(ids) for name, ids in profiles}

        current_id = None
        mentions: dict[int, set[str]] = {}
        for line in evidence.splitlines():
            ev_id = id_number(line.partition(" |")[0], "id_") if " |" in line else None
            if ev_id is not None:
                current_id = ev_id
                continue
            if current_id is not None and line.startswith("content:"):
                for sm in MARKER_RE.finditer(line):
                    for name in (sm.group(1), sm.group(3)):
                        mentions.setdefault(current_id, set()).add(name)
        for ev_id in sorted(mentions):
            for name in sorted(mentions[ev_id]):
                if name not in cites:
                    cites[name] = set()
                    order.append(name)
                cites[name].add(ev_id)

        lines = [title, *_STATIC_HEAD, _FINDINGS]
        for i, name in enumerate(order):
            letter = chr(ord("a") + i)
            ids = ", ".join(f"id_{x}" for x in sorted(cites[name]))
            suffix = f" <citation>{ids}</citation>" if ids else ""
            lines.append(f"{letter}. Profile of {name}{suffix}")
        lines.extend(_STATIC_TAIL)
        return "\n".join(lines)

    # query generation

    def _generate_queries(self, prompt: str) -> str:
        parts = _sections(prompt)
        budget = int(re.search(r"exactly (\d+) queries", prompt).group(1))
        done = _listed(parts["Executed Search Queries"])
        return "\n".join(self._outline_queries(parts["Current Outline"], done, budget))

    def _outline_queries(self, outline: str, done: set[str], budget: int) -> list[str]:
        """Up to ``budget`` queries for the outline's profiles, none of them in ``done``."""
        # Outline order is discovery order; querying the newest names last
        # keeps a stable frontier queue across passes.
        names = list(dict.fromkeys(name for name, _ in self._parse_profiles(outline)))
        open_queries = [
            f"{name} connections"
            for name in names
            if f"{name} connections" not in done
        ]
        if not open_queries:
            open_queries = ["corpus overview"]
        return open_queries[:budget]

    def _select_chains(self, prompt: str) -> str:
        parts = _sections(prompt)
        budget = int(re.search(r"At most (\d+) selected chains", prompt).group(1))
        query_num = int(re.search(r"exactly (\d+) outline queries", prompt).group(1))
        candidates: list[tuple[str, str, str, str, str]] = []
        for line in parts["Candidate Chains"].splitlines():
            fields = [f.strip() for f in line.split(" | ")]
            if len(fields) != 3:
                continue
            cid, kind, pattern = fields
            src, rel, tgt = (p.strip() for p in pattern.split(" -> "))
            candidates.append((cid, kind, src, rel, tgt))
        # Hypothesized relations probe unvisited territory; verified-but-weak
        # edges mostly re-fetch known documents. Explore first.
        candidates.sort(key=lambda c: 0 if c[1] == "explore" else 1)
        # A query with the words of an executed one, a swapped pair included,
        # would only be dropped by the engine's dedup, so it is not proposed.
        taken = {frozenset(q.split()) for q in parts["Executed Search Queries"].splitlines()}
        chains: list[str] = []
        queries: list[str] = []
        for cid, _, src, rel, tgt in candidates:
            if len(chains) >= budget:
                break
            query = f"{src} {tgt} {rel}"
            words = frozenset(query.split())
            if words in taken:
                continue
            taken.add(words)
            chains.append(cid)
            queries.append(query)
        # The outline queries avoid the executed and the chain queries.
        done = _listed(parts["Executed Search Queries"]) | set(queries)
        outline_queries = self._outline_queries(parts["Current Outline"], done, query_num)
        return json.dumps(
            {"chains": chains, "search queries": queries, "outline queries": outline_queries}
        )

    # graph extraction

    def _extract(self, prompt: str) -> str:
        parts = _sections(prompt)
        payload = json.loads(parts["Current Knowledge Graph"])
        name_to_id = {n["knowledge"]: n["id"] for n in payload["nodes"]}
        triple_to_edge: dict[tuple, str] = {}
        for e in payload["edges"]:
            m = _REP_SPLIT.match(e["representation"])
            if m:
                triple_to_edge[(m.group(1), m.group(2), m.group(3))] = e["id"]
        next_node = 1 + max((node_num(n["id"]) for n in payload["nodes"]), default=0)
        next_edge = 1 + max((edge_num(e["id"]) for e in payload["edges"]), default=0)

        new_nodes: list[dict] = []
        new_edges: list[dict] = []
        ev_map: dict[str, list[str]] = {}
        for line in parts["Evidence Statements"].splitlines():
            label, sep, _ = line.partition(": ")
            if not (sep and is_id(label, "EN")):
                continue
            for marker in MARKER_RE.finditer(line):
                src_name, rel, tgt_name = marker.group(1), marker.group(2), marker.group(3)
                for name in (src_name, tgt_name):
                    if name not in name_to_id:
                        nid = f"n{next_node}"
                        next_node += 1
                        name_to_id[name] = nid
                        new_nodes.append(
                            {
                                "id": nid,
                                "node_name": name,
                                "is_core_entity": name.startswith("core"),
                            }
                        )
                triple = (src_name, rel, tgt_name)
                if triple in triple_to_edge:
                    eid = triple_to_edge[triple]
                else:
                    eid = f"e{next_edge}"
                    next_edge += 1
                    triple_to_edge[triple] = eid
                    new_edges.append(
                        {
                            "id": eid,
                            "source_id": name_to_id[src_name],
                            "target_id": name_to_id[tgt_name],
                            "relation_name": rel,
                        }
                    )
                ev_map.setdefault(label, [])
                if eid not in ev_map[label]:
                    ev_map[label].append(eid)
        return json.dumps(
            {"new_nodes": new_nodes, "new_edges": new_edges, "evidences_map": ev_map}
        )

    # retrieval plumbing

    def _filter_urls(self, prompt: str) -> str:
        parts = _sections(prompt)
        count = sum(
            1 for line in parts["Results"].splitlines() if re.match(r"^\d+\. ", line)
        )
        return json.dumps(list(range(count)))

    def _assess_page(self, prompt: str) -> str:
        assessments = []
        for page in _PAGE_CONTENT_RE.findall(prompt):
            lines = page.strip("\n").splitlines()
            markers = [ln for ln in lines if "[[" in ln]
            assessments.append(
                {
                    "useful": True,
                    "summary": lines[0] if lines else "empty page",
                    "salient_content": " ".join(markers),
                }
            )
        return json.dumps(assessments)

    # judging and writing

    def _judge(self, prompt: str) -> str:
        parts = _sections(prompt)
        profiles = self._parse_profiles(parts["Current Outline"])
        sources = [line.partition(": ") for line in parts["Evidence Sources"].split("\n")]
        cited_docs = sum(bool(sep) and is_id(head, "id_") for head, sep, _ in sources)
        cov = cited_docs / len(self.world.docs) if self.world.docs else 1.0
        base = round(100.0 * min(cov, 1.0), 4)
        if profiles:
            support = round(
                100.0 * sum(1 for _, ids in profiles if ids) / len(profiles), 4
            )
        else:
            support = 0.0
        scores = dict.fromkeys(SCORE_DIMENSIONS, base)
        scores.update(instruction_following=100.0, support=support)
        return json.dumps(scores)

    def _write_section(self, prompt: str) -> str:
        outline = _sections(prompt)["Current Section Outline"]
        out: list[str] = []
        for line in outline.splitlines():
            m = re.match(r"^(\d+(?:\.\d+)*)\.? (.*)$", line)
            if m and not re.match(r"^[a-z]\. ", line):
                number, text = m.group(1), m.group(2)
                depth = number.count(".") + 1
                marker = "#" * (depth + 1)
                suffix = "." if depth == 1 else ""
                out.append(f"{marker} {number}{suffix} {text}")
                continue
            body = re.sub(r"^[a-z]\. ", "", line)
            cm = _CITE_RE.search(body)
            if cm:
                ids = sorted(map(parse_citation_token, cm.group(1).split(",")))
                body = _CITE_RE.sub("", body).strip()
                out.append(f"{body} [{','.join(str(i) for i in ids)}].")
            else:
                out.append(f"{body}.")
        return "\n\n".join(out)


def sim_providers(world: World, embed_dim: int, embed_seed: int) -> Providers:
    return Providers(
        chat=SimChatProvider(world),
        search=SimSearchProvider(world),
        fetch=_sim_fetcher(world),
        embed=HashEmbeddingProvider(dim=embed_dim, seed=embed_seed),
    )


# -- driving runs ------------------------------------------------------


@dataclass
class SimRunResult:
    state: RunState
    coverage_by_iteration: dict[int, float]

    @property
    def termination_iteration(self) -> int:
        return self.state.iteration

    @property
    def stopped(self) -> bool:
        return self.state.stopped

    @property
    def final_coverage(self) -> float:
        return self.coverage_by_iteration[max(self.coverage_by_iteration)]

    def coverage_at(self, iteration: int) -> float:
        reached = [i for i in self.coverage_by_iteration if i <= iteration]
        return self.coverage_by_iteration[max(reached)]


def run_sim(
    world: World, config: RunConfig, root_query: str = DEFAULT_ROOT_QUERY
) -> SimRunResult:
    """Drive a full in-memory run against the world, report included, recording
    bank coverage at every boundary."""
    providers = sim_providers(world, embed_dim=config.embed_dim, embed_seed=config.seed)
    curve = {}
    for state in drive(RunState(root_query=root_query, config=config), providers):
        curve[state.iteration] = bank_coverage(state.bank, world)
    return SimRunResult(state=state, coverage_by_iteration=curve)


def _ablation_config(variant: Variant, seed: int, overrides: dict | None) -> RunConfig:
    base = {
        "max_iter": 12,
        "og_query_budget": 2,
        "kg_query_budget": 4,
        "urls_per_query": 12,
        "early_stop_thresholds": 90.0,
        "seed": seed,
        "variant": variant,
    }
    if overrides:
        base.update(overrides)
    base["variant"] = variant
    base["seed"] = seed
    return RunConfig(**base)


def run_ablation(
    seeds: list[int],
    world_kwargs: dict | None = None,
    config_overrides: dict | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """Paired runs of both variants on identical worlds.

    Returns a summary with per-seed rows and aggregate means; optionally
    writes ablation.csv and ablation.json under out_dir.
    """
    wk = {"n_communities": 3, "cores_per_community": 2, "concepts_per_community": 4}
    if world_kwargs:
        wk.update(world_kwargs)
    rows = []
    for seed in seeds:
        world = generate_world(seed=seed, **wk)
        results = {}
        for variant in (Variant.DUAL_GRAPH, Variant.OUTLINE_ONLY):
            cfg = _ablation_config(variant, seed, config_overrides)
            results[variant] = run_sim(world, cfg)
        dg, oo = results[Variant.DUAL_GRAPH], results[Variant.OUTLINE_ONLY]
        rows.append(
            {
                "seed": seed,
                "dualgraph_termination": dg.termination_iteration,
                "outline_only_termination": oo.termination_iteration,
                "dualgraph_stopped": dg.stopped,
                "outline_only_stopped": oo.stopped,
                "dualgraph_coverage_at_2": dg.coverage_at(2),
                "outline_only_coverage_at_2": oo.coverage_at(2),
                "dualgraph_final_coverage": dg.final_coverage,
                "outline_only_final_coverage": oo.final_coverage,
            }
        )
    n = len(rows)
    summary = {
        "n_seeds": n,
        "rows": rows,
        "mean_termination": {
            "dualgraph": sum(r["dualgraph_termination"] for r in rows) / n,
            "outline-only": sum(r["outline_only_termination"] for r in rows) / n,
        },
        "mean_final_coverage": {
            "dualgraph": sum(r["dualgraph_final_coverage"] for r in rows) / n,
            "outline-only": sum(r["outline_only_final_coverage"] for r in rows) / n,
        },
        "coverage_at_2_wins": sum(
            1
            for r in rows
            if r["dualgraph_coverage_at_2"] > r["outline_only_coverage_at_2"]
        ),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "ablation.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        (out / "ablation.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    return summary
