"""Run loop co-evolving the outline and the knowledge graph.

The dual variant follows this per-iteration order: have the model select
chains of the knowledge graph and write their queries (after the first pass,
the same call writes the outline-gap queries too), dedup, search, fold results
into the knowledge graph, revise the outline, and check the early stop. The
outline-only variant revises the outline first, generates queries from it,
searches, and checks the early stop; it never touches a knowledge graph.

Each fact of a run has one home, the run state, and nothing keeps a second
copy: phases read the config from ``state.config``, whether the run stopped is
the last early-stop report's verdict, and the stop bar behind that verdict is
the config's.

``drive`` yields the state after init_run, after each loop pass and after the
report: ``Runner`` checkpoints there, through a ``rundir.RunDir``, the one owner
of the run directory's files, and ``simulate.run_sim`` measures there.
run_iteration is functional (state in, new state out), so a provider failure
mid-iteration loses nothing but in-flight work (the state it interrupted is
already committed), and a resumed run converges to the same bytes as an
uninterrupted one. ``drive`` holds one state object: init_run and
write_report change it in place, and only run_iteration clones. Every phase
embeds through one memo above the provider ``drive`` is given, the state's
``embeddings`` (``rundir._EmbedOnce``), so each distinct text reaches
``providers.embed`` at most once per run.

Besides adding to the memo, phases change a state in place in three ways
only: they append to its four lists (executed queries, early-stop history,
events, audit), add units to its bank, and change its graph: add nodes and
edges (``apply_extraction``), collapse concept clusters (``merge_nodes``) or
set fields on its nodes. Everything else they replace whole, and no audit
record changes once made. So ``RunState.clone`` copies the graph, the bank and
the four lists, and shares the rest; it is the only copy of a graph the engine
makes.

In particular an outline in a state is never changed in place: a revision
builds a new one. So a state renders each outline once (``RunState.outline_text``),
and every prompt and checkpoint that shows the outline uses that text.

Every model call takes one path, ``_chat_parsed``: it renders the named
template, audits the exchange under that name, and parses the answer.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .chains import ChainConfig, SearchChain, build_search_chains, format_chains_for_prompt
from .config import ConfigError, RunConfig, Variant
from .evidence import EvidenceBank, citation_token, normalize_url
from .kg import (
    CommunityPartition, KnowledgeGraph, KnowledgeGraphError, apply_extraction, cluster_semantic,
    detect_communities, merge_nodes,
)
from .outline import (
    OutlineError, OutlineGraph, apply_revision, check_citations, parse_outline, render_outline,
)
from .providers.base import FetchError, ProviderError, Providers, SearchResult
from .providers import parsers
from .providers.parsers import ParseError
from .rundir import Audit, EarlyStopReport, RunDir, _EmbedOnce, _Tape, state_document

log = logging.getLogger(__name__)

__all__ = [
    "Variant", "ConfigError", "RunConfig", "EarlyStopReport", "Audit", "RunState", "init_run",
    "run_iteration", "write_report", "drive", "dedup_queries", "normalize_query", "Runner", "run",
]


@dataclass
class RunState:
    root_query: str
    config: RunConfig
    stage: str = "init"  # init | loop | done
    iteration: int = 0  # completed loop passes
    og: OutlineGraph | None = None
    kg: KnowledgeGraph | None = None
    bank: EvidenceBank = field(default_factory=EvidenceBank)
    executed_queries: list[str] = field(default_factory=list)
    early_stop_history: list[EarlyStopReport] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    audit: Audit = field(default_factory=Audit)
    chain_record: dict | None = None  # this iteration's chains, checkpointed beside its graph
    report: str | None = None
    # (og, its wire text), kept while og names the same outline; clone shares it.
    _outline_memo: tuple[OutlineGraph, str] | None = field(default=None, repr=False, compare=False)
    # Every text the run has embedded -> its float64 row, in first-request order;
    # only ever added to, so clone shares it. The run directory's embed log holds it.
    embeddings: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @property
    def stopped(self) -> bool:
        """Whether the last early-stop report says stop."""
        return bool(self.early_stop_history) and self.early_stop_history[-1].stop

    def outline_text(self) -> str:
        """The wire text of the current outline, rendered once per outline object."""
        memo = self._outline_memo
        if memo is None or memo[0] is not self.og:
            memo = self._outline_memo = (self.og, render_outline(self.og))
        return memo[1]

    def clone(self) -> "RunState":
        """A copy phases may change: they only append to the four lists, add to
        the bank and change the graph, so only those are copied. The embedding
        memo only grows, and is shared. Of the audit, only the records made
        since the last checkpoint are held, so only those are copied."""
        return replace(
            self,
            kg=None if self.kg is None else self.kg.copy(),
            bank=self.bank.copy(),
            executed_queries=list(self.executed_queries),
            early_stop_history=list(self.early_stop_history),
            events=list(self.events),
            audit=self.audit.copy(),
        )

    def to_dict(self) -> dict:
        """The checkpoint's own document; the run directory's other files hold the rest."""
        return state_document(self)


# -- provider call helpers ---------------------------------------------


_RETRIES = 2  # re-asks after a malformed chat response


def _chat_parsed(state, providers, name, variables, parse_fn, attempts=_RETRIES):
    """Render template ``name`` (with the run's ``ROOT_QUERY``), ask, audit the
    exchange under ``name``, parse, and re-ask the identical prompt on contract
    violations."""
    prompt = parsers.render(name, {"ROOT_QUERY": state.root_query, **variables})
    last_error: Exception | None = None
    for _ in range(attempts + 1):
        response = providers.chat.complete(prompt)
        state.audit.append({"name": name, "prompt": prompt, "response": response})
        try:
            return parse_fn(response)
        except (ParseError, OutlineError, KnowledgeGraphError) as exc:
            last_error = exc
            log.warning("%s response rejected: %s", name, exc)
    raise ParseError(f"{name}: no valid response after {attempts + 1} attempts: {last_error}")


def _kg_json(kg: KnowledgeGraph) -> str:
    """The graph as every prompt that shows it carries it."""
    return json.dumps(kg.to_prompt_payload(), ensure_ascii=False)


# -- query handling ----------------------------------------------------

_TRAILING_PUNCT = ".?!,;:"


def normalize_query(query: str) -> str:
    collapsed = " ".join(query.split()).casefold()
    return collapsed.rstrip(_TRAILING_PUNCT).strip()


def dedup_queries(new: list[str], executed: list[str], embed, threshold: float = 0.95) -> list[str]:
    """Drop exact (normalized) and near-duplicate queries, preserving order.

    Near-duplicate: cosine >= ``threshold`` with an executed query or an
    earlier kept candidate. One embed call covers all of them.
    """
    prior = dict.fromkeys(normalize_query(q) for q in executed)
    candidates: dict[str, str] = {}
    for q in new:
        nq = normalize_query(q)
        if nq and nq not in candidates and nq not in prior:
            candidates[nq] = q.strip()
    if not candidates or (not prior and len(candidates) == 1):
        return list(candidates.values())
    vectors = embed(list(prior) + list(candidates))
    reference = list(range(len(prior)))
    kept: list[str] = []
    for row, q in enumerate(candidates.values(), start=len(prior)):
        if reference and float((vectors[reference] @ vectors[row]).max()) >= threshold:
            continue
        reference.append(row)
        kept.append(q)
    return kept


def _executed_block(state: RunState) -> str:
    """The executed queries, one per line, as every query-writing prompt shows them."""
    return "\n".join(state.executed_queries) or "(none)"


# -- retrieval pipeline ------------------------------------------------


# UTF-8 bytes of entries in one filter_urls, assess_page or extract_knowledge prompt
_CHUNK_BYTES = 16_000


def _chunks(entries: list[str]) -> Iterator[range]:
    """Consecutive index ranges of ``entries`` whose UTF-8 bytes total at most
    ``_CHUNK_BYTES``; an entry over the budget is a range of its own, never
    truncated."""
    start = size = 0
    for i, entry in enumerate(entries):
        n = len(entry.encode("utf-8"))
        if i > start and size + n > _CHUNK_BYTES:
            yield range(start, i)
            start, size = i, 0
        size += n
    if start < len(entries):
        yield range(start, len(entries))


def run_search_pipeline(
    state: RunState, providers: Providers, queries: list[str], iteration: int
) -> dict[str, list[int]]:
    """Search, filter, fetch, assess and bank for one pass; returns new ids per query.

    Every query is searched first, in order. The pass's URLs are the results'
    non-blank URLs that are not banked, each kept once, in query order and then
    rank order, and credited to the first query that returned it. The filter
    and the assessment each judge them in chunks (``_chunks``), one chat call
    per chunk with chunk-local indices, so a pass with no new URL makes no chat
    call and a malformed answer re-asks only its chunk. Selected URLs are
    fetched in order; a ``FetchError`` drops that page alone. Useful pages are
    banked in page order.
    """
    hits: dict[str, tuple[str, SearchResult]] = {}  # normalized URL -> (first query, result)
    for query in queries:
        found = providers.search.search(query, state.config.urls_per_query)
        results = [r for r in found if r.url.strip()]
        if len(results) < len(found):
            log.warning("dropped %d blank-URL result(s) for %r", len(found) - len(results), query)
        for r in results:
            key = normalize_url(r.url)
            if key not in hits and not state.bank.has_url(r.url):
                hits[key] = (query, r)

    union = list(hits.values())
    entries = [f"{r.title}\n   query: {query}\n   {r.snippet}\n   {r.url}" for query, r in union]
    selected: list[tuple[str, SearchResult]] = []
    for chunk in _chunks(entries):
        indices = _chat_parsed(
            state, providers, "filter_urls",
            {"RESULTS": "\n".join(f"{i}. {entries[j]}" for i, j in enumerate(chunk))},
            lambda text: parsers.parse_index_selection(text, len(chunk)),
        )
        selected += [union[chunk[i]] for i in sorted(indices)]

    fetched: list[tuple[str, SearchResult, str]] = []
    for query, r in selected:
        try:
            fetched.append((query, r, providers.fetch.fetch(r.url)))
        except FetchError as exc:
            log.warning("fetch failed for %s: %s", r.url, exc)

    entries = [
        f"<query>{query}</query>\n<url>{r.url}</url>\n<content>\n{page}\n</content>"
        for query, r, page in fetched
    ]
    new_by_query: dict[str, list[int]] = {query: [] for query in queries}
    for chunk in _chunks(entries):
        assessments = _chat_parsed(
            state, providers, "assess_page",
            {"PAGES": "\n\n".join(
                f'<page index="{i}">\n{entries[j]}\n</page>' for i, j in enumerate(chunk)
            )},
            lambda text: parsers.parse_page_assessment(text, len(chunk)),
        )
        for j, assessment in zip(chunk, assessments):
            query, r, _ = fetched[j]
            if assessment.useful:
                # An id, never None: the pass holds no banked URL, and each URL once.
                new_by_query[query].append(state.bank.add(
                    url=r.url, title=r.title, query=query, summary=assessment.summary,
                    content=assessment.salient_content, iteration=iteration,
                ))
    state.executed_queries.extend(queries)
    return new_by_query


# -- query generation --------------------------------------------------


def gen_queries_from_og(state: RunState, providers: Providers) -> list[str]:
    """Up to ``og_query_budget`` queries for the outline's gaps, avoiding the
    executed ones. Every query a pass writes comes from one call, so none is
    ever pending."""
    assert state.og is not None
    budget = state.config.og_query_budget
    return _chat_parsed(
        state, providers, "generate_queries",
        {
            "QUERY_NUM": str(budget),
            "OUTLINE": state.outline_text(),
            "EXECUTED_QUERIES": _executed_block(state),
            "PENDING_QUERIES": "(none)",
        },
        lambda text: parsers.parse_query_lines(text, budget),
        1,
    )


def _embed_missing(kg: KnowledgeGraph, embed) -> None:
    """Embed, in node order, the nodes with no vector: new, renamed, or read from disk."""
    missing = [nid for nid in kg.node_ids() if kg.nodes[nid].embedding is None]
    if missing:
        vectors = embed([kg.nodes[nid].name for nid in missing])
        for nid, vec in zip(missing, vectors):
            kg.nodes[nid].embedding = vec


def gen_queries_from_kg(
    state: RunState, providers: Providers, outline_queries: list[str] | None = None
) -> tuple[list[str], list[SearchChain], list[str]]:
    """Build chains and have the provider select some; returns the selected
    chains' queries, the candidate chains and the selected chain ids.

    Given ``outline_queries``, the same call also writes up to
    ``og_query_budget`` queries for the outline's gaps, avoiding the executed
    and the chain queries, and appends them to that list; without it, the
    call asks for none. A graph with no candidate chain makes no call and
    leaves the list as it was.
    """
    assert state.kg is not None and state.og is not None
    if len(state.kg) == 0:
        return [], [], []
    config = state.config
    _embed_missing(state.kg, providers.embed.embed)
    # The partition update_kg stored on the nodes; the run-dir reader rejects a
    # graph read from disk with a node it never placed.
    assignment = {nid: node.community_id for nid, node in state.kg.nodes.items()}
    partition = CommunityPartition(assignment=assignment, seed=config.seed)
    chains = build_search_chains(
        state.kg, partition, ChainConfig(total=config.kg_query_budget, seed=config.seed)
    )
    if not chains:
        return [], [], []
    known_ids = {c.chain_id for c in chains}
    query_num = 0 if outline_queries is None else config.og_query_budget

    def parse_and_check(text: str) -> parsers.ChainSelection:
        selection = parsers.parse_chain_selection(text, config.kg_query_budget, query_num)
        for cid in selection.chain_ids:
            if cid not in known_ids:
                raise parsers.DanglingReference(f"selection names unknown chain {cid}")
        return selection

    selection = _chat_parsed(
        state, providers, "select_chains",
        {
            "CHAIN_NUM": str(config.kg_query_budget),
            "QUERY_NUM": str(query_num),
            "OUTLINE": state.outline_text(),
            "EXECUTED_QUERIES": _executed_block(state),
            "KG_PAYLOAD": _kg_json(state.kg),
            "CANDIDATE_CHAINS": format_chains_for_prompt(chains, state.kg),
        },
        parse_and_check,
        1,
    )
    if outline_queries is not None:
        outline_queries.extend(selection.outline_queries)
    return selection.queries, chains, selection.chain_ids


# -- knowledge-graph update -------------------------------------------


def _evidence_block(bank: EvidenceBank, ids: list[int]) -> str:
    lines = []
    for ev_id in ids:
        unit = bank.get(ev_id)
        lines.append(f"{citation_token(ev_id)} | {unit.title} | {unit.url}")
        lines.append(f"summary: {unit.summary}")
        if unit.content:
            lines.append(f"content: {unit.content}")
    return "\n".join(lines) or "(none)"


def _flatten(text: str) -> str:
    return " ".join(text.split())


def _concept_groups(kg: KnowledgeGraph, clusters: dict[str, int]) -> list[list[str]]:
    """The concept members of each semantic cluster that holds two or more, in node order."""
    groups: dict[int, list[str]] = {}
    for nid, label in clusters.items():
        if not kg.nodes[nid].is_core_entity:
            groups.setdefault(label, []).append(nid)
    return [members for members in groups.values() if len(members) >= 2]


def _groups_block(kg: KnowledgeGraph, groups: list[list[str]]) -> str:
    """Each group's nodes as ``id | name`` lines, each followed by its relations."""
    relations: dict[str, list[str]] = {nid: [] for members in groups for nid in members}
    for e in kg.edges.values():
        for end in {e.source_id, e.target_id} & relations.keys():
            relations[end].append(f"  {kg.representation(e.edge_id)}")
    lines = []
    for number, members in enumerate(groups, start=1):
        lines.append(f"Group {number}:")
        for nid in members:
            lines.append(f"{nid} | {kg.nodes[nid].name}")
            lines.extend(relations[nid])
    return "\n".join(lines)


def _merge_concepts(state: RunState, providers: Providers, groups: list[list[str]]) -> bool:
    """Ask which nodes of ``groups`` to merge and merge them; whether the graph changed.

    A cluster naming a node outside the groups, or nodes of two groups, is a
    dangling reference and is re-asked. A proposal still bad after the re-asks
    is rejected, never fatal: the graph stands.
    """
    kg = state.kg
    group_of = {nid: g for g, members in enumerate(groups) for nid in members}

    def parse_and_merge(text: str) -> bool:
        clusters = parsers.parse_merge(text)
        for cluster in clusters:
            shown = {group_of.get(nid) for nid in cluster.source_node_ids}
            if None in shown or len(shown) > 1:
                raise parsers.DanglingReference(
                    f"merge cluster {cluster.source_node_ids} is not within one shown group"
                )
        if clusters:
            merge_nodes(kg, clusters)
        return bool(clusters)

    try:
        return _chat_parsed(
            state, providers, "merge_concepts",
            {"CONCEPT_GROUPS": _groups_block(kg, groups)}, parse_and_merge,
        )
    except ParseError as exc:
        log.warning("merge batch rejected, keeping graph untouched: %s", exc)
        return False


def update_kg(state: RunState, providers: Providers, new_by_query: dict[str, list[int]]) -> None:
    """Extraction, semantic clustering, gated concept merge, community detection.

    The pass's new units are extracted in bank order, one statement each
    naming its query, in chunks (``_chunks``): one chat call per chunk with
    chunk-local ``EN`` labels, each seeing the graph as the previous chunk
    left it. So a pass that banked nothing makes no extraction call, and a
    malformed answer re-asks only its chunk.

    Then the graph's names are embedded and clustered (``cluster_semantic``),
    and the merge call is made only when some cluster holds two or more
    concept nodes: its prompt shows those groups, not the graph, so a pass
    with no near-duplicate group makes no merge call. Only a merge that
    changed the graph re-embeds and re-clusters before community detection.
    """
    assert state.kg is not None
    kg = state.kg
    ev_ids = [ev_id for ids in new_by_query.values() for ev_id in ids]
    entries = [
        f"{_flatten(unit.summary)} {_flatten(unit.content)}".rstrip() + f"\n   query: {unit.query}"
        for unit in map(state.bank.get, ev_ids)
    ]
    for chunk in _chunks(entries):
        labels = {f"EN{i}": ev_ids[j] for i, j in enumerate(chunk, start=1)}
        statements = "\n".join(f"{label}: {entries[j]}" for label, j in zip(labels, chunk))
        _chat_parsed(
            state, providers, "extract_knowledge",
            {"EVIDENCE_STATEMENTS": statements, "KG_PAYLOAD": _kg_json(kg)},
            lambda text: apply_extraction(kg, parsers.parse_extraction(text), labels),
        )

    if not kg.nodes:
        return
    _embed_missing(kg, providers.embed.embed)
    clusters = cluster_semantic(kg)
    groups = _concept_groups(kg, clusters)
    if groups and _merge_concepts(state, providers, groups):
        _embed_missing(kg, providers.embed.embed)
        clusters = cluster_semantic(kg)
    partition = detect_communities(kg, seed=state.config.seed)
    for nid in kg.node_ids():
        kg.nodes[nid].cluster_id = clusters[nid]
        kg.nodes[nid].community_id = partition.assignment[nid]


# -- outline update ----------------------------------------------------


def update_og(state: RunState, providers: Providers) -> None:
    """Revise the outline against all not-yet-cited evidence."""
    assert state.og is not None
    cited = state.og.all_citations()
    uncited = [u.evidence_id for u in state.bank.units if u.evidence_id not in cited]

    def parse_and_repair(text: str) -> OutlineGraph:  # state.og is still the old outline
        return apply_revision(state.og, text, state.bank, providers.embed.embed)

    state.og = _chat_parsed(
        state, providers, "revise_outline",
        {
            "CURRENT_OUTLINE": state.outline_text(),
            "NEW_EVIDENCE": _evidence_block(state.bank, uncited),
            "KG_CONTEXT": "(not in use)" if state.kg is None else _kg_json(state.kg),
        },
        parse_and_repair,
    )


# -- early stop --------------------------------------------------------


def evaluate_early_stop(
    state: RunState, providers: Providers, config: RunConfig
) -> EarlyStopReport:
    """Six-dimension rubric; stopping needs every score at the config's stop bar.

    The support dimension is forced to zero locally whenever the outline
    carries no citations, so an uncited outline can never stop the run.
    """
    assert state.og is not None
    cited = sorted(state.og.all_citations())
    digest = "\n".join(f"{citation_token(i)}: {state.bank.get(i).url}" for i in cited)
    try:
        scores = _chat_parsed(
            state, providers, "judge_outline",
            {"OUTLINE": state.outline_text(), "EVIDENCE_DIGEST": digest or "(no citations)"},
            parsers.parse_scores,
            1,
        )
    except ParseError as exc:
        log.warning("early-stop scores unusable, continuing run: %s", exc)
        scores = {dim: 0.0 for dim in parsers.SCORE_DIMENSIONS}
    if not cited:
        scores["support"] = 0.0
    stop = all(score >= config.early_stop_thresholds for score in scores.values())
    return EarlyStopReport(scores=scores, stop=stop)


# -- report ------------------------------------------------------------


def write_report(state: RunState, providers: Providers) -> str:
    """One chat call per top-level section; subsections are inlined."""
    assert state.og is not None
    og = check_citations(state.og, state.bank)
    state.events.append("report:write")
    sections_md: list[str] = []
    for section in og.sections:
        subtree = OutlineGraph(title=og.title, sections=[section])
        snippet = render_outline(subtree).split("\n", 1)[1]
        cited = sorted(subtree.all_citations())
        evidence_lines = []
        for ev_id in cited:
            unit = state.bank.get(ev_id)
            evidence_lines.append(f"{ev_id} | {unit.title} | {unit.url}")
            evidence_lines.append(f"summary: {unit.summary}")
        sections_md.append(_chat_parsed(
            state, providers, "write_section",
            {
                "REPORT_TITLE": og.title,
                "PREVIOUS_SECTIONS": "\n\n".join(sections_md) or "(none)",
                "SECTION_OUTLINE": snippet.strip(),
                "EVIDENCE": "\n".join(evidence_lines) or "(none)",
            },
            str.strip,
            0,
        ))
    report = f"# {og.title}\n\n" + "\n\n".join(sections_md) + "\n"
    state.report = report
    return report


# -- lifecycle ---------------------------------------------------------


def init_run(state: RunState, providers: Providers) -> None:
    """Create the outline, run the first retrieval round, build the graph."""
    state.events.append("init:create_outline")
    state.og = _chat_parsed(
        state, providers, "create_outline", {},
        lambda text: check_citations(parse_outline(text), state.bank),
    )

    state.events.append("init:gen_from_og")
    queries = gen_queries_from_og(state, providers)
    queries = dedup_queries(queries, state.executed_queries, providers.embed.embed)
    state.events.append("init:search")
    new_by_query = run_search_pipeline(state, providers, queries, iteration=0)

    if state.config.variant is Variant.DUAL_GRAPH:
        state.events.append("init:build_kg")
        state.kg = KnowledgeGraph()
        update_kg(state, providers, new_by_query)
    state.stage = "loop"


def run_iteration(state: RunState, providers: Providers) -> RunState:
    """Execute one loop pass; returns the next state, input untouched."""
    if state.iteration >= state.config.max_iter:
        raise ValueError("run already at max_iter")
    if state.stopped:
        raise ValueError("run already stopped")
    s = state.clone()
    t = s.iteration
    if s.config.variant is Variant.DUAL_GRAPH:
        # After the first pass, the chain selection call also writes the
        # outline-gap queries; generate_queries writes them only for a pass
        # with no candidate chain, which makes no selection call.
        og_queries: list[str] = []
        s.events.append(f"iter{t}:gen_from_kg")
        kg_queries, chains, selected = gen_queries_from_kg(
            s, providers, og_queries if t > 0 else None
        )
        if t > 0:
            s.events.append(f"iter{t}:gen_from_og")
            if not chains:
                og_queries = gen_queries_from_og(s, providers)
        s.events.append(f"iter{t}:dedup")
        queries = dedup_queries(kg_queries + og_queries, s.executed_queries, providers.embed.embed)
        s.events.append(f"iter{t}:search")
        new_by_query = run_search_pipeline(s, providers, queries, iteration=t + 1)
        s.events.append(f"iter{t}:update_kg")
        update_kg(s, providers, new_by_query)
        s.events.append(f"iter{t}:update_og")
        update_og(s, providers)
        s.chain_record = {
            "candidates": [c.to_dict() for c in chains],
            "selected": selected,
            "queries": kg_queries,
        }
    else:
        s.events.append(f"iter{t}:update_og")
        update_og(s, providers)
        s.events.append(f"iter{t}:gen_from_og")
        raw = gen_queries_from_og(s, providers)
        s.events.append(f"iter{t}:dedup")
        queries = dedup_queries(raw, s.executed_queries, providers.embed.embed)
        s.events.append(f"iter{t}:search")
        run_search_pipeline(s, providers, queries, iteration=t + 1)

    if t >= 1:
        s.events.append(f"iter{t}:early_stop")
        s.early_stop_history.append(evaluate_early_stop(s, providers, s.config))
    s.iteration = t + 1
    return s


def drive(state: RunState, providers: Providers) -> Iterator[RunState]:
    """Run ``state`` to its report, yielding it at each boundary; a done run yields nothing.

    The phases embed through an ``_EmbedOnce`` over ``state.embeddings``;
    ``providers`` is left as given, and a done run needs none.
    """
    if state.stage == "done":
        return
    providers = replace(providers, embed=_EmbedOnce(providers.embed, state.embeddings))
    if state.stage == "init":
        init_run(state, providers)
        yield state
    while state.stage == "loop" and not state.stopped and state.iteration < state.config.max_iter:
        state = run_iteration(state, providers)
        yield state
    if state.stage == "loop":
        write_report(state, providers)
        state.stage = "done"
        yield state


class Runner:
    """Drives a run in the directory ``files``: checkpoints, resume, and final
    report. ``resume`` goes on only if ``config`` is the one the run commits."""

    def __init__(self, config: RunConfig, providers: Providers, run_dir: str | Path):
        self.config = config
        self.providers = providers
        self.run_dir = Path(run_dir)
        self.files = RunDir(self.run_dir)

    def _checkpoint(self, state: RunState) -> None:
        self.files.commit(state)

    def load_state(self) -> RunState:
        return RunState(**self.files.load())

    def start(self, root_query: str) -> RunState:
        self.files.clear()
        state = RunState(root_query=root_query, config=self.config)
        self._checkpoint(state)
        return self._drive(state)

    def resume(self) -> RunState:
        state = self.load_state()
        return self._drive(state, self.files.reopen(state, self.config))

    def _drive(self, state: RunState, replay: Iterable[tuple] = ()) -> RunState:
        # Nothing reads the state a failure interrupted: the files hold the last
        # committed boundary. A provider failure spills what the tape holds, then
        # what is left of the replay, so the next resume pays for none of it again.
        if state.stage == "done":  # a finished run needs no providers
            return state
        tape = _Tape(self.providers, replay)
        try:
            for state in drive(state, replace(self.providers, chat=tape, search=tape, fetch=tape)):
                self._checkpoint(state)
                tape.exchanges.clear()
                tape.queue.clear()
        except ProviderError:
            self.files.spill([*tape.exchanges, *tape.queue])
            raise
        return state


def run(root_query: str, config: RunConfig, providers: Providers, run_dir: str | Path) -> RunState:
    return Runner(config, providers, run_dir).start(root_query)
