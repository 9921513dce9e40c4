"""Run loop co-evolving the outline and the knowledge graph.

The dual variant follows this per-iteration order: generate queries from the
knowledge graph, then (after the first pass) from the outline, dedup, search,
fold results into the knowledge graph, revise the outline, and check the early
stop. The outline-only variant revises the outline first, generates queries
from it, searches, and checks the early stop; it never touches a knowledge
graph.

Each fact of a run has one home, the run state, and nothing keeps a second
copy: phases read the config from ``state.config``, whether the run stopped is
the last early-stop report's verdict, and the stop bar behind that verdict is
the config's.

``drive`` yields the state after init_run, after each loop pass and after the
report: ``Runner`` checkpoints there, and ``simulate.run_sim`` measures there.
run_iteration is functional (state in, new state out), so a provider failure
mid-iteration loses nothing but in-flight work (the state it interrupted is
already committed), and a resumed run converges to the same bytes as an
uninterrupted one. ``drive`` holds one state object: init_run and
write_report change it in place, and only run_iteration clones. Every phase
embeds through one memo above the provider ``drive`` is given, the state's
``embeddings`` (text to vector, in first-request order), so each distinct text
reaches ``providers.embed`` at most once per run. Entries are only ever added,
so clones share the memo, and at each checkpoint it holds exactly the texts the
run has asked for so far: a resume starts from the committed memo, asks for
the same texts in the same order as an uninterrupted run, and embeds only the
texts the fault lost.

Besides adding to the memo, phases change a state in place in three ways
only: they append to its four lists (executed queries, early-stop history,
events, audit), add units to its bank, and change its graph: add nodes and
edges (``apply_extraction``), collapse concept clusters (``merge_nodes``) or
set fields on its nodes. Everything else they replace whole, and no audit
record changes once made. So ``RunState.clone`` copies the graph, the bank and
the four lists, and shares the rest; it is the only copy of a graph the engine
makes.

Of the four lists, only the audit is not kept whole: nothing reads a chat
record once it is made, so a state holds the records made since its last
checkpoint and counts those ``audit.jsonl`` already holds (``Audit``), and a
clone copies only that short tail. ``drive`` commits nothing, so a state that
no ``Runner`` checkpoints holds every record of its run.

In particular an outline in a state is never changed in place: a revision
builds a new one. So a state renders each outline once (``RunState.outline_text``),
and every prompt and checkpoint that shows the outline uses that text.

A checkpoint costs what the iteration changed: the audit records, bank units
and memo entries made since the last one are appended to ``audit.jsonl``,
``bank.jsonl`` and ``embed.jsonl``, the state drops the audit records it
appended, and ``state.json`` commits the three logs by count. No log is ever
rewritten: ``Runner.start`` deletes them, and ``Runner.resume`` cuts each in
place where ``load_state`` stopped reading its committed lines, so a resume
reads each log once and costs what the fault lost. ``load_state`` decodes
every committed audit line, so a damaged one is found, and keeps none.

Every model call takes one path, ``_chat_parsed``: it renders the named
template, audits the exchange under that name, and parses the answer.

Nor does a fault cost the chat, search and fetch answers its attempt already
got. ``Runner`` keeps every such exchange made since the last checkpoint on a
``_Tape``. When a ``ProviderError`` stops the run, it writes them to
``replay.jsonl``, the only file a failure writes; a ``ParseError`` or
``ConfigError`` writes nothing, so a bad answer is never replayed. A resume
serves each call whose kind and request equal the next recorded exchange from
the file, with no provider call; the first call that differs drops the rest.
The first checkpoint deletes the file, so a finished run directory holds none.
Embed calls stay off the tape: the memo in ``embed.jsonl`` covers them.

``Runner.read`` is the one reader of the run directory: ``load_state``, resume
and the CLI's inspect commands open every file through it, as bytes. A missing,
undecodable or damaged file is a ``ConfigError`` that names it.
"""

from __future__ import annotations

import base64
import json
import logging
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import islice
from pathlib import Path

import numpy as np

from .chains import ChainConfig, SearchChain, build_search_chains, format_chains_for_prompt
from .evidence import EvidenceBank, EvidenceUnit, citation_token, normalize_url
from .kg import (
    CommunityPartition,
    KnowledgeGraph,
    KnowledgeGraphError,
    apply_extraction,
    cluster_semantic,
    detect_communities,
    merge_nodes,
)
from .outline import (
    OutlineError,
    OutlineGraph,
    apply_revision,
    check_citations,
    parse_outline,
    render_outline,
)
from .providers.base import FetchError, ProviderError, Providers, SearchResult
from .providers import parsers
from .providers.parsers import (
    ParseError,
    _require_bool,
    _require_int,
    _require_list,
    _require_object,
    _require_scores,
    _require_str,
    _require_strings,
)

log = logging.getLogger(__name__)

__all__ = [
    "Variant",
    "ConfigError",
    "RunConfig",
    "EarlyStopReport",
    "Audit",
    "RunState",
    "init_run",
    "run_iteration",
    "write_report",
    "drive",
    "dedup_queries",
    "normalize_query",
    "Runner",
    "run",
]

STATE_FILE = "state.json"
REPORT_FILE = "report.md"
BANK_FILE = "bank.json"  # the final bank, beside the report
AUDIT_LOG = "audit.jsonl"
BANK_LOG = "bank.jsonl"
EMBED_LOG = "embed.jsonl"
REPLAY_FILE = "replay.jsonl"  # the exchanges a failed attempt got; see _Tape
FORMAT_VERSION = 8
_LOGS = (AUDIT_LOG, BANK_LOG, EMBED_LOG)  # append-only; state.json commits each by count
_STATE_LOGS = (BANK_LOG, EMBED_LOG)  # the logs whose every entry a state keeps
# Every key RunState.to_dict writes besides format_version.
_STATE_KEYS = (
    "root_query", "config", "stage", "iteration", "executed_queries",
    "early_stop_history", "events", "audit_records", "bank_units", "embedded_texts",
)


class Variant(str, Enum):
    DUAL_GRAPH = "dualgraph"
    OUTLINE_ONLY = "outline-only"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    max_iter: int = 5
    og_query_budget: int = 10
    kg_query_budget: int = 10  # doubles as CHAIN_NUM
    urls_per_query: int = 5
    early_stop_thresholds: float = 75.0  # the bar each of the six judge scores must reach
    seed: int = 0
    variant: Variant = Variant.DUAL_GRAPH
    embed_dim: int = 32

    def __post_init__(self) -> None:
        try:
            self.variant = Variant(self.variant)
        except (ValueError, TypeError):
            raise ConfigError(f"unknown variant {self.variant!r}") from None
        for f in fields(self):  # f.type is the annotation's text
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        positive = ("max_iter", "og_query_budget", "kg_query_budget", "urls_per_query", "embed_dim")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        bar = self.early_stop_thresholds
        if isinstance(bar, bool) or not isinstance(bar, (int, float)) or not 0 <= bar <= 100:
            raise ConfigError(f"early_stop_thresholds={bar!r} is not a number in 0..100")
        self.early_stop_thresholds = float(bar)  # NaN fails the range test above

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        doc["variant"] = self.variant.value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class EarlyStopReport:
    scores: dict[str, float]
    stop: bool  # every score at the stop bar in the run's config

    def to_dict(self) -> dict:
        return {"scores": dict(self.scores), "stop": self.stop}

    @classmethod
    def from_dict(cls, d: dict) -> "EarlyStopReport":
        d = _require_object(d, "early-stop report", {"scores", "stop"})
        return cls(
            scores=_require_scores(d["scores"], "scores"), stop=_require_bool(d["stop"], "stop")
        )


class Audit(list):
    """A run's chat records: a list of those not yet in ``audit.jsonl``, in call order.

    ``committed`` counts the records the log already holds, which the list
    does not. ``len`` counts both, so it is the number of chat exchanges the
    run has made; iteration, indexing and ``==`` see only the records held.
    """

    def __init__(self, records: Iterable[dict] = (), committed: int = 0):
        super().__init__(records)
        self.committed = committed

    def __len__(self) -> int:
        return self.committed + super().__len__()

    def copy(self) -> "Audit":
        return Audit(super().copy(), self.committed)

    def commit(self) -> list[dict]:
        """The records held, which the list drops and counts as committed."""
        records = super().copy()
        self.clear()
        self.committed += len(records)
        return records


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
    chain_record: dict | None = None  # this iteration's chains, kept in chains_iterN.json
    report: str | None = None
    # (og, its wire text), kept while og names the same outline; clone shares it.
    _outline_memo: tuple[OutlineGraph, str] | None = field(
        default=None, repr=False, compare=False
    )
    # Every text the run has embedded -> its float64 row, in first-request order;
    # only ever added to, so clone shares it. embed.jsonl holds it.
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
        """What only state.json holds; the checkpoint's other files hold the rest."""
        return {
            "format_version": FORMAT_VERSION,
            "root_query": self.root_query,
            "config": self.config.to_dict(),
            "stage": self.stage,
            "iteration": self.iteration,
            "executed_queries": list(self.executed_queries),
            "early_stop_history": [r.to_dict() for r in self.early_stop_history],
            "events": list(self.events),
            "audit_records": len(self.audit),
            "bank_units": len(self.bank),
            "embedded_texts": len(self.embeddings),
        }

    @classmethod
    def from_dict(cls, doc: dict, read: Callable) -> "RunState":
        """Rebuild a checkpoint; ``read(name, parse)`` is ``parse`` of a run-dir file.

        The files of the committed iteration never change later, and the logs
        only grow, so a checkpoint that never committed is ignored.
        """
        config = committed_config(doc)
        if doc["stage"] not in ("init", "loop", "done"):
            raise ConfigError(f"{STATE_FILE}: unknown stage {doc['stage']!r}")
        counts = ("iteration", "audit_records", "bank_units", "embedded_texts")
        bad = [key for key in counts if type(doc[key]) is not int or doc[key] < 0]
        if bad:
            raise ConfigError(f"{STATE_FILE}: {bad} must be non-negative integers")
        state = cls(
            root_query=_require_str(doc["root_query"], "root_query", allow_empty=True),
            config=config,
            stage=doc["stage"],
            iteration=doc["iteration"],
            executed_queries=_require_strings(doc["executed_queries"], "executed_queries"),
            early_stop_history=[
                EarlyStopReport.from_dict(r)
                for r in _require_list(doc["early_stop_history"], "early_stop_history")
            ],
            events=_require_strings(doc["events"], "events"),
        )
        units, records, texts = doc["bank_units"], doc["audit_records"], doc["embedded_texts"]
        state.bank = read(BANK_LOG, lambda log: EvidenceBank.from_dicts(_records(log, units)))
        if len(state.bank) < units:
            raise ConfigError(f"{BANK_LOG} is shorter than the checkpoint's bank_units")
        if state.stage != "init":
            state.og = read(
                f"outline_iter{state.iteration}.txt",
                _text(lambda text: check_citations(parse_outline(text), state.bank)),
            )
            if state.config.variant is Variant.DUAL_GRAPH:
                kg_file = f"kg_iter{state.iteration}.json"
                state.kg = read(kg_file, _text(KnowledgeGraph.from_document))
                unplaced = [nid for nid, n in state.kg.nodes.items() if n.community_id is None]
                if unplaced:
                    raise ConfigError(f"{kg_file} has nodes with no community id: {unplaced}")
                unbanked = sorted({
                    ev_id for e in state.kg.edges.values()
                    for ev_id in e.evidence_ids if ev_id not in state.bank
                })
                if unbanked:
                    raise ConfigError(f"{kg_file} cites evidence absent from the bank: {unbanked}")
        if state.stage == "done":
            state.report = read(REPORT_FILE, _text(str))
        # Each committed record is decoded, so a damaged one is found, and none is kept.
        decoded = read(AUDIT_LOG, lambda log: sum(1 for _ in _records(log, records)))
        if decoded < records:
            raise ConfigError(f"{AUDIT_LOG} is shorter than the checkpoint's audit_records")
        state.audit = Audit(committed=records)
        state.embeddings = read(EMBED_LOG, lambda log: _embeddings(_records(log, texts)))
        if len(state.embeddings) < texts:
            raise ConfigError(f"{EMBED_LOG} is shorter than the checkpoint's embedded_texts")
        return state


def committed_config(doc) -> RunConfig:
    """The config of a state.json document, which must be of this format and
    hold every key; a damaged one is a ConfigError naming state.json."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{STATE_FILE} must hold a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported state format_version {doc.get('format_version')!r}")
    missing = [key for key in _STATE_KEYS if key not in doc]
    if missing:
        raise ConfigError(f"{STATE_FILE} lacks {missing}")
    try:
        return RunConfig.from_dict(
            _require_object(doc["config"], "config", set(RunConfig.__dataclass_fields__))
        )
    except ConfigError as exc:
        raise ConfigError(f"{STATE_FILE}: {exc}") from None


def _text(parse: Callable) -> Callable:
    """A parser of a file opened as bytes from a parser of its UTF-8 text.

    Run-dir JSON is parsed from this text too: ``json.loads`` of bytes would
    also take UTF-16, UTF-32 and lone surrogates, which no run writes.
    """
    return lambda file: parse(file.read().decode("utf-8"))


def _records(log, count: int) -> Iterator:
    """The first ``count`` records of a JSON-lines log opened as bytes, decoded
    one at a time; lines past them are not read. Once the records run out, the
    log is left where those lines end, which is one byte past the file when the
    last one lost its newline.
    """
    line = b"\n"
    for line in islice(log, count):
        yield json.loads(line.decode("utf-8"))
    if not line.endswith(b"\n"):
        log.seek(1, os.SEEK_CUR)


def _embed_record(entry: tuple[str, np.ndarray]) -> dict:
    """An embed.jsonl line: the text and the base64 of its row's little-endian float64 bytes."""
    text, row = entry
    return {"text": text, "vector": base64.b64encode(row.astype("<f8").tobytes()).decode("ascii")}


def _embeddings(records: list) -> dict[str, np.ndarray]:
    """The memo that embed.jsonl records hold; a damaged record is a ValueError.

    Rows must all have the first row's length, which is not checked against the
    config's ``embed_dim``: a library caller's embedder need not follow it, and
    ``_EmbedOnce`` checks the width the embedder returns.
    """
    rows: dict[str, np.ndarray] = {}
    width = None
    for i, record in enumerate(records):
        record = _require_object(record, f"record {i}", {"text", "vector"})
        text = _require_str(record["text"], f"record {i} text", allow_empty=True)
        raw = base64.b64decode(_require_str(record["vector"], f"record {i} vector"), validate=True)
        if text in rows:
            raise ValueError(f"record {i} repeats the text {text!r}")
        if not raw or len(raw) % 8:
            raise ValueError(f"record {i} vector is {len(raw)} bytes, not a multiple of 8")
        width = width or len(raw)
        if len(raw) != width:
            raise ValueError(f"record {i} vector is {len(raw)} bytes, record 0's is {width}")
        rows[text] = np.frombuffer(raw, dtype="<f8")
    return rows


def _replay_record(exchange: tuple) -> dict:
    """The replay.jsonl line of a (kind, request, answer) exchange: exactly
    ``kind``, ``request`` and ``answer``, or ``error`` with the message of a
    fetch's ``FetchError``. A search's results are written as objects."""
    kind, request, answer = exchange
    if isinstance(answer, FetchError):
        return {"kind": kind, "request": request, "error": str(answer)}
    if kind == "search":
        answer = [{"url": r.url, "title": r.title, "snippet": r.snippet, "rank": r.rank}
                  for r in answer]
    return {"kind": kind, "request": request, "answer": answer}


def _replay_exchanges(log) -> list[tuple]:
    """The exchanges a replay.jsonl opened as bytes holds, as ``_Tape`` keeps them;
    a damaged line is a ValueError."""
    exchanges = []
    for i, line in enumerate(log):
        what = f"record {i}"
        record = json.loads(line.decode("utf-8"))
        outcome = "error" if isinstance(record, dict) and "error" in record else "answer"
        record = _require_object(record, what, {"kind", "request", outcome})
        kind, request, answer = record["kind"], record["request"], record[outcome]
        if kind == "search":
            _require_object(request, f"{what} request", {"query", "top_n"})
            _require_str(request["query"], f"{what} query", allow_empty=True)
            _require_int(request["top_n"], f"{what} top_n")
        elif kind in ("chat", "fetch"):
            _require_str(request, f"{what} request", allow_empty=True)
        else:
            raise ValueError(f"{what}: unknown kind {kind!r}")
        if outcome == "error":
            if kind != "fetch":
                raise ValueError(f"{what}: a {kind} exchange records no error")
            answer = FetchError(_require_str(answer, f"{what} error", allow_empty=True))
        elif kind == "search":
            results = []
            for rank, r in enumerate(_require_list(answer, f"{what} answer")):
                r = _require_object(r, f"{what} result {rank}", {"url", "title", "snippet", "rank"})
                for key in ("url", "title", "snippet"):
                    _require_str(r[key], f"{what} result {rank} {key}", allow_empty=True)
                _require_int(r["rank"], f"{what} result {rank} rank")
                results.append(SearchResult(**r))
            answer = results
        else:
            _require_str(answer, f"{what} answer", allow_empty=True)
        exchanges.append((kind, request, answer))
    return exchanges


def _document(doc) -> str:
    """The one encoding of run-dir JSON: compact, so CPython's C encoder writes it."""
    return json.dumps(doc, ensure_ascii=False) + "\n"


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


def dedup_queries(
    new: list[str], executed: list[str], embed, threshold: float = 0.95
) -> list[str]:
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
    state: RunState,
    providers: Providers,
    queries: list[str],
    iteration: int,
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
                    url=r.url,
                    title=r.title,
                    query=query,
                    summary=assessment.summary,
                    content=assessment.salient_content,
                    iteration=iteration,
                ))
    state.executed_queries.extend(queries)
    return new_by_query


# -- query generation --------------------------------------------------


def gen_queries_from_og(state: RunState, providers: Providers, pending: list[str]) -> list[str]:
    assert state.og is not None
    budget = state.config.og_query_budget
    return _chat_parsed(
        state, providers, "generate_queries",
        {
            "QUERY_NUM": str(budget),
            "OUTLINE": state.outline_text(),
            "EXECUTED_QUERIES": _executed_block(state),
            "PENDING_QUERIES": "\n".join(pending) or "(none)",
        },
        lambda text: parsers.parse_query_lines(text, budget),
        1,
    )


def _partition_from_nodes(kg: KnowledgeGraph, seed: int) -> CommunityPartition:
    """The partition update_kg stored on the nodes; a graph read from disk
    with a node it never placed is rejected by ``RunState.from_dict``."""
    assignment = {nid: node.community_id for nid, node in kg.nodes.items()}
    return CommunityPartition(assignment=assignment, seed=seed)


def _embed_missing(kg: KnowledgeGraph, embed) -> None:
    """Embed, in node order, the nodes with no vector: new, renamed, or read from disk."""
    missing = [nid for nid in kg.node_ids() if kg.nodes[nid].embedding is None]
    if missing:
        vectors = embed([kg.nodes[nid].name for nid in missing])
        for nid, vec in zip(missing, vectors):
            kg.nodes[nid].embedding = vec


def gen_queries_from_kg(
    state: RunState, providers: Providers
) -> tuple[list[str], list[SearchChain], list[str]]:
    """Build chains, have the provider select some, return aligned queries."""
    assert state.kg is not None and state.og is not None
    if len(state.kg) == 0:
        return [], [], []
    config = state.config
    _embed_missing(state.kg, providers.embed.embed)
    partition = _partition_from_nodes(state.kg, config.seed)
    chains = build_search_chains(
        state.kg,
        partition,
        ChainConfig(total=config.kg_query_budget, seed=config.seed),
    )
    if not chains:
        return [], [], []
    known_ids = {c.chain_id for c in chains}

    def parse_and_check(text: str) -> parsers.ChainSelection:
        selection = parsers.parse_chain_selection(text, config.kg_query_budget)
        for cid in selection.chain_ids:
            if cid not in known_ids:
                raise parsers.DanglingReference(f"selection names unknown chain {cid}")
        return selection

    selection = _chat_parsed(
        state, providers, "select_chains",
        {
            "CHAIN_NUM": str(config.kg_query_budget),
            "OUTLINE": state.outline_text(),
            "EXECUTED_QUERIES": _executed_block(state),
            "KG_PAYLOAD": _kg_json(state.kg),
            "CANDIDATE_CHAINS": format_chains_for_prompt(chains, state.kg),
        },
        parse_and_check,
        1,
    )
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


def update_kg(
    state: RunState,
    providers: Providers,
    new_by_query: dict[str, list[int]],
) -> None:
    """Extraction, concept merge, clustering, community detection.

    The pass's new units are extracted in bank order, one statement each
    naming its query, in chunks (``_chunks``): one chat call per chunk with
    chunk-local ``EN`` labels, each seeing the graph as the previous chunk
    left it. So a pass that banked nothing makes no extraction call, and a
    malformed answer re-asks only its chunk.
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

    concepts = [n for n in kg.nodes.values() if not n.is_core_entity]
    if len(concepts) >= 2:

        def parse_and_merge(text: str) -> None:
            clusters = parsers.parse_merge(text)
            if clusters:
                merge_nodes(kg, clusters)

        try:
            _chat_parsed(
                state, providers, "merge_concepts", {"KG_PAYLOAD": _kg_json(kg)}, parse_and_merge
            )
        except ParseError as exc:
            # A bad merge proposal is rejected, never fatal: the graph stands.
            log.warning("merge batch rejected, keeping graph untouched: %s", exc)

    ids = kg.node_ids()
    if ids:
        _embed_missing(kg, providers.embed.embed)
        clusters = cluster_semantic(kg)
        partition = detect_communities(kg, seed=state.config.seed)
        for nid in ids:
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
    if cited:
        digest = "\n".join(
            f"{citation_token(i)}: {state.bank.get(i).url}" for i in cited
        )
    else:
        digest = "(no citations)"
    try:
        scores = _chat_parsed(
            state, providers, "judge_outline",
            {"OUTLINE": state.outline_text(), "EVIDENCE_DIGEST": digest},
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

    def parse_created(text: str) -> OutlineGraph:
        return check_citations(parse_outline(text), state.bank)

    state.og = _chat_parsed(state, providers, "create_outline", {}, parse_created)

    state.events.append("init:gen_from_og")
    queries = gen_queries_from_og(state, providers, pending=[])
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
        s.events.append(f"iter{t}:gen_from_kg")
        kg_queries, chains, selected = gen_queries_from_kg(s, providers)
        og_queries: list[str] = []
        if t > 0:
            s.events.append(f"iter{t}:gen_from_og")
            og_queries = gen_queries_from_og(s, providers, pending=kg_queries)
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
        raw = gen_queries_from_og(s, providers, pending=[])
        s.events.append(f"iter{t}:dedup")
        queries = dedup_queries(raw, s.executed_queries, providers.embed.embed)
        s.events.append(f"iter{t}:search")
        run_search_pipeline(s, providers, queries, iteration=t + 1)

    if t >= 1:
        s.events.append(f"iter{t}:early_stop")
        s.early_stop_history.append(evaluate_early_stop(s, providers, s.config))
    s.iteration = t + 1
    return s


class _EmbedOnce:
    """An embedder that sends ``inner`` only the texts ``rows`` lacks.

    Each call sends the texts not seen before in one batch, and no call when
    there are none, and adds their float64 rows to ``rows`` in request order;
    it returns a fresh array, so a caller may change its rows. Rows of another
    width than those ``rows`` holds are a ConfigError: a resume was given an
    embedder other than the one that wrote ``embed.jsonl``.
    """

    def __init__(self, inner, rows: dict[str, np.ndarray]):
        self.inner = inner
        self._rows = rows

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = self._rows
        misses = list(dict.fromkeys(t for t in texts if t not in rows))
        if misses:
            new = np.asarray(self.inner.embed(misses), dtype=np.float64)
            first = next(iter(rows.values()), None)
            if first is not None and len(first) != new.shape[1]:
                raise ConfigError(
                    f"{EMBED_LOG} holds vectors of width {len(first)}, "
                    f"but the embedder returns width {new.shape[1]}"
                )
            rows.update(zip(misses, new))
        return np.array([rows[t] for t in texts])


class _Tape:
    """Chat, search and fetch over ``inner`` that keep every exchange they make.

    ``exchanges`` holds each call's (kind, request, answer) in call order; a
    fetch's ``FetchError`` is its answer, re-raised to the caller. A call whose
    kind and request equal the head of ``queue`` takes the head's answer and
    never reaches ``inner``; the first call that does not drops the whole queue.
    """

    def __init__(self, inner: Providers, queue: Iterable[tuple] = ()):
        self.inner = inner
        self.queue = deque(queue)
        self.exchanges: list[tuple] = []

    def _call(self, kind: str, request, ask: Callable, *args):
        queue = self.queue
        if queue and queue[0][0] == kind and queue[0][1] == request:
            answer = queue.popleft()[2]
        else:
            queue.clear()
            try:
                answer = ask(*args)
            except FetchError as exc:
                answer = exc
        self.exchanges.append((kind, request, answer))
        if isinstance(answer, FetchError):
            raise answer
        return answer

    def complete(self, prompt: str) -> str:
        return self._call("chat", prompt, self.inner.chat.complete, prompt)

    def search(self, query: str, top_n: int) -> list[SearchResult]:
        request = {"query": query, "top_n": top_n}
        return self._call("search", request, self.inner.search.search, query, top_n)

    def fetch(self, url: str) -> str:
        return self._call("fetch", url, self.inner.fetch.fetch, url)


def drive(state: RunState, providers: Providers) -> Iterator[RunState]:
    """Run ``state`` to its report, yielding it at each boundary; a done run yields nothing.

    The phases embed through an ``_EmbedOnce`` over ``state.embeddings``;
    ``providers`` is left as given.
    """
    providers = replace(providers, embed=_EmbedOnce(providers.embed, state.embeddings))
    if state.stage == "init":
        init_run(state, providers)
        yield state
    while (
        state.stage == "loop"
        and not state.stopped
        and state.iteration < state.config.max_iter
    ):
        state = run_iteration(state, providers)
        yield state
    if state.stage == "loop":
        write_report(state, providers)
        state.stage = "done"
        yield state


# -- persistence -------------------------------------------------------


class Runner:
    """Drives a run directory: checkpoints, resume, and final report.

    ``resume`` runs on the config that ``state.json`` commits and ignores
    ``Runner.config``, which only ``start`` uses.
    """

    def __init__(self, config: RunConfig, providers: Providers, run_dir: str | Path):
        self.config = config
        self.providers = providers
        self.run_dir = Path(run_dir)
        # Entries each state log holds: start and resume set the count, each append
        # advances it. The audit's own count says what audit.jsonl holds.
        self._written: dict[str, int] = dict.fromkeys(_STATE_LOGS, 0)
        # Where read's parse left each file; for a log, where its committed lines end.
        self._read_to: dict[str, int] = {}

    def _replace(self, name: str, text: str) -> None:
        (self.run_dir / f"{name}.tmp").write_text(text, encoding="utf-8")
        (self.run_dir / f"{name}.tmp").replace(self.run_dir / name)

    def _append(self, name: str, entries: Iterable[dict]) -> None:
        """Append the entries to a log, one JSON line each.

        ``start`` deletes the logs and ``resume`` cuts each after its committed
        lines, so a log is only ever appended to, never rewritten.
        """
        rows = [_document(e) for e in entries]
        with open(self.run_dir / name, "a", encoding="utf-8") as log_file:
            log_file.writelines(rows)

    def _unwritten(self, name: str, entries) -> Iterator:
        """The entries of a state log past those it holds, which then count as written."""
        start, self._written[name] = self._written[name], len(entries)
        return islice(entries, start, None)

    def _cut(self, name: str) -> None:
        """Cut a log in place where ``load_state`` stopped reading its committed lines.

        The committed prefix is neither re-encoded nor rewritten, and a log that
        ends there is not opened for writing. A committed last line that lost its
        newline ends one byte past the file, and gets it back so the next append
        starts a line.
        """
        path = self.run_dir / name
        end, size = self._read_to[name], path.stat().st_size
        if size > end:
            os.truncate(path, end)
        elif size < end:
            with open(path, "ab") as log_file:
                log_file.write(b"\n")

    def _checkpoint(self, state: RunState) -> None:
        # state.json goes last and commits the checkpoint: it names the iteration whose
        # files hold the outline and graph, and counts the audit records, bank units and
        # embedded texts in their logs; the state keeps no audit record it appended. A
        # loop checkpoint already wrote the last
        # iteration's files, so the one that finishes the run writes no outline; it
        # writes the final graph and bank beside the report.
        done = state.stage == "done"
        if state.og is not None and not done:
            self._replace(f"outline_iter{state.iteration}.txt", state.outline_text())
        if state.kg is not None:
            name = "kg.json" if done else f"kg_iter{state.iteration}.json"
            self._replace(name, state.kg.to_document())
        if state.chain_record is not None and not done:
            self._replace(f"chains_iter{state.iteration}.json", _document(state.chain_record))
        self._append(AUDIT_LOG, state.audit.commit())
        units = self._unwritten(BANK_LOG, state.bank.units)
        self._append(BANK_LOG, map(EvidenceUnit.to_dict, units))
        texts = self._unwritten(EMBED_LOG, state.embeddings.items())
        self._append(EMBED_LOG, map(_embed_record, texts))
        if done:
            self._replace(BANK_FILE, state.bank.to_document())
        if state.report is not None:
            self._replace(REPORT_FILE, state.report)
        # A spilled replay holds calls made after the checkpoint before this one.
        (self.run_dir / REPLAY_FILE).unlink(missing_ok=True)
        self._replace(STATE_FILE, _document(state.to_dict()))

    def read(self, name: str, parse: Callable):
        """``parse`` of a run-dir file opened as bytes; a missing, undecodable or
        damaged file is a ConfigError that names it."""
        try:
            with open(self.run_dir / name, "rb") as file:
                value = parse(file)
                self._read_to[name] = file.tell()
                return value
        except (FileNotFoundError, NotADirectoryError):
            raise ConfigError(f"run directory {self.run_dir} has no {name}") from None
        except ConfigError:  # a file that parse read in turn, named already
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{name} is damaged: {type(exc).__name__}: {exc}") from None

    def load_state(self) -> RunState:
        return self.read(
            STATE_FILE, _text(lambda text: RunState.from_dict(json.loads(text), self.read))
        )

    def start(self, root_query: str) -> RunState:
        # A forced rerun must leave nothing of an earlier run behind, an outline.txt
        # that older versions wrote included. state.json goes first, so no
        # half-cleared directory still looks resumable.
        self.run_dir.mkdir(parents=True, exist_ok=True)
        names = (STATE_FILE, REPORT_FILE, BANK_FILE, "kg.json", "outline.txt", REPLAY_FILE, *_LOGS)
        for name in names:
            (self.run_dir / name).unlink(missing_ok=True)
        for stem in ("outline", "kg", "chains"):
            for path in self.run_dir.glob(f"{stem}_iter[0-9]*"):
                path.unlink()
        self._written = dict.fromkeys(_STATE_LOGS, 0)
        state = RunState(root_query=root_query, config=self.config)
        self._checkpoint(state)
        return self._drive(state)

    def resume(self) -> RunState:
        state = self.load_state()
        has_replay = (self.run_dir / REPLAY_FILE).exists()
        replay = self.read(REPLAY_FILE, _replay_exchanges) if has_replay else []
        for name in _LOGS:
            self._cut(name)
        self._written = {BANK_LOG: len(state.bank), EMBED_LOG: len(state.embeddings)}
        return self._drive(state, replay)

    def _drive(self, state: RunState, replay: Iterable[tuple] = ()) -> RunState:
        # Nothing reads the state a failure interrupted: the files already hold
        # the last committed boundary. A provider failure spills what the tape
        # holds, then what is left of the replay, so the next resume pays for
        # none of it again; a file with nothing to hold is deleted.
        tape = _Tape(self.providers, replay)
        try:
            for state in drive(state, replace(self.providers, chat=tape, search=tape, fetch=tape)):
                self._checkpoint(state)
                tape.exchanges.clear()
                tape.queue.clear()
        except ProviderError:
            spilled = [*tape.exchanges, *tape.queue]
            if spilled:
                self._replace(REPLAY_FILE, "".join(_document(_replay_record(e)) for e in spilled))
            else:
                (self.run_dir / REPLAY_FILE).unlink(missing_ok=True)
            raise
        return state


def run(
    root_query: str,
    config: RunConfig,
    providers: Providers,
    run_dir: str | Path,
) -> RunState:
    return Runner(config, providers, run_dir).start(root_query)
