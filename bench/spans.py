"""Spans around the engine's public functions, recorded from outside it.

Each probe replaces a function at every name the engine looks it up by,
because ``from .kg import apply_extraction`` copies the binding: patching
only ``dualgraph.kg.apply_extraction`` would miss the calls from
``dualgraph.orchestrator``. Probes record only while a root span is open, so
the benchmark's own calls (coverage, output checks) stay out of the trace.

A span is ``[name, start, end, parent, run_id]``; spans stay in memory and are
written out once the measured runs end. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from dualgraph.providers.parsers import ParseError

ORCH = "dualgraph.orchestrator"
KG = "dualgraph.kg"
CHAINS = "dualgraph.chains"
OUTLINE = "dualgraph.outline"
EVIDENCE = "dualgraph.evidence"
PARSERS = "dualgraph.providers.parsers"

_CITED_ID_RE = re.compile(r"id_(\d+)")


class Tracer:
    def __init__(self, meter=None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.last: dict[str, float] = {}
        self.origins: dict[str, str] = {}
        self.meter = meter
        self.run_id = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self):
        """The span of one run; probes record only inside it."""
        self.run_id += 1
        self.counts.clear()
        self.last.clear()
        self.origins.clear()
        idx = self.begin("run")
        try:
            yield
        finally:
            self.end(idx)

    def span_stats(self, run_id: int) -> dict[str, list[float]]:
        """name -> [calls, seconds, self seconds] over one run's spans."""
        child = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        for _, (_, start, end, parent, _) in mine:
            if parent is not None:
                child[parent] += end - start
        stats: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in mine:
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return stats

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": run_id, "span": i, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


@dataclass(frozen=True)
class Probe:
    """A function to wrap at each ``module:attr`` or ``module:Class.attr`` site.

    ``span`` None counts without timing. ``before(tracer, args)`` returns a
    token handed to ``after(tracer, args, result, token)`` or, when the call
    raises, to ``error(tracer, args, exc, token)``. Hooks run outside the span.
    """

    span: str | None
    sites: tuple[str, ...]
    before: Callable | None = None
    after: Callable | None = None
    error: Callable | None = None


def _bump(key: str, amount: Callable = lambda args, result: 1):
    def after(tracer, args, result, token):
        tracer.counts[key] += amount(args, result)

    return after


def _dir_state(run_dir) -> dict[str, tuple]:
    out = {}
    with os.scandir(run_dir) as entries:
        for entry in entries:
            st = entry.stat()
            out[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _checkpoint_before(tracer, args):
    run_dir = args[0].run_dir
    return _dir_state(run_dir) if run_dir.exists() else {}


def _checkpoint_after(tracer, args, result, before):
    # Every file created or rewritten by the checkpoint counts in full.
    after = _dir_state(args[0].run_dir)
    tracer.counts["orchestrator.checkpoint.bytes_written"] += sum(
        meta[2] for name, meta in after.items() if before.get(name) != meta
    )


def _embed_texts(tracer, args):
    return tracer.meter.counts["embed.texts"]


def _dedup_after(tracer, args, result, texts_before):
    tracer.counts["orchestrator.dedup_queries.in"] += len(args[0])
    tracer.counts["orchestrator.dedup_queries.kept"] += len(result)
    tracer.counts["orchestrator.dedup_queries.embed_texts"] += (
        tracer.meter.counts["embed.texts"] - texts_before
    )


def _chat_attempts(tracer, args):
    return tracer.meter.counts["chat.calls"]


def _chat_parsed_after(tracer, args, result, calls_before):
    tracer.counts["orchestrator.chat_retries"] += tracer.meter.counts["chat.calls"] - calls_before - 1


def _chat_parsed_error(tracer, args, exc, calls_before):
    if isinstance(exc, ParseError):
        _chat_parsed_after(tracer, args, None, calls_before)


def _origin(label: str, queries_of: Callable):
    def after(tracer, args, result, token):
        for q in queries_of(result):
            tracer.origins.setdefault(q.strip(), label)

    return after


def _search_after(tracer, args, result, token):
    for query, new_ids in result.items():
        origin = tracer.origins.get(query, "outline")
        tracer.counts[f"query.{origin}.issued"] += 1
        tracer.counts[f"query.{origin}.banked"] += bool(new_ids)
    tracer.origins.clear()


def _kg_queries_after(tracer, args, result, token):
    queries, chains, selected = result
    _origin("chain", lambda r: r)(tracer, args, queries, token)
    tracer.counts["chains.offered"] += len(chains)
    tracer.counts["chains.selected"] += len(selected)


def _revision_after(tracer, args, result, token):
    og_old, revised_text = args[0], args[1]
    kept = {int(x) for x in _CITED_ID_RE.findall(revised_text)}
    tracer.counts["outline.repaired_citations"] += len(og_old.all_citations() - kept)


def _communities_after(tracer, args, result, token):
    tracer.last["community.n_communities"] = result.n_communities


def _parse_error(tracer, args, exc, token):
    if isinstance(exc, ParseError):
        tracer.counts["providers.parsers.rejections"] += 1


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


PROBES: tuple[Probe, ...] = (
    # orchestrator
    Probe("orchestrator.init_run", (f"{ORCH}:init_run",)),
    Probe("orchestrator.run_iteration", (f"{ORCH}:run_iteration",)),
    Probe("orchestrator.checkpoint", (f"{ORCH}:Runner._checkpoint",),
          before=_checkpoint_before, after=_checkpoint_after),
    Probe("orchestrator.clone", (f"{ORCH}:RunState.clone",)),
    Probe("orchestrator.load_state", (f"{ORCH}:Runner.load_state",)),
    Probe("orchestrator.dedup_queries", (f"{ORCH}:dedup_queries",),
          before=_embed_texts, after=_dedup_after),
    Probe("orchestrator.run_search_pipeline", (f"{ORCH}:run_search_pipeline",),
          after=_search_after),
    Probe("orchestrator.gen_queries_from_kg", (f"{ORCH}:gen_queries_from_kg",),
          after=_kg_queries_after),
    Probe("orchestrator.gen_queries_from_og", (f"{ORCH}:gen_queries_from_og",),
          after=_origin("outline", lambda r: r)),
    Probe("orchestrator.update_kg", (f"{ORCH}:update_kg",)),
    Probe("orchestrator.update_og", (f"{ORCH}:update_og",)),
    Probe("orchestrator.evaluate_early_stop", (f"{ORCH}:evaluate_early_stop",)),
    Probe("orchestrator.write_report", (f"{ORCH}:write_report",)),
    Probe(None, (f"{ORCH}:_chat_parsed",), before=_chat_attempts,
          after=_chat_parsed_after, error=_chat_parsed_error),
    # chains
    Probe("chains.build_search_chains",
          (f"{ORCH}:build_search_chains", f"{CHAINS}:build_search_chains"),
          after=_bump("chains.candidates", lambda args, result: len(result))),
    Probe("chains.rank_enrich", (f"{CHAINS}:rank_enrich",)),
    Probe("chains.explore_similarity", (f"{CHAINS}:explore_similarity",)),
    Probe("chains.explore_structural_holes", (f"{CHAINS}:explore_structural_holes",)),
    Probe("chains.sbm_block_matrix", (f"{CHAINS}:sbm_block_matrix",)),
    Probe("chains.explore_block", (f"{CHAINS}:explore_block",)),
    # kg
    Probe("kg.apply_extraction", (f"{ORCH}:apply_extraction", f"{KG}:apply_extraction")),
    Probe("kg.merge_nodes", (f"{ORCH}:merge_nodes", f"{KG}:merge_nodes")),
    Probe("kg.cluster_semantic", (f"{ORCH}:cluster_semantic", f"{KG}:cluster_semantic")),
    Probe("kg.detect_communities", (f"{ORCH}:detect_communities", f"{KG}:detect_communities"),
          after=_communities_after),
    Probe(None, (f"{KG}:KnowledgeGraph.neighbors",), after=_bump("kg.neighbors.calls")),
    Probe("kg.copy", (f"{KG}:KnowledgeGraph.copy",)),
    Probe("kg.to_document", (f"{KG}:KnowledgeGraph.to_document",),
          after=_bump("kg.to_document.bytes", lambda args, result: _utf8_len(result))),
    Probe("kg.to_prompt_payload", (f"{KG}:KnowledgeGraph.to_prompt_payload",),
          after=_bump("kg.to_prompt_payload.bytes",
                      lambda args, result: _utf8_len(json.dumps(result, ensure_ascii=False)))),
    # community
    Probe("community.leiden_partition", (f"{KG}:leiden_partition",)),
    # outline
    Probe("outline.parse_outline", (f"{ORCH}:parse_outline", f"{OUTLINE}:parse_outline")),
    Probe("outline.render_outline", (f"{ORCH}:render_outline",)),
    Probe("outline.apply_revision", (f"{ORCH}:apply_revision",), after=_revision_after),
    # evidence
    Probe(None, (f"{EVIDENCE}:EvidenceBank.add",), after=_bump("evidence.add.calls")),
    Probe(None, (f"{EVIDENCE}:EvidenceBank.has_url",),
          after=_bump("evidence.url_dup_skips", lambda args, result: bool(result))),
    Probe("evidence.to_document", (f"{EVIDENCE}:EvidenceBank.to_document",),
          after=_bump("evidence.to_document.bytes", lambda args, result: _utf8_len(result))),
    # providers: the stand-ins themselves are timed by the meter's proxies
    Probe("providers.parsers.render", (f"{PARSERS}:render",)),
    Probe(
        "providers.parsers.parse",
        tuple(
            f"{PARSERS}:{fn}"
            for fn in (
                "parse_extraction", "parse_merge", "parse_chain_selection",
                "parse_index_selection", "parse_page_assessment", "parse_scores",
                "parse_query_lines",
            )
        ),
        error=_parse_error,
    ),
)


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    name = probe.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        token = probe.before(tracer, args) if probe.before else None
        idx = tracer.begin(name) if name is not None else None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if idx is not None:
                tracer.end(idx)
            if probe.error:
                probe.error(tracer, args, exc, token)
            raise
        if idx is not None:
            tracer.end(idx)
        if probe.after:
            probe.after(tracer, args, result, token)
        return result

    return wrapper


def _owner(site: str):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Wrap every probe site for the duration of the block."""
    saved = []
    try:
        for probe in PROBES:
            for site in probe.sites:
                owner, attr = _owner(site)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, probe, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
