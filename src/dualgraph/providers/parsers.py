"""Prompt templates and total parsers for provider responses.

Every parser returns a value or raises a ParseError subclass; no input text
may crash them any other way. Tolerated cosmetic deviations are exactly:
surrounding whitespace and one markdown code fence around the payload.
An answer is decoded by ``checks.loads`` and its values checked by the
``checks.require_*`` functions, which every other reader shares: a text that
does not decode (an integer of more than ``ids.MAX_DIGITS`` digits and too
deep a nesting included) is malformed, and every id an answer names must
pass ``ids.is_id``. ``ParseError``, ``SchemaViolation`` and
``SCORE_DIMENSIONS`` live in ``checks`` and are re-exported here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from ..checks import (
    SCORE_DIMENSIONS, ParseError, SchemaViolation, loads, require_bool, require_id, require_int,
    require_list, require_object, require_scores, require_str,
)
from ..kg import ExtractedEdge, ExtractedNode, ExtractionResult, MergeCluster

__all__ = [
    "ParseError",
    "MalformedOutputError",
    "SchemaViolation",
    "DanglingReference",
    "BudgetExceeded",
    "TemplateError",
    "ChainSelection",
    "PageAssessment",
    "load_template",
    "render_template",
    "render",
    "strip_code_fences",
    "parse_extraction",
    "parse_merge",
    "parse_chain_selection",
    "parse_index_selection",
    "parse_page_assessment",
    "parse_scores",
    "parse_query_lines",
    "SCORE_DIMENSIONS",
]


class MalformedOutputError(ParseError):
    """Not valid JSON (or structurally not parseable at all)."""


class DanglingReference(ParseError):
    """References an id that neither the batch nor the graph defines."""


class BudgetExceeded(ParseError):
    """More items than the contract allows."""


class TemplateError(ValueError):
    """Template rendering failed (an unresolved placeholder, or a variable no placeholder uses)."""


_FENCE_RE = re.compile(r"\A```[a-zA-Z0-9_-]*\n(.*)\n```\Z", re.DOTALL)
_PLACEHOLDER_RE = re.compile(r"\$\{([A-Z_]+)\}")


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    path = resources.files("dualgraph.providers").joinpath("templates", f"{name}.txt")
    return path.read_text(encoding="utf-8")


def render_template(body: str, variables: dict[str, str]) -> str:
    """Substitute ${NAME} placeholders; unresolved placeholders and variables
    no placeholder uses are errors."""
    names = set(_PLACEHOLDER_RE.findall(body))
    missing, unused = sorted(names - variables.keys()), sorted(variables.keys() - names)
    if missing:
        raise TemplateError(f"unresolved placeholders: {missing}")
    if unused:
        raise TemplateError(f"variables the template does not use: {unused}")
    return _PLACEHOLDER_RE.sub(lambda m: str(variables[m.group(1)]), body)


def render(name: str, variables: dict[str, str]) -> str:
    return render_template(load_template(name), variables)


def strip_code_fences(text: str) -> str:
    body = text.strip()
    m = _FENCE_RE.match(body)
    if m:
        return m.group(1).strip()
    return body


def _load_json(text: str, what: str):
    try:
        return loads(strip_code_fences(text))
    except ValueError as exc:  # JSONDecodeError, an over-long integer or too deep a nesting
        raise MalformedOutputError(f"{what}: not valid JSON ({exc})") from None


def parse_extraction(
    text: str,
    existing_node_ids: set[str] | None = None,
    existing_edge_ids: set[str] | None = None,
) -> ExtractionResult:
    """Parse an extraction response; with graph context, validate references.

    Ids the graph does not hold are handles local to the batch, in any order;
    the graph issues the real ids when the batch is applied. Restating an id
    the graph already holds is tolerated here and checked for content
    equality when the batch is applied.
    """
    doc = _load_json(text, "extraction")
    doc = require_object(doc, "extraction", {"new_nodes", "new_edges", "evidences_map"})

    nodes: list[ExtractedNode] = []
    batch_node_ids: set[str] = set()
    for i, entry in enumerate(require_list(doc["new_nodes"], "new_nodes")):
        what = f"new_nodes[{i}]"
        entry = require_object(entry, what, {"id", "node_name", "is_core_entity"})
        nid = require_id(entry["id"], f"{what}.id", "n")
        if nid in batch_node_ids:
            raise SchemaViolation(f"{what}: duplicate node id {nid}")
        batch_node_ids.add(nid)
        name = require_str(entry["node_name"], f"{what}.node_name")
        core = require_bool(entry["is_core_entity"], f"{what}.is_core_entity")
        nodes.append(ExtractedNode(nid, name, core))

    edges: list[ExtractedEdge] = []
    batch_edge_ids: set[str] = set()
    known_nodes = batch_node_ids | (existing_node_ids or set())
    for i, entry in enumerate(require_list(doc["new_edges"], "new_edges")):
        what = f"new_edges[{i}]"
        entry = require_object(entry, what, {"id", "source_id", "target_id", "relation_name"})
        eid = require_id(entry["id"], f"{what}.id", "e")
        if eid in batch_edge_ids:
            raise SchemaViolation(f"{what}: duplicate edge id {eid}")
        batch_edge_ids.add(eid)
        src = require_id(entry["source_id"], f"{what}.source_id", "n")
        tgt = require_id(entry["target_id"], f"{what}.target_id", "n")
        for endpoint in (src, tgt):
            if existing_node_ids is not None and endpoint not in known_nodes:
                raise DanglingReference(
                    f"{what}: endpoint {endpoint} is neither existing nor declared"
                )
        relation = require_str(entry["relation_name"], f"{what}.relation_name")
        edges.append(ExtractedEdge(eid, src, tgt, relation))

    ev_map: dict[str, list[str]] = {}
    raw_map = require_object(doc["evidences_map"], "evidences_map")
    known_edges = batch_edge_ids | (existing_edge_ids or set())
    for label, edge_list in raw_map.items():
        require_id(label, "evidences_map label", "EN")
        checked = ev_map[label] = []
        for eid in require_list(edge_list, f"evidences_map[{label}]"):
            eid = require_id(eid, f"evidences_map[{label}] entry", "e")
            if existing_edge_ids is not None and eid not in known_edges:
                raise DanglingReference(f"evidences_map[{label}]: references absent edge {eid}")
            checked.append(eid)

    return ExtractionResult(new_nodes=nodes, new_edges=edges, evidences_map=ev_map)


def parse_merge(text: str) -> list[MergeCluster]:
    doc = _load_json(text, "merge")
    doc = require_object(doc, "merge", {"clusters"})
    clusters: list[MergeCluster] = []
    for i, entry in enumerate(require_list(doc["clusters"], "clusters")):
        what = f"clusters[{i}]"
        entry = require_object(entry, what, {
            "cluster_id", "representative_concept", "source_node_ids", "similarity_justification",
        })
        require_id(entry["cluster_id"], f"{what}.cluster_id", "c")
        sources = require_list(entry["source_node_ids"], f"{what}.source_node_ids")
        if not (2 <= len(sources) <= 5):
            raise SchemaViolation(f"{what}: {len(sources)} source nodes outside 2..5")
        checked = [require_id(nid, f"{what} source id", "n") for nid in sources]
        justification = entry["similarity_justification"]
        require_str(justification, f"{what}.similarity_justification", allow_empty=True)
        concept = require_str(entry["representative_concept"], f"{what}.representative_concept")
        clusters.append(MergeCluster(representative_concept=concept, source_node_ids=checked))
    return clusters


@dataclass
class ChainSelection:
    chain_ids: list[str] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    outline_queries: list[str] = field(default_factory=list)


def parse_chain_selection(text: str, chain_num: int, query_num: int | None = None) -> ChainSelection:
    """The selected chain ids and their queries, at most ``chain_num`` of each
    and one query per chain, in chain order.

    With ``query_num``, the document also carries ``"outline queries"``, at
    most ``query_num`` of them; without it, that key is not allowed.
    """
    lists = {"search queries": chain_num}
    if query_num is not None:
        lists["outline queries"] = query_num
    doc = _load_json(text, "chain selection")
    doc = require_object(doc, "chain selection", {"chains", *lists})
    chain_ids: list[str] = []
    for i, cid in enumerate(require_list(doc["chains"], "chains")):
        cid = require_id(cid, f"chains[{i}]", "chain_")
        if cid in chain_ids:
            raise SchemaViolation(f"chains[{i}]: duplicate chain id {cid}")
        chain_ids.append(cid)
    queries = {
        key: [require_str(q, f"{key}[{i}]") for i, q in enumerate(require_list(doc[key], key))]
        for key in lists
    }
    if len(chain_ids) > chain_num:
        raise BudgetExceeded(f"{len(chain_ids)} chains exceed the budget of {chain_num}")
    for key, budget in lists.items():
        if len(queries[key]) > budget:
            raise BudgetExceeded(f"{len(queries[key])} {key} exceed the budget of {budget}")
    if len(queries["search queries"]) != len(chain_ids):
        raise SchemaViolation(
            f"{len(chain_ids)} chains but {len(queries['search queries'])} search queries"
        )
    return ChainSelection(
        chain_ids=chain_ids,
        queries=queries["search queries"],
        outline_queries=queries.get("outline queries", []),
    )


def parse_index_selection(text: str, count: int) -> list[int]:
    doc = require_list(_load_json(text, "index selection"), "index selection")
    out: list[int] = []
    for i, value in enumerate(doc):
        require_int(value, f"index selection[{i}]")
        if not 0 <= value < count:
            raise SchemaViolation(
                f"index selection[{i}]: index {value} outside 0..{count - 1}"
            )
        if value in out:
            raise SchemaViolation(f"index selection[{i}]: duplicate index {value}")
        out.append(value)
    return out


@dataclass
class PageAssessment:
    useful: bool
    summary: str
    salient_content: str


def parse_page_assessment(text: str, count: int) -> list[PageAssessment]:
    """One assessment per page of a ``count``-page prompt, in page order."""
    doc = require_list(_load_json(text, "page assessment"), "page assessment")
    if len(doc) != count:
        raise SchemaViolation(f"page assessment: {len(doc)} objects for {count} pages")
    out: list[PageAssessment] = []
    for i, entry in enumerate(doc):
        what = f"page assessment[{i}]"
        entry = require_object(entry, what, {"useful", "summary", "salient_content"})
        useful = require_bool(entry["useful"], f"{what}.useful")
        summary = require_str(entry["summary"], f"{what}.summary", allow_empty=not useful)
        content = require_str(entry["salient_content"], f"{what}.salient_content", allow_empty=True)
        out.append(PageAssessment(useful=useful, summary=summary, salient_content=content))
    return out


def parse_scores(text: str) -> dict[str, float]:
    return require_scores(_load_json(text, "scores"), "scores")


def parse_query_lines(text: str, budget: int) -> list[str]:
    lines = [ln.strip() for ln in strip_code_fences(text).splitlines()]
    queries = [ln for ln in lines if ln]
    if len(queries) > budget:
        raise BudgetExceeded(f"{len(queries)} queries exceed the budget of {budget}")
    return queries
