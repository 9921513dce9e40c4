"""Prompt templates and total parsers for provider responses.

Every parser returns a value or raises a ParseError subclass; no input text
may crash them any other way. Tolerated cosmetic deviations are exactly:
surrounding whitespace and one markdown code fence around the payload.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

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


class ParseError(ValueError):
    """Base class: the response does not satisfy its output contract."""


class MalformedOutputError(ParseError):
    """Not valid JSON (or structurally not parseable at all)."""


class SchemaViolation(ParseError):
    """Parseable, but keys, types or formats are wrong."""


class DanglingReference(ParseError):
    """References an id that neither the batch nor the graph defines."""


class BudgetExceeded(ParseError):
    """More items than the contract allows."""


class TemplateError(ValueError):
    """Template rendering failed (unresolved or missing placeholder)."""


_FENCE_RE = re.compile(r"\A```[a-zA-Z0-9_-]*\n(.*)\n```\Z", re.DOTALL)
_PLACEHOLDER_RE = re.compile(r"\$\{([A-Z_]+)\}")
_NODE_ID_RE = re.compile(r"^n[1-9][0-9]*$")
_EDGE_ID_RE = re.compile(r"^e[1-9][0-9]*$")
_CLUSTER_ID_RE = re.compile(r"^c[1-9][0-9]*$")
_EN_LABEL_RE = re.compile(r"^EN[1-9][0-9]*$")
_CHAIN_ID_RE = re.compile(r"^chain_[1-9][0-9]*$")

SCORE_DIMENSIONS = (
    "instruction_following",
    "depth",
    "breadth",
    "balance",
    "support",
    "insightfulness",
)


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    path = resources.files("dualgraph.providers").joinpath("templates", f"{name}.txt")
    return path.read_text(encoding="utf-8")


def render_template(body: str, variables: dict[str, str]) -> str:
    """Substitute ${NAME} placeholders; unresolved placeholders are errors."""
    missing: list[str] = []

    def sub(m: re.Match[str]) -> str:
        key = m.group(1)
        if key not in variables:
            missing.append(key)
            return m.group(0)
        return str(variables[key])

    out = _PLACEHOLDER_RE.sub(sub, body)
    if missing:
        raise TemplateError(f"unresolved placeholders: {sorted(set(missing))}")
    return out


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
        return json.loads(strip_code_fences(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedOutputError(f"{what}: not valid JSON ({exc})") from None


def _require_object(value, what: str, keys: set[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolation(f"{what}: expected a JSON object")
    got = set(value.keys())
    if got != keys:
        raise SchemaViolation(
            f"{what}: expected keys {sorted(keys)}, got {sorted(got)}"
        )
    return value


def _require_str(value, what: str, allow_empty: bool = False) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(f"{what}: expected a string")
    if not allow_empty and not value.strip():
        raise SchemaViolation(f"{what}: must be non-empty")
    return value


def _require_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolation(f"{what}: expected true or false")
    return value


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaViolation(f"{what}: expected an array")
    return value


def _require_strings(value, what: str) -> list[str]:
    """A list of strings, any of them empty."""
    return [_require_str(v, f"{what} entry", allow_empty=True) for v in _require_list(value, what)]


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(f"{what}: expected an integer")
    return value


def _require_scores(value, what: str) -> dict[str, float]:
    """The six rubric scores, each a number in 0..100, in ``SCORE_DIMENSIONS`` order."""
    doc = _require_object(value, what, set(SCORE_DIMENSIONS))
    out: dict[str, float] = {}
    for dim in SCORE_DIMENSIONS:
        score = doc[dim]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise SchemaViolation(f"{what}.{dim}: expected a number")
        if not 0 <= score <= 100:
            raise SchemaViolation(f"{what}.{dim}: {score} outside 0..100")
        out[dim] = float(score)
    return out


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
    doc = _require_object(doc, "extraction", {"new_nodes", "new_edges", "evidences_map"})

    nodes: list[ExtractedNode] = []
    batch_node_ids: set[str] = set()
    for i, entry in enumerate(_require_list(doc["new_nodes"], "new_nodes")):
        entry = _require_object(
            entry, f"new_nodes[{i}]", {"id", "node_name", "is_core_entity"}
        )
        nid = _require_str(entry["id"], f"new_nodes[{i}].id")
        if not _NODE_ID_RE.match(nid):
            raise SchemaViolation(f"new_nodes[{i}]: malformed node id {nid!r}")
        if nid in batch_node_ids:
            raise SchemaViolation(f"new_nodes[{i}]: duplicate node id {nid}")
        batch_node_ids.add(nid)
        nodes.append(
            ExtractedNode(
                node_id=nid,
                name=_require_str(entry["node_name"], f"new_nodes[{i}].node_name"),
                is_core_entity=_require_bool(
                    entry["is_core_entity"], f"new_nodes[{i}].is_core_entity"
                ),
            )
        )

    edges: list[ExtractedEdge] = []
    batch_edge_ids: set[str] = set()
    known_nodes = batch_node_ids | (existing_node_ids or set())
    for i, entry in enumerate(_require_list(doc["new_edges"], "new_edges")):
        entry = _require_object(
            entry, f"new_edges[{i}]", {"id", "source_id", "target_id", "relation_name"}
        )
        eid = _require_str(entry["id"], f"new_edges[{i}].id")
        if not _EDGE_ID_RE.match(eid):
            raise SchemaViolation(f"new_edges[{i}]: malformed edge id {eid!r}")
        if eid in batch_edge_ids:
            raise SchemaViolation(f"new_edges[{i}]: duplicate edge id {eid}")
        batch_edge_ids.add(eid)
        src = _require_str(entry["source_id"], f"new_edges[{i}].source_id")
        tgt = _require_str(entry["target_id"], f"new_edges[{i}].target_id")
        for endpoint in (src, tgt):
            if not _NODE_ID_RE.match(endpoint):
                raise SchemaViolation(
                    f"new_edges[{i}]: malformed node id {endpoint!r}"
                )
            if existing_node_ids is not None and endpoint not in known_nodes:
                raise DanglingReference(
                    f"new_edges[{i}]: endpoint {endpoint} is neither existing nor declared"
                )
        edges.append(
            ExtractedEdge(
                edge_id=eid,
                source_id=src,
                target_id=tgt,
                relation=_require_str(
                    entry["relation_name"], f"new_edges[{i}].relation_name"
                ),
            )
        )

    ev_map: dict[str, list[str]] = {}
    raw_map = doc["evidences_map"]
    if not isinstance(raw_map, dict):
        raise SchemaViolation("evidences_map: expected an object")
    known_edges = batch_edge_ids | (existing_edge_ids or set())
    for label, edge_list in raw_map.items():
        if not isinstance(label, str) or not _EN_LABEL_RE.match(label):
            raise SchemaViolation(f"evidences_map: malformed label {label!r}")
        ids = _require_list(edge_list, f"evidences_map[{label}]")
        checked: list[str] = []
        for eid in ids:
            eid = _require_str(eid, f"evidences_map[{label}] entry")
            if not _EDGE_ID_RE.match(eid):
                raise SchemaViolation(
                    f"evidences_map[{label}]: malformed edge id {eid!r}"
                )
            if existing_edge_ids is not None and eid not in known_edges:
                raise DanglingReference(
                    f"evidences_map[{label}]: references absent edge {eid}"
                )
            checked.append(eid)
        ev_map[label] = checked

    return ExtractionResult(new_nodes=nodes, new_edges=edges, evidences_map=ev_map)


def parse_merge(text: str) -> list[MergeCluster]:
    doc = _load_json(text, "merge")
    doc = _require_object(doc, "merge", {"clusters"})
    clusters: list[MergeCluster] = []
    for i, entry in enumerate(_require_list(doc["clusters"], "clusters")):
        entry = _require_object(
            entry,
            f"clusters[{i}]",
            {"cluster_id", "representative_concept", "source_node_ids", "similarity_justification"},
        )
        cid = _require_str(entry["cluster_id"], f"clusters[{i}].cluster_id")
        if not _CLUSTER_ID_RE.match(cid):
            raise SchemaViolation(f"clusters[{i}]: malformed cluster id {cid!r}")
        sources = _require_list(entry["source_node_ids"], f"clusters[{i}].source_node_ids")
        if not (2 <= len(sources) <= 5):
            raise SchemaViolation(
                f"clusters[{i}]: {len(sources)} source nodes outside 2..5"
            )
        checked: list[str] = []
        for nid in sources:
            nid = _require_str(nid, f"clusters[{i}] source id")
            if not _NODE_ID_RE.match(nid):
                raise SchemaViolation(f"clusters[{i}]: malformed node id {nid!r}")
            checked.append(nid)
        _require_str(
            entry["similarity_justification"],
            f"clusters[{i}].similarity_justification",
            allow_empty=True,
        )
        clusters.append(
            MergeCluster(
                representative_concept=_require_str(
                    entry["representative_concept"],
                    f"clusters[{i}].representative_concept",
                ),
                source_node_ids=checked,
            )
        )
    return clusters


@dataclass
class ChainSelection:
    chain_ids: list[str] = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    outline_queries: list[str] = field(default_factory=list)


def parse_chain_selection(text: str, chain_num: int, query_num: int | None = None) -> ChainSelection:
    """The selected chain ids and their queries, at most ``chain_num`` of each.

    With ``query_num``, the document also carries ``"outline queries"``, at
    most ``query_num`` of them; without it, that key is not allowed.
    """
    lists = {"search queries": chain_num}
    if query_num is not None:
        lists["outline queries"] = query_num
    doc = _load_json(text, "chain selection")
    doc = _require_object(doc, "chain selection", {"chains", *lists})
    chain_ids: list[str] = []
    for i, cid in enumerate(_require_list(doc["chains"], "chains")):
        cid = _require_str(cid, f"chains[{i}]")
        if not _CHAIN_ID_RE.match(cid):
            raise SchemaViolation(f"chains[{i}]: malformed chain id {cid!r}")
        if cid in chain_ids:
            raise SchemaViolation(f"chains[{i}]: duplicate chain id {cid}")
        chain_ids.append(cid)
    queries = {
        key: [_require_str(q, f"{key}[{i}]") for i, q in enumerate(_require_list(doc[key], key))]
        for key in lists
    }
    if len(chain_ids) > chain_num:
        raise BudgetExceeded(f"{len(chain_ids)} chains exceed the budget of {chain_num}")
    for key, budget in lists.items():
        if len(queries[key]) > budget:
            raise BudgetExceeded(f"{len(queries[key])} {key} exceed the budget of {budget}")
    return ChainSelection(
        chain_ids=chain_ids,
        queries=queries["search queries"],
        outline_queries=queries.get("outline queries", []),
    )


def parse_index_selection(text: str, count: int) -> list[int]:
    doc = _load_json(text, "index selection")
    if not isinstance(doc, list):
        raise SchemaViolation("index selection: expected a JSON array")
    out: list[int] = []
    for i, value in enumerate(doc):
        _require_int(value, f"index selection[{i}]")
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
    doc = _require_list(_load_json(text, "page assessment"), "page assessment")
    if len(doc) != count:
        raise SchemaViolation(f"page assessment: {len(doc)} objects for {count} pages")
    out: list[PageAssessment] = []
    for i, entry in enumerate(doc):
        what = f"page assessment[{i}]"
        entry = _require_object(entry, what, {"useful", "summary", "salient_content"})
        useful = _require_bool(entry["useful"], f"{what}.useful")
        summary = _require_str(entry["summary"], f"{what}.summary", allow_empty=not useful)
        content = _require_str(entry["salient_content"], f"{what}.salient_content", allow_empty=True)
        out.append(PageAssessment(useful=useful, summary=summary, salient_content=content))
    return out


def parse_scores(text: str) -> dict[str, float]:
    return _require_scores(_load_json(text, "scores"), "scores")


def parse_query_lines(text: str, budget: int) -> list[str]:
    lines = [ln.strip() for ln in strip_code_fences(text).splitlines()]
    queries = [ln for ln in lines if ln]
    if len(queries) > budget:
        raise BudgetExceeded(f"{len(queries)} queries exceed the budget of {budget}")
    return queries
