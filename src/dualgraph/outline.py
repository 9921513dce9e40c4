"""Report outline: a numbered tree with per-node citation sets.

Wire format (plain text, no indentation, no blank lines):

    Title line
    1. Top-level section
    1.1 Subsection <citation>id_3, id_7</citation>
    1.1.1 Deep subsection
    a. Content point attached to the nearest numbered heading above

Decimal numbering goes at most three levels deep with no gaps and ascending
order at every level. Lettered lines are leaf content points; they never carry
children. A ``<citation>...</citation>`` suffix holds evidence ids.

The title may begin with a digit ("5G rollout", "1.5 degrees of warming"). An
outline that lost its title starts with section 1, so a first line whose
heading number is exactly ``1`` is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .evidence import EvidenceBank, EvidenceError, citation_token, parse_citation_token

__all__ = [
    "OutlineError",
    "OutlineParseError",
    "OutlineValidationError",
    "OutlineNode",
    "OutlineGraph",
    "parse_outline",
    "render_outline",
    "check_citations",
    "apply_revision",
]


class OutlineError(ValueError):
    """Base class for outline failures."""


class OutlineParseError(OutlineError):
    """The text does not follow the outline wire format."""


class OutlineValidationError(OutlineError):
    """Structurally valid text that violates a content rule."""


_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)\.?\s*(.*)$")
_LETTER_RE = re.compile(r"^([a-z])\.\s*(.*)$")
_CITATION_RE = re.compile(r"<citation>(.*?)</citation>\s*$", re.DOTALL)


@dataclass
class OutlineNode:
    """One outline line: either a numbered heading or a lettered content point."""

    number: str  # "2.1.3" for headings, "a" for content points
    title: str
    citations: set[int] = field(default_factory=set)
    children: list["OutlineNode"] = field(default_factory=list)

    @property
    def is_content_point(self) -> bool:
        return len(self.number) == 1 and self.number.isalpha()

    @property
    def depth(self) -> int:
        if self.is_content_point:
            raise OutlineError("content points have no numbering depth")
        return self.number.count(".") + 1


@dataclass
class OutlineGraph:
    """Root of the outline tree: a title plus top-level sections."""

    title: str
    sections: list[OutlineNode] = field(default_factory=list)

    def walk(self) -> Iterator[OutlineNode]:
        """All nodes in document order (pre-order)."""

        def rec(nodes: Sequence[OutlineNode]) -> Iterator[OutlineNode]:
            for n in nodes:
                yield n
                yield from rec(n.children)

        yield from rec(self.sections)

    def all_citations(self) -> set[int]:
        out: set[int] = set()
        for node in self.walk():
            out |= node.citations
        return out

    def find(self, number: str) -> OutlineNode | None:
        for node in self.walk():
            if node.number == number:
                return node
        return None


def _strip_citations(text: str, lineno: int) -> tuple[str, set[int]]:
    m = _CITATION_RE.search(text)
    if m is None:
        return text.rstrip(), set()
    body = text[: m.start()].rstrip()
    ids: set[int] = set()
    payload = m.group(1).strip()
    if payload:
        for token in payload.split(","):
            try:
                ids.add(parse_citation_token(token))
            except EvidenceError:
                raise OutlineParseError(
                    f"line {lineno}: not a citation token: {token.strip()!r}"
                ) from None
    return body, ids


def parse_outline(text: str) -> OutlineGraph:
    """Parse the wire format; raises OutlineParseError with the offending line.

    Tolerates leading indentation, blank lines, a missing space after the
    heading number, and a trailing dot on deep numbers. Hierarchy comes from
    the numbering alone.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise OutlineParseError("empty outline: missing title line")
    title, title_cits = _strip_citations(lines[0], 1)
    if not title:
        raise OutlineParseError("title line is empty")
    if title_cits:
        raise OutlineParseError("title line must not carry citations")
    heading_m = _HEADING_RE.match(title)
    if heading_m and heading_m.group(1) == "1":
        # Section 1 cannot be the title; the outline lost its title.
        raise OutlineParseError(f"first line looks like a heading, not a title: {title!r}")

    og = OutlineGraph(title=title)
    # Stack of (path tuple, node) for open headings.
    stack: list[tuple[tuple[int, ...], OutlineNode]] = []
    sibling_count: dict[tuple[int, ...], int] = {(): 0}

    for lineno, raw in enumerate(lines[1:], start=2):
        body, cits = _strip_citations(raw, lineno)
        letter_m = _LETTER_RE.match(body)
        if letter_m and not body[0].isdigit():
            if not stack:
                raise OutlineParseError(
                    f"line {lineno}: content point before any numbered heading"
                )
            parent = stack[-1][1]
            letter = letter_m.group(1)
            expected = chr(ord("a") + sum(c.is_content_point for c in parent.children))
            if letter != expected:
                raise OutlineParseError(
                    f"line {lineno}: content point {letter!r} out of order (expected {expected!r})"
                )
            label = letter_m.group(2).strip()
            if not label:
                raise OutlineParseError(f"line {lineno}: content point has no text")
            parent.children.append(OutlineNode(number=letter, title=label, citations=cits))
            continue

        heading_m = _HEADING_RE.match(body)
        if heading_m is None or not body[0].isdigit():
            raise OutlineParseError(f"line {lineno}: not a heading or content point: {body!r}")
        path = tuple(int(p) for p in heading_m.group(1).split("."))
        if any(p < 1 for p in path):
            raise OutlineParseError(f"line {lineno}: heading components start at 1: {body!r}")
        if len(path) > 3:
            raise OutlineParseError(f"line {lineno}: heading deeper than 3 levels: {body!r}")
        label = heading_m.group(2).strip()
        if not label:
            raise OutlineParseError(f"line {lineno}: heading has no title")

        # Close headings that are not ancestors of this one.
        while stack and len(stack[-1][0]) >= len(path):
            stack.pop()
        parent_path = path[:-1]
        if parent_path and (not stack or stack[-1][0] != parent_path):
            raise OutlineParseError(
                f"line {lineno}: heading {'.'.join(map(str, path))} has no open parent "
                f"{'.'.join(map(str, parent_path))}"
            )
        expected_idx = sibling_count.get(parent_path, 0) + 1
        if path[-1] != expected_idx:
            raise OutlineParseError(
                f"line {lineno}: heading {'.'.join(map(str, path))} breaks sibling order "
                f"(expected component {expected_idx})"
            )
        sibling_count[parent_path] = expected_idx
        sibling_count[path] = 0

        node = OutlineNode(number=".".join(map(str, path)), title=label, citations=cits)
        if stack:
            stack[-1][1].children.append(node)
        else:
            og.sections.append(node)
        stack.append((path, node))

    return og


def _render_line(node: OutlineNode) -> str:
    if node.is_content_point:
        prefix = f"{node.number}."
    elif node.depth == 1:
        prefix = f"{node.number}."
    else:
        prefix = node.number
    line = f"{prefix} {node.title}"
    if node.citations:
        ids = ", ".join(citation_token(i) for i in sorted(node.citations))
        line += f" <citation>{ids}</citation>"
    return line


def render_outline(og: OutlineGraph) -> str:
    """Canonical wire form: title then one line per node, no indentation."""
    lines = [og.title] + [_render_line(node) for node in og.walk()]
    return "\n".join(lines) + "\n"


def check_citations(og: OutlineGraph, bank: EvidenceBank) -> OutlineGraph:
    """``og`` itself; citing an id the bank does not hold is a validation error."""
    for node in og.walk():
        for ev_id in node.citations:
            if ev_id not in bank:
                raise OutlineValidationError(
                    f"outline cites unknown evidence {citation_token(ev_id)} "
                    f"on node {node.number}"
                )
    return og


def apply_revision(
    og_old: OutlineGraph,
    revised_text: str,
    bank: EvidenceBank,
    embed: Callable[[Sequence[str]], np.ndarray],
) -> OutlineGraph:
    """Parse a revised outline and repair any dropped citations.

    Every citation id present in the old outline must survive: ids missing from
    the revision are re-attached to the revised node whose title is most
    similar (embedding cosine) to the id's former host. Ties prefer the
    shallower node, then earlier document order. Citing an id the bank never
    issued is a validation error.
    """
    og_new = check_citations(parse_outline(revised_text), bank)
    new_ids = og_new.all_citations()
    # First former host in document order anchors the similarity match.
    lost: dict[int, str] = {}
    for node in og_old.walk():
        for ev_id in sorted(node.citations):
            if ev_id not in new_ids and ev_id not in lost:
                lost[ev_id] = node.title
    if not lost:
        return og_new

    candidates: list[tuple[OutlineNode, int]] = []  # (node, depth) in document order

    def collect(nodes: Sequence[OutlineNode], depth: int) -> None:
        for n in nodes:
            candidates.append((n, depth))
            collect(n.children, depth + 1)

    collect(og_new.sections, 1)
    if not candidates:
        raise OutlineValidationError(
            "revision removed every section while preserved citations exist"
        )

    host_titles = list(dict.fromkeys(lost.values()))
    cand_titles = [c[0].title for c in candidates]
    vectors = embed(host_titles + cand_titles)
    host_vecs = {t: vectors[i] for i, t in enumerate(host_titles)}
    cand_vecs = vectors[len(host_titles) :]

    for ev_id, host_title in sorted(lost.items()):
        hv = host_vecs[host_title]
        # Most similar, then shallowest, then earliest: the first of the minima.
        keys = [(-float(np.dot(hv, cv)), depth) for (_, depth), cv in zip(candidates, cand_vecs)]
        candidates[keys.index(min(keys))][0].citations.add(ev_id)

    return og_new
