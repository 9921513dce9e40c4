"""Report outline: a numbered tree with per-node citation sets.

Wire format (plain text, no indentation, no blank lines):

    Title line
    1. Top-level section
    1.1 Subsection <citation>id_3, id_7</citation>
    1.1.1 Deep subsection
    a. Content point attached to the nearest numbered heading above

Decimal numbering goes at most three levels deep with no gaps and ascending
order at every level. Lettered lines are leaf content points; they never carry
children, and a heading holds at most 26 of them (a-z). A line may end in one
``<citation>...</citation>`` suffix that holds evidence ids. A citation tag
anywhere else, the title line included, is a parse error, so text with a tag
inside a title is re-asked rather than kept as title text.

The title may begin with a digit ("5G rollout", "1.5 degrees of warming"). An
outline that lost its title starts with section 1, so a first line whose
heading number is exactly ``1`` is rejected.

The parser accepts more than the renderer writes. It normalises:

- line breaks: lines are cut as ``str.splitlines`` cuts them, so CRLF, U+0085
  and U+2028 end a line too;
- leading and trailing whitespace and blank lines (an error's line number
  counts non-blank lines);
- a missing space after a number, and a trailing dot after any heading number;
- leading zeros and non-ASCII decimal digits in heading numbers, read as their
  values: ``1.01`` is ``1.1`` and ``\u0661.`` (Arabic-Indic one) is section 1;
- spaces around citation ids (``id_1,id_2``).

A line that starts with a character ``str.isdigit`` accepts but that is not a
decimal digit, such as ``\u00b2`` (superscript two), is neither a heading nor a
content point. A heading component or citation id of more than
``ids.MAX_DIGITS`` digits is a parse error on every interpreter.

A revision restates the whole outline, but most of its lines repeat lines of
the outline it revises. ``parse_outline(text, previous)`` reads such a line's
fields from ``previous`` instead of parsing the line again; only the checks of
a line's place in the tree (title, parent, sibling and content-point order, the
26-point cap) run on every line, so every error and its line number is what a
parse without ``previous`` gives. A node remembers the line it was parsed from,
and ``render_outline`` writes that line back when it is exactly what the
formatter writes and the node still has the number, title and citations it was
parsed with; any other node, edited or built by hand, is formatted. These lines
live on the outline objects: an outline keeps the lines of its own text, and
no nodes or citation sets are shared between two outlines.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .evidence import EvidenceBank, EvidenceError, citation_token, parse_citation_token
from .ids import MAX_DIGITS

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
_OPEN, _CLOSE = "<citation>", "</citation>"
_LETTERS = string.ascii_lowercase


@dataclass
class OutlineNode:
    """One outline line: either a numbered heading or a lettered content point."""

    number: str  # "2.1.3" for headings, "a" for content points
    title: str
    citations: set[int] = field(default_factory=set)
    children: list["OutlineNode"] = field(default_factory=list)
    # The fields of the line parse_outline built this node from (_parse_line).
    _line: tuple | None = field(default=None, repr=False, compare=False)

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
    # Each body line of the text parse_outline read -> its fields (_parse_line).
    _lines: dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)

    def walk(self) -> Iterator[OutlineNode]:
        """All nodes in document order (pre-order)."""
        stack = self.sections[::-1]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack += node.children[::-1]

    def all_citations(self) -> set[int]:
        return set().union(*[node.citations for node in self.walk()])

    def find(self, number: str) -> OutlineNode | None:
        for node in self.walk():
            if node.number == number:
                return node
        return None


def _split_citations(line: str, lineno: int) -> tuple[str, frozenset[int]]:
    """The body of a stripped line and the ids of its trailing citation suffix."""
    start = line.find(_OPEN)
    if start < 0 and _CLOSE not in line:
        return line, frozenset()
    end = len(line) - len(_CLOSE)
    if (start < 0 or not line.endswith(_CLOSE) or line.find(_CLOSE) != end
            or line.find(_OPEN, start + 1) >= 0):
        raise OutlineParseError(
            f"line {lineno}: citation tag outside the line's one trailing "
            f"<citation>...</citation> suffix"
        )
    payload = line[start + len(_OPEN) : end].strip()
    ids: set[int] = set()
    if payload:
        for token in payload.split(","):
            try:
                ids.add(parse_citation_token(token))
            except EvidenceError:
                raise OutlineParseError(
                    f"line {lineno}: not a citation token: {token.strip()!r}"
                ) from None
    return line[:start].rstrip(), frozenset(ids)


def _parse_line(line: str, lineno: int) -> tuple:
    """The fields of a stripped body line, read from the line alone.

    ``(number, title, citations, path, wire)``: ``path`` holds a heading's
    numbers and is None for a content point; ``wire`` is the line itself when
    the formatter writes exactly it, else None. Every check the line alone
    decides runs here, save a content point's empty text, which
    ``parse_outline`` reports only after the point's place in the tree.
    """
    body, cits = _split_citations(line, lineno)
    first = body[:1]
    if "a" <= first <= "z" and body[1:2] == ".":
        number, label, path = first, body[2:].lstrip(), None
    else:
        heading_m = _HEADING_RE.match(body)
        if heading_m is None:
            raise OutlineParseError(f"line {lineno}: not a heading or content point: {body!r}")
        number, label = heading_m.groups()
        components = number.split(".")
        if max(map(len, components)) > MAX_DIGITS:
            raise OutlineParseError(
                f"line {lineno}: heading component longer than {MAX_DIGITS} digits"
            )
        path = tuple(map(int, components))
        if 0 in path:
            raise OutlineParseError(f"line {lineno}: heading components start at 1: {body!r}")
        if len(path) > 3:
            raise OutlineParseError(f"line {lineno}: heading deeper than 3 levels: {body!r}")
        if not label:
            raise OutlineParseError(f"line {lineno}: heading has no title")
        number = ".".join(map(str, path))
    wire = line if _format_line(number, label, cits) == line else None
    return number, label, cits, path, wire


def parse_outline(text: str, previous: OutlineGraph | None = None) -> OutlineGraph:
    """Parse the wire format; raises OutlineParseError with the offending line.

    Line numbers count non-blank lines. Hierarchy comes from the numbering
    alone. A body line that ``previous`` was parsed from is not parsed again:
    its fields are read from ``previous``, which is left as it is.
    """
    lines = [stripped for line in text.splitlines() if (stripped := line.strip())]
    if not lines:
        raise OutlineParseError("empty outline: missing title line")
    title, title_cits = _split_citations(lines[0], 1)
    if not title:
        raise OutlineParseError("title line is empty")
    if title_cits:
        raise OutlineParseError("title line must not carry citations")
    heading_m = _HEADING_RE.match(title)
    if heading_m and heading_m.group(1) == "1":
        # Section 1 cannot be the title; the outline lost its title.
        raise OutlineParseError(f"first line looks like a heading, not a title: {title!r}")

    og = OutlineGraph(title=title)
    known = {} if previous is None else previous._lines
    parsed = og._lines
    # Open headings, outermost first; the entry at index i has depth i + 1 and
    # holds [path, node, headings below it so far, content points so far].
    stack: list[list] = []
    n_sections = 0

    for lineno, line in enumerate(lines[1:], start=2):
        fields = known.get(line)
        if fields is None:
            fields = _parse_line(line, lineno)
        parsed[line] = fields
        number, label, cits, path, _ = fields
        if path is None:
            if not stack:
                raise OutlineParseError(
                    f"line {lineno}: content point before any numbered heading"
                )
            frame = stack[-1]
            n_points = frame[3]
            if n_points == len(_LETTERS):
                raise OutlineParseError(
                    f"line {lineno}: a heading holds at most 26 content points (a-z)"
                )
            if number != _LETTERS[n_points]:
                raise OutlineParseError(
                    f"line {lineno}: content point {number!r} out of order "
                    f"(expected {_LETTERS[n_points]!r})"
                )
            if not label:
                raise OutlineParseError(f"line {lineno}: content point has no text")
            frame[3] = n_points + 1
            frame[1].children.append(OutlineNode(number, label, set(cits), [], fields))
            continue

        depth = len(path)
        # Close headings that are not ancestors of this one.
        del stack[depth - 1 :]
        if depth == 1:
            siblings = n_sections = n_sections + 1
        elif stack and stack[-1][0] == path[:-1]:
            parent = stack[-1]
            siblings = parent[2] = parent[2] + 1
        else:
            raise OutlineParseError(
                f"line {lineno}: heading {number} has no open parent "
                f"{number.rpartition('.')[0]}"
            )
        if path[-1] != siblings:
            raise OutlineParseError(
                f"line {lineno}: heading {number} breaks sibling order "
                f"(expected component {siblings})"
            )
        node = OutlineNode(number, label, set(cits), [], fields)
        (stack[-1][1].children if stack else og.sections).append(node)
        stack.append([path, node, 0, 0])

    return og


def _format_line(number: str, title: str, citations) -> str:
    """The canonical wire line of a node."""
    # Top-level headings and content points end their number with a dot.
    line = f"{number} {title}" if "." in number else f"{number}. {title}"
    if citations:
        ids = ", ".join(map(citation_token, sorted(citations)))
        line = f"{line} <citation>{ids}</citation>"
    return line


def render_outline(og: OutlineGraph) -> str:
    """Canonical wire form: title then one line per node, no indentation.

    A node's own line is written back while it is canonical and the node still
    has the number, title and citations it was parsed with."""
    lines = [og.title]
    for node in og.walk():
        fields = node._line
        if (
            fields is not None
            and fields[4] is not None
            and fields[0] == node.number
            and fields[1] == node.title
            and fields[2] == node.citations
        ):
            lines.append(fields[4])
        else:
            lines.append(_format_line(node.number, node.title, node.citations))
    lines.append("")
    return "\n".join(lines)


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
    issued is a validation error. The parse reuses the lines ``og_old`` was
    parsed from, and ``og_old`` is left as it is.
    """
    og_new = check_citations(parse_outline(revised_text, og_old), bank)
    new_ids = og_new.all_citations()
    if og_old.all_citations() <= new_ids:
        return og_new
    # First former host in document order anchors the similarity match.
    lost: dict[int, str] = {}
    for node in og_old.walk():
        for ev_id in sorted(node.citations):
            if ev_id not in new_ids and ev_id not in lost:
                lost[ev_id] = node.title

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
