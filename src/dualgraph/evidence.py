"""Append-only evidence bank with global URL deduplication.

Every retrieved page that survives filtering becomes an EvidenceUnit with a
monotonically increasing integer id. Ids are global across iterations and are
rendered as ``id_N`` wherever the outline or a prompt refers to evidence.
Id N is the unit at list position N - 1: ``add`` issues ``len + 1`` and
``from_dicts`` rejects gaps, so the unit list is the id index.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from urllib.parse import urlsplit, urlunsplit

from .providers.parsers import _require_int, _require_str

__all__ = [
    "EvidenceError",
    "EvidenceNotFoundError",
    "EvidenceUnit",
    "EvidenceBank",
    "normalize_url",
    "citation_token",
    "parse_citation_token",
]


class EvidenceError(ValueError):
    """Invalid input to an evidence-bank operation."""


class EvidenceNotFoundError(KeyError):
    """Lookup of an evidence id that was never issued."""


_TOKEN_RE = re.compile(r"^id_([1-9][0-9]*)$")


def normalize_url(url: str) -> str:
    """Canonical form used for deduplication.

    Lowercases scheme and host, strips any fragment and a single trailing
    slash on the path. The query string is significant and kept as-is.
    """
    if not url or not url.strip():
        raise EvidenceError("url must be non-empty")
    parts = urlsplit(url.strip())
    path = parts.path
    if path.endswith("/"):
        path = path[:-1]
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, ""))


def citation_token(evidence_id: int) -> str:
    """Render an integer id in the wire form used inside citation markers."""
    if evidence_id < 1:
        raise EvidenceError(f"evidence ids start at 1, got {evidence_id}")
    return f"id_{evidence_id}"


def parse_citation_token(token: str) -> int:
    m = _TOKEN_RE.match(token.strip())
    if m is None:
        raise EvidenceError(f"not a citation token: {token!r}")
    return int(m.group(1))


@dataclass
class EvidenceUnit:
    """One filtered retrieval result.

    iteration records when the unit entered the bank (0 = initial retrieval).
    """

    evidence_id: int
    url: str
    title: str
    query: str
    summary: str
    content: str
    iteration: int

    def __post_init__(self) -> None:
        if self.evidence_id < 1:
            raise EvidenceError("evidence_id must be >= 1")
        if not self.url:
            raise EvidenceError("url must be non-empty")
        if not self.query.strip():
            raise EvidenceError("query must be non-empty")
        if self.iteration < 0:
            raise EvidenceError("iteration must be >= 0")

    def to_dict(self) -> dict:
        return {
            "evidence_id": self.evidence_id,
            "url": self.url,
            "title": self.title,
            "query": self.query,
            "summary": self.summary,
            "content": self.content,
            "iteration": self.iteration,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvidenceUnit":
        """Rebuild a unit from ``to_dict`` output, whose field types it checks."""
        texts = {
            name: _require_str(d[name], name, allow_empty=True)
            for name in ("url", "title", "query", "summary", "content")
        }
        return cls(
            evidence_id=_require_int(d["evidence_id"], "evidence_id"),
            iteration=_require_int(d["iteration"], "iteration"),
            **texts,
        )


@dataclass
class EvidenceBank:
    """Ordered store of evidence units; the only issuer of evidence ids."""

    units: list[EvidenceUnit] = field(default_factory=list)
    _seen_urls: set[str] = field(default_factory=set, repr=False)

    def __len__(self) -> int:
        return len(self.units)

    def __contains__(self, evidence_id: int) -> bool:
        return 0 < evidence_id <= len(self.units)

    @property
    def next_id(self) -> int:
        return len(self.units) + 1

    def add(
        self,
        url: str,
        title: str,
        query: str,
        summary: str,
        content: str,
        iteration: int,
    ) -> int | None:
        """Add one unit; returns its id, or None when the URL is already banked."""
        if not query or not query.strip():
            raise EvidenceError("query must be non-empty")
        key = normalize_url(url)
        if key in self._seen_urls:
            return None
        unit = EvidenceUnit(
            evidence_id=self.next_id,
            url=url,
            title=title,
            query=query,
            summary=summary,
            content=content,
            iteration=iteration,
        )
        self.units.append(unit)
        self._seen_urls.add(key)
        return unit.evidence_id

    def has_url(self, url: str) -> bool:
        return normalize_url(url) in self._seen_urls

    def get(self, evidence_id: int) -> EvidenceUnit:
        if evidence_id not in self:
            raise EvidenceNotFoundError(f"no evidence unit with id {evidence_id}")
        return self.units[evidence_id - 1]

    def copy(self) -> "EvidenceBank":
        """A bank that can grow apart from this one; the units are shared."""
        return EvidenceBank(list(self.units), set(self._seen_urls))

    def to_document(self) -> str:
        doc = {"units": [u.to_dict() for u in self.units]}
        return json.dumps(doc, ensure_ascii=False) + "\n"

    @classmethod
    def from_dicts(cls, entries: Iterable[dict]) -> "EvidenceBank":
        """A bank of ``EvidenceUnit.to_dict`` entries, which must list ids 1, 2, ... in
        order; like ``add``, it takes no unit whose URL normalizes as an earlier one's."""
        bank = cls()
        for entry in entries:
            unit = EvidenceUnit.from_dict(entry)
            if unit.evidence_id != bank.next_id:
                raise EvidenceError(
                    f"non-contiguous evidence id {unit.evidence_id} (expected {bank.next_id})"
                )
            key = normalize_url(unit.url)
            if key in bank._seen_urls:
                raise EvidenceError(f"unit {unit.evidence_id} repeats a banked URL: {unit.url!r}")
            bank.units.append(unit)
            bank._seen_urls.add(key)
        return bank
