"""Deterministic providers for tests, fixtures, and offline runs.

The scripted chat provider replays canned responses by first-match on prompt
content; running past the script raises instead of inventing text. Search and
fetch providers serve from fixture dictionaries. The embedding provider hashes
word tokens into a fixed pseudo-random basis, so identical texts embed
identically and texts sharing words are measurably closer than unrelated ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .base import (
    FetchError,
    ScriptExhaustedError,
    SearchResult,
    UnmatchedPromptError,
    Providers,
)
from ..checks import loads, require_list, require_object, require_str, require_strings
from ..config import RunConfig

__all__ = [
    "ScriptEntry",
    "ScriptedChatProvider",
    "StaticChatProvider",
    "FixtureSearchProvider",
    "FixtureFetchProvider",
    "HashEmbeddingProvider",
    "Fixture",
    "load_fixture",
]


@dataclass(frozen=True)
class ScriptEntry:
    """Matches when every substring occurs in the prompt."""

    match: list[str]
    responses: list[str]

    def matches(self, prompt: str) -> bool:
        return all(s in prompt for s in self.match)


class ScriptedChatProvider:
    """Replays ``entries``; the provider counts the responses each has given."""

    def __init__(self, entries: Sequence[ScriptEntry]):
        self.entries = list(entries)
        self._given = [0] * len(self.entries)

    def complete(self, prompt: str) -> str:
        matched_but_spent = False
        for i, entry in enumerate(self.entries):
            if entry.matches(prompt):
                given = self._given[i]
                if given == len(entry.responses):
                    matched_but_spent = True
                    continue
                self._given[i] = given + 1
                return entry.responses[given]
        head = prompt[:160].replace("\n", " | ")
        if matched_but_spent:
            raise ScriptExhaustedError(f"script exhausted for prompt: {head!r}")
        raise UnmatchedPromptError(f"no script entry matches prompt: {head!r}")


@dataclass
class StaticChatProvider:
    """Always returns the same text; handy for single-call tests."""

    response: str

    def complete(self, prompt: str) -> str:
        return self.response


class FixtureSearchProvider:
    """Serves canned results per exact query string; unknown queries are empty."""

    def __init__(self, results: dict[str, list[SearchResult]]):
        self.results = results

    def search(self, query: str, top_n: int) -> list[SearchResult]:
        return list(self.results.get(query, []))[:top_n]


class FixtureFetchProvider:
    def __init__(self, pages: dict[str, str]):
        self.pages = pages

    def fetch(self, url: str) -> str:
        try:
            return self.pages[url]
        except KeyError:
            raise FetchError(f"no fixture page for {url}") from None


class HashEmbeddingProvider:
    """Seeded bag-of-words embedding with unit-norm output rows."""

    def __init__(self, dim: int = 32, seed: int = 0):
        self.dim = dim
        self.seed = seed
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = hashlib.sha256(f"{self.seed}:{token}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            vec = rng.standard_normal(self.dim)
            self._token_cache[token] = vec
        return vec

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = np.zeros((len(texts), self.dim), dtype=float)
        for i, text in enumerate(texts):
            tokens = [t for t in "".join(
                c.lower() if c.isalnum() else " " for c in text
            ).split() if t]
            if not tokens:
                tokens = [""]
            acc = np.zeros(self.dim, dtype=float)
            for t in tokens:
                acc += self._token_vector(t)
            norm = float(np.linalg.norm(acc))
            if norm == 0.0:
                acc = self._token_vector("")
                norm = float(np.linalg.norm(acc))
            rows[i] = acc / norm
        return rows


@dataclass
class Fixture:
    """A self-contained scripted run: providers plus the run it was built for."""

    root_query: str
    config: dict = field(default_factory=dict)
    chat_entries: list[ScriptEntry] = field(default_factory=list)
    search_results: dict[str, list[SearchResult]] = field(default_factory=dict)
    pages: dict[str, str] = field(default_factory=dict)

    def providers(self, config: RunConfig | None = None) -> Providers:
        """Fresh providers for a run of ``config`` (by default the fixture's own):
        the chat provider replays the script from its start, and the embedder
        takes its width and seed from the config."""
        if config is None:
            config = RunConfig.from_dict(self.config)
        return Providers(
            chat=ScriptedChatProvider(self.chat_entries),
            search=FixtureSearchProvider(self.search_results),
            fetch=FixtureFetchProvider(self.pages),
            embed=HashEmbeddingProvider(dim=config.embed_dim, seed=config.seed),
        )


def _script_entry(value, what: str) -> ScriptEntry:
    e = require_object(value, what)
    return ScriptEntry(
        match=require_strings(e["match"], f"{what}.match"),
        responses=require_strings(e["responses"], f"{what}.responses"),
    )


def _search_result(value, what: str, rank: int) -> SearchResult:
    r = require_object(value, what)
    url, title, snippet = (
        require_str(r[key], f"{what}.{key}", allow_empty=True)
        for key in ("url", "title", "snippet")
    )
    return SearchResult(url=url, title=title, snippet=snippet, rank=rank)


def load_fixture(path: str | Path) -> Fixture:
    """Read a fixture file; a value of the wrong shape is a SchemaViolation naming it."""
    doc = require_object(loads(Path(path).read_text(encoding="utf-8")), "fixture")
    entries = [
        _script_entry(e, f"chat_script[{i}]")
        for i, e in enumerate(require_list(doc["chat_script"], "chat_script"))
    ]
    results = {
        query: [
            _search_result(r, f"search_results[{query!r}][{i}]", i)
            for i, r in enumerate(require_list(rs, f"search_results[{query!r}]"))
        ]
        for query, rs in require_object(doc.get("search_results", {}), "search_results").items()
    }
    pages = {
        url: require_str(text, f"pages[{url!r}]", allow_empty=True)
        for url, text in require_object(doc.get("pages", {}), "pages").items()
    }
    return Fixture(
        root_query=require_str(doc["root_query"], "root_query", allow_empty=True),
        config=require_object(doc.get("config", {}), "config"),
        chat_entries=entries,
        search_results=results,
        pages=pages,
    )
