"""Provider interfaces the engine talks to.

Four capabilities: chat completion, web search, page fetch, and text
embedding. Everything else in the engine is deterministic given these. Real
network adapters plug in behind the same protocols; the repository ships
scripted, fixture-backed, and simulation-backed implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "ProviderError",
    "ChatProviderError",
    "FetchError",
    "ScriptExhaustedError",
    "UnmatchedPromptError",
    "SearchResult",
    "ChatProvider",
    "SearchProvider",
    "FetchProvider",
    "EmbeddingProvider",
    "Providers",
]


class ProviderError(RuntimeError):
    """Base class for provider failures (network, script, adapter)."""


class ChatProviderError(ProviderError):
    pass


class FetchError(ProviderError):
    pass


class ScriptExhaustedError(ChatProviderError):
    """A scripted provider matched the prompt but has no responses left."""


class UnmatchedPromptError(ChatProviderError):
    """A scripted provider has no entry matching the prompt."""


@dataclass(frozen=True)
class SearchResult:
    url: str
    title: str
    snippet: str
    rank: int


@runtime_checkable
class ChatProvider(Protocol):
    def complete(self, prompt: str) -> str: ...


@runtime_checkable
class SearchProvider(Protocol):
    def search(self, query: str, top_n: int) -> list[SearchResult]: ...


@runtime_checkable
class FetchProvider(Protocol):
    def fetch(self, url: str) -> str: ...


@runtime_checkable
class EmbeddingProvider(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Unit-norm row vectors, one per input text."""
        ...


@dataclass
class Providers:
    """The full capability bundle a run needs."""

    chat: ChatProvider
    search: SearchProvider
    fetch: FetchProvider
    embed: EmbeddingProvider
