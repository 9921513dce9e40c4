from .base import (
    ChatProvider,
    ChatProviderError,
    EmbeddingProvider,
    FetchError,
    FetchProvider,
    ProviderError,
    Providers,
    ScriptExhaustedError,
    SearchProvider,
    SearchResult,
    UnmatchedPromptError,
)

__all__ = [
    "ChatProvider",
    "ChatProviderError",
    "EmbeddingProvider",
    "FetchError",
    "FetchProvider",
    "ProviderError",
    "Providers",
    "ScriptExhaustedError",
    "SearchProvider",
    "SearchResult",
    "UnmatchedPromptError",
]
