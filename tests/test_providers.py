"""Mock providers: scripted chat discipline, fixtures, embeddings."""

from __future__ import annotations

import json
import random
import string

import numpy as np
import pytest

from dualgraph.providers.base import (
    FetchError,
    ProviderError,
    ScriptExhaustedError,
    SearchResult,
    UnmatchedPromptError,
)
from dualgraph.providers.mock import (
    Fixture,
    FixtureFetchProvider,
    FixtureSearchProvider,
    HashEmbeddingProvider,
    ScriptedChatProvider,
    ScriptEntry,
    StaticChatProvider,
    load_fixture,
)


class TestScriptedChat:
    def test_first_matching_entry_wins(self):
        chat = ScriptedChatProvider(
            [
                ScriptEntry(match=["alpha", "beta"], responses=["both"]),
                ScriptEntry(match=["alpha"], responses=["just alpha"]),
            ]
        )
        assert chat.complete("has alpha and beta inside") == "both"
        assert chat.complete("only alpha here") == "just alpha"

    def test_all_match_substrings_required(self):
        chat = ScriptedChatProvider(
            [ScriptEntry(match=["alpha", "beta"], responses=["both"])]
        )
        with pytest.raises(UnmatchedPromptError):
            chat.complete("only alpha here")

    def test_responses_consumed_in_order_then_exhausted(self):
        chat = ScriptedChatProvider(
            [ScriptEntry(match=["q"], responses=["first", "second"])]
        )
        assert chat.complete("q") == "first"
        assert chat.complete("q") == "second"
        with pytest.raises(ScriptExhaustedError):
            chat.complete("q")

    def test_spent_entry_falls_through_to_later_match(self):
        chat = ScriptedChatProvider(
            [
                ScriptEntry(match=["specific", "q"], responses=["s1"]),
                ScriptEntry(match=["q"], responses=["generic"]),
            ]
        )
        assert chat.complete("specific q") == "s1"
        assert chat.complete("specific q") == "generic"
        with pytest.raises(ScriptExhaustedError):
            chat.complete("specific q")

    def test_errors_are_provider_errors(self):
        assert issubclass(ScriptExhaustedError, ProviderError)
        assert issubclass(UnmatchedPromptError, ProviderError)

    def test_static_chat_repeats(self):
        chat = StaticChatProvider(response="same")
        assert chat.complete("a") == chat.complete("b") == "same"


class TestFixtureProviders:
    def test_search_slices_to_top_n(self):
        results = [
            SearchResult(url=f"https://a.test/{i}", title=f"t{i}", snippet="s", rank=i)
            for i in range(5)
        ]
        search = FixtureSearchProvider({"q": results})
        assert [r.url for r in search.search("q", top_n=2)] == [
            "https://a.test/0",
            "https://a.test/1",
        ]
        assert search.search("unknown", top_n=3) == []

    def test_fetch_known_and_unknown(self):
        fetch = FixtureFetchProvider({"https://a.test/x": "body"})
        assert fetch.fetch("https://a.test/x") == "body"
        with pytest.raises(FetchError):
            fetch.fetch("https://a.test/missing")


class TestHashEmbedding:
    def test_unit_norm_over_many_strings(self):
        gen = random.Random(11)
        texts = [
            "".join(gen.choices(string.ascii_letters + string.digits + "  -_/", k=gen.randint(1, 40)))
            for _ in range(1000)
        ]
        rows = HashEmbeddingProvider(dim=32, seed=0).embed(texts)
        assert rows.shape == (1000, 32)
        norms = np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_deterministic_across_instances(self):
        a = HashEmbeddingProvider(dim=16, seed=3).embed(["grid storage"])
        b = HashEmbeddingProvider(dim=16, seed=3).embed(["grid storage"])
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = HashEmbeddingProvider(dim=16, seed=0).embed(["grid storage"])
        b = HashEmbeddingProvider(dim=16, seed=1).embed(["grid storage"])
        assert not np.allclose(a, b)

    def test_tokenization_ignores_case_and_punctuation(self):
        provider = HashEmbeddingProvider(dim=16, seed=0)
        a, b = provider.embed(["Grid-Storage!", "grid storage"])
        assert np.allclose(a, b)

    def test_empty_text_still_unit_norm(self):
        rows = HashEmbeddingProvider(dim=8, seed=0).embed(["", "  ...  "])
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)


class TestFixtureLoading:
    def test_round_trip_from_json(self, tmp_path):
        doc = {
            "root_query": "q",
            "config": {"max_iter": 2, "embed_dim": 16},
            "chat_script": [{"match": ["hello"], "responses": ["world"]}],
            "search_results": {
                "q1": [{"url": "https://a.test/1", "title": "t", "snippet": "s"}]
            },
            "pages": {"https://a.test/1": "body"},
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        fixture = load_fixture(path)
        assert isinstance(fixture, Fixture)
        assert fixture.root_query == "q"
        providers = fixture.providers()
        assert providers.chat.complete("hello there") == "world"
        assert providers.search.search("q1", 5)[0].url == "https://a.test/1"
        assert providers.fetch.fetch("https://a.test/1") == "body"
        assert providers.embed.embed(["x"]).shape == (1, 16)
