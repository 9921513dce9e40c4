"""Run lifecycle: config, dedup, retrieval, early stop, checkpoint, resume."""

from __future__ import annotations

import base64
import json
import logging
import random
import re
from collections import Counter
from dataclasses import asdict, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from dualgraph import orchestrator, rundir
from dualgraph.evidence import EvidenceBank, EvidenceUnit
from dualgraph.kg import KnowledgeGraph, MergeCluster, merge_nodes
from dualgraph.orchestrator import (
    ConfigError,
    EarlyStopReport,
    RunConfig,
    Runner,
    RunState,
    Variant,
    dedup_queries,
    drive,
    evaluate_early_stop,
    init_run,
    normalize_query,
    run_iteration,
    run_search_pipeline,
    update_kg,
    write_report,
)
from dualgraph.outline import OutlineValidationError, parse_outline, render_outline
from dualgraph.providers.base import (
    FetchError,
    ProviderError,
    Providers,
    SearchResult,
)
from dualgraph.providers.mock import (
    FixtureFetchProvider,
    FixtureSearchProvider,
    HashEmbeddingProvider,
    ScriptedChatProvider,
    ScriptEntry,
    StaticChatProvider,
    load_fixture,
)
from dualgraph.providers.parsers import SCORE_DIMENSIONS, ParseError, load_template
from dualgraph.rundir import RunDir
from dualgraph.simulate import DEFAULT_ROOT_QUERY, generate_world, sim_providers

from .builders import (
    DEMO_FIXTURE,
    Crash,
    CrashingRunner,
    FailingAt,
    audit_log,
    crash_demo_run,
    dir_snapshot,
    keeps_only_uncommitted_audit,
    template_calls,
)


def _config(**overrides) -> RunConfig:
    return RunConfig(**overrides)


def _scores_json(value: float) -> str:
    return json.dumps({dim: value for dim in SCORE_DIMENSIONS})


class TestRunConfig:
    def test_stop_bar_is_one_number(self):
        bar = _config(early_stop_thresholds=90).early_stop_thresholds
        assert bar == 90.0 and type(bar) is float
        assert _config().early_stop_thresholds == 75.0
        with pytest.raises(ConfigError):
            _config(early_stop_thresholds={d: 90.0 for d in SCORE_DIMENSIONS})

    def test_variant_accepts_wire_strings(self):
        assert _config(variant="outline-only").variant is Variant.OUTLINE_ONLY
        assert _config(variant="dualgraph").variant is Variant.DUAL_GRAPH

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_iter": 0},
            {"og_query_budget": 0},
            {"urls_per_query": 0},
            {"kg_query_budget": 0},
            {"embed_dim": 0},
            {"urls_per_query": 1.5},
            {"early_stop_thresholds": {"support": 50.0}},
            {"early_stop_thresholds": {d: 101.0 for d in SCORE_DIMENSIONS}},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            _config(**overrides)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            _config(variant="both")

    def test_readme_table_lists_every_field_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = [line.split(" | ")[:2] for line in table.split("\n\n", 1)[0].splitlines()]

        def shown(value) -> str:
            if isinstance(value, Variant):
                return f"`{value.value}`"
            return str(value)

        defaults = RunConfig()
        assert rows == [
            [f"| `{f.name}`", shown(getattr(defaults, f.name))] for f in fields(RunConfig)
        ]

    def test_dict_round_trip_and_unknown_keys(self):
        config = _config(max_iter=3, variant="outline-only", seed=9)
        assert RunConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"max_iter": 3, "mystery": 1})


class TestNormalizeQuery:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Grid   Storage ", "grid storage"),
            ("Grid storage?", "grid storage"),
            ("GRID storage!!", "grid storage"),
            ("a.b", "a.b"),
            ("", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_query(raw) == expected


class _MappedEmbed:
    """Embeds normalized query text through an explicit vector table."""

    def __init__(self, table: dict[str, tuple[float, float]]):
        self.table = table

    def embed(self, texts):
        rows = []
        for t in texts:
            assert t in self.table, f"no scripted vector for {t!r}"
            rows.append(self.table[t])
        return np.asarray(rows, dtype=float)


def _dedup_reference(new, executed, embed, threshold):
    """Each candidate embedded against the executed and earlier kept queries."""
    prior = [normalize_query(q) for q in executed]
    kept, kept_norms = [], []
    for q in new:
        nq = normalize_query(q)
        if not nq or nq in prior or nq in kept_norms:
            continue
        reference = prior + kept_norms
        if reference:
            vectors = embed([nq] + reference)
            if float((vectors[1:] @ vectors[0]).max()) >= threshold:
                continue
        kept.append(q.strip())
        kept_norms.append(nq)
    return kept


class TestDedupQueries:
    def test_exact_duplicates_dropped_without_embedding(self):
        class _Boom:
            def embed(self, texts):  # pragma: no cover - must not be called
                raise AssertionError("embedding not needed for exact duplicates")

        kept = dedup_queries(
            ["Solar  curtailment TRENDS?", "solar curtailment trends"],
            ["solar curtailment trends"],
            _Boom().embed,
        )
        assert kept == []

    def test_near_duplicate_threshold_is_sharp(self):
        base = "solar curtailment trends"
        close = "curtailment of solar output"      # cosine 0.96 vs base
        distinct = "battery fire safety rules"     # cosine 0.90 vs base
        table = {
            normalize_query(base): (1.0, 0.0),
            normalize_query(close): (0.96, float(np.sqrt(1 - 0.96**2))),
            normalize_query(distinct): (0.90, float(np.sqrt(1 - 0.90**2))),
        }
        kept = dedup_queries(
            [close, distinct], [base], _MappedEmbed(table).embed, threshold=0.95
        )
        assert kept == [distinct]

    def test_one_embed_call_still_drops_near_duplicates_of_kept_candidates(self):
        base = "solar curtailment trends"
        first = "grid storage costs"
        echo = "storage costs of the grid"         # cosine 0.97 vs first
        other = "battery fire safety rules"
        table = {
            normalize_query(base): (1.0, 0.0, 0.0),
            normalize_query(first): (0.0, 1.0, 0.0),
            normalize_query(echo): (0.0, 0.97, float(np.sqrt(1 - 0.97**2))),
            normalize_query(other): (0.0, 0.0, 1.0),
        }
        mapped = _MappedEmbed(table)
        calls = []

        def embed(texts):
            calls.append(list(texts))
            return mapped.embed(texts)

        kept = dedup_queries([first, echo, "Grid storage costs.", other], [base], embed)
        assert kept == [first, other]
        assert len(calls) == 1
        assert calls[0] == [normalize_query(q) for q in (base, first, echo, other)]

    def test_matches_per_candidate_reference_on_random_batches(self):
        rng = random.Random(7)
        words = ["grid", "solar", "storage", "cost", "battery", "wind", "price", "policy"]
        embed = HashEmbeddingProvider(dim=8).embed

        def query():
            return " ".join(rng.sample(words, rng.randint(1, 4))) + rng.choice(["", "?", " "])

        near_duplicates = 0
        for _ in range(200):
            executed = [query() for _ in range(rng.randint(0, 5))]
            new = [query() for _ in range(rng.randint(0, 8))]
            want = _dedup_reference(new, executed, embed, 0.9)
            assert dedup_queries(new, executed, embed, 0.9) == want
            # A threshold above 1 leaves only the exact-duplicate rule.
            near_duplicates += want != dedup_queries(new, executed, embed, 2.0)
        assert near_duplicates > 20

    def test_blank_queries_discarded(self):
        kept = dedup_queries(
            ["   ", "real query"], [], HashEmbeddingProvider(dim=8).embed
        )
        assert kept == ["real query"]


class _CountingFetch:
    def __init__(self, pages: dict[str, str]):
        self.inner = FixtureFetchProvider(pages)
        self.calls: list[str] = []

    def fetch(self, url: str) -> str:
        self.calls.append(url)
        return self.inner.fetch(url)


def _pipeline_providers(results_by_query, pages, chat) -> Providers:
    if isinstance(chat, list):
        chat = ScriptedChatProvider(chat)
    return Providers(
        chat=chat,
        search=FixtureSearchProvider(results_by_query),
        fetch=_CountingFetch(pages),
        embed=HashEmbeddingProvider(dim=8),
    )


def _fresh_state(config: RunConfig) -> RunState:
    state = RunState(root_query="root question", config=config)
    state.og = parse_outline("Report\n1. Section\n")
    return state


def _results(*urls: str, snippet: str = "s") -> list[SearchResult]:
    return [
        SearchResult(url=url, title=f"t{rank}", snippet=snippet, rank=rank)
        for rank, url in enumerate(urls)
    ]


def _assessed(*entries) -> str:
    """A batched assess_page answer: (useful, summary) per page."""
    return json.dumps(
        [{"useful": useful, "summary": summary, "salient_content": ""} for useful, summary in entries]
    )


def _calls(state: RunState, name: str) -> list[str]:
    """The prompts of the audited calls to template ``name``, in call order."""
    return [record["prompt"] for record in state.audit if record["name"] == name]


def _page_urls(prompt: str) -> list[str]:
    return re.findall(r"^<url>(.*)</url>$", prompt, re.MULTILINE)


class _JudgeAll:
    """Selects every result it is shown and finds every page useful, answering
    from the prompt alone; its ``malformed``-th calls get text no parser takes."""

    def __init__(self, malformed=()):
        self.malformed = set(malformed)
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls in self.malformed:
            return "not json"
        if "screening search results" in prompt:
            return json.dumps(list(range(len(re.findall(r"^\d+\. ", prompt, re.MULTILINE)))))
        return _assessed(*((True, f"about {url}") for url in _page_urls(prompt)))


class TestRunSearchPipeline:
    def test_filter_fetch_assess_and_bank(self):
        pages = {
            "https://s.test/0": "body0",
            "https://s.test/2": "body2",
        }
        chat = [
            ScriptEntry(match=["screening search results", "https://s.test/1"], responses=["[2, 0]"]),
            ScriptEntry(
                match=["extracting evidence from fetched pages", "https://s.test/0", "https://s.test/2"],
                responses=[
                    '[{"useful": true, "summary": "sum0", "salient_content": "c0"}, '
                    '{"useful": false, "summary": "", "salient_content": ""}]'
                ],
            ),
        ]
        results = _results("https://s.test/0", "https://s.test/1", "https://s.test/2")
        providers = _pipeline_providers({"q1": results}, pages, chat)
        state = _fresh_state(_config(urls_per_query=3))
        new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        # Index 1 was filtered out; index 2 fetched but judged useless.
        assert new == {"q1": [1]}
        assert state.bank.get(1).url == "https://s.test/0"
        assert state.bank.get(1).summary == "sum0"
        assert state.executed_queries == ["q1"]
        assert providers.fetch.calls == ["https://s.test/0", "https://s.test/2"]
        # One prompt per stage: the root query once, each result with its query.
        (filter_prompt,) = _calls(state, "filter_urls")
        assert filter_prompt.count("root question") == 1
        assert filter_prompt.count("query: q1") == 3
        (assess_prompt,) = _calls(state, "assess_page")
        assert _page_urls(assess_prompt) == ["https://s.test/0", "https://s.test/2"]
        assert assess_prompt.count("<query>q1</query>") == 2

    def test_banked_urls_skipped_before_fetch(self):
        chat = [
            ScriptEntry(match=["screening search results"], responses=["[0]"]),
            ScriptEntry(match=["extracting evidence"], responses=[_assessed((True, "s"))]),
        ]
        providers = _pipeline_providers(
            {"q1": _results("https://s.test/0", "https://s.test/1")},
            {"https://s.test/1": "body"},
            chat,
        )
        state = _fresh_state(_config())
        state.bank.add("https://s.test/0", "t", "old", "s", "c", 0)
        new = run_search_pipeline(state, providers, ["q1"], iteration=1)
        assert new == {"q1": [2]}
        assert providers.fetch.calls == ["https://s.test/1"]
        # The banked URL never reaches the filter, so index 0 is the other one.
        assert "https://s.test/0" not in _calls(state, "filter_urls")[0]

    def test_a_pass_with_every_result_banked_makes_no_chat_call(self):
        providers = _pipeline_providers(
            {"q1": _results("https://s.test/0"), "q2": _results("https://S.test/0/", "https://s.test/1")},
            {},
            [],  # any chat call is an UnmatchedPromptError
        )
        state = _fresh_state(_config())
        state.bank.add("https://s.test/0", "t", "old", "s", "c", 0)
        state.bank.add("https://s.test/1", "t", "old", "s", "c", 0)
        new = run_search_pipeline(state, providers, ["q1", "q2"], iteration=1)
        assert new == {"q1": [], "q2": []}
        assert state.audit == [] and providers.fetch.calls == []
        assert state.executed_queries == ["q1", "q2"]

    def test_a_url_two_queries_return_is_shown_once_and_credited_to_the_first(self):
        pages = {f"https://s.test/{i}": f"body{i}" for i in range(3)}
        providers = _pipeline_providers(
            {
                "q1": _results("https://s.test/0", "https://s.test/1"),
                "q2": _results("https://S.test/1/", "https://s.test/2"),
            },
            pages,
            _JudgeAll(),
        )
        state = _fresh_state(_config())
        new = run_search_pipeline(state, providers, ["q1", "q2"], iteration=0)
        assert new == {"q1": [1, 2], "q2": [3]}
        assert [(u.url, u.query) for u in state.bank.units] == [
            ("https://s.test/0", "q1"), ("https://s.test/1", "q1"), ("https://s.test/2", "q2"),
        ]
        (filter_prompt,) = _calls(state, "filter_urls")
        assert "S.test/1/" not in filter_prompt
        assert re.findall(r"^(\d+)\. .*\n   query: (q\d)$", filter_prompt, re.MULTILINE) == [
            ("0", "q1"), ("1", "q1"), ("2", "q2"),
        ]
        assert providers.fetch.calls == list(pages)
        assert len(_calls(state, "assess_page")) == 1

    def test_a_union_over_the_budget_splits_into_filter_calls_with_chunk_local_indices(self):
        snippet = "x" * 1000
        urls = [f"https://s.test/{i}" for i in range(40)]
        selections = ["[0]", "[1, 0]", "[0]", "[0]"]
        chat = [ScriptEntry(match=["screening search results"], responses=selections)]
        providers = _pipeline_providers(
            {"q1": _results(*urls[:20], snippet=snippet), "q2": _results(*urls[20:], snippet=snippet)},
            {},
            chat,
        )
        state = _fresh_state(_config(urls_per_query=20))
        run_search_pipeline(state, providers, ["q1", "q2"], iteration=0)
        prompts = _calls(state, "filter_urls")
        assert len(prompts) >= 2
        shown = []
        for prompt in prompts:
            entries = prompt.split("# Results\n", 1)[1]
            numbers = re.findall(r"^(\d+)\. ", entries, re.MULTILINE)
            assert numbers == [str(i) for i in range(len(numbers))]
            assert len(entries.encode("utf-8")) <= orchestrator._CHUNK_BYTES + 100
            shown.append(re.findall(r"^   (https://\S+)$", entries, re.MULTILINE))
        # Every URL is shown once, in query then rank order.
        assert [url for chunk in shown for url in chunk] == urls
        # Each selection indexes its own chunk; no page was fetchable.
        want = [chunk[0] for chunk in shown]
        want[1:2] = [shown[1][0], shown[1][1]]
        assert providers.fetch.calls == want
        assert _calls(state, "assess_page") == []

    def test_an_oversize_page_is_assessed_alone_and_whole(self):
        big = "y" * (orchestrator._CHUNK_BYTES + 1) + "\nthe end"
        pages = {"https://s.test/0": "small0", "https://s.test/1": big, "https://s.test/2": "small2"}
        providers = _pipeline_providers(
            {"q1": _results(*pages)}, pages, _JudgeAll()
        )
        state = _fresh_state(_config())
        new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1, 2, 3]}
        prompts = _calls(state, "assess_page")
        assert [_page_urls(p) for p in prompts] == [[url] for url in pages]
        assert f"<content>\n{big}\n</content>" in prompts[1]

    def test_a_malformed_answer_re_asks_only_its_own_chunk_with_the_identical_prompt(self):
        pages = {f"https://s.test/{i}": str(i) * 9000 for i in range(3)}
        # Call 1 filters; calls 2-4 assess one page each; call 3 is malformed.
        chat = _JudgeAll(malformed={3})
        providers = _pipeline_providers({"q1": _results(*pages)}, pages, chat)
        state = _fresh_state(_config())
        new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1, 2, 3]}
        prompts = _calls(state, "assess_page")
        assert [_page_urls(p) for p in prompts] == [
            ["https://s.test/0"], ["https://s.test/1"], ["https://s.test/1"], ["https://s.test/2"],
        ]
        assert prompts[1] == prompts[2]
        assert [r["response"] for r in state.audit].count("not json") == 1

    def test_malformed_filter_response_retried_with_same_prompt(self):
        chat = [
            ScriptEntry(
                match=["screening search results"],
                responses=["not an index list", "[0]"],
            ),
            ScriptEntry(match=["extracting evidence"], responses=[_assessed((True, "s"))]),
        ]
        providers = _pipeline_providers(
            {"q1": _results("https://s.test/0")}, {"https://s.test/0": "body"}, chat
        )
        state = _fresh_state(_config())
        new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1]}
        filter_calls = _calls(state, "filter_urls")
        assert len(filter_calls) == 2
        assert filter_calls[0] == filter_calls[1]

    def test_fetch_errors_skip_result_not_run(self):
        chat = [
            ScriptEntry(match=["screening search results"], responses=["[0, 1]"]),
            ScriptEntry(
                match=["extracting evidence", "https://s.test/ok"],
                responses=[_assessed((True, "s"))],
            ),
        ]
        providers = _pipeline_providers(
            {"q1": _results("https://s.test/gone", "https://s.test/ok")},
            {"https://s.test/ok": "body"},
            chat,
        )
        state = _fresh_state(_config())
        new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1]}
        assert state.bank.get(1).url == "https://s.test/ok"

    def test_a_fetch_error_drops_that_page_but_keeps_the_rest_of_its_chunk(self, caplog):
        urls = ["https://s.test/0", "https://s.test/gone", "https://s.test/2"]
        pages = {urls[0]: "body0", urls[2]: "body2"}
        providers = _pipeline_providers({"q1": _results(*urls)}, pages, _JudgeAll())
        state = _fresh_state(_config())
        with caplog.at_level(logging.WARNING, logger="dualgraph.orchestrator"):
            new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1, 2]}
        assert providers.fetch.calls == urls
        (prompt,) = _calls(state, "assess_page")
        assert _page_urls(prompt) == [urls[0], urls[2]]
        assert [u.url for u in state.bank.units] == [urls[0], urls[2]]
        assert "fetch failed for https://s.test/gone" in caplog.text

    def test_blank_url_results_dropped_before_the_filter(self, caplog):
        results = [
            SearchResult(url="   ", title="blank", snippet="s", rank=0),
            SearchResult(url="https://s.test/ok", title="ok", snippet="s", rank=1),
        ]
        chat = [
            ScriptEntry(match=["screening search results"], responses=["[0]"]),
            ScriptEntry(
                match=["extracting evidence", "https://s.test/ok"],
                responses=[_assessed((True, "s"))],
            ),
        ]
        providers = _pipeline_providers({"q1": results}, {"https://s.test/ok": "body"}, chat)
        state = _fresh_state(_config())
        with caplog.at_level(logging.WARNING, logger="dualgraph.orchestrator"):
            new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1]}
        assert state.bank.get(1).url == "https://s.test/ok"
        assert "0. ok" in state.audit[0]["prompt"] and "blank" not in state.audit[0]["prompt"]
        assert "blank-URL" in caplog.text

    def test_a_url_urlsplit_rejects_is_dropped_before_the_filter(self, caplog):
        results = [
            SearchResult(url="http://[::1", title="bad", snippet="s", rank=0),
            SearchResult(url="https://s.test/ok", title="ok", snippet="s", rank=1),
        ]
        chat = [
            ScriptEntry(match=["screening search results"], responses=["[0]"]),
            ScriptEntry(
                match=["extracting evidence", "https://s.test/ok"],
                responses=[_assessed((True, "s"))],
            ),
        ]
        providers = _pipeline_providers({"q1": results}, {"https://s.test/ok": "body"}, chat)
        state = _fresh_state(_config())
        with caplog.at_level(logging.WARNING, logger="dualgraph.orchestrator"):
            new = run_search_pipeline(state, providers, ["q1"], iteration=0)
        assert new == {"q1": [1]}
        assert [u.url for u in state.bank.units] == ["https://s.test/ok"]
        assert "0. ok" in state.audit[0]["prompt"] and "[::1" not in state.audit[0]["prompt"]
        assert "dropped 1 blank-URL or unparseable-URL result(s)" in caplog.text


def _stop_providers(response: str) -> Providers:
    return Providers(
        chat=StaticChatProvider(response=response),
        search=FixtureSearchProvider({}),
        fetch=FixtureFetchProvider({}),
        embed=HashEmbeddingProvider(dim=8),
    )


class TestEvaluateEarlyStop:
    def test_all_dimensions_must_clear_thresholds(self):
        state = _fresh_state(_config(early_stop_thresholds=80.0))
        state.bank.add("https://e.test/1", "t", "q", "s", "c", 0)
        state.og = parse_outline("R\n1. A <citation>id_1</citation>\n")
        verdict = evaluate_early_stop(state, _stop_providers(_scores_json(85)), state.config)
        assert verdict.stop

        verdict = evaluate_early_stop(state, _stop_providers(_scores_json(79)), state.config)
        assert not verdict.stop

    def test_uncited_outline_forces_support_to_zero(self):
        state = _fresh_state(_config(early_stop_thresholds=50.0))
        verdict = evaluate_early_stop(state, _stop_providers(_scores_json(100)), state.config)
        assert verdict.scores["support"] == 0.0
        assert not verdict.stop

    def test_unusable_judge_response_continues_run(self):
        state = _fresh_state(_config())
        verdict = evaluate_early_stop(
            state, _stop_providers("judge went off script"), state.config
        )
        assert verdict.scores == {d: 0.0 for d in SCORE_DIMENSIONS}
        assert not verdict.stop


class TestWriteReport:
    def test_citing_unbanked_evidence_rejected_before_any_chat(self):
        state = _fresh_state(_config())
        state.og = parse_outline("R\n1. A <citation>id_3</citation>\n")

        class _Boom:
            def complete(self, prompt):  # pragma: no cover - must not be called
                raise AssertionError("no chat expected")

        providers = Providers(
            chat=_Boom(),
            search=FixtureSearchProvider({}),
            fetch=FixtureFetchProvider({}),
            embed=HashEmbeddingProvider(dim=8),
        )
        with pytest.raises(OutlineValidationError):
            write_report(state, providers)


def _demo_runner(run_dir) -> Runner:
    fixture = load_fixture(DEMO_FIXTURE)
    config = RunConfig.from_dict(fixture.config)
    return Runner(config, fixture.providers(), run_dir)


def _cut_after_first_pass(providers: Providers) -> None:
    """Cut the script after the first loop pass: the revision call of the
    second pass matches only the content-specific entry, so emptying it
    surfaces as a provider failure mid-iteration."""
    entries = providers.chat.entries
    first = next(
        i for i, e in enumerate(entries) if any("revising the outline" in m for m in e.match)
    )
    entries[first] = replace(entries[first], responses=[])


def _add_uncommitted_tail(run_dir: Path) -> None:
    """What a crash between the log appends and the state.json replace leaves:
    records past the committed counts, the last one torn."""
    stray = {"name": "stray", "prompt": "", "response": ""}
    with open(run_dir / "audit.jsonl", "a", encoding="utf-8") as log_file:
        log_file.write(json.dumps(stray) + "\n")
    with open(run_dir / "bank.jsonl", "a", encoding="utf-8") as log_file:
        log_file.write('{"evidence_id": 999, "url": "https://torn.test/')


def _assert_interrupted_run_resumes_identically(
    tmp_path, make_fixture, reuse_runner=False, crash_before_commit=None, boundary_iteration=1
):
    fixture = make_fixture()
    Runner(
        RunConfig.from_dict(fixture.config), fixture.providers(), tmp_path / "clean"
    ).start(fixture.root_query)

    broken = make_fixture()
    providers = broken.providers()
    if crash_before_commit is None:
        _cut_after_first_pass(providers)
        runner = Runner(RunConfig.from_dict(broken.config), providers, tmp_path / "resumed")
        with pytest.raises(ProviderError):
            runner.start(broken.root_query)
    else:
        runner = CrashingRunner(
            RunConfig.from_dict(broken.config), providers, tmp_path / "resumed",
            crash_before_commit=crash_before_commit,
        )
        with pytest.raises(Crash):
            runner.start(broken.root_query)
    # Resume must drop a tail past the committed counts.
    _add_uncommitted_tail(tmp_path / "resumed")
    boundary = runner.load_state()
    assert boundary.stage == "loop"
    assert boundary.iteration == boundary_iteration

    fresh = make_fixture()
    if reuse_runner:
        runner.providers = fresh.providers()
    else:
        runner = Runner(RunConfig.from_dict(fresh.config), fresh.providers(), tmp_path / "resumed")
    resumed = runner.resume()
    assert resumed.stage == "done"
    assert dir_snapshot(tmp_path / "clean") == dir_snapshot(tmp_path / "resumed")


class TestRunnerOnDemoFixture:
    def test_full_run_produces_expected_artifacts(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        state = _demo_runner(tmp_path / "run").start(fixture.root_query)
        assert state.stage == "done"
        assert state.iteration == 2
        assert state.report and state.report.startswith("# ")
        for name in (
            "state.json",
            "kg.json",
            "bank.json",
            "bank.jsonl",
            "audit.jsonl",
            "report.md",
            "chains_iter1.json",
            "chains_iter2.json",
        ):
            assert (tmp_path / "run" / name).exists(), name
        assert not (tmp_path / "run" / "outline.txt").exists()
        # Citations in the final outline resolve inside the bank.
        assert all(i in state.bank for i in state.og.all_citations())

    def test_an_uninterrupted_run_spends_every_scripted_response(self, tmp_path):
        # A response no prompt reaches is a stale entry the script only seems to need.
        fixture = load_fixture(DEMO_FIXTURE)
        runner = _demo_runner(tmp_path / "run")
        runner.start(fixture.root_query)
        chat = runner.providers.chat
        assert chat._given == [len(entry.responses) for entry in chat.entries]

    def test_event_trace_follows_loop_grammar(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        state = _demo_runner(tmp_path / "run").start(fixture.root_query)
        events = state.events
        assert events[:4] == [
            "init:create_outline",
            "init:gen_from_og",
            "init:search",
            "init:build_kg",
        ]
        first = [e.split(":", 1)[1] for e in events if e.startswith("iter0:")]
        assert first == ["gen_from_kg", "dedup", "search", "update_kg", "update_og"]
        second = [e.split(":", 1)[1] for e in events if e.startswith("iter1:")]
        assert second == [
            "gen_from_kg",
            "gen_from_og",
            "dedup",
            "search",
            "update_kg",
            "update_og",
            "early_stop",
        ]

    def test_iteration_chain_payloads_recorded(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        run_dir = tmp_path / "run"
        _demo_runner(run_dir).start(fixture.root_query)
        names = sorted(p.name for p in run_dir.glob("chains_iter*"))
        assert names == ["chains_iter1.json", "chains_iter2.json"]
        for name in names:
            payload = json.loads((run_dir / name).read_text(encoding="utf-8"))
            assert set(payload) == {"candidates", "selected", "queries"}
            assert len(payload["selected"]) == len(payload["queries"])
            candidate_ids = {c["chain_id"] for c in payload["candidates"]}
            assert set(payload["selected"]) <= candidate_ids

    def test_state_round_trip_preserves_run(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        runner = _demo_runner(tmp_path / "run")
        state = runner.start(fixture.root_query)
        loaded = runner.load_state()
        assert loaded.to_dict() == state.to_dict()
        assert render_outline(loaded.og) == render_outline(state.og)
        assert loaded.kg.to_dict() == state.kg.to_dict()
        assert loaded.bank.to_document() == state.bank.to_document()
        assert loaded.report == state.report
        assert loaded.audit == state.audit

    def test_checkpoints_keep_one_audit_and_write_files_once(self, tmp_path):
        inodes = []
        checkpoints: list[tuple[str, list[str]]] = []

        class WatchingRunDir(RunDir):
            def _replace(self, name, text):
                checkpoints[-1][1].append(name)
                super()._replace(name, text)

        class WatchingRunner(Runner):
            def __init__(self, *args):
                super().__init__(*args)
                self.files = WatchingRunDir(self.run_dir)

            def _checkpoint(self, state):
                checkpoints.append((state.stage, []))
                super()._checkpoint(state)
                chains = self.run_dir / "chains_iter1.json"
                if chains.exists():
                    inodes.append(chains.stat().st_ino)

        fixture = load_fixture(DEMO_FIXTURE)
        run_dir = tmp_path / "run"
        WatchingRunner(
            RunConfig.from_dict(fixture.config), fixture.providers(), run_dir
        ).start(fixture.root_query)
        doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        # Other files hold these; state.json only commits them.
        assert not {"audit", "outline", "kg", "bank", "iteration_chains", "report"} & set(doc)
        bank_log = (run_dir / "bank.jsonl").read_text(encoding="utf-8")
        assert doc["bank_units"] == bank_log.count("\n") > 0
        bank = json.loads((run_dir / "bank.json").read_text(encoding="utf-8"))
        assert set(bank) == {"units"}
        assert bank["units"] == [json.loads(line) for line in bank_log.splitlines()]
        log = (run_dir / "audit.jsonl").read_text(encoding="utf-8")
        assert log.endswith("\n")
        assert doc["audit_records"] == log.count("\n") > 0
        assert not list(run_dir.glob("*.tmp"))
        # Written after iteration 1, then left alone by the later checkpoints.
        assert len(inodes) >= 2 and len(set(inodes)) == 1
        # Outline, graph and chains files are written once per run; the final
        # graph and bank only by the checkpoint that finishes it, which writes
        # no outline.
        artifacts = [
            name for _, names in checkpoints for name in names
            if name not in ("state.json", "bank.jsonl", "audit.jsonl")
        ]
        assert sorted(artifacts) == sorted(
            [f"outline_iter{n}.txt" for n in range(3)]
            + [f"kg_iter{n}.json" for n in range(3)]
            + ["chains_iter1.json", "chains_iter2.json", "kg.json", "bank.json", "report.md"]
        )
        for final in ("kg.json", "bank.json"):
            assert [stage for stage, names in checkpoints if final in names] == ["done"]
        # No checkpoint ever replaces a log; every one appends.
        for log_name in ("audit.jsonl", "bank.jsonl"):
            assert [i for i, (_, names) in enumerate(checkpoints) if log_name in names] == []

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            fixture = load_fixture(DEMO_FIXTURE)
            _demo_runner(tmp_path / name).start(fixture.root_query)
        assert dir_snapshot(tmp_path / "a") == dir_snapshot(tmp_path / "b")

    def test_two_runs_from_one_loaded_fixture_are_byte_identical(self, tmp_path):
        # Each set of providers replays the script from its start.
        fixture = load_fixture(DEMO_FIXTURE)
        for name in ("a", "b"):
            Runner(
                RunConfig.from_dict(fixture.config), fixture.providers(), tmp_path / name
            ).start(fixture.root_query)
        assert dir_snapshot(tmp_path / "a") == dir_snapshot(tmp_path / "b")

    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        _assert_interrupted_run_resumes_identically(tmp_path, lambda: load_fixture(DEMO_FIXTURE))

    @pytest.mark.parametrize("commit, boundary_iteration", [(4, 1), (5, 2)])
    def test_crash_before_state_replace_resumes_from_last_commit(
        self, tmp_path, commit, boundary_iteration
    ):
        # Commits: start, init, iteration 1, iteration 2, report.
        _assert_interrupted_run_resumes_identically(
            tmp_path, lambda: load_fixture(DEMO_FIXTURE),
            crash_before_commit=commit, boundary_iteration=boundary_iteration,
        )

    def test_crash_window_leaves_uncommitted_files_ahead_of_state(self, tmp_path):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        # What the crash test above resumes through: the loader must take the
        # committed iteration's files and only the committed bank units.
        doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        assert doc["iteration"] == 1
        bank_log = (run_dir / "bank.jsonl").read_text(encoding="utf-8")
        assert bank_log.count("\n") > doc["bank_units"]
        loaded = _demo_runner(run_dir).load_state()
        assert len(loaded.bank) == doc["bank_units"]
        for newer, committed in (("kg_iter2.json", "kg_iter1.json"), ("outline_iter2.txt", "outline_iter1.txt")):
            assert (run_dir / newer).read_bytes() != (run_dir / committed).read_bytes()
        # The final graph and bank are written only when the run finishes.
        for final in ("kg.json", "bank.json"):
            assert not (run_dir / final).exists()

    def test_resumed_runner_rewrites_the_log_it_already_wrote_to(self, tmp_path):
        _assert_interrupted_run_resumes_identically(
            tmp_path, lambda: load_fixture(DEMO_FIXTURE), reuse_runner=True
        )

    def test_runner_reused_for_a_new_run_rewrites_the_log(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        _demo_runner(tmp_path / "clean").start(fixture.root_query)
        runner = _demo_runner(tmp_path / "reused")
        runner.start(fixture.root_query)
        with open(tmp_path / "reused" / "audit.jsonl", "a", encoding="utf-8") as log_file:
            log_file.write(json.dumps({"name": "stray"}) + "\n")
        runner.providers = load_fixture(DEMO_FIXTURE).providers()
        runner.start(fixture.root_query)
        assert dir_snapshot(tmp_path / "clean") == dir_snapshot(tmp_path / "reused")

    def test_resume_reads_records_holding_unicode_line_breaks(self, tmp_path):
        # Page text reaches the recorded prompts verbatim; json.dumps leaves
        # U+2028 and U+0085 unescaped, so the log must split on "\n" only.
        def fixture_with_line_breaks():
            fixture = load_fixture(DEMO_FIXTURE)
            fixture.pages = {
                url: text + "\u2028line\u0085break" for url, text in fixture.pages.items()
            }
            return fixture

        _assert_interrupted_run_resumes_identically(tmp_path, fixture_with_line_breaks)
        log = (tmp_path / "resumed" / "audit.jsonl").read_text(encoding="utf-8")
        assert "\u2028" in log and "\u0085" in log


def _write_as_older_versions_did(run_dir: Path) -> None:
    """Put back what format 8 once wrote and no reader reads: each graph edge's
    ``representation`` and each audit record's ``call`` number, in the key order
    those versions wrote them."""
    for path in run_dir.glob("kg_iter*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        names = {n["node_id"]: n["knowledge"] for n in doc["knowledge_nodes"]}
        doc["knowledge_edges"] = [
            {
                "edge_id": e["edge_id"],
                "source_id": e["source_id"],
                "target_id": e["target_id"],
                "relation_name": e["relation_name"],
                "representation": (
                    f"{names[e['source_id']]} - {e['relation_name']} -> {names[e['target_id']]}"
                ),
                "evidence_ids": e["evidence_ids"],
            }
            for e in doc["knowledge_edges"]
        ]
        path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    path = run_dir / "audit.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n")[:-1]]
    path.write_text(
        "".join(
            json.dumps({"call": call, **record}, ensure_ascii=False) + "\n"
            for call, record in enumerate(records)
        ),
        encoding="utf-8",
    )


class TestResumeWhatOlderVersionsWrote:
    def test_edge_representations_and_call_numbers_are_not_read(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        _demo_runner(tmp_path / "clean").start(fixture.root_query)
        providers = fixture.providers()
        _cut_after_first_pass(providers)
        run_dir = tmp_path / "old"
        with pytest.raises(ProviderError):
            Runner(RunConfig.from_dict(fixture.config), providers, run_dir).start(
                fixture.root_query
            )
        _write_as_older_versions_did(run_dir)
        assert '"representation": ' in (run_dir / "kg_iter1.json").read_text(encoding="utf-8")
        assert (run_dir / "audit.jsonl").read_text(encoding="utf-8").startswith('{"call": 0, ')
        assert _demo_runner(run_dir).resume().stage == "done"
        for name in ("report.md", "state.json", "kg.json", "bank.json"):
            assert (run_dir / name).read_bytes() == (tmp_path / "clean" / name).read_bytes(), name


def _file_states(run_dir: Path) -> dict[str, tuple[bytes, int, int]]:
    """Name -> (bytes, inode, mtime in ns) of every file in a run directory."""
    return {
        p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
        for p in sorted(run_dir.iterdir())
    }


def _committed_prefix(path: Path, count: int) -> bytes:
    with open(path, "rb") as log_file:
        return b"".join(islice(log_file, count))


class _DownChat:
    def complete(self, prompt):
        raise ProviderError("chat is down")


class _Recording:
    """Chat, search, fetch and embed over ``inner`` that keep each answered call
    as the record replay.jsonl holds for it."""

    def __init__(self, inner: Providers):
        self.inner = inner
        self.records: list[dict] = []

    def providers(self) -> Providers:
        return replace(self.inner, chat=self, search=self, fetch=self, embed=self)

    def embed(self, texts):
        rows = self.inner.embed.embed(texts)
        self.records.append({
            "kind": "embed",
            "request": list(texts),
            "answer": [
                base64.b64encode(np.asarray(row, dtype="<f8").tobytes()).decode("ascii")
                for row in rows
            ],
        })
        return rows

    def complete(self, prompt):
        response = self.inner.chat.complete(prompt)
        self.records.append({"kind": "chat", "request": prompt, "answer": response})
        return response

    def search(self, query, top_n):
        results = self.inner.search.search(query, top_n)
        self.records.append({
            "kind": "search",
            "request": {"query": query, "top_n": top_n},
            "answer": [asdict(r) for r in results],
        })
        return results

    def fetch(self, url):
        try:
            page = self.inner.fetch.fetch(url)
        except FetchError as exc:
            self.records.append({"kind": "fetch", "request": url, "error": str(exc)})
            raise
        self.records.append({"kind": "fetch", "request": url, "answer": page})
        return page


def _replay_records(run_dir: Path) -> list[dict]:
    """The records of replay.jsonl; none when a run directory holds no replay."""
    if not (run_dir / "replay.jsonl").exists():
        return []
    with open(run_dir / "replay.jsonl", encoding="utf-8") as log_file:
        return [json.loads(line) for line in log_file]


def _probe(records: list[dict]) -> list[dict]:
    """The record of the probe a resume sends before replaying ``records``: the
    first text of their first embed, and its row; none when they hold no embed."""
    embeds = [r for r in records if r["kind"] == "embed"]
    return [
        {"kind": "embed", "request": r["request"][:1], "answer": r["answer"][:1]}
        for r in embeds[:1]
    ]


class TestResumeWritesOnlyWhatTheFaultLost:
    def test_provider_failure_writes_only_the_exchanges_since_the_checkpoint(self, tmp_path):
        boundaries, snapshots, recorded = [], [], []

        class SnapshottingRunner(Runner):
            def _checkpoint(self, state):
                super()._checkpoint(state)
                boundaries.append((state.stage, state.iteration))
                snapshots.append(_file_states(self.run_dir))
                recorded.append(len(recording.records))

        fixture = load_fixture(DEMO_FIXTURE)
        providers = fixture.providers()
        _cut_after_first_pass(providers)
        recording = _Recording(providers)
        run_dir = tmp_path / "run"
        runner = SnapshottingRunner(
            RunConfig.from_dict(fixture.config), recording.providers(), run_dir
        )
        with pytest.raises(ProviderError):
            runner.start(fixture.root_query)
        # Checkpoints commit start, init and the first pass; the failure takes none.
        assert boundaries == [("init", 0), ("loop", 0), ("loop", 1)]
        files = _file_states(run_dir)
        files.pop("replay.jsonl")
        assert files == snapshots[-1]
        # It writes down every answer the second pass got before the failure.
        spilled = recording.records[recorded[-1]:]
        assert {r["kind"] for r in spilled} == {"chat", "search", "fetch", "embed"}
        assert _replay_records(run_dir) == spilled

    def test_resume_cuts_the_uncommitted_tail_in_place(self, tmp_path):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        _add_uncommitted_tail(run_dir)
        doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        counts = {"audit.jsonl": doc["audit_records"], "bank.jsonl": doc["bank_units"]}
        prefixes = {name: _committed_prefix(run_dir / name, n) for name, n in counts.items()}
        inodes = {name: (run_dir / name).stat().st_ino for name in counts}
        for name, prefix in prefixes.items():
            assert len(prefix) < (run_dir / name).stat().st_size

        # A resume that fails on its first chat call has cut each log, and written nothing else.
        providers = load_fixture(DEMO_FIXTURE).providers()
        providers.chat = _DownChat()
        with pytest.raises(ProviderError):
            Runner(RunDir(run_dir).config(), providers, run_dir).resume()
        for name, prefix in prefixes.items():
            assert (run_dir / name).read_bytes() == prefix
            assert (run_dir / name).stat().st_ino == inodes[name]

        state = _demo_runner(run_dir).resume()
        assert state.stage == "done"
        for name, prefix in prefixes.items():
            assert (run_dir / name).read_bytes().startswith(prefix)
            assert (run_dir / name).stat().st_ino == inodes[name]
        assert not list(run_dir.glob("*.tmp"))

    def test_resume_reads_each_committed_line_once(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        _add_uncommitted_tail(run_dir)
        doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        counts = {"audit.jsonl": doc["audit_records"], "bank.jsonl": doc["bank_units"]}
        committed = {name: len(_committed_prefix(run_dir / name, n)) for name, n in counts.items()}
        reads: dict[str, list[int]] = {name: [] for name in counts}  # bytes per reading open

        class CountingFile:
            def __init__(self, file, tally: list[int]):
                self._file, self._tally = file, tally

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._file.close()

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._file)
                self._tally[-1] += len(line)
                return line

            def read(self, *args):
                data = self._file.read(*args)
                self._tally[-1] += len(data)
                return data

            def __getattr__(self, name):
                return getattr(self._file, name)

        def spy_open(path, mode="r", *args, **kwargs):
            file = open(path, mode, *args, **kwargs)
            tally = reads.get(Path(path).name)
            if tally is None or "r" not in mode:
                return file
            tally.append(0)
            return CountingFile(file, tally)

        monkeypatch.setattr(rundir, "open", spy_open, raising=False)
        providers = load_fixture(DEMO_FIXTURE).providers()
        providers.chat = _DownChat()
        with pytest.raises(ProviderError):
            Runner(RunDir(run_dir).config(), providers, run_dir).resume()
        # One open per log, reading its committed lines and nothing past them.
        assert reads == {name: [size] for name, size in committed.items()}
        for name, size in committed.items():
            assert (run_dir / name).stat().st_size == size

    def test_resume_of_a_finished_run_writes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        runner = _demo_runner(run_dir)
        runner.start(load_fixture(DEMO_FIXTURE).root_query)
        before = _file_states(run_dir)
        assert runner.resume().stage == "done"
        assert _file_states(run_dir) == before

    def test_a_finished_run_resumes_with_no_providers(self, tmp_path):
        run_dir = tmp_path / "run"
        _demo_runner(run_dir).start(load_fixture(DEMO_FIXTURE).root_query)
        before = dir_snapshot(run_dir)
        state = Runner(RunDir(run_dir).config(), None, run_dir).resume()
        assert state.stage == "done" and state.report
        assert dir_snapshot(run_dir) == before
        # drive itself wants no providers for a finished state.
        assert list(drive(state, None)) == []

    def test_a_resume_under_another_config_is_rejected_before_any_cut(self, tmp_path):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        _add_uncommitted_tail(run_dir)
        before = dir_snapshot(run_dir)
        committed = RunDir(run_dir).config()
        assert committed.max_iter == 2
        for other in (RunConfig(max_iter=1), replace(committed, max_iter=1), RunConfig()):
            with pytest.raises(ConfigError, match="state.json commits the config"):
                Runner(other, load_fixture(DEMO_FIXTURE).providers(), run_dir).resume()
            assert dir_snapshot(run_dir) == before
        state = Runner(committed, load_fixture(DEMO_FIXTURE).providers(), run_dir).resume()
        assert state.stage == "done" and state.iteration == 2

    def test_committed_line_that_lost_its_newline_gets_it_back(self, tmp_path):
        _demo_runner(tmp_path / "clean").start(load_fixture(DEMO_FIXTURE).root_query)
        run_dir = tmp_path / "resumed"
        crash_demo_run(run_dir)
        doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        prefix = _committed_prefix(run_dir / "audit.jsonl", doc["audit_records"])
        (run_dir / "audit.jsonl").write_bytes(prefix[:-1])
        assert _demo_runner(run_dir).resume().stage == "done"
        assert dir_snapshot(tmp_path / "clean") == dir_snapshot(run_dir)


class TestCheckpointCostsWhatChanged:
    def test_each_unit_is_encoded_once_for_the_log_and_once_for_the_final_bank(
        self, tmp_path, monkeypatch
    ):
        encoded: Counter = Counter()
        documents: list[int] = []
        to_dict, to_document = EvidenceUnit.to_dict, EvidenceBank.to_document

        def counting_to_dict(unit):
            encoded[unit.evidence_id] += 1
            return to_dict(unit)

        def counting_to_document(bank):
            documents.append(len(bank))
            return to_document(bank)

        monkeypatch.setattr(EvidenceUnit, "to_dict", counting_to_dict)
        monkeypatch.setattr(EvidenceBank, "to_document", counting_to_document)
        state = _demo_runner(tmp_path / "run").start(load_fixture(DEMO_FIXTURE).root_query)
        assert state.iteration == 2 and len(state.bank) > 0
        # One bank.json, for the finished run; each loop checkpoint encodes only its new units.
        assert documents == [len(state.bank)]
        assert encoded == {unit.evidence_id: 2 for unit in state.bank.units}

    def test_only_clones_copy_the_graph(self, tmp_path, monkeypatch):
        active: list[str] = []
        copied_by: list[str | None] = []
        calls: Counter = Counter()

        def tracked(owner, fn, counts=lambda *args: True):
            def wrapper(*args):
                calls[owner] += bool(counts(*args))
                active.append(owner)
                try:
                    return fn(*args)
                finally:
                    active.pop()
            return wrapper

        copy = KnowledgeGraph.copy

        def recording_copy(kg):
            copied_by.append(active[-1] if active else None)
            return copy(kg)

        monkeypatch.setattr(KnowledgeGraph, "copy", recording_copy)
        monkeypatch.setattr(
            RunState, "clone", tracked("clone", RunState.clone, lambda s: s.kg is not None)
        )
        for name in ("apply_extraction", "merge_nodes"):
            monkeypatch.setattr(orchestrator, name, tracked(name, getattr(orchestrator, name)))
        _demo_runner(tmp_path / "run").start(load_fixture(DEMO_FIXTURE).root_query)
        assert calls["apply_extraction"] > 0 and calls["clone"] > 0
        assert calls["merge_nodes"] == 1
        assert Counter(copied_by) == {"clone": calls["clone"]}


def _small_sim(variant: str = "dualgraph") -> tuple[RunConfig, Providers, str]:
    world = generate_world(seed=1, n_communities=2, cores_per_community=1,
                           concepts_per_community=2)
    config = RunConfig(max_iter=3, og_query_budget=2, kg_query_budget=4, urls_per_query=8,
                       variant=variant)
    return config, sim_providers(world, config.embed_dim, config.seed), DEFAULT_ROOT_QUERY


def _demo() -> tuple[RunConfig, Providers, str]:
    fixture = load_fixture(DEMO_FIXTURE)
    return RunConfig.from_dict(fixture.config), fixture.providers(), fixture.root_query


class TestStartClearsAnEarlierRun:
    @staticmethod
    def _sim_run(run_dir, variant):
        config, providers, root_query = _small_sim(variant)
        Runner(config, providers, run_dir).start(root_query)

    def test_outline_only_rerun_drops_the_graph_files(self, tmp_path):
        self._sim_run(tmp_path / "clean", "outline-only")
        rerun = tmp_path / "rerun"
        self._sim_run(rerun, "dualgraph")
        assert (rerun / "kg.json").exists()
        (rerun / "notes_iter2.md").write_text("kept\n", encoding="utf-8")
        self._sim_run(rerun, "outline-only")
        files = dir_snapshot(rerun)
        assert files.pop("notes_iter2.md") == b"kept\n"
        assert files == dir_snapshot(tmp_path / "clean")

    def test_rerun_deletes_what_a_failure_spilled(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        _demo_runner(tmp_path / "clean").start(fixture.root_query)
        providers = fixture.providers()
        _cut_after_first_pass(providers)
        run_dir = tmp_path / "rerun"
        with pytest.raises(ProviderError):
            Runner(RunConfig.from_dict(fixture.config), providers, run_dir).start(
                fixture.root_query
            )
        assert (run_dir / "replay.jsonl").exists()
        # A rerun asks every call afresh: it replays nothing of the spill.
        recording = _Recording(load_fixture(DEMO_FIXTURE).providers())
        Runner(RunConfig.from_dict(fixture.config), recording.providers(), run_dir).start(
            fixture.root_query
        )
        assert dir_snapshot(run_dir) == dir_snapshot(tmp_path / "clean")
        assert len([r for r in recording.records if r["kind"] == "chat"]) == len(
            (run_dir / "audit.jsonl").read_text(encoding="utf-8").splitlines()
        )

    def test_a_resume_deletes_a_spill_cut_before_its_rename(self, tmp_path):
        fixture = load_fixture(DEMO_FIXTURE)
        _demo_runner(tmp_path / "clean").start(fixture.root_query)
        providers = fixture.providers()
        _cut_after_first_pass(providers)
        run_dir = tmp_path / "cut"
        with pytest.raises(ProviderError):
            Runner(RunConfig.from_dict(fixture.config), providers, run_dir).start(
                fixture.root_query
            )
        # Killed between the spill's write and its rename: the resume finds no replay.
        (run_dir / "replay.jsonl").replace(run_dir / "replay.jsonl.tmp")
        _demo_runner(run_dir).resume()
        assert dir_snapshot(run_dir) == dir_snapshot(tmp_path / "clean")

    def test_an_empty_spill_deletes_a_stray_tmp(self, tmp_path):
        files = RunDir(tmp_path)
        (tmp_path / "replay.jsonl").write_text("x\n", encoding="utf-8")
        (tmp_path / "replay.jsonl.tmp").write_text("x\n", encoding="utf-8")
        files.spill([])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", [
        "state.json", "report.md", "bank.json", "kg.json", "outline.txt", "replay.jsonl",
        "audit.jsonl", "bank.jsonl", "embed.jsonl",
        "outline_iter1.txt", "kg_iter1.json", "chains_iter1.json",
    ])
    def test_clear_deletes_a_stray_tmp_of_each_file_it_deletes(self, tmp_path, name):
        # What a process killed between a write and its rename leaves behind.
        (tmp_path / f"{name}.tmp").write_text("x\n", encoding="utf-8")
        (tmp_path / "notes.md.tmp").write_text("kept\n", encoding="utf-8")
        RunDir(tmp_path).clear()
        assert [p.name for p in tmp_path.iterdir()] == ["notes.md.tmp"]

    def test_outline_only_rerun_drops_a_stray_graph_tmp(self, tmp_path):
        self._sim_run(tmp_path / "clean", "outline-only")
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        (rerun / "kg.json.tmp").write_text("x\n", encoding="utf-8")
        self._sim_run(rerun, "outline-only")
        assert dir_snapshot(rerun) == dir_snapshot(tmp_path / "clean")

    def test_rerun_failing_on_its_first_chat_call_keeps_no_old_output(self, tmp_path):
        class _Down:
            def complete(self, prompt):
                raise ProviderError("chat is down")

        fixture = load_fixture(DEMO_FIXTURE)
        run_dir = tmp_path / "run"
        _demo_runner(run_dir).start(fixture.root_query)
        (run_dir / "notes_iter2.md").write_text("kept\n", encoding="utf-8")
        providers = fixture.providers()
        providers.chat = _Down()
        runner = Runner(RunConfig.from_dict(fixture.config), providers, run_dir)
        with pytest.raises(ProviderError):
            runner.start(fixture.root_query)
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["audit.jsonl", "bank.jsonl", "embed.jsonl", "notes_iter2.md", "state.json"]
        assert runner.load_state().stage == "init"


class _RecordingEmbed:
    """Passes texts through and records each batch under the current phase."""

    def __init__(self, inner):
        self.inner = inner
        self.phase = None
        self.batches: list[tuple[str | None, list[str]]] = []

    def embed(self, texts):
        self.batches.append((self.phase, list(texts)))
        return self.inner.embed(texts)

    def texts(self, phase):
        return [batch for p, batch in self.batches if p == phase]


_NO_MERGE = json.dumps({"clusters": []})


def _merge_response(sources, name):
    cluster = {"cluster_id": "c1", "representative_concept": name,
               "source_node_ids": sources, "similarity_justification": ""}
    return json.dumps({"clusters": [cluster]})


def _graph_state(*concepts: str) -> RunState:
    state = _fresh_state(_config())
    kg = KnowledgeGraph()
    core = kg.add_node("grid storage", True)
    for name in concepts:
        kg.add_edge(core, kg.add_node(name, False), "involves")
    state.kg = kg
    return state


def _kg_providers(embed, chat_response: str) -> Providers:
    return Providers(
        chat=StaticChatProvider(response=chat_response),
        search=FixtureSearchProvider({}),
        fetch=FixtureFetchProvider({}),
        embed=embed,
    )


class _MalformedEmbedAt:
    """An embedder over ``inner`` whose call ``at`` answers ``malform`` of its
    rows, keeping the texts of that call in ``malformed``."""

    def __init__(self, inner, at: int, malform):
        self.inner, self.at, self.malform, self.calls = inner, at, malform, 0
        self.malformed: list[str] = []

    def embed(self, texts):
        self.calls += 1
        rows = np.asarray(self.inner.embed(texts))
        if self.calls != self.at:
            return rows
        self.malformed = list(texts)
        return self.malform(rows)


MALFORMED_EMBEDS = {
    "a-row-short": lambda rows: rows[:-1],
    "one-dimensional": lambda rows: rows[:, 0],
}


class TestEmbedOnce:
    def test_pass_adding_no_node_embeds_nothing(self):
        state = _graph_state("battery cost", "pumped hydro")
        embed = _RecordingEmbed(HashEmbeddingProvider(dim=8))
        providers = _kg_providers(embed, _NO_MERGE)
        update_kg(state, providers, {})
        assert embed.texts(None) == [["grid storage", "battery cost", "pumped hydro"]]
        update_kg(state, providers, {"q": []})
        assert len(embed.batches) == 1
        assert all(n.embedding is not None for n in state.kg.nodes.values())

    def test_node_renamed_by_a_merge_is_embedded_again(self):
        state = _graph_state("battery cost", "battery price", "pumped hydro")
        embed = _RecordingEmbed(HashEmbeddingProvider(dim=8))
        update_kg(state, _kg_providers(embed, _NO_MERGE), {})
        update_kg(
            state, _kg_providers(embed, _merge_response(["n2", "n3"], "battery economics")), {}
        )
        assert [n.name for n in state.kg.nodes.values()] == [
            "grid storage", "battery economics", "pumped hydro"
        ]
        assert embed.texts(None)[1:] == [["battery economics"]]

    def test_loaded_graph_is_embedded_once_then_only_new_nodes(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        loaded = _demo_runner(run_dir).load_state()
        assert loaded.iteration == 1
        assert all(n.embedding is None for n in loaded.kg.nodes.values())

        providers = load_fixture(DEMO_FIXTURE).providers()
        embed = _RecordingEmbed(providers.embed)
        providers.embed = embed
        for name in ("gen_queries_from_kg", "update_kg"):
            def tagged(*args, _real=getattr(orchestrator, name), _name=name):
                embed.phase = _name
                try:
                    return _real(*args)
                finally:
                    embed.phase = None
            monkeypatch.setattr(orchestrator, name, tagged)
        after = run_iteration(loaded, providers)

        before = loaded.kg.nodes
        assert embed.texts("gen_queries_from_kg") == [
            [before[nid].name for nid in loaded.kg.node_ids()]
        ]
        new = [
            after.kg.nodes[nid].name for nid in after.kg.node_ids()
            if nid not in before or before[nid].name != after.kg.nodes[nid].name
        ]
        assert new == ["Long-duration storage"]
        # The pass's extracted nodes are embedded to be clustered; the merge
        # their group proposes renames one of them, which is embedded again.
        assert embed.texts("update_kg") == [new + ["Long-duration energy storage"], new]
        # The vectors went to the iteration's copy, not to its input.
        assert all(n.embedding is None for n in before.values())

        # A resume embeds through the committed memo, which holds every name of
        # the loaded graph: none reaches the provider again.
        assert {n.name for n in before.values()} <= set(loaded.embeddings)
        providers = load_fixture(DEMO_FIXTURE).providers()
        embed = _RecordingEmbed(providers.embed)
        providers.embed = embed
        assert Runner(RunConfig.from_dict(load_fixture(DEMO_FIXTURE).config), providers,
                      run_dir).resume().stage == "done"
        sent = [text for _, batch in embed.batches for text in batch]
        assert sent
        assert not {n.name for n in before.values()} & set(sent)


def _group_ids(prompt: str) -> list[str]:
    """The node ids a merge prompt's group block lists, in order."""
    return re.findall(r"^(n\d+) \| ", _block(prompt, "Concept Groups"), re.MULTILINE)


def _count_merges(monkeypatch) -> list:
    merges = []

    def counting(kg, clusters):
        merges.append(clusters)
        return merge_nodes(kg, clusters)

    monkeypatch.setattr(orchestrator, "merge_nodes", counting)
    return merges


class TestMergeAsksOnlyAboutSemanticGroups:
    # Under the 8-wide hashing embedder "battery cost" and "battery price" sit
    # at cosine 0.864, and "pumped hydro" and "pumped hydro storage" at 0.910:
    # each pair is one semantic cluster. No other pair reaches 0.85.

    def test_a_pass_without_a_concept_group_makes_no_merge_call(self):
        state = _graph_state("battery cost", "pumped hydro")
        update_kg(state, _kg_providers(HashEmbeddingProvider(dim=8), "never asked"), {})
        assert state.audit == []
        assert [n.cluster_id for n in state.kg.nodes.values()] == [0, 1, 2]

    def test_the_prompt_shows_only_the_group(self):
        state = _graph_state("battery cost", "battery price", "pumped hydro")
        update_kg(state, _kg_providers(HashEmbeddingProvider(dim=8), _NO_MERGE), {})
        [record] = state.audit
        assert record["name"] == "merge_concepts"
        assert _group_ids(record["prompt"]) == ["n2", "n3"]
        assert "grid storage - involves -> battery price" in record["prompt"]
        assert "pumped hydro" not in record["prompt"]

    @pytest.mark.parametrize(
        "concepts, bad",
        [
            (("battery cost", "battery price", "pumped hydro"), ["n3", "n4"]),  # n4 not shown
            (("battery cost", "battery price", "pumped hydro", "pumped hydro storage"),
             ["n3", "n4"]),  # two groups
        ],
        ids=["outside-the-groups", "across-groups"],
    )
    def test_a_bad_cluster_is_re_asked(self, monkeypatch, concepts, bad):
        merges = _count_merges(monkeypatch)
        state = _graph_state(*concepts)
        good = _merge_response(["n2", "n3"], "battery economics")
        chat = ScriptedChatProvider(
            [ScriptEntry(["propose merge clusters"], [_merge_response(bad, "x"), good])]
        )
        providers = replace(_kg_providers(HashEmbeddingProvider(dim=8), ""), chat=chat)
        update_kg(state, providers, {})
        assert [r["name"] for r in state.audit] == ["merge_concepts"] * 2
        assert state.audit[0]["prompt"] == state.audit[1]["prompt"]
        assert len(merges) == 1
        assert [n.name for n in state.kg.nodes.values()] == [
            "grid storage", "battery economics", *concepts[2:]
        ]

    def test_a_cluster_still_bad_after_the_re_asks_leaves_the_graph(self, monkeypatch):
        merges = _count_merges(monkeypatch)
        state = _graph_state("battery cost", "battery price", "pumped hydro")
        edges = [e.triple for e in state.kg.edges.values()]
        bad = _merge_response(["n3", "n4"], "x")
        update_kg(state, _kg_providers(HashEmbeddingProvider(dim=8), bad), {})
        assert len(state.audit) == 1 + orchestrator._RETRIES
        assert merges == []
        assert [e.triple for e in state.kg.edges.values()] == edges
        assert [n.name for n in state.kg.nodes.values()] == [
            "grid storage", "battery cost", "battery price", "pumped hydro"
        ]
        assert [n.cluster_id for n in state.kg.nodes.values()] == [0, 1, 1, 2]

    def test_a_ci_world_run_makes_no_merge_call(self, tmp_path):
        config, providers = _ci_world_run("dualgraph")
        runner = Runner(config, providers, tmp_path)
        runner.start(DEFAULT_ROOT_QUERY)
        calls = template_calls(runner)
        assert calls["extract_knowledge"] > 0 and calls["merge_concepts"] == 0

    def test_the_demo_asks_once_about_its_alias_pair(self, tmp_path):
        runner = _demo_runner(tmp_path)
        runner.start(load_fixture(DEMO_FIXTURE).root_query)
        assert template_calls(runner)["merge_concepts"] == 1
        [prompt] = [r["prompt"] for r in audit_log(runner) if r["name"] == "merge_concepts"]
        assert _group_ids(prompt) == ["n6", "n7"]


def _ci_world_run(variant: str) -> tuple[RunConfig, Providers]:
    world = generate_world(seed=1, n_communities=3, cores_per_community=2,
                           concepts_per_community=4)
    config = RunConfig(max_iter=6, og_query_budget=3, kg_query_budget=4, urls_per_query=6,
                       early_stop_thresholds=90.0, variant=variant)
    return config, sim_providers(world, config.embed_dim, config.seed)


class TestEmbedEachTextOnce:
    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_a_run_sends_no_text_twice(self, tmp_path, variant):
        config, providers = _ci_world_run(variant)
        embed = _RecordingEmbed(providers.embed)
        providers.embed = embed
        Runner(config, providers, tmp_path).start(DEFAULT_ROOT_QUERY)
        sent = Counter(text for _, batch in embed.batches for text in batch)
        assert sent and max(sent.values()) == 1

    def test_drive_leaves_the_callers_providers_as_given(self):
        config, providers = _ci_world_run("dualgraph")
        given = dict(vars(providers))
        *_, state = drive(RunState(root_query=DEFAULT_ROOT_QUERY, config=config), providers)
        assert state.stage == "done"
        assert all(vars(providers)[name] is value for name, value in given.items())

    def test_each_miss_batch_is_one_call_and_hits_make_none(self):
        inner = _RecordingEmbed(HashEmbeddingProvider(dim=8))
        rows: dict = {}
        memo = orchestrator._EmbedOnce(inner, rows)
        got = memo.embed(["grid", "cost", "grid"])
        assert inner.texts(None) == [["grid", "cost"]]
        np.testing.assert_array_equal(got, inner.inner.embed(["grid", "cost", "grid"]))
        memo.embed(["cost", "grid"])
        assert len(memo.embed([])) == 0
        assert len(inner.batches) == 1
        memo.embed(["hydro", "cost", "hydro", "wind"])
        assert inner.texts(None)[1:] == [["hydro", "wind"]]
        # The given memo holds each text's float64 row, in first-request order.
        assert list(rows) == ["grid", "cost", "hydro", "wind"]
        assert all(row.dtype == np.float64 for row in rows.values())

    def test_texts_already_in_the_memo_are_not_sent(self):
        inner = _RecordingEmbed(HashEmbeddingProvider(dim=8))
        rows = dict(zip(["grid", "cost"], HashEmbeddingProvider(dim=8).embed(["grid", "cost"])))
        got = orchestrator._EmbedOnce(inner, rows).embed(["cost", "hydro", "grid"])
        assert inner.texts(None) == [["hydro"]]
        np.testing.assert_array_equal(got, inner.inner.embed(["cost", "hydro", "grid"]))

    def test_changing_a_returned_row_changes_no_later_result(self):
        memo = orchestrator._EmbedOnce(HashEmbeddingProvider(dim=8), {})
        first = memo.embed(["grid", "cost"])
        want = first.copy()
        first[0] = 0.0
        first[1] *= -1.0
        again = memo.embed(["grid", "cost"])
        assert again is not first
        np.testing.assert_array_equal(again, want)

    def test_rows_of_another_width_are_a_config_error_that_adds_nothing(self):
        rows = dict(zip(["grid"], HashEmbeddingProvider(dim=8).embed(["grid"])))
        memo = orchestrator._EmbedOnce(HashEmbeddingProvider(dim=4), rows)
        with pytest.raises(ConfigError, match="embed.jsonl holds vectors of width 8.* width 4"):
            memo.embed(["grid", "cost"])
        assert list(rows) == ["grid"]
        np.testing.assert_array_equal(memo.embed(["grid"]), [rows["grid"]])

    @pytest.mark.parametrize("malform", MALFORMED_EMBEDS.values(), ids=MALFORMED_EMBEDS)
    @pytest.mark.parametrize("taped", [False, True], ids=["memo", "memo-over-tape"])
    def test_a_malformed_answer_is_a_parse_error_that_adds_nothing(self, malform, taped):
        rows = dict(zip(["grid"], HashEmbeddingProvider(dim=8).embed(["grid"])))
        inner = _MalformedEmbedAt(HashEmbeddingProvider(dim=8), 1, malform)
        tape = rundir._Tape(_kg_providers(inner, _NO_MERGE), (), rows)
        memo = orchestrator._EmbedOnce(tape if taped else inner, rows)
        with pytest.raises(ParseError, match="embedder answered 2 texts"):
            memo.embed(["grid", "cost", "hydro"])
        assert list(rows) == ["grid"] and tape.exchanges == []

    @pytest.mark.parametrize("malform", MALFORMED_EMBEDS.values(), ids=MALFORMED_EMBEDS)
    def test_a_runs_malformed_answer_reaches_no_file(self, tmp_path, malform):
        config, providers = _ci_world_run("dualgraph")
        embed = providers.embed = _MalformedEmbedAt(providers.embed, 5, malform)
        with pytest.raises(ParseError, match="embedder answered"):
            Runner(config, providers, tmp_path).start(DEFAULT_ROOT_QUERY)
        with open(tmp_path / "embed.jsonl", encoding="utf-8") as log_file:
            written = {json.loads(line)["text"] for line in log_file}
        assert written and not written & set(embed.malformed)
        assert not (tmp_path / "replay.jsonl").exists()


def _committed_texts(run_dir: Path) -> list[str]:
    """The texts of the lines of embed.jsonl that state.json commits."""
    doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
    lines = _committed_prefix(run_dir / "embed.jsonl", doc["embedded_texts"]).splitlines()
    return [json.loads(line)["text"] for line in lines]


class TestResumeEmbedsOnlyWhatTheFaultLost:
    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_the_memo_round_trips_through_embed_jsonl(self, tmp_path, variant):
        config, providers = _ci_world_run(variant)
        state = Runner(config, providers, tmp_path).start(DEFAULT_ROOT_QUERY)
        loaded = Runner(config, None, tmp_path).load_state()
        assert list(loaded.embeddings) == list(state.embeddings) == _committed_texts(tmp_path)
        for text, row in state.embeddings.items():
            assert loaded.embeddings[text].tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "provider, call",
        # The run makes 40 chat calls (call 20 selects the fourth pass's chains
        # and writes its outline queries, call 30 revises the fifth pass's
        # outline, call 35 extracts the last pass, the last three write the
        # report) and 12 embed calls.
        [("chat", 2), ("chat", 20), ("chat", 30), ("chat", 35), ("chat", 39),
         ("embed", 2), ("embed", 5), ("embed", 11)],
    )
    def test_a_resume_sends_no_committed_text(self, tmp_path, provider, call):
        config, providers = _ci_world_run("dualgraph")
        Runner(config, providers, tmp_path / "clean").start(DEFAULT_ROOT_QUERY)

        run_dir = tmp_path / "resumed"
        config, providers = _ci_world_run("dualgraph")
        setattr(providers, provider, FailingAt(getattr(providers, provider), call))
        with pytest.raises(ProviderError):
            Runner(config, providers, run_dir).start(DEFAULT_ROOT_QUERY)
        committed = _committed_texts(run_dir)
        replay = _replay_records(run_dir)
        replayed = [text for r in replay if r["kind"] == "embed" for text in r["request"]]

        # A fresh process: new providers, and the memo only from the run directory.
        config, providers = _ci_world_run("dualgraph")
        embed = _RecordingEmbed(providers.embed)
        providers.embed = embed
        assert Runner(config, providers, run_dir).resume().stage == "done"
        sent = [text for _, batch in embed.batches for text in batch]
        assert not set(committed) & set(sent)
        assert len(sent) == len(set(sent))
        # The resume sends one probe text, the first the replay's embeds hold,
        # and then only what neither the memo nor the replay holds.
        probe = [text for r in _probe(replay) for text in r["request"]]
        assert sent[:len(probe)] == probe
        assert _committed_texts(run_dir) == committed + replayed + sent[len(probe):]
        assert dir_snapshot(tmp_path / "clean") == dir_snapshot(run_dir)


class TestDemoResumesFromAnyFault:
    @pytest.mark.parametrize("provider", ["chat", "embed"])
    def test_every_fault_point_resumes_to_the_uninterrupted_bytes(self, tmp_path, provider):
        # The CI-world sweeps form no concept group, so only this sweep cuts
        # the gated merge call. The re-embed after the demo's merge sends the
        # provider nothing (the merged name kept n6's, which the memo holds),
        # so every embed call the run makes is cut here.
        def runner(run_dir, at=None):
            fixture = load_fixture(DEMO_FIXTURE)
            providers = fixture.providers()
            setattr(providers, provider, FailingAt(getattr(providers, provider), at))
            return Runner(RunConfig.from_dict(fixture.config), providers, run_dir)

        root_query = load_fixture(DEMO_FIXTURE).root_query
        clean = runner(tmp_path / "clean")
        clean.start(root_query)
        assert template_calls(clean)["merge_concepts"] == 1
        want = dir_snapshot(tmp_path / "clean")
        diverged = []
        for at in range(1, getattr(clean.providers, provider).calls + 1):
            run_dir = tmp_path / f"fault{at}"
            with pytest.raises(ProviderError):
                runner(run_dir, at).start(root_query)
            # A restarted process: providers that saw none of the first attempt.
            if runner(run_dir).resume().stage != "done" or dir_snapshot(run_dir) != want:
                diverged.append(at)
        assert diverged == []


def _replay_run(run_dir, chat_at=None, embed_at=None) -> tuple[Runner, _Recording]:
    """A Runner on fresh sim providers whose chat, search and fetch answers are
    recorded; chat or embed fails at call ``chat_at`` or ``embed_at``, and a
    failed chat call is not recorded."""
    config, providers = _ci_world_run("dualgraph")
    recording = _Recording(providers)
    providers = recording.providers()
    if chat_at is not None:
        providers.chat = FailingAt(providers.chat, chat_at)
    if embed_at is not None:
        providers.embed = FailingAt(providers.embed, embed_at)
    return Runner(config, providers, run_dir), recording


class TestResumeReplaysWhatTheFaultGot:
    @pytest.fixture()
    def clean(self, tmp_path) -> tuple[_Recording, int]:
        """The uninterrupted run's records, and a chat call to fail at: the
        second pass's first assess_page, after the pass embedded its new queries."""
        runner, recording = _replay_run(tmp_path / "clean")
        runner.start(DEFAULT_ROOT_QUERY)
        names = [r["name"] for r in audit_log(runner)]
        second_pass = [i for i, name in enumerate(names) if name == "select_chains"][1]
        return recording, names.index("assess_page", second_pass) + 1

    def test_a_resume_failing_within_its_replay_spills_it_again(self, tmp_path, clean):
        clean, at = clean
        run_dir = tmp_path / "run"
        runner, first = _replay_run(run_dir, chat_at=at)
        with pytest.raises(ProviderError):
            runner.start(DEFAULT_ROOT_QUERY)
        spilled = (run_dir / "replay.jsonl").read_bytes()

        # The resume's first embed call, the probe of the pass's new queries
        # (which the memo lost), fails before any search of the replay is served.
        replay = _replay_records(run_dir)
        runner, second = _replay_run(run_dir, embed_at=1)
        with pytest.raises(ProviderError):
            runner.resume()
        assert runner.providers.embed.calls == 1 and second.records == []
        assert "search" in {r["kind"] for r in _replay_records(run_dir)}
        assert (run_dir / "replay.jsonl").read_bytes() == spilled

        runner, third = _replay_run(run_dir)
        assert runner.resume().stage == "done"
        assert not (run_dir / "replay.jsonl").exists()
        assert dir_snapshot(run_dir) == dir_snapshot(tmp_path / "clean")
        # No call is made twice: past the probe, the resume asks only what the replay lacks.
        probe = _probe(replay)
        assert probe and third.records[:1] == probe
        assert first.records + third.records[1:] == clean.records

    def test_an_edited_request_drops_the_rest_of_the_replay(self, tmp_path, clean):
        clean, at = clean
        run_dir = tmp_path / "run"
        runner, first = _replay_run(run_dir, chat_at=at)
        with pytest.raises(ProviderError):
            runner.start(DEFAULT_ROOT_QUERY)
        records = _replay_records(run_dir)
        k = len(records) // 2
        request = records[k]["request"]
        records[k]["request"] = (
            dict(request, query=request["query"] + " (edited)") if isinstance(request, dict)
            else request + " (edited)"
        )
        (run_dir / "replay.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

        runner, resumed = _replay_run(run_dir)
        assert runner.resume().stage == "done"
        assert dir_snapshot(run_dir) == dir_snapshot(tmp_path / "clean")
        # The records before the edited one are replayed, after the probe when an
        # embed is among them; it and every later one are asked again.
        spilled = first.records[-len(records):]
        assert resumed.records == (
            _probe(records[:k]) + spilled[k:] + clean.records[len(first.records):]
        )

    @pytest.mark.parametrize("committed", [False, True], ids=["replay-only", "committed"])
    def test_one_probe_text_checks_the_width_and_the_replayed_rows_are_used(self, committed):
        replayed = np.zeros((2, 8))
        rows = {"grid": np.ones(8)} if committed else {}
        embed = _RecordingEmbed(HashEmbeddingProvider(dim=8))
        queue = [("embed", ["a", "b"], replayed)]
        tape = rundir._Tape(_kg_providers(embed, _NO_MERGE), queue, rows)
        assert tape.embed(["a", "b"]) is replayed
        assert tape.embed(["c"]).shape == (1, 8)
        assert embed.texts(None) == [["a"], ["c"]]

    @pytest.mark.parametrize(
        "committed, name", [(False, "replay.jsonl"), (True, "embed.jsonl")],
        ids=["replay-only", "committed"],
    )
    def test_a_probe_of_another_width_uses_no_replayed_row(self, committed, name):
        rows = {"grid": np.ones(8)} if committed else {}
        queue = [("chat", "p", "a"), ("embed", ["a"], np.zeros((1, 8)))]
        providers = _kg_providers(HashEmbeddingProvider(dim=4), _NO_MERGE)
        tape = rundir._Tape(providers, queue, rows)
        assert tape.complete("p") == "a"
        with pytest.raises(ConfigError, match=f"{name} holds vectors of width 8.* width 4"):
            tape.embed(["a"])
        assert [e[0] for e in tape.exchanges] == ["chat"] and len(tape.queue) == 1

    def test_a_parse_error_spills_nothing(self, tmp_path):
        config, providers, root_query = _small_sim()
        providers = replace(providers, chat=_BadCitationChat(providers.chat, bad=10**6))
        run_dir = tmp_path / "run"
        with pytest.raises(ParseError, match="revise_outline"):
            Runner(config, providers, run_dir).start(root_query)
        assert Runner(config, None, run_dir).load_state().stage == "loop"
        assert not (run_dir / "replay.jsonl").exists()

    def test_a_resumes_config_error_leaves_the_replay_as_it_is(self, tmp_path, clean):
        _, at = clean
        run_dir = tmp_path / "run"
        runner, _ = _replay_run(run_dir, chat_at=at)
        with pytest.raises(ProviderError):
            runner.start(DEFAULT_ROOT_QUERY)
        before = dir_snapshot(run_dir)
        runner, recording = _replay_run(run_dir)
        runner.providers.embed = HashEmbeddingProvider(dim=16)
        with pytest.raises(ConfigError, match="embed.jsonl holds vectors of width 32"):
            runner.resume()
        assert recording.records == []
        assert dir_snapshot(run_dir) == before


class _PayloadNumberingChat:
    """Extracts the scripted triples of each statement's search query, numbering
    ids the way the extraction template asks: new node and edge ids run on from
    the highest ids in the prompt's graph payload, and every extracted edge gets
    a fresh id, re-observed triples included. Merge prompts get no clusters."""

    def __init__(self, triples_by_query):
        self.triples_by_query = triples_by_query

    def complete(self, prompt):
        if "# Evidence Statements" not in prompt:
            return _NO_MERGE
        payload = json.loads(prompt.split("# Current Knowledge Graph\n", 1)[1])
        ids = {n["knowledge"]: n["id"] for n in payload["nodes"]}
        next_node = 1 + max((int(n["id"][1:]) for n in payload["nodes"]), default=0)
        next_edge = 1 + max((int(e["id"][1:]) for e in payload["edges"]), default=0)
        nodes, edges, evidences = [], [], {}
        for label, query in _statement_queries(prompt):
            for src, relation, tgt in self.triples_by_query[query]:
                for name in (src, tgt):
                    if name not in ids:
                        ids[name] = f"n{next_node + len(nodes)}"
                        nodes.append({"id": ids[name], "node_name": name, "is_core_entity": False})
                edges.append({"id": f"e{next_edge + len(edges)}", "source_id": ids[src],
                              "target_id": ids[tgt], "relation_name": relation})
                evidences.setdefault(label, []).append(edges[-1]["id"])
        return json.dumps({"new_nodes": nodes, "new_edges": edges, "evidences_map": evidences})


def _statements(prompt: str) -> str:
    """The evidence statements block of an extraction prompt."""
    return prompt.split("# Evidence Statements\n", 1)[1].split("\n\n# ", 1)[0]


def _statement_queries(prompt: str) -> list[tuple[str, str]]:
    """(label, search query) of each evidence statement of an extraction prompt, in order."""
    return re.findall(r"^(EN\d+): .*\n   query: (.*)$", _statements(prompt), re.MULTILINE)


def _extract(state: RunState, query: str, triples) -> int:
    """One update_kg pass over a single new evidence unit; returns its id."""
    ev_id = state.bank.add(f"https://example.org/{query}", query, query, "summary", "", 1)
    providers = Providers(
        chat=_PayloadNumberingChat({query: triples}),
        search=FixtureSearchProvider({}),
        fetch=FixtureFetchProvider({}),
        embed=HashEmbeddingProvider(dim=8),
    )
    update_kg(state, providers, {query: [ev_id]})
    return ev_id


class TestGraphIssuesIds:
    """A model that numbers ids from the payload keeps extracting after the
    graph's counters have moved past the payload's highest ids."""

    def test_new_node_after_a_merge_retired_the_highest_ids(self):
        state = _graph_state("battery cost", "battery price")
        state.kg = merge_nodes(state.kg, [MergeCluster("battery economics", ["n2", "n3"])])
        assert (sorted(state.kg.nodes), sorted(state.kg.edges)) == (["n1", "n2"], ["e1"])
        ev_id = _extract(state, "hydrogen", [("grid storage", "stores", "hydrogen")])
        kg = state.kg
        assert kg.node_ids() == ["n1", "n2", "n4"]
        assert kg.nodes["n4"].name == "hydrogen"
        assert kg.edge_ids() == ["e1", "e3"]
        assert kg.representation("e3") == "grid storage - stores -> hydrogen"
        assert kg.edges["e3"].evidence_ids == {ev_id}

    def test_new_edge_after_a_reobserved_triple_under_a_fresh_id(self):
        state = _graph_state("battery cost")
        first = _extract(state, "storage", [
            ("grid storage", "stores", "hydrogen"),
            ("grid storage", "involves", "battery cost"),
        ])
        assert state.kg.edge_ids() == ["e1", "e2"]
        assert state.kg.edges["e1"].evidence_ids == {first}
        second = _extract(state, "hydrogen", [("hydrogen", "competes with", "battery cost")])
        kg = state.kg
        assert kg.edge_ids() == ["e1", "e2", "e3"]
        assert kg.representation("e3") == "hydrogen - competes with -> battery cost"
        assert kg.edges["e3"].evidence_ids == {second}
        assert kg.next_edge_num == 4


_NO_EXTRACTION = {"new_nodes": [], "new_edges": [], "evidences_map": {}}
_ABSENT_REFERENCES = {
    "node": dict(_NO_EXTRACTION, new_edges=[
        {"id": "e9", "source_id": "n1", "target_id": "n7", "relation_name": "feeds"}
    ]),
    "edge": dict(_NO_EXTRACTION, evidences_map={"EN1": ["e7"]}),
}


class TestExtractionReferences:
    """apply_extraction resolves every endpoint and evidences_map entry."""

    @staticmethod
    def _update(state: RunState, responses: list[str]) -> int:
        """update_kg over one new unit, with scripted extraction responses."""
        ev_id = state.bank.add("https://example.org/q", "q", "q", "summary", "", 1)
        entry = ScriptEntry(match=["EN1: summary\n   query: q\n"], responses=responses)
        update_kg(state, _pipeline_providers({}, {}, [entry]), {"q": [ev_id]})
        return ev_id

    @pytest.mark.parametrize("reference", _ABSENT_REFERENCES)
    def test_re_asked_with_the_same_prompt(self, reference):
        state = _graph_state("battery cost")
        good = dict(_NO_EXTRACTION, evidences_map={"EN1": ["e1"]})
        ev_id = self._update(state, [json.dumps(_ABSENT_REFERENCES[reference]), json.dumps(good)])
        assert state.kg.edges["e1"].evidence_ids == {ev_id}
        prompts = [a["prompt"] for a in state.audit]
        assert len(prompts) == 2 and prompts[0] == prompts[1]

    @pytest.mark.parametrize("reference", _ABSENT_REFERENCES)
    def test_every_attempt_absent_raises_and_leaves_the_graph(self, reference):
        state = _graph_state("battery cost")
        before = state.kg.to_document()
        with pytest.raises(ParseError):
            self._update(state, [json.dumps(_ABSENT_REFERENCES[reference])] * 3)
        assert state.kg.to_document() == before
        assert len(state.audit) == 3


_TRIPLES = {
    "q1": [("grid storage", "stores", "hydrogen")],
    "q2": [("hydrogen", "competes with", "battery cost")],
    "q3": [("battery cost", "limits", "pumped hydro")],
    "q4": [("pumped hydro", "balances", "wind output")],
}


def _pass_state(units: list[tuple[str, str]]) -> tuple[RunState, dict[str, list[int]]]:
    """A one-node graph whose bank holds one new unit (``fact {i}``) per
    (query, content), in order; returns the state and the pass's new ids by query."""
    state = _graph_state()
    new_by_query: dict[str, list[int]] = {}
    for i, (query, content) in enumerate(units, start=1):
        new_by_query.setdefault(query, []).append(
            state.bank.add(f"https://example.org/{i}", f"t{i}", query, f"fact {i}", content, 1)
        )
    return state, new_by_query


class _MalformedAt:
    """Answers "not json" to the chat calls numbered in ``calls``; asks ``inner`` otherwise."""

    def __init__(self, inner, calls: set[int]):
        self.inner, self.calls, self.count = inner, calls, 0

    def complete(self, prompt):
        self.count += 1
        return "not json" if self.count in self.calls else self.inner.complete(prompt)


class TestExtractionPerPass:
    """update_kg extracts a pass's units in byte-budgeted chunks, not per query."""

    SMALL = [("q1", "c1"), ("q1", "c2"), ("q2", ""), ("q3", "c4")]
    # About 6 KB each: two entries fit a chunk, three do not.
    BIG = [(query, " ".join(["megawatt"] * 700)) for query in _TRIPLES]

    @staticmethod
    def _numbering(chat=None) -> Providers:
        return _pipeline_providers({}, {}, chat or _PayloadNumberingChat(_TRIPLES))

    def test_a_pass_of_three_queries_makes_one_call_with_labels_in_bank_order(self):
        state, new_by_query = _pass_state(self.SMALL)
        update_kg(state, self._numbering(), {"q0": [], **new_by_query})
        (prompt,) = _calls(state, "extract_knowledge")
        assert "# Search Query" not in prompt
        assert _statement_queries(prompt) == [
            ("EN1", "q1"), ("EN2", "q1"), ("EN3", "q2"), ("EN4", "q3"),
        ]
        assert _statements(prompt).splitlines()[::2] == [
            "EN1: fact 1 c1", "EN2: fact 2 c2", "EN3: fact 3", "EN4: fact 4 c4",
        ]
        kg = state.kg
        assert [kg.representation(e) for e in kg.edge_ids()] == [
            "grid storage - stores -> hydrogen",
            "hydrogen - competes with -> battery cost",
            "battery cost - limits -> pumped hydro",
        ]
        assert [kg.edges[e].evidence_ids for e in kg.edge_ids()] == [{1, 2}, {3}, {4}]

        # The same graph as one extraction call per query, one query per pass.
        per_query, _ = _pass_state(self.SMALL)
        for query, ev_ids in new_by_query.items():
            update_kg(per_query, self._numbering(), {query: ev_ids})
        assert kg.to_document() == per_query.kg.to_document()

    def test_a_pass_that_banked_nothing_makes_no_extraction_call(self):
        state, _ = _pass_state([])
        update_kg(state, _pipeline_providers({}, {}, []), {"q1": [], "q2": []})
        assert state.audit == []

    def test_entries_over_the_budget_split_into_calls_with_chunk_local_labels(self):
        state, new_by_query = _pass_state(self.BIG)
        update_kg(state, self._numbering(), new_by_query)
        prompts = _calls(state, "extract_knowledge")
        assert [_statement_queries(prompt) for prompt in prompts] == [
            [("EN1", "q1"), ("EN2", "q2")], [("EN1", "q3"), ("EN2", "q4")],
        ]
        for prompt in prompts:
            assert len(_statements(prompt).encode("utf-8")) <= orchestrator._CHUNK_BYTES + 100
        # The second chunk sees the nodes the first one added.
        payload = json.loads(prompts[1].split("# Current Knowledge Graph\n", 1)[1])
        assert [n["knowledge"] for n in payload["nodes"]] == [
            "grid storage", "hydrogen", "battery cost",
        ]
        kg = state.kg
        assert [kg.edges[e].evidence_ids for e in kg.edge_ids()] == [{1}, {2}, {3}, {4}]

    def test_a_malformed_answer_re_asks_only_its_own_chunk_with_the_identical_prompt(self):
        clean, new_by_query = _pass_state(self.BIG)
        update_kg(clean, self._numbering(), new_by_query)
        first, second = _calls(clean, "extract_knowledge")

        state, _ = _pass_state(self.BIG)
        update_kg(state, self._numbering(_MalformedAt(_PayloadNumberingChat(_TRIPLES), {2})),
                  new_by_query)
        assert _calls(state, "extract_knowledge") == [first, second, second]
        assert [r["response"] for r in state.audit].count("not json") == 1
        assert state.kg.to_document() == clean.kg.to_document()


def _observable(state: RunState) -> tuple:
    nodes = state.kg.nodes.values() if state.kg is not None else ()
    return (
        state.to_dict(),
        render_outline(state.og),
        state.kg.to_document() if state.kg is not None else None,
        state.bank.to_document(),
        json.dumps(state.audit),
        json.dumps(state.chain_record),
        [None if n.embedding is None else n.embedding.tobytes() for n in nodes],
    )


def _demo_state(after: str) -> RunState:
    fixture = load_fixture(DEMO_FIXTURE)
    providers = fixture.providers()
    state = RunState(root_query=fixture.root_query, config=RunConfig.from_dict(fixture.config))
    init_run(state, providers)
    if after == "run_iteration":
        state = run_iteration(state, providers)
    return state


class TestRunStateClone:
    """A clone copies what phases change in place and shares what they replace."""

    @pytest.mark.parametrize("after", ["init_run", "run_iteration"])
    def test_changing_every_mutable_part_leaves_the_source(self, after):
        state = _demo_state(after)
        seen = _observable(state)
        first = state.kg.node_ids()[0]
        neighbors = state.kg.neighbors(first)
        clone = state.clone()
        clone.executed_queries.append("clone query")
        clone.early_stop_history.append(EarlyStopReport({}, False))
        clone.events.append("clone:event")
        clone.audit.append({"name": "clone"})
        assert clone.bank.add("https://clone.test/new", "t", "q", "s", "c", 9) is not None
        for node in clone.kg.nodes.values():
            node.embedding = np.ones(4)
            node.cluster_id = node.community_id = 99
        added = clone.kg.add_node("clone only", True)
        clone.kg.add_edge(added, first, "touches")
        assert _observable(state) == seen
        assert not state.bank.has_url("https://clone.test/new")
        assert state.kg.neighbors(first) == neighbors

    @pytest.mark.parametrize("after", ["init_run", "run_iteration"])
    def test_shares_what_phases_replace_whole(self, after):
        state = _demo_state(after)
        clone = state.clone()
        assert clone.og is state.og and clone.config is state.config
        assert len(clone.audit) == len(state.audit) > 0
        assert all(a is b for a, b in zip(clone.audit, state.audit))
        assert all(a is b for a, b in zip(clone.bank.units, state.bank.units))
        assert clone.audit is not state.audit and clone.kg is not state.kg
        assert clone.embeddings is state.embeddings


class TestRunIterationLeavesItsInputAlone:
    @staticmethod
    def _step_through(state: RunState, providers: Providers) -> int:
        steps = 0
        while not state.stopped and state.iteration < state.config.max_iter:
            seen = _observable(state)
            after = run_iteration(state, providers)
            assert _observable(state) == seen
            assert after.iteration == state.iteration + 1
            assert len(after.audit) > len(state.audit)
            state, steps = after, steps + 1
        return steps

    def test_dualgraph_iterations_on_the_demo_fixture(self):
        fixture = load_fixture(DEMO_FIXTURE)
        providers = fixture.providers()
        state = RunState(root_query=fixture.root_query, config=RunConfig.from_dict(fixture.config))
        init_run(state, providers)
        assert len(state.kg) > 0
        assert self._step_through(state, providers) == 2

    def test_outline_only_iterations_on_a_small_world(self):
        world = generate_world(seed=1, n_communities=2, cores_per_community=1,
                               concepts_per_community=2)
        config = RunConfig(max_iter=3, og_query_budget=2, urls_per_query=8,
                           variant="outline-only")
        providers = sim_providers(world, config.embed_dim, config.seed)
        state = RunState(root_query=DEFAULT_ROOT_QUERY, config=config)
        init_run(state, providers)
        assert state.kg is None and len(state.bank) > 0
        assert self._step_through(state, providers) >= 2


_RUNS = {
    "demo-dualgraph": _demo,
    "sim-dualgraph": _small_sim,
    "sim-outline-only": lambda: _small_sim("outline-only"),
}


class _BoundaryRunner(Runner):
    """Records the stage, iteration, audit length and freshly rendered outline
    of every checkpoint."""

    def __init__(self, *args):
        super().__init__(*args)
        self.boundaries: list[tuple[str, int, int, str | None]] = []

    def _checkpoint(self, state):
        outline = None if state.og is None else render_outline(state.og)
        self.boundaries.append((state.stage, state.iteration, len(state.audit), outline))
        super()._checkpoint(state)


def _spy_renders(monkeypatch) -> list:
    """Every outline passed to render_outline through the orchestrator, in order."""
    rendered = []
    render = orchestrator.render_outline

    def spy(og):
        rendered.append(og)
        return render(og)

    monkeypatch.setattr(orchestrator, "render_outline", spy)
    return rendered


class TestEachOutlineRenderedOnce:
    @pytest.mark.parametrize("run", _RUNS)
    def test_one_render_per_outline_and_per_report_section(self, tmp_path, monkeypatch, run):
        rendered = _spy_renders(monkeypatch)
        config, providers, root_query = _RUNS[run]()
        state = Runner(config, providers, tmp_path / "run").start(root_query)
        assert state.stage == "done" and state.iteration >= 2
        # The created outline and one revision per pass, then write_report's
        # one-section subtrees of the final outline.
        sections = len(state.og.sections)
        assert len(rendered) == state.iteration + 1 + sections
        assert len({id(og) for og in rendered}) == len(rendered)
        assert rendered[-sections - 1] is state.og
        assert [og.sections for og in rendered[-sections:]] == [[s] for s in state.og.sections]

    def test_outline_text_follows_the_outline_object(self, monkeypatch):
        rendered = _spy_renders(monkeypatch)
        state = RunState(root_query="q", config=RunConfig())
        state.og = parse_outline("R\n  1. A\n\n")
        first = state.outline_text()
        assert first == "R\n1. A\n" and state.outline_text() is first
        clone = state.clone()
        assert clone.outline_text() is first
        state.og = parse_outline("R\n1. A <citation>id_1</citation>\n2. B\n")
        assert state.outline_text() == "R\n1. A <citation>id_1</citation>\n2. B\n"
        assert clone.outline_text() is first
        assert len(rendered) == 2
        # The memo is no part of the state's value.
        assert replace(state, _outline_memo=None) == state
        assert "_outline_memo" not in repr(state)

    def test_loaded_state_renders_a_hand_edited_outline_canonically(self, tmp_path):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        path = run_dir / "outline_iter1.txt"
        canonical = path.read_text(encoding="utf-8")
        edited = "\n".join(f"  {line}" for line in canonical.splitlines()) + "\n\n"
        path.write_text(edited, encoding="utf-8")
        assert _demo_runner(run_dir).load_state().outline_text() == canonical

    @pytest.mark.parametrize("run", _RUNS)
    def test_prompts_show_the_committed_outline_files(self, tmp_path, run):
        config, providers, root_query = _RUNS[run]()
        run_dir = tmp_path / "run"
        runner = _BoundaryRunner(config, providers, run_dir)
        state = runner.start(root_query)
        files = [
            (run_dir / f"outline_iter{n}.txt").read_text(encoding="utf-8")
            for n in range(state.iteration + 1)
        ]
        audit = audit_log(runner)
        # In a pass these prompts come before update_og, so they show the
        # outline of the pass before; the rest show the pass's own. A
        # dualgraph run's loop passes write their queries in select_chains,
        # so its only generate_queries prompt is init's.
        before_revision = {"select_chains", "revise_outline"}
        checked: Counter = Counter()
        start = 0
        for stage, n, end, outline in runner.boundaries:
            records, start = audit[start:end], end
            if stage != "loop":
                continue
            assert files[n] == outline
            for record in records:
                name = record["name"]
                if name in ("judge_outline", "generate_queries", *before_revision):
                    shown = n - 1 if n > 0 and name in before_revision else n
                    block = record["prompt"].split("# Current Outline\n", 1)[1]
                    assert block.split("\n\n# ", 1)[0] == files[shown], (n, name)
                    checked[name] += 1
        expected = {"judge_outline", "generate_queries", "revise_outline"}
        if config.variant is Variant.DUAL_GRAPH:
            expected.add("select_chains")
        assert set(checked) == expected


class _BadCitationChat:
    """Gives the first ``bad`` cited revise_outline answers a malformed citation token."""

    def __init__(self, chat, bad: int):
        self.chat, self.bad = chat, bad

    def complete(self, prompt: str) -> str:
        response = self.chat.complete(prompt)
        if self.bad and "revising the outline" in prompt and "<citation>id_" in response:
            self.bad -= 1
            response = response.replace("<citation>id_", "<citation>id_x", 1)
        return response


class TestRevisionWithBadCitationToken:
    @staticmethod
    def _run(run_dir, bad: int) -> tuple[Runner, RunState]:
        config, providers, root_query = _small_sim()
        providers = replace(providers, chat=_BadCitationChat(providers.chat, bad))
        runner = Runner(config, providers, run_dir)
        return runner, runner.start(root_query)

    def test_one_bad_answer_is_re_asked_and_the_run_completes(self, tmp_path):
        _, clean = self._run(tmp_path / "clean", bad=0)
        runner, state = self._run(tmp_path / "run", bad=1)
        assert state.stage == "done"
        revisions = [r for r in audit_log(runner) if r["name"] == "revise_outline"]
        bad = [i for i, r in enumerate(revisions) if "<citation>id_x" in r["response"]]
        assert len(bad) == 1
        rejected, retried = revisions[bad[0]], revisions[bad[0] + 1]
        assert retried["prompt"] == rejected["prompt"]
        assert len(state.audit) == len(clean.audit) + 1
        assert state.outline_text() == clean.outline_text()
        assert state.bank.to_document() == clean.bank.to_document()

    def test_bad_answers_on_every_attempt_end_in_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="revise_outline"):
            self._run(tmp_path / "run", bad=10**6)


class _CitingOutlineChat:
    """Makes the first ``bad`` created outlines cite id_7 on their first section."""

    def __init__(self, chat, bad: int):
        self.chat, self.bad = chat, bad

    def complete(self, prompt: str) -> str:
        response = self.chat.complete(prompt)
        if self.bad and "Draft the outline of a deep-dive report" in prompt:
            self.bad -= 1
            title, first, rest = response.split("\n", 2)
            response = f"{title}\n{first} <citation>id_7</citation>\n{rest}"
        return response


class TestCreatedOutlineCitingEvidence:
    @staticmethod
    def _run(run_dir, bad: int) -> tuple[Runner, RunState]:
        config, providers, root_query = _small_sim()
        providers = replace(providers, chat=_CitingOutlineChat(providers.chat, bad))
        runner = Runner(config, providers, run_dir)
        return runner, runner.start(root_query)

    def test_one_citing_answer_is_re_asked_and_the_run_completes(self, tmp_path):
        clean_runner, clean = self._run(tmp_path / "clean", bad=0)
        runner, state = self._run(tmp_path / "run", bad=1)
        assert state.stage == "done"
        rejected, retried = audit_log(runner)[:2]
        assert rejected["name"] == retried["name"] == "create_outline"
        assert "<citation>id_7</citation>" in rejected["response"]
        assert retried["prompt"] == rejected["prompt"]
        assert retried["response"] == audit_log(clean_runner)[0]["response"]
        assert len(state.audit) == len(clean.audit) + 1
        assert state.outline_text() == clean.outline_text()
        assert state.bank.to_document() == clean.bank.to_document()

    def test_citing_answers_on_every_attempt_end_in_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="create_outline"):
            self._run(tmp_path / "run", bad=10**6)
        assert Runner(RunConfig(), None, tmp_path / "run").load_state().stage == "init"


class _StopWatchingRunner(Runner):
    """Records, at every checkpoint, the state's stop flag and its last report's."""

    def __init__(self, *args):
        super().__init__(*args)
        self.flags: list[tuple[bool, bool]] = []

    def _checkpoint(self, state):
        history = state.early_stop_history
        self.flags.append((state.stopped, bool(history) and history[-1].stop))
        super()._checkpoint(state)


class TestStopFlagIsDerived:
    @staticmethod
    def _run(run_dir) -> tuple[_StopWatchingRunner, RunState]:
        world = generate_world(seed=1, n_communities=2, cores_per_community=1,
                               concepts_per_community=2)
        config = RunConfig(max_iter=6, og_query_budget=3, kg_query_budget=4, urls_per_query=6,
                           early_stop_thresholds=90.0)
        runner = _StopWatchingRunner(config, sim_providers(world, config.embed_dim, config.seed),
                                     run_dir)
        return runner, runner.start(DEFAULT_ROOT_QUERY)

    def test_stopped_follows_the_last_report_at_every_checkpoint(self, tmp_path):
        runner, state = self._run(tmp_path / "run")
        assert state.stopped and state.iteration < state.config.max_iter
        assert [derived for derived, _ in runner.flags] == [last for _, last in runner.flags]
        assert runner.flags[0] == (False, False) and runner.flags[-1] == (True, True)
        assert runner.load_state().stopped

    def test_state_json_keeps_no_stop_flag_or_thresholds(self, tmp_path):
        self._run(tmp_path / "run")
        doc = json.loads((tmp_path / "run" / "state.json").read_text(encoding="utf-8"))
        assert doc["format_version"] == 8
        assert doc["config"]["early_stop_thresholds"] == 90.0
        assert "stopped" not in doc
        assert doc["early_stop_history"]
        for report in doc["early_stop_history"]:
            assert set(report) == {"scores", "stop"}
        assert doc["early_stop_history"][-1]["stop"] is True
        assert [f.name for f in fields(EarlyStopReport)] == ["scores", "stop"]
        assert "stopped" not in {f.name for f in fields(RunState)}

    def test_a_stopped_state_runs_no_further_pass(self):
        state = RunState(root_query="q", config=RunConfig())
        assert not state.stopped
        state.early_stop_history.append(EarlyStopReport({}, True))
        assert state.stopped
        with pytest.raises(ValueError, match="stopped"):
            run_iteration(state, None)
        state.early_stop_history.append(EarlyStopReport({}, False))
        assert not state.stopped


def _block(prompt: str, heading: str) -> str:
    return prompt.split(f"# {heading}\n", 1)[1].split("\n\n# ", 1)[0]


class TestChainSelectionSeesExecutedQueries:
    def test_select_chains_lists_the_executed_queries_once_and_its_outline_queries_avoid_them(
        self, tmp_path
    ):
        config, providers, root_query = _small_sim()
        runner = Runner(config, providers, tmp_path / "run")
        state = runner.start(root_query)
        written = 0
        for record in audit_log(runner):
            if record["name"] != "select_chains":
                continue
            assert record["prompt"].count("# Executed Search Queries\n") == 1
            shown = _block(record["prompt"], "Executed Search Queries").splitlines()
            assert shown != ["(none)"]  # the first round ran before any chain
            assert shown == state.executed_queries[: len(shown)]
            answer = json.loads(record["response"])
            outline_queries = answer["outline queries"]
            assert not set(outline_queries) & set(shown + answer["search queries"])
            written += len(outline_queries)
        assert written >= 1


class _OverBudgetOutlineOnce:
    """Sim chat whose first select_chains answer that owes outline queries
    carries ``queries`` as its outline half instead."""

    def __init__(self, chat, queries: list[str]):
        self.chat, self.queries, self.spent = chat, queries, False

    def complete(self, prompt: str) -> str:
        response = self.chat.complete(prompt)
        owes = "exactly 0 outline queries" not in prompt
        if not self.spent and owes and "Candidate chains describe gaps" in prompt:
            self.spent = True
            return json.dumps({**json.loads(response), "outline queries": self.queries})
        return response


class TestOneQueryWritingCallPerPass:
    def test_a_ci_world_run_writes_loop_queries_in_select_chains_alone(self, tmp_path):
        config, providers = _ci_world_run("dualgraph")
        runner = _BoundaryRunner(config, providers, tmp_path)
        state = runner.start(DEFAULT_ROOT_QUERY)
        audit = audit_log(runner)
        assert state.iteration == config.max_iter
        assert template_calls(runner)["generate_queries"] == 1
        # Boundaries: start, init, each loop pass, report.
        ends = [end for _, _, end, _ in runner.boundaries]
        assert [r["name"] for r in audit[: ends[1]]][:2] == ["create_outline", "generate_queries"]
        passes = [[r["name"] for r in audit[a:b]] for a, b in zip(ends[1:-2], ends[2:-1])]
        assert len(passes) == state.iteration
        for names in passes:
            assert names.count("select_chains") == 1 and "generate_queries" not in names
        # The trace still marks both halves of every pass after the first.
        for t in range(state.iteration):
            marks = [e for e in state.events if e.startswith(f"iter{t}:gen_from")]
            assert marks == [f"iter{t}:gen_from_kg"] + [f"iter{t}:gen_from_og"] * (t > 0)

    def test_a_pass_with_no_candidate_chain_still_asks_select_chains(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(orchestrator, "build_search_chains", lambda *args: [])
        config, providers = _ci_world_run("dualgraph")
        runner = _BoundaryRunner(config, providers, tmp_path)
        state = runner.start(DEFAULT_ROOT_QUERY)
        assert state.stage == "done"
        audit = audit_log(runner)
        ends = [end for _, _, end, _ in runner.boundaries]
        assert template_calls(runner)["generate_queries"] == 1
        assert [r["name"] for r in audit[: ends[1]]][:2] == ["create_outline", "generate_queries"]
        passes = [audit[a:b] for a, b in zip(ends[1:-2], ends[2:-1])]
        assert len(passes) == state.iteration > 1
        for t, records in enumerate(passes):
            asks = [r for r in records if r["name"] == "select_chains"]
            assert len(asks) == (t > 0)
            for record in asks:
                assert _block(record["prompt"], "Candidate Chains").strip() == "(none)"
                answer = json.loads(record["response"])
                assert answer["chains"] == answer["search queries"] == []
                assert answer["outline queries"]
                assert set(answer["outline queries"]) <= set(state.executed_queries)

    def test_an_empty_graph_asks_select_chains_only_for_outline_queries(self):
        state = _fresh_state(_config())
        state.kg = KnowledgeGraph()
        answer = '{"chains": [], "search queries": [], "outline queries": ["grid storage cost"]}'
        providers = _pipeline_providers({}, {}, [])  # any chat call fails
        assert orchestrator.gen_queries_from_kg(state, providers) == ([], [], [])
        assert len(state.audit) == 0

        providers = _pipeline_providers(
            {}, {}, [ScriptEntry(["Candidate chains describe gaps"], [answer])]
        )
        outline_queries = ["earlier query"]
        result = orchestrator.gen_queries_from_kg(state, providers, outline_queries)
        assert result == ([], [], [])
        assert outline_queries == ["earlier query", "grid storage cost"]
        [record] = list(state.audit)
        assert _block(record["prompt"], "Candidate Chains").strip() == "(none)"

    def test_outline_queries_over_the_budget_are_re_asked_and_never_searched(self, tmp_path):
        config, providers = _ci_world_run("dualgraph")
        overflow = [f"overflow query {i}" for i in range(config.og_query_budget + 1)]
        providers.chat = _OverBudgetOutlineOnce(providers.chat, overflow)
        searched: list[str] = []
        search = providers.search

        class _Searches:
            def search(self, query, top_n):
                searched.append(query)
                return search.search(query, top_n)

        providers.search = _Searches()
        runner = Runner(config, providers, tmp_path)
        state = runner.start(DEFAULT_ROOT_QUERY)
        assert state.stage == "done"
        audit = audit_log(runner)
        [rejected] = [
            i for i, record in enumerate(audit)
            if record["name"] == "select_chains"
            and json.loads(record["response"])["outline queries"] == overflow
        ]
        asked_again = audit[rejected + 1]
        assert asked_again["name"] == "select_chains"
        assert asked_again["prompt"] == audit[rejected]["prompt"]
        assert json.loads(asked_again["response"])["outline queries"] != overflow
        assert not set(overflow) & set(searched)
        assert not set(overflow) & set(state.executed_queries)


class TestDriveHoldsOneState:
    @pytest.mark.parametrize("run", _RUNS)
    def test_only_loop_passes_clone(self, tmp_path, monkeypatch, run):
        cloned_at: list[int] = []
        clone = RunState.clone

        def spy(state):
            cloned_at.append(state.iteration)
            return clone(state)

        monkeypatch.setattr(RunState, "clone", spy)
        config, providers, root_query = _RUNS[run]()
        state = Runner(config, providers, tmp_path / "run").start(root_query)
        assert state.stage == "done"
        assert cloned_at == list(range(state.iteration))

    @pytest.mark.parametrize("run", _RUNS)
    def test_yields_each_boundary_once(self, run, monkeypatch):
        phases: list[str] = []
        for name in ("init_run", "run_iteration", "write_report"):
            # Wrapped where the benchmark wraps them: the module's globals.
            def spy(*args, _real=getattr(orchestrator, name), _name=name):
                phases.append(_name)
                return _real(*args)

            monkeypatch.setattr(orchestrator, name, spy)
        config, providers, root_query = _RUNS[run]()
        states = drive(RunState(root_query=root_query, config=config), providers)
        boundaries = [(state.stage, state.iteration) for state in states]
        last = boundaries[-1][1]
        assert boundaries == [("loop", i) for i in range(last + 1)] + [("done", last)]
        assert phases == ["init_run"] + ["run_iteration"] * last + ["write_report"]

    def test_a_finished_run_yields_nothing(self, tmp_path):
        config, providers, root_query = _small_sim()
        state = Runner(config, providers, tmp_path / "run").start(root_query)
        assert list(drive(state, providers)) == []


def _template_pattern(name: str) -> re.Pattern:
    """Template ``name`` with each ``${...}`` placeholder a wildcard."""
    literals = re.split(r"\$\{[A-Z_]+\}", load_template(name))
    return re.compile(".*".join(map(re.escape, literals)), re.DOTALL)


_TEMPLATE_DIR = Path(orchestrator.__file__).parent / "providers" / "templates"
TEMPLATES = {path.stem for path in _TEMPLATE_DIR.glob("*.txt")}

# The demo run and the CI-world sim run of each variant, with the templates each prompts.
_AUDITED_RUNS = {
    "demo": (_demo, TEMPLATES),
    # No concept group forms in the CI world, so its runs make no merge call.
    "ci-world-dualgraph": (
        lambda: (*_ci_world_run("dualgraph"), DEFAULT_ROOT_QUERY), TEMPLATES - {"merge_concepts"}
    ),
    "ci-world-outline-only": (
        lambda: (*_ci_world_run("outline-only"), DEFAULT_ROOT_QUERY),
        TEMPLATES - {"select_chains", "extract_knowledge", "merge_concepts"},
    ),
}


class TestAuditNamesItsTemplate:
    @pytest.mark.parametrize("run", _AUDITED_RUNS)
    def test_each_prompt_is_rendered_from_the_template_its_record_names(self, tmp_path, run):
        make, templates = _AUDITED_RUNS[run]
        config, providers, root_query = make()
        Runner(config, providers, tmp_path / "run").start(root_query)
        log_text = (tmp_path / "run" / "audit.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in log_text.splitlines()]
        patterns = {name: _template_pattern(name) for name in templates}
        assert {record["name"] for record in records} == templates
        for call, record in enumerate(records):
            assert patterns[record["name"]].fullmatch(record["prompt"]), call


class _AuditCheckingRunner(Runner):
    """Checks at every checkpoint, once it has committed, that the state and the
    state ``load_state`` reads back hold no record of ``audit.jsonl`` and count
    its every line."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoints = 0

    def _checkpoint(self, state):
        super()._checkpoint(state)
        assert keeps_only_uncommitted_audit(self, state), (state.stage, state.iteration)
        assert keeps_only_uncommitted_audit(self, self.load_state()), (state.stage, state.iteration)
        self.checkpoints += 1


class TestStateKeepsNoCommittedAudit:
    @pytest.mark.parametrize("run", _AUDITED_RUNS)
    def test_a_checkpoint_drops_the_records_it_appends(self, tmp_path, run):
        make, _ = _AUDITED_RUNS[run]
        config, providers, root_query = make()
        runner = _AuditCheckingRunner(config, providers, tmp_path / "run")
        state = runner.start(root_query)
        # start, init, each pass and the report.
        assert state.stage == "done" and runner.checkpoints == state.iteration + 3
        assert len(state.audit) == len(audit_log(runner)) > 0
        resumed = Runner(config, make()[1], tmp_path / "run").resume()
        assert keeps_only_uncommitted_audit(runner, resumed)
        assert len(resumed.audit) == len(state.audit)


class _LoneSurrogateOnce:
    """A chat over ``inner`` whose first answer that finds a page useful gets a
    lone surrogate, escaped in its JSON, appended to that page's summary. The
    re-ask of that prompt gets the inner answer, and the inner chat is asked
    exactly what an uninterrupted run asks it."""

    def __init__(self, inner):
        self.inner = inner
        self.held: tuple[str, str] | None = None  # (prompt, the inner answer)
        self.spoiled: str | None = None

    def complete(self, prompt):
        if self.held is not None:
            held_prompt, answer = self.held
            assert prompt == held_prompt
            self.held = None
            return answer
        answer = self.inner.complete(prompt)
        if self.spoiled is not None:
            return answer
        try:
            doc = json.loads(answer)
        except ValueError:
            return answer
        if not isinstance(doc, list):
            return answer
        useful = [d for d in doc if isinstance(d, dict) and d.get("useful")]
        if not useful:
            return answer
        useful[0]["summary"] += " \ud800"
        self.held, self.spoiled = (prompt, answer), json.dumps(doc)
        return self.spoiled


class TestALoneSurrogateIsReAsked:
    def test_the_run_finishes_as_a_clean_run_does(self, tmp_path):
        world = generate_world(0, 3, 2, 4)
        config = RunConfig()
        Runner(config, sim_providers(world, config.embed_dim, config.seed),
               tmp_path / "clean").start(DEFAULT_ROOT_QUERY)
        providers = sim_providers(world, config.embed_dim, config.seed)
        chat = _LoneSurrogateOnce(providers.chat)
        runner = Runner(config, replace(providers, chat=chat), tmp_path / "run")
        assert runner.start(DEFAULT_ROOT_QUERY).stage == "done"
        assert chat.spoiled is not None and "\\ud800" in chat.spoiled and chat.held is None

        got, want = dir_snapshot(tmp_path / "run"), dir_snapshot(tmp_path / "clean")
        got_audit, want_audit = got.pop("audit.jsonl"), want.pop("audit.jsonl")
        got_state, want_state = json.loads(got.pop("state.json")), json.loads(want.pop("state.json"))
        assert got == want
        # The audit holds the rejected exchange too, just before its re-ask.
        records = [json.loads(line) for line in got_audit.decode("utf-8").splitlines()]
        spoiled = next(i for i, r in enumerate(records) if r["response"] == chat.spoiled)
        assert records[spoiled]["name"] == "assess_page"
        assert records[spoiled]["prompt"] == records[spoiled + 1]["prompt"]
        del records[spoiled]
        assert records == [json.loads(line) for line in want_audit.decode("utf-8").splitlines()]
        assert got_state.pop("audit_records") == want_state.pop("audit_records") + 1
        assert got_state == want_state



class _SpoilOnce:
    """A chat, search or fetch over ``inner`` whose first answer with a text to
    spoil gets ``tail`` appended to that text, as a provider that decoded raw
    text hands it over: the summary of the first useful page of an
    assess_page answer (written back with ``ensure_ascii=False``), the first
    search result's snippet, or a fetched page. ``spoiled_at`` is the number
    of the spoiled call, from 1."""

    def __init__(self, inner, tail: str):
        self.inner, self.tail = inner, tail
        self.calls = 0
        self.spoiled_at: int | None = None

    def _spoil(self, answer, spoiled):
        self.calls += 1
        if self.spoiled_at is not None:
            return answer
        spoiled = spoiled(answer)
        if spoiled is not None:
            self.spoiled_at = self.calls
            return spoiled
        return answer

    def complete(self, prompt):
        def spoiled(answer):
            try:
                doc = json.loads(answer)
            except ValueError:
                return None
            if not isinstance(doc, list):
                return None
            useful = [d for d in doc if isinstance(d, dict) and d.get("useful")]
            if not useful:
                return None
            useful[0]["summary"] += self.tail
            return json.dumps(doc, ensure_ascii=False)

        return self._spoil(self.inner.complete(prompt), spoiled)

    def search(self, query, top_n):
        def spoiled(results):
            if not results:
                return None
            return [replace(results[0], snippet=results[0].snippet + self.tail), *results[1:]]

        return self._spoil(self.inner.search(query, top_n), spoiled)

    def fetch(self, url):
        return self._spoil(self.inner.fetch(url), lambda page: page + self.tail)


def _spoiled_run(run_dir, kind: str, tail: str | None, cut_at: int | None = None):
    """A Runner on the surrogate reproduction's world whose ``kind`` provider is
    a ``_SpoilOnce`` with ``tail`` (None: no spoiling) that fails at call
    ``cut_at``, and that spoiler."""
    world = generate_world(0, 3, 2, 4)
    config = RunConfig()
    providers = sim_providers(world, config.embed_dim, config.seed)
    spoiler = _SpoilOnce(getattr(providers, kind), tail) if tail is not None else None
    inner = spoiler or getattr(providers, kind)
    setattr(providers, kind, FailingAt(inner, cut_at) if cut_at is not None else inner)
    return Runner(config, providers, run_dir), spoiler


def _strict_utf8(run_dir) -> dict[str, bytes]:
    """The run directory's files, each checked to decode as strict UTF-8."""
    files = dir_snapshot(run_dir)
    for raw in files.values():
        raw.decode("utf-8")
    return files


class TestTheTapeScrubsLoneSurrogates:
    """A lone surrogate in a live answer's raw text, which no run-dir file can
    hold, reaches the engine as U+FFFD."""

    @pytest.mark.parametrize("kind", ["chat", "search", "fetch"])
    def test_the_run_equals_one_sent_the_replacement_character(self, tmp_path, kind):
        runner, spoiler = _spoiled_run(tmp_path / "spoiled", kind, " \ud800")
        assert runner.start(DEFAULT_ROOT_QUERY).stage == "done"
        assert spoiler.spoiled_at is not None
        runner, replaced = _spoiled_run(tmp_path / "replaced", kind, " �")
        runner.start(DEFAULT_ROOT_QUERY)
        assert replaced.spoiled_at == spoiler.spoiled_at
        got = _strict_utf8(tmp_path / "spoiled")
        assert got == dir_snapshot(tmp_path / "replaced")
        assert any(" �".encode("utf-8") in raw for raw in got.values())

    @pytest.mark.parametrize("kind", ["chat", "search", "fetch"])
    @pytest.mark.parametrize("after", [0, 1], ids=["at-the-spoiled-call", "just-after-it"])
    def test_a_cut_at_the_spoiled_call_resumes_to_the_same_bytes(self, tmp_path, kind, after):
        runner, replaced = _spoiled_run(tmp_path / "replaced", kind, " �")
        runner.start(DEFAULT_ROOT_QUERY)
        want = dir_snapshot(tmp_path / "replaced")

        run_dir = tmp_path / "cut"
        runner, spoiler = _spoiled_run(run_dir, kind, " \ud800", replaced.spoiled_at + after)
        with pytest.raises(ProviderError):
            runner.start(DEFAULT_ROOT_QUERY)
        assert spoiler.spoiled_at == (replaced.spoiled_at if after else None)
        files = _strict_utf8(run_dir)
        if after:  # the spoiled answer is committed or on the replay, scrubbed
            assert any(" �".encode("utf-8") in raw for raw in files.values())
        # A restarted process. A cut at the spoiled call asks it again, live;
        # a cut after it replays it, so no later answer may be spoiled.
        runner, _ = _spoiled_run(run_dir, kind, None if after else " \ud800")
        assert runner.resume().stage == "done"
        assert _strict_utf8(run_dir) == want


class _WithUnparseableUrl:
    """A search over ``inner`` that adds a result whose URL ``urlsplit`` rejects
    to every answer."""

    def __init__(self, inner):
        self.inner = inner

    def search(self, query, top_n):
        results = self.inner.search(query, top_n)
        return [*results, SearchResult(url="http://[::1", title="bad", snippet="s", rank=len(results))]


def _search_run(run_dir, unparseable: bool, cut_at: int | None = None) -> Runner:
    """A Runner on the surrogate reproduction's world whose search adds an
    unparseable URL to every answer if ``unparseable`` and fails at call ``cut_at``."""
    world = generate_world(0, 3, 2, 4)
    config = RunConfig()
    providers = sim_providers(world, config.embed_dim, config.seed)
    search = _WithUnparseableUrl(providers.search) if unparseable else providers.search
    providers.search = FailingAt(search, cut_at)
    return Runner(config, providers, run_dir)


class TestAnUnparseableUrlIsDropped:
    """A live search result whose URL ``urlsplit`` rejects costs that row, not the run."""

    def test_the_run_equals_a_clean_run(self, tmp_path):
        assert _search_run(tmp_path / "run", True).start(DEFAULT_ROOT_QUERY).stage == "done"
        _search_run(tmp_path / "clean", False).start(DEFAULT_ROOT_QUERY)
        assert dir_snapshot(tmp_path / "run") == dir_snapshot(tmp_path / "clean")

    def test_a_cut_run_resumes_to_the_clean_runs_bytes(self, tmp_path):
        _search_run(tmp_path / "clean", False).start(DEFAULT_ROOT_QUERY)
        # Search calls 2 and 3 belong to one pass, so the cut at call 3
        # leaves call 2's answer, unparseable URL and all, on the replay tape.
        with pytest.raises(ProviderError):
            _search_run(tmp_path / "run", True, cut_at=3).start(DEFAULT_ROOT_QUERY)
        assert b"[::1" in (tmp_path / "run" / rundir.REPLAY_FILE).read_bytes()
        assert _search_run(tmp_path / "run", True).resume().stage == "done"
        assert dir_snapshot(tmp_path / "run") == dir_snapshot(tmp_path / "clean")
