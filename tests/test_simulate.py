"""Synthetic-world harness: world generation, coverage metrics, paired runs."""

from __future__ import annotations

import csv
import json
import shutil
from collections import Counter
from dataclasses import replace

import pytest

from dualgraph.evidence import EvidenceBank
from dualgraph.kg import KnowledgeGraph
from dualgraph.orchestrator import RunConfig, Runner, RunState
from dualgraph.outline import render_outline
from dualgraph.providers.base import ProviderError
from dualgraph.simulate import (
    BRIDGE_RELATION,
    DEFAULT_ROOT_QUERY,
    MARKER_RE,
    SimChatProvider,
    SimSearchProvider,
    bank_coverage,
    generate_world,
    kg_coverage,
    run_ablation,
    run_sim,
    sim_providers,
)

from .builders import audit_log, dir_snapshot, keeps_only_uncommitted_audit


class TestGenerateWorld:
    def test_deterministic_for_equal_seeds(self):
        a = generate_world(seed=3)
        b = generate_world(seed=3)
        assert a.truth == b.truth
        assert [d.text for d in a.docs] == [d.text for d in b.docs]

    def test_seed_changes_shortcut_edges(self):
        a = generate_world(seed=0, extra_edge_prob=0.5)
        b = generate_world(seed=1, extra_edge_prob=0.5)
        assert a.truth != b.truth

    def test_name_budget_enforced(self):
        with pytest.raises(ValueError):
            generate_world(n_communities=3, cores_per_community=3, concepts_per_community=6)
        generate_world(n_communities=2, cores_per_community=3, concepts_per_community=10)

    def test_structure_has_paths_and_bridges(self):
        world = generate_world(seed=5, n_communities=3, cores_per_community=2,
                               concepts_per_community=3)
        pairs = {e.pair for e in world.truth}
        for members in world.communities:
            for i in range(len(members) - 1):
                assert frozenset((members[i], members[i + 1])) in pairs
        bridges = [e for e in world.truth if e.relation == BRIDGE_RELATION]
        assert len(bridges) == 2
        assert all(len(world.docs_for_edge[i]) >= 1 for i in range(len(world.truth)))

    def test_markers_encode_the_planted_edge(self):
        world = generate_world(seed=2, docs_per_edge=2)
        for doc in world.docs:
            markers = MARKER_RE.findall(doc.text)
            assert len(markers) == 1
            src, rel, tgt = markers[0]
            edge = world.truth[doc.edge_index]
            assert (src, rel, tgt) == (edge.source, edge.relation, edge.target)


class TestCoverage:
    def test_bank_coverage_counts_edges_not_docs(self):
        world = generate_world(seed=1, docs_per_edge=2)
        bank = EvidenceBank()
        assert bank_coverage(bank, world) == 0.0
        first = world.truth[0]
        for doc_id in world.docs_for_edge[0]:
            doc = world.docs[doc_id]
            bank.add(doc.url, doc.title, "q", "s", "c", 0)
        assert bank_coverage(bank, world) == pytest.approx(1 / len(world.truth))
        del first

    def test_full_bank_reaches_one(self):
        world = generate_world(seed=1)
        bank = EvidenceBank()
        for doc in world.docs:
            bank.add(doc.url, doc.title, "q", "s", "c", 0)
        assert bank_coverage(bank, world) == 1.0

    def test_kg_coverage_ignores_direction_and_relation(self):
        world = generate_world(seed=4, n_communities=1, cores_per_community=1,
                               concepts_per_community=2)
        edge = world.truth[0]
        kg = KnowledgeGraph()
        # Reversed direction and a different label still cover the pair.
        tgt = kg.add_node(edge.target, is_core_entity=False)
        src = kg.add_node(edge.source, is_core_entity=False)
        kg.add_edge(tgt, src, "regulates", evidence_ids={1})
        assert kg_coverage(kg, world) == pytest.approx(1 / len(world.truth))

    def test_empty_truth_is_vacuously_covered(self):
        world = generate_world(n_communities=1, cores_per_community=1,
                               concepts_per_community=0)
        assert world.truth == []
        assert bank_coverage(EvidenceBank(), world) == 1.0
        assert kg_coverage(KnowledgeGraph(), world) == 1.0


class TestSimSearch:
    def test_docs_with_all_names_rank_before_partial_matches(self):
        world = generate_world(seed=0, n_communities=2, cores_per_community=2,
                               concepts_per_community=2)
        edge = world.truth[0]
        provider = SimSearchProvider(world)
        results = provider.search(f"{edge.source} {edge.target} relationship", 50)
        assert results, "planted pair should be retrievable"
        both = {
            world.docs[d].url
            for d in world.docs_for_edge[
                next(i for i, e in enumerate(world.truth) if e.pair == edge.pair)
            ]
        }
        # Every doc mentioning both names precedes any single-name doc.
        seen_partial = False
        for r in results:
            if r.url in both:
                assert not seen_partial
            else:
                seen_partial = True

    def test_overview_query_returns_capped_slice(self):
        world = generate_world(seed=0)
        provider = SimSearchProvider(world)
        results = provider.search("overview of the corpus domain", 50)
        expected = [d.url for d in world.docs[: SimSearchProvider.OVERVIEW_DOCS]]
        assert [r.url for r in results] == expected

    def test_unknown_terms_return_nothing(self):
        world = generate_world(seed=0)
        assert SimSearchProvider(world).search("quantum basket weaving", 10) == []


def _small_world():
    return generate_world(seed=0, n_communities=2, cores_per_community=1,
                          concepts_per_community=2)


def _thorough_config(variant: str) -> RunConfig:
    return RunConfig(
        max_iter=24,
        og_query_budget=6,
        kg_query_budget=6,
        urls_per_query=16,
        early_stop_thresholds=100.0,
        seed=0,
        variant=variant,
    )


class TestRunSim:
    def test_coverage_curve_is_monotone_and_complete(self):
        world = _small_world()
        result = run_sim(world, _thorough_config("dualgraph"))
        curve = result.coverage_by_iteration
        values = [curve[i] for i in sorted(curve)]
        assert values == sorted(values)
        assert result.final_coverage == 1.0
        assert kg_coverage(result.state.kg, world) == 1.0

    def test_paired_variants_share_the_world(self):
        world = _small_world()
        dg = run_sim(world, _thorough_config("dualgraph"))
        oo = run_sim(world, _thorough_config("outline-only"))
        assert dg.state.config.variant.value == "dualgraph"
        assert oo.state.config.variant.value == "outline-only"
        assert 0.0 <= oo.final_coverage <= 1.0

    def test_rerun_is_deterministic(self):
        world = _small_world()
        a = run_sim(world, _thorough_config("dualgraph"))
        b = run_sim(world, _thorough_config("dualgraph"))
        assert a.state.to_dict() == b.state.to_dict()
        assert render_outline(a.state.og) == render_outline(b.state.og)
        assert a.state.kg.to_dict() == b.state.kg.to_dict()
        assert a.state.bank.to_document() == b.state.bank.to_document()
        assert a.coverage_by_iteration == b.coverage_by_iteration

    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_ends_where_the_runner_commits(self, tmp_path, variant):
        world = generate_world(seed=1, n_communities=3, cores_per_community=2,
                               concepts_per_community=4)
        config = RunConfig(max_iter=6, og_query_budget=3, kg_query_budget=4, urls_per_query=6,
                           early_stop_thresholds=90.0, variant=variant)
        result = run_sim(world, config)
        Runner(config, sim_providers(world, config.embed_dim, config.seed), tmp_path).start(
            DEFAULT_ROOT_QUERY
        )
        state = result.state
        assert state.stage == "done"
        assert sorted(result.coverage_by_iteration) == list(range(state.iteration + 1))
        committed = {
            "state.json": json.dumps(state.to_dict(), ensure_ascii=False) + "\n",
            f"outline_iter{state.iteration}.txt": state.outline_text(),
            "report.md": state.report,
        }
        for name, text in committed.items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name

    def test_root_query_may_begin_with_a_digit(self):
        query = "5G rollout in rural areas"
        result = run_sim(_small_world(), RunConfig(max_iter=2), root_query=query)
        assert result.state.og.title == query
        assert result.termination_iteration == 2


class TestRunAblation:
    def test_summary_shape_and_artifacts(self, tmp_path):
        summary = run_ablation(
            [0, 1],
            world_kwargs={"concepts_per_community": 2},
            config_overrides={"max_iter": 6},
            out_dir=tmp_path,
        )
        assert summary["n_seeds"] == 2
        assert len(summary["rows"]) == 2
        for row in summary["rows"]:
            assert set(row) == {
                "seed",
                "dualgraph_termination",
                "outline_only_termination",
                "dualgraph_stopped",
                "outline_only_stopped",
                "dualgraph_coverage_at_2",
                "outline_only_coverage_at_2",
                "dualgraph_final_coverage",
                "outline_only_final_coverage",
            }
        assert set(summary["mean_termination"]) == {"dualgraph", "outline-only"}
        assert 0 <= summary["coverage_at_2_wins"] <= 2

        with (tmp_path / "ablation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1"]
        doc = json.loads((tmp_path / "ablation.json").read_text())
        assert doc["n_seeds"] == 2


class _FailingAt:
    """Passes chat, embed, search or fetch calls through to ``inner`` and raises
    ProviderError on call number ``at`` (from 1); None: never. A fetch fails with
    the base ProviderError, not FetchError, so it stops the run like the others."""

    def __init__(self, inner, at: int | None):
        self.inner, self.at, self.calls = inner, at, 0

    def _count(self) -> None:
        self.calls += 1
        if self.calls == self.at:
            raise ProviderError(f"injected fault at call {self.at}")

    def complete(self, prompt: str) -> str:
        self._count()
        return self.inner.complete(prompt)

    def embed(self, texts):
        self._count()
        return self.inner.embed(texts)

    def search(self, query: str, top_n: int):
        self._count()
        return self.inner.search(query, top_n)

    def fetch(self, url: str) -> str:
        self._count()
        return self.inner.fetch(url)


# (communities, cores, concepts per community, max_iter) of a sweep run.
_SMALL_SWEEP = (2, 1, 2, 4)
_CI_SWEEP = (3, 2, 4, 6)  # the console-script step's sim runs


_PAID = ("chat", "search", "fetch")  # the calls a resume replays rather than repeats


def _sweep_run(run_dir, variant: str, size=_SMALL_SWEEP, **faults: int | None):
    """A sim run through Runner, with fresh providers, each counting its calls in
    a ``_FailingAt``; ``faults`` maps ``chat``, ``embed``, ``search`` or ``fetch``
    to the call that fails (None or absent: no fault)."""
    communities, cores, concepts, max_iter = size
    world = generate_world(seed=1, n_communities=communities, cores_per_community=cores,
                           concepts_per_community=concepts)
    config = RunConfig(max_iter=max_iter, og_query_budget=3, kg_query_budget=4,
                       urls_per_query=6, early_stop_thresholds=90.0, variant=variant)
    providers = sim_providers(world, config.embed_dim, config.seed)
    providers = replace(providers, **{
        name: _FailingAt(getattr(providers, name), faults.get(name))
        for name in ("chat", "embed", "search", "fetch")
    })
    return Runner(config, providers, run_dir), world


def _calls(runner) -> Counter:
    return Counter({name: getattr(runner.providers, name).calls for name in _PAID})


def _diverged_resumes(tmp_path, variant: str, size, provider: str, clean: Counter) -> list:
    """The fault points among the first ``clean[provider]`` calls to ``provider``
    whose resume, in a restarted process, does not end at the bytes of the
    uninterrupted run in ``tmp_path / "clean"`` (``(at, "bytes")``), or whose
    attempt and resume together do not make exactly the ``clean`` chat, search
    and fetch calls plus the faulted one (``(at, extra calls by kind)``): the
    resume replays every answer the interrupted attempt got. A resumed state
    that holds a committed audit record, or whose audit does not count every
    line of ``audit.jsonl``, is ``(at, "audit")``."""
    want = dir_snapshot(tmp_path / "clean")
    want_calls = clean + Counter({provider: provider in _PAID})
    diverged = []
    for at in range(1, clean[provider] + 1):
        run_dir = tmp_path / f"fault{at}"
        runner, _ = _sweep_run(run_dir, variant, size, **{provider: at})
        with pytest.raises(ProviderError):
            runner.start(DEFAULT_ROOT_QUERY)
        made = _calls(runner)
        # A restarted process: providers that saw none of the first attempt.
        runner, _ = _sweep_run(run_dir, variant, size)
        resumed = runner.resume()
        assert resumed.stage == "done"
        made.update(_calls(runner))
        if dir_snapshot(run_dir) != want:
            diverged.append((at, "bytes"))
        if not keeps_only_uncommitted_audit(runner, resumed):
            diverged.append((at, "audit"))
        extra = {kind: made[kind] - want_calls[kind] for kind in _PAID}
        if any(extra.values()):
            diverged.append((at, extra))
        shutil.rmtree(run_dir)
    return diverged


def _clean_run(tmp_path, variant: str, size) -> tuple[Runner, RunState]:
    runner, _ = _sweep_run(tmp_path / "clean", variant, size)
    return runner, runner.start(DEFAULT_ROOT_QUERY)


class TestResumeAfterAnyChatFault:
    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_every_fault_point_resumes_to_the_uninterrupted_bytes(self, tmp_path, variant):
        runner, _ = _clean_run(tmp_path, variant, _SMALL_SWEEP)
        names = [record["name"] for record in audit_log(runner)]
        if variant == "dualgraph":
            # Faults land between chain selections of different passes.
            assert names.count("select_chains") >= 2
        calls = _calls(runner)
        assert calls["chat"] == len(names)
        diverged = _diverged_resumes(tmp_path, variant, _SMALL_SWEEP, "chat", calls)
        assert [(at, names[at - 1], what) for at, what in diverged] == []


class TestResumeAfterAnyEmbedFault:
    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_every_fault_point_resumes_to_the_uninterrupted_bytes(self, tmp_path, variant):
        runner, _ = _clean_run(tmp_path, variant, _CI_SWEEP)
        calls = _calls(runner) + Counter(embed=runner.providers.embed.calls)
        assert calls["embed"] >= 6
        assert _diverged_resumes(tmp_path, variant, _CI_SWEEP, "embed", calls) == []


class TestResumeAfterAnySearchOrFetchFault:
    @pytest.mark.parametrize("provider", ["search", "fetch"])
    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_every_fault_point_resumes_to_the_uninterrupted_bytes(
        self, tmp_path, variant, provider
    ):
        runner, _ = _clean_run(tmp_path, variant, _CI_SWEEP)
        calls = _calls(runner)
        assert calls[provider] >= 10
        assert _diverged_resumes(tmp_path, variant, _CI_SWEEP, provider, calls) == []


class TestSimChatIsPure:
    def test_holds_only_its_world(self):
        world = _small_world()
        assert vars(SimChatProvider(world)) == {"world": world}

    @pytest.mark.parametrize("variant", ["dualgraph", "outline-only"])
    def test_fresh_chat_answers_every_recorded_prompt_alike(self, tmp_path, variant):
        runner, world = _sweep_run(tmp_path / "run", variant)
        runner.start(DEFAULT_ROOT_QUERY)
        with open(tmp_path / "run" / "audit.jsonl", encoding="utf-8") as log_file:
            audit = [json.loads(line) for line in log_file]
        fresh = SimChatProvider(world)
        # Last prompt first: no answer may lean on an earlier call.
        for call, record in reversed(list(enumerate(audit))):
            assert fresh.complete(record["prompt"]) == record["response"], call
