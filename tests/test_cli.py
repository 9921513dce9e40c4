"""Exit codes and artifacts of the command line interface."""

from __future__ import annotations

import base64
import functools
import json
import operator

import pytest

from dualgraph.cli import main
from dualgraph.providers.parsers import SCORE_DIMENSIONS

from .builders import DEMO_FIXTURE, crash_demo_run, dir_snapshot


def _run_demo(run_dir, *extra: str) -> int:
    return main(["run", "--run-dir", str(run_dir), *extra])


@pytest.fixture()
def demo_run(tmp_path):
    run_dir = tmp_path / "run"
    assert _run_demo(run_dir) == 0
    return run_dir


def _damage_state(run_dir, damage: str) -> str:
    """Overwrite state.json with a damaged copy and return the damaged text."""
    path = run_dir / "state.json"
    text = path.read_text(encoding="utf-8")
    if damage == "torn":
        text = text[: len(text) // 2]
    elif damage == "not-an-object":
        text = "[1, 2]"
    else:  # "no-<key>"
        doc = json.loads(text)
        del doc[damage.removeprefix("no-")]
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return text


def _half(text: str) -> str:
    return text[: len(text) // 2]


def _tear_first_record(text: str) -> str:
    first, rest = text.split("\n", 1)
    return _half(first) + "\n" + rest


def _reorder_nodes(text: str) -> str:
    doc = json.loads(text)
    doc["knowledge_nodes"].reverse()
    return json.dumps(doc)


def _set_state(key: str, value):
    def damage(text: str) -> str:
        return json.dumps(dict(json.loads(text), **{key: value}))

    return damage


def _edit_json(edit):
    """A damage that applies ``edit`` to a JSON document in place."""

    def damage(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return damage


def _set_node(key: str, value):
    """Set ``key`` of the first node of a graph document."""
    return _edit_json(lambda doc: doc["knowledge_nodes"][0].update({key: value}))


def _set_report(**report):
    """Make the early-stop history one report."""
    return _set_state("early_stop_history", [report])


def _set_in_first_line(key: str, value):
    """Set ``key`` of the first record of a JSON-lines log."""

    def damage(text: str) -> str:
        first, rest = text.split("\n", 1)
        return json.dumps(dict(json.loads(first), **{key: value})) + "\n" + rest

    return damage


def _edit_records(edit):
    """A damage that applies ``edit`` to the list of a JSON-lines log's records."""

    def damage(text: str) -> str:
        records = [json.loads(line) for line in text.splitlines()]
        edit(records)
        return "".join(json.dumps(record) + "\n" for record in records)

    return damage


def _vector_bytes(to):
    """Replace the first embed.jsonl vector's bytes with ``to(bytes)``, base64 again."""

    def edit(records):
        raw = base64.b64decode(records[0]["vector"])
        records[0]["vector"] = base64.b64encode(to(raw)).decode("ascii")

    return _edit_records(edit)


def _url_alike(url: str) -> str:
    """Another spelling of ``url`` that normalizes alike: upper-case scheme and
    host, and a trailing slash."""
    scheme, rest = url.split("://", 1)
    host, path = rest.split("/", 1)
    return f"{scheme.upper()}://{host.upper()}/{path}/"


ZEROS = dict.fromkeys(SCORE_DIMENSIONS, 0)


def _cite_absent_evidence(outline: str) -> str:
    assert "</citation>" in outline
    return outline.replace("</citation>", ", id_999</citation>", 1)


def _cite_evidence_id(value):
    """Make the last edge of a graph document cite ``value`` as an evidence id."""

    def damage(text: str) -> str:
        doc = json.loads(text)
        doc["knowledge_edges"][-1]["evidence_ids"] = [value]
        return json.dumps(doc)

    return damage


_REPLAYED_CHAT = '{"kind": "chat", "request": "p", "answer": "a"}\n'


def _replay(line: str):
    """A damage writing a replay.jsonl of one well-formed exchange and then
    ``line``; a finished run holds none, so the text given is ignored."""
    return lambda text: _REPLAYED_CHAT + line + "\n"


# (command, file, damage): a committed file that no longer parses.
DAMAGED_FILES = {
    "resume-torn-audit-record": ("resume", "audit.jsonl", _tear_first_record),
    "resume-torn-bank": ("resume", "bank.jsonl", _tear_first_record),
    "resume-torn-kg": ("resume", "kg_iter2.json", _half),
    "resume-kg-out-of-order": ("resume", "kg_iter2.json", _reorder_nodes),
    "resume-empty-outline": ("resume", "outline_iter2.txt", lambda text: ""),
    "resume-iteration-not-an-int": ("resume", "state.json", _set_state("iteration", "two")),
    "resume-audit-records-not-an-int": ("resume", "state.json", _set_state("audit_records", "x")),
    "resume-negative-bank-units": ("resume", "state.json", _set_state("bank_units", -1)),
    "inspect-kg-torn-kg": ("inspect-kg", "kg_iter2.json", _half),
    "resume-unknown-stage": ("resume", "state.json", _set_state("stage", "bogus")),
    "chains-torn-chains": ("chains", "chains_iter2.json", _half),
    "chains-not-an-object": ("chains", "chains_iter2.json", lambda text: "[1]"),
    "chains-candidate-not-an-object": (
        "chains", "chains_iter2.json", _edit_json(lambda doc: doc.update(candidates=[1]))
    ),
    "chains-empty-object": ("chains", "chains_iter2.json", lambda text: "{}"),
    "chains-queries-not-a-list": (
        "chains", "chains_iter2.json", _edit_json(lambda doc: doc.update(queries="q"))
    ),
    "chains-selected-names-no-candidate": (
        "chains",
        "chains_iter2.json",
        lambda text: '{"candidates": [], "selected": ["c9"], "queries": ["q"]}',
    ),
    "chains-torn-previous-kg": ("chains", "kg_iter1.json", _half),
    "resume-outline-cites-absent-evidence": (
        "resume", "outline_iter2.txt", _cite_absent_evidence
    ),
    "resume-kg-cites-absent-evidence": ("resume", "kg_iter2.json", _cite_evidence_id(999)),
    "inspect-kg-evidence-id-zero": ("inspect-kg", "kg_iter2.json", _cite_evidence_id(0)),
    "resume-evidence-id-zero": ("resume", "kg_iter2.json", _cite_evidence_id(0)),
    "resume-negative-evidence-id": ("resume", "kg_iter2.json", _cite_evidence_id(-2)),
    "resume-fractional-evidence-id": ("resume", "kg_iter2.json", _cite_evidence_id(1.5)),
    "inspect-kg-evidence-id-string": ("inspect-kg", "kg_iter2.json", _cite_evidence_id("3")),
    "resume-executed-queries-a-string": (
        "resume", "state.json", _set_state("executed_queries", "abc")
    ),
    "resume-events-an-object": ("resume", "state.json", _set_state("events", {"x": 1})),
    "resume-event-not-a-string": ("resume", "state.json", _set_state("events", ["x", 1])),
    "resume-stop-a-string": ("resume", "state.json", _set_report(scores=ZEROS, stop="false")),
    "resume-score-not-a-number": (
        "resume", "state.json", _set_report(scores={"depth": "high"}, stop=False)
    ),
    "resume-score-above-100": (
        "resume", "state.json", _set_report(scores=dict(ZEROS, depth=101), stop=False)
    ),
    "resume-report-extra-key": (
        "resume", "state.json", _set_report(scores=ZEROS, stop=False, x=1)
    ),
    "resume-root-query-a-number": ("resume", "state.json", _set_state("root_query", 5)),
    "resume-config-lost-max-iter": (
        "resume", "state.json", _edit_json(lambda doc: doc["config"].pop("max_iter"))
    ),
    "resume-config-max-iter-zero": (
        "resume", "state.json", _edit_json(lambda doc: doc["config"].update(max_iter=0))
    ),
    "resume-community-id-string": ("resume", "kg_iter2.json", _set_node("community_id", "x")),
    "resume-community-id-null": ("resume", "kg_iter2.json", _set_node("community_id", None)),
    "inspect-kg-community-id-string": (
        "inspect-kg", "kg_iter2.json", _set_node("community_id", "x")
    ),
    "resume-cluster-id-a-bool": ("resume", "kg_iter2.json", _set_node("cluster_id", True)),
    "resume-knowledge-a-number": ("resume", "kg_iter2.json", _set_node("knowledge", 7)),
    "inspect-kg-knowledge-a-number": ("inspect-kg", "kg_iter2.json", _set_node("knowledge", 7)),
    "resume-core-flag-a-string": ("resume", "kg_iter2.json", _set_node("is_core_entity", "no")),
    "inspect-kg-core-flag-a-string": (
        "inspect-kg", "kg_iter2.json", _set_node("is_core_entity", "no")
    ),
    "inspect-kg-relation-a-number": (
        "inspect-kg",
        "kg_iter2.json",
        _edit_json(lambda doc: doc["knowledge_edges"][0].update(relation_name=3)),
    ),
    "resume-next-node-num-a-string": ("resume", "kg_iter2.json", _set_state("next_node_num", "99")),
    "inspect-kg-next-edge-num-a-float": (
        "inspect-kg", "kg_iter2.json", _set_state("next_edge_num", 99.0)
    ),
    "resume-bank-url-a-number": ("resume", "bank.jsonl", _set_in_first_line("url", 7)),
    "resume-bank-summary-a-number": ("resume", "bank.jsonl", _set_in_first_line("summary", 7)),
    "resume-bank-iteration-a-string": (
        "resume", "bank.jsonl", _set_in_first_line("iteration", "0")
    ),
    "resume-bank-url-repeated": (
        "resume", "bank.jsonl", _edit_records(lambda rs: rs[1].update(url=_url_alike(rs[0]["url"])))
    ),
    "resume-bank-query-blank": (
        "resume", "bank.jsonl", _edit_records(lambda rs: rs[0].update(query=" \t "))
    ),
    "resume-torn-embed-record": ("resume", "embed.jsonl", _tear_first_record),
    "resume-embed-vector-not-base64": (
        "resume", "embed.jsonl", _set_in_first_line("vector", "not base64!")
    ),
    "resume-embed-vector-a-float-list": (
        "resume", "embed.jsonl", _set_in_first_line("vector", [0.5, 0.25])
    ),
    "resume-embed-vector-not-whole-floats": (
        "resume", "embed.jsonl", _vector_bytes(lambda raw: raw[:-4])
    ),
    "resume-embed-vectors-of-unequal-length": (
        "resume", "embed.jsonl", _vector_bytes(lambda raw: raw[:-8])
    ),
    "resume-embed-text-repeated": (
        "resume", "embed.jsonl", _edit_records(lambda rs: rs[1].update(text=rs[0]["text"]))
    ),
    "resume-embed-text-a-number": ("resume", "embed.jsonl", _set_in_first_line("text", 7)),
    "resume-embed-record-extra-key": ("resume", "embed.jsonl", _set_in_first_line("x", 1)),
    "resume-negative-embedded-texts": ("resume", "state.json", _set_state("embedded_texts", -1)),
    "resume-replay-torn-line": ("resume", "replay.jsonl", _replay('{"kind": "chat", "requ')),
    "resume-replay-unknown-kind": (
        "resume", "replay.jsonl", _replay('{"kind": "embed", "request": "p", "answer": "a"}')
    ),
    "resume-replay-extra-key": (
        "resume", "replay.jsonl", _replay('{"kind": "chat", "request": "p", "answer": "a", "x": 1}')
    ),
    "resume-replay-answer-and-error": (
        "resume", "replay.jsonl",
        _replay('{"kind": "fetch", "request": "u", "answer": "a", "error": "e"}'),
    ),
    "resume-replay-not-an-object": ("resume", "replay.jsonl", _replay('["chat", "p", "a"]')),
    "resume-replay-chat-error": (
        "resume", "replay.jsonl", _replay('{"kind": "chat", "request": "p", "error": "e"}')
    ),
    "resume-replay-top-n-a-string": (
        "resume", "replay.jsonl",
        _replay('{"kind": "search", "request": {"query": "q", "top_n": "5"}, "answer": []}'),
    ),
    "resume-replay-result-rank-a-string": (
        "resume", "replay.jsonl",
        _replay(
            '{"kind": "search", "request": {"query": "q", "top_n": 5}, "answer": '
            '[{"url": "u", "title": "t", "snippet": "s", "rank": "0"}]}'
        ),
    ),
    "resume-embedded-texts-not-an-int": (
        "resume", "state.json", _set_state("embedded_texts", 2.5)
    ),
}

# (command, file): each command that reads the file.
UNDECODABLE_FILES = [
    ("inspect-og", "state.json"),
    ("inspect-og", "outline_iter2.txt"),
    ("inspect-kg", "state.json"),
    ("inspect-kg", "kg_iter2.json"),
    ("inspect-kg --json", "kg_iter2.json"),
    ("chains", "state.json"),
    ("chains", "chains_iter2.json"),
    ("chains", "kg_iter1.json"),
    ("resume", "state.json"),
    ("resume", "outline_iter2.txt"),
    ("resume", "kg_iter2.json"),
    ("resume", "report.md"),
    ("resume", "audit.jsonl"),
    ("resume", "bank.jsonl"),
    ("resume", "embed.jsonl"),
]

def _demo_fixture_with(**keys) -> str:
    doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
    doc.update(keys)
    return json.dumps(doc)


def _demo_fixture_with_item(*keys, to) -> str:
    """The demo fixture with the item at path ``keys`` replaced by ``to(item)``."""
    doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
    parent = functools.reduce(operator.getitem, keys[:-1], doc)
    parent[keys[-1]] = to(parent[keys[-1]])
    return json.dumps(doc)


def _demo_fixture_cut_at_revision() -> str:
    """The demo fixture whose first outline revision has no response left, so
    a run stops mid-iteration with a provider failure."""
    doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
    revise = [e for e in doc["chat_script"] if any("revising the outline" in m for m in e["match"])]
    revise[0]["responses"] = []
    return json.dumps(doc)


# A --fixture file that load_fixture cannot read.
DAMAGED_FIXTURES = {
    "torn-json": '{"root_query": "q", "chat_scr',
    "json-list": '["chat_script"]',
    "no-chat-script": '{"root_query": "q", "config": {}}',
    # A string where a list of strings belongs, which iteration would split
    # into characters.
    "responses-a-string": _demo_fixture_with_item("chat_script", 0, "responses", to=lambda r: r[0]),
    "match-a-string": _demo_fixture_with_item("chat_script", 0, "match", to=lambda m: m[0]),
    "config-a-list": _demo_fixture_with_item("config", to=list),
    "pages-a-list": _demo_fixture_with_item("pages", to=list),
    "search-results-a-list": _demo_fixture_with_item("search_results", to=list),
    "page-a-number": _demo_fixture_with_item(
        "pages", to=lambda pages: {url: len(text) for url, text in pages.items()}
    ),
    "root-query-a-number": _demo_fixture_with(root_query=7),
}


# Top-level embedder keys that fixtures no longer read: the embedder follows
# the run's config.
RETIRED_FIXTURE_KEYS = {
    "embed-dim-zero": {"embed_dim": 0},
    "embed-dim-negative": {"embed_dim": -1},
    "embed-dim-string": {"embed_dim": "32"},
    "embed-dim-float": {"embed_dim": 2.5},
    "embed-dim-bool": {"embed_dim": True},
    "embed-seed-string": {"embed_seed": "x"},
    "embed-seed-bool": {"embed_seed": False},
    "embed-dim-16-seed-5": {"embed_dim": 16, "embed_seed": 5},
}


# A path of the wrong kind, the last argument, where {file} is a regular file
# and {dir} a directory.
WRONG_KIND_PATHS = {
    "run-run-dir-a-file": "run --run-dir {file}",
    "run-run-dir-under-a-file": "run --run-dir {file}/run",
    "run-fixture-a-dir": "run --run-dir {dir}/run --fixture {dir}",
    "run-config-a-dir": "run --run-dir {dir}/run --config {dir}",
    "resume-run-dir-a-file": "resume --run-dir {file}",
    "resume-run-dir-under-a-file": "resume --run-dir {file}/run",
    "resume-fixture-a-dir": "resume --run-dir {dir}/run --fixture {dir}",
    "inspect-kg-run-dir-a-file": "inspect-kg --run-dir {file}",
    "inspect-og-run-dir-under-a-file": "inspect-og --run-dir {file}/run",
    "chains-run-dir-a-file": "chains --run-dir {file}",
    "simulate-out-a-file": "simulate --seeds 1 --out {file}",
    "simulate-out-under-a-file": "simulate --seeds 1 --out {file}/abl",
}


class TestRun:
    def test_demo_fixture_completes(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert _run_demo(run_dir) == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        assert (run_dir / "report.md").exists()
        assert (run_dir / "state.json").exists()

    def test_existing_run_needs_force(self, demo_run, capsys):
        assert _run_demo(demo_run) == 1
        assert "--force" in capsys.readouterr().err
        assert _run_demo(demo_run, "--force") == 0

    def test_force_rerun_drops_a_longer_runs_files(self, demo_run, capsys):
        (demo_run / "notes_iter2.md").write_text("kept\n", encoding="utf-8")
        cfg = demo_run.parent / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1}), encoding="utf-8")
        assert _run_demo(demo_run, "--force", "--config", str(cfg)) == 0
        assert [p.name for p in demo_run.glob("*_iter2.*")] == ["notes_iter2.md"]
        capsys.readouterr()
        assert main(["chains", "--run-dir", str(demo_run)]) == 0
        assert "iteration 1" in capsys.readouterr().out

    def test_variant_must_match_fixture_recording(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "outline-only"}))
        code = _run_demo(tmp_path / "run", "--config", str(cfg))
        assert code == 1
        assert "recorded for variant 'dualgraph'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fixture_states_its_variant_only_in_its_config(self, tmp_path):
        doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
        doc["variant"] = "outline-only"  # the retired top-level key
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(doc), encoding="utf-8")
        assert _run_demo(tmp_path / "run", "--fixture", str(fixture)) == 0
        state = json.loads((tmp_path / "run" / "state.json").read_text(encoding="utf-8"))
        assert state["config"]["variant"] == "dualgraph"

    @pytest.mark.parametrize("keys", RETIRED_FIXTURE_KEYS.values(), ids=RETIRED_FIXTURE_KEYS)
    def test_retired_embedder_keys_are_ignored(self, demo_run, tmp_path, keys):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(_demo_fixture_with(**keys), encoding="utf-8")
        run_dir = tmp_path / "retired"
        assert _run_demo(run_dir, "--fixture", str(fixture)) == 0
        for name in ("state.json", "embed.jsonl"):
            assert (run_dir / name).read_bytes() == (demo_run / name).read_bytes()

    def test_created_outline_citing_evidence_is_a_parse_error(self, tmp_path, capsys):
        doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
        create = doc["chat_script"][0]
        assert create["match"] == ["Draft the outline of a deep-dive report"]
        title, first, rest = create["responses"][0].split("\n", 2)
        create["responses"] = [f"{title}\n{first} <citation>id_7</citation>\n{rest}"] * 3
        fixture = tmp_path / "citing.json"
        fixture.write_text(json.dumps(doc), encoding="utf-8")
        assert _run_demo(tmp_path / "run", "--fixture", str(fixture)) == 2
        assert "create_outline" in capsys.readouterr().err

    def test_missing_fixture_is_usage_error(self, tmp_path):
        assert _run_demo(tmp_path / "run", "--fixture", str(tmp_path / "no.json")) == 1

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1}))
        assert _run_demo(tmp_path / "run", "--config", str(cfg)) == 0
        state = json.loads((tmp_path / "run" / "state.json").read_text(encoding="utf-8"))
        assert (state["config"]["max_iter"], state["iteration"]) == (1, 1)

    @pytest.mark.parametrize(
        "payload", ["{not json", '["list"]', '{"mystery_knob": 1}']
    )
    def test_bad_config_files_rejected(self, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload)
        assert _run_demo(tmp_path / "run", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"variant": "bogus"},
            {"variant": 1},
            {"max_iter": "5"},
            {"max_iter": True},
            {"urls_per_query": 1.5},
            {"kg_query_budget": "4"},
            {"seed": None},
            {"retry_budget": 2},
            {"early_stop_thresholds": float("nan")},
            {"early_stop_thresholds": "high"},
            {"early_stop_thresholds": None},
            {"early_stop_thresholds": {d: "90" for d in SCORE_DIMENSIONS}},
            {"embed_dim": 0},
            {"embed_dim": -3},
        ],
    )
    def test_bad_config_values_are_configuration_errors(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        run_dir = tmp_path / "run"
        assert _run_demo(run_dir, "--config", str(cfg)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (run_dir / "state.json").exists()

    def test_missing_config_file_rejected(self, tmp_path):
        assert _run_demo(tmp_path / "run", "--config", str(tmp_path / "no.json")) == 1


class TestLiveProviders:
    # Live providers plug in through the library; the commands take none.
    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_providers_is_an_unknown_flag(self, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        assert main([command, "--run-dir", str(run_dir), "--providers", "mock"]) == 1
        assert "--providers" in capsys.readouterr().err
        assert not run_dir.exists()

    # The root query is the fixture's, and the config sets every other setting.
    @pytest.mark.parametrize("flag, value", [("--query", "q"), ("--seed", "1"), ("--max-iter", "1")])
    def test_setting_flag_is_unknown(self, tmp_path, capsys, flag, value):
        run_dir = tmp_path / "run"
        assert main(["run", "--run-dir", str(run_dir), flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not run_dir.exists()

    def test_no_flag_accepts_an_api_key(self):
        assert main(["run", "--run-dir", "x", "--api-key", "k"]) == 1


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag(self):
        assert main(["run"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1


class TestWrongKindOfPath:
    @pytest.mark.parametrize("command", WRONG_KIND_PATHS.values(), ids=WRONG_KIND_PATHS)
    def test_exit_1_naming_the_path_and_creating_nothing(self, tmp_path, capsys, command):
        file = tmp_path / "file"
        file.write_text("keep", encoding="utf-8")
        argv = [arg.format(file=file, dir=tmp_path) for arg in command.split()]
        assert main(argv) == 1
        assert argv[-1] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [file]
        assert file.read_text(encoding="utf-8") == "keep"


class TestResume:
    def test_missing_run_dir(self, tmp_path):
        assert main(["resume", "--run-dir", str(tmp_path / "nope")]) == 1

    def test_finished_run_resumes_as_noop(self, demo_run, capsys):
        assert main(["resume", "--run-dir", str(demo_run)]) == 0
        assert "run complete: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["torn", "not-an-object", "no-events", "no-iteration"])
    def test_damaged_state_is_a_configuration_error(self, demo_run, capsys, damage):
        damaged = _damage_state(demo_run, damage)
        assert main(["resume", "--run-dir", str(demo_run)]) == 1
        assert "configuration error: state.json" in capsys.readouterr().err
        assert (demo_run / "state.json").read_text(encoding="utf-8") == damaged

    def test_old_format_version_is_rejected(self, demo_run, capsys):
        path = demo_run / "state.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4, 5, 6, 7):
            doc["format_version"] = version
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["resume", "--run-dir", str(demo_run)]) == 1
            assert f"format_version {version}" in capsys.readouterr().err

    def test_short_audit_log_is_rejected(self, demo_run, capsys):
        path = demo_run / "audit.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["resume", "--run-dir", str(demo_run)]) == 1
        assert "audit.jsonl" in capsys.readouterr().err

    def test_short_embed_log_is_rejected(self, demo_run, capsys):
        path = demo_run / "embed.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["resume", "--run-dir", str(demo_run)]) == 1
        assert "embed.jsonl is shorter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["outline_iter2.txt", "kg_iter2.json", "report.md", "embed.jsonl"]
    )
    def test_missing_checkpoint_file_is_rejected(self, demo_run, capsys, name):
        (demo_run / name).unlink()
        assert main(["resume", "--run-dir", str(demo_run)]) == 1
        assert name in capsys.readouterr().err

    def test_short_bank_is_rejected(self, demo_run, capsys):
        path = demo_run / "bank.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        assert main(["resume", "--run-dir", str(demo_run)]) == 1
        assert "bank.jsonl is shorter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("outline_iter1.txt", _cite_absent_evidence),
            ("kg_iter1.json", _set_node("community_id", None)),
        ],
        ids=["outline-cites-absent-evidence", "community-id-null"],
    )
    def test_crash_window_damage_is_rejected(self, tmp_path, capsys, name, damage):
        # The resume goes on to iteration 2, which reads what the file holds.
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        path = run_dir / name
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["resume", "--run-dir", str(run_dir)]) == 1
        assert f"configuration error: {name}" in capsys.readouterr().err

    @staticmethod
    def _cut_demo_run(tmp_path):
        """A demo run stopped by a provider failure in its first outline revision."""
        run_dir, cut = tmp_path / "cut", tmp_path / "cut.json"
        cut.write_text(_demo_fixture_cut_at_revision(), encoding="utf-8")
        assert _run_demo(run_dir, "--fixture", str(cut)) == 2
        return run_dir

    def test_force_rerun_deletes_what_a_failure_spilled(self, demo_run, tmp_path):
        run_dir = self._cut_demo_run(tmp_path)
        assert (run_dir / "replay.jsonl").exists()
        assert _run_demo(run_dir, "--force") == 0
        assert dir_snapshot(run_dir) == dir_snapshot(demo_run)

    @pytest.mark.parametrize("keys", RETIRED_FIXTURE_KEYS.values(), ids=RETIRED_FIXTURE_KEYS)
    def test_fixture_embedder_keys_do_not_reach_a_resume(self, demo_run, tmp_path, keys):
        # The resume rebuilds the embedder that began the run from the
        # committed config, whatever embedder keys the fixture carries.
        run_dir, other = self._cut_demo_run(tmp_path), tmp_path / "other.json"
        other.write_text(_demo_fixture_with(**keys), encoding="utf-8")
        assert main(["resume", "--run-dir", str(run_dir), "--fixture", str(other)]) == 0
        assert dir_snapshot(run_dir) == dir_snapshot(demo_run)

    def test_embedder_of_another_width_is_rejected(self, tmp_path, capsys):
        run_dir = self._cut_demo_run(tmp_path)
        path = run_dir / "state.json"
        committed = path.read_text(encoding="utf-8")
        path.write_text(
            _edit_json(lambda doc: doc["config"].update(embed_dim=16))(committed),
            encoding="utf-8",
        )
        before = dir_snapshot(run_dir)
        capsys.readouterr()
        assert main(["resume", "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: embed.jsonl holds vectors of width 32" in err
        assert "the embedder returns width 16" in err
        assert dir_snapshot(run_dir) == before
        # With the config that began it, the run is still resumable.
        path.write_text(committed, encoding="utf-8")
        assert main(["resume", "--run-dir", str(run_dir)]) == 0


class TestDamagedFixture:
    @staticmethod
    def _fixture(tmp_path, payload: str) -> str:
        path = tmp_path / "fixture.json"
        path.write_text(payload, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("payload", DAMAGED_FIXTURES.values(), ids=DAMAGED_FIXTURES)
    def test_run_exits_1_and_makes_no_run_dir(self, tmp_path, capsys, payload):
        fixture = self._fixture(tmp_path, payload)
        assert _run_demo(tmp_path / "run", "--fixture", fixture) == 1
        assert fixture in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("payload", DAMAGED_FIXTURES.values(), ids=DAMAGED_FIXTURES)
    def test_resume_exits_1_and_leaves_the_run(self, demo_run, tmp_path, capsys, payload):
        fixture = self._fixture(tmp_path, payload)
        state = (demo_run / "state.json").read_text(encoding="utf-8")
        assert main(["resume", "--run-dir", str(demo_run), "--fixture", fixture]) == 1
        assert fixture in capsys.readouterr().err
        assert (demo_run / "state.json").read_text(encoding="utf-8") == state


class TestInspect:
    def test_inspect_kg_summary(self, demo_run, capsys):
        assert main(["inspect-kg", "--run-dir", str(demo_run)]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "edges:" in out

    def test_inspect_kg_json_passthrough(self, demo_run, capsys):
        assert main(["inspect-kg", "--run-dir", str(demo_run), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "knowledge_nodes" in doc

    def test_inspect_kg_at_iteration(self, demo_run):
        assert main(["inspect-kg", "--run-dir", str(demo_run), "--iter", "1"]) == 0

    def test_inspect_og_prints_outline(self, demo_run, capsys):
        assert main(["inspect-og", "--run-dir", str(demo_run)]) == 0
        assert "1." in capsys.readouterr().out

    def test_chains_defaults_to_last_iteration(self, demo_run, capsys):
        assert main(["chains", "--run-dir", str(demo_run)]) == 0
        out = capsys.readouterr().out
        assert "iteration 2" in out
        assert "candidate chain(s)" in out

    def test_chains_explicit_iteration(self, demo_run, capsys):
        assert main(["chains", "--run-dir", str(demo_run), "--iter", "1"]) == 0
        assert "iteration 1" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["torn", "not-an-object", "no-iteration"])
    @pytest.mark.parametrize("command", ["inspect-kg", "inspect-og", "chains"])
    def test_unreadable_state_is_a_usage_error(self, demo_run, capsys, command, damage):
        damaged = _damage_state(demo_run, damage)
        assert main([command, "--run-dir", str(demo_run)]) == 1
        assert "state.json" in capsys.readouterr().err
        assert (demo_run / "state.json").read_text(encoding="utf-8") == damaged

    def test_missing_checkpoints_are_usage_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["inspect-kg", "--run-dir", str(empty)]) == 1
        assert main(["inspect-og", "--run-dir", str(empty)]) == 1
        assert main(["chains", "--run-dir", str(empty)]) == 1


class TestDamagedFiles:
    @pytest.mark.parametrize("command, name, damage", DAMAGED_FILES.values(), ids=DAMAGED_FILES)
    def test_exit_1_naming_the_file(self, demo_run, capsys, command, name, damage):
        path = demo_run / name
        damaged = damage(path.read_text(encoding="utf-8") if path.exists() else "")
        path.write_text(damaged, encoding="utf-8")
        state = (demo_run / "state.json").read_text(encoding="utf-8")
        assert main([command, "--run-dir", str(demo_run)]) == 1
        assert name in capsys.readouterr().err
        assert (demo_run / "state.json").read_text(encoding="utf-8") == state
        assert path.read_text(encoding="utf-8") == damaged

    @pytest.mark.parametrize(
        "undecodable",
        # A byte no UTF-8 text starts with, and valid JSON or text in an
        # encoding no run writes.
        [lambda data: b"\xff" + data, lambda data: data.decode("utf-8").encode("utf-16")],
        ids=["leading-0xff", "utf-16"],
    )
    @pytest.mark.parametrize(
        "command, name", UNDECODABLE_FILES, ids=[" ".join(case) for case in UNDECODABLE_FILES]
    )
    def test_undecodable_file_exits_1_naming_it(
        self, demo_run, capsys, command, name, undecodable
    ):
        path = demo_run / name
        damaged = undecodable(path.read_bytes())
        path.write_bytes(damaged)
        assert main([*command.split(), "--run-dir", str(demo_run)]) == 1
        assert f"configuration error: {name}" in capsys.readouterr().err
        assert path.read_bytes() == damaged


class TestInspectDefaultsToCommittedIteration:
    COMMANDS = [["inspect-kg"], ["inspect-kg", "--json"], ["inspect-og"], ["chains"]]

    @staticmethod
    def _output(capsys, run_dir, command, *extra):
        assert main([*command, "--run-dir", str(run_dir), *extra]) == 0
        return capsys.readouterr().out

    @staticmethod
    def _committed(run_dir) -> str:
        return str(json.loads((run_dir / "state.json").read_text(encoding="utf-8"))["iteration"])

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_finished_run(self, demo_run, capsys, command):
        committed = self._committed(demo_run)
        assert committed == "2"
        assert self._output(capsys, demo_run, command) == self._output(
            capsys, demo_run, command, "--iter", committed
        )

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_crash_window_shows_what_resume_continues_from(self, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        crash_demo_run(run_dir)
        assert self._committed(run_dir) == "1"
        shown = self._output(capsys, run_dir, command)
        assert shown == self._output(capsys, run_dir, command, "--iter", "1")
        # The uncommitted iteration-2 files are there, and differ.
        assert shown != self._output(capsys, run_dir, command, "--iter", "2")


class TestSimulate:
    def test_small_ablation_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "abl"
        code = main([
            "simulate",
            "--seeds", "1",
            "--communities", "2",
            "--cores", "1",
            "--concepts", "2",
            "--max-iter", "4",
            "--out", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds: 1" in out
        assert (out_dir / "ablation.csv").exists()
        assert (out_dir / "ablation.json").exists()

    @pytest.mark.parametrize("flags, message", [
        ("--seeds 0", "--seeds must be >= 1"),
        ("--seeds -2", "--seeds must be >= 1"),
        ("--communities 0", "at least one community"),
        ("--cores 0", "at least one community"),
        ("--concepts -1", "at least one community"),
        ("--communities 30", "world too large: 180 names"),
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "abl"
        assert main(["simulate", *flags.split(), "--out", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()
