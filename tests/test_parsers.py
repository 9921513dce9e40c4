"""Response parsers: valid payloads, contract violations, totality."""

from __future__ import annotations

import json
import random
import string
import zlib

import pytest

from dualgraph.providers.parsers import (
    SCORE_DIMENSIONS,
    BudgetExceeded,
    DanglingReference,
    MalformedOutputError,
    ParseError,
    SchemaViolation,
    TemplateError,
    load_template,
    parse_chain_selection,
    parse_extraction,
    parse_index_selection,
    parse_merge,
    parse_page_assessment,
    parse_query_lines,
    parse_scores,
    render,
    render_template,
    strip_code_fences,
)

from .test_acceptance import _SELECTION_SEED, _corrupt

EXTRACTION_DOC = {
    "new_nodes": [
        {"id": "n3", "node_name": "flywheel", "is_core_entity": True},
        {"id": "n4", "node_name": "inertia", "is_core_entity": False},
    ],
    "new_edges": [
        {"id": "e2", "source_id": "n3", "target_id": "n4", "relation_name": "provides"},
        {"id": "e3", "source_id": "n1", "target_id": "n3", "relation_name": "competes"},
    ],
    "evidences_map": {"EN1": ["e2"], "EN2": ["e2", "e3"]},
}

CONTEXT = {"existing_node_ids": {"n1", "n2"}, "existing_edge_ids": {"e1"}}


class TestStripCodeFences:
    def test_plain_passthrough(self):
        assert strip_code_fences("  {\"a\": 1} \n") == '{"a": 1}'

    def test_fenced_payload_unwrapped(self):
        assert strip_code_fences('```json\n{"a": 1}\n```') == '{"a": 1}'
        assert strip_code_fences('```\n[1]\n```') == "[1]"

    def test_inner_fences_left_alone(self):
        text = 'prefix ```json\n{"a": 1}\n```'
        assert strip_code_fences(text) == text


class TestTemplates:
    def test_placeholder_substitution(self):
        assert render_template("q: ${QUERY}!", {"QUERY": "x"}) == "q: x!"

    def test_unresolved_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            render_template("${A} ${B}", {"A": "1"})

    def test_unknown_template_rejected(self):
        with pytest.raises((TemplateError, FileNotFoundError)):
            load_template("no_such_template")

    def test_bundled_templates_render(self):
        text = render("create_outline", {"ROOT_QUERY": "sample question"})
        assert "sample question" in text
        assert "${" not in text


class TestParseExtraction:
    def test_valid_document(self):
        result = parse_extraction(json.dumps(EXTRACTION_DOC), **CONTEXT)
        assert [n.node_id for n in result.new_nodes] == ["n3", "n4"]
        assert result.new_edges[0].relation == "provides"
        assert result.evidences_map == {"EN1": ["e2"], "EN2": ["e2", "e3"]}

    def test_fenced_document(self):
        text = f"```json\n{json.dumps(EXTRACTION_DOC)}\n```"
        assert parse_extraction(text, **CONTEXT).new_nodes[0].name == "flywheel"

    def test_out_of_sequence_fresh_ids_parse(self):
        text = json.dumps(EXTRACTION_DOC).replace('"n3"', '"n5"').replace('"e2"', '"e9"')
        result = parse_extraction(text, **CONTEXT)
        assert [n.node_id for n in result.new_nodes] == ["n5", "n4"]
        assert [e.edge_id for e in result.new_edges] == ["e9", "e3"]
        assert result.evidences_map == {"EN1": ["e9"], "EN2": ["e9", "e3"]}

    def test_restating_existing_id_tolerated(self):
        doc = {
            "new_nodes": [{"id": "n1", "node_name": "known", "is_core_entity": True}],
            "new_edges": [],
            "evidences_map": {},
        }
        result = parse_extraction(json.dumps(doc), **CONTEXT)
        assert result.new_nodes[0].node_id == "n1"

    def test_without_context_sequences_are_not_checked(self):
        doc = json.loads(json.dumps(EXTRACTION_DOC))
        doc["new_nodes"][0]["id"] = "n9"
        doc["new_edges"] = []
        doc["evidences_map"] = {}
        assert parse_extraction(json.dumps(doc)).new_nodes[0].node_id == "n9"

    def test_dangling_edge_endpoint_rejected(self):
        doc = json.loads(json.dumps(EXTRACTION_DOC))
        doc["new_edges"][1]["source_id"] = "n99"
        with pytest.raises(DanglingReference):
            parse_extraction(json.dumps(doc), **CONTEXT)

    def test_dangling_evidence_edge_rejected(self):
        doc = json.loads(json.dumps(EXTRACTION_DOC))
        doc["evidences_map"]["EN1"] = ["e9"]
        with pytest.raises(DanglingReference):
            parse_extraction(json.dumps(doc), **CONTEXT)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("new_nodes"),
            lambda d: d.update(extra=1),
            lambda d: d["new_nodes"].append(d["new_nodes"][0]),
            lambda d: d["new_nodes"][0].update(id="node3"),
            lambda d: d["new_nodes"][0].update(is_core_entity="yes"),
            lambda d: d["new_edges"][0].update(id="edge2"),
            lambda d: d.update(evidences_map={"EN_1": []}),
            lambda d: d.update(evidences_map={"EN1": "e2"}),
            lambda d: d.update(new_nodes={"id": "n3"}),
        ],
    )
    def test_schema_violations_rejected(self, mutate):
        doc = json.loads(json.dumps(EXTRACTION_DOC))
        mutate(doc)
        with pytest.raises(SchemaViolation):
            parse_extraction(json.dumps(doc), **CONTEXT)

    def test_non_json_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_extraction("not json at all", **CONTEXT)


class TestParseMerge:
    def _doc(self, **overrides):
        cluster = {
            "cluster_id": "c1",
            "representative_concept": "storage cost",
            "source_node_ids": ["n2", "n3"],
            "similarity_justification": "same notion",
        }
        cluster.update(overrides)
        return json.dumps({"clusters": [cluster]})

    def test_valid_document(self):
        clusters = parse_merge(self._doc())
        assert clusters[0].representative_concept == "storage cost"
        assert clusters[0].source_node_ids == ["n2", "n3"]

    def test_empty_cluster_list(self):
        assert parse_merge('{"clusters": []}') == []

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cluster_id": "x1"},
            {"source_node_ids": ["n2"]},
            {"source_node_ids": ["n1", "n2", "n3", "n4", "n5", "n6"]},
            {"source_node_ids": ["n2", "bad"]},
            {"representative_concept": ""},
        ],
    )
    def test_invalid_clusters_rejected(self, overrides):
        with pytest.raises(SchemaViolation):
            parse_merge(self._doc(**overrides))

    def test_empty_justification_tolerated(self):
        assert parse_merge(self._doc(similarity_justification=""))


class TestParseChainSelection:
    def test_valid_document(self):
        doc = '{"chains": ["chain_2", "chain_1"], "search queries": ["a b", "c d"]}'
        sel = parse_chain_selection(doc, chain_num=3)
        assert sel.chain_ids == ["chain_2", "chain_1"]
        assert sel.queries == ["a b", "c d"]

    def test_budget_enforced_on_both_lists(self):
        doc = '{"chains": ["chain_1", "chain_2"], "search queries": []}'
        with pytest.raises(BudgetExceeded):
            parse_chain_selection(doc, chain_num=1)
        doc = '{"chains": [], "search queries": ["a", "b"]}'
        with pytest.raises(BudgetExceeded):
            parse_chain_selection(doc, chain_num=1)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"chains": ["chain_0"], "search queries": []}',
            '{"chains": ["1"], "search queries": []}',
            '{"chains": ["chain_1", "chain_1"], "search queries": []}',
            '{"chains": "chain_1", "search queries": []}',
            '{"chains": []}',
        ],
    )
    def test_malformed_rejected(self, doc):
        with pytest.raises(ParseError):
            parse_chain_selection(doc, chain_num=5)

    def test_three_key_document_with_a_query_budget(self):
        doc = '{"chains": ["chain_1"], "search queries": ["a b"], "outline queries": ["c", "d"]}'
        sel = parse_chain_selection(doc, chain_num=1, query_num=2)
        assert sel.chain_ids == ["chain_1"]
        assert sel.queries == ["a b"]
        assert sel.outline_queries == ["c", "d"]
        doc = '{"chains": [], "search queries": [], "outline queries": []}'
        assert parse_chain_selection(doc, chain_num=1, query_num=0).outline_queries == []

    def test_outline_queries_over_the_budget_rejected(self):
        doc = '{"chains": [], "search queries": [], "outline queries": ["c", "d"]}'
        with pytest.raises(BudgetExceeded):
            parse_chain_selection(doc, chain_num=4, query_num=1)
        with pytest.raises(BudgetExceeded):
            parse_chain_selection(doc.replace('"c", "d"', '"c"'), chain_num=4, query_num=0)

    @pytest.mark.parametrize(
        "doc, query_num",
        [
            ('{"chains": [], "search queries": []}', 2),
            ('{"chains": [], "outline queries": []}', 2),
            ('{"chains": [], "search queries": [], "outline queries": [], "x": []}', 2),
            ('{"chains": [], "search queries": [], "outline queries": []}', None),
        ],
    )
    def test_a_missing_or_extra_key_rejected(self, doc, query_num):
        with pytest.raises(SchemaViolation):
            parse_chain_selection(doc, chain_num=4, query_num=query_num)

    @pytest.mark.parametrize("value", ['"c"', '[""]', "[1]", '["c", null]'])
    def test_outline_queries_must_be_non_empty_strings(self, value):
        doc = f'{{"chains": [], "search queries": [], "outline queries": {value}}}'
        with pytest.raises(SchemaViolation):
            parse_chain_selection(doc, chain_num=4, query_num=4)

    def test_the_acceptance_fuzz_seed_still_parses_without_a_query_budget(self):
        sel = parse_chain_selection(_SELECTION_SEED, chain_num=4)
        assert sel.chain_ids == ["chain_1", "chain_3"]
        assert sel.queries == ["alpha", "beta"]
        assert sel.outline_queries == []


class TestParseIndexSelection:
    def test_valid_and_empty(self):
        assert parse_index_selection("[2, 0]", count=3) == [2, 0]
        assert parse_index_selection("[]", count=0) == []

    @pytest.mark.parametrize(
        "doc", ["[true]", "[1.5]", "[3]", "[0, 0]", '{"a": 1}', "[-1]"]
    )
    def test_invalid_rejected(self, doc):
        with pytest.raises(SchemaViolation):
            parse_index_selection(doc, count=3)


def _assessments(*entries) -> str:
    return json.dumps(
        [{"useful": useful, "summary": summary, "salient_content": content}
         for useful, summary, content in entries]
    )


class TestParsePageAssessment:
    def test_one_assessment_per_page_in_page_order(self):
        doc = _assessments((True, "s0", ""), (False, "", ""), (True, "s2", "c2"))
        got = parse_page_assessment(doc, count=3)
        assert [(a.useful, a.summary, a.salient_content) for a in got] == [
            (True, "s0", ""), (False, "", ""), (True, "s2", "c2"),
        ]
        assert parse_page_assessment("[]", count=0) == []

    def test_useless_page_may_omit_summary(self):
        assert not parse_page_assessment(_assessments((False, "", "")), count=1)[0].useful

    @pytest.mark.parametrize("summary", ["", " "])
    def test_useful_page_requires_summary(self, summary):
        with pytest.raises(SchemaViolation, match=r"page assessment\[1\]\.summary"):
            parse_page_assessment(_assessments((True, "s", ""), (True, summary, "x")), count=2)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_wrong_count_rejected(self, count):
        doc = _assessments((True, "s0", ""), (True, "s1", ""))
        with pytest.raises(SchemaViolation, match=f"2 objects for {count} pages"):
            parse_page_assessment(doc, count=count)

    @pytest.mark.parametrize(
        "doc", ['{"useful": true, "summary": "s", "salient_content": ""}', '"s"', "null", "1"]
    )
    def test_non_array_rejected(self, doc):
        with pytest.raises(SchemaViolation, match="expected an array"):
            parse_page_assessment(doc, count=1)

    @pytest.mark.parametrize(
        "entry",
        [
            {"useful": True, "summary": "s"},
            {"useful": True, "summary": "s", "salient_content": "", "url": "u"},
            {"useful": "yes", "summary": "s", "salient_content": ""},
            {"useful": True, "summary": 1, "salient_content": ""},
            {"useful": True, "summary": "s", "salient_content": None},
            ["useful", "summary", "salient_content"],
        ],
    )
    def test_each_object_needs_exactly_the_three_fields(self, entry):
        doc = json.dumps([{"useful": False, "summary": "", "salient_content": ""}, entry])
        with pytest.raises(SchemaViolation, match=r"page assessment\[1\]"):
            parse_page_assessment(doc, count=2)

    def test_malformed_json_rejected(self):
        with pytest.raises(MalformedOutputError):
            parse_page_assessment('[{"useful": true', count=1)


class TestParseScores:
    def _doc(self, **overrides):
        scores = {dim: 80 for dim in SCORE_DIMENSIONS}
        scores.update(overrides)
        return json.dumps(scores)

    def test_valid_document(self):
        scores = parse_scores(self._doc(support=33.5))
        assert scores["support"] == 33.5
        assert set(scores) == set(SCORE_DIMENSIONS)

    @pytest.mark.parametrize(
        "overrides", [{"support": 101}, {"support": -1}, {"support": True}, {"support": "80"}]
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(SchemaViolation):
            parse_scores(self._doc(**overrides))

    def test_missing_dimension_rejected(self):
        doc = {dim: 80 for dim in SCORE_DIMENSIONS[:-1]}
        with pytest.raises(SchemaViolation):
            parse_scores(json.dumps(doc))


class TestParseQueryLines:
    def test_blank_lines_ignored(self):
        assert parse_query_lines("a\n\n  b  \n", budget=5) == ["a", "b"]

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            parse_query_lines("a\nb\nc", budget=2)

    def test_fenced_list(self):
        assert parse_query_lines("```\nq one\n```", budget=1) == ["q one"]


def _mutate(text: str, gen: random.Random) -> str:
    """One random structural or textual corruption."""
    ops = ("truncate", "insert", "delete", "swap", "retype", "fence", "unicode")
    op = gen.choice(ops)
    if not text:
        return gen.choice(('{"a"', "", "[", "null"))
    if op == "truncate":
        return text[: gen.randrange(len(text))]
    if op == "insert":
        i = gen.randrange(len(text) + 1)
        return text[:i] + gen.choice('{}[]",:') + text[i:]
    if op == "delete":
        i = gen.randrange(len(text))
        return text[:i] + text[i + 1:]
    if op == "swap":
        i = gen.randrange(len(text))
        return text[:i] + gen.choice(string.printable) + text[i + 1:]
    if op == "retype":
        return text.replace('"', "'", gen.randint(1, 3))
    if op == "fence":
        return f"```json\n{text}\n```"
    return text[: len(text) // 2] + "\u2603\x00" + text[len(text) // 2:]


@pytest.mark.parametrize("parser_case", ["extraction", "merge", "selection", "assessment"])
def test_parsers_total_under_mutation(parser_case):
    gen = random.Random(zlib.crc32(parser_case.encode()))
    seeds = {
        "extraction": json.dumps(EXTRACTION_DOC),
        "merge": '{"clusters": [{"cluster_id": "c1", "representative_concept": "x", '
        '"source_node_ids": ["n1", "n2"], "similarity_justification": ""}]}',
        "selection": '{"chains": ["chain_1"], "search queries": ["q"]}',
        "assessment": _assessments((True, "s0", "c0"), (False, "", "")),
    }
    text = seeds[parser_case]
    for _ in range(400):
        corrupted = _mutate(text, gen)
        for rounds in range(gen.randint(0, 2)):
            corrupted = _mutate(corrupted, gen)
        try:
            if parser_case == "extraction":
                parse_extraction(corrupted, {"n1", "n2"}, {"e1"})
            elif parser_case == "merge":
                parse_merge(corrupted)
            elif parser_case == "assessment":
                parse_page_assessment(corrupted, count=2)
            else:
                parse_chain_selection(corrupted, chain_num=4)
        except ParseError:
            pass


def test_three_key_selection_total_under_mutation():
    """c09's corruptions of a three-key selection raise nothing but ParseError."""
    gen = random.Random(zlib.crc32(b"selection with outline queries"))
    seed = json.dumps({
        "chains": ["chain_1", "chain_3"],
        "search queries": ["alpha", "beta"],
        "outline queries": ["gamma", "delta"],
    })
    values = 0
    for i in range(2000):
        doc = seed
        if i % 100 != 0:
            for _ in range(gen.randint(1, 3)):
                doc = _corrupt(doc, gen)
        try:
            parse_chain_selection(doc, chain_num=4, query_num=2)
            values += 1
        except ParseError:
            pass
    assert values >= 20
