"""Outline wire format: parsing, rendering, and citation-preserving revision."""

from __future__ import annotations

import copy
import random
import string

import pytest

from dualgraph.outline import (
    OutlineError,
    OutlineGraph,
    OutlineNode,
    OutlineParseError,
    OutlineValidationError,
    apply_revision,
    parse_outline,
    render_outline,
)
from dualgraph.providers.mock import HashEmbeddingProvider

from .builders import bank_with, mutate_outline, random_outline

SAMPLE = """\
Grid storage and renewables
1. Background
a. Why storage matters <citation>id_1</citation>
b. Scope of the question
1.1 Technology families
a. Lithium-ion economics <citation>id_2, id_3</citation>
1.2 Policy levers
2. Findings <citation>id_4</citation>
"""


def _embed():
    return HashEmbeddingProvider(dim=16, seed=0).embed


class TestParsing:
    def test_sample_structure(self):
        og = parse_outline(SAMPLE)
        assert og.title == "Grid storage and renewables"
        assert [s.number for s in og.sections] == ["1", "2"]
        background = og.sections[0]
        assert [c.number for c in background.children] == ["a", "b", "1.1", "1.2"]
        assert background.children[0].citations == {1}
        assert og.find("1.1").children[0].citations == {2, 3}
        assert og.all_citations() == {1, 2, 3, 4}

    def test_cosmetic_tolerance(self):
        text = "Title\n\n  1.  Alpha\n1.1. Beta\n  a. point\n"
        og = parse_outline(text)
        assert og.sections[0].title == "Alpha"
        assert og.sections[0].children[0].number == "1.1"
        assert og.find("1.1").children[0].title == "point"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   \n\n",
            "1. Heading first\n",
            "Title <citation>id_1</citation>\n1. A\n",
            "Title\na. point before heading\n",
            "Title\n1. A\nb. wrong letter\n",
            "Title\n2. skipped first\n",
            "Title\n1. A\n1.2 skipped sibling\n",
            "Title\n1. A\n2.1 orphan subsection\n",
            "Title\n1. A\n1.1.1.1 too deep\n",
            "Title\n1.\n",
            "Title\n1. A\n0. zero component\n",
            "Title\n1. A\n?? noise line\n",
            "Title\n1. A <citation>id_x</citation>\n",
            "Title\n1. A <citation>id_0</citation>\n",
            "Title\n1. A <citation>id_01</citation>\n",
            "Title\n1. A <citation>id_1,,id_2</citation>\n",
            "Title <citation>id_x</citation>\n1. A\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(OutlineParseError):
            parse_outline(text)

    def test_bad_citation_token_names_its_line_and_token(self):
        text = "Title\n1. A <citation>id_1</citation>\na. B <citation>id_x1</citation>\n"
        with pytest.raises(OutlineParseError, match=r"^line 3: not a citation token: 'id_x1'$"):
            parse_outline(text)

    @pytest.mark.parametrize(
        "title",
        [
            "5G rollout in rural areas",
            "3D printing in construction",
            "2024 grid storage outlook",
            "1.5 degrees of warming",
        ],
    )
    def test_title_may_begin_with_a_digit(self, title):
        og = parse_outline(f"{title}\n1. A\n")
        assert og.title == title
        assert [s.number for s in og.sections] == ["1"]
        assert render_outline(parse_outline(render_outline(og))) == render_outline(og)

    def test_node_kind_properties(self):
        og = parse_outline(SAMPLE)
        point = og.sections[0].children[0]
        assert point.is_content_point
        assert og.find("1.1").depth == 2
        assert og.find("1.1") is og.sections[0].children[2]
        assert og.find("9.9") is None


class TestRendering:
    def test_round_trip_is_identity_on_canonical_text(self):
        og = parse_outline(SAMPLE)
        rendered = render_outline(og)
        assert parse_outline(rendered).all_citations() == og.all_citations()
        assert render_outline(parse_outline(rendered)) == rendered

    def test_citations_sorted_and_strippable(self):
        og = OutlineGraph(title="T")
        og.sections.append(OutlineNode(number="1", title="A", citations={9, 2}))
        text = render_outline(og)
        assert "<citation>id_2, id_9</citation>" in text

    @pytest.mark.parametrize("seed", range(25))
    def test_random_outline_round_trip(self, seed):
        og = random_outline(random.Random(seed), bank_size=6)
        rendered = render_outline(og)
        assert render_outline(parse_outline(rendered)) == rendered


class TestRevision:
    def test_clean_revision_passes_through(self):
        bank = bank_with(4)
        old = parse_outline(SAMPLE)
        new = apply_revision(old, SAMPLE, bank, _embed())
        assert render_outline(new) == render_outline(old)

    def test_dropped_citation_reattaches_to_most_similar_title(self):
        bank = bank_with(4)
        old = parse_outline(SAMPLE)
        revised = (
            "Grid storage and renewables\n"
            "1. Background\n"
            "a. Why storage matters\n"  # id_1 dropped here
            "1.1 Technology families\n"
            "2. Findings <citation>id_4</citation>\n"
        )
        new = apply_revision(old, revised, bank, _embed())
        assert new.all_citations() == {1, 2, 3, 4}
        # The former host title survives verbatim, so the id returns to it.
        host = [n for n in new.walk() if n.title == "Why storage matters"][0]
        assert 1 in host.citations

    def test_unknown_citation_rejected(self):
        bank = bank_with(2)
        old = parse_outline("T\n1. A\n")
        with pytest.raises(OutlineValidationError):
            apply_revision(old, "T\n1. A <citation>id_9</citation>\n", bank, _embed())

    def test_title_only_revision_with_live_citations_rejected(self):
        bank = bank_with(1)
        old = parse_outline("T\n1. A <citation>id_1</citation>\n")
        with pytest.raises(OutlineValidationError):
            apply_revision(old, "Bare title\n", bank, _embed())

    @pytest.mark.parametrize("seed", range(30))
    def test_mutated_revisions_keep_citation_superset(self, seed):
        gen = random.Random(seed)
        bank = bank_with(8)
        old = random_outline(gen, bank_size=8)
        revised = mutate_outline(copy.deepcopy(old), gen, bank_size=8)
        new = apply_revision(old, render_outline(revised), bank, _embed())
        assert new.all_citations() >= old.all_citations()


def _corrupt(text: str, gen: random.Random) -> str:
    """One random edit, biased towards the citation markers and their tokens."""
    i = gen.randrange(len(text) + 1)
    op = gen.choice(("insert", "delete", "truncate", "token", "marker", "unicode"))
    if op == "insert":
        return text[:i] + gen.choice(string.printable + ",_<>/") + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    if op == "truncate":
        return text[:i]
    if op == "token":
        starts = [n for n in range(len(text)) if text.startswith("id_", n)] or [i]
        j = gen.choice(starts) + gen.randint(0, 4)
        return text[:j] + gen.choice(("x", "0", ",", "", " ", "id_", "-1")) + text[j + 1:]
    if op == "marker":
        return text.replace(gen.choice(("<citation>", "</citation>", ", ")), gen.choice(
            ("", "<citation>", "</citation>", ",,", ", id_")), 1)
    return text[:i] + "\u2603\x00\x1b" + text[i:]


def test_parser_total_under_corruption_of_a_cited_outline():
    gen = random.Random(20240601)
    parsed = 0
    for _ in range(10_000):
        text = SAMPLE
        for _ in range(gen.randint(1, 3)):
            text = _corrupt(text, gen)
        try:
            parse_outline(text)
            parsed += 1
        except OutlineError:
            pass
        # Anything else is a crash and fails the test by propagating.
    assert 0 < parsed < 10_000
