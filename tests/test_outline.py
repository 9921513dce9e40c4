"""Outline wire format: parsing, rendering, and citation-preserving revision."""

from __future__ import annotations

import copy
import random
import re
import string
import zlib

import pytest

from dualgraph import orchestrator
from dualgraph.ids import MAX_DIGITS
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
from dualgraph.orchestrator import RunConfig, Runner
from dualgraph.providers.mock import HashEmbeddingProvider, load_fixture
from dualgraph.rundir import RunDir

from .builders import (
    DEMO_FIXTURE, INT_LIMITS, LONG_NUMBER, bank_with, crash_demo_run, int_max_str_digits,
    mutate_outline, random_outline,
)
from .oracles import ref_parse_outline, ref_render_outline

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

    def test_splitlines_separators_end_a_line(self):
        for sep in ("\u2028", "\x85", "\r\n", "\r"):
            og = parse_outline(f"T\n1. A{sep}a. B\n")
            assert [(c.number, c.title) for c in og.sections[0].children] == [("a", "B")]

    def test_leading_zeros_are_read_as_values(self):
        og = parse_outline("T\n1. A\n1.01 B\n")
        assert og.sections[0].children[0].number == "1.1"

    def test_non_ascii_decimal_digit_is_read_as_its_value(self):
        og = parse_outline("T\n\u0661. A\n")  # Arabic-Indic one
        assert [(s.number, s.title) for s in og.sections] == [("1", "A")]

    def test_digit_that_is_not_decimal_starts_no_line_kind(self):
        assert "\u00b2".isdigit() and not re.match(r"\d", "\u00b2")
        with pytest.raises(
            OutlineParseError, match=r"^line 3: not a heading or content point: '\u00b2\. B'$"
        ):
            parse_outline("T\n1. A\n\u00b2. B\n")

    @pytest.mark.parametrize(
        "text",
        [
            "T\n1. A <citation>id_1</citation> and more\n",
            "T\n1. A <citation>id_1</citation> <citation>id_2</citation>\n",
            "T\n1. A </citation> B <citation>id_1</citation>\n",
            "T\n1. A <citation>id_1\n",
            "T\n1. A </citation>\n",
            "T <citation>id_1</citation> and more\n1. A\n",
            "T </citation>\n1. A\n",
        ],
    )
    def test_citation_tag_outside_the_suffix_rejected(self, text):
        with pytest.raises(OutlineParseError, match=r"citation tag outside the line's one trailing"):
            parse_outline(text)

    def test_27th_content_point_names_the_cap(self):
        points = "".join(f"{letter}. p\n" for letter in string.ascii_lowercase)
        with pytest.raises(
            OutlineParseError,
            match=r"^line 29: a heading holds at most 26 content points \(a-z\)$",
        ):
            parse_outline(f"T\n1. A\n{points}a. one too many\n")
        assert len(parse_outline(f"T\n1. A\n{points}").sections[0].children) == 26


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
        # The repaired outline is what a checkpoint writes and a resume reads.
        rendered = render_outline(new)
        assert render_outline(parse_outline(rendered)) == rendered

    def test_title_with_a_tag_is_re_asked_not_repaired_into_bad_text(self):
        bank = bank_with(5)
        old = parse_outline("T\n1. A <citation>id_5</citation>\n")
        revised = "T\n1. A <citation>id_1</citation> and more\n"
        with pytest.raises(OutlineParseError, match=r"^line 2: citation tag outside"):
            apply_revision(old, revised, bank, _embed())


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


# -- differential test against the reference codec ------------------------


def _outcome(parse, render, text):
    """A codec's answer for ``text``: tree and bytes, or exception class and message."""
    try:
        og = parse(text)
    except Exception as exc:  # any class: it must be the reference's
        return type(exc), str(exc)
    return og, render(og)


def _renumbered(text: str, fix) -> str:
    """``text`` with ``fix`` applied to the number of every numbered or lettered line."""
    lines = text.split("\n")
    for i, line in enumerate(lines[1:], start=1):
        number, sep, rest = line.partition(" ")
        if sep:
            lines[i] = fix(number) + rest
    return "\n".join(lines)


def _cosmetic_variants(text: str) -> list[str]:
    lines = text.splitlines()
    return [
        "\n".join(" " * (i % 3) + "\t" * (i % 2) + ln for i, ln in enumerate(lines)),
        "\n\n".join(lines) + "\n \n",
        "\r\n".join(lines) + "\r\n",
        _renumbered(text, lambda n: n),  # no space after the number
        _renumbered(text, lambda n: (n if n.endswith(".") else n + ".") + " "),
        _renumbered(text, lambda n: ".".join("0" + c if c.isdigit() else c for c in n.split(".")) + " "),
    ]


EDGE_CASES = [
    "T\n1. A\u2028a. B\u0085b. C\n",
    "T\n1. A\n1.01 B\n",
    "T\n\u0661. A\n\u0661.\u0661 B\n",
    "T\n1. A\n\u00b2. B\n",
    "T\n1. A\n" + "".join(f"{c}. p\n" for c in string.ascii_lowercase * 2),
    "T\n" + "".join(f"{i}. S\n{i}.1 U <citation>id_{i}</citation>\n" for i in range(1, 13)),
    "T\n1. A\n<citation>id_1</citation>\n",  # only a tag: the body is empty
    "T\n1. A\na. <citation>id_1</citation>\n",
    "T\n1. A <citation>id_1</citation> <citation>id_2</citation>\n",
    "T\n1. A <citation>id_1</citation><citation>id_x</citation>\n",
    "T\n1. A <citation></citation>\n",
    "T\n1. A <citation>  </citation>\n",
    "T\n1. A <citation>id_0</citation>\n",
    "T\n1. A <citation>id_1, id_0</citation>\n",
    "T\n1. A <citation>id_1, id_02</citation>\n",
    "T\n1. A <citation>id_1,id_2</citation>\n",
    "T\n1. A <citation>id_1 ,id_2 , id_3</citation>\n",
    "T\n1. A <citation> id_1,  id_2 </citation>\n",
    "T\n1. A <citation>id_1,,id_2</citation>\n",
    "T\n1. A <citation>id_1, </citation>\n",
    "T\n1. A <citation>id_</citation>\n",
    "T\n1. A\n1.1 B\n1.1.1 C\n1.1.1.1 D\n",
    "T\n1. A\n1.1 B\n1.1.1 C\n1.1.1.1. D\n",
    "T\n2. A\n",
    "T\n1. A\n1.2 B\n",
    "T\n1. A\n1.1 B\n1.1.2 C\n",
    "T\n1. A\n3. B\n",
    "T\n1. A\n2.1 B\n",
    "T\n1. A\nb. B\n",
    "T\n1. A\na. B\nc. C\n",
    "T\n1. A\na. B\n1.1 C\nb. D\n",
    "1. Title\n2. A\n",
    "1 Title\n",
    "1.Title\n",
    "01. Title\n1. A\n",
    "1.5 degrees\n1. A\n",
    "T\n1. A\n1.1\n",
    "T\n1. A\na.\n",
    "T\na.\n",
    "T\n1. A\n0.1 B\n",
    "T\n1. A\n1..1 B\n",
    "T\n1. A\n1.1.. B\n",
    # Numbers at and just past ids.MAX_DIGITS, for both citation paths.
    "T\n1. A\n1." + "1" * MAX_DIGITS + " B\n",
    "T\n1. A <citation>id_" + "7" * MAX_DIGITS + "</citation>\n",
    "T\n1. A <citation>id_1, id_" + "7" * (MAX_DIGITS - 11) + "</citation>\n",
    "T\n1. A <citation>id_" + "7" * (MAX_DIGITS - 3) + "</citation>\n",
    "T\n1. A <citation>id_" + "7" * (MAX_DIGITS + 1) + "</citation>\n",
]

# A heading component or citation id longer than int() reads at CPython's
# default limit, on the canonical-payload path and the general one.
LONG_NUMBERS = {
    "heading-component": "T\n1. A\n1." + LONG_NUMBER + " B\n",
    "section-number": "T\n1. A\n" + LONG_NUMBER + ". B\n",
    "citation-id": "T\n1. A <citation>id_" + LONG_NUMBER + "</citation>\n",
    "second-citation-id": "T\n1. A <citation>id_1, id_" + LONG_NUMBER + "</citation>\n",
    "citation-id-then-space": "T\n1. A <citation>id_" + LONG_NUMBER + " </citation>\n",
    "unspaced-citation-ids": "T\n1. A\na. B <citation>id_1,id_" + LONG_NUMBER + "</citation>\n",
}
EDGE_CASES += LONG_NUMBERS.values()


@pytest.mark.parametrize("text", LONG_NUMBERS.values(), ids=LONG_NUMBERS)
def test_a_number_past_max_digits_is_a_parse_error_on_every_interpreter(text):
    for limit in INT_LIMITS:
        with int_max_str_digits(limit):
            want = _outcome(ref_parse_outline, ref_render_outline, text)
            assert want[0] is OutlineParseError
            assert _outcome(parse_outline, render_outline, text) == want


def test_codec_matches_reference():
    gen = random.Random(20261020)
    texts = list(EDGE_CASES)
    for _ in range(60):
        og = random_outline(gen, bank_size=9)
        if gen.random() < 0.5:
            og = mutate_outline(og, gen, bank_size=9)
        canonical = render_outline(og)
        variants = _cosmetic_variants(canonical)
        for variant in variants:
            assert parse_outline(variant) == parse_outline(canonical)
        texts += [canonical, *variants]
    for _ in range(300):
        text = SAMPLE
        for _ in range(gen.randint(1, 3)):
            text = _corrupt(text, gen)
        texts.append(text)
    for text in texts:
        want = _outcome(ref_parse_outline, ref_render_outline, text)
        assert _outcome(parse_outline, render_outline, text) == want, text


# -- revision chains: parses that reuse the lines of the outline they revise --


def _reformatted(text: str, salt: int) -> str:
    """``text`` with each body line in a form the parser normalises, chosen from
    the line and ``salt`` so that a line repeated in a later revision keeps it:
    leading zeros, no space after the number, unspaced citation ids, CRLF and
    U+2028 line ends, or the canonical form."""
    lines = text.splitlines()
    out = [lines[0], "\n"]
    for line in lines[1:]:
        form = (zlib.crc32(line.encode("utf-8")) + salt) % 6
        number, _, rest = line.partition(" ")
        if form == 1:
            zeros = ".".join("0" + c if c.isdigit() else c for c in number.split("."))
            line = f"{zeros} {rest}"
        elif form == 2:
            line = number + rest
        elif form == 3:
            line = line.replace(", id_", ",id_")
        out += [line, "\r\n" if form == 4 else "\u2028" if form == 5 else "\n"]
    return "".join(out)


def _edit(og: OutlineGraph, gen: random.Random) -> None:
    """One edit in place: a node's title, number or citations, or a node built by hand."""
    node = gen.choice(list(og.walk()))
    op = gen.choice(("title", "number", "cite", "uncite", "hand"))
    if op == "title":
        node.title += " revised"
    elif op == "number":
        node.number = "z" if node.is_content_point else node.number + ".9"
    elif op == "cite":
        node.citations.add(gen.randint(1, 9))
    elif op == "uncite":
        node.citations.discard(min(node.citations, default=0))
    else:
        node.children.append(OutlineNode(number="a", title="by hand", citations={3, 1}))


def test_revision_chains_match_reference():
    gen = random.Random(20261022)
    bank, embed = bank_with(9), _embed()
    outcomes, reused, reused_noncanonical = set(), 0, 0
    for _ in range(40):
        salt = gen.randrange(6) if gen.random() < 0.5 else 0
        previous = parse_outline(_reformatted(render_outline(random_outline(gen, 9)), salt))
        for _ in range(6):
            tree = mutate_outline(copy.deepcopy(previous), gen, bank_size=9)
            text = _reformatted(ref_render_outline(tree), salt)
            if gen.random() < 0.15:
                text = _corrupt(text, gen)
            kept = copy.deepcopy(previous), render_outline(previous)
            want = _outcome(ref_parse_outline, ref_render_outline, text)
            assert _outcome(lambda t: parse_outline(t, previous), render_outline, text) == want
            assert (previous, render_outline(previous)) == kept
            if isinstance(want[0], type):
                outcomes.add("error")
                continue
            lines = [ln.strip() for ln in text.splitlines()[1:] if ln.strip()]
            reused += sum(ln in previous._lines for ln in lines)
            reused_noncanonical += sum(
                ln in previous._lines and previous._lines[ln][4] is None for ln in lines
            )
            step = gen.choice(("parse", "repair", "edit"))
            outcomes.add(step)
            if step == "repair":
                new = apply_revision(previous, text, bank, embed)
                assert (previous, render_outline(previous)) == kept
            else:
                new = parse_outline(text, previous)
                if step == "edit":
                    for _ in range(gen.randint(1, 3)):
                        _edit(new, gen)
            assert render_outline(new) == ref_render_outline(new)
            # No node or citation set of the new outline is one of the old's.
            assert not {id(n) for n in new.walk()} & {id(n) for n in previous.walk()}
            assert not {id(n.citations) for n in new.walk()} & {
                id(n.citations) for n in previous.walk()
            }
            previous = new
    assert outcomes == {"error", "parse", "repair", "edit"}
    assert reused > 1000 and reused_noncanonical > 50


def test_a_repaired_citation_is_written_by_the_formatter():
    bank = bank_with(4)
    old = parse_outline(SAMPLE)
    revised = SAMPLE.replace("a. Why storage matters <citation>id_1</citation>", "a. Why storage matters")
    new = apply_revision(old, revised, bank, _embed())
    assert "a. Why storage matters <citation>id_1</citation>\n" in render_outline(new)
    assert render_outline(new) == ref_render_outline(new) == SAMPLE


# (position, line): a malformed line put after that many lines of SAMPLE, which
# the parse reuses from an outline parsed from SAMPLE.
MALFORMED_AFTER_REUSED = {
    "noise": (4, "?? noise line"),
    "bad-token": (4, "1.1 Technology families <citation>id_x</citation>"),
    "reused-point-out-of-order": (4, "b. Scope of the question"),
    "reused-point-before-a-heading": (1, "a. Why storage matters <citation>id_1</citation>"),
    "reused-heading-as-sibling": (6, "1.1 Technology families"),
    "empty-point": (4, "a."),
    "too-deep": (4, "1.1.1.1 Deep"),
    "skipped-section": (4, "3. Skipped"),
}


@pytest.mark.parametrize(
    "position, line", MALFORMED_AFTER_REUSED.values(), ids=MALFORMED_AFTER_REUSED
)
def test_a_malformed_line_after_reused_lines_keeps_its_message(position, line):
    previous = parse_outline(SAMPLE)
    lines = SAMPLE.splitlines()
    text = "\n".join([*lines[:position], line, *lines[position:]]) + "\n"
    got = _outcome(lambda t: parse_outline(t, previous), render_outline, text)
    assert got == _outcome(parse_outline, render_outline, text)
    assert got == _outcome(ref_parse_outline, ref_render_outline, text)
    assert got[0] is OutlineParseError and got[1].startswith(f"line {position + 1}: ")


def test_a_reused_body_line_as_the_title_is_checked_as_a_title():
    previous = parse_outline(SAMPLE)
    text = SAMPLE.split("\n", 1)[1]
    got = _outcome(lambda t: parse_outline(t, previous), render_outline, text)
    assert got == _outcome(ref_parse_outline, ref_render_outline, text)
    assert got[1] == "first line looks like a heading, not a title: '1. Background'"


def test_an_outline_loaded_on_resume_is_the_previous_of_the_first_revision(
    tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    crash_demo_run(run_dir)
    calls = []
    revise = orchestrator.apply_revision

    def spy(og_old, text, bank, embed):
        calls.append((og_old, text))
        return revise(og_old, text, bank, embed)

    monkeypatch.setattr(orchestrator, "apply_revision", spy)
    fixture = load_fixture(DEMO_FIXTURE)
    Runner(RunConfig.from_dict(fixture.config), fixture.providers(), run_dir).resume()
    og_old, text = calls[0]
    loaded = (run_dir / "outline_iter1.txt").read_text(encoding="utf-8")
    assert render_outline(og_old) == loaded
    assert set(og_old._lines) == set(loaded.splitlines()[1:])
    assert set(og_old._lines) & {ln.strip() for ln in text.splitlines()}
    want = _outcome(ref_parse_outline, ref_render_outline, text)
    assert _outcome(lambda t: parse_outline(t, og_old), render_outline, text) == want
    assert RunDir(run_dir).read_iteration("outline", 2) == want[1]
