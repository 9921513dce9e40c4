"""Evidence bank: URL canonicalization, id discipline, serialization."""

from __future__ import annotations

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgraph.evidence import (
    EvidenceBank,
    EvidenceError,
    EvidenceNotFoundError,
    EvidenceUnit,
    citation_token,
    normalize_url,
    parse_citation_token,
)


class TestNormalizeUrl:
    def test_scheme_and_host_lowercased(self):
        assert normalize_url("HTTPS://Example.COM/Path") == "https://example.com/Path"

    def test_trailing_slash_stripped_once(self):
        assert normalize_url("https://a.test/x/") == "https://a.test/x"
        assert normalize_url("https://a.test/x//") == "https://a.test/x/"

    def test_fragment_dropped_query_kept(self):
        url = "https://a.test/x?q=1&r=2#frag"
        assert normalize_url(url) == "https://a.test/x?q=1&r=2"

    def test_surrounding_whitespace_stripped(self):
        assert normalize_url("  https://a.test/x \n") == "https://a.test/x"

    def test_empty_rejected(self):
        with pytest.raises(EvidenceError):
            normalize_url("   ")


class TestCitationTokens:
    def test_round_trip(self):
        assert parse_citation_token(citation_token(7)) == 7

    def test_format(self):
        assert citation_token(12) == "id_12"

    def test_zero_rejected(self):
        with pytest.raises(EvidenceError):
            citation_token(0)

    @pytest.mark.parametrize("bad", ["id_", "id_0", "idx_3", "3", "id_3x"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(EvidenceError):
            parse_citation_token(bad)


class TestEvidenceUnit:
    def test_validation(self):
        with pytest.raises(EvidenceError):
            EvidenceUnit(0, "https://a.test", "t", "q", "s", "c", 0)
        with pytest.raises(EvidenceError):
            EvidenceUnit(1, "", "t", "q", "s", "c", 0)
        with pytest.raises(EvidenceError):
            EvidenceUnit(1, "https://a.test", "t", "", "s", "c", 0)
        with pytest.raises(EvidenceError):
            EvidenceUnit(1, "https://a.test", "t", "q", "s", "c", -1)

    def test_dict_round_trip(self):
        unit = EvidenceUnit(3, "https://a.test/x", "title", "query", "sum", "body", 2)
        assert EvidenceUnit.from_dict(unit.to_dict()) == unit


class TestEvidenceBank:
    def _add(self, bank: EvidenceBank, url: str, iteration: int = 0) -> int | None:
        return bank.add(url, "t", "q", "s", "c", iteration)

    def test_ids_sequential_from_one(self):
        bank = EvidenceBank()
        ids = [self._add(bank, f"https://a.test/{i}") for i in range(4)]
        assert ids == [1, 2, 3, 4]
        assert [u.evidence_id for u in bank.units] == [1, 2, 3, 4]

    def test_url_dedup_uses_canonical_form(self):
        bank = EvidenceBank()
        assert self._add(bank, "https://A.test/x/") == 1
        assert self._add(bank, "https://a.test/x") is None
        assert self._add(bank, "https://a.test/x#other") is None
        assert len(bank) == 1
        assert bank.has_url("HTTPS://a.test/x/")

    def test_get_unknown_raises(self):
        bank = EvidenceBank()
        with pytest.raises(EvidenceNotFoundError):
            bank.get(1)

    @pytest.mark.parametrize("evidence_id", [0, -1, -2, 3])
    def test_ids_outside_the_bank_are_absent(self, evidence_id):
        bank = EvidenceBank()
        self._add(bank, "https://a.test/1")
        self._add(bank, "https://a.test/2")
        assert evidence_id not in bank
        with pytest.raises(EvidenceNotFoundError):
            bank.get(evidence_id)
        assert [i in bank for i in (1, 2)] == [True, True]
        assert [bank.get(i).url for i in (1, 2)] == ["https://a.test/1", "https://a.test/2"]

    def test_copy_grows_apart_and_shares_units(self):
        bank = EvidenceBank()
        self._add(bank, "https://a.test/1")
        copy = bank.copy()
        assert copy.get(1) is bank.get(1)
        assert self._add(copy, "https://a.test/2") == 2
        assert (len(bank), bank.has_url("https://a.test/2"), 2 in bank) == (1, False, False)
        assert self._add(bank, "https://a.test/2") == 2

    def test_empty_query_rejected(self):
        bank = EvidenceBank()
        with pytest.raises(EvidenceError):
            bank.add("https://a.test", "t", "  ", "s", "c", 0)

    def test_document_round_trip_preserves_units(self):
        bank = EvidenceBank()
        self._add(bank, "https://a.test/1")
        self._add(bank, "https://a.test/2", iteration=3)
        loaded = EvidenceBank.from_dicts(json.loads(bank.to_document())["units"])
        assert [u.evidence_id for u in loaded.units] == [1, 2]
        assert [loaded.get(i) for i in (1, 2)] == [bank.get(i) for i in (1, 2)]
        # Dedup memory survives the round trip too.
        assert loaded.add("https://a.test/1/", "t", "q", "s", "c", 0) is None


_PATH = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)


@settings(max_examples=80)
@given(paths=st.lists(_PATH, min_size=1, max_size=20))
def test_bank_ids_dense_regardless_of_duplicates(paths):
    bank = EvidenceBank()
    for p in paths:
        bank.add(f"https://h.test/{p}", "t", "q", "s", "c", 0)
    assert [u.evidence_id for u in bank.units] == list(range(1, len(bank) + 1))
    assert len(bank) == len({normalize_url(f"https://h.test/{p}") for p in paths})
