"""The one JSON reader, and the checks of the values that read documents hold.

``loads`` decodes every JSON text the program reads: model answers
(``providers.parsers``), run-directory files (``rundir``, ``kg``), a fixture
(``providers.mock``) and a ``--config`` file. An integer of more than
``ids.MAX_DIGITS`` digits or too deep a nesting is a ValueError like any other
malformed text. Each ``require_*`` check returns its value or raises a
SchemaViolation naming it; values are checked, never coerced.
"""

from __future__ import annotations

import json

from .ids import is_id, json_int

__all__ = [
    "ParseError", "SchemaViolation", "SCORE_DIMENSIONS", "loads", "require_object",
    "require_str", "require_id", "require_bool", "require_list", "require_strings",
    "require_int", "require_number", "require_scores",
]


class ParseError(ValueError):
    """Base class: the response does not satisfy its output contract."""


class SchemaViolation(ParseError):
    """Parseable, but keys, types or formats are wrong."""


# The six rubric dimensions an early-stop judgement scores.
SCORE_DIMENSIONS = (
    "instruction_following", "depth", "breadth", "balance", "support", "insightfulness",
)


def loads(text: str):
    """``json.loads`` of ``text``, where an integer of more than ``ids.MAX_DIGITS``
    digits and nesting deeper than the decoder's recursion limit are ValueErrors."""
    try:
        return json.loads(text, parse_int=json_int)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


def require_object(value, what: str, keys: set[str] | None = None) -> dict:
    """A JSON object of exactly ``keys``; of any keys when None."""
    if not isinstance(value, dict):
        raise SchemaViolation(f"{what}: expected a JSON object")
    if keys is not None and value.keys() != keys:
        raise SchemaViolation(f"{what}: expected keys {sorted(keys)}, got {sorted(value)}")
    return value


def require_str(value, what: str, allow_empty: bool = False) -> str:
    """A string that UTF-8 can encode: a JSON escape such as ``"\\ud800"`` decodes
    to a lone surrogate, which no run-dir file could hold."""
    if not isinstance(value, str):
        raise SchemaViolation(f"{what}: expected a string")
    if not allow_empty and not value.strip():
        raise SchemaViolation(f"{what}: must be non-empty")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaViolation(
            f"{what}: holds {value[exc.start:exc.end]!r}, which UTF-8 cannot encode"
        ) from None
    return value


def require_id(value, what: str, prefix: str) -> str:
    """A string that is ``prefix`` and then a decimal number (``ids.is_id``)."""
    if not is_id(require_str(value, what), prefix):
        raise SchemaViolation(f"{what}: malformed id {value!r}")
    return value


def require_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolation(f"{what}: expected true or false")
    return value


def require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaViolation(f"{what}: expected an array")
    return value


def require_strings(value, what: str) -> list[str]:
    """A list of strings, any of them empty."""
    return [require_str(v, f"{what} entry", allow_empty=True) for v in require_list(value, what)]


def require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(f"{what}: expected an integer")
    return value


def require_number(value, what: str) -> float:
    """A number a float can hold: an integer too large for one is a SchemaViolation."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(f"{what}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaViolation(f"{what}: an integer too large for a float") from None


def require_scores(value, what: str) -> dict[str, float]:
    """The six rubric scores, each a number in 0..100, in ``SCORE_DIMENSIONS`` order."""
    doc = require_object(value, what, set(SCORE_DIMENSIONS))
    out = {dim: require_number(doc[dim], f"{what}.{dim}") for dim in SCORE_DIMENSIONS}
    for dim, score in out.items():
        if not 0 <= score <= 100:
            raise SchemaViolation(f"{what}.{dim}: {doc[dim]} outside 0..100")
    return out
