"""Numbered ids, the one wire form that joins the two graphs: a prefix, then a
decimal number in ASCII digits with no leading zero (node ``n7``, edge ``e3``,
merge cluster ``c2``, evidence statement ``EN4``, chain ``chain_5``, cited
evidence ``id_12``). ``is_id`` is the one check of that form, and each reader
calls it with its prefix and raises its own error class.

No number is read with more than ``MAX_DIGITS`` digits, CPython's default
int-string limit, past which ``int()`` raises a bare ValueError unless the
limit is lifted; so a text has the same outcome on every interpreter.
``checks.loads``, the one JSON reader, decodes every integer through
``json_int``, so that holds for each JSON text the program reads.
"""

__all__ = ["MAX_DIGITS", "is_id", "id_number", "json_int"]

MAX_DIGITS = 4300


def is_id(text: str, prefix: str) -> bool:
    """True when ``text`` is a string of exactly ``prefix`` and a decimal number."""
    if not (isinstance(text, str) and text.startswith(prefix)):
        return False
    digits = text[len(prefix):]
    return "1" <= digits[:1] <= "9" and digits.isascii() and digits.isdigit()


def id_number(text: str, prefix: str) -> int | None:
    """The number of id ``text``; None if it is not one or has more than ``MAX_DIGITS`` digits."""
    if is_id(text, prefix) and len(text) - len(prefix) <= MAX_DIGITS:
        return int(text[len(prefix):])
    return None


def json_int(literal: str) -> int:
    """``parse_int`` for ``json.loads``: more than ``MAX_DIGITS`` digits is a ValueError."""
    if len(literal.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer of more than {MAX_DIGITS} digits")
    return int(literal)
