"""The one JSON reader: ``dualgraph.checks`` decodes and checks what every module reads."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

import dualgraph
from dualgraph.checks import SchemaViolation, loads, require_number, require_object
from dualgraph.ids import MAX_DIGITS

from .builders import INT_LIMITS, LONG_NUMBER, int_max_str_digits

PACKAGE = Path(dualgraph.__file__).parent
# checks.loads is the reader; the sim model reads back the prompt the engine wrote.
MAY_DECODE = {"checks.py", "simulate.py"}


def _module_faults(path: Path) -> list[str]:
    """Each ``json.load``/``json.loads`` call or ``from json import`` of either, and
    each imported ``_require_*`` name, in the module at ``path``."""
    faults = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name) and func.value.id == "json"
        ):
            faults.append(f"line {node.lineno}: json.{func.attr}")
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_require") or (
                    node.module == "json" and alias.name in ("load", "loads")
                ):
                    faults.append(f"line {node.lineno}: imports {alias.name}")
    return faults


def test_only_checks_decodes_json_and_no_module_imports_a_private_check():
    faults = {
        str(path.relative_to(PACKAGE)): _module_faults(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in MAY_DECODE or path.parent != PACKAGE
    }
    assert {name: found for name, found in faults.items() if found} == {}


def test_the_fault_finder_sees_each_fault(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import json\nfrom json import loads\nfrom .parsers import _require_str\n"
        "json.loads('1')\njson.load(f)\n",
        encoding="utf-8",
    )
    assert _module_faults(path) == [
        "line 2: imports loads", "line 3: imports _require_str",
        "line 4: json.loads", "line 5: json.load",
    ]


def test_loads_reads_json_and_an_integer_of_max_digits():
    assert loads('{"a": [1, 2.5, "x", null, true]}') == {"a": [1, 2.5, "x", None, True]}
    for limit in INT_LIMITS:
        with int_max_str_digits(limit):
            assert loads("9" * MAX_DIGITS) == 10**MAX_DIGITS - 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply to decode"),
        ('{"a": [' * 50_000 + "]}" * 50_000, "nested too deeply to decode"),
        (f"[{LONG_NUMBER}]", f"an integer of more than {MAX_DIGITS} digits"),
        (f"-{LONG_NUMBER}", f"an integer of more than {MAX_DIGITS} digits"),
        ("[1,", "Expecting value"),
    ],
    ids=["arrays", "objects", "long-integer", "long-negative-integer", "torn"],
)
def test_every_undecodable_text_is_a_value_error_on_every_interpreter(text, message):
    for limit in INT_LIMITS:
        with int_max_str_digits(limit), pytest.raises(ValueError, match=message):
            loads(text)


def test_a_leading_byte_order_mark_is_rejected_as_json_loads_rejects_it():
    text = '\ufeff{"a": 1}'
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        loads(text)
    assert str(got.value) == str(want.value)
    assert loads('{"a": "\ufeff"}') == {"a": "\ufeff"}


def test_an_object_check_with_no_key_set_takes_any_keys():
    assert require_object({"x": 1}, "doc") == {"x": 1}
    assert require_object({}, "doc") == {}
    with pytest.raises(SchemaViolation, match="doc: expected a JSON object"):
        require_object([], "doc")
    with pytest.raises(SchemaViolation, match=r"expected keys \['a'\], got \['b'\]"):
        require_object({"b": 1}, "doc", {"a"})


def test_a_number_check_takes_what_a_float_holds():
    assert require_number(3, "score") == 3.0 and require_number(0.25, "score") == 0.25
    for value in (True, "1", None, [1]):
        with pytest.raises(SchemaViolation, match="score: expected a number"):
            require_number(value, "score")
    with pytest.raises(SchemaViolation, match="score: an integer too large for a float"):
        require_number(10**400, "score")


def test_the_int_limit_helper_runs_the_block_unchanged_without_a_limit(monkeypatch):
    # Interpreters before 3.10.7 have neither function, and no limit to lift.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    ran = []
    with int_max_str_digits(0):
        ran.append(True)
    assert ran == [True]
