"""The command line in its own process: exit statuses and the files left behind.

Each check runs ``python -m dualgraph.cli`` in a child process, as the
installed ``dualgraph`` script does. An uncaught exception also exits 1, so
every check also requires that no traceback was printed.
"""

from __future__ import annotations

import json

import pytest

from dualgraph.cli import main

from .builders import DEMO_FIXTURE, cli_process


def _exits_1(*args) -> None:
    done = cli_process(*args)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr, done.stderr


@pytest.fixture(scope="module")
def undecodable(tmp_path_factory):
    """A finished demo run whose last committed checkpoint files are not UTF-8."""
    run_dir = tmp_path_factory.mktemp("undecodable") / "run"
    assert main(["run", "--run-dir", str(run_dir)]) == 0
    for name in ("outline_iter2.txt", "kg_iter2.json", "chains_iter2.json"):
        path = run_dir / name
        path.write_bytes(b"\xff" + path.read_bytes())
    return run_dir


@pytest.mark.parametrize("command", ["inspect-og", "inspect-kg", "chains"])
def test_inspect_commands_exit_1_on_an_undecodable_checkpoint(undecodable, command):
    _exits_1(command, "--run-dir", undecodable)


@pytest.mark.parametrize(
    "command",
    ["simulate --seeds 1 --out {file}", "resume --run-dir {file}"],
    ids=["simulate-out", "resume-run-dir"],
)
def test_a_path_naming_a_regular_file_exits_1_and_leaves_it(tmp_path, command):
    file = tmp_path / "a-file"
    file.write_text("keep\n", encoding="utf-8")
    _exits_1(*command.format(file=file).split())
    assert file.read_text(encoding="utf-8") == "keep\n"
    assert list(tmp_path.iterdir()) == [file]


def test_chat_responses_given_as_a_string_exit_1_and_make_no_run_dir(tmp_path):
    doc = json.loads(DEMO_FIXTURE.read_text(encoding="utf-8"))
    doc["chat_script"][0]["responses"] = doc["chat_script"][0]["responses"][0]
    fixture = tmp_path / "responses-a-string.json"
    fixture.write_text(json.dumps(doc), encoding="utf-8")
    _exits_1("run", "--fixture", fixture, "--run-dir", tmp_path / "shape")
    assert not (tmp_path / "shape").exists()
