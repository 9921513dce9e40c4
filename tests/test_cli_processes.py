"""The command line in its own process: exit statuses and the files left behind.

Each check runs ``python -m dualgraph.cli`` in a child process, as the
installed ``dualgraph`` script does, with ``PYTHONHASHSEED=0``: community
detection still follows set order. An uncaught exception also exits 1, so
every check of a failure also requires that no traceback was printed.
"""

from __future__ import annotations

import json

import pytest

from dualgraph.cli import main

from .builders import DEMO_FIXTURE, cli_process, dir_snapshot


def _exits_1(*args) -> None:
    done = cli_process(*args)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr, done.stderr


def _exits_0(*args) -> None:
    done = cli_process(*args)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def fresh_demo(tmp_path_factory):
    """A demo run made by its own process, never changed afterwards."""
    run_dir = tmp_path_factory.mktemp("fresh") / "run"
    _exits_0("run", "--run-dir", run_dir)
    return run_dir


def test_a_finished_run_resumes_as_a_no_op_and_reruns_by_force_as_fresh(fresh_demo, tmp_path):
    run_dir = tmp_path / "run"
    _exits_0("run", "--run-dir", run_dir)
    _exits_0("resume", "--run-dir", run_dir)
    assert dir_snapshot(run_dir) == dir_snapshot(fresh_demo)
    _exits_0("run", "--force", "--run-dir", run_dir)
    assert dir_snapshot(run_dir) == dir_snapshot(fresh_demo)


def test_a_forced_rerun_deletes_a_spill_cut_before_its_rename(fresh_demo, tmp_path):
    run_dir = tmp_path / "run"
    _exits_0("run", "--run-dir", run_dir)
    (run_dir / "replay.jsonl.tmp").write_text("x\n", encoding="utf-8")
    _exits_0("run", "--force", "--run-dir", run_dir)
    assert dir_snapshot(run_dir) == dir_snapshot(fresh_demo)


def test_two_ablations_in_two_processes_write_the_same_bytes(tmp_path):
    for out in ("abl-a", "abl-b"):
        _exits_0("simulate", "--seeds", "2", "--max-iter", "4", "--out", tmp_path / out)
    a, b = dir_snapshot(tmp_path / "abl-a"), dir_snapshot(tmp_path / "abl-b")
    assert a and a == b


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
