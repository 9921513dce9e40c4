"""A run cut by a provider fault resumes in another process to the uninterrupted bytes.

Each side is its own Python process with fresh providers and
``PYTHONHASHSEED=0``: community detection still follows set order. Sim runs
go through ``sim_process.py``, and one uninterrupted run serves every cut
mode; demo runs go through the command line, ``python -m dualgraph.cli``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from .builders import DEMO_FIXTURE, cli_process, dir_snapshot, run_process

SIM = Path(__file__).with_name("sim_process.py")


def _run(*args):
    return run_process(SIM, *args)


def _edit_json(path: Path, edit) -> Path:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fresh(tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("uninterrupted") / "run"
    done = _run("fresh", run_dir)
    assert done.returncode == 0, done.stderr
    assert not (run_dir / "replay.jsonl").exists()
    return run_dir


@pytest.mark.parametrize("mode", ["cut", "cut-assess", "cut-extract", "cut-embed"])
def test_a_cut_run_resumes_in_another_process_to_the_uninterrupted_bytes(mode, fresh, tmp_path):
    run_dir = tmp_path / "run"
    cut = _run(mode, run_dir)
    assert cut.returncode != 0 and "ProviderError" in cut.stderr, cut.stderr
    # The resume checks its own embed and chat calls, and exits non-zero on a miss.
    resumed = _run("resume", run_dir, fresh)
    assert resumed.returncode == 0, resumed.stderr
    assert dir_snapshot(run_dir) == dir_snapshot(fresh)


def test_a_cut_demo_run_resumes_in_another_process_with_the_committed_embedder(tmp_path):
    fresh, cut, narrow = tmp_path / "fresh", tmp_path / "cut", tmp_path / "cut-narrow"
    assert cli_process("run", "--run-dir", fresh).returncode == 0

    # A run whose chat script runs dry at the first outline revision exits 2.
    def run_dry(doc):
        revise = [e for e in doc["chat_script"]
                  if any("revising the outline" in m for m in e["match"])]
        revise[0]["responses"] = []

    dry = _edit_json(Path(shutil.copy(DEMO_FIXTURE, tmp_path / "cut.json")), run_dry)
    done = cli_process("run", "--fixture", dry, "--run-dir", cut)
    assert done.returncode == 2, done.stderr

    # A copy whose state.json commits embed_dim 16 exits 1 on resume, as its
    # embed.jsonl holds width-32 rows, and changes no file.
    shutil.copytree(cut, narrow)
    _edit_json(narrow / "state.json", lambda doc: doc["config"].update(embed_dim=16))
    before = dir_snapshot(narrow)
    resumed = cli_process("resume", "--run-dir", narrow)
    assert resumed.returncode == 1, resumed.stderr
    assert "embed.jsonl holds vectors of width 32" in resumed.stderr
    assert dir_snapshot(narrow) == before

    # A fixture carrying the retired embed_dim and embed_seed keys finishes the
    # run to the fresh bytes: the embedder follows the committed config.
    retired = _edit_json(
        Path(shutil.copy(DEMO_FIXTURE, tmp_path / "retired-keys.json")),
        lambda doc: doc.update(embed_dim=16, embed_seed=5),
    )
    resumed = cli_process("resume", "--fixture", retired, "--run-dir", cut)
    assert resumed.returncode == 0, resumed.stderr
    assert dir_snapshot(cut) == dir_snapshot(fresh)
