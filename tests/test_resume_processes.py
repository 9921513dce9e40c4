"""A run cut by a provider fault resumes in another process to the uninterrupted bytes.

Each side is its own Python process (``sim_process.py``) with fresh
providers and ``PYTHONHASHSEED=0``: community detection still follows set
order. One uninterrupted run serves every cut mode.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualgraph

from .builders import dir_snapshot

SIM = Path(__file__).with_name("sim_process.py")
PACKAGE_ROOT = Path(dualgraph.__file__).resolve().parents[1]


def _run(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, str(SIM), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
