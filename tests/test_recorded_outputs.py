"""Every file of four recorded outputs, pinned by its sha256.

The outputs are the ``dualgraph run`` demo directory, ``dualgraph simulate
--seeds 10 --out``, and one small sim run directory per variant (the world
and config that CI resumes across processes). ``recorded_outputs.json`` holds
the digest of each file. A change that moves an output on purpose re-records
them with

    PYTHONPATH=src python tests/test_recorded_outputs.py

and the digest file's diff then shows which files moved. CI runs these tests
under several hash seeds as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from dualgraph.cli import main
from dualgraph.orchestrator import RunConfig, Runner
from dualgraph.simulate import DEFAULT_ROOT_QUERY, generate_world, sim_providers

RECORD = Path(__file__).with_name("recorded_outputs.json")


def _demo(out: Path) -> None:
    assert main(["run", "--run-dir", str(out)]) == 0


def _ablation(out: Path) -> None:
    assert main(["simulate", "--seeds", "10", "--out", str(out)]) == 0


def _sim(variant: str):
    def produce(out: Path) -> None:
        world = generate_world(seed=1, n_communities=3, cores_per_community=2,
                               concepts_per_community=4)
        config = RunConfig(max_iter=6, og_query_budget=3, kg_query_budget=4,
                           urls_per_query=6, early_stop_thresholds=90.0, variant=variant)
        providers = sim_providers(world, config.embed_dim, config.seed)
        Runner(config, providers, out).start(DEFAULT_ROOT_QUERY)

    return produce


OUTPUTS = {
    "demo": _demo,
    "ablation": _ablation,
    "sim-dualgraph": _sim("dualgraph"),
    "sim-outline-only": _sim("outline-only"),
}


def digests(name: str, out: Path) -> dict[str, str]:
    """Produce output ``name`` in ``out``; the sha256 of each file, by relative path."""
    with contextlib.redirect_stdout(io.StringIO()):
        OUTPUTS[name](out)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_matches_its_recorded_digests(name, tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[name]
    assert digests(name, tmp_path / name) == recorded


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: digests(name, Path(tmp) / name) for name in OUTPUTS}
    RECORD.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
