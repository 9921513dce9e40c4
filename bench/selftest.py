"""Checks of the benchmark itself, on smoke-size inputs (about a minute).

    PYTHONHASHSEED=0 python3 bench/selftest.py

1. The uncapped world generator equals the stock one within the 26-name cap.
2. The numbered sim chat leaves bank.json and kg.json byte-identical to the
   stock stand-in on a world within the cap, and runs a world past it.
3. BENCHMARK.json names exactly the workloads and metrics run.py reports.
4. Every workload passes its output check, traced and untraced; the tracing
   self-check holds (listed spans fire on sim-dual, bypassed layers read 0).
5. Without the engine sources, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT, _setup_path

BENCH = Path(__file__).resolve().parent


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def check_world() -> None:
    from dualgraph import simulate

    import world

    for seed in range(5):
        assert world.generate_world(seed, 3, 2, 4) == simulate.generate_world(seed, 3, 2, 4)


def check_numbered_chat(scratch: Path) -> None:
    from dualgraph.orchestrator import RunConfig, Runner
    from dualgraph.simulate import DEFAULT_ROOT_QUERY, SimChatProvider

    import world

    def run(w, chat_cls, variant, name, max_iter=6):
        config = RunConfig(og_query_budget=4, kg_query_budget=8, urls_per_query=8,
                           max_iter=max_iter, early_stop_thresholds=90.0, variant=variant)
        providers = world.sim_providers(w, config.embed_dim, config.seed, chat_cls)
        state = Runner(config, providers, scratch / name).start(DEFAULT_ROOT_QUERY)
        return state, scratch / name

    small = world.generate_world(1, 3, 2, 4)
    for variant in ("dualgraph", "outline-only"):
        _, stock = run(small, SimChatProvider, variant, f"stock-{variant}")
        _, numbered = run(small, world.NumberedSimChat, variant, f"numbered-{variant}")
        for name in ("bank.json", "kg.json", "report.md"):
            if (stock / name).exists() or (numbered / name).exists():
                assert (stock / name).read_bytes() == (numbered / name).read_bytes(), name
    big = world.generate_world(0, 2, 2, 12)
    assert len(big.all_names) > 26
    state, _ = run(big, world.NumberedSimChat, "dualgraph", "past-cap", max_iter=10)
    assert state.stage == "done" and state.report
    assert len(state.og.find("2").children) > 26


def check_manifest() -> None:
    from workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER


def check_workloads() -> None:
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                              "--trace", trace, "--size", "smoke")
            assert proc.returncode == 0, proc.stderr
            details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            assert result["correct"] and not result["failed"], (workload, details["problems"])
            want = PER_LAYER if trace == "1" else END_TO_END
            assert set(result["metrics"]) == set(want)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == "0":
                assert all(v > 0 for v in values.values()), (workload, values)
            elif workload == "sim-outline":
                dark = [k for k, v in values.items()
                        if k.split(".")[0] in ("chains", "kg", "community") and v]
                assert not dark, dark
            elif workload == "graph-grow":
                assert values["orchestrator.checkpoint.calls"] == 0
                assert values["providers.chat.calls"] == 0
            elif workload == "sim-dual-faults":
                assert values["orchestrator.resumes"] > 0
                assert values["orchestrator.load_state.calls"] > 0


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run_bench(bare, "--workload", "sim-dual", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    _setup_path()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out))
    try:
        check_world()
        check_numbered_chat(scratch)
        check_manifest()
        check_workloads()
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("bench selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
