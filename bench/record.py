"""Record the outputs that benchmark runs are checked against.

    python3 bench/record.py --size smoke
    python3 bench/record.py --size full

For every pool seed, stores the final bank coverage of each sim workload,
the digest of the uninterrupted sim-dual final state (which fault-resumed
runs are compared with), and the digest of every graph-grow pass, under the
size's key in bench/expected.json. Re-record only when a change is meant to
alter what the engine outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import sys

from run import EXPECTED, ROOT, _setup_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    args = parser.parse_args()
    _setup_path()
    from workloads import SIZES, WORKLOADS, prepare, run_once

    size = SIZES[args.size]
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=out_dir)
    table: dict[str, dict] = {w: {} for w in WORKLOADS}
    try:
        for workload in WORKLOADS:
            for pool_seed in range(size.pools[workload]):
                rec = run_once(prepare(workload, pool_seed, size, scratch), {})
                unexpected = [p for p in rec.problems if not p.startswith("no recorded")]
                if unexpected:
                    print("\n".join(unexpected), file=sys.stderr)
                    return 1
                if workload == "graph-grow":
                    entry = {"passes_sha256": rec.digests["passes"]}
                else:
                    entry = {"bank_coverage": rec.bank_coverage}
                    if workload == "sim-dual":
                        entry["state_sha256"] = rec.digests["state"]
                table[workload][str(pool_seed)] = entry
                print(workload, pool_seed, entry, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    recorded[args.size] = table
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
