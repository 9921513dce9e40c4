"""Shared fixtures plus the acceptance gate summary.

The terminal summary prints one PASS/FAIL line per gate criterion so the
verdict is readable without scrolling through the full pytest output.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

GATE_FILE = "test_acceptance.py"
GATE_TITLES = {
    "test_c01_formula_scores_match_brute_force": "scoring formulas vs brute force",
    "test_c02_chain_pipeline_matches_brute_force": "chain pipeline vs brute force",
    "test_c03_quota_allocation_law": "budget quota law",
    "test_c04_revision_never_loses_citations": "citation persistence under revision",
    "test_c05_uncited_outline_never_stops": "support gate on uncited outlines",
    "test_c06_variant_call_discipline": "variant call discipline",
    "test_c07_byte_identical_reruns": "byte-identical reruns",
    "test_c08_paired_simulation_advantage": "paired simulation advantage",
    "test_c09_parser_totality_fuzz": "parser totality fuzz",
    "test_c10_full_coverage_on_synthetic_worlds": "full coverage on synthetic worlds",
}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)


def _gate_outcomes(terminalreporter) -> dict[str, str]:
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if GATE_FILE not in nodeid:
                continue
            name = nodeid.rsplit("::", 1)[-1].split("[")[0]
            if name not in GATE_TITLES:
                continue
            verdict = "PASS" if status == "passed" else "FAIL"
            # A failure in any phase beats an earlier pass record.
            if outcomes.get(name) != "FAIL":
                outcomes[name] = verdict
    return outcomes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = _gate_outcomes(terminalreporter)
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance gate")
    for index, (name, title) in enumerate(GATE_TITLES.items(), start=1):
        if name not in outcomes:
            continue
        terminalreporter.write_line(f"criterion {index:02d} {title}: {outcomes[name]}")
