"""The benchmark's probe sites (``bench/spans.py``) name functions the engine has.

A probe wraps a function at each name the engine looks it up by, so renaming
or moving a probed function, or calling it through another name, would leave
its span empty without failing a run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import dualgraph
from dualgraph import orchestrator
from dualgraph.evidence import EvidenceBank
from dualgraph.outline import parse_outline

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(dualgraph.__file__).resolve().parent


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def test_every_probe_site_names_a_function_of_the_engine(spans):
    missing = []
    for probe in spans.PROBES:
        for site in probe.sites:
            owner, attr = spans._owner(site)
            fn = vars(owner).get(attr)  # as spans.installed reads it
            if not (callable(fn) and Path(inspect.getfile(fn)).resolve().is_relative_to(PACKAGE)):
                missing.append(site)
    assert missing == []


def test_a_revision_parses_through_the_probed_name(spans):
    tracer = spans.Tracer()
    old = parse_outline("T\n1. A\n")
    with spans.installed(tracer), tracer.root():
        orchestrator.apply_revision(old, "T\n1. A\n2. B\n", EvidenceBank(), None)
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["run", "outline.apply_revision", "outline.parse_outline"]
    assert parents == [None, 0, 1]
