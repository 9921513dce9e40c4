"""Random outline construction and revision mutation helpers."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import dualgraph
from dualgraph.evidence import EvidenceBank
from dualgraph.orchestrator import RunConfig, Runner
from dualgraph.outline import OutlineGraph, OutlineNode
from dualgraph.providers.base import ProviderError
from dualgraph.providers.mock import load_fixture
from dualgraph.rundir import RunDir

DEMO_FIXTURE = Path(dualgraph.__file__).parent / "fixtures" / "demo" / "fixture.json"
PACKAGE_ROOT = Path(dualgraph.__file__).resolve().parents[1]

# A number past CPython's default int-string limit (4,300 digits), and the
# limits each over-long case runs under: the default, then none at all. An
# interpreter older than the limit (before 3.10.7) has none, so 0 twice.
LONG_NUMBER = "9" * 5000
INT_LIMITS = (getattr(sys.int_info, "default_max_str_digits", 0), 0)


@contextmanager
def int_max_str_digits(limit: int):
    """The interpreter's int-string limit set to ``limit`` (0: none) while the block
    runs; an interpreter with no limit to set runs the block unchanged."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


WORDS = (
    "signal", "margin", "coupling", "drift", "baseline", "window",
    "throughput", "cache", "decay", "latency", "budget", "replay",
)


def _title(rng: random.Random) -> str:
    return " ".join(rng.sample(WORDS, rng.randint(1, 3)))


def _citations(rng: random.Random, bank_size: int) -> set[int]:
    if bank_size == 0 or rng.random() < 0.35:
        return set()
    k = rng.randint(1, min(3, bank_size))
    return set(rng.sample(range(1, bank_size + 1), k))


def _content_points(rng: random.Random, bank_size: int) -> list[OutlineNode]:
    return [
        OutlineNode(number="?", title=_title(rng), citations=_citations(rng, bank_size))
        for _ in range(rng.randint(0, 3))
    ]


def renumber(og: OutlineGraph) -> OutlineGraph:
    """Reassign heading numbers and content point letters by position."""

    def fix(nodes: list[OutlineNode], prefix: str) -> None:
        heading_idx = 0
        letter_idx = 0
        for node in nodes:
            if node.children or not node.number.isalpha() or len(node.number) > 1:
                heading_idx += 1
                node.number = f"{prefix}{heading_idx}" if prefix else str(heading_idx)
                fix(node.children, node.number + ".")
            else:
                node.number = chr(ord("a") + letter_idx)
                letter_idx += 1
    # Content points created by the builders always carry the placeholder "?",
    # which the isalpha branch above rewrites; headings never use it.
    for node in og.walk():
        if node.number == "?":
            node.number = "a"
    fix(og.sections, "")
    return og


def random_outline(rng: random.Random, bank_size: int) -> OutlineGraph:
    og = OutlineGraph(title=_title(rng))
    for _ in range(rng.randint(1, 4)):
        section = OutlineNode(
            number="?x", title=_title(rng), citations=_citations(rng, bank_size)
        )
        section.children.extend(_content_points(rng, bank_size))
        for _ in range(rng.randint(0, 2)):
            sub = OutlineNode(
                number="?x", title=_title(rng), citations=_citations(rng, bank_size)
            )
            sub.children.extend(_content_points(rng, bank_size))
            for _ in range(rng.randint(0, 2)):
                deep = OutlineNode(
                    number="?x", title=_title(rng), citations=_citations(rng, bank_size)
                )
                deep.children.extend(_content_points(rng, bank_size))
                sub.children.append(deep)
            section.children.append(sub)
        og.sections.append(section)
    return renumber(og)


def _all_nodes(og: OutlineGraph) -> list[OutlineNode]:
    return list(og.walk())


def mutate_outline(og: OutlineGraph, rng: random.Random, bank_size: int) -> OutlineGraph:
    """A structurally valid revision: drops, retitles, citation edits, adds."""
    for _ in range(rng.randint(1, 4)):
        action = rng.choice(("drop_section", "drop_point", "strip", "retitle", "add"))
        if action == "drop_section" and len(og.sections) > 1:
            og.sections.pop(rng.randrange(len(og.sections)))
        elif action == "drop_point":
            parents = [n for n in _all_nodes(og) if n.children]
            if parents:
                parent = rng.choice(parents)
                parent.children.pop(rng.randrange(len(parent.children)))
        elif action == "strip":
            cited = [n for n in _all_nodes(og) if n.citations]
            if cited:
                rng.choice(cited).citations = set()
        elif action == "retitle":
            nodes = _all_nodes(og)
            if nodes:
                rng.choice(nodes).title = _title(rng)
        elif action == "add":
            node = OutlineNode(
                number="?x", title=_title(rng), citations=_citations(rng, bank_size)
            )
            node.children.extend(_content_points(rng, bank_size))
            og.sections.insert(rng.randrange(len(og.sections) + 1), node)
    if not og.sections:
        og.sections.append(OutlineNode(number="1", title=_title(rng)))
    return renumber(og)


def bank_with(n: int) -> EvidenceBank:
    bank = EvidenceBank()
    for i in range(n):
        bank.add(f"https://ev.test/{i}", f"title {i}", "seed query", "s", "c", 0)
    return bank


def dir_snapshot(root: Path) -> dict[str, bytes]:
    """Relative path -> raw bytes for every regular file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def audit_log(runner: Runner) -> list[dict]:
    """The records of the runner's ``audit.jsonl``, read through a ``RunDir`` of its path."""
    return RunDir(runner.run_dir).read(
        "audit.jsonl", lambda log: [json.loads(line.decode()) for line in log]
    )


def template_calls(runner: Runner) -> Counter:
    """Chat calls per template name, counted in the runner's ``audit.jsonl``."""
    return Counter(record["name"] for record in audit_log(runner))


def keeps_only_uncommitted_audit(runner: Runner, state) -> bool:
    """Whether ``state`` holds no record of the runner's ``audit.jsonl`` and its
    audit counts every line of the log."""
    committed = audit_log(runner)
    return len(state.audit) == len(committed) and not any(r in committed for r in state.audit)


class FailingAt:
    """A chat, embed, search or fetch provider that passes calls to ``inner``,
    counts them in ``calls``, and raises ProviderError on call number ``at``
    (from 1); None: never. A fetch fails with the base ProviderError, not
    FetchError, so it stops the run like the others."""

    def __init__(self, inner, at: int | None = None):
        self.inner, self.at, self.calls = inner, at, 0

    def _call(self, method: str, *args):
        self.calls += 1
        if self.calls == self.at:
            raise ProviderError(f"{method} down at call {self.at}")
        return getattr(self.inner, method)(*args)

    def complete(self, prompt: str) -> str:
        return self._call("complete", prompt)

    def embed(self, texts):
        return self._call("embed", texts)

    def search(self, query: str, top_n: int):
        return self._call("search", query, top_n)

    def fetch(self, url: str) -> str:
        return self._call("fetch", url)


class Crash(Exception):
    """A process dying between two file replaces; not a provider failure."""


class CrashingRunDir(RunDir):
    """Dies just before the n-th state.json replace, after the checkpoint's
    other files are written."""

    def __init__(self, path, crash_before_commit):
        super().__init__(path)
        self._crash_at = crash_before_commit
        self._commits = 0

    def _replace(self, name, text):
        if name == "state.json":
            self._commits += 1
            if self._commits == self._crash_at:
                raise Crash
        super()._replace(name, text)


class CrashingRunner(Runner):
    """A runner whose directory is a ``CrashingRunDir``."""

    def __init__(self, *args, crash_before_commit):
        super().__init__(*args)
        self.files = CrashingRunDir(self.run_dir, crash_before_commit)


def crash_demo_run(run_dir: Path) -> None:
    """Run the demo fixture into the crash window of its iteration-2 checkpoint:
    every iteration-2 file is written, but state.json still commits iteration 1."""
    fixture = load_fixture(DEMO_FIXTURE)
    runner = CrashingRunner(
        RunConfig.from_dict(fixture.config), fixture.providers(), run_dir,
        crash_before_commit=4,
    )
    try:
        runner.start(fixture.root_query)
    except Crash:
        return
    raise AssertionError("the demo run finished without reaching the crash")


def run_process(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports this package, with
    ``PYTHONHASHSEED=0``: community detection still follows set order."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120,
    )


def cli_process(*args) -> subprocess.CompletedProcess:
    """The command line in a child process, as the installed script runs it."""
    return run_process("-m", "dualgraph.cli", *args)
