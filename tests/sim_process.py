"""One side of a cross-process resume check, run as its own Python process.

    python tests/sim_process.py MODE RUN_DIR [FRESH_DIR]

Every mode runs the small sim world and config of the recorded sim outputs.
``fresh`` runs it to the end. ``cut`` fails the chat at call 35 (the last
pass's extract_knowledge), ``cut-assess`` at the second assess_page prompt,
``cut-extract`` at the second extract_knowledge prompt, and ``cut-embed`` fails
the embedder at call 5; each raises the ``ProviderError``. ``resume`` resumes
RUN_DIR with fresh providers and exits non-zero with a message unless the resume

- sends the embedder no text that the committed ``embed.jsonl`` holds,
- makes exactly the chat calls that FRESH_DIR's ``audit.jsonl`` holds past the
  committed ones, less the chat answers ``replay.jsonl`` holds,
- sends the embedder exactly as many texts as FRESH_DIR's ``embed.jsonl``
  holds past the committed ones, less the texts of ``replay.jsonl``'s embed
  lines, plus one probe text when it holds an embed line, and
- finishes the run.

``tests/test_resume_processes.py`` runs these with the hash seed pinned,
since community detection still follows set order.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

from dualgraph.orchestrator import RunConfig, Runner
from dualgraph.providers.base import ProviderError
from dualgraph.simulate import DEFAULT_ROOT_QUERY, generate_world, sim_providers


class _Failing:
    """Chat or embed calls over ``inner`` that raise at the ``at``-th call ``counts``."""

    def __init__(self, inner, at: int, counts=lambda request: True):
        self.inner, self.at, self.counts, self.calls = inner, at, counts, 0

    def _call(self, method: str, request):
        if self.counts(request):
            self.calls += 1
            if self.calls == self.at:
                raise ProviderError(f"{method} down at call {self.at}")
        return getattr(self.inner, method)(request)

    def complete(self, prompt):
        return self._call("complete", prompt)

    def embed(self, texts):
        return self._call("embed", texts)


class _Checked:
    """Chat and embed over ``inner`` that count prompts and texts, and refuse committed texts."""

    def __init__(self, inner, committed: set[str]):
        self.inner, self.committed, self.prompts, self.texts = inner, committed, 0, 0

    def complete(self, prompt):
        self.prompts += 1
        return self.inner.complete(prompt)

    def embed(self, texts):
        again = self.committed.intersection(texts)
        if again:
            sys.exit(f"resume re-embedded committed texts: {sorted(again)}")
        self.texts += len(texts)
        return self.inner.embed(texts)


def _lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as log:
        return [json.loads(line) for line in log]


def _resume(config: RunConfig, providers, run_dir: Path, fresh: Path) -> None:
    doc = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
    with open(run_dir / "embed.jsonl", encoding="utf-8") as log:
        committed = {json.loads(line)["text"] for line in islice(log, doc["embedded_texts"])}
    replay = _lines(run_dir / "replay.jsonl") if (run_dir / "replay.jsonl").exists() else []
    embeds = [r for r in replay if r["kind"] == "embed"]
    want = len(_lines(fresh / "audit.jsonl")) - doc["audit_records"]
    want -= sum(r["kind"] == "chat" for r in replay)
    want_texts = len(_lines(fresh / "embed.jsonl")) - doc["embedded_texts"]
    want_texts -= sum(len(r["request"]) for r in embeds) - bool(embeds)
    chat = providers.chat = _Checked(providers.chat, committed)
    embed = providers.embed = _Checked(providers.embed, committed)
    if Runner(config, providers, run_dir).resume().stage != "done":
        sys.exit("the resume did not finish")
    if chat.prompts != want:
        sys.exit(f"the resume made {chat.prompts} chat calls, not {want}")
    if embed.texts != want_texts:
        sys.exit(f"the resume sent the embedder {embed.texts} texts, not {want_texts}")


def main(mode: str, run_dir: str, *fresh: str) -> None:
    world = generate_world(seed=1, n_communities=3, cores_per_community=2,
                           concepts_per_community=4)
    config = RunConfig(max_iter=6, og_query_budget=3, kg_query_budget=4, urls_per_query=6,
                       early_stop_thresholds=90.0)
    providers = sim_providers(world, config.embed_dim, config.seed)
    if mode == "resume":
        _resume(config, providers, Path(run_dir), Path(fresh[0]))
        return
    if mode == "cut":
        providers.chat = _Failing(providers.chat, 35)
    elif mode == "cut-assess":
        providers.chat = _Failing(
            providers.chat, 2, lambda prompt: "extracting evidence from fetched pages" in prompt
        )
    elif mode == "cut-extract":
        providers.chat = _Failing(
            providers.chat, 2, lambda prompt: "Extract entity and concept relations" in prompt
        )
    elif mode == "cut-embed":
        providers.embed = _Failing(providers.embed, 5)
    elif mode != "fresh":
        sys.exit(f"unknown mode {mode!r}")
    Runner(config, providers, run_dir).start(DEFAULT_ROOT_QUERY)


if __name__ == "__main__":
    main(*sys.argv[1:])
