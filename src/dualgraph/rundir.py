"""The run directory: the one module that names its files, writes and reads them.

``RunDir`` is built from a path alone, and every file operation on the
directory is one of its methods. A checkpoint writes the pass's
``outline_iterN.txt``, ``kg_iterN.json`` and ``chains_iterN.json``, and last
``state.json``, which commits them.

A checkpoint costs what the iteration changed: the audit records, bank units
and embed memo entries made since the last one are appended to
``audit.jsonl``, ``bank.jsonl`` and ``embed.jsonl``, the state drops the audit
records it appended (``Audit``; a state no ``Runner`` checkpoints holds every
record), and ``state.json`` commits the three logs by count. No log is ever
rewritten: ``clear`` deletes them, and ``reopen`` cuts each in place where
``load`` stopped reading its committed lines, so a resume reads each log once.
It starts from the committed memo, asks for the same texts in the same order
as an uninterrupted run, and embeds only those the fault lost.

Nor does a fault cost the chat, search and fetch answers its attempt already
got. ``Runner`` keeps every such exchange made since the last checkpoint on a
``_Tape``. When a ``ProviderError`` stops the run, it writes them to
``replay.jsonl``, the only file a failure writes; a ``ParseError`` or
``ConfigError`` writes nothing, so a bad answer is never replayed. A resume
serves each call whose kind and request equal the next recorded exchange from
the file, with no provider call; the first call that differs drops the rest.
The first checkpoint deletes the file, so a finished run directory holds none.
Embed calls stay off the tape: the memo in ``embed.jsonl`` covers them.
"""

from __future__ import annotations

import base64
import json
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import outline  # parse_outline is looked up at call time, as bench/spans wraps it there
from .config import ConfigError, RunConfig, Variant
from .evidence import EvidenceBank, EvidenceUnit
from .kg import KnowledgeGraph
from .providers.base import FetchError, Providers, SearchResult
from .providers.parsers import (
    _require_bool, _require_int, _require_list, _require_object, _require_scores, _require_str,
    _require_strings,
)

__all__ = ["EarlyStopReport", "Audit", "RunDir", "FORMAT_VERSION", "state_document"]

STATE_FILE = "state.json"
REPORT_FILE = "report.md"
BANK_FILE = "bank.json"  # the final bank, beside the report
KG_FILE = "kg.json"  # the final graph
AUDIT_LOG = "audit.jsonl"
BANK_LOG = "bank.jsonl"
EMBED_LOG = "embed.jsonl"
REPLAY_FILE = "replay.jsonl"  # the exchanges a failed attempt got; see _Tape
FORMAT_VERSION = 8
_LOGS = (AUDIT_LOG, BANK_LOG, EMBED_LOG)  # append-only; state.json commits each by count
_STATE_LOGS = (BANK_LOG, EMBED_LOG)  # the logs whose every entry a state keeps
# Every key state_document writes besides format_version.
_STATE_KEYS = (
    "root_query", "config", "stage", "iteration", "executed_queries",
    "early_stop_history", "events", "audit_records", "bank_units", "embedded_texts",
)
_ITERATION_STEMS = ("outline", "kg", "chains")  # the files a checkpoint writes per iteration


def _iteration_file(stem: str, iteration: int) -> str:
    return f"{stem}_iter{iteration}.{'txt' if stem == 'outline' else 'json'}"


@dataclass
class EarlyStopReport:
    scores: dict[str, float]
    stop: bool  # every score at the stop bar in the run's config

    def to_dict(self) -> dict:
        return {"scores": dict(self.scores), "stop": self.stop}

    @classmethod
    def from_dict(cls, d: dict) -> "EarlyStopReport":
        d = _require_object(d, "early-stop report", {"scores", "stop"})
        return cls(_require_scores(d["scores"], "scores"), _require_bool(d["stop"], "stop"))


class Audit(list):
    """A run's chat records: a list of those not yet in ``audit.jsonl``, in call order.

    ``committed`` counts the records the log already holds, which the list
    does not. ``len`` counts both, so it is the number of chat exchanges the
    run has made; iteration, indexing and ``==`` see only the records held.
    """

    def __init__(self, records: Iterable[dict] = (), committed: int = 0):
        super().__init__(records)
        self.committed = committed

    def __len__(self) -> int:
        return self.committed + super().__len__()

    def copy(self) -> "Audit":
        return Audit(super().copy(), self.committed)

    def commit(self) -> list[dict]:
        """The records held, which the list drops and counts as committed."""
        records = super().copy()
        self.clear()
        self.committed += len(records)
        return records


def _committed_config(doc) -> RunConfig:
    """The config of a state.json document, which must be of this format and
    hold every key; a damaged one is a ConfigError naming state.json."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{STATE_FILE} must hold a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported state format_version {doc.get('format_version')!r}")
    missing = [key for key in _STATE_KEYS if key not in doc]
    if missing:
        raise ConfigError(f"{STATE_FILE} lacks {missing}")
    try:
        return RunConfig.from_dict(
            _require_object(doc["config"], "config", set(RunConfig.__dataclass_fields__))
        )
    except ConfigError as exc:
        raise ConfigError(f"{STATE_FILE}: {exc}") from None


def _records(log, count: int) -> Iterator:
    """The first ``count`` records of a JSON-lines log opened as bytes, decoded
    one at a time; lines past them are not read. Once the records run out, the
    log is left where those lines end, which is one byte past the file when the
    last one lost its newline.
    """
    line = b"\n"
    for line in islice(log, count):
        yield json.loads(line.decode("utf-8"))
    if not line.endswith(b"\n"):
        log.seek(1, os.SEEK_CUR)


def _embed_record(entry: tuple[str, np.ndarray]) -> dict:
    """An embed.jsonl line: the text and the base64 of its row's little-endian float64 bytes."""
    text, row = entry
    return {"text": text, "vector": base64.b64encode(row.astype("<f8").tobytes()).decode("ascii")}


def _embeddings(records: list) -> dict[str, np.ndarray]:
    """The memo that embed.jsonl records hold; a damaged record is a ValueError.

    Rows must all have the first row's length, which is not checked against the
    config's ``embed_dim``: a library caller's embedder need not follow it, and
    ``_EmbedOnce`` checks the width the embedder returns.
    """
    rows: dict[str, np.ndarray] = {}
    width = None
    for i, record in enumerate(records):
        record = _require_object(record, f"record {i}", {"text", "vector"})
        text = _require_str(record["text"], f"record {i} text", allow_empty=True)
        raw = base64.b64decode(_require_str(record["vector"], f"record {i} vector"), validate=True)
        if text in rows:
            raise ValueError(f"record {i} repeats the text {text!r}")
        if not raw or len(raw) % 8:
            raise ValueError(f"record {i} vector is {len(raw)} bytes, not a multiple of 8")
        width = width or len(raw)
        if len(raw) != width:
            raise ValueError(f"record {i} vector is {len(raw)} bytes, record 0's is {width}")
        rows[text] = np.frombuffer(raw, dtype="<f8")
    return rows


def _replay_record(exchange: tuple) -> dict:
    """The replay.jsonl line of a (kind, request, answer) exchange: exactly
    ``kind``, ``request`` and ``answer``, or ``error`` with the message of a
    fetch's ``FetchError``. A search's results are written as objects."""
    kind, request, answer = exchange
    if isinstance(answer, FetchError):
        return {"kind": kind, "request": request, "error": str(answer)}
    if kind == "search":
        answer = [asdict(r) for r in answer]
    return {"kind": kind, "request": request, "answer": answer}


def _replay_exchanges(log) -> list[tuple]:
    """The exchanges a replay.jsonl opened as bytes holds, as ``_Tape`` keeps them;
    a damaged line is a ValueError."""
    exchanges = []
    for i, line in enumerate(log):
        what = f"record {i}"
        record = json.loads(line.decode("utf-8"))
        outcome = "error" if isinstance(record, dict) and "error" in record else "answer"
        record = _require_object(record, what, {"kind", "request", outcome})
        kind, request, answer = record["kind"], record["request"], record[outcome]
        if kind == "search":
            _require_object(request, f"{what} request", {"query", "top_n"})
            _require_str(request["query"], f"{what} query", allow_empty=True)
            _require_int(request["top_n"], f"{what} top_n")
        elif kind in ("chat", "fetch"):
            _require_str(request, f"{what} request", allow_empty=True)
        else:
            raise ValueError(f"{what}: unknown kind {kind!r}")
        if outcome == "error":
            if kind != "fetch":
                raise ValueError(f"{what}: a {kind} exchange records no error")
            answer = FetchError(_require_str(answer, f"{what} error", allow_empty=True))
        elif kind == "search":
            results = []
            for rank, r in enumerate(_require_list(answer, f"{what} answer")):
                r = _require_object(r, f"{what} result {rank}", {"url", "title", "snippet", "rank"})
                for key in ("url", "title", "snippet"):
                    _require_str(r[key], f"{what} result {rank} {key}", allow_empty=True)
                _require_int(r["rank"], f"{what} result {rank} rank")
                results.append(SearchResult(**r))
            answer = results
        else:
            _require_str(answer, f"{what} answer", allow_empty=True)
        exchanges.append((kind, request, answer))
    return exchanges


def _document(doc) -> str:
    """The one encoding of run-dir JSON: compact, so CPython's C encoder writes it."""
    return json.dumps(doc, ensure_ascii=False) + "\n"


def state_document(state) -> dict:
    """What only state.json holds of a ``RunState``; the checkpoint's other files hold the rest."""
    return {
        "format_version": FORMAT_VERSION,
        "root_query": state.root_query,
        "config": state.config.to_dict(),
        "stage": state.stage,
        "iteration": state.iteration,
        "executed_queries": list(state.executed_queries),
        "early_stop_history": [r.to_dict() for r in state.early_stop_history],
        "events": list(state.events),
        "audit_records": len(state.audit),
        "bank_units": len(state.bank),
        "embedded_texts": len(state.embeddings),
    }


class _EmbedOnce:
    """An embedder that sends ``inner`` only the texts ``rows`` lacks.

    Each call sends the texts not seen before in one batch, and no call when
    there are none, and adds their float64 rows to ``rows`` in request order;
    it returns a fresh array, so a caller may change its rows. Rows of another
    width than those ``rows`` holds are a ConfigError: a resume was given an
    embedder other than the one that wrote ``embed.jsonl``.
    """

    def __init__(self, inner, rows: dict[str, np.ndarray]):
        self.inner = inner
        self._rows = rows

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        rows = self._rows
        misses = list(dict.fromkeys(t for t in texts if t not in rows))
        if misses:
            new = np.asarray(self.inner.embed(misses), dtype=np.float64)
            first = next(iter(rows.values()), None)
            if first is not None and len(first) != new.shape[1]:
                raise ConfigError(
                    f"{EMBED_LOG} holds vectors of width {len(first)}, "
                    f"but the embedder returns width {new.shape[1]}"
                )
            rows.update(zip(misses, new))
        return np.array([rows[t] for t in texts])


class _Tape:
    """Chat, search and fetch over ``inner`` that keep every exchange they make.

    ``exchanges`` holds each call's (kind, request, answer) in call order; a
    fetch's ``FetchError`` is its answer, re-raised to the caller. A call whose
    kind and request equal the head of ``queue`` takes the head's answer and
    never reaches ``inner``; the first call that does not drops the whole queue.
    """

    def __init__(self, inner: Providers, queue: Iterable[tuple] = ()):
        self.inner = inner
        self.queue = deque(queue)
        self.exchanges: list[tuple] = []

    def _call(self, kind: str, request, ask: Callable, *args):
        queue = self.queue
        if queue and queue[0][0] == kind and queue[0][1] == request:
            answer = queue.popleft()[2]
        else:
            queue.clear()
            try:
                answer = ask(*args)
            except FetchError as exc:
                answer = exc
        self.exchanges.append((kind, request, answer))
        if isinstance(answer, FetchError):
            raise answer
        return answer

    def complete(self, prompt: str) -> str:
        return self._call("chat", prompt, self.inner.chat.complete, prompt)

    def search(self, query: str, top_n: int) -> list[SearchResult]:
        request = {"query": query, "top_n": top_n}
        return self._call("search", request, self.inner.search.search, query, top_n)

    def fetch(self, url: str) -> str:
        return self._call("fetch", url, self.inner.fetch.fetch, url)


class RunDir:
    """A run directory, known by its path alone.

    ``read``, ``_exists``, ``_replace``, ``_append``, ``_cut`` and ``_unlink``
    are its file operations; the other methods go through them. ``read`` is the
    one reader: ``load``, the resume and the CLI's inspect commands open every
    file through it, as bytes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.report_path = self.path / REPORT_FILE
        # Entries each state log holds: clear and reopen set the count, each
        # commit advances it. The audit's own count says what audit.jsonl holds.
        self._written: dict[str, int] = dict.fromkeys(_STATE_LOGS, 0)
        # Where read's parse left each file; for a log, where its committed lines end.
        self._read_to: dict[str, int] = {}

    # -- file operations

    def read(self, name: str, parse: Callable):
        """``parse`` of a run-dir file opened as bytes; a missing, undecodable or
        damaged file is a ConfigError that names it."""
        try:
            with open(self.path / name, "rb") as file:
                value = parse(file)
                self._read_to[name] = file.tell()
                return value
        except (FileNotFoundError, NotADirectoryError):
            raise ConfigError(f"run directory {self.path} has no {name}") from None
        except ConfigError:  # a file that parse read in turn, named already
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{name} is damaged: {type(exc).__name__}: {exc}") from None

    def _text(self, name: str, parse: Callable = str):
        """``parse`` of a file's UTF-8 text, which JSON is parsed from too: ``json.loads``
        of bytes would also take UTF-16, UTF-32 and lone surrogates, which no run writes."""
        return self.read(name, lambda file: parse(file.read().decode("utf-8")))

    def _exists(self, name: str) -> bool:
        return (self.path / name).exists()

    def _replace(self, name: str, text: str) -> None:
        (self.path / f"{name}.tmp").write_text(text, encoding="utf-8")
        (self.path / f"{name}.tmp").replace(self.path / name)

    def _append(self, name: str, entries: Iterable[dict]) -> None:
        """Append the entries to a log, one JSON line each; no log is rewritten."""
        rows = [_document(e) for e in entries]
        with open(self.path / name, "a", encoding="utf-8") as log_file:
            log_file.writelines(rows)

    def _cut(self, name: str) -> None:
        """Cut a log in place where ``load`` stopped reading its committed lines,
        which are neither re-encoded nor rewritten; a log that ends there is not
        opened for writing. A committed last line that lost its newline ends one
        byte past the file, and gets it back so the next append starts a line."""
        path = self.path / name
        end, size = self._read_to[name], path.stat().st_size
        if size > end:
            os.truncate(path, end)
        elif size < end:
            with open(path, "ab") as log_file:
                log_file.write(b"\n")

    def _unlink(self, name: str) -> None:
        (self.path / name).unlink(missing_ok=True)

    # -- reading

    def holds_run(self) -> bool:
        return self._exists(STATE_FILE)

    def config(self) -> RunConfig:
        """The config that state.json commits."""
        return self._text(STATE_FILE, lambda text: _committed_config(json.loads(text)))

    def iteration(self) -> int:
        """The iteration that state.json commits."""
        return self._text(
            STATE_FILE, lambda text: _require_int(json.loads(text)["iteration"], "iteration")
        )

    def has_iteration(self, stem: str, iteration: int) -> bool:
        return self._exists(_iteration_file(stem, iteration))

    def read_iteration(self, stem: str, iteration: int | None, parse: Callable = str):
        """``parse`` of the text of iteration ``iteration``'s file ``stem``
        (``outline``, ``kg`` or ``chains``); of the committed iteration when None."""
        if iteration is None:
            iteration = self.iteration()
        return self._text(_iteration_file(stem, iteration), parse)

    def load(self) -> dict:
        """The committed checkpoint, as the keyword arguments of a ``RunState``.

        The files of the committed iteration never change later, and the logs
        only grow, so a checkpoint that never committed is ignored.
        """
        return self._text(STATE_FILE, lambda text: self._state_fields(json.loads(text)))

    def _state_fields(self, doc) -> dict:
        config = _committed_config(doc)
        if doc["stage"] not in ("init", "loop", "done"):
            raise ConfigError(f"{STATE_FILE}: unknown stage {doc['stage']!r}")
        counts = ("iteration", "audit_records", "bank_units", "embedded_texts")
        bad = [key for key in counts if type(doc[key]) is not int or doc[key] < 0]
        if bad:
            raise ConfigError(f"{STATE_FILE}: {bad} must be non-negative integers")
        stage, iteration = doc["stage"], doc["iteration"]
        fields = {
            "root_query": _require_str(doc["root_query"], "root_query", allow_empty=True),
            "config": config,
            "stage": stage,
            "iteration": iteration,
            "executed_queries": _require_strings(doc["executed_queries"], "executed_queries"),
            "early_stop_history": [
                EarlyStopReport.from_dict(r)
                for r in _require_list(doc["early_stop_history"], "early_stop_history")
            ],
            "events": _require_strings(doc["events"], "events"),
        }
        units, records, texts = doc["bank_units"], doc["audit_records"], doc["embedded_texts"]
        bank = self.read(BANK_LOG, lambda log: EvidenceBank.from_dicts(_records(log, units)))
        if len(bank) < units:
            raise ConfigError(f"{BANK_LOG} is shorter than the checkpoint's bank_units")
        if stage != "init":
            fields["og"] = self.read_iteration(
                "outline", iteration,
                lambda text: outline.check_citations(outline.parse_outline(text), bank),
            )
            if config.variant is Variant.DUAL_GRAPH:
                kg_file = _iteration_file("kg", iteration)
                kg = fields["kg"] = self._text(kg_file, KnowledgeGraph.from_document)
                unplaced = [nid for nid, n in kg.nodes.items() if n.community_id is None]
                if unplaced:
                    raise ConfigError(f"{kg_file} has nodes with no community id: {unplaced}")
                unbanked = sorted({
                    ev_id for e in kg.edges.values()
                    for ev_id in e.evidence_ids if ev_id not in bank
                })
                if unbanked:
                    raise ConfigError(f"{kg_file} cites evidence absent from the bank: {unbanked}")
        if stage == "done":
            fields["report"] = self._text(REPORT_FILE)
        # Each committed record is decoded, so a damaged one is found, and none is kept.
        decoded = self.read(AUDIT_LOG, lambda log: sum(1 for _ in _records(log, records)))
        if decoded < records:
            raise ConfigError(f"{AUDIT_LOG} is shorter than the checkpoint's audit_records")
        embeddings = self.read(EMBED_LOG, lambda log: _embeddings(_records(log, texts)))
        if len(embeddings) < texts:
            raise ConfigError(f"{EMBED_LOG} is shorter than the checkpoint's embedded_texts")
        return {**fields, "bank": bank, "audit": Audit(committed=records), "embeddings": embeddings}

    # -- writing

    def clear(self) -> None:
        """Make the directory and delete every file a run writes, an outline.txt
        that older versions wrote included; other files are left alone.
        state.json goes first, so no half-cleared directory still looks resumable."""
        self.path.mkdir(parents=True, exist_ok=True)
        names = (STATE_FILE, REPORT_FILE, BANK_FILE, KG_FILE, "outline.txt", REPLAY_FILE, *_LOGS)
        for name in names:
            self._unlink(name)
        for stem in _ITERATION_STEMS:
            for path in self.path.glob(f"{stem}_iter[0-9]*"):
                self._unlink(path.name)
        self._written = dict.fromkeys(_STATE_LOGS, 0)

    def _unwritten(self, name: str, entries) -> Iterator:
        """The entries of a state log past those it holds, which then count as written."""
        start, self._written[name] = self._written[name], len(entries)
        return islice(entries, start, None)

    def commit(self, state) -> None:
        """Checkpoint ``state``. state.json goes last and commits the checkpoint:
        it names the iteration whose files hold the outline and graph, and counts
        the audit records, bank units and embedded texts in their logs; the state
        keeps no audit record it appended. A loop checkpoint already wrote the
        last iteration's files, so the one that finishes the run writes no
        outline; it writes the final graph and bank beside the report."""
        done = state.stage == "done"
        if state.og is not None and not done:
            self._replace(_iteration_file("outline", state.iteration), state.outline_text())
        if state.kg is not None:
            name = KG_FILE if done else _iteration_file("kg", state.iteration)
            self._replace(name, state.kg.to_document())
        if state.chain_record is not None and not done:
            self._replace(_iteration_file("chains", state.iteration), _document(state.chain_record))
        self._append(AUDIT_LOG, state.audit.commit())
        units = self._unwritten(BANK_LOG, state.bank.units)
        self._append(BANK_LOG, map(EvidenceUnit.to_dict, units))
        texts = self._unwritten(EMBED_LOG, state.embeddings.items())
        self._append(EMBED_LOG, map(_embed_record, texts))
        if done:
            self._replace(BANK_FILE, state.bank.to_document())
        if state.report is not None:
            self._replace(REPORT_FILE, state.report)
        # A spilled replay holds calls made after the checkpoint before this one.
        self._unlink(REPLAY_FILE)
        self._replace(STATE_FILE, _document(state_document(state)))

    def reopen(self, state, config: RunConfig) -> list[tuple]:
        """Cut each log where the committed ``state``, which ``load`` returned,
        ends it, and return the exchanges the replay holds. A ``config`` other
        than the committed one is a ConfigError, raised before any log is cut."""
        if config != state.config:
            raise ConfigError(
                f"{STATE_FILE} commits the config {state.config.to_dict()}, not {config.to_dict()}"
            )
        replay = self.read(REPLAY_FILE, _replay_exchanges) if self._exists(REPLAY_FILE) else []
        for name in _LOGS:
            self._cut(name)
        self._written = {BANK_LOG: len(state.bank), EMBED_LOG: len(state.embeddings)}
        return replay

    def spill(self, exchanges: list[tuple]) -> None:
        """Keep what a failed attempt got in replay.jsonl; with nothing to keep, delete it."""
        if exchanges:
            self._replace(REPLAY_FILE, "".join(_document(_replay_record(e)) for e in exchanges))
        else:
            self._unlink(REPLAY_FILE)
