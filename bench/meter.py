"""Provider proxies: count and time every call the engine makes to the four
provider stand-ins, so engine time can exclude provider time.

The proxies sit in the ``Providers`` bundle handed to the engine; nothing in
the engine changes. Counting happens inside the timed window, so the proxies'
own cost is booked as provider time, not engine time.

The shared host runs a fixed loop up to 1.7x slower in phases that last
minutes, which no repetition count averages out. So while the engine runs,
a timer signal interrupts it every ``REFERENCE_EVERY_S`` to time a fixed
reference task. That time is taken out of the engine's, and each segment
of the engine's time is scaled by the median of the reference timings
taken during it or nearest to it: it is reported in seconds at the host
speed at which the reference task takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dualgraph.providers.base import ChatProviderError, FetchError, Providers

REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.03
# A segment is scaled by the reference tasks timed while it ran, and at
# least this many: the nearest to its middle when fewer ran within it.
REFERENCE_NEAREST = 15
_MATRIX = np.arange(4096, dtype=float).reshape(64, 64) / 4096.0


def reference_task() -> None:
    """A fixed mix of the engine's kinds of work: dicts, strings, JSON,
    sorting and a small matrix product. About 3 ms on a quiet host."""
    table = {f"k{i}": [i, str(i * 7919 % 1000)] for i in range(3000)}
    json.dumps(table)
    sorted(table, key=lambda k: table[k][1])
    _MATRIX @ _MATRIX


def time_reference() -> tuple[float, float]:
    """Start and end of one reference task, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_task()
        return t0, perf_counter()
    finally:
        if enabled:
            gc.enable()


def host_scale(reference_times: list[float]) -> float:
    """Factor that turns seconds measured now into reference seconds."""
    return REFERENCE_S / statistics.median(reference_times)


class InjectedFault(ChatProviderError):
    """A chat failure the benchmark injects to exercise resume."""


class Meter:
    """Counters of the provider calls of one workload run, and the engine's
    time between them.

    From ``start()`` to ``stop()``, wall time outside provider calls and
    reference tasks is engine time. It is kept as segments, split at every
    provider call and at every ``cut()``, so that repeated runs of one input
    can be compared piece by piece.

    ``faults`` holds 1-based chat attempt numbers that raise
    ``InjectedFault`` instead of reaching the stand-in. When ``tracer`` is
    set, every provider call is also recorded as a span and no reference
    task runs, so that spans hold only the engine's work.
    """

    def __init__(self, faults: frozenset[int] = frozenset()):
        self.counts: Counter[str] = Counter()
        self.segments: list[float] = []
        # (start, end) of each segment in wall time, references included
        self.spans: list[tuple[float, float]] = []
        self.faults = faults
        self.tracer = None
        # (start, end) of each reference task, in time order
        self.references: list[tuple[float, float]] = []
        self._next_reference = 0
        self._engine_since: float | None = None

    def attach(self, tracer) -> None:
        self.tracer = tracer
        if tracer is not None:
            tracer.meter = self

    def _on_alarm(self, signum, frame) -> None:
        self.references.append(time_reference())

    def start(self) -> None:
        if self.tracer is None:
            self.references.append(time_reference())
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        self._engine_since = perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cut(self) -> None:
        now = perf_counter()
        since = self._engine_since
        # The signal handler runs to its end before the main line resumes,
        # so every reference task that started before ``now`` also ended
        # before it.
        paused, refs, i = 0.0, self.references, self._next_reference
        while i < len(refs) and refs[i][0] < now:
            paused += max(0.0, refs[i][1] - max(refs[i][0], since))
            i += 1
        self._next_reference = i
        self.segments.append(now - since - paused)
        self.spans.append((since, now))
        self._engine_since = now

    def scaled_segments(self) -> list[float]:
        """Segments in reference seconds; unscaled for traced runs."""
        refs = self.references
        if not refs:
            return list(self.segments)
        starts = [start for start, _ in refs]
        times = [end - start for start, end in refs]
        k = min(REFERENCE_NEAREST, len(refs))
        out = []
        for seg, (since, until) in zip(self.segments, self.spans):
            lo, hi = bisect_left(starts, since), bisect_right(starts, until)
            if hi - lo < k:
                lo = min(max(0, bisect_left(starts, (since + until) / 2) - k // 2), len(refs) - k)
                hi = lo + k
            out.append(seg * host_scale(times[lo:hi]))
        return out

    @contextmanager
    def timed(self, provider: str):
        tracer = self.tracer
        span = tracer.begin(f"providers.{provider}") if tracer is not None and tracer.stack else None
        if self._engine_since is not None:
            self.cut()
        try:
            yield
        finally:
            if self._engine_since is not None:
                self._engine_since = perf_counter()
            if span is not None:
                tracer.end(span)


class ChatProxy:
    def __init__(self, inner, meter: Meter):
        self.inner = inner
        self.meter = meter

    def complete(self, prompt: str) -> str:
        counts = self.meter.counts
        with self.meter.timed("chat"):
            counts["chat.calls"] += 1
            if counts["chat.calls"] in self.meter.faults:
                raise InjectedFault(f"injected fault at chat attempt {counts['chat.calls']}")
            counts["chat.prompt_bytes"] += len(prompt.encode("utf-8"))
            response = self.inner.complete(prompt)
            counts["chat.response_bytes"] += len(response.encode("utf-8"))
        return response


class SearchProxy:
    def __init__(self, inner, meter: Meter):
        self.inner = inner
        self.meter = meter

    def search(self, query: str, top_n: int):
        with self.meter.timed("search"):
            self.meter.counts["search.calls"] += 1
            return self.inner.search(query, top_n)


class FetchProxy:
    def __init__(self, inner, meter: Meter):
        self.inner = inner
        self.meter = meter

    def fetch(self, url: str) -> str:
        with self.meter.timed("fetch"):
            self.meter.counts["fetch.calls"] += 1
            try:
                return self.inner.fetch(url)
            except FetchError:
                self.meter.counts["fetch.errors"] += 1
                raise


class EmbedProxy:
    def __init__(self, inner, meter: Meter):
        self.inner = inner
        self.meter = meter

    def embed(self, texts):
        with self.meter.timed("embed"):
            self.meter.counts["embed.calls"] += 1
            self.meter.counts["embed.texts"] += len(texts)
            return self.inner.embed(texts)


def metered(providers: Providers, meter: Meter) -> Providers:
    return Providers(
        chat=ChatProxy(providers.chat, meter),
        search=SearchProxy(providers.search, meter),
        fetch=FetchProxy(providers.fetch, meter),
        embed=EmbedProxy(providers.embed, meter),
    )
