"""Seeded community detection on undirected simple graphs.

Implements the three-phase scheme of local moving, refinement, and graph
aggregation, optimizing standard modularity (resolution 1). Refinement splits
each community into connected sub-communities before aggregating, so every
emitted community is internally connected. All node orderings come from one
seeded RNG and ties break on the smallest community index, which makes the
result a pure function of (graph, seed).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Hashable, Iterable, Sequence

__all__ = ["leiden_partition", "modularity"]

_EPS = 1e-12


def _build_index(
    nodes: Sequence[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> tuple[dict[Hashable, int], list[dict[int, float]]]:
    idx = {v: i for i, v in enumerate(nodes)}
    adj: list[dict[int, float]] = [dict() for _ in nodes]
    for u, v in edges:
        if u not in idx or v not in idx:
            raise ValueError(f"edge endpoint not in node list: {(u, v)!r}")
        a, b = idx[u], idx[v]
        if a != b:  # simple projection: no self-loops, repeated pairs weigh 1
            adj[a][b] = adj[b][a] = 1.0
    return idx, adj


def modularity(
    nodes: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    partition: dict[Hashable, int],
) -> float:
    """Standard undirected modularity; 0.0 for an edgeless graph."""
    idx, adj = _build_index(nodes, edges)
    m = sum(sum(nbrs.values()) for nbrs in adj) / 2.0
    if m == 0:
        return 0.0
    comm = [partition[v] for v in nodes]
    intra: dict[int, float] = {}
    deg_tot: dict[int, float] = {}
    for i, v in enumerate(nodes):
        c = comm[i]
        deg_tot[c] = deg_tot.get(c, 0.0) + sum(adj[i].values())
        for j, w in adj[i].items():
            if j > i and comm[j] == c:
                intra[c] = intra.get(c, 0.0) + w
    q = 0.0
    for c, d in deg_tot.items():
        q += intra.get(c, 0.0) / m - (d / (2.0 * m)) ** 2
    return q


class _Level:
    """Working graph for one aggregation level (integer nodes, weighted)."""

    def __init__(self, adj: list[dict[int, float]], loops: list[float]):
        self.adj = adj
        self.loops = loops
        self.n = len(adj)
        self.deg = [sum(nbrs.values()) + 2.0 * loops[i] for i, nbrs in enumerate(adj)]
        self.m = (sum(self.deg)) / 2.0

    def local_move(self, comm: list[int], rng: random.Random) -> bool:
        """Queue-driven greedy moving; returns True if anything moved."""
        if self.m == 0:
            return False
        sigma: dict[int, float] = {}
        csize: dict[int, int] = {}
        for i in range(self.n):
            sigma[comm[i]] = sigma.get(comm[i], 0.0) + self.deg[i]
            csize[comm[i]] = csize.get(comm[i], 0) + 1
        order = list(range(self.n))
        rng.shuffle(order)
        queue = deque(order)
        queued = [True] * self.n
        moved_any = False
        two_m = 2.0 * self.m
        while queue:
            i = queue.popleft()
            queued[i] = False
            a = comm[i]
            k_i = self.deg[i]
            links: dict[int, float] = {}
            for j, w in self.adj[i].items():
                links[comm[j]] = links.get(comm[j], 0.0) + w
            base = links.get(a, 0.0) - k_i * (sigma[a] - k_i) / two_m
            best_c = a
            best_gain = 0.0
            for c in sorted(links):
                if c == a:
                    continue
                gain = (links[c] - k_i * sigma[c] / two_m) - base
                if gain > best_gain + _EPS:
                    best_gain = gain
                    best_c = c
            # Leaving for an empty community is also a legal move.
            gain_out = -base
            if gain_out > best_gain + _EPS:
                best_gain = gain_out
                best_c = self._fresh_label(csize)
            if best_c != a:
                comm[i] = best_c
                sigma[a] -= k_i
                sigma[best_c] = sigma.get(best_c, 0.0) + k_i
                csize[a] -= 1
                csize[best_c] = csize.get(best_c, 0) + 1
                moved_any = True
                for j in self.adj[i]:
                    if comm[j] != best_c and not queued[j]:
                        queue.append(j)
                        queued[j] = True
        return moved_any

    @staticmethod
    def _fresh_label(csize: dict[int, int]) -> int:
        label = 0
        while csize.get(label, 0) > 0:
            label += 1
        return label

    def refine(self, comm: list[int], rng: random.Random) -> list[int]:
        """Split each community into connected sub-communities by greedy merging."""
        refined = list(range(self.n))
        if self.m == 0:
            return refined
        sub_sigma = {i: self.deg[i] for i in range(self.n)}
        sub_size = {i: 1 for i in range(self.n)}
        order = list(range(self.n))
        rng.shuffle(order)
        two_m = 2.0 * self.m
        for i in order:
            if sub_size[refined[i]] > 1:
                continue  # only singletons merge, as in the refinement phase
            k_i = self.deg[i]
            links: dict[int, float] = {}
            for j, w in self.adj[i].items():
                if comm[j] == comm[i]:
                    links[refined[j]] = links.get(refined[j], 0.0) + w
            links.pop(refined[i], None)
            best_s: int | None = None
            best_gain = 0.0
            for s in sorted(links):
                gain = (links[s] - k_i * sub_sigma[s] / two_m) - (
                    -k_i * (sub_sigma[refined[i]] - k_i) / two_m
                )
                if gain > best_gain + _EPS:
                    best_gain = gain
                    best_s = s
            if best_s is not None:
                old = refined[i]
                refined[i] = best_s
                sub_sigma[best_s] += k_i
                sub_sigma[old] -= k_i
                sub_size[best_s] += 1
                sub_size[old] -= 1
        return refined

    def aggregate(
        self, refined: list[int], comm: list[int]
    ) -> tuple["_Level", list[int], list[int]]:
        """Collapse refined sub-communities into single nodes."""
        labels = sorted(set(refined))
        remap = {lab: i for i, lab in enumerate(labels)}
        membership = [remap[refined[i]] for i in range(self.n)]
        n_new = len(labels)
        adj_new: list[dict[int, float]] = [dict() for _ in range(n_new)]
        loops_new = [0.0] * n_new
        for i in range(self.n):
            gi = membership[i]
            loops_new[gi] += self.loops[i]
            for j, w in self.adj[i].items():
                if j < i:
                    continue
                gj = membership[j]
                if gi == gj:
                    loops_new[gi] += w
                else:
                    adj_new[gi][gj] = adj_new[gi].get(gj, 0.0) + w
                    adj_new[gj][gi] = adj_new[gj].get(gi, 0.0) + w
        comm_new = [0] * n_new
        for i in range(self.n):
            comm_new[membership[i]] = comm[i]
        return _Level(adj_new, loops_new), comm_new, membership


def leiden_partition(
    nodes: Sequence[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    seed: int = 0,
) -> dict[Hashable, int]:
    """Partition nodes into communities; labels are contiguous from 0.

    Labels are assigned by first appearance in the given node order, so equal
    inputs yield byte-identical partitions.
    """
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node in node list")
    if not nodes:
        return {}
    _, adj = _build_index(nodes, edges)
    rng = random.Random(seed)
    level = _Level(adj, [0.0] * len(adj))
    comm = list(range(level.n))
    # membership chain maps original node index to current level node index
    chain = list(range(level.n))
    while True:
        moved = level.local_move(comm, rng)
        refined = level.refine(comm, rng)
        distinct = len(set(refined))
        if not moved and distinct == level.n:
            break
        level, comm, membership = level.aggregate(refined, comm)
        chain = [membership[c] for c in chain]
        if level.n <= 1:
            break

    raw = [comm[chain[i]] for i in range(len(nodes))]
    relabel: dict[int, int] = {}
    result: dict[Hashable, int] = {}
    for i, v in enumerate(nodes):
        c = raw[i]
        if c not in relabel:
            relabel[c] = len(relabel)
        result[v] = relabel[c]
    return result
