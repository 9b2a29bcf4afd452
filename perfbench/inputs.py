"""Seeded inputs for every workload.

Everything here runs before any timing and costs time linear in what it
draws: present edges live in a list with an index map, so a uniformly
random deletion is a swap-remove, and absent pairs come from rejection
sampling against a set.  The program only ever sees the results.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Pair = Tuple[int, int]
#: One mutation as the benchmark sends it: ("add", u, v, w) or ("delete", u, v, None).
Op = Tuple[str, int, int, object]


def norm(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def random_graph(n: int, m: int, rng: random.Random) -> Dict[Pair, float]:
    """A connected graph: a random spanning tree plus random extra pairs."""
    order = list(range(n))
    rng.shuffle(order)
    edges: Dict[Pair, float] = {}
    for i in range(1, n):
        edges[norm(order[i], order[rng.randrange(i)])] = rng.random()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and norm(u, v) not in edges:
            edges[norm(u, v)] = rng.random()
    return edges


def absent_pair(n: int, rng: random.Random, *taken) -> Pair:
    """A uniformly random non-loop pair in none of the ``taken`` sets."""
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        p = norm(u, v)
        if u != v and not any(p in t for t in taken):
            return p


def read_pair(n: int, rng: random.Random) -> Pair:
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    return (u, v if v < u else v + 1)


class _Pool:
    """A set of pairs with uniform random removal by swap-remove."""

    def __init__(self, pairs) -> None:
        self.items = list(pairs)
        self.index = {p: i for i, p in enumerate(self.items)}

    def add(self, p: Pair) -> None:
        self.index[p] = len(self.items)
        self.items.append(p)

    def pop_random(self, rng: random.Random) -> Pair:
        i = rng.randrange(len(self.items))
        p, last = self.items[i], self.items.pop()
        if last != p:
            self.items[i] = last
            self.index[last] = i
        del self.index[p]
        return p


#: The weight range of an insertion meant to enter the forest, and of
#: one meant to stay out of it.
LIGHT = (0.0, 0.01)
HEAVY = (0.5, 1.0)


def churn_batches(
    n: int, edges: Dict[Pair, float], forest, count: int, k: int, rng: random.Random
) -> List[List[Op]]:
    """``count`` pair-disjoint batches of k updates, each valid against the
    graph the batches before it leave.

    Every batch has the same make-up: k/2 deletions, one of a forest edge
    and the rest of other edges, and k/2 insertions of absent pairs, one
    light enough to enter the forest and the rest heavy.  A batch's cost
    depends mostly on how many forest edges it deletes and inserts; drawn
    at random, that count spreads batch times over two clusters and puts
    the median between them.  Forest membership is the initial forest's
    (``forest``, the oracle's), updated by the batches' own choices.
    """
    tree = _Pool(p for p in sorted(edges) if p in forest)
    rest = _Pool(p for p in sorted(edges) if p not in forest)
    live = set(edges)
    out: List[List[Op]] = []
    for _ in range(count):
        batch: List[Op] = []
        gone = set()
        for j in range(k // 2):
            p = (tree if j == 0 else rest).pop_random(rng)
            live.discard(p)
            gone.add(p)
            batch.append(("delete", p[0], p[1], None))
        for j in range(k - k // 2):
            p = absent_pair(n, rng, live, gone)
            live.add(p)
            (tree if j == 0 else rest).add(p)
            lo, hi = LIGHT if j == 0 else HEAVY
            batch.append(("add", p[0], p[1], rng.uniform(lo, hi)))
        out.append(batch)
    return out


def toggle_ops(order: List[Pair], initial, light, rng: random.Random) -> List[Op]:
    """One mutation per pair of ``order``, toggling it: delete when the
    pair is present, insert when it is absent.  Valid in emission order,
    whatever the daemon coalesces.  A pair in ``light`` (an initial forest
    edge) comes back light enough to re-enter the forest; any other pair
    is inserted heavy."""
    present: Dict[Pair, bool] = {}
    ops: List[Op] = []
    for p in order:
        here = present.get(p, p in initial)
        if here:
            ops.append(("delete", p[0], p[1], None))
        else:
            lo, hi = LIGHT if p in light else HEAVY
            ops.append(("add", p[0], p[1], rng.uniform(lo, hi)))
        present[p] = not here
    return ops


def owned_pairs(
    n: int, edges: Dict[Pair, float], forest, owners: int, per_owner: int, rng: random.Random
) -> List[List[Pair]]:
    """Disjoint pair slices, half present edges and half absent pairs each.

    The present half holds minimum-spanning-forest edges (``forest``, the
    oracle's) in the share the whole graph has, so every seed deletes the
    same mix of forest and non-forest edges: deleting a forest edge costs
    a replacement search, and a share left to chance would move the
    rounds per update from seed to seed.  Each slice interleaves forest
    edges, other edges and absent pairs in an order that depends only on
    their counts.
    """
    tree = [p for p in sorted(edges) if p in forest]
    rest = [p for p in sorted(edges) if p not in forest]
    rng.shuffle(tree)
    rng.shuffle(rest)
    half = per_owner // 2
    from_tree = round(half * len(tree) / len(edges))
    taken = set(edges)
    slices: List[List[Pair]] = []
    for c in range(owners):
        absent = []
        for _ in range(per_owner - half):
            p = absent_pair(n, rng, taken)
            taken.add(p)
            absent.append(p)
        slices.append(_interleave([
            tree[c * from_tree:(c + 1) * from_tree],
            rest[c * (half - from_tree):(c + 1) * (half - from_tree)],
            absent,
        ]))
    return slices


def _interleave(groups: List[List[Pair]]) -> List[Pair]:
    """Merge ``groups`` evenly, in an order that depends only on their
    sizes: item j of a group of size s sits at (j + 1/2) / s."""
    keyed = [((j + 0.5) / len(g), gi, p) for gi, g in enumerate(groups) for j, p in enumerate(g)]
    return [p for _key, _gi, p in sorted(keyed)]
