"""The benchmark's own correctness oracle: Kruskal over a union-find.

Nothing here imports the program.  Edges are ``{(u, v): w}`` maps with
``u < v``; ties are broken by ``(w, u, v)``, the total order the program
documents, so the minimum spanning forest is unique.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

Pair = Tuple[int, int]


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal(n: int, edges: Dict[Pair, float]) -> Dict[Pair, float]:
    """The minimum spanning forest of ``edges`` on vertices ``0..n-1``."""
    uf = UnionFind(n)
    forest: Dict[Pair, float] = {}
    for w, u, v in sorted((w, u, v) for (u, v), w in edges.items()):
        if uf.union(u, v):
            forest[(u, v)] = w
    return forest


def labels(n: int, pairs: Iterable[Pair]) -> List[int]:
    """Component representative of every vertex under ``pairs``."""
    uf = UnionFind(n)
    for u, v in pairs:
        uf.union(u, v)
    return [uf.find(x) for x in range(n)]


def apply_op(edges: Dict[Pair, float], op) -> None:
    """Apply one ("add", u, v, w) / ("delete", u, v, _) to an edge map."""
    kind, u, v, w = op
    pair = (u, v) if u < v else (v, u)
    if kind == "add":
        edges[pair] = w
    else:
        del edges[pair]


def forest_diff(got: Dict[Pair, float], want: Dict[Pair, float]) -> int:
    """How many forest edges differ (by pair or weight) between two forests."""
    return len(set(got.items()) ^ set(want.items()))
