"""Hypergraphs with hyperedge multiplicities, hypertree tests, and the two
melonic detectors.

A hyperedge is a multiset of vertices; a vertex may sit in a hyperedge with
inner multiplicity l_v(e) >= 2, and identical multisets collapse into one
hyperedge carrying an outer multiplicity m(e).  Cycle detection runs on the
incidence bipartite multigraph (one node per vertex, one per distinct
hyperedge, l_v(e) parallel links), so outer multiplicities never create
cycles: that is exactly what makes double hypertrees acyclic objects.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation
from .maps import (
    CombinatorialMap,
    EdgePartition,
    Hypermap,
    cycles,
    dual,
    edge_list,
    merge_edges,
    multigraph,
)


class DisjointSets:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


class Hypergraph:
    """Vertex set {0, ..., num_vertices-1} plus hyperedges with multiplicity.

    ``edges`` holds the distinct hyperedges as sorted vertex tuples (inner
    repetitions spelled out), ``mult`` the outer multiplicity of each.  A
    reduced hypergraph is the same object with every multiplicity forced to 1.
    """

    __slots__ = ("num_vertices", "edges", "mult")

    def __init__(self, num_vertices: int, edges: Iterable, mult: Optional[Iterable[int]] = None):
        edges = [tuple(sorted(e)) for e in edges]
        if mult is None:
            counted = Counter(edges)
            items = sorted(counted.items())
            edges = [e for e, _ in items]
            mult = [m for _, m in items]
        else:
            mult = list(mult)
            if len(mult) != len(edges):
                raise ContractViolation("mult must align with edges")
            pairs = sorted(zip(edges, mult))
            edges = [e for e, _ in pairs]
            mult = [m for _, m in pairs]
            if len(set(edges)) != len(edges):
                raise ContractViolation("duplicate hyperedges; fold them into mult")
        for e in edges:
            if not e:
                raise ContractViolation("empty hyperedge")
            if any(not 0 <= v < num_vertices for v in e):
                raise ContractViolation("hyperedge vertex out of range")
        for m in mult:
            if m < 1:
                raise ContractViolation("hyperedge multiplicity must be >= 1")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "mult", tuple(mult))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
            and self.mult == other.mult
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges, self.mult))

    def __repr__(self) -> str:
        parts = ", ".join(f"{list(e)}x{m}" for e, m in zip(self.edges, self.mult))
        return f"Hypergraph({self.num_vertices}; {parts})"

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.mult)

    def reduced(self) -> "Hypergraph":
        """Forget the outer multiplicities."""
        return Hypergraph(self.num_vertices, self.edges, [1] * len(self.edges))


def hypergraph_of(b: Hypermap) -> Hypergraph:
    """The hypergraph of a hypermap: vertices are the sigma-cycles, and each
    tau-cycle contributes the multiset of sigma-cycles its halfedges sit in.
    Equal multisets collapse into one hyperedge with higher multiplicity."""
    vertices = cycles(b.sigma)
    vid = {h: v for v, cyc in enumerate(vertices) for h in cyc}
    edges = [tuple(sorted(vid[h] for h in cyc)) for cyc in cycles(b.tau)]
    return Hypergraph(len(vertices), edges)


def _incidence(h: Hypergraph) -> tuple[bool, int]:
    """One union-find pass over the incidence bipartite multigraph (a node
    per vertex and per distinct hyperedge, l_v(e) links between them): has
    it a cycle, that is more links than merges, and how many components.
    A vertex of inner multiplicity >= 2 inside a hyperedge is a length-1
    cycle; outer multiplicities m(e) are ignored (they belong to the
    reduced view)."""
    nv = h.num_vertices
    nodes = nv + len(h.edges)
    ds = DisjointSets(nodes)
    merges = sum(ds.union(v, nv + i) for i, e in enumerate(h.edges) for v in e)
    return sum(map(len, h.edges)) > merges, nodes - merges


def is_hypertree(h: Hypergraph) -> bool:
    """Connected (at most one node counts) and acyclic, as a simple
    hypergraph.

    Raises if outer multiplicities are present; reduce first.
    """
    if not h.is_simple():
        raise ContractViolation("is_hypertree expects a reduced (simple) hypergraph")
    cyclic, components = _incidence(h)
    return components <= 1 and not cyclic


def is_double_hypertree(h: Hypergraph) -> bool:
    """Every hyperedge has outer multiplicity exactly 2 and the reduced
    hypergraph is a hypertree."""
    if not h.edges:
        return False
    return all(m == 2 for m in h.mult) and is_hypertree(h.reduced())


def euler_deficiency(h: Hypergraph, p: int) -> int:
    """1 - |V| + (p-1)|E| for a connected p-uniform simple hypergraph.

    Nonnegative, and zero exactly on hypertrees.
    """
    if not h.is_simple():
        raise ContractViolation("euler_deficiency expects a reduced hypergraph")
    if any(len(e) != p for e in h.edges):
        raise ContractViolation("hypergraph is not p-uniform")
    if _incidence(h)[1] > 1:
        raise ContractViolation("hypergraph is not connected")
    return 1 - h.num_vertices + (p - 1) * len(h.edges)


def _peel(p: int, edges: Sequence[tuple[int, int]], record: Optional[DisjointSets]) -> bool:
    """Shared melon-peeling loop on the p-regular multigraph of these edges.

    Repeatedly finds a vertex pair joined by p-1 parallel edges, removes the
    pair and splices the two external halfedges into one edge; succeeds when
    only the 2-vertex melon remains.  When ``record`` is given, the two
    spliced edges are merged in it, building the edge partition that folds
    the dual hypergraph into a double hypertree.
    """
    # live edges as (carrier edge id, u, v); carrier ids index the uf classes
    live = [(i, u, v) for i, (u, v) in enumerate(edges)]
    while True:
        pair_count: Counter = Counter()
        for _, u, v in live:
            if u != v:
                pair_count[(u, v)] += 1
        vertices = {u for _, u, v in live} | {v for _, u, v in live}
        if len(vertices) == 2 and len(live) == p and list(pair_count.values()) == [p]:
            return True
        target = None
        for (u, v), c in sorted(pair_count.items()):
            if c == p - 1:
                target = (u, v)
                break
        if target is None:
            return False
        u, v = target
        external = [t for t in live if (t[1] in (u, v)) != (t[2] in (u, v))]
        if len(external) != 2:
            return False
        (ia, ua, va), (ib, ub, vb) = external
        x = ua if ua not in (u, v) else va
        y = ub if ub not in (u, v) else vb
        if record is not None:
            record.union(ia, ib)
        live = [t for t in live if t[1] not in (u, v) and t[2] not in (u, v)]
        live.append((ia, min(x, y), max(x, y)))


def is_melonic_graph(b: CombinatorialMap) -> bool:
    """Recursive detector: G(b) reduces to the melon by repeatedly collapsing
    a vertex pair joined by p-1 parallel edges."""
    if b.p < 3:
        raise ContractViolation("melonic detectors require p >= 3")
    return _peel(b.p, multigraph(b), None)


def melonic_partition(b: CombinatorialMap) -> Optional[EdgePartition]:
    """The unique edge partition pi with H(dual(b_pi)) a double hypertree,
    or None when b is not melonic.

    Peeling collapses melon pairs from the leaves inward; each splice forces
    the two external edges into a common block (their hyperedges must merge
    into the two copies of one double hyperedge), and for p >= 3 no other
    choice is possible, which is what makes pi unique.  Unsupported at p = 2,
    where several non-crossing partitions work.
    """
    if b.p < 3:
        raise ContractViolation("melonic_partition requires p >= 3")
    m = len(edge_list(b))
    ds = DisjointSets(m)
    if not _peel(b.p, multigraph(b), ds):
        return None
    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(ds.find(e), []).append(e)
    pi = EdgePartition(groups.values(), m)
    folded = hypergraph_of(dual(merge_edges(b, pi)))
    if not is_double_hypertree(folded):
        raise RuntimeError("peeling produced a partition that is not well folded")
    return pi
