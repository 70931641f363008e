"""Combinatorial maps and hypermaps as permutation pairs on halfedges.

A map is a pair of permutations (sigma, tau) on the halfedge set
{0, ..., |Q|-1}: the cycles of sigma are the vertices, the cycles of tau the
(hyper)edges.  For a p-regular map every sigma-cycle has length p and tau is
a fixed-point-free involution; merging tau-cycles along an edge partition
yields a hypermap.  Rooted maps are marked at one halfedge and compared up to
root-preserving relabelling.

Edge indexing convention used throughout the package: the edges of a map are
its tau-cycles sorted by minimal halfedge, and an ``EdgePartition`` refers to
these indices.  Maps with isomorphic multigraphs form one trace class: the
trace invariant of a symmetric tensor and its expectation depend on the
class only, and are computed from a network (``_Network``) per class.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .counting import count_rooted_maps
from .errors import ContractViolation, InvalidPartitionError, ResourceLimitError

# admits (7, 2): 19,305 maps, enumerated and grouped in 0.25 s, 0.4 s with every
# map built (enumerate, classify), on a shared 2-core x86-64 host
_MAP_GUARD = 20_000


class Permutation:
    """A permutation of {0, ..., n-1} stored by its image array."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        seen = [False] * n
        for v in image:
            if not 0 <= v < n or seen[v]:
                raise ContractViolation(f"not a bijection of range({n}): {image}")
            seen[v] = True
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __call__(self, h: int) -> int:
        return self.image[h]

    def __len__(self) -> int:
        return len(self.image)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"

    def is_involution(self) -> bool:
        image = self.image
        return all(image[v] == h for h, v in enumerate(image))

    def has_fixed_point(self) -> bool:
        return any(v == h for h, v in enumerate(self.image))


def cycles(perm: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition; each cycle starts at its minimal element and the
    list is sorted by those minima.

    >>> cycles(Permutation([1, 2, 0, 4, 5, 3]))
    [(0, 1, 2), (3, 4, 5)]
    >>> cycles(Permutation([0, 1, 2]))
    [(0,), (1,), (2,)]
    """
    image = perm.image
    seen = [False] * len(image)
    out = []
    for start in range(len(image)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        h = image[start]
        while h != start:
            seen[h] = True
            cyc.append(h)
            h = image[h]
        out.append(tuple(cyc))
    return out


class Hypermap:
    """Pair of permutations on a common halfedge set, optionally rooted.

    Vertices are the cycles of ``sigma``, hyperedges the cycles of ``tau``.
    """

    __slots__ = ("sigma", "tau", "root")

    def __init__(self, sigma: Permutation, tau: Permutation, root: Optional[int] = None):
        if len(sigma) != len(tau):
            raise ContractViolation("sigma and tau act on different halfedge sets")
        if root is not None and not 0 <= root < len(sigma):
            raise ContractViolation(f"root {root} outside halfedge range")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "root", root)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self) -> int:
        """Number of halfedges."""
        return len(self.sigma)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.sigma == other.sigma
            and self.tau == other.tau
            and self.root == other.root
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sigma, self.tau, self.root))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sigma={list(self.sigma.image)}, tau={list(self.tau.image)}, root={self.root})"


class CombinatorialMap(Hypermap):
    """p-regular combinatorial map: sigma has only p-cycles and tau is a
    fixed-point-free involution (every edge is a 2-cycle)."""

    __slots__ = ("p",)

    def __init__(self, p: int, sigma: Permutation, tau: Permutation, root: Optional[int] = None):
        super().__init__(sigma, tau, root)
        if p < 2:
            raise ContractViolation("vertex valence p must be at least 2")
        if any(len(c) != p for c in cycles(sigma)):
            raise ContractViolation("sigma has a cycle of length != p")
        if not tau.is_involution() or tau.has_fixed_point():
            raise ContractViolation("tau must be a fixed-point-free involution")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.size // self.p

    def __hash__(self) -> int:
        return hash((self.p, self.sigma, self.tau, self.root))

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.p == other.p


class EdgePartition:
    """Set partition of the edge index range {0, ..., m-1}.

    Blocks are normalised to sorted tuples, listed by minimal element.
    """

    __slots__ = ("blocks", "m")

    def __init__(self, blocks, m: Optional[int] = None):
        norm = sorted(tuple(sorted(b)) for b in blocks)
        flat = [e for b in norm for e in b]
        size = m if m is not None else len(flat)
        if sorted(flat) != list(range(size)) or any(not b for b in norm):
            raise InvalidPartitionError(f"blocks {list(blocks)} do not partition range({size})")
        object.__setattr__(self, "blocks", tuple(norm))
        object.__setattr__(self, "m", size)

    def __setattr__(self, name, value):
        raise AttributeError("EdgePartition is immutable")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgePartition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"EdgePartition({[list(b) for b in self.blocks]})"


def dual(b: Hypermap) -> Hypermap:
    """The dual hypermap (tau, sigma); vertices and hyperedges swap roles."""
    return Hypermap(b.tau, b.sigma, b.root)


def edge_list(b: CombinatorialMap) -> list[tuple[int, int]]:
    """Edges as halfedge pairs (h, tau(h)) with h < tau(h), sorted by h.

    The position in this list is the edge index used by ``EdgePartition``.
    """
    return [tuple(c) for c in cycles(b.tau)]


def multigraph(b: CombinatorialMap) -> list[tuple[int, int]]:
    """The underlying multigraph G(b): one sorted vertex pair per edge,
    in edge-index order (self-loops appear as (v, v))."""
    return _network_edges(_vertex_edge_ids(b))


def merge_edges(b: CombinatorialMap, pi: EdgePartition) -> Hypermap:
    """The hypermap b_pi: tau-cycles within one block of pi are merged.

    The merged cycle concatenates the member 2-cycles sorted by minimal
    halfedge.  Downstream evaluation only reads which halfedges share a
    hyperedge, so the cyclic order inside a merged cycle is a free choice;
    this one makes the output deterministic.
    """
    edges = edge_list(b)
    if pi.m != len(edges):
        raise InvalidPartitionError(
            f"partition of {pi.m} edges applied to a map with {len(edges)} edges"
        )
    image = list(range(b.size))
    for block in pi.blocks:
        run = [h for e in block for h in edges[e]]
        for i, h in enumerate(run):
            image[h] = run[(i + 1) % len(run)]
    return Hypermap(b.sigma, Permutation(image), b.root)


def _bfs_labels(sigma: Sequence[int], tau: Sequence[int], start: int) -> list[int]:
    """Discovery index of every halfedge under the deterministic traversal
    from ``start`` (advance along sigma, then cross tau), read from the two
    permutations' images.  -1 if unreached."""
    label = [-1] * len(sigma)
    label[start] = 0
    queue = [start]
    for h in queue:  # the loop also visits the halfedges appended below
        for g in (sigma[h], tau[h]):
            if label[g] == -1:
                label[g] = len(queue)
                queue.append(g)
    return label


def _code(p: int, n: int, sigma: Sequence[int], tau: Sequence[int], root: int) -> tuple[int, ...]:
    """``canonical_code`` of the rooted map with these sigma and tau images."""
    label = _bfs_labels(sigma, tau, root)
    if min(label) < 0:
        raise ContractViolation("canonical_code requires a connected map")
    nq = len(sigma)
    code = [0] * (2 * nq)
    for h, lh in enumerate(label):
        code[lh] = label[sigma[h]]
        code[nq + lh] = label[tau[h]]
    return (p, n, *code)


def canonical_code(b: CombinatorialMap) -> tuple[int, ...]:
    """Relabel halfedges by traversal discovery order from the root and read
    off the permutation images.

    The traversal order is equivariant under root-preserving relabelling, so
    equal codes characterise equivalent rooted maps.
    """
    if b.root is None:
        raise ContractViolation("canonical_code requires a rooted map")
    return _code(b.p, b.n, b.sigma.image, b.tau.image, b.root)


def _canonical_sigma(p: int, n: int) -> Permutation:
    """n consecutive p-cycles (0,...,p-1)(p,...,2p-1)..."""
    image = []
    for v in range(n):
        base = v * p
        image.extend(base + (i + 1) % p for i in range(p))
    return Permutation(image)


def _check_map_budget(p: int, n: int) -> None:
    """Refuse B_n^(p) before any map is built when it has over _MAP_GUARD maps."""
    count = count_rooted_maps(p, n)
    if count > _MAP_GUARD:
        raise ResourceLimitError(f"{count} maps at p={p}, n={n} exceed the map budget {_MAP_GUARD}")


@lru_cache(maxsize=None)
def _coded_taus(p: int, n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(canonical code, tau image) of every rooted connected p-regular map
    with n vertices, one per root-preserving relabelling class, sorted by
    code.  No map object is built.

    sigma is fixed as n consecutive p-cycles and the root is halfedge 0,
    which loses no generality.  Rather than enumerating all perfect matchings
    and deduplicating, the search generates exactly one matching per class:
    rooting makes the relabelling action free, and each class contains a
    unique matching for which the root traversal discovers vertices in index
    order, entering each new vertex at its first halfedge.  Branching is
    restricted to such traversal-normal matchings.

    Returns () when n*p is odd; refuses over ``_MAP_GUARD`` maps up front.
    """
    _check_map_budget(p, n)
    nq = n * p
    if nq % 2:
        return ()
    sig = _canonical_sigma(p, n).image
    tau = [-1] * nq
    found: list[tuple[int, ...]] = []

    def search(queue: tuple[int, ...], seen: int, pos: int, disc: int) -> None:
        # queue: the halfedges in discovery order, seen: the same set as a
        # bitmask, pos: the next halfedge to advance from, disc: the number
        # of vertices discovered.  The walk is the one of _bfs_labels; it
        # stops at the first halfedge whose partner is not chosen yet.
        while pos < len(queue):
            h = queue[pos]
            for g in (sig[h], tau[h]):
                if g == -1:  # h has no partner yet: branch over the candidates
                    first = disc * p  # the first halfedge of the next vertex
                    cands = [k for k in range(first) if tau[k] == -1 and k != h]
                    if disc < n:
                        cands.append(first)
                    for k in cands:
                        tau[h], tau[k] = k, h
                        if seen >> k & 1:
                            search(queue, seen, pos + 1, disc)
                        else:
                            search(queue + (k,), seen | 1 << k, pos + 1, disc + (k == first))
                        tau[h] = tau[k] = -1
                    return
                if not seen >> g & 1:
                    queue += (g,)
                    seen |= 1 << g
            pos += 1
        if len(queue) == nq:  # a walk closed short of nq is disconnected
            found.append(tuple(tau))

    search((0,), 1, 0, 1)
    return tuple(sorted((_code(p, n, sig, t, 0), t) for t in found))


def enumerate_rooted_connected(p: int, n: int) -> list[CombinatorialMap]:
    """All rooted connected p-regular maps with n vertices, one canonical
    representative per root-preserving relabelling class, sorted by code.

    Returns [] when n*p is odd; refuses over ``_MAP_GUARD`` maps up front.
    """
    return list(rooted_connected(p, n))


@lru_cache(maxsize=None)
def rooted_connected(p: int, n: int) -> tuple[CombinatorialMap, ...]:
    """Cached tuple version of :func:`enumerate_rooted_connected`: the maps
    of ``_coded_taus``, each built and validated."""
    coded = _coded_taus(p, n)
    sigma = _canonical_sigma(p, n)
    return tuple(CombinatorialMap(p, sigma, Permutation(tau), root=0) for _, tau in coded)


# ---------------------------------------------------------------------------
# trace classes: maps grouped by multigraph isomorphism
# ---------------------------------------------------------------------------


# a map's network, all the numeric layer reads of it: each vertex's edge ids
_Network = tuple[tuple[int, ...], ...]


def _network(vertices: Iterable[Sequence[int]], tau: Sequence[int]) -> _Network:
    """The network of the map with these vertex cycles and this tau image:
    the edge id of each halfedge in cycle order, edges in ``edge_list`` order."""
    edge_of = [0] * len(tau)
    for e, h in enumerate(h for h, k in enumerate(tau) if h < k):
        edge_of[h] = edge_of[tau[h]] = e
    return tuple(tuple(edge_of[h] for h in cyc) for cyc in vertices)


def _vertex_edge_ids(b: CombinatorialMap) -> _Network:
    """The network of b, the conversion of the map-facing functions."""
    return _network(cycles(b.sigma), b.tau.image)


def _network_edges(net: _Network) -> list[tuple[int, int]]:
    """The multigraph of a network: each edge's sorted vertex pair, by edge id."""
    ends = sorted((e, v) for v, vert in enumerate(net) for e in vert)
    return [(u, v) for (_, u), (_, v) in zip(ends[::2], ends[1::2])]


def _refine(colour: list[int], adj, loops) -> list[int]:
    """Split colour cells by (own colour, multiset of (neighbour colour, edge
    multiplicity), loops) until no cell splits.  Each new colour is the rank of
    its signature in sorted order, so colours never depend on vertex labels."""
    cells = len(set(colour))
    while True:
        sigs = [
            (colour[v], tuple(sorted((colour[w], m) for w, m in adj[v])), loops[v])
            for v in range(len(colour))
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colour = [rank[s] for s in sigs]
        if len(rank) == cells:
            return colour
        cells = len(rank)


def _orbit(points: list[int], gens: list[list[int]]) -> set[int]:
    """The union of the orbits of ``points`` under the group generated by
    ``gens``, permutations given by their image lists."""
    orbit, todo = set(points), list(points)
    while todo:
        v = todo.pop()
        for g in gens:
            if g[v] not in orbit:
                orbit.add(g[v])
                todo.append(g[v])
    return orbit


def _multigraph_key(n: int, edges: Sequence[tuple[int, int]]) -> tuple:
    """Canonical form under vertex relabelling of the multigraph on vertices
    0..n-1 with one vertex pair (u, v), u <= v, per edge, by
    individualisation and refinement with automorphism pruning (McKay &
    Piperno, J. Symbolic Comput. 60, 2014).

    After refinement, each vertex of the first cell of several vertices is
    individualised in turn and the search recurses; every leaf colouring is a
    relabelling, and the key is the smallest relabelled sorted edge tuple over
    the leaves.  Equal keys mean isomorphic multigraphs, for every n.

    A leaf with the edge tuple of the first or of the smallest leaf so far
    gives an automorphism, which maps the subtree it lies in onto one already
    explored: the search goes back to the node where the two leaves' paths
    part.  A child in the orbit of an explored sibling, under the
    automorphisms found that fix the path to their node, is skipped.  Skipped
    leaves repeat edge tuples already seen, so the key is the full search's.
    """
    mult = [Counter() for _ in range(n)]
    loops = [0] * n
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1
    adj = [tuple(m.items()) for m in mult]
    first = best = None  # (edge tuple, colouring, path) of the first and the smallest leaf
    gens: list[list[int]] = []  # the automorphisms found, as image lists

    def search(colour, path):
        # the depth to go back to when an automorphism covers the rest of
        # the subtree, else None
        nonlocal first, best
        colour = _refine(colour, adj, loops)
        split = min((c for c, k in Counter(colour).items() if k > 1), default=None)
        if split is None:
            form = tuple(sorted(tuple(sorted((colour[u], colour[v]))) for u, v in edges))
            for known, known_colour, known_path in (first, best) if first else ():
                if form == known:
                    vertex = [0] * n
                    for w, c in enumerate(colour):
                        vertex[c] = w
                    gens.append([vertex[c] for c in known_colour])
                    return next(d for d, (u, v) in enumerate(zip(known_path, path)) if u != v)
            if first is None:
                first = best = (form, colour, path)
            elif form < best[0]:
                best = (form, colour, path)
            return None
        explored: list[int] = []
        for v in range(n):
            if colour[v] != split:
                continue
            if v in _orbit(explored, [g for g in gens if all(g[u] == u for u in path)]):
                continue
            explored.append(v)
            child = [2 * c + (c == split and w != v) for w, c in enumerate(colour)]
            depth = search(child, path + (v,))
            if depth is not None and depth < len(path):
                return depth
        return None

    search([0] * n, ())
    return best[0]


def _class_keys(p: int, n: int) -> tuple:
    """Multigraph class key of each map of B_n^(p), in enumeration order.

    Each labelled multigraph is read from the tau image alone: under the
    canonical sigma, halfedge h lies on vertex h // p.  A key is computed once
    per distinct labelled multigraph.  When all maps share one labelled
    multigraph (always at p = 2, where each n has a single map) that
    multigraph is the key and no canonical form is computed, so keys compare
    only within one (p, n).
    """
    labelled = [
        tuple(sorted([(h // p, k // p) for h, k in enumerate(tau) if h < k]))
        for _, tau in _coded_taus(p, n)
    ]
    if len(set(labelled)) == 1:
        return tuple(labelled)
    memo: dict = {}
    for g in labelled:
        if g not in memo:
            memo[g] = _multigraph_key(n, g)
    return tuple(memo[g] for g in labelled)


@lru_cache(maxsize=None)
def _trace_classes(p: int, n: int) -> tuple[tuple[_Network, int], ...]:
    """Group the maps of B_n^(p) by multigraph isomorphism, for every n; Tr_b
    of a symmetric tensor and its expectation only depend on that class.
    Returns (network, class size) in first-seen order: the network of the
    first map of each class in enumeration order, read off its tau image under
    the canonical sigma (vertex v holds halfedges vp ... vp + p - 1)."""
    keys = _class_keys(p, n)
    first: dict = {}
    for (_, tau), key in zip(_coded_taus(p, n), keys):
        first.setdefault(key, tau)
    sizes = Counter(keys)
    vertices = [range(v * p, v * p + p) for v in range(n)]
    return tuple((_network(vertices, tau), sizes[key]) for key, tau in first.items())


def map_to_json(b: CombinatorialMap) -> dict:
    """JSON-serialisable description used by the CLI."""
    return {
        "p": b.p,
        "n": b.n,
        "sigma": list(b.sigma.image),
        "tau": list(b.tau.image),
        "root": b.root,
    }
