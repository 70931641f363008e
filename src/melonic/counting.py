"""Exact enumeration identities: Fuss-Catalan numbers, generalized Dyck
paths, plane hypertrees, rooted and melonic map counts, and non-crossing
partitions.

Everything here is exact integer arithmetic; these counts are the ground
truth the numerical modules are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .errors import ContractViolation, InvalidPathError


def fuss_catalan(p: int, k: int) -> int:
    """F_p(k) = C(pk+1, k) / (pk+1), exactly.

    >>> [fuss_catalan(2, k) for k in range(5)]
    [1, 1, 2, 5, 14]
    >>> fuss_catalan(3, 3)
    12
    """
    if p < 2 or k < 0:
        raise ContractViolation("need p >= 2 and k >= 0")
    q, r = divmod(math.comb(p * k + 1, k), p * k + 1)
    assert r == 0
    return q


@dataclass(frozen=True)
class DyckPath:
    """Lattice excursion with steps +1 and -(p-1), from height 0 back to 0.

    A path of parameter p and n down-steps has length n*p.
    """

    steps: tuple[int, ...]
    p: int

    def __post_init__(self):
        down = -(self.p - 1)
        height = 0
        for s in self.steps:
            if s not in (1, down):
                raise InvalidPathError(f"step {s} not in {{+1, {down}}}")
            height += s
            if height < 0:
                raise InvalidPathError("negative excursion")
        if height != 0:
            raise InvalidPathError("path does not return to height 0")
        if len(self.steps) % self.p:
            raise InvalidPathError("length is not a multiple of p")

    @property
    def n(self) -> int:
        """Number of down-steps (equivalently number of hyperedges)."""
        return len(self.steps) // self.p


def count_dyck(p: int, n: int) -> int:
    """Count the (p-1)-Dyck paths of length n*p by dynamic programming."""
    if p < 2 or n < 0:
        raise ContractViolation("need p >= 2 and n >= 0")
    length = n * p
    heights = [0] * (length + 1)
    heights[0] = 1
    for _ in range(length):
        nxt = [0] * (length + 1)
        for h, c in enumerate(heights):
            if not c:
                continue
            if h + 1 <= length:
                nxt[h + 1] += c
            if h - (p - 1) >= 0:
                nxt[h - (p - 1)] += c
        heights = nxt
    return heights[0]


def enumerate_dyck_paths(p: int, n: int) -> Iterator[DyckPath]:
    """Yield every (p-1)-Dyck path with n down-steps, lexicographically
    (up-step first).

    Closing from height h with r steps left takes exactly (h+r)/p more
    down-steps, which prunes both branches exactly.
    """
    length = n * p
    steps: list[int] = []

    def rec(height: int, remaining: int):
        if remaining == 0:
            yield DyckPath(tuple(steps), p)
            return
        downs_needed = (height + remaining) // p
        if remaining - 1 >= downs_needed:
            steps.append(1)
            yield from rec(height + 1, remaining - 1)
            steps.pop()
        if height >= p - 1:
            steps.append(-(p - 1))
            yield from rec(height - (p - 1), remaining - 1)
            steps.pop()

    yield from rec(0, length)


class PlaneHypertree:
    """Rooted fully directed plane p-uniform hypertree.

    A vertex carries an ordered tuple of hyperedges; each hyperedge is an
    ordered (p-1)-tuple of child subtrees (the remaining slot is the vertex
    that owns the hyperedge).  The empty tuple is the leaf.
    """

    __slots__ = ("p", "branches")

    def __init__(self, p: int, branches: Sequence = ()):
        if p < 2:
            raise ContractViolation("p must be at least 2")
        branches = tuple(tuple(e) for e in branches)
        for e in branches:
            if len(e) != p - 1 or any(not isinstance(t, PlaneHypertree) for t in e):
                raise ContractViolation("each hyperedge must be a (p-1)-tuple of subtrees")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "branches", branches)

    def __setattr__(self, name, value):
        raise AttributeError("PlaneHypertree is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlaneHypertree)
            and self.p == other.p
            and self.branches == other.branches
        )

    def __hash__(self) -> int:
        return hash((self.p, self.branches))

    def __repr__(self) -> str:
        return f"PlaneHypertree(p={self.p}, edges={self.num_edges()})"

    def num_edges(self) -> int:
        return sum(1 + sum(c.num_edges() for c in e) for e in self.branches)


def dyck_from_hypertree(tree: PlaneHypertree) -> DyckPath:
    """Depth-first walk following the hyperedge orientation: +1 on entering
    each child vertex, -(p-1) once a hyperedge is fully explored."""
    p = tree.p
    steps: list[int] = []

    def walk(vertex: PlaneHypertree):
        for edge in vertex.branches:
            for child in edge:
                steps.append(1)
                walk(child)
            steps.append(-(p - 1))

    walk(tree)
    return DyckPath(tuple(steps), p)


def hypertree_from_dyck(path: DyckPath) -> PlaneHypertree:
    """Inverse of :func:`dyck_from_hypertree`.

    Reading left to right, +1 opens a new vertex; a down-step closes a
    hyperedge over the p-1 most recently opened vertices, attaching it to the
    vertex below them.
    """
    p = path.p
    root: list = []
    stack: list[list] = [root]
    for s in path.steps:
        if s == 1:
            stack.append([])
        else:
            if len(stack) < p:
                raise InvalidPathError("down-step below height p-1")
            children = [stack.pop() for _ in range(p - 1)][::-1]
            stack[-1].append(tuple(PlaneHypertree(p, c) for c in children))
    if len(stack) != 1:
        raise InvalidPathError("path does not close")
    return PlaneHypertree(p, root)


def count_melonic_maps(p: int, n: int) -> int:
    """Rooted melonic maps with 2n vertices: F_p(n) * ((p-1)!)^n.

    Each rooted planar melonic map is counted by F_p(n); untwisting the edges
    of the non-root vertex of every melon pair contributes (p-1)! per pair.
    """
    if p < 3 or n < 0:
        raise ContractViolation("need p >= 3 and n >= 0")
    return fuss_catalan(p, n) * math.factorial(p - 1) ** n


def count_rooted_maps(p: int, n: int) -> int:
    """|B_n^(p)|, the rooted connected p-regular maps with n vertices, from
    the exponential formula sum_n (np-1)!! x^n/n! = exp(sum_n C_n x^n/n!)
    over n labelled vertices of fixed cyclic order (Flajolet & Sedgewick,
    Analytic Combinatorics, ch. II), C_n counting connected matchings:
    relabelling and rooting act freely, so |B_n^(p)| = C_n np / (n! p^n).

    >>> [count_rooted_maps(3, n) for n in (2, 4, 6, 8)]
    [5, 60, 1105, 27120]
    """
    if p < 2:
        raise ContractViolation("p must be at least 2")
    if n < 1:
        raise ContractViolation("n must be at least 1")
    matchings = [math.prod(range(k * p - 1, 0, -2)) * (k * p % 2 == 0) for k in range(n + 1)]
    connected = [0] * (n + 1)
    for k in range(1, n + 1):  # the component of the first vertex has j vertices
        connected[k] = matchings[k] - sum(
            math.comb(k - 1, j - 1) * connected[j] * matchings[k - j] for j in range(1, k)
        )
    return connected[n] * p // (p**n * math.factorial(n - 1))


def noncrossing_partitions_div(m: int, d: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of m linearly ordered points whose blocks all
    have size divisible by d, generated exhaustively.

    The block of the first point is chosen together with the gaps it cuts;
    a gap can only be filled if its size is itself a multiple of d, which
    prunes the search to roughly the output size.
    """

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for size in range(d, len(points) + 1, d):
            for others in combinations(range(len(rest)), size - 1):
                gaps = []
                prev = -1
                feasible = True
                for idx in others:
                    gap = rest[prev + 1 : idx]
                    if len(gap) % d:
                        feasible = False
                        break
                    gaps.append(gap)
                    prev = idx
                if not feasible:
                    continue
                tail = rest[prev + 1 :]
                if len(tail) % d:
                    continue
                gaps.append(tail)
                block = (first,) + tuple(rest[i] for i in others)

                def fill(gi: int, acc):
                    if gi == len(gaps):
                        yield acc
                        return
                    for sub in rec(gaps[gi]):
                        yield from fill(gi + 1, acc + sub)

                yield from fill(0, (block,))

    if m % d:
        return
    yield from rec(tuple(range(m)))


def count_noncrossing_div(p: int, n: int) -> int:
    """Non-crossing partitions of n(p-1) points into blocks of size divisible
    by p-1, counted by exhaustive generation."""
    if p < 2 or n < 0:
        raise ContractViolation("need p >= 2 and n >= 0")
    if n == 0:
        return 1
    return sum(1 for _ in noncrossing_partitions_div(n * (p - 1), p - 1))


def _poly_mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def generating_series_check(p: int, order: int) -> bool:
    """Verify coefficient-wise, with exact integers up to the given order,
    that T(z) = sum_k F_p(k) z^k satisfies T = 1 + z T^p."""
    if order < 1:
        raise ContractViolation("order must be at least 1")
    series = [fuss_catalan(p, k) for k in range(order + 1)]
    power = [1] + [0] * order
    for _ in range(p):
        power = _poly_mul_trunc(power, series, order)
    rhs = [1] + power[:order]
    return rhs == series
