"""Exact enumeration identities: Fuss-Catalan numbers, generalized Dyck
paths, plane hypertrees, rooted and melonic map counts, and non-crossing
partitions.

Everything here is exact integer arithmetic; these counts are the ground
truth the numerical modules are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ContractViolation, InvalidPathError, ResourceLimitError

# (height, step) pairs, each at most one big-integer addition, that the two
# excursion DPs of one count table may visit: about 60 ns each on a 2-core
# x86-64 host, so p = 3 is admitted up to n = 288 (about 3 s)
_COUNT_TABLE_GUARD = 5 * 10**7


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


def _excursions(length: int, steps: Sequence[int]) -> list[int]:
    """counts[k]: the lattice paths of k steps, each taken from ``steps``,
    from height 0 back to 0 that never go below 0, for k = 0..length, by one
    DP over heights.  A height the remaining steps cannot fall back from is
    dropped, so it cannot fall back within fewer steps either; the steps are
    tried in ascending order up to the first that lands above the kept
    heights."""
    steps = sorted(steps)
    fall = -steps[0]
    counts = [1]
    at_zero = [1]
    for left in range(length - 1, -1, -1):
        nxt = [0] * (min(left * fall, len(counts) - 1 + steps[-1]) + 1)
        for h, c in enumerate(counts):
            if c:
                for s in steps:
                    if h + s >= len(nxt):
                        break
                    if h + s >= 0:
                        nxt[h + s] += c
        counts = nxt
        at_zero.append(counts[0])
    return at_zero


def _dyck_column(p: int, n_max: int) -> list[int]:
    return _excursions(n_max * p, (1, 1 - p))[::p]


def _noncrossing_column(p: int, n_max: int) -> list[int]:
    # an up-step of n(p-1) or more cannot fall back within n(p-1) steps, so
    # the step set of n_max serves every row
    d = p - 1
    return _excursions(n_max * d, (-1, *range(d - 1, n_max * d, d)))[::d]


def count_columns(p: int, n_max: int) -> tuple[list[int], list[int]]:
    """``count_dyck(p, n)`` and ``count_noncrossing_div(p, n)`` for
    n = 0..n_max (none when n_max < 0), one excursion DP per column."""
    if n_max < 0:
        return [], []
    if p < 2:
        raise ContractViolation("need p >= 2")
    return _dyck_column(p, n_max), _noncrossing_column(p, n_max)


def _check_count_table(p: int, n_max: int) -> None:
    """Refuse the table of rows n = 0..n_max before any row when its two
    excursion DPs would visit more (height, step) pairs than
    ``_COUNT_TABLE_GUARD``.  An ``_excursions`` of L steps from S step sizes,
    falling at most f a step, keeps at most (left + 1) f + 1 heights with
    ``left`` steps to go, S (f L (L + 1) / 2 + L) pairs in all.  That is an
    upper bound: the DP skips heights of count zero and stops at the first
    step that lands above the kept heights, so at p = 3, n = 200 it visits
    2.8e6 of the 1.69e7 pairs priced."""
    if p < 2 or n_max < 1:
        return  # the columns refuse p < 2 themselves
    dyck, noncrossing = (n_max * p, 2, p - 1), (n_max * (p - 1), n_max + 1, 1)  # (L, S, f)
    pairs = sum(S * (f * L * (L + 1) // 2 + L) for L, S, f in (dyck, noncrossing))
    if pairs > _COUNT_TABLE_GUARD:
        raise ResourceLimitError(
            f"the count table to n={n_max} at p={p} takes about {pairs:.3g} "
            f"big-integer additions; the limit is {_COUNT_TABLE_GUARD:.3g}"
        )


def count_dyck(p: int, n: int) -> int:
    """Count the (p-1)-Dyck paths of length n*p, steps +1 and -(p-1)."""
    if p < 2 or n < 0:
        raise ContractViolation("need p >= 2 and n >= 0")
    return _dyck_column(p, n)[-1]


def enumerate_dyck_paths(p: int, n: int) -> Iterator[DyckPath]:
    """Yield every (p-1)-Dyck path with n down-steps, lexicographically
    (up-step first).

    Closing from height h with r steps left takes exactly (h+r)/p more
    down-steps, which prunes both branches exactly.
    """

    def rec(steps: tuple[int, ...], height: int, remaining: int):
        if remaining == 0:
            yield DyckPath(steps, p)
            return
        downs_needed = (height + remaining) // p
        if remaining - 1 >= downs_needed:
            yield from rec(steps + (1,), height + 1, remaining - 1)
        if height >= p - 1:
            yield from rec(steps + (-(p - 1),), height - (p - 1), remaining - 1)

    yield from rec((), 0, n * p)


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


def count_noncrossing_div(p: int, n: int) -> int:
    """Non-crossing partitions of n(p-1) points into blocks of size divisible
    by d = p-1, counted by their Lukasiewicz paths (Flajolet & Sedgewick,
    Analytic Combinatorics, 2009, I.5): reading the points in order, the
    path rises s-1 at the first point of a block of size s and falls 1 at
    every other point, and the blocks nest like a stack exactly when they do
    not cross."""
    if p < 2 or n < 0:
        raise ContractViolation("need p >= 2 and n >= 0")
    return _noncrossing_column(p, n)[-1]


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
