"""Exact enumeration identities: Fuss-Catalan numbers, rooted and melonic
map counts, and the (p-1)-Dyck path and non-crossing partition columns of
the count table.

Everything here is exact integer arithmetic; these counts are the ground
truth the numerical modules are checked against.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ContractViolation, ResourceLimitError

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
    """The (p-1)-Dyck paths of length n*p, steps +1 and -(p-1), for
    n = 0..n_max."""
    return _excursions(n_max * p, (1, 1 - p))[::p]


def _noncrossing_column(p: int, n_max: int) -> list[int]:
    """The non-crossing partitions of n(p-1) points into blocks of size
    divisible by d = p-1, for n = 0..n_max, counted by their Lukasiewicz
    paths (Flajolet & Sedgewick, Analytic Combinatorics, 2009, I.5): reading
    the points in order, the path rises s-1 at the first point of a block of
    size s and falls 1 at every other point, and the blocks nest like a
    stack exactly when they do not cross."""
    # an up-step of n(p-1) or more cannot fall back within n(p-1) steps, so
    # the step set of n_max serves every row
    d = p - 1
    return _excursions(n_max * d, (-1, *range(d - 1, n_max * d, d)))[::d]


def count_columns(p: int, n_max: int) -> tuple[list[int], list[int]]:
    """The (p-1)-Dyck path and the non-crossing partition counts for
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
    2.8e6 of the 1.69e7 pairs priced.  A table without rows, n_max < 0, is
    refused too."""
    if n_max < 0:
        raise ContractViolation(f"the count table needs n >= 0, got n={n_max}")
    if p < 2 or n_max < 1:
        return  # the columns refuse p < 2 themselves
    dyck, noncrossing = (n_max * p, 2, p - 1), (n_max * (p - 1), n_max + 1, 1)  # (L, S, f)
    pairs = sum(S * (f * L * (L + 1) // 2 + L) for L, S, f in (dyck, noncrossing))
    if pairs > _COUNT_TABLE_GUARD:
        raise ResourceLimitError(
            f"the count table to n={n_max} at p={p} takes about {pairs:.3g} "
            f"big-integer additions; the limit is {_COUNT_TABLE_GUARD:.3g}"
        )


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
