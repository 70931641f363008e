"""Symmetric tensors: packed storage, random ensembles, contractions, and
trace-invariant evaluation.

Storage keeps one float64 value per sorted multi-index (i1 <= ... <= ip),
C(N+p-1, p) entries in colexicographic order via the combinadic ranking; the
full symmetry is structural, never duplicated.  Trace invariants contract one
dense tensor copy per map vertex over the shared edge indices, along numpy's
greedy path; a contraction whose largest intermediate would be too big, or
that has no pairwise order within the path budget, is sliced over the index
of one edge and summed over its values, and one whose predicted FLOP or
memory exceeds a fixed limit is refused before it starts.  Exact
expectations of trace invariants under the entry ensembles are computed in
rational arithmetic, as injective sums grouped by edge partitions; the tests
cross-check them against exhaustive index sums.

Trace values are plain floats from the numerical paths and
``fractions.Fraction`` from the exact-expectation paths.
"""

from __future__ import annotations

import itertools
import json
import math
import string
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimitError
from .maps import (
    CombinatorialMap,
    cycles,
    dual,
    edge_list,
    merge_edges,
    multigraph,
    rooted_connected,
)
from .hypergraph import hypergraph_of

_EINSUM_LETTERS = string.ascii_letters
_MAX_EDGES = len(_EINSUM_LETTERS)
_PARTITION_EDGE_GUARD = 9
# trace_invariant slices a contraction whose largest intermediate would hold
# more float64 elements than this (2 MiB), and refuses a plan predicted to
# exceed either limit below.  The largest plan the Monte Carlo runs need, K4
# at N = 128, predicts 1.4e11 FLOP and a 16.8 MB intermediate.
_SLICE_ELEMS = 2**18
_MAX_FLOP = 10**12
_MAX_INTERMEDIATE_BYTES = 2**30


class _IndexTable:
    """Per-(p, N) ranking machinery shared by all tensors of that shape."""

    def __init__(self, p: int, N: int):
        self.p = p
        self.N = N
        self.size = math.comb(N + p - 1, p) if p > 0 else 1
        # python binomial table for scalar ranking (exact, overflow-free)
        self._binom = [[math.comb(j, k) for k in range(p + 1)] for j in range(N + p + 1)]
        rows = np.array(
            list(itertools.combinations_with_replacement(range(N), p)), dtype=np.int64
        ).reshape(self.size, p)
        ranks = self._rank_rows(rows)
        order = np.argsort(ranks)
        self.mindex = rows[order]
        assert np.array_equal(self._rank_rows(self.mindex), np.arange(self.size))
        # product of factorials of the index multiplicities, per rank
        runlen = np.ones(self.size, dtype=np.int64)
        cprod = np.ones(self.size, dtype=np.int64)
        for j in range(1, p):
            eq = self.mindex[:, j] == self.mindex[:, j - 1]
            runlen = np.where(eq, runlen + 1, 1)
            cprod = np.where(eq, cprod * runlen, cprod)
        self.count_factorial = cprod
        self.orbit = math.factorial(p) // cprod if p > 0 else np.ones(1, dtype=np.int64)
        # sigma^2 profile of the Gaussian orthogonal tensor ensemble
        self.sigma2 = cprod / float(math.factorial(max(p - 1, 0)))
        self._dense_map: Optional[np.ndarray] = None
        self._flat_sorted: Optional[np.ndarray] = None

    def _rank_rows(self, rows: np.ndarray) -> np.ndarray:
        p, N = self.p, self.N
        if p == 0:
            return np.zeros(len(rows), dtype=np.int64)
        binom = np.array(self._binom, dtype=np.int64)
        js = rows + np.arange(p, dtype=np.int64)
        return binom[js, np.arange(1, p + 1)].sum(axis=1)

    def rank(self, idx: Sequence[int]) -> int:
        srt = sorted(idx)
        return sum(self._binom[srt[k] + k][k + 1] for k in range(self.p))

    def dense_map(self) -> np.ndarray:
        """rank of the sorted multi-index, for every flat dense position."""
        if self._dense_map is None:
            p, N = self.p, self.N
            if p == 0:
                self._dense_map = np.zeros(1, dtype=np.int64)
            else:
                grid = np.indices((N,) * p).reshape(p, -1).T
                self._dense_map = self._rank_rows(np.sort(grid, axis=1))
        return self._dense_map

    def flat_sorted(self) -> np.ndarray:
        """flat dense position of each sorted multi-index, in rank order."""
        if self._flat_sorted is None:
            p, N = self.p, self.N
            if p == 0:
                self._flat_sorted = np.zeros(1, dtype=np.int64)
            else:
                weights = N ** np.arange(p - 1, -1, -1, dtype=np.int64)
                self._flat_sorted = self.mindex @ weights
        return self._flat_sorted


@lru_cache(maxsize=64)
def _table(p: int, N: int) -> _IndexTable:
    if p < 0 or N < 1:
        raise ContractViolation("need p >= 0 and N >= 1")
    return _IndexTable(p, N)


class SymTensor:
    """Order-p, dimension-N real symmetric tensor in packed storage."""

    __slots__ = ("p", "N", "values", "_dense_cache")

    def __init__(self, p: int, N: int, values: np.ndarray):
        tbl = _table(p, N)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.shape != (tbl.size,):
            raise ContractViolation(
                f"expected {tbl.size} packed entries for p={p}, N={N}, got {values.shape}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_dense_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @classmethod
    def zeros(cls, p: int, N: int) -> "SymTensor":
        return cls(p, N, np.zeros(_table(p, N).size))

    @classmethod
    def from_dense(cls, p: int, N: int, dense: np.ndarray) -> "SymTensor":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (N,) * p:
            raise ContractViolation(f"dense shape {dense.shape} != {(N,) * p}")
        return cls(p, N, dense.reshape(-1)[_table(p, N).flat_sorted()])

    def __getitem__(self, idx) -> float:
        if self.p == 0:
            if idx not in ((), None):
                raise ContractViolation("order-0 tensor takes the empty index")
            return float(self.values[0])
        if len(idx) != self.p:
            raise ContractViolation(f"need {self.p} indices, got {len(idx)}")
        return float(self.values[_table(self.p, self.N).rank(idx)])

    def to_dense(self) -> np.ndarray:
        tbl = _table(self.p, self.N)
        dense = self.values[tbl.dense_map()]
        return dense.reshape((self.N,) * self.p)

    def _dense(self) -> np.ndarray:
        """Cached dense view (read-only)."""
        if self._dense_cache is None:
            d = self.to_dense()
            d.flags.writeable = False
            object.__setattr__(self, "_dense_cache", d)
        return self._dense_cache

    def scaled(self, c: float) -> "SymTensor":
        return SymTensor(self.p, self.N, self.values * c)

    def frobenius_sq(self) -> float:
        tbl = _table(self.p, self.N)
        return float(np.dot(tbl.orbit.astype(np.float64), self.values**2))

    def __repr__(self) -> str:
        return f"SymTensor(p={self.p}, N={self.N}, {len(self.values)} packed entries)"


# ---------------------------------------------------------------------------
# entry ensembles
# ---------------------------------------------------------------------------

KINDS = (
    "gaussian-gote",
    "gaussian-offdiag-only",
    "rademacher",
    "uniform",
    "symmetrized-pareto",
)


@dataclass(frozen=True)
class EntryDistribution:
    """Law of the unscaled tensor entries, all centered and symmetric.

    All kinds except ``gaussian-offdiag-only`` put the invariant variance
    profile prod_a c_a! / (p-1)! on every entry type; the off-diagonal-only
    kind keeps the off-diagonal variance 1/(p-1)! and gives diagonal types
    that same flat value (only the off-diagonal variance matters for the
    limit).  ``symmetrized-pareto`` has Pareto tails of the given index and
    no closed-form high moments, so it is Monte Carlo only.
    """

    kind: str
    tail_index: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown entry distribution {self.kind!r}")
        if self.kind == "symmetrized-pareto":
            if self.tail_index is None or self.tail_index <= 2:
                raise ContractViolation("symmetrized-pareto needs tail_index > 2")
        elif self.tail_index is not None:
            raise ContractViolation("tail_index only applies to symmetrized-pareto")

    @classmethod
    def from_string(cls, text: str) -> "EntryDistribution":
        """Parse e.g. ``"rademacher"`` or ``"symmetrized-pareto:3.5"``."""
        if ":" in text:
            kind, arg = text.split(":", 1)
            return cls(kind, float(arg))
        return cls(text)

    @property
    def flat_profile(self) -> bool:
        return self.kind == "gaussian-offdiag-only"

    @property
    def has_exact_moments(self) -> bool:
        return self.kind != "symmetrized-pareto"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Unit-variance raw variates."""
        if self.kind in ("gaussian-gote", "gaussian-offdiag-only"):
            return rng.standard_normal(size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        if self.kind == "uniform":
            r = math.sqrt(3.0)
            return rng.uniform(-r, r, size)
        alpha = self.tail_index
        mag = rng.random(size) ** (-1.0 / alpha)
        sign = rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        return sign * mag / math.sqrt(alpha / (alpha - 2.0))

    def moment(self, m: int, sigma2: Fraction) -> Fraction:
        """Exact E[X^m] for an entry of variance sigma2."""
        if not self.has_exact_moments:
            raise ContractViolation(
                "symmetrized-pareto entries have no exact moment oracle"
            )
        if m % 2:
            return Fraction(0)
        half = m // 2
        if self.kind in ("gaussian-gote", "gaussian-offdiag-only"):
            return Fraction(math.prod(range(1, m, 2))) * sigma2**half
        if self.kind == "rademacher":
            return sigma2**half
        # uniform on [-a, a] with a^2 = 3 sigma2
        return (Fraction(3) * sigma2) ** half / (m + 1)


GAUSSIAN_GOTE = EntryDistribution("gaussian-gote")
RADEMACHER = EntryDistribution("rademacher")


def entry_sigma2(dist: EntryDistribution, p: int, multiplicities: Sequence[int]) -> Fraction:
    """Exact variance of an unscaled entry whose index has the given
    multiplicity pattern (counts summing to p)."""
    if dist.flat_profile:
        return Fraction(1, math.factorial(p - 1))
    num = math.prod(math.factorial(c) for c in multiplicities)
    return Fraction(num, math.factorial(p - 1))


def sample_wigner(p: int, N: int, dist: EntryDistribution, seed) -> SymTensor:
    """One independent draw per sorted multi-index, scaled so the unscaled
    off-diagonal variance 1/(p-1)! becomes 1/((p-1)! N^{p-1})."""
    if p < 1:
        raise ContractViolation("p must be at least 1")
    tbl = _table(p, N)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw = dist.draw(rng, tbl.size)
    if dist.flat_profile:
        sigma = math.sqrt(1.0 / math.factorial(p - 1)) * np.ones(tbl.size)
    else:
        sigma = np.sqrt(tbl.sigma2)
    scale = float(N) ** (-(p - 1) / 2.0)
    return SymTensor(p, N, raw * sigma * scale)


def sample_gote(p: int, N: int, seed) -> SymTensor:
    """Gaussian orthogonal tensor ensemble, normalised by N^{(p-1)/2}."""
    return sample_wigner(p, N, GAUSSIAN_GOTE, seed)


# ---------------------------------------------------------------------------
# contractions and invariants
# ---------------------------------------------------------------------------


def contract(T: SymTensor, vectors: Sequence[np.ndarray]) -> SymTensor:
    """Contract the first k legs against the given vectors; the result is the
    symmetric tensor of order p-k."""
    k = len(vectors)
    if k > T.p:
        raise ContractViolation(f"cannot contract {k} legs of an order-{T.p} tensor")
    if k == 0:
        return T
    out = T.to_dense()
    for v in vectors:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (T.N,):
            raise ContractViolation(f"vector of shape {v.shape}, expected ({T.N},)")
        out = np.tensordot(v, out, axes=(0, 0))
    return SymTensor.from_dense(T.p - k, T.N, out)


def _vertex_edge_ids(b: CombinatorialMap) -> list[tuple[int, ...]]:
    """For each vertex, the edge index of every halfedge in cycle order."""
    edge_of = {}
    for i, (h, k) in enumerate(edge_list(b)):
        edge_of[h] = i
        edge_of[k] = i
    return [tuple(edge_of[h] for h in cyc) for cyc in cycles(b.sigma)]


@dataclass(frozen=True)
class _Plan:
    """How ``trace_invariant`` contracts one einsum equation at one N.

    The indices of the edges whose letters are in ``sliced`` are fixed: for
    every tuple ``idx`` of their values, ``eq`` (the equation without those
    letters) is contracted along ``path`` with ``dense[idx[j] for j in h]``
    as the operand of a vertex whose entry of ``holders`` is ``h``, and the
    results are summed.  An unsliced plan contracts once.  ``flop`` (numpy's
    count, all slices together) and ``max_elems`` (the largest intermediate
    of one slice, in elements) are predicted from the path's index sets;
    ``widest`` is the most operands of one step, above 2 only when numpy's
    search fell back to its naive loop.
    """

    sliced: str
    eq: str
    path: list
    holders: tuple[tuple[int, ...], ...]
    flop: int
    max_elems: int
    widest: int


_PATH_CACHE: dict[tuple[str, int], _Plan] = {}


def _einsum_eq(b: CombinatorialMap) -> str:
    """One operand per vertex, one letter per edge, scalar output."""
    verts = _vertex_edge_ids(b)
    return ",".join("".join(_EINSUM_LETTERS[e] for e in vert) for vert in verts) + "->"


def _greedy_plan(eq: str, N: int, sliced: str = "") -> _Plan:
    """numpy's greedy path for eq with the letters in sliced fixed and every
    index of size N, and its cost."""
    terms = eq[:-2].split(",")
    holders = tuple(tuple(j for j, e in enumerate(sliced) if e in t) for t in terms)
    # allow intermediates up to order 4 (capped), else the path search
    # degrades to the naive full loop on expander-like maps
    budget = min(max(N**4, N ** len(terms[0])), 1 << 26)
    eq = eq.translate({ord(e): None for e in sliced})
    terms = eq[:-2].split(",")
    shapes = [np.broadcast_to(np.zeros(()), (N,) * len(t)) for t in terms]
    path = np.einsum_path(eq, *shapes, optimize=("greedy", budget))[0]
    sets = [set(t) for t in terms]
    flop = max_elems = widest = 0
    for step in path[1:]:
        picked = [sets.pop(j) for j in sorted(step, reverse=True)]
        union = set().union(*picked)
        kept = union & set().union(*sets)
        flop += N ** len(union) * (max(1, len(step) - 1) + (kept != union))
        max_elems = max(max_elems, N ** len(kept))
        widest = max(widest, len(step))
        sets.append(kept)
    return _Plan(sliced, eq, path, holders, N ** len(sliced) * flop, max_elems, widest)


def _better(new: _Plan, old: _Plan) -> bool:
    """A plan that fell back to the naive loop gives way to any plan of fewer
    FLOP (at N = 1 the naive loop is the cheapest); a pairwise one only to a
    pairwise plan of smaller (largest intermediate, FLOP)."""
    if old.widest > 2:
        return new.flop < old.flop
    return new.widest <= 2 and (new.max_elems, new.flop) < (old.max_elems, old.flop)


def _plan(eq: str, N: int) -> _Plan:
    """The cached contraction plan of eq at dimension N.

    numpy's greedy path is kept unless its largest intermediate exceeds
    ``_SLICE_ELEMS`` elements or it fell back to the naive loop.  Then every
    edge that joins two different vertices is tried as a sliced index, and
    the best plan by (pairwise, largest intermediate, FLOP) replaces the
    current one if it is better; the first such edge wins a tie.  Further
    edges are sliced only while the plan still has no pairwise order, as for
    K_{3,3} at N >= 91, where every single slice still needs an N^4
    intermediate.
    """
    key = (eq, N)
    plan = _PATH_CACHE.get(key)
    if plan is None:
        plan = _greedy_plan(eq, N)
        if plan.max_elems > _SLICE_ELEMS or plan.widest > 2:
            terms = eq[:-2].split(",")
            edges = [e for e in _EINSUM_LETTERS if sum(e in t for t in terms) == 2]
            while not plan.sliced or plan.widest > 2:
                best = min(
                    (_greedy_plan(eq, N, plan.sliced + e) for e in edges if e not in plan.sliced),
                    key=lambda c: (c.widest > 2, c.max_elems, c.flop),
                    default=plan,
                )
                if not _better(best, plan):
                    break
                plan = best
        _PATH_CACHE[key] = plan
    return plan


def trace_invariant(b: CombinatorialMap, T: SymTensor) -> float:
    """Tr_b(T): sum over edge-index assignments of the product of one tensor
    entry per vertex, evaluated as a tensor-network contraction along numpy's
    greedy path.

    When that path would build an intermediate of more than ``_SLICE_ELEMS``
    elements, or finds no pairwise order within its budget, the contraction
    is sliced over the index of one edge (more only while no pairwise order
    exists): each of the N slices puts ``T[i]`` at the edge's two vertices,
    which by symmetry is the slice on any axis, and the slices are summed with
    ``math.fsum``.  A plan predicted to exceed ``_MAX_FLOP`` or
    ``_MAX_INTERMEDIATE_BYTES`` raises ``ResourceLimitError`` before any
    contraction starts.
    """
    if b.p != T.p:
        raise ContractViolation(f"map order {b.p} != tensor order {T.p}")
    m = b.size // 2
    if m > _MAX_EDGES:
        raise ResourceLimitError(f"{m} edges exceeds the contraction guard")
    plan = _plan(_einsum_eq(b), T.N)
    if plan.flop > _MAX_FLOP or 8 * plan.max_elems > _MAX_INTERMEDIATE_BYTES:
        raise ResourceLimitError(
            f"the trace invariant of a {b.n}-vertex map at N={T.N} is predicted to "
            f"take {plan.flop:.3g} FLOP with a largest intermediate of "
            f"{8 * plan.max_elems:.3g} bytes; the limits are {_MAX_FLOP:.3g} FLOP "
            f"and {_MAX_INTERMEDIATE_BYTES:.3g} bytes"
        )
    dense = T._dense()
    # einsum runs measurably faster when the operands are one array object
    if not plan.sliced:
        return float(np.einsum(plan.eq, *[dense] * b.n, optimize=plan.path))
    return math.fsum(
        np.einsum(
            plan.eq,
            *[dense[tuple(idx[j] for j in h)] if h else dense for h in plan.holders],
            optimize=plan.path,
        )
        for idx in itertools.product(range(T.N), repeat=len(plan.sliced))
    )


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


def _multigraph_key(n: int, edges: Sequence[tuple[int, int]]) -> tuple:
    """Canonical form under vertex relabelling of the multigraph on vertices
    0..n-1 with one vertex pair (u, v), u <= v, per edge, by
    individualisation and refinement (McKay & Piperno, J. Symbolic Comput.
    60, 2014).

    After refinement, each vertex of the first cell of several vertices is
    individualised in turn and the search recurses; every leaf colouring is a
    relabelling, and the key is the smallest relabelled sorted edge tuple over
    the leaves.  Equal keys mean isomorphic multigraphs, for every n.
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

    def search(colour):
        colour = _refine(colour, adj, loops)
        split = min((c for c, k in Counter(colour).items() if k > 1), default=None)
        if split is None:
            return tuple(sorted(tuple(sorted((colour[u], colour[v]))) for u, v in edges))
        return min(
            search([2 * c + (c == split and w != v) for w, c in enumerate(colour)])
            for v in range(n)
            if colour[v] == split
        )

    return search([0] * n)


def _class_keys(p: int, n: int) -> tuple:
    """Multigraph class key of each map of B_n^(p), in enumeration order.

    A key is computed once per distinct labelled multigraph.  When all maps
    share one labelled multigraph (always at p = 2, where each n has a single
    map) that multigraph is the key and no canonical form is computed, so
    keys compare only within one (p, n).
    """
    labelled = [tuple(sorted(multigraph(b))) for b in rooted_connected(p, n)]
    if len(set(labelled)) == 1:
        return tuple(labelled)
    memo: dict = {}
    for g in labelled:
        if g not in memo:
            memo[g] = _multigraph_key(n, g)
    return tuple(memo[g] for g in labelled)


@lru_cache(maxsize=None)
def _trace_classes(p: int, n: int) -> tuple[tuple[CombinatorialMap, int], ...]:
    """Group the maps of B_n^(p) by multigraph isomorphism, for every n; Tr_b
    of a symmetric tensor and its expectation only depend on that class.
    Returns (representative, class size) in first-seen order, with the first
    map of each class in enumeration order as its representative."""
    groups: dict = {}
    for b, key in zip(rooted_connected(p, n), _class_keys(p, n)):
        groups.setdefault(key, []).append(b)
    return tuple((members[0], len(members)) for members in groups.values())


def balanced_invariant(n: int, T: SymTensor) -> float:
    """I_n(T) = sum of Tr_b(T) over the rooted connected p-regular maps with
    n vertices; N by convention at n = 0."""
    if n < 0:
        raise ContractViolation("n must be nonnegative")
    if n == 0:
        return float(T.N)
    if T.p < 2:
        raise ContractViolation("balanced invariants need tensor order >= 2")
    return math.fsum(
        count * trace_invariant(rep, T) for rep, count in _trace_classes(T.p, n)
    )


def resolvent_series(T: SymTensor, z: complex, K: int) -> complex:
    """Truncated moment expansion sum_{n<=K} I_n(T) / (N z^{n+1})."""
    if K < 0:
        raise ContractViolation("K must be nonnegative")
    if z == 0:
        raise ContractViolation("z must be nonzero")
    z = complex(z)
    total = 0j
    for n in range(K + 1):
        total += balanced_invariant(n, T) / (T.N * z ** (n + 1))
    return total


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------


def _scale_exact(total: Fraction, n: int, p: int, N: int) -> Fraction:
    if total == 0:
        return Fraction(0)
    assert n % 2 == 0  # nonzero expectations need an even number of factors
    return total / Fraction(N ** ((n // 2) * (p - 1)))


def expected_trace_partitions(
    b: CombinatorialMap, N: int, dist: EntryDistribution
) -> Fraction:
    """E[Tr_b(W_N)] as a sum over edge partitions of injective-trace
    expectations.

    For each partition pi, the folded dual hypergraph H(dual(b_pi)) carries
    one moment factor per distinct hyperedge; every injective assignment of
    the |pi| blocks contributes that same product, N falling-factorial |pi|
    times.  Exact rational output.
    """
    m = len(edge_list(b))
    if m > _PARTITION_EDGE_GUARD:
        raise ResourceLimitError(f"Bell({m}) partitions exceed the partition guard")
    p = b.p
    from .maps import enumerate_edge_partitions

    total = Fraction(0)
    for pi in enumerate_edge_partitions(m):
        H = hypergraph_of(dual(merge_edges(b, pi)))
        factor = Fraction(1)
        for e, mult in zip(H.edges, H.mult):
            pattern = tuple(sorted(Counter(e).values()))
            mom = dist.moment(mult, entry_sigma2(dist, p, pattern))
            if mom == 0:
                factor = Fraction(0)
                break
            factor *= mom
        if factor:
            total += math.perm(N, len(pi)) * factor
    return _scale_exact(total, b.n, p, N)


def expected_balanced_invariant(
    p: int, n: int, N: int, dist: EntryDistribution
) -> Fraction:
    """Exact E[I_n(W_N)]: the partition oracle once per multigraph class,
    weighted by the class size."""
    if n == 0:
        return Fraction(N)
    return sum(
        (count * expected_trace_partitions(rep, N, dist) for rep, count in _trace_classes(p, n)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_tensor(T: SymTensor, path) -> None:
    """Binary little-endian: uint32 p, uint32 N, then the packed float64
    payload in colex multi-index order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", T.p, T.N))
        fh.write(T.values.astype("<f8").tobytes())


def load_tensor(path) -> SymTensor:
    with open(path, "rb") as fh:
        header, payload = fh.read(8), fh.read()
    if len(header) < 8:
        raise ContractViolation(f"{path}: truncated header ({len(header)} of 8 bytes)")
    if len(payload) % 8:
        raise ContractViolation(
            f"{path}: payload of {len(payload)} bytes is not a whole number of float64 values"
        )
    p, N = struct.unpack("<II", header)
    return SymTensor(p, N, np.frombuffer(payload, dtype="<f8"))


def tensor_to_json(T: SymTensor) -> dict:
    return {"p": T.p, "N": T.N, "values": T.values.tolist()}


def tensor_from_json(obj: dict | str) -> SymTensor:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return SymTensor(obj["p"], obj["N"], np.asarray(obj["values"]))
