"""Symmetric tensors: packed storage, random ensembles, contractions, and
trace-invariant evaluation.

Storage keeps one float64 value per sorted multi-index (i1 <= ... <= ip),
C(N+p-1, p) entries in colexicographic order via the combinadic ranking; the
full symmetry is structural, never duplicated.  Trace invariants contract one
dense tensor copy per map vertex over the shared edge indices, along numpy's
greedy path; a contraction whose largest intermediate would be too big, or
that has no pairwise order within the path budget, is sliced over the index
of one edge and summed over its values.  Each plan is compiled once per
(equation, N) into a step program of numpy's own pairwise batched-GEMM
steps, so a contraction gives ``np.einsum``'s value bit for bit without
re-parsing its path on every call.  The tetrahedron K4 at p = 3 has its
own kernel of one matrix product per index value.  A contraction whose
predicted FLOP or memory exceeds a fixed limit is refused before it starts,
and so is a tensor whose index table and dense expansion would exceed the
memory limit, before its table is built.  The entry laws and the exact
expectations live in the numpy-free ``exact`` module, the trace classes in
``maps``.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimitError
from .exact import GAUSSIAN_GOTE, EntryDistribution
from .exact import expected_balanced_invariant  # noqa: F401  (read as tensor.* by perfbench)
from .maps import CombinatorialMap, _trace_classes, _vertex_edge_ids, multigraph

_EINSUM_LETTERS = string.ascii_letters
_MAX_EDGES = len(_EINSUM_LETTERS)
# trace_invariant slices a contraction whose largest intermediate would hold
# more float64 elements than this (2 MiB), and refuses a route predicted to
# exceed either limit below.  The K4 kernel fits them up to N = 200 (3.2e11
# FLOP and a 64 MB intermediate); every other class at p = 3, n = 4 at
# N = 128 predicts at most 1.1e9 FLOP.  The byte limit also bounds a
# tensor's index table and dense expansion together (``_check_storage``).
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
        # colex order of the sorted q-indices: one block per last coordinate c
        # in increasing order, each block the first C(c + q - 1, q - 1) rows of
        # order q - 1 (those with every entry <= c) followed by c
        mindex = np.zeros((1, 0), dtype=np.int64)
        for q in range(1, p + 1):
            counts = np.array([math.comb(c + q - 1, q - 1) for c in range(N)], dtype=np.int64)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            rows = np.arange(len(starts), dtype=np.int64) - starts
            last = np.repeat(np.arange(N, dtype=np.int64), counts)
            mindex = np.column_stack([mindex[rows], last])
        self.mindex = mindex
        assert np.array_equal(self._rank_rows(self.mindex), np.arange(self.size))
        # product of factorials of the index multiplicities, per rank
        runlen = np.ones(self.size, dtype=np.int64)
        cprod = np.ones(self.size, dtype=np.int64)
        for j in range(1, p):
            eq = self.mindex[:, j] == self.mindex[:, j - 1]
            runlen = np.where(eq, runlen + 1, 1)
            cprod = np.where(eq, cprod * runlen, cprod)
        self.orbit = math.factorial(p) // cprod if p > 0 else np.ones(1, dtype=np.int64)
        # sigma^2 profile of the Gaussian orthogonal tensor ensemble
        self.sigma2 = cprod / float(math.factorial(max(p - 1, 0)))
        self._dense_map: Optional[np.ndarray] = None
        self._flat_sorted: Optional[np.ndarray] = None

    def _rank_rows(self, rows: np.ndarray) -> np.ndarray:
        p = self.p
        if p == 0:
            return np.zeros(len(rows), dtype=np.int64)
        binom = np.array(self._binom, dtype=np.int64)
        return sum(binom[rows[:, k] + k, k + 1] for k in range(p))

    def rank(self, idx: Sequence[int]) -> int:
        srt = sorted(idx)
        return sum(self._binom[srt[k] + k][k + 1] for k in range(self.p))

    def dense_map(self) -> np.ndarray:
        """rank of the sorted multi-index, for every flat dense position.

        Every dense position is an axis order of one sorted multi-index, so
        the ranks are scattered once per column order of ``mindex``."""
        if self._dense_map is None:
            p, N = self.p, self.N
            weights = N ** np.arange(p - 1, -1, -1, dtype=np.int64)
            ranks = np.arange(self.size, dtype=np.int64)
            dmap = np.empty(N**p, dtype=np.int64)
            for perm in itertools.permutations(range(p)):
                dmap[self.mindex[:, list(perm)] @ weights] = ranks
            self._dense_map = dmap
        return self._dense_map

    def flat_sorted(self) -> np.ndarray:
        """flat dense position of each sorted multi-index, in rank order."""
        if self._flat_sorted is None:
            p, N = self.p, self.N
            weights = N ** np.arange(p - 1, -1, -1, dtype=np.int64)
            self._flat_sorted = self.mindex @ weights
        return self._flat_sorted


def _storage_bytes(p: int, N: int) -> int:
    """Bytes of an order-p, dimension-N tensor's index table and the dense
    expansion every invariant makes: building the table holds at most 2p + 4
    int64 columns of C(N+p-1, p) rows, and the dense expansion is N^p float64
    entries plus the N^p int64 ``dense_map``."""
    return 8 * (2 * p + 4) * math.comb(N + p - 1, p) + 16 * N**p


def _check_storage(p: int, N: int) -> None:
    """Refuse an order-p, dimension-N tensor before its index table is built
    when ``_storage_bytes`` exceeds ``_MAX_INTERMEDIATE_BYTES``."""
    if p > 20:  # the orbit sizes p! / prod(c!) are int64
        raise ResourceLimitError(f"order {p} exceeds the index table's limit of order 20")
    need = _storage_bytes(p, N)
    if need > _MAX_INTERMEDIATE_BYTES:
        raise ResourceLimitError(
            f"an order-{p} tensor at N={N} needs {need:.3g} bytes for its index "
            f"table and dense expansion; the limit is {_MAX_INTERMEDIATE_BYTES:.3g} bytes"
        )


# index tables by (p, N), least recently used first
_TABLES: OrderedDict[tuple[int, int], _IndexTable] = OrderedDict()


def _table(p: int, N: int) -> _IndexTable:
    """The shared index table of shape (p, N).  Before building a new one,
    the least recently used tables are dropped while the retained ones and
    the new one would exceed ``_MAX_INTERMEDIATE_BYTES`` by
    ``_storage_bytes``: the cache stays within the limit that
    ``_check_storage`` sets for a single tensor."""
    if (p, N) in _TABLES:
        _TABLES.move_to_end((p, N))
        return _TABLES[p, N]
    if p < 0 or N < 1:
        raise ContractViolation("need p >= 0 and N >= 1")
    _check_storage(p, N)
    need = _storage_bytes(p, N)
    while _TABLES and need + sum(_storage_bytes(*k) for k in _TABLES) > _MAX_INTERMEDIATE_BYTES:
        _TABLES.popitem(last=False)
    _TABLES[p, N] = table = _IndexTable(p, N)
    return table


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



@dataclass(frozen=True)
class _Step:
    """One step of a compiled contraction: the operands at positions ``take``,
    popped in that order, become one operand appended last.

    A step of two operands is numpy's batched-GEMM form of their einsum: each
    operand takes its single-operand subscript in ``prep`` (diagonals, sums,
    transposes) and its reshape in ``shapes`` where these are not None, then
    ``join`` combines the two (``np.matmul``, or ``np.multiply`` when no index
    is summed between them), and the result takes the reshape ``out_shape``
    and the axis order ``perm`` where these are not None.  A step of one or
    of more than two operands is the single einsum ``eq``.
    """

    take: tuple[int, ...]
    eq: Optional[str] = None
    prep: tuple[Optional[str], Optional[str]] = (None, None)
    shapes: tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]] = (None, None)
    join: Optional[Callable] = None
    out_shape: Optional[tuple[int, ...]] = None
    perm: Optional[tuple[int, ...]] = None

    def __call__(self, *ops):
        if self.eq is not None:
            return np.einsum(self.eq, *ops)
        a, b = ops
        (prep_a, prep_b), (shape_a, shape_b) = self.prep, self.shapes
        if prep_a is not None:
            a = np.einsum(prep_a, a)
        if shape_a is not None:
            a = a.reshape(shape_a)
        if prep_b is not None:
            b = np.einsum(prep_b, b)
        if shape_b is not None:
            b = b.reshape(shape_b)
        ab = self.join(a, b)
        if self.out_shape is not None:
            ab = ab.reshape(self.out_shape)
        if self.perm is not None:
            ab = ab.transpose(self.perm)
        return ab


def _pairwise(take: tuple[int, int], a: str, b: str, out: str, N: int) -> _Step:
    """The step a,b->out with every index of size N, grouped as numpy's
    ``bmm_einsum`` groups it (the einsum_bmm scheme of Gray & Kourtis,
    Quantum 5, 410 (2021)).  Every letter of a trace equation sits on two
    slots, so a letter of both operands is needed by no other operand: it is
    contracted, and numpy's batch group stays empty.  Letters of one operand
    that out keeps are kept, each group in operand order, and every other
    letter is summed by its operand's own subscript.  numpy drops axes of
    size 1, so at N = 1 nothing is contracted and the step is a product."""

    def prep(term: str, desired: str) -> Optional[str]:
        return None if term == desired else f"{term}->{desired}"

    left, right = dict.fromkeys(a), dict.fromkeys(b)
    summed = [x for x in left if x in right] if N > 1 else []
    if not summed:
        # each operand summed to the letters of out it holds, laid out in
        # out's order with a size-1 axis for each letter it lacks
        return _Step(
            take,
            prep=tuple(prep(t, "".join(x for x in out if x in t)) for t in (a, b)),
            shapes=tuple(tuple(N if x in t else 1 for x in out) for t in (a, b)),
            join=np.multiply,
        )
    keep_a = [x for x in left if x not in right and x in out]
    keep_b = [x for x in right if x not in left and x in out]

    def fused(*groups: list) -> Optional[tuple[int, ...]]:
        if all(len(g) == 1 for g in groups):
            return None
        return tuple(N ** len(g) for g in groups)

    produced = "".join(keep_a + keep_b)
    return _Step(
        take,
        prep=(prep(a, "".join(keep_a + summed)), prep(b, "".join(summed + keep_b))),
        shapes=(fused(keep_a, summed), fused(summed, keep_b)),
        join=np.matmul,
        out_shape=None if fused(keep_a, keep_b) is None else (N,) * len(produced),
        perm=None if produced == out else tuple(produced.index(x) for x in out),
    )


def _run_steps(steps: Sequence[_Step], operands: list) -> np.ndarray:
    """Run a compiled contraction on its operands, dropping each input as
    soon as its step has consumed it; returns the last operand."""
    for step in steps:
        operands.append(step(*[operands.pop(j) for j in step.take]))
    return operands[0]


@dataclass(frozen=True)
class _Plan:
    """How ``trace_invariant`` contracts one einsum equation at one N.

    The indices of the edges whose letters are in ``sliced`` are fixed: for
    every tuple ``idx`` of their values, ``eq`` (the equation without those
    letters) is contracted along ``path`` with ``dense[idx[j] for j in h]``
    as the operand of a vertex whose entry of ``holders`` is ``h``, and the
    results are summed.  An unsliced plan contracts once.  ``steps`` is
    ``path`` compiled once into the operations numpy's
    ``np.einsum(eq, ..., optimize=path)`` performs, so running it gives the
    same value bit for bit without numpy's per-call parsing.  ``flop``
    (numpy's count, all slices together) and ``max_elems`` (the largest
    intermediate of one slice, in elements) are predicted from the path's
    index sets; ``widest`` is the most operands of one step, above 2 only
    when numpy's search fell back to its naive loop.
    """

    sliced: str
    eq: str
    path: list
    steps: tuple[_Step, ...]
    holders: tuple[tuple[int, ...], ...]
    flop: int
    max_elems: int
    widest: int


_PATH_CACHE: dict[tuple[str, int], _Plan] = {}


@lru_cache(maxsize=None)
def _einsum_eq(b: CombinatorialMap) -> str:
    """One operand per vertex, one letter per edge, scalar output."""
    verts = _vertex_edge_ids(b)
    return ",".join("".join(_EINSUM_LETTERS[e] for e in vert) for vert in verts) + "->"


def _greedy_plan(eq: str, N: int, sliced: str = "") -> _Plan:
    """numpy's greedy path for eq with the letters in sliced fixed and every
    index of size N, its step program and its cost.

    Like numpy's contraction loop, each step pops its operands from the
    highest position down and appends the result, whose letters (those still
    needed by another operand) are sorted."""
    terms = eq[:-2].split(",")
    holders = tuple(tuple(j for j, e in enumerate(sliced) if e in t) for t in terms)
    # allow intermediates up to order 4 (capped), else the path search
    # degrades to the naive full loop on expander-like maps
    budget = min(max(N**4, N ** len(terms[0])), 1 << 26)
    eq = eq.translate({ord(e): None for e in sliced})
    terms = eq[:-2].split(",")
    shapes = [np.broadcast_to(np.zeros(()), (N,) * len(t)) for t in terms]
    path = np.einsum_path(eq, *shapes, optimize=("greedy", budget))[0]
    steps = []
    flop = max_elems = widest = 0
    for step in path[1:]:
        take = tuple(sorted(step, reverse=True))
        picked = [terms.pop(j) for j in take]
        union = set().union(*picked)
        kept = union & set().union(*terms)
        out = "".join(sorted(kept))
        terms.append(out)
        if len(take) == 2:
            steps.append(_pairwise(take, *picked, out, N))
        else:
            steps.append(_Step(take, eq=",".join(picked) + "->" + out))
        flop += N ** len(union) * (max(1, len(step) - 1) + (kept != union))
        max_elems = max(max_elems, N ** len(kept))
        widest = max(widest, len(step))
    return _Plan(
        sliced, eq, path, tuple(steps), holders, N ** len(sliced) * flop, max_elems, widest
    )


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


def _contract(plan: _Plan, dense: np.ndarray) -> float:
    """Run plan.steps once per value tuple of the sliced edge indices, and
    sum the slices with ``math.fsum``.  An unsliced plan is the sum over zero
    edges, one term, with every operand the same ``dense`` object."""
    return math.fsum(
        _run_steps(
            plan.steps, [dense[tuple(idx[j] for j in h)] if h else dense for h in plan.holders]
        )
        for idx in itertools.product(range(len(dense)), repeat=len(plan.sliced))
    )


@lru_cache(maxsize=None)
def _is_k4(b: CombinatorialMap) -> bool:
    """Whether the multigraph of b is the tetrahedron K4: at p = 3, four
    vertices with one edge per vertex pair."""
    k4 = list(itertools.combinations(range(4), 2))
    return b.p == 3 and b.n == 4 and sorted(multigraph(b)) == k4


def _k4_trace(dense: np.ndarray) -> float:
    """Tr of the tetrahedron K4 = sum_{a,f} tr(T_a T_f T_a T_f), T_a = T[a].

    The summand is symmetric under a <-> f, so for each a one matrix product
    gives T_a T_f for every f >= a: by symmetry T[c, f, e] = T_f[c, e], so
    Q[b, f - a, e] = sum_c T[a, b, c] T[c, f, e] = (T_a T_f)[b, e].  The
    parts tr((T_a T_f)^2) = sum_{b,e} Q[b, f, e] Q[e, f, b] are summed with
    ``math.fsum``, the f > a ones twice.  About N^5 FLOP with an N^3
    intermediate, against 4 N^5 for the sliced greedy einsum.
    """
    N = len(dense)
    unfolded = dense.reshape(N, N * N)
    parts = []
    for a in range(N):
        Q = (dense[a] @ unfolded[:, a * N :]).reshape(N, N - a, N)
        s = np.einsum("bfe,efb->f", Q, Q)
        parts.append(s[0])
        parts.extend(2 * s[1:])
    return math.fsum(parts)


def _route(b: CombinatorialMap, N: int):
    """(evaluate, FLOP, largest intermediate in elements) of Tr_b at
    dimension N: the K4 kernel for the tetrahedron, else the einsum plan,
    refused with ``ResourceLimitError`` before any contraction when b has
    more edges than einsum letters or the route is predicted to exceed
    ``_MAX_FLOP`` or ``_MAX_INTERMEDIATE_BYTES``.  ``evaluate`` takes the
    dense tensor.  The kernel's slice a multiplies N x N by N x N(N - a) in
    2 N^3 (N - a) FLOP and takes 2 N^2 (N - a) for its trace sums,
    N^3 (N + 1)^2 over all a; its largest intermediate is Q at a = 0."""
    m = b.size // 2
    if m > _MAX_EDGES:
        raise ResourceLimitError(f"{m} edges exceeds the contraction guard ({_MAX_EDGES})")
    if _is_k4(b):
        evaluate, flop, max_elems = _k4_trace, N**3 * (N + 1) ** 2, N**3
    else:
        plan = _plan(_einsum_eq(b), N)
        evaluate, flop, max_elems = partial(_contract, plan), plan.flop, plan.max_elems
    if flop > _MAX_FLOP or 8 * max_elems > _MAX_INTERMEDIATE_BYTES:
        raise ResourceLimitError(
            f"the trace invariant of a {b.n}-vertex map at N={N} is predicted to "
            f"take {flop:.3g} FLOP with a largest intermediate of "
            f"{8 * max_elems:.3g} bytes; the limits are {_MAX_FLOP:.3g} FLOP "
            f"and {_MAX_INTERMEDIATE_BYTES:.3g} bytes"
        )
    return evaluate, flop, max_elems


def trace_invariant(b: CombinatorialMap, T: SymTensor) -> float:
    """Tr_b(T): sum over edge-index assignments of the product of one tensor
    entry per vertex.

    The tetrahedron K4 at p = 3 takes ``_k4_trace``.  Every other map is a
    tensor-network contraction along numpy's greedy path; when that path
    would build an intermediate of more than ``_SLICE_ELEMS`` elements, or
    finds no pairwise order within its budget, the contraction is sliced over
    the index of one edge (more only while no pairwise order exists): each of
    the N slices puts ``T[i]`` at the edge's two vertices, which by symmetry
    is the slice on any axis, and the slices are summed with ``math.fsum``.
    ``_route`` refuses a route over the limits before any contraction starts.
    """
    if b.p != T.p:
        raise ContractViolation(f"map order {b.p} != tensor order {T.p}")
    evaluate, _, _ = _route(b, T.N)
    return evaluate(T._dense())


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
    z = complex(z)
    if z == 0 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ContractViolation(f"z must be finite and nonzero, got {z}")
    total = 0j
    for n in range(K + 1):
        total += balanced_invariant(n, T) / (T.N * z ** (n + 1))
    return total
