"""Symmetric tensors: packed storage, random ensembles, contractions, and
trace-invariant evaluation.

Storage keeps one float64 value per sorted multi-index (i1 <= ... <= ip),
C(N+p-1, p) entries in colexicographic order via the combinadic ranking; the
full symmetry is structural, never duplicated.  A trace invariant is read
off a network (``maps._Network``: each vertex's edge ids), and contracts one
dense tensor copy per vertex over the shared edge indices, along numpy's
greedy path; a contraction whose largest intermediate would be too big, or
that has no pairwise order within the path budget, is sliced over the index
of one edge and summed over its values.  Each plan is compiled once per
(equation, N) into a step program of numpy's own pairwise batched-GEMM
steps behind a batch axis, so a stack of samples contracts together and
each gets ``np.einsum``'s value bit for bit without re-parsing its path on
every call.  At p = 3 the tetrahedron K4 has its own kernel, a sum over the
orbits of an order-8 symmetry of its terms in one stacked matrix product
per index value, and K_{3,3} one through the blocks C_S and C_A of
A = sum_a T_a (x) T_a on the symmetric and antisymmetric squares,
Tr = tr(C_S^3) - tr(C_A^3).  At p = 3 a balanced invariant may also replace
each triangle of a class by one vertex carrying the triangle tensor, built
once per sample for all its classes.  A contraction whose predicted FLOP or
memory exceeds a fixed limit is refused before it starts, and so is a
tensor whose index table and dense expansion would exceed the memory
limit, before its table is built.  The entry laws and the exact
expectations live in the numpy-free ``exact`` module, the trace classes, as
networks, in ``maps``; only ``trace_invariant`` takes a map, and converts it.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimitError
from .exact import GAUSSIAN_GOTE, EntryDistribution
from .exact import expected_balanced_invariant  # noqa: F401  (read as tensor.* by perfbench)
from . import maps

_EINSUM_LETTERS = string.ascii_letters
_MAX_EDGES = len(_EINSUM_LETTERS)
# trace_invariant slices a contraction whose largest intermediate would hold
# more float64 elements than this (2 MiB), and refuses a route predicted to
# exceed either limit below.  The K4 kernel fits them up to N = 287 (9.97e11
# FLOP and a 191 MB peak) and is refused at N = 288 (1.01e12 FLOP); every
# other class at p = 3, n = 4 at N = 128 predicts at most 1.1e9 FLOP.  The
# K_{3,3} kernel is refused at N = 128 (1.13e12 FLOP, a 1.65 GB peak).  The
# byte limit also bounds a tensor's index table and dense expansion together
# (``_check_storage``).
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
    popped in that order, become one operand appended last.  Every operand
    carries a leading batch axis, one entry per sample, that no step mixes.

    A step of two operands is numpy's batched-GEMM form of their einsum: each
    operand takes its prep in ``prep`` and its reshape in ``shapes`` where
    these are not None, then ``join`` combines the two (``np.matmul`` over
    the batch, or ``np.multiply`` when no index is summed between them), and
    the result takes the reshape ``out_shape`` and the axis order ``perm``
    where these are not None.  Every shape leads with -1 for the batch axis.
    A prep is an axis order for ``transpose`` when it only permutes axes,
    else a ``...``-prefixed single-operand einsum (diagonals, sums).  A step
    of one or of more than two operands is the single einsum ``eq``.

    The join writes into buffer ``out`` of the plan's buffers, or into new
    memory where that is None (the last step); an operand whose reshape
    must copy is copied into its buffer in ``copies``.
    """

    take: tuple[int, ...]
    eq: Optional[str] = None
    prep: tuple = (None, None)
    shapes: tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]] = (None, None)
    join: Optional[Callable] = None
    out_shape: Optional[tuple[int, ...]] = None
    perm: Optional[tuple[int, ...]] = None
    out: Optional[int] = None
    copies: tuple[Optional[int], Optional[int]] = (None, None)

    def __call__(self, bufs: list[np.ndarray], *ops):
        if self.eq is not None:
            return np.einsum(self.eq, *ops)
        a, b = map(partial(_prepared, bufs), ops, self.prep, self.shapes, self.copies)
        out = None
        if self.out is not None:
            gemm = self.join is np.matmul
            shape = a.shape[:-1] + b.shape[-1:] if gemm else np.broadcast_shapes(a.shape, b.shape)
            out = bufs[self.out][: math.prod(shape)].reshape(shape)
        ab = self.join(a, b, out=out)
        if self.out_shape is not None:
            ab = ab.reshape(self.out_shape)
        if self.perm is not None:
            ab = ab.transpose(self.perm)
        return ab


def _prepared(bufs: list, x: np.ndarray, prep, shape: Optional[tuple], k: Optional[int]):
    """One operand of a two-operand step, in its prep and reshape: a view,
    or, where k is not None, a copy in the front of buffer k, laid out as
    numpy's own copy would be."""
    if isinstance(prep, tuple):
        x = x.transpose(prep)
    elif prep is not None:
        x = np.einsum(prep, x)
    if k is None:
        return x if shape is None else x.reshape(shape)
    np.copyto(bufs[k][: x.size].reshape(x.shape), x)
    return bufs[k][: x.size].reshape(shape)


def _pairwise(take: tuple[int, int], a: str, b: str, out: str, N: int):
    """The step a,b->out with every index of size N, grouped as numpy's
    ``bmm_einsum`` groups it (the einsum_bmm scheme of Gray & Kourtis,
    Quantum 5, 410 (2021)), behind a batch axis, without its buffers.  Every
    letter of a trace equation sits on two slots, so a letter of both
    operands is needed by no other operand: it is contracted, and numpy's
    batch group stays empty.  Letters of one operand that out keeps are
    kept, each group in operand order, and every other letter is summed by
    its operand's own subscript.  numpy drops axes of size 1, so at N = 1
    nothing is contracted and the step is a product.

    Returns the step, the groups of letters each operand's reshape fuses,
    which make up its axes after its prep (none for a product), and the
    letters of the join's result in memory order."""

    def prep(term: str, desired: str):
        if term == desired:
            return None
        if sorted(term) == sorted(desired) and len(set(term)) == len(term):
            return (0, *(1 + term.index(x) for x in desired))
        return f"...{term}->...{desired}"

    left, right = dict.fromkeys(a), dict.fromkeys(b)
    summed = "".join(x for x in left if x in right) if N > 1 else ""
    if not summed:
        # each operand summed to the letters of out it holds, laid out in
        # out's order with a size-1 axis for each letter it lacks
        step = _Step(
            take,
            prep=tuple(prep(t, "".join(x for x in out if x in t)) for t in (a, b)),
            shapes=tuple((-1, *(N if x in t else 1 for x in out)) for t in (a, b)),
            join=np.multiply,
        )
        return step, ((), ()), out
    keep_a = "".join(x for x in left if x not in right and x in out)
    keep_b = "".join(x for x in right if x not in left and x in out)

    def fused(*groups: str) -> Optional[tuple[int, ...]]:
        if all(len(g) == 1 for g in groups):
            return None
        return (-1, *(N ** len(g) for g in groups))

    produced = keep_a + keep_b
    step = _Step(
        take,
        prep=(prep(a, keep_a + summed), prep(b, summed + keep_b)),
        shapes=(fused(keep_a, summed), fused(summed, keep_b)),
        join=np.matmul,
        out_shape=None if fused(keep_a, keep_b) is None else (-1, *(N,) * len(produced)),
        perm=None if produced == out else (0, *(1 + produced.index(x) for x in out)),
    )
    return step, ((keep_a, summed), (summed, keep_b)), produced


def _run_steps(steps: Sequence[_Step], operands: list, bufs: list[np.ndarray]) -> np.ndarray:
    """Run a compiled contraction on its operands and its plan's buffers;
    returns the last operand, which is new memory."""
    for step in steps:
        operands.append(step(bufs, *[operands.pop(j) for j in step.take]))
    return operands[0]


@dataclass(frozen=True)
class _Plan:
    """How a trace invariant contracts one einsum equation at one N.

    The indices of the edges whose letters are in ``sliced`` are fixed: for
    every tuple ``idx`` of their values, ``eq`` (the equation without those
    letters) is contracted along ``path`` with ``X[idx[j] for j in h]`` as
    the operand of a vertex whose tensor is X and whose entry of ``holders``
    is ``h``, and the results are summed.  An unsliced plan contracts once.
    ``steps`` is ``path`` compiled once into the operations numpy's
    ``np.einsum(eq, ..., optimize=path)`` performs, behind a batch axis, so
    running it gives that value bit for bit for every sample without numpy's
    per-call parsing.  ``flop`` (numpy's count, all slices together) and
    ``max_elems`` (the largest intermediate of one slice, in elements) are
    predicted per sample from the path's index sets; ``widest`` is the most
    operands of one step, above 2 only when numpy's search fell back to its
    naive loop.  ``buffers`` holds the size, in elements per sample, of each
    buffer the steps write their joins and copies into.
    """

    sliced: str
    eq: str
    path: list
    steps: tuple[_Step, ...]
    holders: tuple[tuple[int, ...], ...]
    flop: int
    max_elems: int
    widest: int
    buffers: tuple[int, ...]


_PATH_CACHE: dict[tuple[str, int], _Plan] = {}


@lru_cache(maxsize=None)
def _einsum_eq(net: maps._Network) -> str:
    """One operand per vertex, one letter per edge, scalar output."""
    return ",".join("".join(_EINSUM_LETTERS[e] for e in vert) for vert in net) + "->"


def _greedy_plan(eq: str, N: int, sliced: str = "") -> _Plan:
    """numpy's greedy path for eq with the letters in sliced fixed and every
    index of size N, its step program, its buffers and its cost.

    Like numpy's contraction loop, each step pops its operands from the
    highest position down and appends the result, whose letters (those still
    needed by another operand) are sorted.

    Each operand's letters are tracked in memory order: an input's as in its
    term, a join's as written, a prep's sum as in its source (``np.einsum``
    keeps the order).  A reshape copies exactly where a group of letters it
    fuses is not contiguous, in that order.  Every copy, and every join but
    the last, writes into a buffer, free again once nothing reads it: a
    copied or summed source before the join's buffer is taken, the join's
    inputs after it, so no join writes into memory it reads."""
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
    sizes, free = [], []  # elements per sample of each buffer; the free ones
    held = [(t, None) for t in terms]  # each operand's memory order and buffer

    def release(*ks: Optional[int]) -> None:
        free.extend(k for k in ks if k is not None)

    def claim(n: int) -> int:
        """The smallest free buffer that holds n, else the largest free one,
        grown to n, else a new one."""
        if not free:
            free.append(len(sizes))
            sizes.append(n)
        k = min(free, key=lambda k: (sizes[k] < n, abs(sizes[k] - n)))
        free.remove(k)
        sizes[k] = max(sizes[k], n)
        return k

    for i, step in enumerate(path[1:], 1):
        take = tuple(sorted(step, reverse=True))
        picked = [terms.pop(j) for j in take]
        sources = [held.pop(j) for j in take]
        union = set().union(*picked)
        kept = union & set().union(*terms)
        out = "".join(sorted(kept))
        terms.append(out)
        flop += N ** len(union) * (max(1, len(step) - 1) + (kept != union))
        max_elems = max(max_elems, N ** len(kept))
        widest = max(widest, len(step))
        if len(take) != 2:  # one operand or numpy's naive loop: only ever the last step
            steps.append(_Step(take, eq=",".join("..." + t for t in picked) + "->..." + out))
            continue
        pairwise, groups, layout = _pairwise(take, *picked, out, N)
        copies, read = [], []
        for (mem, owner), fused, prep in zip(sources, groups, pairwise.prep):
            axes = "".join(fused)
            if isinstance(prep, str):  # summed into a new array
                release(owner)
                mem, owner = "".join(x for x in mem if x in axes), None
            copies.append(None if all(g in mem for g in fused) else claim(N ** len(axes)))
            if copies[-1] is not None:
                release(owner)
                owner = copies[-1]
            read.append(owner)
        joined = None if i == len(path) - 1 else claim(N ** len(out))
        release(*read)
        steps.append(replace(pairwise, out=joined, copies=tuple(copies)))
        held.append((layout, joined))
    return _Plan(
        sliced, eq, path, tuple(steps), holders, N ** len(sliced) * flop, max_elems, widest,
        tuple(sizes),
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


def _contract(plan: _Plan, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Tr per sample of plan's network, shape (B,): operands[v] is the stack
    of vertex v's tensors, one per sample on the leading axis.  plan.steps run
    once per value tuple of the sliced edge indices, and each sample's slices
    are summed with ``math.fsum``.  The batch runs together while B times
    the plan's largest intermediate stays within ``_SLICE_ELEMS``, else one
    sample at a time; either way a sample gets the same bits.  Every slice
    and sample writes into the plan's buffers, allocated once for the call."""
    B, N = operands[0].shape[:2]
    chunk = 1 if B * plan.max_elems > _SLICE_ELEMS else max(B, 1)
    bufs = [np.empty(chunk * size) for size in plan.buffers]
    values = []
    for i in range(0, B, chunk):
        batch = [op[i : i + chunk] for op in operands]
        slices = [
            _run_steps(
                plan.steps,
                [op[(slice(None), *(idx[j] for j in h))] for op, h in zip(batch, plan.holders)],
                bufs,
            )
            for idx in itertools.product(range(N), repeat=len(plan.sliced))
        ]
        values.extend(math.fsum(parts) for parts in zip(*slices))
    return np.array(values)


@lru_cache(maxsize=None)
def _is_k4(net: maps._Network) -> bool:
    """Whether the multigraph of net is the tetrahedron K4: four vertices
    of three edges each, one edge per vertex pair."""
    k4 = list(itertools.combinations(range(4), 2))
    return len(net) == 4 and len(net[0]) == 3 and sorted(maps._network_edges(net)) == k4


# elements (8 KiB) that ``_k4_cost`` and ``_k33_cost`` allow for the array
# headers and Python objects of one call, which tracemalloc counts with the
# arrays: at most 3.3 KB in a first call of either kernel at N = 8 to 64
_KERNEL_OBJECTS = 1024


@lru_cache(maxsize=4)
def _k4_weights(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(above, weights) of ``_k4_trace`` at dimension N: above[x, y] is 1
    for y > x and 0 elsewhere, and weights is above with 1/4 on its
    diagonal."""
    above = np.triu(np.ones((N, N)), 1)
    weights = above.copy()
    np.fill_diagonal(weights, 0.25)
    above.flags.writeable = weights.flags.writeable = False  # shared by every call
    return above, weights


def _k4_trace(dense: np.ndarray) -> float:
    """Tr of the tetrahedron K4 = sum_{x,y} tr(T_x T_y T_x T_y), T_x = T[x].

    With the Gram matrix G[(x, u), (y, v)] = sum_c T[x, u, c] T[y, v, c] =
    (T_x T_y)[u, v], K4 = sum_{x,y,u,v} F, F = G[(x, u), (y, v)] G[(x, v),
    (y, u)].  By symmetry of T, F is invariant under x <-> y, u <-> v and
    (x, y) <-> (u, v), a group of order 8 that moves any of the four
    positions to x.  So K4 = 4 sum F / c over the tuples whose smallest
    index sits at x, c the number of the four indices equal to x.

    The strict part, x < y, u, v: for each x one stacked product gives
    out[y, v, u] = G[(x, u), (y, v)] for y, v, u > x, and F sums to
    sum out[y, v, u] out[y, u, v]; 2 N (N - 1 - x)^3 FLOP, about N^5 / 2 in
    all, against N^5 for the pairs of slices.  The ties, where x recurs,
    need B_x = T_x^2, A_x = sum_c T[x, x, c] T_c and C[x, y] = B_x[x, y]:
    they sum to sum_x [sum_{y,v>x} A_x B_x + sum_{u,v>x} B_x^2 / 2 +
    sum_{y>x} C[x, y]^2 + C[x, x]^2 / 4].  With B masked to y, v > x, the
    first is sum_{x,c} T[x, x, c] <B_x, T_c>, one matrix product for all x.
    B takes the N^3 buffer that each out is later written into; the parts
    are summed with ``math.fsum``.
    """
    N = len(dense)
    above, weights = _k4_weights(N)
    buf = np.empty(N**3)
    b = buf.reshape(N, N, N)
    np.matmul(dense, dense, out=b)
    c = np.diagonal(b)  # c[y, x] = C[x, y]
    parts = [np.einsum("xy,yx,yx->", weights, c, c)]
    b *= above[:, :, None]
    b *= above[:, None, :]
    # by symmetry of T its N^2 x N unfolding's columns are the T_c
    projected = b.reshape(N, N * N) @ dense.reshape(N * N, N)
    parts.append(np.einsum("cx,xc->", np.diagonal(dense), projected))
    parts.append(np.einsum("i,i->", buf, buf) / 2)
    for x in range(N - 1):
        n = N - 1 - x
        out = buf[: n**3].reshape(n, n, n)
        np.matmul(dense[x + 1 :, x + 1 :], dense[x, :, x + 1 :], out=out)
        parts.append(np.einsum("yvu,yuv->", out, out))
    return 4 * math.fsum(parts)


def _k4_cost(N: int) -> tuple[int, int]:
    """(FLOP, peak live elements) of ``_k4_trace`` at dimension N.

    The strict part takes 2 (N + 1) n^3 for n = N - 1 - x, its product and
    its sum: (N + 1) N^2 (N - 1)^2 / 2 in all.  The ties take 2 N^4 for B
    and 2 N^4 for its product with the T_c; their O(N^3) passes are left
    out, as ``_k33_cost`` leaves out its takes.  Live at the peak are the
    buffer, the cached above and weights, the projected N x N product, one
    buffer of numpy's iterator (``np.getbufsize()`` elements, taken by the
    masks and by the sum over C), and ``_KERNEL_OBJECTS``."""
    flop = (N + 1) * N**2 * (N - 1) ** 2 // 2 + 4 * N**4
    return flop, N**3 + 3 * N**2 + np.getbufsize() + _KERNEL_OBJECTS


@lru_cache(maxsize=None)
def _is_k33(net: maps._Network) -> bool:
    """Whether the multigraph of net is K_{3,3}: six vertices of three edges
    each, each joined once to each of the three on the other side, which are
    the neighbours of vertex 0."""
    if len(net) != 6 or len(net[0]) != 3:
        return False
    edges = sorted(maps._network_edges(net))
    side = {v for e in edges if 0 in e for v in e} - {0}
    other = set(range(6)) - side
    return edges == sorted((min(u, v), max(u, v)) for u in other for v in side)


def _k33_chunk(N: int) -> int:
    """Values of x per slab of the K_{3,3} kernel: all of them while the N^4
    slab fits in ``_SLICE_ELEMS``, else one, as ``_triangle_tensor`` does."""
    return N if N**4 <= _SLICE_ELEMS else 1


@lru_cache(maxsize=4)
def _k33_index(N: int, chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the first slab of ``_k33_blocks`` holds the rows of C_S and C_A.

    The slab of the x in [x0, x0 + chunk) holds A[(x, y), (u, v)] for
    y >= x0 at [x - x0, y - x0, v, u].  Returns the flat indices into the
    first slab (x0 = 0) of A[(x, y), (u, v)], at [0], and of A[(x, y), (v, u)],
    at [1], for the rows (x, y >= x) and columns u <= v of C_S and the rows
    (x, y > x) and columns u < v of C_A, in x-major order; and the positions
    of the pairs (x, x) among the pairs u <= v.  A later slab holds one x, in
    the layout of the first with its rows y - x0 < N - x0, so its indices are
    the first rows of these."""
    x, y = np.triu_indices(N)
    x, y = x[x < chunk], y[x < chunk]
    u, v = np.triu_indices(N)
    rows = (x * N + y)[:, None] * N * N

    def at(rows, u, v):
        return np.stack([rows + v * N + u, rows + u * N + v])

    strict = u < v
    return at(rows, u, v), at(rows[x < y], u[strict], v[strict]), np.flatnonzero(u == v)


def _k33_blocks(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C_S and C_A of one order-3 tensor T: the blocks on Sym^2 and Alt^2 of
    A = sum_a T_a (x) T_a, A[(x, y), (u, v)] = sum_a T[a, x, u] T[a, y, v], in
    the orthonormal bases of the pairs x <= y and x < y, in x-major order.

    By symmetry of T, the product of the N^2 x N unfolding's rows (y, v),
    y >= x0, with T_x gives A[(x, y), (u, v)]: one stacked matrix product per
    chunk of x (``_k33_chunk``).  A commutes with the swap P of the two
    factors, so C_S[(x, y), (u, v)] = (A[(x, y), (u, v)] + A[(x, y), (v, u)])
    w_xy w_uv, with w = 1/sqrt(2) on the pairs (x, x) and 1 elsewhere, and
    C_A is the difference without weights.  A itself is never built: one
    slab at a time, of at most ``_SLICE_ELEMS`` or N^3 elements."""
    N = len(dense)
    chunk = _k33_chunk(N)
    index_s, index_a, diag = _k33_index(N, chunk)
    n_s, n_a = N * (N + 1) // 2, N * (N - 1) // 2
    c_s, c_a = np.empty((n_s, n_s)), np.empty((n_a, n_a))
    unfolded = dense.reshape(N * N, N)
    slab = np.empty(chunk * N**3)
    r_s = r_a = 0
    for x0 in range(0, N, chunk):
        k_s = sum(N - x for x in range(x0, x0 + chunk))
        k_a = k_s - chunk
        out = slab[: chunk * N * N * (N - x0)].reshape(chunk, -1, N)
        np.matmul(unfolded[x0 * N :], dense[x0 : x0 + chunk], out=out)
        # mode="clip" takes straight into the rows; the default buffers them
        rows = c_s[r_s : r_s + k_s]
        np.take(out, index_s[0, :k_s], out=rows, mode="clip")
        rows += np.take(out, index_s[1, :k_s])
        rows = c_a[r_a : r_a + k_a]
        np.take(out, index_a[0, :k_a], out=rows, mode="clip")
        rows -= np.take(out, index_a[1, :k_a])
        r_s, r_a = r_s + k_s, r_a + k_a
    w = math.sqrt(0.5)
    c_s[diag] *= w
    c_s[:, diag] *= w
    return c_s, c_a


def _cube_trace(c: np.ndarray) -> float:
    """tr(C^3) of a symmetric C: the sum of (C^T C) * C, with C^T C numpy's
    SYRK product and the sum numpy's own pairwise one, never a BLAS dot, so
    that the bits do not depend on the BLAS thread count."""
    product = c.T @ c
    np.multiply(product, c, out=product)
    return float(product.sum())


def _k33_trace(dense: np.ndarray) -> float:
    """Tr of K_{3,3} (abc,ade,bfg,chi,dfh,egi) = sum_{a,b,c} tr((T_a T_b T_c)^2)
    = tr(A^3 P), with A and P of ``_k33_blocks``.  P is +1 on Sym^2 and -1 on
    Alt^2, so Tr = tr(C_S^3) - tr(C_A^3): two SYRK products of order
    N(N +- 1)/2, about N^6 / 4 FLOP, with C_S, C_A and one product live.
    The step program's cheapest pairwise order has a step over six indices,
    about 2.4 N^6 FLOP; the symmetry of T is what goes below it."""
    c_s, c_a = _k33_blocks(dense)
    return _cube_trace(c_s) - _cube_trace(c_a)


def _k33_cost(N: int) -> tuple[int, int]:
    """(FLOP, peak live elements) of ``_k33_trace`` at dimension N.

    The slab of x0 <= x < x0 + chunk takes 2 chunk N^3 (N - x0) FLOP: in
    all, N^4 (N + 1) in slabs of one x and 2 N^5 in one slab.  A SYRK product
    of order n takes n^2 (n + 1).  Live at the peak are the cached indices,
    C_S and C_A, and either the first slab with one take of its C_S rows or
    the product of C_S; and ``_KERNEL_OBJECTS``."""
    chunk = _k33_chunk(N)
    n_s, n_a = N * (N + 1) // 2, N * (N - 1) // 2
    slabs = sum(2 * chunk * N**3 * (N - x0) for x0 in range(0, N, chunk))
    flop = slabs + n_s**2 * (n_s + 1) + n_a**2 * (n_a + 1)
    k_s = sum(N - x for x in range(chunk))
    index = 2 * k_s * n_s + 2 * (k_s - chunk) * n_a + N
    filling = chunk * N**3 + k_s * n_s
    return flop, index + n_s**2 + n_a**2 + max(filling, n_s**2) + _KERNEL_OBJECTS


def _triangle_tensor(dense: np.ndarray) -> np.ndarray:
    """Delta[c, e, f] = sum_{a,b,d} T_abc T_ade T_bdf for each order-3
    tensor T of the stack: the triangle with its three outer legs, itself
    symmetric.  Per value of c, by symmetry of T, two matrix products:
    M_c[b, (d, e)] = (T[c] T_(1))[b, (d, e)] = sum_a T_abc T_ade, then
    Delta[c] = M_c^T T_(2) over the rows (b, d), with T_(1) and T_(2) the
    N x N^2 and N^2 x N unfoldings; 4 N^5 FLOP.  The values of c run as one
    stacked product while the N^4 intermediate fits in ``_SLICE_ELEMS``,
    else one at a time, with the same bits; samples never share one.  Every
    M is written into one buffer, and every product straight into the
    result."""
    N = dense.shape[1]
    out = np.empty_like(dense)
    chunk = N if N**4 <= _SLICE_ELEMS else 1
    M = np.empty((chunk, N, N * N))
    for T, delta in zip(dense, out):
        rows, cols = T.reshape(N, N * N), T.reshape(N * N, N)
        for c in range(0, N, chunk):
            np.matmul(T[c : c + chunk], rows, out=M)
            np.matmul(M.reshape(-1, N * N, N).transpose(0, 2, 1), cols, out=delta[c : c + chunk])
    return out


@lru_cache(maxsize=None)
def _triangle_eq(net: maps._Network) -> Optional[tuple[str, int]]:
    """(equation, k) of the network with k disjoint triangles each replaced
    by one vertex carrying ``_triangle_tensor``, those k operands first; None
    when it has no triangle.  At p = 3 only: a triangle is three vertices, each
    pair joined by a single edge, so their third edges are three distinct
    edges leaving it.  Triangles are taken greedily in vertex order, and
    only among vertices no taken triangle holds: the prism
    abc,ade,bdf,cgh,egi,fhi becomes cef,cef."""
    if len(net[0]) != 3:
        return None
    taken: set[int] = set()
    deltas = []
    for tri in itertools.combinations(range(len(net)), 3):
        if not taken.isdisjoint(tri):
            continue
        sides = [[e for e in net[u] if e in net[v]] for u, v in itertools.combinations(tri, 2)]
        if all(len(side) == 1 for side in sides):
            inner = {side[0] for side in sides}
            deltas.append(tuple(e for u in tri for e in net[u] if e not in inner))
            taken.update(tri)
    if not deltas:
        return None
    rest = [vert for u, vert in enumerate(net) if u not in taken]
    terms = ("".join(_EINSUM_LETTERS[e] for e in vert) for vert in deltas + rest)
    return ",".join(terms) + "->", len(deltas)


def _refuse_over_limits(what: str, flop: int, max_elems: int) -> None:
    if flop > _MAX_FLOP or 8 * max_elems > _MAX_INTERMEDIATE_BYTES:
        raise ResourceLimitError(
            f"{what} is predicted to take {flop:.3g} FLOP and to hold "
            f"{8 * max_elems:.3g} bytes at once; the limits are {_MAX_FLOP:.3g} FLOP "
            f"and {_MAX_INTERMEDIATE_BYTES:.3g} bytes"
        )


def _class_route(net: maps._Network, N: int):
    """(evaluate, FLOP, elements) of the network's Tr at dimension N: the K4
    kernel for the tetrahedron, the K_{3,3} kernel for K_{3,3}, else the
    einsum plan; ``evaluate`` takes the stack of dense tensors and gives Tr
    per sample, and the elements are the largest intermediate, or for a
    kernel its peak of live arrays (``_k4_cost``, ``_k33_cost``).  It is
    refused when it has more edges than einsum letters.  The K4 kernel
    takes about N^5 / 2 FLOP and holds one N^3 buffer; the limits admit it
    up to N = 287.  Both kernels run the samples one at a time, so a sample
    gets the bits it gets alone."""
    m = sum(map(len, net)) // 2
    if m > _MAX_EDGES:
        raise ResourceLimitError(f"{m} edges exceeds the contraction guard ({_MAX_EDGES})")
    if _is_k4(net):
        return partial(_each_sample, _k4_trace), *_k4_cost(N)
    if _is_k33(net):
        return partial(_each_sample, _k33_trace), *_k33_cost(N)
    plan = _plan(_einsum_eq(net), N)
    return partial(_contract_plain, plan), plan.flop, plan.max_elems


def _each_sample(kernel: Callable[[np.ndarray], float], dense: np.ndarray) -> np.ndarray:
    return np.array([kernel(T) for T in dense])


def _contract_plain(plan: _Plan, dense: np.ndarray) -> np.ndarray:
    return _contract(plan, [dense] * len(plan.holders))


def _contract_reduced(plan: _Plan, k: int, dense: np.ndarray, delta: np.ndarray) -> np.ndarray:
    return _contract(plan, [delta] * k + [dense] * (len(plan.holders) - k))


def _route(p: int, n: int, N: int) -> tuple[tuple[int, Callable, bool], ...]:
    """How ``balanced_invariants`` evaluates I_n at dimension N: (class size,
    evaluate, reduced) per class, chosen from predicted FLOP and refused with
    ``ResourceLimitError`` before any contraction when a part of it is
    predicted to exceed ``_MAX_FLOP`` or ``_MAX_INTERMEDIATE_BYTES``.

    Each class takes ``_class_route``, except that a class with a triangle
    (``_triangle_eq``) is reduced, its evaluate taking the stacks of dense
    and of triangle tensors, when its smaller network costs fewer FLOP and
    the triangle tensor is built.  That tensor is built once per sample for
    all reduced classes, so it is charged once, and only when the FLOP it
    saves exceed its own.  The route depends on (p, n, N) alone."""
    classes = maps._trace_classes(p, n)
    plain = [_class_route(net, N) for net, _ in classes]
    eqs = [_triangle_eq(net) for net, _ in classes]
    small = [None if eq is None else (_plan(eq[0], N), eq[1]) for eq in eqs]
    saved = sum(max(0, route[1] - s[0].flop) for route, s in zip(plain, small) if s)
    # _triangle_tensor per sample: 4 N^5 FLOP, its M of N^4 or, sliced, N^3
    delta_flop, delta_elems = 4 * N**5, N**4 if N**4 <= _SLICE_ELEMS else N**3
    build = saved > delta_flop
    if build:
        _refuse_over_limits(f"the triangle tensor at N={N}", delta_flop, delta_elems)
    terms = []
    for (_, count), route, s in zip(classes, plain, small):
        reduced = build and s is not None and s[0].flop < route[1]
        if reduced:
            plan, k = s
            route = partial(_contract_reduced, plan, k), plan.flop, plan.max_elems
        evaluate, flop, max_elems = route
        _refuse_over_limits(f"the trace invariant of a {n}-vertex map at N={N}", flop, max_elems)
        terms.append((count, evaluate, reduced))
    return tuple(terms)


def trace_invariant(b: maps.CombinatorialMap, T: SymTensor) -> float:
    """Tr_b(T): sum over edge-index assignments of the product of one tensor
    entry per vertex.

    b is read as its network (``maps._vertex_edge_ids``).  At p = 3 the
    tetrahedron K4 takes ``_k4_trace`` and K_{3,3} ``_k33_trace``.  Every
    other map is a tensor-network contraction along numpy's greedy path;
    when that path would build an intermediate of more than ``_SLICE_ELEMS``
    elements, or finds no pairwise order within its budget, the contraction
    is sliced over the index of one edge (more only while no pairwise order
    exists): each of the N slices puts ``T[i]`` at the edge's two vertices,
    which by symmetry is the slice on any axis, and the slices are summed
    with ``math.fsum``.  The route is refused before any contraction when it
    is over the limits.
    """
    if b.p != T.p:
        raise ContractViolation(f"map order {b.p} != tensor order {T.p}")
    evaluate, flop, max_elems = _class_route(maps._vertex_edge_ids(b), T.N)
    _refuse_over_limits(f"the trace invariant of a {b.n}-vertex map at N={T.N}", flop, max_elems)
    return float(evaluate(T._dense()[None])[0])


def _dense_stack(tensors: Sequence[SymTensor]) -> np.ndarray:
    """The dense expansions of tensors of one shape on a leading axis."""
    p, N = tensors[0].p, tensors[0].N
    values = np.stack([T.values for T in tensors])
    dense = np.take(values, _table(p, N).dense_map(), axis=1)
    return dense.reshape((len(tensors),) + (N,) * p)


def balanced_invariants(n: int, dense: np.ndarray) -> np.ndarray:
    """I_n of every tensor in a stack of dense symmetric tensors (shape
    (B, N, ..., N)), as an array of B values: each class of ``_route`` once
    for the whole stack, its Tr per sample times the class size summed over
    the classes with ``math.fsum``, in class order.  A sample's value does
    not depend on the rest of the stack."""
    if n < 0:
        raise ContractViolation("n must be nonnegative")
    B, p = len(dense), dense.ndim - 1
    if p < 2:
        raise ContractViolation("balanced invariants need tensor order >= 2")
    N = dense.shape[1]
    if n == 0:
        return np.full(B, float(N))
    terms = _route(p, n, N)
    parts = {j: c * f(dense) for j, (c, f, r) in enumerate(terms) if not r}
    if len(parts) < len(terms):  # built after the other classes, so never on top of them
        delta = _triangle_tensor(dense)
        parts.update({j: c * f(dense, delta) for j, (c, f, r) in enumerate(terms) if r})
    cols = zip(*(parts[j] for j in range(len(terms))))
    return np.array([math.fsum(col) for col in cols] if terms else np.zeros(B))


def balanced_invariant(n: int, T: SymTensor) -> float:
    """I_n(T) = sum of Tr_b(T) over the rooted connected p-regular maps with
    n vertices; N by convention at n = 0.  The batch of one of
    ``balanced_invariants``."""
    if n == 0:
        return float(T.N)
    return float(balanced_invariants(n, T._dense()[None])[0])


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
