"""The numpy-free layer: entry laws and exact expectations.

Everything here is plain ``int`` and ``fractions.Fraction`` arithmetic, so
the subcommands that count, classify, enumerate and tabulate exact moments
run without loading numpy.  Exact expectations of trace invariants are rational
polynomials in N, in the powers N^k, from one integer dynamic programme per
class and variance profile: the moment-cumulant formula splits the vertices
into groups that read one entry, each a table of index identifications, and
each law weights the terms by the cumulants of their group sizes at the end.
Under Gaussian entries only pairs occur and the programme is Isserlis'
theorem.  The variance of I_n runs it on disjoint unions of two classes.  One
guard prices the programme's terms before any map is enumerated.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import statistics
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import ContractViolation, ResourceLimitError
from .hypergraph import _peel
from .maps import _check_map_budget, _class_keys, _coded_taus, _network_edges, _trace_classes
from .maps import _Network

if TYPE_CHECKING:
    import numpy as np



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
            if self.tail_index is None or not 2 < self.tail_index < math.inf:
                raise ContractViolation("symmetrized-pareto needs a finite tail_index > 2")
        elif self.tail_index is not None:
            raise ContractViolation("tail_index only applies to symmetrized-pareto")

    @classmethod
    def from_string(cls, text: str) -> "EntryDistribution":
        """Parse e.g. ``"rademacher"`` or ``"symmetrized-pareto:3.5"``."""
        if ":" in text:
            kind, arg = text.split(":", 1)
            try:
                tail_index = float(arg)
            except ValueError:
                raise ContractViolation(f"tail index {arg!r} is not a number") from None
            return cls(kind, tail_index)
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
            return rng.integers(0, 2, size).astype("f8") * 2.0 - 1.0
        if self.kind == "uniform":
            r = math.sqrt(3.0)
            return rng.uniform(-r, r, size)
        alpha = self.tail_index
        mag = rng.random(size) ** (-1.0 / alpha)
        sign = rng.integers(0, 2, size).astype("f8") * 2.0 - 1.0
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


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------
#
# The moment-cumulant formula writes E[prod_v T_{I_v}] as a sum over the
# partitions of the vertices into groups.  Distinct entries are independent,
# so a group of r has a nonzero joint cumulant only when its vertices read
# one entry, and it is then kappa_r of the unit law times ((p-1)!)^{-r/2} and
# prod_x c_x!^{r/2} (invariant profile) or 1 (flat) over the entry's index
# multiplicities c_x.  Each member after the lowest vertex v reads v's
# multiset by sum_{s in S_p} prod_a delta(i_a, j_{s(a)}) / prod_x c_x!, and
# Mobius inversion on the partitions of v's slots (Rota,
# Z. Wahrscheinlichkeitstheorie 2 (1964)) turns the leftover prod_x phi(c_x)
# into sum_pi prod_B h(|B|) [v's indices constant on pi's blocks].  So each
# term is a product of index identifications and counts N^(its edge classes).
# The tables take kappa_r = 1; a term keeps lambda, the sizes r > 2 of its
# groups, and a law weights it by prod_{r in lambda} kappa_r at the end.

# a term applies one set of edge identifications to one DP state, 1-2 us on
# a 2-core x86-64 host; ``_price`` puts (3, 6) at 3810 terms per class under
# gaussian-gote and 52,034 under rademacher, (7, 2) at 19,302 under
# gaussian-offdiag-only, and the variance at (3, 4) at 160,062 per class pair
# under gaussian-gote
_ORACLE_TERM_GUARD = 250_000


def _cumulants(moments: Sequence[Fraction]) -> list[Fraction]:
    """Cumulants k_1..k_m (k_0 = 0) of the moments 1, m_1..m_m."""
    k = [Fraction(0)] * len(moments)
    for j in range(1, len(moments)):
        k[j] = moments[j] - sum(
            math.comb(j - 1, i - 1) * k[i] * moments[j - i] for i in range(1, j)
        )
    return k


def _exponential(g: Sequence) -> list:
    """a_k = sum over the set partitions of k < len(g) points of prod_B g_|B|:
    Bell numbers from g = 1, 1, ..., and from g = Bell the steps of a Mobius
    inversion over the whole partition lattice."""
    a = [1]
    for k in range(1, len(g)):
        a.append(sum(math.comb(k - 1, j - 1) * g[j] * a[k - j] for j in range(1, k + 1)))
    return a


@lru_cache(maxsize=None)
def _set_partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Every set partition of range(k) in restricted-growth form."""
    parts: list[tuple[int, ...]] = [()]
    for _ in range(k):
        parts = [rgs + (b,) for rgs in parts for b in range(max(rgs, default=-1) + 2)]
    return tuple(parts)


@lru_cache(maxsize=None)
def _kappas(dist: EntryDistribution, n: int) -> dict[int, Fraction]:
    """kappa_r of the unit law at the sizes 2 <= r <= n it admits (kappa_r != 0)."""
    kappa = _cumulants([dist.moment(j, Fraction(1)) for j in range(n + 1)])
    return {r: kappa[r] for r in range(2, n + 1) if kappa[r]}


@lru_cache(maxsize=None)
def _h(flat: bool, p: int, r: int) -> list[Fraction]:
    """Cumulants h of phi(c) = (c!)^{1-r/2}, or (c!)^{1-r} if flat, c = 0..p."""
    e = 1 - r if flat else 1 - r // 2
    return _cumulants([Fraction(math.factorial(c)) ** e for c in range(p + 1)])


@lru_cache(maxsize=None)
def _table_terms(flat: bool, p: int, r: int, k: int) -> tuple[int, int]:
    """Terms per DP state of a group of r with k own edges by the slot route
    (each pi with prod_B h(|B|) != 0, then each member over p!/prod|B|!
    assignments) and by the lattice route (Bell_2(k)) of ``_group_table``."""
    h = _h(flat, p, r)
    slot = 0
    for t in range(1, r):
        blocks = [0, *(Fraction(h[c] != 0, math.factorial(c) ** t) for c in range(1, p + 1))]
        slot += math.factorial(p) ** t * _exponential(blocks)[p]
    return int(slot), _exponential(_exponential([1] * (k + 1)))[k]


def _price(p: int, n: int, dist: EntryDistribution) -> int:
    """Bound on the terms of ``_group_counts`` per class of n vertices,
    refused over the guard before any map is built: from j unassigned
    vertices a group of r applies at most T(r) terms per state (the cheaper
    route at min(rp, pn/2) own edges), each leading to one state of j - r.
    An odd n has no term: the odd cumulants of a symmetric law are 0."""
    if n % 2:
        return 0
    m = p * n // 2
    cost = {r: min(_table_terms(dist.flat_profile, p, r, min(r * p, m))) for r in _kappas(dist, n)}
    total = [0] * (n + 1)
    for j in range(2, n + 1):
        total[j] = sum(
            math.comb(j - 1, r - 1) * t * (1 + total[j - r]) for r, t in cost.items() if r <= j
        )
    if total[n] > _ORACLE_TERM_GUARD:
        raise ResourceLimitError(
            f"{total[n]} oracle terms per class of {n} vertices exceed the "
            f"oracle guard ({_ORACLE_TERM_GUARD})"
        )
    return total[n]


@lru_cache(maxsize=None)
def _slot_partitions(flat: bool, p: int, r: int) -> tuple:
    """(pi, weight, words) for each partition pi of v's slots with a nonzero
    weight prod_B h(|B|) (|B|!)^{r-1}: the words assign a member's slots to
    pi's blocks, one per coset of pi's Young subgroup.  The weight is an
    ``int``: h(c) sums +-prod_B' (|B'|!)^{-s} over the partitions of c points,
    with s <= r - 1 and prod_B' |B'|! dividing c!."""
    h = _h(flat, p, r)
    out = []
    for pi in _set_partitions(p):
        w = math.prod(h[c] * math.factorial(c) ** (r - 1) for c in Counter(pi).values())
        if w:
            out.append((pi, int(w), sorted(set(itertools.permutations(pi)))))
    return tuple(out)


def _merged(choices: Iterable[tuple[list, int]]) -> tuple:
    """(edge identifications, weight) choices, equal identification sets
    merged and zero weights dropped."""
    merged: Counter = Counter()
    for pairs, w in choices:
        merged[tuple(sorted({(e, f) for e, f in pairs if e != f}))] += w
    return tuple((pairs, w) for pairs, w in merged.items() if w)


@lru_cache(maxsize=None)
def _group_table(members: tuple[tuple[int, ...], ...], flat: bool) -> tuple:
    """Branches of the group whose vertices read the edges ``members``,
    lowest first, at kappa_r = 1: lists of steps, each state taking every
    choice of each step in turn.  The route of fewer terms (``_table_terms``)
    builds them; both give the same identification sets and ``int`` weights.

    Slot route: a branch per partition pi of ``_slot_partitions`` and a step
    per other member, over its words; the first step also identifies v's
    edges within each block of pi and carries pi's weight.  Lattice route: one
    step, W(pi) over the partitions pi of the own edges, W the Mobius
    inversion of F(sigma) = [every member reads one multiset of sigma's
    blocks] times prod_x c_x!^{r/2} of v's (invariant profile).
    """
    r, p = len(members), len(members[0])
    own = list(dict.fromkeys(e for edges in members for e in edges))
    slot, lattice = _table_terms(flat, p, r, len(own))
    if lattice < slot:
        table: Counter = Counter()
        for sigma in _set_partitions(len(own)):
            block = dict(zip(own, sigma))
            reads = [sorted(block[e] for e in edges) for edges in members]
            if any(read != reads[0] for read in reads):
                continue
            f = 1
            if not flat:
                f = math.prod(map(math.factorial, Counter(reads[0]).values())) ** (r // 2)
            for rho in _set_partitions(max(sigma) + 1):
                sizes = Counter(rho).values()
                mu = math.prod((-1) ** (c - 1) * math.factorial(c - 1) for c in sizes)
                table[tuple(rho[x] for x in sigma)] += mu * f
        return ([_merged(
            ([(own[pi.index(b)], own[e]) for e, b in enumerate(pi)], w) for pi, w in table.items()
        )],)
    branches = []
    v = members[0]
    for pi, w, words in _slot_partitions(flat, p, r):
        rep = [v[pi.index(b)] for b in range(max(pi) + 1)]
        base = [(rep[b], e) for e, b in zip(v, pi)]
        steps = []
        for i, member in enumerate(members[1:]):
            first = i == 0  # identifies v's edges within pi's blocks, at pi's weight
            steps.append(_merged(
                ([*(base if first else ()), *((rep[b], e) for e, b in zip(member, word))],
                 w if first else 1)
                for word in words
            ))
        branches.append(steps)
    return tuple(branches)


def _group_counts(
    verts: Sequence[tuple[int, ...]], p: int, flat: bool, sizes: Sequence[int]
) -> tuple[dict[tuple[int, ...], list[int]], int]:
    """({lambda: counts}, terms) for the vertices ``verts``, each the edge ids
    of its p slots, in groups of the ``sizes``: counts[k] is the coefficient
    of N^k in ((p-1)!)^{n/2} times the sum over the edge indices of the terms
    of E[prod_v T_{I_v}] at unit cumulants whose groups of r > 2 have the
    sizes lambda, an ``int``; terms counts the identification sets applied to
    a state.

    A dynamic programme keeps the weight of the partial terms per (mask of
    unassigned vertices, lambda so far, edge partition in restricted-growth
    form) and expands the masks in decreasing order, each through the groups
    of its lowest vertex with r - 1 later ones, for each r of ``sizes``.
    Under a Gaussian law only pairs occur, lambda stays (), each table is the
    p! slot bijections at weight 1 (equal identification sets merged), and
    this is Isserlis' theorem.
    """
    n = len(verts)
    m = n * p // 2
    if n % 2:
        return {}, 0
    pending = {(1 << n) - 1: {(): Counter({tuple(range(m)): 1})}}
    terms = 0
    for mask in range((1 << n) - 1, 0, -1):
        by_signature = pending.pop(mask, None)
        if not by_signature:
            continue
        v = (mask & -mask).bit_length() - 1
        later = [u for u in range(v + 1, n) if mask >> u & 1]
        for r in sizes:
            for others in itertools.combinations(later, r - 1):
                group = (v, *others)
                target = pending.setdefault(mask & ~sum(1 << u for u in group), {})
                tables = _group_table(tuple(verts[u] for u in group), flat)
                for lam, parts in by_signature.items():
                    out = target.setdefault(lam if r == 2 else tuple(sorted((*lam, r))), Counter())
                    for steps in tables:
                        cur = parts
                        for i, step in enumerate(steps, 1 - len(steps)):
                            terms += len(cur) * len(step)
                            nxt = out if i == 0 else Counter()  # the last step adds into out
                            for part, c in cur.items():
                                for pairs, w in step:
                                    labels = part
                                    for e, f in pairs:
                                        x, y = labels[e], labels[f]
                                        if x != y:
                                            x, y = min(x, y), max(x, y)
                                            labels = tuple(
                                                x if z == y else z - (z > y) for z in labels
                                            )
                                    nxt[labels] += c * w
                            cur = nxt
    counts = {lam: [0] * (m + 1) for lam in pending.get(0, {})}
    for lam, parts in pending.get(0, {}).items():
        for part, c in parts.items():
            counts[lam][max(part, default=-1) + 1] += c
    return counts, terms


def _coefficients(counts: dict, p: int, n: int, dist: EntryDistribution) -> tuple:
    """Coefficients of N^{(n/2)(p-1)} times the sum over the edge indices of
    E[prod_v T_{I_v}] under ``dist`` for n vertices, in the powers N^k, from
    their ``_group_counts``: sum_lambda kappa_lambda counts[lambda] over
    ((p-1)!)^{n/2}."""
    kappa = _kappas(dist, n)
    total = [Fraction(0)] * (p * n // 2 + 1)
    for lam, c in counts.items():
        weight = Fraction(math.prod(kappa[r] for r in lam), math.factorial(p - 1) ** (n // 2))
        for k, x in enumerate(c):
            total[k] += weight * x
    return tuple(total)


@lru_cache(maxsize=None)
def _profile_counts(verts: _Network, p: int, flat: bool, sizes: tuple[int, ...]) -> dict:
    """``_group_counts`` of the vertices ``verts``, a class or a disjoint
    union of two, kept for every law of the profile that admits the same
    sizes and every N of a later call."""
    return _group_counts(verts, p, flat, sizes)[0]


def _polynomial(net: _Network, dist: EntryDistribution) -> tuple[Fraction, ...]:
    """``_coefficients`` of E[Tr(W_N)] of the network under ``dist``:
    ``rademacher`` and ``uniform`` share one programme per class."""
    n, p = len(net), len(net[0])
    counts = _profile_counts(net, p, dist.flat_profile, tuple(_kappas(dist, n)))
    return _coefficients(counts, p, n, dist)


def _at(coeffs: Sequence[Fraction], p: int, n: int, N: int) -> Fraction:
    """The value at N of ``_coefficients`` over n vertices."""
    return sum(c * N**k for k, c in enumerate(coeffs)) / Fraction(N) ** ((n // 2) * (p - 1))


def expected_balanced_invariant(
    p: int, n: int, N: int, dist: EntryDistribution
) -> Fraction:
    """Exact E[I_n(W_N)]: the group DP once per multigraph class, weighted
    by the class size; refused by ``_price``, then by the map budget, before
    any map is enumerated."""
    if n == 0:
        return Fraction(N)
    _price(p, n, dist)
    _check_map_budget(p, n)
    return sum(
        (count * _at(_polynomial(net, dist), p, n, N) for net, count in _trace_classes(p, n)),
        Fraction(0),
    )


def _variance_polynomial(p: int, n: int, dist: EntryDistribution) -> tuple[Fraction, ...]:
    """``_coefficients`` of Var[I_n(W_N)] over 2n vertices: w_b w_b'
    (E[Tr_{b u b'}] - E[Tr_b] E[Tr_b']) summed over the unordered class pairs,
    twice off the diagonal, b u b' the disjoint union (the edges of b' offset
    past those of b), its DP shared like a class's by the laws of a profile."""
    classes = [(net, w, _polynomial(net, dist)) for net, w in _trace_classes(p, n)]
    sizes = tuple(_kappas(dist, 2 * n))
    m = p * n // 2
    total = [Fraction(0)] * (2 * m + 1)
    for i, (vi, wi, ci) in enumerate(classes):
        for j, (vj, wj, cj) in enumerate(classes[i:], i):
            weight = wi * wj * (1 if i == j else 2)
            union = vi + tuple(tuple(e + m for e in vert) for vert in vj)
            counts = _profile_counts(union, p, dist.flat_profile, sizes)
            for k, c in enumerate(_coefficients(counts, p, 2 * n, dist)):
                total[k] += weight * c
            for k1, c1 in enumerate(ci):
                for k2, c2 in enumerate(cj):
                    total[k1 + k2] -= weight * c1 * c2
    return tuple(total)


def balanced_invariant_variance(
    p: int, n: int, N: int, dist: EntryDistribution
) -> Fraction:
    """Exact population Var[I_n(W_N)] under every exact law, from the group
    DP on disjoint unions of classes (``_variance_polynomial``).  ``_price``
    of such a union refuses, before any map is enumerated, every size over
    the map budget and ``symmetrized-pareto``, which has no exact moments."""
    if n == 0:
        return Fraction(0)
    _price(p, 2 * n, dist)
    return _at(_variance_polynomial(p, n, dist), p, 2 * n, N)


# ---------------------------------------------------------------------------
# the exact per-map table and the run configuration
# ---------------------------------------------------------------------------


def _require_maps(p: int, n: int) -> None:
    """Refuse an n whose I_n is constant: no map has fewer than one vertex or
    an odd number p*n of halfedges."""
    if n < 1 or p * n % 2:
        raise ContractViolation(f"no map has p={p} and n={n}: I_n is constant")


@dataclass
class ExperimentConfig:
    """Shared knobs of the subcommands; kept free of numpy so that the
    exact subcommands read their settings without loading it."""

    p: int = 3
    n_max: int = 2
    N_grid: tuple[int, ...] = (16, 32)
    samples: int = 200
    seed: int = 1
    dist: EntryDistribution = GAUSSIAN_GOTE
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("p", "n_max", "samples", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ContractViolation(f"{name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.N_grid, str) or not isinstance(self.N_grid, Iterable):
            raise ContractViolation(f"N_grid must be a list of integers, got {self.N_grid!r}")
        self.N_grid = tuple(self.N_grid)
        if not all(isinstance(N, numbers.Integral) for N in self.N_grid):
            raise ContractViolation(f"N_grid must be a list of integers, got {self.N_grid!r}")
        if isinstance(self.dist, str):
            self.dist = EntryDistribution.from_string(self.dist)
        if not isinstance(self.dist, EntryDistribution):
            raise ContractViolation(f"dist must be a distribution name, got {self.dist!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ContractViolation(f"out must be a path, got {self.out!r}")
        if list(self.N_grid) != sorted(self.N_grid) or len(set(self.N_grid)) != len(self.N_grid):
            raise ContractViolation("N_grid must be strictly ascending")
        if not self.N_grid:
            raise ContractViolation("N_grid must not be empty")
        if any(N < 1 for N in self.N_grid):
            raise ContractViolation("dimensions must be positive")
        if self.samples < 2:
            raise ContractViolation("need at least 2 samples to estimate a variance")
        if self.seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {self.seed}")
        if self.fmt not in ("csv", "json"):
            raise ContractViolation("format must be csv or json")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Build a config from a parsed JSON object whose keys are the field
        names (``format`` is accepted for ``fmt``, but not next to it);
        unknown keys are refused."""
        if not isinstance(obj, dict):
            raise ContractViolation("a config must be a JSON object")
        kw = dict(obj)
        if "format" in kw and "fmt" in kw:
            raise ContractViolation("config sets both fmt and format; keep one")
        if "format" in kw:
            kw["fmt"] = kw.pop("format")
        unknown = sorted(set(kw) - {f.name for f in fields(cls)})
        if unknown:
            raise ContractViolation(f"unknown config keys: {', '.join(unknown)}")
        return cls(**kw)


@dataclass
class MelonicLimitRow:
    """Exact expectations of one trace invariant along an N grid."""

    index: int
    code: tuple[int, ...]
    melonic: bool
    alpha: float
    values: tuple[float, ...]
    deviations: tuple[float, ...]
    slope: Optional[float]


def melonic_limit_table(
    p: int, n: int, N_grid: Sequence[int], dist: EntryDistribution
) -> list[MelonicLimitRow]:
    """Exact E[Tr_b(W_N)]/N for every rooted connected map with n vertices,
    against the melonic limit alpha = (p-1)!^{-n/2}.

    The exact values and the melonic flag depend on the map's multigraph
    only, so each class's network (``_trace_classes``) is peeled once, on
    its edge list, and its polynomial in N, from the group DP of every exact
    law (``_polynomial``), is formed once and evaluated on the grid.  Each
    row carries the code the enumerator sorted by, and no map is built.
    The deviation column decays like 1/N; the fitted log-log slope is
    reported per map, or None when the grid has a single N (no line to fit)
    or the map is exact at every N (deviation identically zero, which the
    flat variance profile produces on melonic maps).

    p >= 3 only: at p = 2 the single cycle map is folded by every
    non-crossing partition and its limit is a Catalan number, so the
    one-partition weight alpha does not describe it.
    """
    if p < 3:
        raise ContractViolation("the per-map limit table needs p >= 3")
    _require_maps(p, n)
    _price(p, n, dist)
    _check_map_budget(p, n)
    coded = _coded_taus(p, n)
    nets = iter(_trace_classes(p, n))  # one per new key below, in the same order
    alpha_melonic = Fraction(1, math.factorial(p - 1) ** (n // 2)) if n % 2 == 0 else Fraction(0)
    logN = [math.log(N) for N in N_grid]
    per_class: dict = {}  # the row of each class's first map
    rows = []
    for i, ((code, _), key) in enumerate(zip(coded, _class_keys(p, n))):
        if key not in per_class:
            net, _ = next(nets)
            melonic = _peel(p, _network_edges(net), None)
            alpha = alpha_melonic if melonic else Fraction(0)
            coeffs = _polynomial(net, dist)
            values = [_at(coeffs, p, n, N) / N for N in N_grid]
            devs = [abs(v - alpha) for v in values]
            slope = None
            if len(set(N_grid)) > 1 and all(d > 0 for d in devs):
                slope = statistics.linear_regression(logN, [math.log(d) for d in devs]).slope
            per_class[key] = MelonicLimitRow(
                i, code, melonic, float(alpha),
                tuple(map(float, values)), tuple(map(float, devs)), slope,
            )
        rows.append(replace(per_class[key], index=i, code=code))
    return rows
