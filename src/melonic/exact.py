"""The numpy-free layer: entry laws, trace classes and exact expectations.

Everything here is plain ``int`` and ``fractions.Fraction`` arithmetic, so
the subcommands that count, classify, enumerate and tabulate exact moments
run without loading numpy.  Maps are grouped into trace classes by
multigraph isomorphism.  Exact expectations of trace invariants are rational
polynomials in N.  Under Gaussian entries they come from Isserlis' theorem,
one dynamic programme over vertex pairings per class; under the other exact
laws from one pass over the edge partitions, which stays the reference the
tests compare both against, with exhaustive index sums behind it.
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
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .errors import ContractViolation, ResourceLimitError
from .hypergraph import is_melonic_graph
from .maps import CombinatorialMap, _check_map_budget, canonical_code, cycles, edge_list
from .maps import multigraph, rooted_connected

if TYPE_CHECKING:
    import numpy as np


_PARTITION_EDGE_GUARD = 9
# the pairing oracle sums (n-1)!! (p!)^{n/2} terms per class of n vertices, at
# 1-2 us a term on a 2-core x86-64 host: (3, 6) has 3240, (8, 2) 40,320, and
# the variance at (3, 4) 136,080 per class pair of 8 vertices
_PAIRING_TERM_GUARD = 250_000


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


def entry_sigma2(dist: EntryDistribution, p: int, multiplicities: Sequence[int]) -> Fraction:
    """Exact variance of an unscaled entry whose index has the given
    multiplicity pattern (counts summing to p)."""
    if dist.flat_profile:
        return Fraction(1, math.factorial(p - 1))
    num = math.prod(math.factorial(c) for c in multiplicities)
    return Fraction(num, math.factorial(p - 1))


# ---------------------------------------------------------------------------
# trace classes
# ---------------------------------------------------------------------------


def _vertex_edge_ids(b: CombinatorialMap) -> list[tuple[int, ...]]:
    """For each vertex, the edge index of every halfedge in cycle order."""
    edge_of = {}
    for i, (h, k) in enumerate(edge_list(b)):
        edge_of[h] = i
        edge_of[k] = i
    return [tuple(edge_of[h] for h in cyc) for cyc in cycles(b.sigma)]


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


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------


def _scale_exact(total: Fraction, n: int, p: int, N: int) -> Fraction:
    if total == 0:
        return Fraction(0)
    assert n % 2 == 0  # nonzero expectations need an even number of factors
    return total / Fraction(N ** ((n // 2) * (p - 1)))


def _pairing_terms(p: int, n: int) -> int:
    """Terms of the Isserlis sum over n vertices of valence p: (n-1)!!
    vertex pairings times p! slot bijections per pair; none for odd n."""
    if n % 2:
        return 0
    return math.prod(range(n - 1, 0, -2)) * math.factorial(p) ** (n // 2)


def _check_oracle_work(p: int, n: int, pairing: bool) -> None:
    """Refuse an exact expectation over classes of n vertices of valence p
    before any work when its route's count exceeds the route's guard: the
    pairing terms of ``_pairing_terms`` against ``_PAIRING_TERM_GUARD``, or
    the Bell(pn/2) edge partitions against ``_PARTITION_EDGE_GUARD`` edges."""
    if pairing:
        terms = _pairing_terms(p, n)
        if terms > _PAIRING_TERM_GUARD:
            raise ResourceLimitError(
                f"{terms} pairing terms per class of {n} vertices exceed the "
                f"pairing guard ({_PAIRING_TERM_GUARD})"
            )
    elif p * n % 2 == 0 and p * n // 2 > _PARTITION_EDGE_GUARD:
        raise ResourceLimitError(f"Bell({p * n // 2}) partitions exceed the partition guard")


def _pairing_counts(verts: Sequence[tuple[int, ...]], p: int) -> list[int]:
    """counts[k]: the terms of the Isserlis sum for Gaussian entries whose
    edges fall into k classes, for the vertices ``verts`` (each the edge ids
    of its p slots, every edge at two slots).

    A term pairs the vertices and gives each pair (v, w) a bijection s of the
    slots; it identifies the edge at slot a of v with the edge at slot s(a) of
    w, and each class of identified edges runs over N values.  A dynamic
    programme over the pairs keeps, per (mask of unpaired vertices, edge
    partition in restricted-growth form), the number of partial terms that
    reach it; each step pairs the lowest unpaired vertex with every partner
    and every s.  Odd vertex counts have no pairing.
    """
    n = len(verts)
    m = n * p // 2
    counts = [0] * (m + 1)
    if n % 2:
        return counts
    perms = list(itertools.permutations(range(p)))
    identified: dict = {}
    layer = Counter({((1 << n) - 1, tuple(range(m))): 1})
    for _ in range(n // 2):
        nxt: Counter = Counter()
        for (mask, part), c in layer.items():
            v = (mask & -mask).bit_length() - 1
            for w in range(v + 1, n):
                if not mask >> w & 1:
                    continue
                if (v, w) not in identified:
                    identified[v, w] = [
                        [(verts[v][a], verts[w][s[a]]) for a in range(p)] for s in perms
                    ]
                rest = mask & ~(1 << v | 1 << w)
                for pairs in identified[v, w]:
                    labels = part
                    for e, f in pairs:
                        x, y = labels[e], labels[f]
                        if x != y:
                            x, y = min(x, y), max(x, y)
                            labels = tuple(x if z == y else z - (z > y) for z in labels)
                    nxt[rest, labels] += c
        layer = nxt
    for (_, part), c in layer.items():
        counts[max(part) + 1] += c
    return counts


def _pairing_polynomial(b: CombinatorialMap) -> list[Fraction]:
    """Coefficients of N^{(n/2)(p-1)} E[Tr_b(W_N)] in the powers N^k under
    gaussian-gote, by Isserlis' theorem.

    E[T_I T_J] = sum_{s in S_p} prod_a delta(i_a, j_{s(a)}) / ((p-1)! N^{p-1}),
    the sum over s giving the variance profile prod_a c_a!, so the
    coefficients are ``_pairing_counts`` over ((p-1)!)^{n/2}.
    """
    norm = math.factorial(b.p - 1) ** (b.n // 2)
    return [Fraction(c, norm) for c in _pairing_counts(_vertex_edge_ids(b), b.p)]


def _trace_polynomial(b: CombinatorialMap, dist: EntryDistribution) -> list[Fraction]:
    """Coefficients c_0..c_m of N^{(n/2)(p-1)} E[Tr_b(W_N)] in the falling
    factorials N^(k).

    Under an edge partition pi, each vertex reads the entry indexed by the
    blocks of its edges; vertices with the same sorted block tuple read the
    same entry, which contributes one moment of that multiplicity.  Every
    injective assignment of indices to the blocks gives the same product, so
    c_k is the sum of the products over the partitions with k blocks.
    """
    _check_oracle_work(b.p, b.n, pairing=False)
    from .maps import enumerate_edge_partitions

    m = len(edge_list(b))
    verts = _vertex_edge_ids(b)
    coeffs = [Fraction(0)] * (m + 1)
    for pi in enumerate_edge_partitions(m):
        block_of = {e: i for i, block in enumerate(pi.blocks) for e in block}
        entries = Counter(tuple(sorted(block_of[e] for e in vert)) for vert in verts)
        factor = Fraction(1)
        for entry, mult in entries.items():
            pattern = tuple(sorted(Counter(entry).values()))
            factor *= dist.moment(mult, entry_sigma2(dist, b.p, pattern))
            if not factor:
                break
        coeffs[len(pi)] += factor
    return coeffs


def _exact_route(
    p: int, n: int, dist: EntryDistribution
) -> tuple[Callable[[CombinatorialMap], list], Callable[[int, int], int]]:
    """(polynomial of a map, basis of its coefficients) of the exact oracle
    for dist at (p, n), refused by ``_check_oracle_work``, then by the map
    budget, before any map is enumerated: the pairing route in the powers N^k
    for gaussian-gote, the partition route in the falling factorials N^(k)."""
    pairing = dist.kind == "gaussian-gote"
    _check_oracle_work(p, n, pairing)
    _check_map_budget(p, n)
    if pairing:
        return _pairing_polynomial, pow
    return partial(_trace_polynomial, dist=dist), math.perm


def _at(
    coeffs: Sequence[Fraction], basis: Callable[[int, int], int], b: CombinatorialMap, N: int
) -> Fraction:
    """E[Tr_b(W_N)] from the coefficients of either route and their basis."""
    return _scale_exact(sum(basis(N, k) * c for k, c in enumerate(coeffs)), b.n, b.p, N)


def expected_trace_partitions(
    b: CombinatorialMap, N: int, dist: EntryDistribution
) -> Fraction:
    """E[Tr_b(W_N)] = sum_k N^(k) c_k / N^{(n/2)(p-1)}, exact and rational,
    with the falling factorials N^(k) and the c_k of ``_trace_polynomial``."""
    return _at(_trace_polynomial(b, dist), math.perm, b, N)


def expected_balanced_invariant(
    p: int, n: int, N: int, dist: EntryDistribution
) -> Fraction:
    """Exact E[I_n(W_N)]: the law's exact route (``_exact_route``) once per
    multigraph class, weighted by the class size."""
    if n == 0:
        return Fraction(N)
    polynomial, basis = _exact_route(p, n, dist)
    return sum(
        (count * _at(polynomial(rep), basis, rep, N) for rep, count in _trace_classes(p, n)),
        Fraction(0),
    )


def _variance_counts(p: int, n: int) -> list[int]:
    """Integer coefficients of ((p-1)!)^n N^{n(p-1)} Var[I_n(W_N)] in the
    powers N^k under gaussian-gote.

    Var[I_n] sums w_b w_b' (E[Tr_{b u b'}] - E[Tr_b] E[Tr_b']) over ordered
    class pairs, where b u b' is the disjoint union (the edges of b' offset
    past those of b), whose pairing counts share the normalisation of the
    product of the two single-class counts.  Unordered pairs are summed once,
    twice off the diagonal.
    """
    _check_oracle_work(p, 2 * n, pairing=True)  # the disjoint union of two classes
    classes = [(_vertex_edge_ids(b), w) for b, w in _trace_classes(p, n)]
    m = p * n // 2
    single = [_pairing_counts(verts, p) for verts, _ in classes]
    total = [0] * (2 * m + 1)
    for i, (vi, wi) in enumerate(classes):
        for j in range(i, len(classes)):
            vj, wj = classes[j]
            joint = _pairing_counts(vi + [tuple(e + m for e in vert) for vert in vj], p)
            weight = wi * wj * (1 if i == j else 2)
            for k, c in enumerate(joint):
                total[k] += weight * c
            for k1, c1 in enumerate(single[i]):
                for k2, c2 in enumerate(single[j]):
                    total[k1 + k2] -= weight * c1 * c2
    return total


def balanced_invariant_variance(
    p: int, n: int, N: int, dist: EntryDistribution
) -> Fraction:
    """Exact population Var[I_n(W_N)] under gaussian-gote entries, from the
    pairing oracle on disjoint unions of classes (``_variance_counts``)."""
    if dist.kind != "gaussian-gote":
        raise ContractViolation("the exact variance of I_n needs gaussian-gote entries")
    if n == 0:
        return Fraction(0)
    total = sum(c * N**k for k, c in enumerate(_variance_counts(p, n)))
    return Fraction(total, math.factorial(p - 1) ** n * N ** (n * (p - 1)))


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
        names (``format`` is accepted for ``fmt``); unknown keys are refused."""
        if not isinstance(obj, dict):
            raise ContractViolation("a config must be a JSON object")
        kw = dict(obj)
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
    only, so each class is peeled once, and the polynomial in N of the law's
    exact route (``_exact_route``: Wick pairings for gaussian-gote, edge
    partitions otherwise) is formed once per class and evaluated on the grid.
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
    polynomial, basis = _exact_route(p, n, dist)
    maps = rooted_connected(p, n)
    alpha_melonic = Fraction(1, math.factorial(p - 1) ** (n // 2)) if n % 2 == 0 else Fraction(0)
    logN = [math.log(N) for N in N_grid]
    per_class: dict = {}  # the row of each class's first map
    rows = []
    for i, (b, key) in enumerate(zip(maps, _class_keys(p, n))):
        code = canonical_code(b)
        if key not in per_class:
            melonic = is_melonic_graph(b)  # peeling reads the multigraph only
            alpha = alpha_melonic if melonic else Fraction(0)
            coeffs = polynomial(b)
            values = [_at(coeffs, basis, b, N) / N for N in N_grid]
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
