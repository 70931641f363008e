"""Shared test oracles, deliberately independent of the library code paths
they cross-check: a matching-based enumerator, a nested-loop trace evaluator,
the exact expectation by one pass over the edge partitions (the reference of
the group DP, in falling factorials of N), the injective-trace and
exhaustive-sum references for that partition route,
the sliced GEMM order for the tetrahedral trace invariant, numpy's own
``np.einsum`` along a contraction plan's path, the index table and the
dense-position ranks by sorting multi-indices, the alternative
Fuss-Catalan closed form, the Stieltjes transform by the fixed-step
``np.roots`` homotopy, quadrature moments of the limit law, the exact
disjoint-union variance of I_2/N, multigraph classes by trying every vertex
relabelling, the map enumerator that undoes its traversal through a log,
the cycle and connectivity tests of the incidence multigraph as two
union-find passes, and small combinatorial helpers."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from melonic.errors import ContractViolation, NumericalError, ResourceLimitError
from melonic.hypergraph import DisjointSets, Hypergraph
from melonic.limitlaw import _refuse_support, density, support_radius
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Permutation,
    _canonical_sigma,
    _check_map_budget,
    _trace_classes,
    _vertex_edge_ids,
    canonical_code,
    edge_list,
    enumerate_edge_partitions,
    enumerate_rooted_connected,
    is_connected,
    multigraph,
    rooted_connected,
)
from melonic.exact import EntryDistribution, _group_counts
from melonic.tensor import _EINSUM_LETTERS, SymTensor, _table

_EXHAUSTIVE_TERM_GUARD = 10**8
_INJECTIVE_TERM_GUARD = 2 * 10**6
_PARTITION_EDGE_GUARD = 9


def canonical_sigma(p: int, n: int) -> Permutation:
    image = []
    for v in range(n):
        base = v * p
        image.extend(base + (i + 1) % p for i in range(p))
    return Permutation(image)


def all_matchings(nq: int):
    """Every perfect matching on {0,...,nq-1}, smallest unmatched halfedge
    paired first."""

    def rec(unmatched):
        if not unmatched:
            yield []
            return
        h = unmatched[0]
        for i in range(1, len(unmatched)):
            rest = unmatched[1:i] + unmatched[i + 1 :]
            for rest_pairs in rec(rest):
                yield [(h, unmatched[i])] + rest_pairs

    yield from rec(list(range(nq)))


def brute_force_codes(p: int, n: int) -> set:
    """Canonical codes of the rooted connected classes, via exhaustive
    matching enumeration plus dedupe."""
    nq = n * p
    if nq % 2:
        return set()
    sigma = canonical_sigma(p, n)
    codes = set()
    for pairs in all_matchings(nq):
        image = list(range(nq))
        for a, b in pairs:
            image[a] = b
            image[b] = a
        m = CombinatorialMap(p, sigma, Permutation(image), root=0)
        if is_connected(m):
            codes.add(canonical_code(m))
    return codes


def enumerate_rooted_connected_with_undo_log(p: int, n: int) -> list[CombinatorialMap]:
    """``maps.enumerate_rooted_connected`` as it was before its search carried
    the traversal down the recursion: the discovered halfedges live in one
    list and one flag array, and each branch undoes its marks."""
    _check_map_budget(p, n)
    nq = n * p
    if nq % 2:
        return []
    sigma = _canonical_sigma(p, n)
    sig = sigma.image
    tau = [-1] * nq
    labeled = [False] * nq
    order: list[int] = []
    found: list[tuple[int, ...]] = []

    def mark(h: int) -> None:
        labeled[h] = True
        order.append(h)

    def unmark() -> None:
        labeled[order.pop()] = False

    def search(pos: int, disc: int) -> None:
        fresh_marks = 0
        while pos < len(order):
            h = order[pos]
            s = sig[h]
            if not labeled[s]:
                mark(s)
                fresh_marks += 1
            t = tau[h]
            if t == -1:
                cands = [g for g in range(disc * p) if tau[g] == -1 and g != h]
                if disc < n:
                    cands.append(disc * p)
                for g in cands:
                    new_vertex = g == disc * p
                    tau[h] = g
                    tau[g] = h
                    sub = not labeled[g]
                    if sub:
                        mark(g)
                    search(pos + 1, disc + 1 if new_vertex else disc)
                    if sub:
                        unmark()
                    tau[h] = -1
                    tau[g] = -1
                for _ in range(fresh_marks):
                    unmark()
                return
            if not labeled[t]:
                mark(t)
                fresh_marks += 1
            pos += 1
        if disc == n and len(order) == nq:
            found.append(tuple(tau))
        for _ in range(fresh_marks):
            unmark()

    mark(0)
    search(0, 1)
    unmark()
    maps = [CombinatorialMap(p, sigma, Permutation(t), root=0) for t in found]
    maps.sort(key=canonical_code)
    return maps


def has_cycle_by_failed_union(h: Hypergraph) -> bool:
    """Cycle in the incidence bipartite multigraph: an inner multiplicity
    >= 2, or a union-find merge that finds both ends already joined."""
    nv = h.num_vertices
    ds = DisjointSets(nv + len(h.edges))
    for i, e in enumerate(h.edges):
        counts = Counter(e)
        if any(c >= 2 for c in counts.values()):
            return True
        for v in counts:
            if not ds.union(v, nv + i):
                return True
    return False


def is_connected_incidence(h: Hypergraph) -> bool:
    """One component in the incidence bipartite multigraph (at most one
    node counts as connected), by counting union-find merges."""
    total = h.num_vertices + len(h.edges)
    if total <= 1:
        return True
    ds = DisjointSets(total)
    comp = total
    for i, e in enumerate(h.edges):
        for v in set(e):
            if ds.union(v, h.num_vertices + i):
                comp -= 1
    return comp == 1


def naive_trace(b: CombinatorialMap, T) -> float:
    """Nested loop over all edge-index assignments, element lookups only."""
    from melonic.maps import cycles, edge_list

    edges = edge_list(b)
    edge_of = {}
    for i, (h, k) in enumerate(edges):
        edge_of[h] = i
        edge_of[k] = i
    verts = [tuple(edge_of[h] for h in c) for c in cycles(b.sigma)]
    total = 0.0
    for assign in itertools.product(range(T.N), repeat=len(edges)):
        prod = 1.0
        for vert in verts:
            prod *= T[tuple(assign[e] for e in vert)]
        total += prod
    return total


def k4_trace_sliced_gemm(T: SymTensor) -> float:
    """Tr of the tetrahedral map K4 (p = 3) by the explicit sliced GEMM order:
    for each value a of one edge index, with A = T[a], form Y = A^T T_(1)
    reshaped to N x N x N, contract Z[c,e,f] = sum_d Y[c,d,f] A[d,e], and add
    <Z, T>.  O(N^5) work in O(N^3) memory, independent of einsum paths."""
    if T.p != 3:
        raise ContractViolation("K4 is a cubic graph")
    N = T.N
    dense = T.to_dense()
    unfolded = dense.reshape(N, N * N)
    total = []
    for a in range(N):
        A = dense[a]
        Y = (A.T @ unfolded).reshape(N, N, N)
        Z = np.tensordot(Y, A, axes=(1, 0)).transpose(0, 2, 1)
        total.append(float(np.vdot(Z, dense)))
    return math.fsum(total)


def einsum_contract(plan, dense: np.ndarray) -> float:
    """A contraction plan by ``np.einsum`` along its path, once per value
    tuple of the sliced edge indices, the slices summed with ``math.fsum``:
    the route the compiled step program replaced, which it must equal bit
    for bit."""
    return math.fsum(
        np.einsum(
            plan.eq,
            *[dense[tuple(idx[j] for j in h)] if h else dense for h in plan.holders],
            optimize=plan.path,
        )
        for idx in itertools.product(range(len(dense)), repeat=len(plan.sliced))
    )


def index_table_by_sorting(p: int, N: int):
    """(mindex, orbit, sigma2) of ``_IndexTable``: every sorted multi-index,
    sorted colexicographically (by its reversed tuple), its number of
    distinct axis orders p!/prod(c!), and its GOTE variance prod(c!)/(p-1)!
    over the multiplicities c of its entries."""
    rows = sorted(itertools.combinations_with_replacement(range(N), p), key=lambda r: r[::-1])
    cprod = [math.prod(math.factorial(c) for c in Counter(r).values()) for r in rows]
    mindex = np.array(rows, dtype=np.int64).reshape(len(rows), p)
    orbit = np.array([math.factorial(p) // c for c in cprod], dtype=np.int64)
    sigma2 = np.array(cprod, dtype=np.float64) / float(math.factorial(p - 1))
    return mindex, orbit, sigma2


def dense_map_by_sorting(p: int, N: int) -> np.ndarray:
    """Rank of the sorted multi-index at every flat dense position, by
    sorting each row of the full p x N^p index grid and ranking it."""
    if p == 0:
        return np.zeros(1, dtype=np.int64)
    grid = np.indices((N,) * p).reshape(p, -1).T
    return _table(p, N)._rank_rows(np.sort(grid, axis=1))


def fuss_catalan_alt(p: int, k: int) -> int:
    """The equivalent closed form C(pk, k) / ((p-1)k + 1)."""
    if p < 2 or k < 0:
        raise ContractViolation("need p >= 2 and k >= 0")
    q, r = divmod(math.comb(p * k, k), (p - 1) * k + 1)
    assert r == 0
    return q


def multilinear_transform(T: SymTensor, U: np.ndarray) -> SymTensor:
    """(U . T)_{i1..ip} = sum_j T_{j1..jp} U_{i1 j1} ... U_{ip jp}."""
    U = np.asarray(U, dtype=np.float64)
    if U.shape != (T.N, T.N):
        raise ContractViolation("U must be an N x N matrix")
    p = T.p
    ins = _EINSUM_LETTERS[:p]
    outs = _EINSUM_LETTERS[p : 2 * p]
    eq = ins + "," + ",".join(o + i for o, i in zip(outs, ins)) + "->" + outs
    dense = np.einsum(eq, T.to_dense(), *([U] * p), optimize="greedy")
    return SymTensor.from_dense(p, T.N, dense)


def injective_trace(b: CombinatorialMap, pi: EdgePartition, T: SymTensor) -> float:
    """Tr0_{b_pi}(T): the same sum restricted to pairwise-distinct block
    indices, by direct iteration."""
    if b.p != T.p:
        raise ContractViolation(f"map order {b.p} != tensor order {T.p}")
    edges = edge_list(b)
    if pi.m != len(edges):
        raise ContractViolation("partition does not match the edge set")
    block_of = {}
    for bi, block in enumerate(pi.blocks):
        for e in block:
            block_of[e] = bi
    verts = [
        tuple(block_of[e] for e in vert) for vert in _vertex_edge_ids(b)
    ]
    r = len(pi)
    N = T.N
    if r > N:
        return 0.0
    if math.perm(N, r) > _INJECTIVE_TERM_GUARD:
        raise ResourceLimitError("too many injective assignments; lower N or |pi|")
    total = []
    for assign in itertools.permutations(range(N), r):
        prod = 1.0
        for vert in verts:
            prod *= T[tuple(assign[v] for v in vert)]
        total.append(prod)
    return math.fsum(total)


def entry_sigma2(dist: EntryDistribution, p: int, multiplicities) -> Fraction:
    """Exact variance of an unscaled entry whose index has the given
    multiplicity pattern (counts summing to p)."""
    if dist.flat_profile:
        return Fraction(1, math.factorial(p - 1))
    num = math.prod(math.factorial(c) for c in multiplicities)
    return Fraction(num, math.factorial(p - 1))


def scale_exact(total: Fraction, n: int, p: int, N: int) -> Fraction:
    """total / N^{(n/2)(p-1)}; a nonzero total needs an even n."""
    if total == 0:
        return Fraction(0)
    assert n % 2 == 0
    return total / Fraction(N ** ((n // 2) * (p - 1)))


def trace_polynomial(b: CombinatorialMap, dist: EntryDistribution) -> list[Fraction]:
    """Coefficients c_0..c_m of N^{(n/2)(p-1)} E[Tr_b(W_N)] in the falling
    factorials N^(k), by one pass over the Bell(m) edge partitions.

    Under an edge partition pi, each vertex reads the entry indexed by the
    blocks of its edges; vertices with the same sorted block tuple read the
    same entry, which contributes one moment of that multiplicity.  Every
    injective assignment of indices to the blocks gives the same product, so
    c_k is the sum of the products over the partitions with k blocks.
    """
    m = len(edge_list(b))
    if m > _PARTITION_EDGE_GUARD:
        raise ResourceLimitError(f"Bell({m}) partitions exceed the partition guard")
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


def in_powers(falling: list) -> list:
    """Coefficients in the powers N^j of sum_k falling[k] N^(k), through the
    signed Stirling numbers of the first kind."""
    powers = [Fraction(0)] * len(falling)
    stirling = [1]  # N^(k) = sum_j stirling[j] N^j
    for k, c in enumerate(falling):
        for j, s in enumerate(stirling):
            powers[j] += c * s
        stirling = [0] + stirling
        for j in range(len(stirling) - 1):
            stirling[j] -= k * stirling[j + 1]
    return powers


@lru_cache(maxsize=None)
def group_dp_run(p: int, n: int, dist: EntryDistribution) -> tuple[list, int]:
    """One run of the group DP over the classes of B_n^(p): the coefficients
    of N^{(n/2)(p-1)} E[I_n] in the powers N^k, and the most terms a class
    took."""
    total = [Fraction(0)] * (p * n // 2 + 1)
    most = 0
    for rep, count in _trace_classes(p, n):
        counts, terms = _group_counts(_vertex_edge_ids(rep), p, dist)
        for k, c in enumerate(counts):
            total[k] += Fraction(count * c, math.factorial(p - 1) ** (n // 2))
        most = max(most, terms)
    return total, most


def expected_trace_partitions(
    b: CombinatorialMap, N: int, dist: EntryDistribution
) -> Fraction:
    """E[Tr_b(W_N)] = sum_k N^(k) c_k / N^{(n/2)(p-1)}, exact and rational,
    with the falling factorials N^(k) and the c_k of ``trace_polynomial``."""
    coeffs = trace_polynomial(b, dist)
    return scale_exact(sum(math.perm(N, k) * c for k, c in enumerate(coeffs)), b.n, b.p, N)


def expected_trace_exhaustive(
    b: CombinatorialMap, N: int, dist: EntryDistribution
) -> Fraction:
    """E[Tr_b(W_N)] by brute force over all edge-index assignments.

    Entry factors landing on the same sorted multi-index are grouped and
    their joint moment read off the distribution's exact oracle; independence
    up to symmetry does the rest.  Exact rational output.
    """
    verts = _vertex_edge_ids(b)
    m = len(edge_list(b))
    if N**m > _EXHAUSTIVE_TERM_GUARD:
        raise ResourceLimitError(f"{N}^{m} assignments exceed the exhaustive guard")
    p = b.p
    moment_memo: dict = {}
    total = Fraction(0)
    for assign in itertools.product(range(N), repeat=m):
        groups = Counter(tuple(sorted(assign[e] for e in vert)) for vert in verts)
        term = Fraction(1)
        for tup, cnt in groups.items():
            pattern = tuple(sorted(Counter(tup).values()))
            key = (cnt, pattern)
            mom = moment_memo.get(key)
            if mom is None:
                mom = dist.moment(cnt, entry_sigma2(dist, p, pattern))
                moment_memo[key] = mom
            if mom == 0:
                term = Fraction(0)
                break
            term *= mom
        total += term
    return scale_exact(total, b.n, p, N)


def _polish_to_residual(p: int, z: complex, r: complex) -> complex:
    for _ in range(60):
        f = z ** (p - 2) * r**p - z * r + 1
        if abs(f) < 1e-15 * max(1.0, abs(z * r)):
            break
        fp = p * z ** (p - 2) * r ** (p - 1) - z
        if fp == 0:
            break
        step = f / fp
        r -= step
        if abs(step) < 1e-16 * max(1.0, abs(r)):
            break
    return r


def _track_root(p: int, z: complex, r: complex) -> complex:
    """Root of the degree-p fixed-point polynomial nearest to r, polished."""
    coeffs = [z ** (p - 2)] + [0] * (p - 2) + [-z, 1]
    roots = np.roots(coeffs)
    r = complex(roots[np.argmin(np.abs(roots - r))])
    return _polish_to_residual(p, z, r)


def stieltjes_by_roots(p: int, z: complex) -> complex:
    """The Stieltjes transform of the limit law at z by the fixed-step
    homotopy over all roots: along the ray from far outside the support to
    z, ``np.roots`` gives every root of z^{p-2} R^p - z R + 1 at each step
    and the one nearest the previous step's root is kept and Newton-polished
    to residual tolerance; 40, 80, 160, then 320 steps are tried."""
    if p < 2:
        raise ContractViolation("p must be at least 2")
    z = complex(z)
    _refuse_support(p, z)
    t0 = max(1.0, 4.0 * support_radius(p) / abs(z))
    for attempts in range(4):
        if t0 == 1.0:
            ts = [1.0]
        else:
            steps = 40 * 2**attempts
            # geometric approach of t -> 1 keeps steps dense near the endpoint
            ts = [1.0 + (t0 - 1.0) * 2.0 ** (-k * 12.0 / steps) for k in range(steps)]
            ts.append(1.0)
        r = 1.0 / (ts[0] * z)
        ok = True
        for t in ts:
            r = _track_root(p, t * z, r)
            if not (math.isfinite(r.real) and math.isfinite(r.imag)):
                ok = False
                break
        if ok and abs(z ** (p - 2) * r**p - z * r + 1) < 1e-12:
            return r
    raise NumericalError(f"root tracking failed at p={p}, z={z}")


def moment_by_quadrature(p: int, n: int) -> float:
    """Moment of the limit law by adaptive quadrature of y^n against the
    density over the support."""
    if n < 0 or n > 8:
        raise ContractViolation("quadrature moments are provided for 0 <= n <= 8")
    if n % 2:
        return 0.0  # odd integrand against an even density
    omega = support_radius(p)
    tol = 1e-10 if p <= 3 else 1e-7
    val, err = quad(
        lambda y: y**n * density(p, y), 0.0, omega, epsabs=tol, epsrel=tol, limit=400
    )
    bound = 1e-6 if p <= 3 else 1e-4
    if err > bound:
        raise NumericalError(f"quadrature error {err:.2e} above {bound:g}")
    return 2.0 * val


def _disjoint_union(b: CombinatorialMap, d: CombinatorialMap) -> CombinatorialMap:
    p = b.p
    nb, nd = b.size, d.size
    sigma = canonical_sigma(p, (nb + nd) // p)
    img = list(range(nb + nd))
    for h in range(nb):
        img[h] = b.tau(h)
    for h in range(nd):
        img[nb + h] = nb + d.tau(h)
    return CombinatorialMap(p, sigma, Permutation(img), root=0)


def exact_i2_variance(N: int, dist: EntryDistribution) -> Fraction:
    """Population Var[I_2/N] at p=3, exactly: E[Tr_b Tr_d] is the expected
    trace of the disjoint union of the two maps."""
    maps = enumerate_rooted_connected(3, 2)
    mean = sum(expected_trace_partitions(b, N, dist) for b in maps)
    second = sum(
        expected_trace_partitions(_disjoint_union(b, d), N, dist)
        for b in maps
        for d in maps
    )
    return (second - mean * mean) / (N * N)


def multigraph_key_by_permutations(n: int, edges) -> tuple:
    """Canonical form of a multigraph on 0..n-1: the smallest sorted edge
    tuple over all n! vertex relabellings."""
    best = None
    for perm in itertools.permutations(range(n)):
        relab = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or relab < best:
            best = relab
    return best


def trace_classes_by_permutations(p: int, n: int) -> list:
    """(first map, class size) per multigraph class of B_n^(p), classes in
    first-seen order, keyed by ``multigraph_key_by_permutations``."""
    keys: dict = {}
    groups: dict = {}
    for b in rooted_connected(p, n):
        labelled = tuple(sorted(multigraph(b)))
        if labelled not in keys:
            keys[labelled] = multigraph_key_by_permutations(n, labelled)
        groups.setdefault(keys[labelled], []).append(b)
    return [(members[0], len(members)) for members in groups.values()]


def automorphism_count(n: int, edges) -> int:
    """|Aut G| of a multigraph on 0..n-1, by trying all n! permutations."""
    target = sorted(edges)
    return sum(
        sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges) == target
        for perm in itertools.permutations(range(n))
    )


def random_permutation(rng: random.Random, n: int) -> Permutation:
    image = list(range(n))
    rng.shuffle(image)
    return Permutation(image)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)
