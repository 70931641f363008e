"""Shared test oracles, deliberately independent of the library code paths
they cross-check: a matching-based enumerator, a nested-loop trace evaluator,
the injective-trace and exhaustive-sum references for the partition oracle,
the sliced GEMM order for the tetrahedral trace invariant, the alternative
Fuss-Catalan closed form, quadrature moments of the limit law, the exact
disjoint-union variance of I_2/N, multigraph classes by trying every vertex
relabelling, and small combinatorial helpers."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from melonic.errors import ContractViolation, NumericalError, ResourceLimitError
from melonic.limitlaw import density, support_radius
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Permutation,
    canonical_code,
    edge_list,
    enumerate_rooted_connected,
    is_connected,
    multigraph,
    rooted_connected,
)
from melonic.tensor import (
    _EINSUM_LETTERS,
    EntryDistribution,
    SymTensor,
    _scale_exact,
    _vertex_edge_ids,
    entry_sigma2,
    expected_trace_partitions,
)

_EXHAUSTIVE_TERM_GUARD = 10**8
_INJECTIVE_TERM_GUARD = 2 * 10**6


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
    return _scale_exact(total, b.n, p, N)


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
