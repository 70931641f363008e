import itertools
import math
import re
import types
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from melonic import exact, tensor
from melonic.counting import count_rooted_maps, fuss_catalan
from melonic.errors import ContractViolation, ResourceLimitError
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Hypermap,
    Permutation,
    _multigraph_key,
    _trace_classes,
    edge_list,
    enumerate_edge_partitions,
    enumerate_rooted_connected,
    multigraph,
    relabel,
    rooted_connected,
)
from melonic.exact import (
    GAUSSIAN_GOTE,
    RADEMACHER,
    EntryDistribution,
    balanced_invariant_variance,
    expected_balanced_invariant,
)
from melonic.tensor import (
    SymTensor,
    balanced_invariant,
    contract,
    resolvent_series,
    sample_gote,
    sample_wigner,
    trace_invariant,
)

from conftest import (
    automorphism_count,
    dense_map_by_sorting,
    einsum_contract,
    exact_i2_variance,
    expected_trace_exhaustive,
    expected_trace_partitions,
    in_powers,
    index_table_by_sorting,
    injective_trace,
    k4_trace_sliced_gemm,
    multilinear_transform,
    naive_trace,
    random_permutation,
    trace_classes_by_permutations,
    trace_polynomial,
)

FLAT = EntryDistribution("gaussian-offdiag-only")
UNIFORM = EntryDistribution("uniform")


def melon_map():
    return CombinatorialMap(
        3, Permutation([1, 2, 0, 4, 5, 3]), Permutation([3, 4, 5, 0, 1, 2]), 0
    )


def tau1_map():
    return CombinatorialMap(
        3, Permutation([1, 2, 0, 4, 5, 3]), Permutation([2, 3, 0, 1, 5, 4]), 0
    )


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestStorage:
    def test_packed_size(self):
        T = sample_gote(3, 5, seed=0)
        assert len(T.values) == math.comb(5 + 3 - 1, 3)

    def test_symmetry_of_lookup(self, nprng):
        T = sample_gote(3, 4, seed=1)
        for idx in itertools.product(range(4), repeat=3):
            for perm in itertools.permutations(idx):
                assert T[idx] == T[perm]

    def test_dense_roundtrip(self):
        for p, N in [(1, 5), (2, 4), (3, 4), (4, 3)]:
            T = sample_gote(p, N, seed=2)
            dense = T.to_dense()
            assert dense.shape == (N,) * p
            back = SymTensor.from_dense(p, N, dense)
            assert np.array_equal(back.values, T.values)

    def test_dense_is_symmetric(self):
        T = sample_gote(3, 4, seed=3)
        d = T.to_dense()
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(d, np.transpose(d, axes))

    def test_wrong_payload_rejected(self):
        with pytest.raises(ContractViolation):
            SymTensor(3, 4, np.zeros(7))

    @pytest.mark.parametrize("N", [1, 2, 5, 9])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_dense_map_matches_sorted_grid(self, p, N):
        got = tensor._IndexTable(p, N).dense_map()
        assert got.dtype == np.int64
        assert np.array_equal(got, dense_map_by_sorting(p, N))

    @pytest.mark.parametrize("N", [1, 2, 5, 33])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_index_table_matches_sorted_tuples(self, p, N):
        tbl = tensor._IndexTable(p, N)
        mindex, orbit, sigma2 = index_table_by_sorting(p, N)
        assert tbl.mindex.dtype == np.int64
        assert np.array_equal(tbl.mindex, mindex)
        assert np.array_equal(tbl.orbit, orbit)
        assert np.array_equal(tbl.sigma2, sigma2)


class TestEnsembles:
    def test_gote_profile_p3(self):
        from melonic.tensor import _table

        tbl = _table(3, 5)
        assert tbl.sigma2[tbl.rank((0, 0, 0))] == pytest.approx(3.0)
        assert tbl.sigma2[tbl.rank((0, 0, 1))] == pytest.approx(1.0)
        assert tbl.sigma2[tbl.rank((0, 1, 2))] == pytest.approx(0.5)

    def test_goe_profile_p2(self):
        from melonic.tensor import _table

        tbl = _table(2, 6)
        assert tbl.sigma2[tbl.rank((2, 2))] == pytest.approx(2.0)
        assert tbl.sigma2[tbl.rank((2, 3))] == pytest.approx(1.0)

    def test_empirical_variance_offdiagonal_entry(self):
        # entry (1,2,3) at p=3, N=5 has variance 1/(2*25)
        draws = np.array(
            [sample_gote(3, 5, seed=(99, i))[(1, 2, 3)] for i in range(10_000)]
        )
        assert np.var(draws) == pytest.approx(1 / 50, rel=0.05)

    def test_gote_equals_gaussian_wigner(self):
        a = sample_gote(3, 6, seed=42)
        b = sample_wigner(3, 6, GAUSSIAN_GOTE, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_rademacher_magnitudes(self):
        T = sample_wigner(3, 4, RADEMACHER, seed=5)
        assert abs(T[(0, 1, 2)]) == pytest.approx((2 * 4**2) ** -0.5)
        assert abs(T[(1, 1, 1)]) == pytest.approx(math.sqrt(3.0) / 4)

    def test_flat_profile_is_flat(self):
        # under the off-diagonal-only kind, the fully diagonal entry carries
        # the off-diagonal variance 1/(2 N^2) instead of the invariant 3/N^2
        diag = np.array(
            [sample_wigner(3, 5, FLAT, seed=(7, i))[(0, 0, 0)] for i in range(8000)]
        )
        assert np.var(diag) == pytest.approx(1 / 50, rel=0.08)

    def test_pareto_tail_qualitative(self):
        dist = EntryDistribution("symmetrized-pareto", 3.5)
        rng = np.random.default_rng(7)
        x = np.abs(dist.draw(rng, 200_000))
        # tail exponent from upper quantiles: log P(|X|>t) ~ -alpha log t
        q1, q2 = np.quantile(x, [0.99, 0.999])
        alpha_hat = math.log(10.0) / math.log(q2 / q1)
        assert 2.5 < alpha_hat < 4.5

    def test_pareto_requires_tail_index(self):
        with pytest.raises(ContractViolation):
            EntryDistribution("symmetrized-pareto")
        with pytest.raises(ContractViolation):
            EntryDistribution("symmetrized-pareto", 1.5)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ContractViolation):
                EntryDistribution("symmetrized-pareto", alpha)
        with pytest.raises(ContractViolation):
            EntryDistribution("rademacher", 3.0)

    def test_from_string(self):
        d = EntryDistribution.from_string("symmetrized-pareto:3.5")
        assert d.kind == "symmetrized-pareto" and d.tail_index == 3.5
        assert EntryDistribution.from_string("uniform") == UNIFORM


class TestContract:
    def test_zero_vectors_identity(self):
        T = sample_gote(3, 4, seed=0)
        assert contract(T, []) is T

    def test_matrix_row(self):
        M = sample_gote(2, 5, seed=1)
        e0 = np.eye(5)[0]
        row = contract(M, [e0])
        assert np.allclose(row.to_dense(), M.to_dense()[0])

    def test_full_contraction_scalar(self, nprng):
        T = sample_gote(3, 4, seed=2)
        u = nprng.standard_normal(4)
        val = contract(T, [u, u, u])
        direct = np.einsum("abc,a,b,c->", T.to_dense(), u, u, u)
        assert val.p == 0
        assert val[()] == pytest.approx(direct, rel=1e-12)

    def test_bilinearity(self, nprng):
        T = sample_gote(3, 5, seed=3)
        u, v = nprng.standard_normal((2, 5))
        lhs = contract(T, [u + v]).values
        rhs = contract(T, [u]).values + contract(T, [v]).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        T = sample_gote(3, 4, seed=4)
        with pytest.raises(ContractViolation):
            contract(T, [np.ones(5)])
        with pytest.raises(ContractViolation):
            contract(T, [np.ones(4)] * 4)

    def test_result_symmetric_for_distinct_vectors(self, nprng):
        T = sample_gote(3, 4, seed=5)
        u, v = nprng.standard_normal((2, 4))
        out = contract(T, [u])
        assert np.allclose(out.to_dense(), out.to_dense().T)


class TestTraceInvariant:
    def test_melon_is_frobenius(self):
        T = sample_gote(3, 6, seed=0)
        assert trace_invariant(melon_map(), T) == pytest.approx(
            T.frobenius_sq(), rel=1e-12
        )

    def test_matrix_cycle_is_power_trace(self):
        M = sample_gote(2, 7, seed=1)
        dense = M.to_dense()
        for n in (2, 3, 5):
            cyc = enumerate_rooted_connected(2, n)[0]
            assert trace_invariant(cyc, M) == pytest.approx(
                np.trace(np.linalg.matrix_power(dense, n)), rel=1e-10
            )

    def test_tau1_against_triple_loop(self):
        T = sample_gote(3, 6, seed=2)
        d = T.to_dense()
        direct = sum(
            d[a, a, b] * d[b, c, c]
            for a in range(6)
            for b in range(6)
            for c in range(6)
        )
        assert trace_invariant(tau1_map(), T) == pytest.approx(direct, rel=1e-12)

    def test_against_naive_assignment_loop(self):
        T = sample_gote(3, 4, seed=3)
        for b in enumerate_rooted_connected(3, 2):
            assert trace_invariant(b, T) == pytest.approx(naive_trace(b, T), rel=1e-10)

    def test_relabelling_invariance(self, rng):
        T = sample_gote(3, 5, seed=4)
        for b in enumerate_rooted_connected(3, 2):
            base = trace_invariant(b, T)
            for _ in range(10):
                theta = random_permutation(rng, b.size)
                assert trace_invariant(relabel(b, theta), T) == pytest.approx(
                    base, rel=1e-10
                )

    def test_orthogonal_invariance(self, nprng):
        T = sample_gote(3, 5, seed=5)
        for trial in range(3):
            U = random_orthogonal(nprng, 5)
            rotated = multilinear_transform(T, U)
            for b in enumerate_rooted_connected(3, 2):
                a = trace_invariant(b, T)
                c = trace_invariant(b, rotated)
                assert abs(a - c) <= 1e-8 * max(1.0, abs(a))

    def test_order_mismatch(self):
        with pytest.raises(ContractViolation):
            trace_invariant(melon_map(), sample_gote(2, 4, seed=0))


class TestInjectiveTraces:
    def test_decomposition_identity_two_vertices(self):
        T = sample_gote(3, 5, seed=6)
        for b in enumerate_rooted_connected(3, 2):
            total = sum(
                injective_trace(b, pi, T) for pi in enumerate_edge_partitions(3)
            )
            assert total == pytest.approx(trace_invariant(b, T), rel=1e-10)

    def test_decomposition_identity_four_vertices(self):
        # every six-edge map: blocks larger than N contribute empty sums
        T = sample_gote(3, 4, seed=7)
        parts = list(enumerate_edge_partitions(6))
        for b in enumerate_rooted_connected(3, 4):
            total = sum(injective_trace(b, pi, T) for pi in parts)
            assert total == pytest.approx(trace_invariant(b, T), rel=1e-9, abs=1e-12)

    def test_single_block_is_diagonal_sum(self):
        T = sample_gote(3, 5, seed=8)
        b = tau1_map()
        got = injective_trace(b, EdgePartition([(0, 1, 2)]), T)
        direct = sum(T[(a, a, a)] * T[(a, a, a)] for a in range(5))
        assert got == pytest.approx(direct, rel=1e-12)

    def test_tau1_partition_decomposition(self):
        # Tr = sum_distinct T_aab T_bcc + 2 sum_{a != b} T_aaa T_abb
        #      + sum_{a != b} T_aab^2 + sum_a T_aaa^2
        T = sample_gote(3, 5, seed=9)
        b = tau1_map()
        N = 5
        distinct = sum(
            T[(x, x, y)] * T[(y, z, z)]
            for x in range(N)
            for y in range(N)
            for z in range(N)
            if len({x, y, z}) == 3
        )
        pair_a = sum(
            T[(x, x, x)] * T[(x, z, z)] for x in range(N) for z in range(N) if z != x
        )
        pair_b = sum(
            T[(x, x, y)] * T[(y, y, y)] for x in range(N) for y in range(N) if y != x
        )
        square = sum(
            T[(x, x, y)] ** 2 for x in range(N) for y in range(N) if y != x
        )
        diag = sum(T[(x, x, x)] ** 2 for x in range(N))
        by_partition = {
            pi: injective_trace(b, pi, T) for pi in enumerate_edge_partitions(3)
        }
        assert by_partition[EdgePartition.singletons(3)] == pytest.approx(
            distinct, rel=1e-10
        )
        assert by_partition[EdgePartition([(0, 1), (2,)])] == pytest.approx(
            pair_a, rel=1e-10
        )
        assert by_partition[EdgePartition([(0,), (1, 2)])] == pytest.approx(
            pair_b, rel=1e-10
        )
        assert by_partition[EdgePartition([(0, 2), (1,)])] == pytest.approx(
            square, rel=1e-10
        )
        assert by_partition[EdgePartition([(0, 1, 2)])] == pytest.approx(
            diag, rel=1e-10
        )

    def test_merged_cycle_order_is_immaterial(self):
        # rebuild b_pi with a different concatenation order inside the merged
        # block: everything downstream reads only the hypergraph, which is
        # unchanged, so trace evaluation cannot depend on the chosen order
        b = tau1_map()
        pi = EdgePartition([(0, 1), (2,)])
        edges = edge_list(b)
        (h1, k1), (h2, k2) = edges[0], edges[1]
        image = list(range(6))
        for cyc in [(h2, k2, h1, k1), edges[2]]:
            for i, h in enumerate(cyc):
                image[h] = cyc[(i + 1) % len(cyc)]
        reshuffled = Hypermap(b.sigma, Permutation(image), b.root)
        from melonic.hypergraph import hypergraph_of
        from melonic.maps import dual, merge_edges

        assert hypergraph_of(dual(reshuffled)) == hypergraph_of(
            dual(merge_edges(b, pi))
        )

    def test_injective_guard(self):
        T = sample_gote(2, 50, seed=11)
        b = enumerate_rooted_connected(2, 5)[0]
        with pytest.raises(ResourceLimitError):
            injective_trace(b, EdgePartition.singletons(5), T)


class TestBalancedInvariant:
    def test_degree_zero_is_dimension(self):
        T = sample_gote(3, 9, seed=0)
        assert balanced_invariant(0, T) == 9.0

    def test_degree_two_closed_form(self):
        T = sample_gote(3, 6, seed=1)
        d = T.to_dense()
        direct = 3 * np.einsum("aab,bcc->", d, d) + 2 * np.einsum("abc,abc->", d, d)
        assert balanced_invariant(2, T) == pytest.approx(direct, rel=1e-12)

    def test_matrix_case_is_power_trace(self):
        M = sample_gote(2, 6, seed=2)
        d = M.to_dense()
        for n in range(1, 6):
            assert balanced_invariant(n, M) == pytest.approx(
                np.trace(np.linalg.matrix_power(d, n)), rel=1e-10, abs=1e-10
            )

    def test_odd_degree_odd_valence_vanishes(self):
        T = sample_gote(3, 5, seed=3)
        assert balanced_invariant(3, T) == 0.0


class TestTraceClasses:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4)])
    def test_matches_permutation_reference(self, p, n):
        assert list(_trace_classes(p, n)) == trace_classes_by_permutations(p, n)

    def test_class_counts(self):
        assert [len(_trace_classes(p, n)) for p, n in ((3, 4), (3, 6), (4, 4))] == [5, 17, 10]

    @pytest.mark.parametrize(
        "p,n", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4), (6, 2), (2, 5)]
    )
    def test_class_sizes_are_multigraph_weights(self, p, n):
        # w(G) = n p ((p-1)!)^n / (|Aut G| prod_e m_e! prod_loops 2^{m_e})
        classes = _trace_classes(p, n)
        for rep, count in classes:
            edges = multigraph(rep)
            mult = Counter(edges)
            denom = (
                automorphism_count(n, edges)
                * math.prod(math.factorial(m) for m in mult.values())
                * math.prod(2**m for (u, v), m in mult.items() if u == v)
            )
            assert Fraction(n * p * math.factorial(p - 1) ** n, denom) == count
        assert sum(count for _, count in classes) == len(rooted_connected(p, n))

    def test_key_invariant_under_relabelling(self, rng):
        for p, n in ((3, 4), (4, 3)):
            for b in rooted_connected(p, n):
                c = relabel(b, random_permutation(rng, b.size))
                assert _multigraph_key(n, multigraph(c)) == _multigraph_key(n, multigraph(b))

    def test_key_has_no_vertex_cutoff(self, rng):
        # cubic graphs: the Petersen graph and the pentagonal prism (10
        # vertices, girth 5 against 4), and the Frucht graph (12 vertices, no
        # symmetry, so refinement alone never splits its single colour cell)
        ring = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        graphs = {
            "petersen": (10, ring + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
            "prism": (10, ring + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]),
            "frucht": (12, [(i, (i + 1) % 12) for i in range(12)]
                       + [(i, (i + s) % 12) for i, s in enumerate(lcf) if s > 0]),
        }
        keys = {}
        for name, (n, edges) in graphs.items():
            found = set()
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                relab = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
                found.add(_multigraph_key(n, relab))
            assert len(found) == 1
            keys[name] = found.pop()
        assert keys["petersen"] != keys["prism"]

    def test_matrix_cycle_beyond_eight_vertices(self):
        M = sample_gote(2, 6, seed=2)
        d = M.to_dense()
        assert balanced_invariant(10, M) == pytest.approx(
            np.trace(np.linalg.matrix_power(d, 10)), rel=1e-10
        )


def _class_reps(p, n):
    return [rep for rep, _ in _trace_classes(p, n)]


def _k4():
    """The tetrahedral class of B_4^(3): every vertex pair joined once."""
    k4 = list(itertools.combinations(range(4), 2))
    (rep,) = [b for b in _class_reps(3, 4) if sorted(multigraph(b)) == k4]
    return rep


def _einsum_route(b, T):
    """Tr_b(T) by the compiled step program of the current plan, whatever
    route trace_invariant would take."""
    return tensor._contract(tensor._plan(tensor._einsum_eq(b), T.N), T._dense())


def _joining_edges(eq):
    """The letters of eq on two different operands: the edges a plan may slice."""
    terms = eq[:-2].split(",")
    return [e for e in tensor._EINSUM_LETTERS if sum(e in t for t in terms) == 2]


def _numpy_cost(plan, N):
    """numpy's own FLOP count and largest intermediate for one slice of plan."""
    shapes = [np.broadcast_to(np.zeros(()), (N,) * len(t)) for t in plan.eq[:-2].split(",")]
    info = np.einsum_path(plan.eq, *shapes, optimize=plan.path)[1]
    flop = float(re.search(r"Optimized FLOP count:\s+(\S+)", info).group(1))
    largest = float(re.search(r"Largest intermediate:\s+(\S+)", info).group(1))
    return flop - 1, largest  # numpy adds 1 to the summed step costs


class TestSlicedContraction:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (2, 6)])
    def test_slicing_keeps_every_value(self, p, n, monkeypatch):
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        tensors = [sample_gote(p, 2, seed=5), sample_gote(p, 7, seed=6)]
        reps = _class_reps(p, n)
        unsliced = [[_einsum_route(b, T) for T in tensors] for b in reps]
        assert not any(plan.sliced for plan in tensor._PATH_CACHE.values())
        for b, (small, _) in zip(reps, unsliced):
            assert small == pytest.approx(naive_trace(b, tensors[0]), rel=1e-12, abs=1e-12)

        # the planner's own choice once every intermediate is over budget
        monkeypatch.setattr(tensor, "_SLICE_ELEMS", 0)
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for b, want in zip(reps, unsliced):
            got = [_einsum_route(b, T) for T in tensors]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # two vertices contract in one step to a scalar, which slicing cannot shrink
        assert any(plan.sliced for plan in tensor._PATH_CACHE.values()) == (n > 2)

        # every edge between two vertices, and for n <= 4 every pair of them
        for b, want in zip(reps, unsliced):
            eq = tensor._einsum_eq(b)
            edges = _joining_edges(eq)
            pairs = ["".join(c) for c in itertools.combinations(edges, 2)] if n <= 4 else []
            for T, value in zip(tensors, want):
                for sliced in edges + pairs:
                    tensor._PATH_CACHE[(eq, T.N)] = tensor._greedy_plan(eq, T.N, sliced)
                    assert _einsum_route(b, T) == pytest.approx(value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N", [96, 128, 256])
    @pytest.mark.parametrize("p,n", [(3, 4), (3, 6)])
    def test_large_N_plans_are_pairwise_within_N_cubed(self, p, n, N, monkeypatch):
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for b in _class_reps(p, n):
            plan = tensor._plan(tensor._einsum_eq(b), N)
            assert all(len(step) <= 2 for step in plan.path[1:])
            assert plan.max_elems <= N**3
            flop, largest = _numpy_cost(plan, N)
            assert plan.max_elems == pytest.approx(largest, rel=1e-3)
            assert plan.flop == pytest.approx(N ** len(plan.sliced) * flop, rel=1e-3)

    def test_k4_beyond_the_greedy_budget(self, monkeypatch):
        # at N = 96 no pairwise order fits numpy's budget without slicing
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        eq = tensor._einsum_eq(_k4())
        assert tensor._greedy_plan(eq, 96).widest == 4
        assert len(tensor._plan(eq, 96).sliced) == 1
        T = sample_gote(3, 96, seed=7)
        assert _einsum_route(_k4(), T) == pytest.approx(k4_trace_sliced_gemm(T), rel=1e-12)


class TestStepProgram:
    @pytest.mark.parametrize("N", [1, 2, 7, 16])
    @pytest.mark.parametrize("p,n", [(2, 6), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4)])
    def test_equals_numpy_einsum_bit_for_bit(self, p, n, N):
        # N = 1 takes numpy's size-1 handling: every step is a product
        dense = sample_gote(p, N, seed=(p, n, N))._dense()
        for b in _class_reps(p, n):
            eq = tensor._einsum_eq(b)
            for sliced in ["", *_joining_edges(eq)]:
                plan = tensor._greedy_plan(eq, N, sliced)
                assert tensor._contract(plan, dense) == einsum_contract(plan, dense)

    def test_no_contraction_reparses_a_path(self, monkeypatch):
        einsum, options = np.einsum, []

        def spy(*operands, **kwargs):
            options.append(kwargs)
            return einsum(*operands, **kwargs)

        T = sample_gote(3, 8, seed=9)
        want = balanced_invariant(6, T)
        monkeypatch.setattr(tensor.np, "einsum", spy)
        assert balanced_invariant(6, T) == want
        assert options and not any("optimize" in kw for kw in options)


class TestK4Kernel:
    @pytest.mark.parametrize("N", [1, 2, 3, 7])
    def test_matches_naive_trace(self, N):
        T = sample_gote(3, N, seed=N)
        assert tensor._k4_trace(T._dense()) == pytest.approx(
            naive_trace(_k4(), T), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("N", [2, 7, 32])
    def test_matches_einsum_route_unsliced_and_sliced(self, N):
        T = sample_gote(3, N, seed=10 + N)
        dense = T._dense()
        kernel = tensor._k4_trace(dense)
        eq = tensor._einsum_eq(_k4())
        for sliced in ["", *sorted(set(eq) - set(",->"))]:
            plan = tensor._greedy_plan(eq, N, sliced)
            assert tensor._contract(plan, dense) == pytest.approx(kernel, rel=1e-12, abs=1e-12)

    def test_matches_sliced_gemm_reference(self):
        T = sample_gote(3, 96, seed=7)
        assert trace_invariant(_k4(), T) == pytest.approx(
            k4_trace_sliced_gemm(T), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize(
        "p,n,taken", [(3, 2, 0), (3, 4, 1), (3, 6, 0), (4, 2, 0), (4, 4, 0)]
    )
    def test_only_the_tetrahedron_takes_the_kernel(self, p, n, taken, monkeypatch):
        calls = []
        kernel = tensor._k4_trace
        monkeypatch.setattr(tensor, "_k4_trace", lambda dense: calls.append(1) or kernel(dense))
        balanced_invariant(n, sample_gote(p, 3, seed=4))
        assert len(calls) == taken


def _no_contraction(*args, **kwargs):
    raise AssertionError("contracted before the guard")


class TestContractionGuard:
    @pytest.fixture(autouse=True)
    def _nothing_contracts(self, monkeypatch):
        monkeypatch.setattr(tensor, "_k4_trace", _no_contraction)
        monkeypatch.setattr(tensor, "_run_steps", _no_contraction)
        monkeypatch.setattr(tensor.np, "einsum", _no_contraction)

    def test_step_program_refused_before_contracting(self, monkeypatch):
        b = next(rep for rep in _class_reps(3, 4) if rep != _k4())
        _, flop, _ = tensor._route(b, 16)
        monkeypatch.setattr(tensor, "_MAX_FLOP", flop - 1)
        with pytest.raises(ResourceLimitError, match="FLOP"):
            trace_invariant(b, sample_gote(3, 16, seed=0))

    def test_flop_limit_refuses_before_contracting(self, monkeypatch):
        # the K4 kernel's N^3 (N + 1)^2 at N = 16
        monkeypatch.setattr(tensor, "_MAX_FLOP", 10**6)
        with pytest.raises(ResourceLimitError, match=r"1\.18e\+06 FLOP"):
            trace_invariant(_k4(), sample_gote(3, 16, seed=0))

    def test_byte_limit_refuses(self, monkeypatch):
        # admits an N^2 intermediate, not the K4 kernel's N^3; the tensor is
        # built first, since the limit also prices its storage
        T = sample_gote(3, 16, seed=0)
        monkeypatch.setattr(tensor, "_MAX_INTERMEDIATE_BYTES", 8 * 16**2)
        with pytest.raises(ResourceLimitError, match=r"intermediate of 3\.28e\+04 bytes"):
            trace_invariant(_k4(), T)

    def test_limits_admit_p3_n4_up_to_N200(self, monkeypatch):
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for N in (96, 128, 200):
            for b in _class_reps(3, 4):
                _, flop, max_elems = tensor._route(b, N)
                assert flop <= tensor._MAX_FLOP
                assert 8 * max_elems <= tensor._MAX_INTERMEDIATE_BYTES

    def test_index_table_refused_beyond_order_20(self, monkeypatch):
        def no_table(p, N):
            raise AssertionError("index table built before the guard")

        # 21! overflows the int64 orbit sizes; order 20 still builds
        assert tensor._table(20, 1).orbit.tolist() == [1]
        monkeypatch.setattr(tensor, "_IndexTable", no_table)
        for p in (21, 23):
            with pytest.raises(ResourceLimitError, match=rf"^order {p} exceeds"):
                sample_gote(p, 2, seed=0)

    def test_storage_refused_before_building(self, monkeypatch):
        def no_table(p, N):
            raise AssertionError("index table built before the guard")

        monkeypatch.setattr(tensor, "_IndexTable", no_table)
        # 2p + 4 int64 columns of C(N+p-1, p) rows, and 16 N^p dense bytes
        for p, N in [(4, 200), (6, 32), (8, 16), (3, 332)]:
            need = 8 * (2 * p + 4) * math.comb(N + p - 1, p) + 16 * N**p
            assert need > tensor._MAX_INTERMEDIATE_BYTES
            message = re.escape(f"N={N} needs {need:.3g} bytes")
            with pytest.raises(ResourceLimitError, match=message):
                sample_gote(p, N, seed=0)
        tensor._check_storage(3, 331)

    def test_table_cache_evicts_to_the_storage_limit(self, monkeypatch):
        # room for either table alone but not for both: the older one goes
        monkeypatch.setattr(tensor, "_TABLES", OrderedDict())
        small, large = tensor._storage_bytes(3, 8), tensor._storage_bytes(3, 9)
        monkeypatch.setattr(tensor, "_MAX_INTERMEDIATE_BYTES", small + large - 1)
        first = tensor._table(3, 8)
        assert tensor._table(3, 8) is first
        tensor._table(3, 9)
        assert list(tensor._TABLES) == [(3, 9)]
        assert tensor._table(3, 8) is not first

    def test_table_cache_keeps_the_tetrahedron_tables(self, monkeypatch):
        monkeypatch.setattr(tensor, "_TABLES", OrderedDict())
        tables = [tensor._table(3, N) for N in (32, 48, 64)]
        assert [tensor._table(3, N) for N in (32, 48, 64)] == tables
        assert list(tensor._TABLES) == [(3, 32), (3, 48), (3, 64)]

    def test_k4_refused_at_N256_before_densifying(self):
        # a stand-in tensor: the guard must not need its entries
        T = types.SimpleNamespace(p=3, N=256, _dense=_no_contraction)
        with pytest.raises(ResourceLimitError, match=r"take 1\.11e\+12 FLOP"):
            trace_invariant(_k4(), T)


class TestExactExpectations:
    @pytest.mark.parametrize("dist", [GAUSSIAN_GOTE, RADEMACHER, UNIFORM, FLAT])
    def test_oracle_equivalence(self, dist):
        cases = [(b, (4, 6, 8)) for b in enumerate_rooted_connected(3, 2)]
        cases += [(rep, (2, 3)) for rep, _ in _trace_classes(3, 4)]
        cases += [(b, (3, 4)) for b in enumerate_rooted_connected(4, 2)]
        cases += [(b, (3, 5)) for b in enumerate_rooted_connected(2, 4)]
        for b, grid in cases:
            for N in grid:
                assert expected_trace_exhaustive(b, N, dist) == expected_trace_partitions(
                    b, N, dist
                )

    @pytest.mark.parametrize(
        "p, n, dists",
        [
            (3, 2, (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)),
            (3, 4, (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)),
            (4, 2, (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)),
            (4, 4, (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)),
        ],
    )
    def test_degree_bound_reached_only_by_melonic_maps(self, p, n, dists):
        # the paper's convergence theorem on exact integers: N^{(n/2)(p-1)}
        # E[Tr_b] has degree at most (n/2)(p-1) + 1 in N, with equality iff b
        # is melonic
        from melonic.hypergraph import is_melonic_graph

        bound = (n // 2) * (p - 1) + 1
        for dist in dists:
            for rep, _ in _trace_classes(p, n):
                coeffs = exact._polynomial(rep, dist)
                degree = max(k for k, c in enumerate(coeffs) if c)
                assert degree <= bound
                assert (degree == bound) == is_melonic_graph(rep)

    def test_melon_hand_value(self):
        # E[Tr]/N = 1/2 + 3/(2N) + 1/N^2 under the invariant profile
        for N in (2, 8, 32):
            got = expected_trace_partitions(melon_map(), N, GAUSSIAN_GOTE) / N
            assert got == Fraction(1, 2) + Fraction(3, 2 * N) + Fraction(1, N * N)

    def test_tau1_hand_value(self):
        for N in (2, 8, 32):
            got = expected_trace_partitions(tau1_map(), N, GAUSSIAN_GOTE) / N
            assert got == Fraction(1, N) + Fraction(2, N * N)

    def test_melonic_limit_and_rate(self):
        # N^-1 E[Tr_b] -> (p-1)!^{-n/2} for melonic maps, 0 otherwise,
        # with log-log slope within +-0.3 of -1
        from melonic.hypergraph import is_melonic_graph

        grid = (8, 16, 32)
        for b in enumerate_rooted_connected(3, 2):
            target = Fraction(1, 2) if is_melonic_graph(b) else Fraction(0)
            devs = [
                float(abs(expected_trace_partitions(b, N, GAUSSIAN_GOTE) / N - target))
                for N in grid
            ]
            slope = np.polyfit(np.log(grid), np.log(devs), 1)[0]
            assert abs(slope + 1) < 0.3

    def test_pareto_has_no_exact_oracle(self):
        dist = EntryDistribution("symmetrized-pareto", 3.5)
        with pytest.raises(ContractViolation):
            expected_trace_exhaustive(melon_map(), 3, dist)

    def test_exhaustive_guard(self):
        with pytest.raises(ResourceLimitError):
            expected_trace_exhaustive(melon_map(), 10**4, GAUSSIAN_GOTE)

    def test_partition_guard(self):
        b = enumerate_rooted_connected(2, 10)[0]
        with pytest.raises(ResourceLimitError):
            expected_trace_partitions(b, 4, GAUSSIAN_GOTE)

    @pytest.mark.parametrize("dist", [GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM])
    def test_balanced_expectation_is_per_map_sum(self, dist):
        for p, n in ((3, 2), (3, 4), (4, 2)):
            per_map = sum(
                (expected_trace_partitions(b, 5, dist) for b in enumerate_rooted_connected(p, n)),
                Fraction(0),
            )
            assert expected_balanced_invariant(p, n, 5, dist) == per_map

    def test_balanced_expectation_helper(self):
        val = expected_balanced_invariant(3, 2, 32, GAUSSIAN_GOTE)
        assert val / 32 == 1 + Fraction(6, 32) + Fraction(8, 32**2)


def _inverse_powers(counts, p, n, extra):
    """{j: coefficient of N^-j} of counts(N) / (((p-1)!)^n N^{n(p-1)+extra})."""
    norm = math.factorial(p - 1) ** n
    return {n * (p - 1) + extra - k: Fraction(c, norm) for k, c in enumerate(counts) if c}


class TestPairingOracle:
    @pytest.mark.parametrize("p, n", [(2, 4), (3, 2), (3, 4), (4, 2), (4, 4)])
    def test_matches_partition_route(self, p, n):
        # under every exact law, the group DP gives the partition route's
        # polynomial in the powers N^k
        for dist in (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM):
            for rep, _ in _trace_classes(p, n):
                assert list(exact._polynomial(rep, dist)) == in_powers(trace_polynomial(rep, dist))

    def test_route_is_chosen_by_the_law(self):
        # every law takes the group DP; its tables follow the law: the p!
        # slot bijections at weight 1 for a Gaussian pair, and for the 7-edge
        # melon under the flat profile the lattice route, one unmerged term
        pair = ((0, 1, 2), (3, 4, 5))
        for dist in (GAUSSIAN_GOTE, RADEMACHER, UNIFORM):
            (steps,) = exact._group_table(pair, dist)
            assert len(steps) == 1 and sorted(w for _, w in steps[0]) == [1] * 6
            assert all(type(w) is int for _, w in steps[0])
        assert exact._table_terms(FLAT, 7, 2, 7) == (426_833, 19_302)
        melon = (tuple(range(7)), tuple(range(7)))
        ((step,),) = exact._group_table(melon, FLAT)
        assert step == (((), 1),)
        # the laws differ through groups of four and more, absent from Gaussians
        assert list(exact._law(GAUSSIAN_GOTE, 3, 6)) == [2]
        assert list(exact._law(RADEMACHER, 3, 6)) == [2, 4, 6]

    @pytest.mark.parametrize(
        "members, dist",
        [
            (members, dist)
            for members in [
                ((0, 1, 2), (3, 4, 5)),
                ((0, 0, 1), (1, 2, 2)),
                ((0, 1, 2), (0, 1, 3)),
                ((0, 1, 2, 3), (4, 5, 6, 6)),
            ]
            for dist in (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)
        ]
        + [
            (members, dist)
            for members in [
                ((0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3, 5)),
                ((0, 0, 1), (1, 2, 3), (2, 3, 4), (4, 5, 5)),
            ]
            for dist in (RADEMACHER, UNIFORM)
        ],
    )
    def test_slot_and_lattice_routes_agree(self, monkeypatch, members, dist):
        # both enumerations give the same identification sets and weights
        def flat_table(route):
            monkeypatch.setattr(exact, "_table_terms", lambda *args: route)
            table = Counter()
            for steps in exact._group_table.__wrapped__(members, dist):
                states = Counter({tuple(range(m)): 1})
                for step in steps:
                    nxt = Counter()
                    for part, c in states.items():
                        for pairs, w in step:
                            labels = list(part)
                            for e, f in pairs:
                                x, y = labels[e], labels[f]
                                labels = [x if z == y else z for z in labels]
                            rgs: dict = {}
                            nxt[tuple(rgs.setdefault(x, len(rgs)) for x in labels)] += c * w
                    states = nxt
                table.update(states)
            return {part: w for part, w in table.items() if w}

        m = 1 + max(map(max, members))
        assert flat_table((1, 0)) == flat_table((0, 1))

    @pytest.mark.parametrize("p, n, top", [(3, 6, 12), (4, 4, 4)])
    def test_degree_bound_and_fuss_catalan_top(self, p, n, top):
        # N^{(n/2)(p-1)} E[Tr_b] has degree at most (n/2)(p-1) + 1, and the
        # weighted top coefficient of E[I_n] is F_p(n/2)
        bound = (n // 2) * (p - 1) + 1
        weighted = 0
        for rep, count in _trace_classes(p, n):
            counts, _ = exact._group_counts(exact._vertex_edge_ids(rep), p, GAUSSIAN_GOTE)
            assert not any(counts[bound + 1 :])
            weighted += count * counts[bound]
        assert bound == 7 and top == fuss_catalan(p, n // 2)
        assert Fraction(weighted, math.factorial(p - 1) ** (n // 2)) == top

    def test_odd_vertex_count_has_no_pairing(self):
        assert exact._group_counts([(0, 0)], 2, GAUSSIAN_GOTE)[0] == [0, 0]
        assert exact._group_counts([(0, 0)], 2, RADEMACHER)[0] == [0, 0]

    def test_work_guard_per_route(self, monkeypatch):
        # each table is priced by the cheaper of its two routes
        assert exact._price(3, 6, GAUSSIAN_GOTE) == 3810
        assert exact._price(3, 6, RADEMACHER) == 52_034
        assert exact._price(7, 2, FLAT) == 19_302 < exact._table_terms(FLAT, 7, 2, 7)[0]
        # refusals come before any map is enumerated
        monkeypatch.setattr(exact, "_trace_classes", _no_contraction)
        with pytest.raises(ResourceLimitError, match=r"^3628800 oracle terms per class of 2"):
            expected_balanced_invariant(10, 2, 4, GAUSSIAN_GOTE)
        with pytest.raises(ResourceLimitError, match=r"^4497708 oracle terms per class of 4"):
            expected_balanced_invariant(5, 4, 4, RADEMACHER)
        # the map budget refuses what the guard admits
        for p, n, dist in [(4, 5, GAUSSIAN_GOTE), (4, 5, RADEMACHER), (5, 4, GAUSSIAN_GOTE)]:
            assert exact._price(p, n, dist) <= exact._ORACLE_TERM_GUARD
            with pytest.raises(ResourceLimitError, match=rf"^{count_rooted_maps(p, n)} maps"):
                expected_balanced_invariant(p, n, 4, dist)
        # the variance prices the disjoint union of two classes
        with pytest.raises(ResourceLimitError, match=r"^570464598 oracle terms"):
            balanced_invariant_variance(3, 6, 4, GAUSSIAN_GOTE)

    @pytest.mark.parametrize(
        "p, n, inverse_powers",
        [
            (3, 2, {3: 30, 4: 180, 5: 240}),
            (3, 4, {3: 1080, 4: 28368, 5: 314568, 6: 1882944, 7: 6366672, 8: 11332512,
                    9: 8067456}),
            (4, 2, {4: 192, 5: 2160, 6: 7728, 7: 8352}),
        ],
    )
    def test_variance_polynomial(self, p, n, inverse_powers):
        # Var[I_n/N] as {j: coefficient of N^-j}
        assert _inverse_powers(exact._variance_counts(p, n), p, n, 2) == inverse_powers

    def test_variance_i2_matches_disjoint_union_reference(self):
        for N in (2, 3, 16):
            assert balanced_invariant_variance(3, 2, N, GAUSSIAN_GOTE) / N**2 == (
                exact_i2_variance(N, GAUSSIAN_GOTE)
            )

    def test_variance_needs_gaussian_entries(self):
        for dist in (FLAT, RADEMACHER, UNIFORM):
            with pytest.raises(ContractViolation):
                balanced_invariant_variance(3, 2, 8, dist)
        assert balanced_invariant_variance(3, 0, 8, GAUSSIAN_GOTE) == 0


class TestResolventSeries:
    def test_truncation_zero(self):
        T = sample_gote(3, 5, seed=0)
        assert resolvent_series(T, 2.0, 0) == pytest.approx(0.5)

    def test_matrix_convergence_geometric(self):
        M = sample_gote(2, 20, seed=1)
        d = M.to_dense()
        z = 4.0
        direct = np.trace(np.linalg.inv(z * np.eye(20) - d)) / 20
        gaps = [abs(resolvent_series(M, z, K) - direct) for K in (6, 10, 14)]
        assert gaps[1] < 0.5 * gaps[0] and gaps[2] < 0.5 * gaps[1]

    def test_rejects_zero(self):
        T = sample_gote(2, 4, seed=2)
        with pytest.raises(ContractViolation):
            resolvent_series(T, 0, 4)


class TestMultilinearTransform:
    def test_identity(self):
        T = sample_gote(3, 4, seed=0)
        out = multilinear_transform(T, np.eye(4))
        assert np.allclose(out.values, T.values)

    def test_composition(self, nprng):
        T = sample_gote(3, 4, seed=1)
        U = random_orthogonal(nprng, 4)
        V = random_orthogonal(nprng, 4)
        a = multilinear_transform(multilinear_transform(T, V), U)
        b = multilinear_transform(T, U @ V)
        assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-12)
