import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from melonic import cli, exact, maps, tensor
from melonic.counting import count_rooted_maps, fuss_catalan
from melonic.errors import ContractViolation, ResourceLimitError
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Hypermap,
    Permutation,
    _multigraph_key,
    _trace_classes,
    _vertex_edge_ids,
    edge_list,
    enumerate_rooted_connected,
    multigraph,
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
    _disjoint_union,
    automorphism_count,
    dense_map_by_sorting,
    einsum_contract,
    enumerate_edge_partitions,
    exact_i2_variance,
    expected_trace_exhaustive,
    expected_trace_partitions,
    in_powers,
    index_table_by_sorting,
    injective_trace,
    k4_trace_by_pairs,
    k4_trace_sliced_gemm,
    k33_trace_by_products,
    map_of_network,
    multigraph_by_halfedge_vertices,
    multilinear_transform,
    naive_trace,
    random_permutation,
    multigraph_key_by_permutations,
    multigraph_key_unpruned,
    relabel,
    trace_classes_by_key,
    trace_polynomial,
    vertex_edge_ids_by_edge_list,
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
        assert by_partition[EdgePartition([(0,), (1,), (2,)])] == pytest.approx(
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
            injective_trace(b, EdgePartition([(e,) for e in range(5)]), T)


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


# every (p, n) with maps whose enumeration tier-1 runs
TIER1_SIZES = (
    [(2, n) for n in range(1, 11)]
    + [(3, 2), (3, 4), (3, 6), (4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (6, 2)]
)


def _cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def _networks(classes):
    """(network, class size) of (map, class size) pairs."""
    return [(_vertex_edge_ids(b), size) for b, size in classes]


class TestTraceClasses:
    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4)])
    def test_matches_permutation_reference(self, p, n):
        want = trace_classes_by_key(p, n, multigraph_key_by_permutations)
        assert list(_trace_classes(p, n)) == _networks(want)

    @pytest.mark.parametrize("p,n", TIER1_SIZES)
    def test_matches_unpruned_reference(self, p, n):
        # representatives, class sizes and class order; under the canonical
        # sigma a network determines its map, so the representatives are the
        # maps the reference groups by
        want = trace_classes_by_key(p, n, multigraph_key_unpruned)
        assert list(_trace_classes(p, n)) == _networks(want)
        assert [map_of_network(net) for net, _ in _trace_classes(p, n)] == [b for b, _ in want]

    @pytest.mark.parametrize("p,n", TIER1_SIZES)
    def test_network_reader_matches_the_map(self, p, n):
        # what the numeric layer reads off a tau image is the map's network
        # and multigraph, by the edge_list route they were read by before
        vertices = [range(v * p, v * p + p) for v in range(n)]
        for b in rooted_connected(p, n):
            net = maps._network(vertices, b.tau.image)
            assert net == _vertex_edge_ids(b) == vertex_edge_ids_by_edge_list(b)
            edges = maps._network_edges(net)
            assert edges == multigraph(b) == multigraph_by_halfedge_vertices(b)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--p", "3", "--n", "6", "--N", "2", "--samples", "2"],
            ["var", "--N", "2,4", "--samples", "2"],
            ["contract", "--p", "4", "--k", "1", "--n", "4", "--N", "2", "--samples", "2"],
            ["moments", "--p", "3", "--n", "6", "--N", "8"],
            ["heavytail", "--N", "2", "--samples", "2"],
            ["resolvent-check", "--N", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_numeric_subcommands_build_no_map(self, argv, monkeypatch, capsys):
        # the classes reach the numeric layer as networks, read off the
        # enumerator's tau tuples
        built = []
        init = CombinatorialMap.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        # fresh caches, so the run below enumerates and groups anew
        for name in ("_coded_taus", "_trace_classes", "rooted_connected"):
            fresh = lru_cache(getattr(maps, name).__wrapped__)
            for module in (maps, exact):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fresh)
        monkeypatch.setattr(CombinatorialMap, "__init__", counted)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert built == []

    @pytest.mark.parametrize("p,n", TIER1_SIZES)
    def test_key_equals_unpruned_search(self, p, n):
        labelled = {tuple(sorted(multigraph(b))) for b in rooted_connected(p, n)}
        for g in labelled:
            assert _multigraph_key(n, g) == multigraph_key_unpruned(n, g)

    def test_cycle_keys_equal_unpruned_search(self, rng):
        for n in range(1, 53):
            perm = list(range(n))
            rng.shuffle(perm)
            relab = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in _cycle(n))
            assert _multigraph_key(n, relab) == multigraph_key_unpruned(n, _cycle(n))

    def test_cycle_union_keys_equal_unpruned_search(self, rng):
        # every 2-regular multigraph on up to 10 vertices with at most three
        # cycles (a 1-cycle is a loop, a 2-cycle a double edge): one colour
        # cell that refinement never splits, equal cycles swapped by
        # automorphisms, unequal ones not; more cycles would leave the
        # unpruned search up to 10! leaves
        def partitions(n, top):
            if n == 0:
                yield []
            for k in range(min(n, top), 0, -1):
                yield from ([k] + rest for rest in partitions(n - k, k))

        for n in range(1, 11):
            for lengths in filter(lambda ks: len(ks) <= 3, partitions(n, n)):
                starts = [sum(lengths[:i]) for i in range(len(lengths))]
                edges = [(s + u, s + v) for s, k in zip(starts, lengths) for u, v in _cycle(k)]
                perm = list(range(n))
                rng.shuffle(perm)
                relab = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
                assert _multigraph_key(n, relab) == multigraph_key_unpruned(n, sorted(edges))

    def test_pruning_bounds_the_search(self, monkeypatch):
        # bounds fixed before measuring; the unpruned search refines 157 and
        # 133 times, once per node of a tree with 2n and |Aut K_{3,3}| = 72 leaves
        calls = []
        refine = maps._refine

        def counted(*args):
            calls.append(None)
            return refine(*args)

        monkeypatch.setattr(maps, "_refine", counted)
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        for n, edges, bound in [(52, _cycle(52), 10), (6, k33, 24)]:
            calls.clear()
            _multigraph_key(n, edges)
            assert len(calls) <= bound

    def test_class_counts(self):
        assert [len(_trace_classes(p, n)) for p, n in ((3, 4), (3, 6), (4, 4))] == [5, 17, 10]

    @pytest.mark.parametrize(
        "p,n", [(3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4), (6, 2), (2, 5)]
    )
    def test_class_sizes_are_multigraph_weights(self, p, n):
        # w(G) = n p ((p-1)!)^n / (|Aut G| prod_e m_e! prod_loops 2^{m_e})
        classes = _trace_classes(p, n)
        for net, count in classes:
            edges = maps._network_edges(net)
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


def _class_nets(p, n):
    """The network of each class of B_n^(p), in class order."""
    return [net for net, _ in _trace_classes(p, n)]


def _class_maps(p, n):
    """The first map of each class of B_n^(p), in class order, for the
    references that read maps."""
    return [map_of_network(net) for net in _class_nets(p, n)]


def _k4():
    """The first map of the tetrahedral class of B_4^(3): every vertex pair
    joined once."""
    k4 = list(itertools.combinations(range(4), 2))
    (rep,) = [b for b in _class_maps(3, 4) if sorted(multigraph(b)) == k4]
    return rep


def _contract_one(plan, dense):
    """plan's step program on one dense tensor, a batch of one."""
    return tensor._contract(plan, [dense[None]] * len(plan.holders))[0]


def _einsum_route(net, T):
    """Tr(T) of the network by the compiled step program of the current
    plan, whatever route trace_invariant would take."""
    return _contract_one(tensor._plan(tensor._einsum_eq(net), T.N), T._dense())


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
        nets = _class_nets(p, n)
        unsliced = [[_einsum_route(net, T) for T in tensors] for net in nets]
        assert not any(plan.sliced for plan in tensor._PATH_CACHE.values())
        for b, (small, _) in zip(_class_maps(p, n), unsliced):
            assert small == pytest.approx(naive_trace(b, tensors[0]), rel=1e-12, abs=1e-12)

        # the planner's own choice once every intermediate is over budget
        monkeypatch.setattr(tensor, "_SLICE_ELEMS", 0)
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for net, want in zip(nets, unsliced):
            got = [_einsum_route(net, T) for T in tensors]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        # two vertices contract in one step to a scalar, which slicing cannot shrink
        assert any(plan.sliced for plan in tensor._PATH_CACHE.values()) == (n > 2)

        # every edge between two vertices, and for n <= 4 every pair of them
        for net, want in zip(nets, unsliced):
            eq = tensor._einsum_eq(net)
            edges = _joining_edges(eq)
            pairs = ["".join(c) for c in itertools.combinations(edges, 2)] if n <= 4 else []
            for T, value in zip(tensors, want):
                for sliced in edges + pairs:
                    tensor._PATH_CACHE[(eq, T.N)] = tensor._greedy_plan(eq, T.N, sliced)
                    assert _einsum_route(net, T) == pytest.approx(value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N", [96, 128, 256])
    @pytest.mark.parametrize("p,n", [(3, 4), (3, 6)])
    def test_large_N_plans_are_pairwise_within_N_cubed(self, p, n, N, monkeypatch):
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for net in _class_nets(p, n):
            plan = tensor._plan(tensor._einsum_eq(net), N)
            assert all(len(step) <= 2 for step in plan.path[1:])
            assert plan.max_elems <= N**3
            flop, largest = _numpy_cost(plan, N)
            assert plan.max_elems == pytest.approx(largest, rel=1e-3)
            assert plan.flop == pytest.approx(N ** len(plan.sliced) * flop, rel=1e-3)

    def test_k4_beyond_the_greedy_budget(self, monkeypatch):
        # at N = 96 no pairwise order fits numpy's budget without slicing
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        net = _vertex_edge_ids(_k4())
        eq = tensor._einsum_eq(net)
        assert tensor._greedy_plan(eq, 96).widest == 4
        assert len(tensor._plan(eq, 96).sliced) == 1
        T = sample_gote(3, 96, seed=7)
        assert _einsum_route(net, T) == pytest.approx(k4_trace_sliced_gemm(T), rel=1e-12)


class TestStepProgram:
    @pytest.mark.parametrize("N", [1, 2, 7, 16])
    @pytest.mark.parametrize("p,n", [(2, 6), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4)])
    def test_equals_numpy_einsum_bit_for_bit(self, p, n, N):
        # N = 1 takes numpy's size-1 handling: every step is a product
        dense = sample_gote(p, N, seed=(p, n, N))._dense()
        for net in _class_nets(p, n):
            eq = tensor._einsum_eq(net)
            for sliced in ["", *_joining_edges(eq)]:
                plan = tensor._greedy_plan(eq, N, sliced)
                assert _contract_one(plan, dense) == einsum_contract(plan, dense)

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


def _stack(p, N, seed, B=16):
    """B GOTE tensors of order p and dimension N, and their dense stack."""
    tensors = [sample_gote(p, N, seed=(seed, N, i)) for i in range(B)]
    return tensors, tensor._dense_stack(tensors)


class TestBatchedEvaluation:
    @pytest.mark.parametrize(
        "p,n", [(2, 2), (2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4),
                (5, 2)]
    )
    def test_batch_equals_each_sample_bit_for_bit(self, p, n):
        # every class on its own route, against the batch of one of trace_invariant
        for N in (1, 3, 6):
            tensors, dense = _stack(p, N, seed=10 * p + n)
            for b in _class_maps(p, n):
                evaluate, _, _ = tensor._class_route(_vertex_edge_ids(b), N)
                alone = [trace_invariant(b, T) for T in tensors]
                for B in (1, 3, 16):
                    assert evaluate(dense[:B]).tolist() == alone[:B]

    def test_batch_over_the_slice_limit_runs_per_sample(self, monkeypatch):
        # sliced plans, and batches that run one sample at a time, keep the bits
        monkeypatch.setattr(tensor, "_SLICE_ELEMS", 300)
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        tensors, dense = _stack(3, 6, seed=1)
        plans = [tensor._plan(tensor._einsum_eq(net), 6) for net in _class_nets(3, 4)]
        assert any(plan.sliced for plan in plans)
        assert any(3 * plan.max_elems <= 300 < 16 * plan.max_elems for plan in plans)
        for plan in plans:
            alone = [_contract_one(plan, T._dense()) for T in tensors]
            for B in (1, 3, 16):
                assert tensor._contract(plan, [dense[:B]] * 4).tolist() == alone[:B]

    def test_balanced_invariants_of_a_stack(self):
        tensors, dense = _stack(3, 5, seed=2, B=3)
        for n in (0, 2, 4, 6):
            got = tensor.balanced_invariants(n, dense).tolist()
            assert got == [balanced_invariant(n, T) for T in tensors]

    def test_per_sample_runs_reuse_their_buffers_and_keep_the_bits(self, monkeypatch):
        # at N = 16 the 16 samples times K_{3,3}'s N^4 intermediate exceed
        # _SLICE_ELEMS, so its samples run one at a time, all through the
        # buffers the call allocates once
        tensors, dense = _stack(3, 16, seed=7)
        plan = tensor._plan(_K33, 16)
        assert 5 * plan.max_elems > tensor._SLICE_ELEMS >= plan.max_elems
        for b in _class_maps(3, 6):
            evaluate, _, _ = tensor._class_route(_vertex_edge_ids(b), 16)
            assert evaluate(dense).tolist() == [trace_invariant(b, T) for T in tensors]

        allocated, empty = [], np.empty
        spy = lambda *a, **kw: allocated.append(1) or empty(*a, **kw)  # noqa: E731
        monkeypatch.setattr(tensor.np, "empty", spy)
        counts = []
        for B in (5, 16):
            allocated.clear()
            tensor._contract(plan, [dense[:B]] * 6)
            counts.append(len(allocated))
        # only the first samples allocate: 5 samples as many buffers as 16
        assert counts[0] == counts[1] > 0

    def test_slices_keep_their_own_results(self, monkeypatch):
        # the last step writes into no buffer, so no slice's result is
        # overwritten by the next slice's intermediates
        N = 5
        dense = sample_gote(3, N, seed=12)._dense()
        plan = tensor._greedy_plan(_K33, N, _joining_edges(_K33)[0])
        results, run = [], tensor._run_steps
        monkeypatch.setattr(tensor, "_run_steps", lambda *a: results.append(run(*a)) or results[-1])
        assert _contract_one(plan, dense) == einsum_contract(plan, dense)
        assert len(results) == N
        assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(results, 2))
        assert len({float(x[0]) for x in results}) == N


# the class of (3, 6) whose multigraph is K_{3,3}: the most costly at N = 16
_K33 = "abc,ade,bfg,chi,dfh,egi->"

# tracemalloc's peak over the warm call of TestContractionMemory, measured
# at the commit before the contractions drew their intermediates from a pool
_PEAK_BEFORE_POOLS = 2_632_552


class TestContractionMemory:
    def test_warm_invariants_peak_no_higher_and_retain_no_array(self):
        _, dense = _stack(3, 16, seed=0)
        want = tensor.balanced_invariants(6, dense).tolist()

        def array_bytes():
            # the array memory numpy reports to tracemalloc
            domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([domain]).traces)

        tracemalloc.start()
        try:
            before, base = array_bytes(), tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = tensor.balanced_invariants(6, dense).tolist()
            peak = tracemalloc.get_traced_memory()[1] - base
            after = array_bytes()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= _PEAK_BEFORE_POOLS
        assert after == before


# the (p, n) whose classes' plans are checked for their buffers
_BUFFER_CLASSES = [(2, n) for n in range(2, 9)] + [
    (3, 2), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4), (5, 2)
]


def _buffer_plans(monkeypatch):
    """(plan, dense stack of 16) for every class of _BUFFER_CLASSES at each N
    of (1, 2, 3, 5, 8, 16) with N^p <= 16^4, then the sliced plans of (3, 4)
    at N = 6 that a 300-element slice limit gives."""
    for p, n in _BUFFER_CLASSES:
        for N in (1, 2, 3, 5, 8, 16):
            if N**p <= 16**4:
                _, dense = _stack(p, N, seed=(p, n))
                for net in _class_nets(p, n):
                    yield tensor._plan(tensor._einsum_eq(net), N), dense
    monkeypatch.setattr(tensor, "_SLICE_ELEMS", 300)
    monkeypatch.setattr(tensor, "_PATH_CACHE", {})
    _, dense = _stack(3, 6, seed=1)
    plans = [tensor._plan(tensor._einsum_eq(net), 6) for net in _class_nets(3, 4)]
    assert any(plan.sliced for plan in plans)
    for plan in plans:
        yield plan, dense


class TestPlanBuffers:
    def test_copies_are_where_numpy_copies(self, monkeypatch):
        # an operand the plan leaves in place reshapes as a view, and an
        # operand it copies would not
        prepared, decided = tensor._prepared, []

        def spy(bufs, x, prep, shape, k):
            if shape is not None:
                y = x.transpose(prep) if isinstance(prep, tuple) else x
                y = np.einsum(prep, y) if isinstance(prep, str) else y
                try:
                    y.reshape(shape, copy=False)
                    in_place = True
                except ValueError:
                    in_place = False
                decided.append((k is None, in_place))
            return prepared(bufs, x, prep, shape, k)

        monkeypatch.setattr(tensor, "_prepared", spy)
        for plan, dense in _buffer_plans(monkeypatch):
            for B in (1, 3, 16):
                tensor._contract(plan, [dense[:B]] * len(plan.holders))
        assert decided and all(plan == numpy for plan, numpy in decided)
        assert any(not plan for plan, _ in decided)

    def test_no_step_writes_into_what_it_reads(self, monkeypatch):
        # numpy would buffer such an overlap itself: the bits would hold and
        # only the speed would show it
        call, prepared, read, joins = tensor._Step.__call__, tensor._prepared, [], []

        def prepared_spy(*args):
            read.append(prepared(*args))
            return read[-1]

        def call_spy(step, bufs, *ops):
            read.clear()
            if step.copies[0] is not None:  # written before the second operand is read
                assert not np.shares_memory(bufs[step.copies[0]], ops[1])
            if None not in step.copies:
                assert step.copies[0] != step.copies[1]
            result = call(step, bufs, *ops)
            if step.out is not None:
                assert not any(np.shares_memory(bufs[step.out], x) for x in read)
                joins.append(step)
            return result

        monkeypatch.setattr(tensor, "_prepared", prepared_spy)
        monkeypatch.setattr(tensor._Step, "__call__", call_spy)
        for plan, dense in _buffer_plans(monkeypatch):
            tensor._contract(plan, [dense[:3]] * len(plan.holders))
        assert joins


def _triangle_classes():
    """(first map, network, equation, k) of every class at (3, 4) and (3, 6)
    with a triangle."""
    return [
        (b, net, *tensor._triangle_eq(net))
        for n in (4, 6)
        for b, net in zip(_class_maps(3, n), _class_nets(3, n))
        if tensor._triangle_eq(net) is not None
    ]


def _triangle_route(eq, k, dense):
    """Tr per sample of the network with k triangle tensors of equation eq."""
    plan = tensor._plan(eq, dense.shape[1])
    return tensor._contract_reduced(plan, k, dense, tensor._triangle_tensor(dense))


class TestTriangleRoute:
    def test_triangles_found(self):
        # K4 and six classes at n = 6; the prism keeps no plain vertex
        found = {tensor._einsum_eq(net): (eq, k) for _, net, eq, k in _triangle_classes()}
        assert len(found) == 7 and sorted(k for _, k in found.values()) == [1] * 6 + [2]
        assert found["abc,ade,bdf,cgh,egi,fhi->"] == ("cef,cef->", 2)
        assert all(tensor._triangle_eq(net) is None for net in _class_nets(3, 2))
        assert all(tensor._triangle_eq(net) is None for net in _class_nets(4, 4))

    @pytest.mark.parametrize("N", [1, 2, 5, 8, 16])
    def test_matches_the_plain_plan(self, N):
        tensors, dense = _stack(3, N, seed=3, B=3)
        for _, net, eq, k in _triangle_classes():
            plain = tensor._contract_plain(tensor._plan(tensor._einsum_eq(net), N), dense)
            assert _triangle_route(eq, k, dense) == pytest.approx(plain, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_naive_trace(self, N):
        # all classes at N <= 2; at N = 3 the prism only, two triangles
        tensors, dense = _stack(3, N, seed=4, B=1)
        for b, _, eq, k in _triangle_classes():
            if N < 3 or k == 2:
                want = naive_trace(b, tensors[0])
                got = _triangle_route(eq, k, dense)[0]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_sliced_triangle_tensor_keeps_the_bits(self, monkeypatch):
        _, dense = _stack(3, 7, seed=5, B=3)
        whole = tensor._triangle_tensor(dense)
        monkeypatch.setattr(tensor, "_SLICE_ELEMS", 7**4 - 1)
        assert np.array_equal(tensor._triangle_tensor(dense), whole)

    def test_route_builds_the_triangle_tensor_when_it_saves_flop(self):
        # n = 4 keeps the K4 kernel at every N; n = 6 builds it at the Monte
        # Carlo sizes, and the value stays within 1e-12 of the plain route
        for N in (1, 2, 8, 16, 32, 64, 128, 200):
            assert not any(reduced for _, _, reduced in tensor._route(3, 4, N))
        for N in (8, 16, 64):
            assert sum(reduced for _, _, reduced in tensor._route(3, 6, N)) == 6
        tensors, dense = _stack(3, 8, seed=6, B=2)
        plain = [
            math.fsum(count * trace_invariant(map_of_network(net), T)
                      for net, count in _trace_classes(3, 6))
            for T in tensors
        ]
        assert tensor.balanced_invariants(6, dense) == pytest.approx(plain, rel=1e-12)


# a script printing the K4 kernel's value, as float.hex, on fixed tensors at
# N = 32 and 48; run in child processes under different BLAS thread counts
_K4_BITS = (
    "from melonic import tensor\n"
    "for N in (32, 48):\n"
    "    dense = tensor.sample_gote(3, N, seed=N)._dense()\n"
    "    print(tensor._k4_trace(dense).hex())\n"
)


def _bits_under_blas_threads(script):
    """The stdout of script in child processes at OPENBLAS_NUM_THREADS=1 and 2."""
    src = str(Path(tensor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    return outs


class TestK4Kernel:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7])
    def test_matches_naive_trace(self, N):
        # at small N most tuples of the orbit sum are ties
        for seed in range(3):
            T = sample_gote(3, N, seed=100 * N + seed)
            assert tensor._k4_trace(T._dense()) == pytest.approx(naive_trace(_k4(), T), rel=1e-13)

    @pytest.mark.parametrize("N", [1, 2, 5, 8, 16, 33, 64, 96])
    def test_matches_the_sum_over_slice_pairs(self, N):
        for seed in range(3 if N <= 33 else 2):
            T = sample_gote(3, N, seed=200 * N + seed)
            kernel = tensor._k4_trace(T._dense())
            assert kernel == pytest.approx(k4_trace_by_pairs(T), rel=1e-13)

    @pytest.mark.parametrize("N", [2, 7, 32])
    def test_matches_einsum_route_unsliced_and_sliced(self, N):
        T = sample_gote(3, N, seed=10 + N)
        dense = T._dense()
        kernel = tensor._k4_trace(dense)
        eq = tensor._einsum_eq(_vertex_edge_ids(_k4()))
        for sliced in ["", *sorted(set(eq) - set(",->"))]:
            plan = tensor._greedy_plan(eq, N, sliced)
            assert _contract_one(plan, dense) == pytest.approx(kernel, rel=1e-13)

    def test_matches_sliced_gemm_reference(self):
        for N, seed in itertools.product((48, 96), (7, 8)):
            T = sample_gote(3, N, seed=seed)
            assert trace_invariant(_k4(), T) == pytest.approx(k4_trace_sliced_gemm(T), rel=1e-13)

    @pytest.mark.parametrize(
        "p,n,taken", [(3, 2, 0), (3, 4, 1), (3, 6, 0), (4, 2, 0), (4, 4, 0)]
    )
    def test_only_the_tetrahedron_takes_the_kernel(self, p, n, taken, monkeypatch):
        calls = []
        kernel = tensor._k4_trace
        monkeypatch.setattr(tensor, "_k4_trace", lambda dense: calls.append(1) or kernel(dense))
        balanced_invariant(n, sample_gote(p, 3, seed=4))
        assert len(calls) == taken

    def test_route_takes_the_kernel_price(self):
        for N in (16, 64, 256):
            flop, max_elems = tensor._k4_cost(N)
            assert tensor._class_route(_vertex_edge_ids(_k4()), N)[1:] == (flop, max_elems)
            # the strict part's products, N^3 (N - 1)^2 / 2 FLOP, and O(N^4)
            assert 0 < flop - N**3 * (N - 1) ** 2 // 2 <= 5 * N**4
        assert f"{tensor._k4_cost(256)[0]:.3g}" == "5.65e+11"

    @pytest.mark.parametrize("N", [32, 48])
    def test_traced_peak_within_its_price(self, N):
        # a first call builds the cached masks, a second finds them
        dense = sample_gote(3, N, seed=N)._dense()
        _, max_elems = tensor._k4_cost(N)
        tensor._k4_weights.cache_clear()
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tensor._k4_trace(dense)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * max_elems
        # the price is no loose bound: the N^3 buffer is most of it
        assert peaks[1] >= 8 * N**3

    def test_bits_do_not_depend_on_blas_threads(self):
        outs = _bits_under_blas_threads(_K4_BITS)
        assert outs[0] == outs[1] and outs[0].startswith("0x")


def _k33():
    """The first map of the class of (3, 6) whose multigraph is K_{3,3}."""
    (rep,) = [b for b in _class_maps(3, 6) if tensor._is_k33(_vertex_edge_ids(b))]
    return rep


# a script printing the K_{3,3} kernel's value, as float.hex, on one fixed
# N = 32 tensor; run in child processes under different BLAS thread counts
_K33_BITS = (
    "from melonic import tensor\n"
    "dense = tensor.sample_gote(3, 32, seed=31)._dense()\n"
    "print(tensor._k33_trace(dense).hex())\n"
)


class TestK33Kernel:
    def test_only_k33_takes_the_kernel(self, monkeypatch):
        assert tensor._einsum_eq(_vertex_edge_ids(_k33())) == _K33
        assert not any(tensor._is_k33(net) for net in _class_nets(3, 4) + _class_nets(4, 4))
        calls, kernel = [], tensor._k33_trace
        monkeypatch.setattr(tensor, "_k33_trace", lambda d: calls.append(1) or kernel(d))
        for p, n, taken in [(3, 2, 0), (3, 4, 0), (3, 6, 1), (4, 2, 0), (4, 4, 0)]:
            calls.clear()
            balanced_invariant(n, sample_gote(p, 3, seed=4))
            assert len(calls) == taken

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16, 32])
    def test_matches_the_step_program(self, N):
        dense = sample_gote(3, N, seed=20 + N)._dense()
        want = _contract_one(tensor._plan(_K33, N), dense)
        assert tensor._k33_trace(dense) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_naive_trace(self, N):
        # the assignment loop has N^9 terms, so only the smallest N
        T = sample_gote(3, N, seed=30 + N)
        assert tensor._k33_trace(T._dense()) == pytest.approx(naive_trace(_k33(), T), rel=1e-12)

    @pytest.mark.parametrize("N", [2, 5, 8])
    def test_matches_the_triple_products(self, N):
        T = sample_gote(3, N, seed=40 + N)
        assert tensor._k33_trace(T._dense()) == pytest.approx(k33_trace_by_products(T), rel=1e-12)

    def test_blocks_are_symmetric_and_N1_has_no_alternating_block(self):
        c_s, c_a = tensor._k33_blocks(sample_gote(3, 1, seed=1)._dense())
        assert c_s.shape == (1, 1) and c_a.shape == (0, 0)
        c_s, c_a = tensor._k33_blocks(sample_gote(3, 7, seed=1)._dense())
        assert c_s.shape == (28, 28) and c_a.shape == (21, 21)
        for c in (c_s, c_a):
            assert np.allclose(c, c.T, rtol=1e-14, atol=0)

    def test_slabs_of_one_x_agree_with_one_slab(self, monkeypatch):
        # N = 7 fits one slab; below the limit every x takes its own
        dense = sample_gote(3, 7, seed=5)._dense()
        assert tensor._k33_chunk(7) == 7
        whole = tensor._k33_trace(dense)
        monkeypatch.setattr(tensor, "_SLICE_ELEMS", 7**4 - 1)
        assert tensor._k33_chunk(7) == 1
        assert tensor._k33_trace(dense) == pytest.approx(whole, rel=1e-12)

    def test_flop_of_one_slab_and_of_slabs_of_one_x(self):
        for N in (8, 16, 23, 32, 128):
            flop, _ = tensor._k33_cost(N)
            n_s, n_a = N * (N + 1) // 2, N * (N - 1) // 2
            slabs = 2 * N**5 if N**4 <= tensor._SLICE_ELEMS else N**4 * (N + 1)
            assert flop == slabs + n_s**2 * (n_s + 1) + n_a**2 * (n_a + 1)

    @pytest.mark.parametrize("N", [32, 48])
    def test_traced_peak_within_its_price(self, N):
        # a first call builds the cached indices, a second finds them
        dense = sample_gote(3, N, seed=N)._dense()
        _, max_elems = tensor._k33_cost(N)
        tensor._k33_index.cache_clear()
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tensor._k33_trace(dense)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * max_elems
        # the price is no loose bound: C_S, C_A and a product are most of it
        n_s, n_a = N * (N + 1) // 2, N * (N - 1) // 2
        assert peaks[1] >= 8 * (2 * n_s**2 + n_a**2)

    def test_bits_do_not_depend_on_blas_threads(self):
        outs = _bits_under_blas_threads(_K33_BITS)
        assert outs[0] == outs[1] and outs[0].startswith("0x")


def _no_contraction(*args, **kwargs):
    raise AssertionError("contracted before the guard")


class TestContractionGuard:
    @pytest.fixture(autouse=True)
    def _nothing_contracts(self, monkeypatch):
        monkeypatch.setattr(tensor, "_k4_trace", _no_contraction)
        monkeypatch.setattr(tensor, "_k33_trace", _no_contraction)
        monkeypatch.setattr(tensor, "_run_steps", _no_contraction)
        monkeypatch.setattr(tensor, "_triangle_tensor", _no_contraction)
        monkeypatch.setattr(tensor.np, "einsum", _no_contraction)

    def test_triangle_tensor_refused_before_contracting(self, monkeypatch):
        # its 4 N^5 FLOP at N = 16, priced before any class of I_6
        T = sample_gote(3, 16, seed=0)
        monkeypatch.setattr(tensor, "_MAX_FLOP", 4 * 16**5 - 1)
        message = r"^the triangle tensor at N=16 .* 4\.19e\+06 FLOP"
        with pytest.raises(ResourceLimitError, match=message):
            balanced_invariant(6, T)

    def test_step_program_refused_before_contracting(self, monkeypatch):
        b = next(rep for rep in _class_maps(3, 4) if rep != _k4())
        _, flop, _ = tensor._class_route(_vertex_edge_ids(b), 16)
        monkeypatch.setattr(tensor, "_MAX_FLOP", flop - 1)
        with pytest.raises(ResourceLimitError, match="FLOP"):
            trace_invariant(b, sample_gote(3, 16, seed=0))

    def test_flop_limit_refuses_before_contracting(self, monkeypatch):
        # the K4 kernel's price at N = 16, about N^5 / 2 + 4 N^4
        monkeypatch.setattr(tensor, "_MAX_FLOP", 5 * 10**5)
        with pytest.raises(ResourceLimitError, match=r"7\.52e\+05 FLOP"):
            trace_invariant(_k4(), sample_gote(3, 16, seed=0))

    def test_k33_flop_limit_refuses_before_contracting(self, monkeypatch):
        # the kernel's slabs and SYRK products at N = 16, one FLOP over the limit
        flop, max_elems = tensor._k33_cost(16)
        assert tensor._class_route(_vertex_edge_ids(_k33()), 16)[1:] == (flop, max_elems)
        T = sample_gote(3, 16, seed=0)
        monkeypatch.setattr(tensor, "_MAX_FLOP", flop - 1)
        with pytest.raises(ResourceLimitError, match=re.escape(f"take {flop:.3g} FLOP")):
            trace_invariant(_k33(), T)
        with pytest.raises(ResourceLimitError, match=re.escape(f"take {flop:.3g} FLOP")):
            balanced_invariant(6, T)

    def test_k33_byte_limit_refuses_before_contracting(self, monkeypatch):
        _, max_elems = tensor._k33_cost(16)
        T = sample_gote(3, 16, seed=0)
        monkeypatch.setattr(tensor, "_MAX_INTERMEDIATE_BYTES", 8 * max_elems - 1)
        message = re.escape(f"hold {8 * max_elems:.3g} bytes at once")
        with pytest.raises(ResourceLimitError, match=message):
            trace_invariant(_k33(), T)

    def test_byte_limit_refuses(self, monkeypatch):
        # admits an N^2 intermediate, not the K4 kernel's peak of its N^3
        # buffer, N^2 arrays and numpy's iterator buffer; the tensor is built
        # first, since the limit also prices its storage
        T = sample_gote(3, 16, seed=0)
        monkeypatch.setattr(tensor, "_MAX_INTERMEDIATE_BYTES", 8 * 16**2)
        with pytest.raises(ResourceLimitError, match=r"hold 1\.13e\+05 bytes at once"):
            trace_invariant(_k4(), T)

    def test_limits_admit_p3_n4_up_to_N200(self, monkeypatch):
        monkeypatch.setattr(tensor, "_PATH_CACHE", {})
        for N in (96, 128, 200):
            for net in _class_nets(3, 4):
                _, flop, max_elems = tensor._class_route(net, N)
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

    def test_k4_refused_at_N288_before_densifying(self):
        # N = 287 is the last the FLOP limit admits; a stand-in tensor: the
        # guard must not need its entries
        assert tensor._k4_cost(287)[0] <= tensor._MAX_FLOP < tensor._k4_cost(288)[0]
        T = types.SimpleNamespace(p=3, N=288, _dense=_no_contraction)
        with pytest.raises(ResourceLimitError, match=r"take 1\.01e\+12 FLOP"):
            trace_invariant(_k4(), T)


class TestExactExpectations:
    @pytest.mark.parametrize("dist", [GAUSSIAN_GOTE, RADEMACHER, UNIFORM, FLAT])
    def test_oracle_equivalence(self, dist):
        cases = [(b, (4, 6, 8)) for b in enumerate_rooted_connected(3, 2)]
        cases += [(rep, (2, 3)) for rep in _class_maps(3, 4)]
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
            for b in _class_maps(p, n):
                coeffs = exact._polynomial(_vertex_edge_ids(b), dist)
                degree = max(k for k, c in enumerate(coeffs) if c)
                assert degree <= bound
                assert (degree == bound) == is_melonic_graph(b)

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


# the class-weighted top coefficient of C_lambda over (p-1)!^{n/2}, lambda != ()
SIGNATURE_TOPS = {
    (2, 4): {(4,): 1},
    (2, 6): {(4,): 6, (6,): 1},
    (2, 8): {(4,): 28, (4, 4): 6, (6,): 8, (8,): 1},
    (3, 4): {(4,): 8},
    (3, 6): {(4,): 72, (6,): 100},
    (4, 4): {(4,): 78},
}


def _signature_tops(p: int, n: int) -> Counter:
    """{(flat, lambda): the class-weighted coefficient of N^bound in
    N^{(n/2)(p-1)} C_{b,lambda} over (p-1)!^{n/2}}, after checking that every
    class has no higher power: bound = 1 + (p-1)(n/2 - sum_{r in lambda}
    (r/2 - 1)), the paper's hypergraph bound graded by lambda.  The invariant
    profile takes every even group size, the flat one pairs only (its one
    law is Gaussian)."""
    tops = Counter()
    for flat, sizes in ((False, tuple(range(2, n + 1, 2))), (True, (2,))):
        for net, count in _trace_classes(p, n):
            counts, _ = exact._group_counts(net, p, flat, sizes)
            for lam, c in counts.items():
                bound = 1 + (p - 1) * (n // 2 - sum(r // 2 - 1 for r in lam))
                assert not any(c[bound + 1 :])
                tops[flat, lam] += Fraction(count * c[bound], math.factorial(p - 1) ** (n // 2))
    return tops


def _inverse_powers(coeffs, p, n, extra):
    """{j: coefficient of N^-j} of coeffs(N) / N^{n(p-1)+extra}."""
    return {n * (p - 1) + extra - k: c for k, c in enumerate(coeffs) if c}


class TestPairingOracle:
    @pytest.mark.parametrize("p, n", [(2, 4), (3, 2), (3, 4), (4, 2), (4, 4)])
    def test_matches_partition_route(self, p, n):
        # under every exact law, the group DP gives the partition route's
        # polynomial in the powers N^k
        dists = (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)
        for b in _class_maps(p, n):
            for dist, falling in zip(dists, trace_polynomial(b, dists)):
                assert list(exact._polynomial(_vertex_edge_ids(b), dist)) == in_powers(falling)

    def test_route_is_chosen_by_the_profile(self):
        # every law takes the group DP; its tables follow the variance
        # profile, never the law: the p! slot bijections at weight 1 for a
        # pair under the invariant profile, and for the 7-edge melon under the
        # flat profile the lattice route, one unmerged term
        pair = ((0, 1, 2), (3, 4, 5))
        (steps,) = exact._group_table(pair, False)
        assert len(steps) == 1 and sorted(w for _, w in steps[0]) == [1] * 6
        assert all(type(w) is int for _, w in steps[0])
        assert exact._table_terms(True, 7, 2, 7) == (426_833, 19_302)
        melon = (tuple(range(7)), tuple(range(7)))
        ((step,),) = exact._group_table(melon, True)
        assert step == (((), 1),)
        # the laws differ through groups of four and more, absent from Gaussians
        assert list(exact._kappas(GAUSSIAN_GOTE, 6)) == [2]
        assert list(exact._kappas(RADEMACHER, 6)) == [2, 4, 6]

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
        # both enumerations give the same identification sets and weights,
        # every weight an int under both variance profiles
        def flat_table(route):
            monkeypatch.setattr(exact, "_table_terms", lambda *args: route)
            table = Counter()
            branches = exact._group_table.__wrapped__(members, dist.flat_profile)
            assert all(type(w) is int for steps in branches for step in steps for _, w in step)
            for steps in branches:
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
        # N^{(n/2)(p-1)} C_{b,lambda} has degree at most (n/2)(p-1) + 1 less
        # (p-1) per power of N each group of lambda costs, and the weighted
        # top coefficient of E[I_n] at lambda = () is F_p(n/2)
        bound = (n // 2) * (p - 1) + 1
        tops = _signature_tops(p, n)
        assert bound == 7 and top == fuss_catalan(p, n // 2)
        assert tops[False, ()] == tops[True, ()] == top
        assert {lam: c for (_, lam), c in tops.items() if lam} == SIGNATURE_TOPS[p, n]

    @pytest.mark.parametrize(
        "p, n", [(2, 2), (2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (4, 2), (5, 2), (6, 2)]
    )
    def test_each_cumulant_group_costs_its_powers_of_n(self, p, n):
        # the bound of the last test at the other sizes the tests reach; a
        # nonzero top coefficient for every lambda means the bound is attained
        tops = _signature_tops(p, n)
        assert tops[False, ()] == tops[True, ()] == fuss_catalan(p, n // 2)
        assert {lam: c for (_, lam), c in tops.items() if lam} == SIGNATURE_TOPS.get((p, n), {})

    def test_odd_vertex_count_has_no_pairing(self):
        assert exact._group_counts([(0, 0)], 2, False, (2,)) == ({}, 0)
        for dist in (GAUSSIAN_GOTE, RADEMACHER):
            assert exact._coefficients({}, 2, 1, dist) == (0, 0)

    def test_laws_of_one_profile_share_the_dp(self, monkeypatch):
        # rademacher and uniform admit the same group sizes, so one run per
        # class serves both; each law weights it by its own cumulants
        runs = []
        group_counts = exact._group_counts

        def recording(verts, p, flat, sizes):
            runs.append((flat, sizes))
            return group_counts(verts, p, flat, sizes)

        monkeypatch.setattr(exact, "_group_counts", recording)
        exact._profile_counts.cache_clear()
        for dist in (RADEMACHER, UNIFORM):
            expected_balanced_invariant(3, 4, 8, dist)
        assert runs == [(False, (2, 4))] * len(_trace_classes(3, 4))

    def test_work_guard_per_route(self, monkeypatch):
        # each table is priced by the cheaper of its two routes
        assert exact._price(3, 6, GAUSSIAN_GOTE) == 3810
        assert exact._price(3, 6, RADEMACHER) == 52_034
        assert exact._price(7, 2, FLAT) == 19_302 < exact._table_terms(True, 7, 2, 7)[0]
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
        coeffs = exact._variance_polynomial(p, n, GAUSSIAN_GOTE)
        assert _inverse_powers(coeffs, p, n, 2) == inverse_powers

    def test_variance_i2_matches_disjoint_union_reference(self):
        for dist in (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM):
            for N in (2, 3, 16):
                assert balanced_invariant_variance(3, 2, N, dist) / N**2 == (
                    exact_i2_variance(N, dist)
                )
        assert balanced_invariant_variance(3, 0, 8, GAUSSIAN_GOTE) == 0

    def test_variance_refused_before_any_map(self, monkeypatch):
        monkeypatch.setattr(exact, "_trace_classes", _no_contraction)
        for p, n, dist, terms in [
            (3, 4, RADEMACHER, 10_744_714),
            (3, 4, UNIFORM, 10_744_714),
            (3, 4, FLAT, 7_320_432),
            (5, 2, RADEMACHER, 4_497_708),
        ]:
            with pytest.raises(ResourceLimitError, match=rf"^{terms} oracle terms"):
                balanced_invariant_variance(p, n, 8, dist)
        with pytest.raises(ContractViolation, match="no exact moment"):
            balanced_invariant_variance(3, 2, 8, EntryDistribution("symmetrized-pareto", 3.0))

    def test_variance_runs_the_dp_on_unions_only(self, monkeypatch):
        # one DP per (vertices, profile, group sizes) is cached: the mean's
        # per class, shared at n = 2 by the three laws of the invariant
        # profile, and the variance's per unordered class pair, on its
        # disjoint union, shared by rademacher and uniform; the union's
        # polynomial is the partition route's
        p, n = 4, 2
        dists = (GAUSSIAN_GOTE, FLAT, RADEMACHER, UNIFORM)
        runs = []
        group_counts = exact._group_counts

        def recording(verts, p, flat, sizes):
            counts, terms = group_counts(verts, p, flat, sizes)
            runs.append((len(verts), flat, sizes, counts))
            return counts, terms

        def profile(dist, n):
            return dist.flat_profile, tuple(exact._kappas(dist, n))

        monkeypatch.setattr(exact, "_group_counts", recording)
        exact._profile_counts.cache_clear()
        classes = _class_maps(p, n)
        pairs = [(b, d) for i, b in enumerate(classes) for d in classes[i:]]
        unions = []
        cached = set()
        union_counts = {}
        for dist in dists:
            expected_balanced_invariant(p, n, 8, dist)
            new = profile(dist, n) not in cached
            cached.add(profile(dist, n))
            assert [run[:3] for run in runs] == [(n, *profile(dist, n))] * len(classes) * new
            runs.clear()
            balanced_invariant_variance(p, n, 8, dist)
            new = profile(dist, 2 * n) not in union_counts
            assert [run[:3] for run in runs] == [(2 * n, *profile(dist, 2 * n))] * len(pairs) * new
            counts = union_counts.setdefault(profile(dist, 2 * n), [run[3] for run in runs])
            unions.append([exact._coefficients(c, p, 2 * n, dist) for c in counts])
            runs.clear()
        assert len(cached) == 2 and len(union_counts) == 3
        for i, (b, d) in enumerate(pairs):
            for per_law, falling in zip(unions, trace_polynomial(_disjoint_union(b, d), dists)):
                assert list(per_law[i]) == in_powers(falling)


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
