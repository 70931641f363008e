import pytest

from melonic.errors import ContractViolation
from melonic.hypergraph import (
    Hypergraph,
    _incidence,
    euler_deficiency,
    hypergraph_of,
    is_double_hypertree,
    is_hypertree,
    is_melonic_graph,
    melonic_partition,
)
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Permutation,
    dual,
    edge_list,
    enumerate_rooted_connected,
    merge_edges,
)

from conftest import (
    canonical_sigma,
    enumerate_edge_partitions,
    has_cycle_by_failed_union,
    is_connected_incidence,
)


def melon_map():
    return CombinatorialMap(
        3, Permutation([1, 2, 0, 4, 5, 3]), Permutation([3, 4, 5, 0, 1, 2]), 0
    )


def tau1_map():
    return CombinatorialMap(
        3, Permutation([1, 2, 0, 4, 5, 3]), Permutation([2, 3, 0, 1, 5, 4]), 0
    )


def four_vertex_melonic():
    """Two melon pairs: v3~v4 doubly joined with legs to v1, v2, which are
    themselves doubly joined; folding merges the two bridge edges."""
    sigma = canonical_sigma(3, 4)
    image = list(range(12))
    for a, b in [(0, 3), (1, 4), (2, 6), (7, 9), (8, 10), (5, 11)]:
        image[a] = b
        image[b] = a
    return CombinatorialMap(3, sigma, Permutation(image), root=0)


def brute_force_partitions(b):
    m = len(edge_list(b))
    return [
        pi
        for pi in enumerate_edge_partitions(m)
        if is_double_hypertree(hypergraph_of(dual(merge_edges(b, pi))))
    ]


class TestHypergraphOf:
    def test_melon_dual_is_smallest_double_hypertree(self):
        h = hypergraph_of(dual(melon_map()))
        assert h.num_vertices == 3
        assert h.edges == ((0, 1, 2),)
        assert h.mult == (2,)
        assert is_double_hypertree(h)

    def test_single_vertex_loops(self):
        b = CombinatorialMap(4, Permutation([1, 2, 3, 0]), Permutation([1, 0, 3, 2]), 0)
        h = hypergraph_of(b)
        assert h.num_vertices == 1
        assert h.edges == ((0, 0),) and h.mult == (2,)

    def test_collapse_needs_equal_multisets(self):
        h = hypergraph_of(dual(tau1_map()))
        # vertex cycles (0,1,2) and (3,4,5) give hyperedges {e0,e0,e1}, {e1,e2,e2}
        assert h.edges == ((0, 0, 1), (1, 2, 2))
        assert h.mult == (1, 1)


class TestCycles:
    def test_inner_multiplicity_is_a_cycle(self):
        assert _incidence(Hypergraph(2, [(0, 0, 1)]))[0]

    def test_two_edges_sharing_two_vertices(self):
        assert _incidence(Hypergraph(4, [(0, 1, 2), (0, 1, 3)]))[0]

    def test_tree_is_acyclic(self):
        assert not _incidence(Hypergraph(5, [(0, 1, 2), (2, 3, 4)]))[0]

    def test_outer_multiplicity_ignored(self):
        assert not _incidence(Hypergraph(3, [(0, 1, 2)], [2]))[0]


class TestHypertrees:
    def test_single_edge(self):
        assert is_hypertree(Hypergraph(3, [(0, 1, 2)]))

    def test_two_edge_path(self):
        assert is_hypertree(Hypergraph(5, [(0, 1, 2), (2, 3, 4)]))

    def test_triangle_fails(self):
        assert not is_hypertree(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_disconnected_fails(self):
        assert not is_hypertree(Hypergraph(6, [(0, 1, 2), (3, 4, 5)]))

    def test_requires_simple(self):
        with pytest.raises(ContractViolation):
            is_hypertree(Hypergraph(3, [(0, 1, 2)], [2]))

    def test_double_hypertree_flags(self):
        good = Hypergraph(5, [(0, 1, 2), (2, 3, 4)], [2, 2])
        assert is_double_hypertree(good)
        assert not is_double_hypertree(Hypergraph(5, [(0, 1, 2), (2, 3, 4)], [2, 1]))
        assert not is_double_hypertree(Hypergraph(4, [(0, 1, 2), (1, 2, 3)], [2, 2]))


class TestEulerDeficiency:
    def test_hypertrees_are_tight(self):
        assert euler_deficiency(Hypergraph(3, [(0, 1, 2)]), 3) == 0
        assert euler_deficiency(Hypergraph(5, [(0, 1, 2), (2, 3, 4)]), 3) == 0

    def test_shared_pair(self):
        h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        assert euler_deficiency(h, 3) == 1 - 4 + 2 * 2

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            euler_deficiency(Hypergraph(6, [(0, 1, 2), (3, 4, 5)]), 3)
        with pytest.raises(ContractViolation):
            euler_deficiency(Hypergraph(4, [(0, 1, 2), (2, 3)]), 3)

    def test_nonnegative_zero_iff_hypertree_on_duals(self):
        for p, n in [(3, 2), (3, 4), (4, 2)]:
            for b in enumerate_rooted_connected(p, n):
                h = hypergraph_of(dual(b)).reduced()
                d = euler_deficiency(h, p)
                assert d >= 0
                assert (d == 0) == is_hypertree(h)


def two_copies(h):
    """The disjoint union of h with a shifted copy of itself."""
    nv = h.num_vertices
    shifted = [tuple(v + nv for v in e) for e in h.edges]
    return Hypergraph(2 * nv, list(h.edges) + shifted, h.mult * 2)


def folded_duals(p, n):
    """H(dual(b_pi)) for every map b of B_n^(p) and every edge partition pi."""
    for b in enumerate_rooted_connected(p, n):
        for pi in enumerate_edge_partitions(len(edge_list(b))):
            yield hypergraph_of(dual(merge_edges(b, pi)))


class TestOnePassMatchesReferences:
    def check(self, g):
        """Cycles, hypertree and deficiency of g against the references;
        connectivity shows in whether euler_deficiency refuses."""
        cyclic = has_cycle_by_failed_union(g)
        assert _incidence(g)[0] == cyclic
        if not g.is_simple():
            with pytest.raises(ContractViolation):
                is_hypertree(g)
            g = g.reduced()  # the same incidence multigraph
        connected = is_connected_incidence(g)
        assert is_hypertree(g) == (connected and not cyclic)
        if connected:
            assert euler_deficiency(g, 3) == 1 - g.num_vertices + 2 * len(g.edges)
        else:
            with pytest.raises(ContractViolation):
                euler_deficiency(g, 3)

    @pytest.mark.parametrize("n", [2, 4])
    def test_folded_duals_reduced_or_not(self, n):
        for h in folded_duals(3, n):
            self.check(h)

    def test_two_folded_duals_side_by_side(self):
        for h in folded_duals(3, 2):
            self.check(two_copies(h.reduced()))

    def test_at_most_one_node_is_connected(self):
        for g in (Hypergraph(0, []), Hypergraph(1, [])):
            assert is_connected_incidence(g) and _incidence(g)[1] <= 1
            assert is_hypertree(g) and not _incidence(g)[0]
        assert not is_hypertree(Hypergraph(2, []))


class TestFoldedFourVertexMap:
    def test_partition_merges_the_two_bridges(self):
        b = four_vertex_melonic()
        assert edge_list(b) == [(0, 3), (1, 4), (2, 6), (5, 11), (7, 9), (8, 10)]
        pi = melonic_partition(b)
        assert pi == EdgePartition([(0,), (1,), (2, 3), (4,), (5,)])

    def test_folded_dual_shape(self):
        b = four_vertex_melonic()
        h = hypergraph_of(dual(merge_edges(b, melonic_partition(b))))
        assert h.num_vertices == 5
        assert len(h.edges) == 2 and all(m == 2 for m in h.mult)
        assert is_double_hypertree(h)
        assert is_hypertree(h.reduced())

    def test_unfolded_dual(self):
        b = four_vertex_melonic()
        h = hypergraph_of(dual(b))
        assert h.num_vertices == 6 and len(h.edges) == 4
        assert euler_deficiency(h.reduced(), 3) == 1 - 6 + 2 * 4

    def test_recursive_detector(self):
        assert is_melonic_graph(four_vertex_melonic())


class TestMelonicDetectors:
    def test_melon(self):
        b = melon_map()
        assert is_melonic_graph(b)
        assert melonic_partition(b) == EdgePartition([(0,), (1,), (2,)])

    def test_tau1_not_melonic(self):
        assert not is_melonic_graph(tau1_map())
        assert melonic_partition(tau1_map()) is None

    def test_p2_unsupported(self):
        b = enumerate_rooted_connected(2, 3)[0]
        with pytest.raises(ContractViolation):
            melonic_partition(b)
        with pytest.raises(ContractViolation):
            is_melonic_graph(b)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (4, 1), (4, 2), (4, 3)])
    def test_agreement_with_exhaustive_partition_search(self, p, n):
        for b in enumerate_rooted_connected(p, n):
            hits = brute_force_partitions(b)
            assert len(hits) <= 1  # uniqueness of the folding partition
            pi = melonic_partition(b)
            assert (pi is not None) == bool(hits) == is_melonic_graph(b)
            if hits:
                assert pi == hits[0]

    def test_detectors_agree_on_all_four_valent_four_vertex_maps(self):
        # 4896 classes; closed-form melonic count F_4(2) * (3!)^2 = 144
        maps = enumerate_rooted_connected(4, 4)
        assert len(maps) == 4896
        melonic = 0
        for b in maps:
            flag = is_melonic_graph(b)
            assert flag == (melonic_partition(b) is not None)
            melonic += flag
        assert melonic == 144

    def test_melonic_needs_even_vertex_count(self):
        for b in enumerate_rooted_connected(4, 3):
            assert not is_melonic_graph(b)

    def test_melonic_counts(self):
        counts = {}
        for p, n in [(3, 2), (3, 4), (4, 2)]:
            counts[(p, n)] = sum(
                is_melonic_graph(b) for b in enumerate_rooted_connected(p, n)
            )
        assert counts == {(3, 2): 2, (3, 4): 12, (4, 2): 6}
