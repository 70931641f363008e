import json

import pytest

from melonic.errors import ContractViolation, InvalidPartitionError
from melonic.maps import (
    CombinatorialMap,
    EdgePartition,
    Hypermap,
    Permutation,
    canonical_code,
    cycles,
    dual,
    enumerate_rooted_connected,
    map_to_json,
    merge_edges,
)

from conftest import (
    brute_force_codes,
    canonical_sigma,
    conjugate,
    enumerate_edge_partitions,
    enumerate_rooted_connected_with_undo_log,
    inverse,
    is_connected,
    random_permutation,
    relabel,
)

SIGMA_32 = Permutation([1, 2, 0, 4, 5, 3])  # (0,1,2)(3,4,5)
# the reference matchings on two 3-valent vertices, 0-based halfedges
TAU_1 = Permutation([2, 3, 0, 1, 5, 4])  # (0,2)(1,3)(4,5)
TAU_2 = Permutation([3, 2, 1, 0, 5, 4])  # (0,3)(1,2)(4,5)
TAU_3 = Permutation([1, 0, 3, 2, 5, 4])  # (0,1)(2,3)(4,5)
MELON_TAU = Permutation([3, 4, 5, 0, 1, 2])  # (0,3)(1,4)(2,5)


def _map32(tau):
    return CombinatorialMap(3, SIGMA_32, tau, root=0)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ContractViolation):
            Permutation([0, 0, 1])
        with pytest.raises(ContractViolation):
            Permutation([0, 3])

    def test_inverse_and_conjugate(self, rng):
        for _ in range(20):
            g = random_permutation(rng, 7)
            h = random_permutation(rng, 7)
            assert conjugate(g, h).image == tuple(
                h(g(inverse(h)(x))) for x in range(7)
            )
            assert all(inverse(g)(g(x)) == x for x in range(7))


class TestCycles:
    def test_identity_fixed_points(self):
        assert cycles(Permutation([0, 1, 2])) == [(0,), (1,), (2,)]

    def test_two_three_cycles(self):
        assert cycles(SIGMA_32) == [(0, 1, 2), (3, 4, 5)]

    def test_tau1_three_transpositions(self):
        assert cycles(TAU_1) == [(0, 2), (1, 3), (4, 5)]


class TestDual:
    def test_involution(self):
        for b in enumerate_rooted_connected(3, 2):
            d = dual(b)
            assert d.sigma == b.tau and d.tau == b.sigma
            assert dual(d) == Hypermap(b.sigma, b.tau, b.root)

    def test_regularity_swaps_with_uniformity(self):
        # dual of a 3-regular 2-uniform map is 2-regular and 3-uniform
        b = _map32(MELON_TAU)
        d = dual(b)
        assert sorted(len(c) for c in cycles(d.sigma)) == [2, 2, 2]
        assert sorted(len(c) for c in cycles(d.tau)) == [3, 3]


class TestMergeEdges:
    def test_singletons_is_identity(self):
        b = _map32(TAU_1)
        merged = merge_edges(b, EdgePartition([(0,), (1,), (2,)]))
        assert merged.tau == b.tau and merged.sigma == b.sigma

    def test_full_merge_single_cycle(self):
        b = _map32(TAU_1)
        merged = merge_edges(b, EdgePartition([(0, 1, 2)]))
        assert sorted(len(c) for c in cycles(merged.tau)) == [6]

    def test_invalid_partition_rejected(self):
        b = _map32(TAU_1)
        with pytest.raises(InvalidPartitionError):
            merge_edges(b, EdgePartition([(0, 1)], m=2))
        with pytest.raises(InvalidPartitionError):
            EdgePartition([(0, 1), (1, 2)])
        with pytest.raises(InvalidPartitionError):
            EdgePartition([(0,), (2,)])


class TestConnectivity:
    def test_melon_connected(self):
        assert is_connected(_map32(MELON_TAU))

    def test_disjoint_union_disconnected(self):
        sigma = canonical_sigma(3, 4)
        image = list(range(12))
        for a, b in [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]:
            image[a] = b
            image[b] = a
        two_melons = CombinatorialMap(3, sigma, Permutation(image), root=0)
        assert not is_connected(two_melons)

    def test_single_vertex_loops(self):
        b = CombinatorialMap(4, Permutation([1, 2, 3, 0]), Permutation([1, 0, 3, 2]), 0)
        assert is_connected(b)


class TestCanonicalCode:
    def test_relabelling_invariance(self, rng):
        maps = list(enumerate_rooted_connected(3, 2)) + list(
            enumerate_rooted_connected(4, 1)
        )
        for b in maps:
            base = canonical_code(b)
            for _ in range(100):
                theta = random_permutation(rng, b.size)
                assert canonical_code(relabel(b, theta)) == base

    def test_reference_maps_distinct(self):
        codes = {canonical_code(_map32(t)) for t in (TAU_1, TAU_2, TAU_3)}
        assert len(codes) == 3
        enumerated = {canonical_code(b) for b in enumerate_rooted_connected(3, 2)}
        assert codes <= enumerated
        assert len(enumerated) == 5

    def test_requires_root_and_connectivity(self):
        b = CombinatorialMap(3, SIGMA_32, TAU_1, root=None)
        with pytest.raises(ContractViolation):
            canonical_code(b)
        sigma = canonical_sigma(3, 4)
        image = list(range(12))
        for a, c in [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]:
            image[a] = c
            image[c] = a
        with pytest.raises(ContractViolation):
            canonical_code(CombinatorialMap(3, sigma, Permutation(image), root=0))


class TestEnumeration:
    def test_reference_counts(self):
        assert len(enumerate_rooted_connected(3, 2)) == 5
        assert enumerate_rooted_connected(3, 1) == []
        assert enumerate_rooted_connected(3, 3) == []
        for n in range(2, 9):
            assert len(enumerate_rooted_connected(2, n)) == 1
        assert len(enumerate_rooted_connected(4, 1)) == 3
        assert len(enumerate_rooted_connected(4, 2)) == 24
        assert len(enumerate_rooted_connected(3, 4)) == 60

    def test_map_invariants(self):
        for p, n in [(3, 2), (4, 2), (3, 4), (2, 5)]:
            for b in enumerate_rooted_connected(p, n):
                assert b.root == 0
                assert b.tau.is_involution() and not b.tau.has_fixed_point()
                assert all(len(c) == p for c in cycles(b.sigma))
                assert is_connected(b)

    def test_sorted_by_code_and_distinct(self):
        maps = enumerate_rooted_connected(3, 4)
        codes = [canonical_code(b) for b in maps]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize(
        "p,n", [(3, 2), (4, 1), (4, 2), (2, 3), (2, 4), (3, 4), (2, 6), (4, 3), (5, 2), (6, 2)]
    )
    def test_matches_bruteforce_matching_enumeration(self, p, n):
        expected = brute_force_codes(p, n)
        got = {canonical_code(b) for b in enumerate_rooted_connected(p, n)}
        assert got == expected

    @pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (4, 4), (5, 2), (6, 2)])
    def test_same_list_as_undo_log_reference(self, p, n):
        # same maps in the same order, not only the same classes
        assert enumerate_rooted_connected(p, n) == enumerate_rooted_connected_with_undo_log(p, n)

    def test_preconditions(self):
        with pytest.raises(ContractViolation):
            enumerate_rooted_connected(1, 2)
        with pytest.raises(ContractViolation):
            enumerate_rooted_connected(3, 0)


class TestEdgePartitions:
    BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}

    def test_bell_counts_and_uniqueness(self):
        for m, bell in self.BELL.items():
            parts = list(enumerate_edge_partitions(m))
            assert len(parts) == bell
            assert len(set(parts)) == bell
            for pi in parts:
                assert sorted(e for blk in pi for e in blk) == list(range(m))

    def test_block_count_distribution_m4(self):
        # Stirling numbers of the second kind for m=4: 1, 7, 6, 1
        from collections import Counter

        counts = Counter(len(pi) for pi in enumerate_edge_partitions(4))
        assert counts == {1: 1, 2: 7, 3: 6, 4: 1}


def map_from_json(obj: dict | str) -> CombinatorialMap:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return CombinatorialMap(
        obj["p"], Permutation(obj["sigma"]), Permutation(obj["tau"]), obj.get("root")
    )


def test_json_roundtrip():
    for b in enumerate_rooted_connected(3, 2):
        obj = map_to_json(b)
        back = map_from_json(obj)
        assert back == b
        assert set(obj) == {"p", "n", "sigma", "tau", "root"}
