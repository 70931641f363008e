import itertools
import re

import pytest

from melonic.counting import count_columns, count_melonic_maps, count_rooted_maps, fuss_catalan
from melonic.errors import ContractViolation, ResourceLimitError
from melonic.hypergraph import is_melonic_graph
from melonic import counting, maps
from melonic.maps import enumerate_rooted_connected, rooted_connected

from conftest import (
    DyckPath,
    InvalidPathError,
    PlaneHypertree,
    dyck_from_hypertree,
    enumerate_dyck_paths,
    fuss_catalan_alt,
    generating_series_check,
    hypertree_from_dyck,
)


def naive_noncrossing_div(m, d):
    """All set partitions of range(m), kept when non-crossing with block
    sizes divisible by d.  Restricted-growth generation, pairwise crossing
    test."""

    def partitions(mm):
        rgs = [0] * mm

        def rec(i, nb):
            if i == mm:
                blocks = [[] for _ in range(nb)]
                for e, k in enumerate(rgs):
                    blocks[k].append(e)
                yield [tuple(b) for b in blocks]
                return
            for k in range(nb + 1):
                rgs[i] = k
                yield from rec(i + 1, max(nb, k + 1))

        yield from rec(0, 0)

    def crossing(blocks):
        for b1, b2 in itertools.combinations(blocks, 2):
            for a, c in itertools.combinations(b1, 2):
                if any(a < x < c for x in b2) and any(x < a or x > c for x in b2):
                    return True
        return False

    out = []
    for blocks in partitions(m):
        if all(len(b) % d == 0 for b in blocks) and not crossing(blocks):
            out.append(frozenset(blocks))
    return set(out)


class TestFussCatalan:
    def test_catalan_row(self):
        assert [fuss_catalan(2, k) for k in range(5)] == [1, 1, 2, 5, 14]

    def test_order_three_row(self):
        assert [fuss_catalan(3, k) for k in range(1, 6)] == [1, 3, 12, 55, 273]

    def test_unit_at_zero(self):
        for p in range(2, 7):
            assert fuss_catalan(p, 0) == 1

    def test_both_closed_forms_agree(self):
        for p in range(2, 7):
            for k in range(13):
                assert fuss_catalan(p, k) == fuss_catalan_alt(p, k)

    def test_preconditions(self):
        with pytest.raises(ContractViolation):
            fuss_catalan(1, 3)
        with pytest.raises(ContractViolation):
            fuss_catalan(3, -1)


class TestDyck:
    def test_trivial_and_reference_counts(self):
        assert count_columns(3, 0)[0][-1] == 1
        assert count_columns(3, 2)[0][-1] == 3
        assert count_columns(2, 3)[0][-1] == 5

    def test_exhaustive_listing_p3_n2(self):
        paths = {d.steps for d in enumerate_dyck_paths(3, 2)}
        assert paths == {
            (1, 1, -2, 1, 1, -2),
            (1, 1, 1, -2, 1, -2),
            (1, 1, 1, 1, -2, -2),
        }

    def test_count_equals_closed_form(self):
        for p in (2, 3, 4):
            for n in range(6):
                assert count_columns(p, n)[0][-1] == fuss_catalan(p, n)
                assert sum(1 for _ in enumerate_dyck_paths(p, n)) == fuss_catalan(p, n)

    def test_path_validation(self):
        with pytest.raises(InvalidPathError):
            DyckPath((1, -2, 1, 1, 1, -2), 3)  # dips negative
        with pytest.raises(InvalidPathError):
            DyckPath((1, 1, 1), 3)  # does not close
        with pytest.raises(InvalidPathError):
            DyckPath((1, -1, 1), 2)


class TestHypertreeBijection:
    def test_empty_objects(self):
        empty = PlaneHypertree(3)
        path = dyck_from_hypertree(empty)
        assert path.steps == ()
        assert hypertree_from_dyck(path) == empty

    def test_single_hyperedge(self):
        leaf = PlaneHypertree(3)
        tree = PlaneHypertree(3, ((leaf, leaf),))
        assert dyck_from_hypertree(tree).steps == (1, 1, -2)
        assert hypertree_from_dyck(DyckPath((1, 1, -2), 3)) == tree

    @pytest.mark.parametrize("p,nmax", [(3, 4), (2, 5)])
    def test_roundtrip_exhaustive(self, p, nmax):
        for n in range(nmax + 1):
            trees = set()
            for d in enumerate_dyck_paths(p, n):
                t = hypertree_from_dyck(d)
                assert t.num_edges() == n
                assert dyck_from_hypertree(t) == d
                trees.add(t)
            assert len(trees) == fuss_catalan(p, n)

    def test_malformed_path_rejected(self):
        with pytest.raises(InvalidPathError):
            hypertree_from_dyck(DyckPath((1, 1, -2), 4))


class TestNonCrossing:
    def test_reference_counts(self):
        assert count_columns(2, 0)[1][-1] == 1
        assert count_columns(2, 3)[1][-1] == 5
        assert count_columns(3, 2)[1][-1] == 3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_naive_filter(self, d):
        # the noncrossing column at n covers n(p-1) points with d = p-1
        for m in range(0, 8, d):
            assert count_columns(d + 1, m // d)[1][-1] == len(naive_noncrossing_div(m, d))

    def test_matches_closed_form(self):
        for p in range(2, 7):
            for n in range(13):
                assert count_columns(p, n)[1][-1] == fuss_catalan(p, n)
        assert count_columns(3, 12)[1][-1] == 50_067_108


class TestMelonicCounts:
    def test_values(self):
        assert count_melonic_maps(3, 0) == 1
        assert count_melonic_maps(3, 1) == 2
        assert count_melonic_maps(3, 2) == 12
        assert count_melonic_maps(4, 1) == 6

    def test_matches_enumeration(self):
        for p, n in [(3, 1), (3, 2), (4, 1), (4, 2)]:
            melonic = sum(
                is_melonic_graph(b) for b in enumerate_rooted_connected(p, 2 * n)
            )
            assert melonic == count_melonic_maps(p, n)

    def test_p2_rejected(self):
        with pytest.raises(ContractViolation):
            count_melonic_maps(2, 3)


class TestRootedMapCounts:
    @pytest.mark.parametrize(
        "p, n",
        [(2, n) for n in range(1, 11)]
        + [(3, n) for n in range(1, 7)]
        + [(4, n) for n in range(1, 5)]
        + [(5, 2), (6, 2)],
    )
    def test_matches_enumeration(self, p, n):
        assert count_rooted_maps(p, n) == len(rooted_connected(p, n))

    def test_sizes_beyond_the_map_budget_without_enumerating(self, monkeypatch):
        def no_construction(p, n):
            raise AssertionError("maps enumerated")

        monkeypatch.setattr(maps, "_canonical_sigma", no_construction)
        sizes = [(3, 8), (4, 5), (5, 4), (4, 6), (8, 2)]
        assert [count_rooted_maps(p, n) for p, n in sizes] == [
            27_120, 100_278, 869_400, 2_450_304, 252_000
        ]

    def test_domain(self):
        with pytest.raises(ContractViolation, match="p must be at least 2"):
            count_rooted_maps(1, 2)
        with pytest.raises(ContractViolation, match="n must be at least 1"):
            count_rooted_maps(3, 0)


class TestCountColumns:
    """Both columns of the count table come from one excursion DP each."""

    @pytest.mark.parametrize("p", range(2, 7))
    def test_rows_are_fuss_catalan(self, p):
        dyck, noncrossing = counting.count_columns(p, 12)
        assert dyck == noncrossing == [fuss_catalan(p, n) for n in range(13)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_prefix_is_its_own_table(self, p):
        # a column to n_max holds the rows of every shorter table
        full = counting.count_columns(p, 9)
        for m in range(10):
            assert counting.count_columns(p, m) == (full[0][: m + 1], full[1][: m + 1])

    def test_shorter_lengths_are_exact(self):
        # Motzkin-like steps: brute force over every step sequence
        steps = (-1, 0, 2)
        got = counting._excursions(7, steps)
        for k in range(8):
            walks = 0
            for seq in itertools.product(steps, repeat=k):
                heights = list(itertools.accumulate(seq))
                walks += all(h >= 0 for h in heights) and (not heights or heights[-1] == 0)
            assert got[k] == walks

    def test_no_rows_below_zero(self):
        assert counting.count_columns(3, -1) == ([], [])
        with pytest.raises(ContractViolation):
            counting.count_columns(1, 2)


class TestCountTableGuard:
    """The count table is priced by the (height, step) pairs its two
    excursion DPs visit."""

    @staticmethod
    def dp_pairs(length, steps):
        # the DP keeps heights 0..min(left * fall, top + max step) each step
        fall, heights, pairs = -min(steps), 1, 0
        for left in range(length - 1, -1, -1):
            pairs += heights * len(steps)
            heights = min(left * fall, heights - 1 + max(steps)) + 1
        return pairs

    @pytest.mark.parametrize("p, m", [(2, 7), (3, 12), (4, 9), (5, 4), (8, 3)])
    def test_closed_form_is_the_row_sum_and_bounds_the_dp(self, monkeypatch, p, m):
        # each DP row, ``left`` steps to go, keeps at most (left + 1) * fall + 1
        # heights; the guard's closed form is the sum of these rows over both
        # passes, and the pairs the DPs visit stay below it
        d = p - 1
        bound = visited = 0
        for length, steps in [(m * p, (1, -d)), (m * d, (-1, *range(d - 1, m * d, d)))]:
            fall = -min(steps)
            bound += sum(len(steps) * ((left + 1) * fall + 1) for left in range(length))
            visited += self.dp_pairs(length, steps)
        assert visited <= bound
        monkeypatch.setattr(counting, "_COUNT_TABLE_GUARD", bound)
        counting._check_count_table(p, m)
        monkeypatch.setattr(counting, "_COUNT_TABLE_GUARD", bound - 1)
        with pytest.raises(ResourceLimitError, match=re.escape(f"about {bound:.3g} big-integer")):
            counting._check_count_table(p, m)

    def test_admits_n200_and_refuses_n300_at_p3(self):
        counting._check_count_table(3, 200)
        with pytest.raises(ResourceLimitError, match=r"5\.61e\+07 big-integer additions"):
            counting._check_count_table(3, 300)


class TestGeneratingSeries:
    def test_fixed_point_equation(self):
        for p in (2, 3, 5):
            assert generating_series_check(p, 6)

    def test_higher_order(self):
        assert generating_series_check(4, 10)

    def test_order_precondition(self):
        with pytest.raises(ContractViolation):
            generating_series_check(3, 0)
