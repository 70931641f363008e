import math
from fractions import Fraction

import numpy as np
import pytest

from melonic.counting import count_melonic_maps, count_rooted_maps, fuss_catalan
from melonic import exact, experiments, maps, tensor
from melonic.errors import ContractViolation, DomainError, ResourceLimitError
from melonic.hypergraph import is_melonic_graph
from melonic.maps import rooted_connected
from melonic.exact import (
    GAUSSIAN_GOTE,
    EntryDistribution,
    ExperimentConfig,
    melonic_limit_table,
)
from melonic.experiments import (
    heavy_tail_moments,
    mc_moments,
    resolvent_crosscheck,
    sample_invariants,
    variance_scaling,
)
from melonic.tensor import SymTensor, balanced_invariant, contract, sample_wigner

from conftest import exact_i2_variance, expected_trace_partitions

FLAT = EntryDistribution("gaussian-offdiag-only")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(N_grid=(32, 16))
        with pytest.raises(ContractViolation):
            ExperimentConfig(N_grid=())
        with pytest.raises(ContractViolation):
            ExperimentConfig(samples=1)
        with pytest.raises(ContractViolation):
            ExperimentConfig(fmt="yaml")

    def test_from_json_accepts_dist_string(self):
        cfg = ExperimentConfig.from_json(
            {"p": 3, "n_max": 2, "N_grid": [8, 16], "samples": 4, "seed": 7,
             "dist": "rademacher", "format": "json"}
        )
        assert cfg.dist.kind == "rademacher" and cfg.fmt == "json"


class TestMonteCarloEngine:
    def test_deterministic_and_thread_invariant(self):
        base = ExperimentConfig(p=3, n_max=2, N_grid=(8, 16), samples=16, seed=5)
        again = ExperimentConfig(p=3, n_max=2, N_grid=(8, 16), samples=16, seed=5)
        assert mc_moments(base) == mc_moments(again)

    def test_odd_degree_rows_vanish(self):
        rows = mc_moments(ExperimentConfig(p=3, n_max=2, N_grid=(8,), samples=8, seed=1))
        odd = [r for r in rows if r.n == 1]
        assert all(r.mean == 0.0 and r.target == 0.0 for r in odd)

    def test_stderr_shrinks_with_samples(self):
        small = mc_moments(
            ExperimentConfig(p=3, n_max=2, N_grid=(20,), samples=100, seed=3)
        )
        big = mc_moments(
            ExperimentConfig(p=3, n_max=2, N_grid=(20,), samples=200, seed=3)
        )
        ratio = small[1].stderr / big[1].stderr
        assert math.sqrt(2) * 0.8 < ratio < math.sqrt(2) * 1.2

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError):
            mc_moments(ExperimentConfig(p=3, n_max=8, N_grid=(8,), samples=4, seed=1))

    def test_classical_wigner_fourth_moment(self):
        # p=2, N=100: the sample mean of I_4/N matches the exact finite-N
        # expectation, which itself sits 5/N above the limiting Catalan
        # number 2 (the finite-size shift is much larger than the Monte
        # Carlo resolution, so the limit is only approached, never asserted)
        from melonic.exact import expected_balanced_invariant

        rows = mc_moments(
            ExperimentConfig(p=2, n_max=4, N_grid=(100,), samples=100, seed=8)
        )
        r = next(r for r in rows if r.n == 4)
        oracle = expected_balanced_invariant(2, 4, 100, GAUSSIAN_GOTE) / 100
        assert oracle == 2 + Fraction(5, 100) + Fraction(5, 100**2)
        assert abs(r.mean - float(oracle)) <= 3 * r.stderr


class TestVarianceScaling:
    def test_grid_preconditions(self):
        with pytest.raises(ContractViolation):
            variance_scaling(ExperimentConfig(p=3, n_max=2, N_grid=(16,), samples=8))
        with pytest.raises(ContractViolation):
            variance_scaling(
                ExperimentConfig(p=3, n_max=2, N_grid=(16, 24), samples=8)
            )

    def test_quick_slope(self):
        # the variance bound is O(1/N^2); the measured p=3 decay is in fact
        # close to 1/N^3 at desk sizes, so assert the bound-side only
        res = variance_scaling(
            ExperimentConfig(p=3, n_max=2, N_grid=(8, 16, 32), samples=120, seed=2)
        )
        assert len(res.rows) == 3
        assert all(v > 0 for _, v in res.rows)
        assert -4.5 < res.slope < -1.8

    def test_matrix_case_slope_is_classical(self):
        res = variance_scaling(
            ExperimentConfig(p=2, n_max=2, N_grid=(16, 32, 64), samples=300, seed=1)
        )
        assert -2.8 < res.slope < -1.2

    def test_no_map_is_refused_before_sampling(self, monkeypatch):
        # I_n is constant when no map has n vertices: every sample variance
        # would be 0 and its logarithm -inf
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the check")

        monkeypatch.setattr(experiments, "sample_invariants", no_sampling)
        for p, n in [(3, 7), (5, 1), (3, 0)]:
            with pytest.raises(ContractViolation, match=rf"no map has p={p} and n={n}"):
                variance_scaling(ExperimentConfig(p=p, n_max=n, N_grid=(4, 8), samples=4))

    def test_even_pn_keeps_its_slope(self):
        res = variance_scaling(ExperimentConfig(p=4, n_max=3, N_grid=(4, 8), samples=8))
        assert all(v > 0 for _, v in res.rows) and math.isfinite(res.slope)


class TestExactVarianceOracle:
    """E[Tr_b Tr_d] equals the expected trace of the disjoint union of the
    two maps, so the population variance of I_2/N has an exact rational
    expression; the Monte Carlo engine must reproduce it."""

    def test_mc_variance_matches_exact(self):
        N = 16
        exact = float(exact_i2_variance(N, GAUSSIAN_GOTE))
        rows = mc_moments(
            ExperimentConfig(p=3, n_max=2, N_grid=(N,), samples=400, seed=6)
        )
        sample_var = next(r for r in rows if r.n == 2).variance
        assert sample_var == pytest.approx(exact, rel=0.25)

    def test_exact_decay_is_cubic(self):
        # N^3 Var[I_2/N] converges: the true decay beats the O(1/N^2) bound
        vals = [float(exact_i2_variance(N, FLAT)) * N**3 for N in (16, 32, 64)]
        assert vals == pytest.approx([16.5] * 3, rel=0.01)


class TestMelonicLimitTable:
    def test_flags_and_alpha(self):
        rows = melonic_limit_table(3, 2, (8, 16, 32), GAUSSIAN_GOTE)
        assert sum(r.melonic for r in rows) == 2
        for r in rows:
            assert r.alpha == (0.5 if r.melonic else 0.0)
            assert all(
                d1 > d2 for d1, d2 in zip(r.deviations, r.deviations[1:])
            )
            assert r.slope is not None and abs(r.slope + 1) < 0.3

    def test_flat_profile_melonic_rows_exact(self):
        rows = melonic_limit_table(3, 2, (8, 16, 32), FLAT)
        for r in rows:
            if r.melonic:
                assert r.values == (0.5, 0.5, 0.5)
                assert r.slope is None
            else:
                assert r.slope == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_single_point_grid_has_no_slope(self):
        # a line through one point is no fit; polyfit would warn per row
        rows = melonic_limit_table(3, 2, (8,), GAUSSIAN_GOTE)
        assert [r.slope for r in rows] == [None] * len(rows)
        assert [r.slope for r in melonic_limit_table(3, 2, (8, 8), GAUSSIAN_GOTE)] == [None] * 5
        two = melonic_limit_table(3, 2, (8, 16), GAUSSIAN_GOTE)
        assert [r.values for r in rows] == [r.values[:1] for r in two]

    @pytest.mark.parametrize("p, n, classes", [(3, 4, 5), (3, 6, 17), (4, 4, 10)])
    def test_one_peel_per_class(self, monkeypatch, p, n, classes):
        # the class flag is the per-map detector's answer for every map
        peels = []

        def counted(b):
            peels.append(b)
            return is_melonic_graph(b)

        monkeypatch.setattr(exact, "is_melonic_graph", counted)
        rows = melonic_limit_table(p, n, (8,), GAUSSIAN_GOTE)
        assert len(peels) == classes == len(exact._trace_classes(p, n))
        assert [r.melonic for r in rows] == [is_melonic_graph(b) for b in rooted_connected(p, n)]

    def test_one_partition_pass_per_class(self, monkeypatch):
        # the polynomial in N serves the whole grid and later calls: one group
        # DP over the edge partitions per class of the 5, under every law
        passes = []
        group_counts = exact._group_counts

        def counting(verts, p, dist):
            passes.append(dist.kind)
            return group_counts(verts, p, dist)

        monkeypatch.setattr(exact, "_group_counts", counting)
        exact._polynomial.cache_clear()
        for dist in (EntryDistribution("rademacher"), GAUSSIAN_GOTE):
            melonic_limit_table(3, 4, (8, 16, 32), dist)
            melonic_limit_table(3, 4, (8,), dist)
            exact.expected_balanced_invariant(3, 4, 64, dist)
        assert passes == ["rademacher"] * 5 + ["gaussian-gote"] * 5

    def test_universality_limit_column(self):
        gauss = melonic_limit_table(3, 2, (8, 16), GAUSSIAN_GOTE)
        rade = melonic_limit_table(3, 2, (8, 16), EntryDistribution("rademacher"))
        assert [(r.melonic, r.alpha) for r in gauss] == [
            (r.melonic, r.alpha) for r in rade
        ]
        # second moments agree entirely, so the n=2 table is identical
        assert [r.values for r in gauss] == [r.values for r in rade]

    def test_matrix_case_rejected(self):
        with pytest.raises(ContractViolation):
            melonic_limit_table(2, 4, (8, 16), GAUSSIAN_GOTE)

    @pytest.mark.parametrize("p,n,grid", [(3, 4, (8, 16)), (4, 2, (6, 12))])
    def test_rows_match_per_map_oracle(self, p, n, grid):
        rows = melonic_limit_table(p, n, grid, GAUSSIAN_GOTE)
        for r, b in zip(rows, rooted_connected(p, n), strict=True):
            assert r.values == tuple(
                float(expected_trace_partitions(b, N, GAUSSIAN_GOTE) / N) for N in grid
            )

    def test_p4_alpha(self):
        rows = melonic_limit_table(4, 2, (6, 12), GAUSSIAN_GOTE)
        for r in rows:
            if r.melonic:
                assert r.alpha == pytest.approx(1 / 6)

    def test_partition_guard_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(p, n):
            raise AssertionError("maps enumerated before the partition guard")

        monkeypatch.setattr(exact, "rooted_connected", no_enumeration)
        # the edge-partition guard is gone: the oracle guard admits (4, 5) and
        # (5, 4) under gaussian-gote and (4, 5) under rademacher, whose
        # 100,278 and 869,400 maps exceed the map budget, and it refuses
        # (5, 4) under rademacher itself, as the partition guard did
        rademacher = EntryDistribution("rademacher")
        for p, n, dist in [(4, 5, GAUSSIAN_GOTE), (5, 4, GAUSSIAN_GOTE), (4, 5, rademacher)]:
            with pytest.raises(ResourceLimitError, match=rf"^{count_rooted_maps(p, n)} maps"):
                melonic_limit_table(p, n, (8,), dist)
        with pytest.raises(ResourceLimitError, match=r"^4497708 oracle terms"):
            melonic_limit_table(5, 4, (8,), rademacher)

    def test_pairing_guard_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(p, n):
            raise AssertionError("maps enumerated before the pairing guard")

        monkeypatch.setattr(exact, "rooted_connected", no_enumeration)
        # one pair of two 10-valent vertices: 10! slot bijections
        with pytest.raises(ResourceLimitError, match=r"^3628800 oracle terms"):
            melonic_limit_table(10, 2, (8,), GAUSSIAN_GOTE)


class TestMapBudget:
    """Every enumeration is priced by its exact map count before any map is
    built; the count is in the refusal."""

    @pytest.fixture
    def no_maps(self, monkeypatch):
        def no_construction(p, n):
            raise AssertionError("maps built before the map budget")

        monkeypatch.setattr(maps, "_canonical_sigma", no_construction)

    @pytest.mark.parametrize(
        "p, n_max, n, count",
        # (3, 9): n = 9 has no map at p = 3, but n = 8 has 27,120
        [(5, 4, 4, 869_400), (11, 2, 2, 1_249_937_325), (3, 9, 8, 27_120)],
    )
    def test_mc_refused_with_the_count(self, no_maps, p, n_max, n, count):
        cfg = ExperimentConfig(p=p, n_max=n_max, N_grid=(4,), samples=2)
        with pytest.raises(ResourceLimitError, match=rf"^{count} maps at p={p}, n={n} exceed"):
            mc_moments(cfg)

    @pytest.mark.parametrize("p, n, count", [(6, 3, 472_200), (8, 2, 252_000)])
    def test_exact_table_refused_with_the_count(self, no_maps, p, n, count):
        with pytest.raises(ResourceLimitError, match=rf"^{count} maps at p={p}, n={n} exceed"):
            melonic_limit_table(p, n, (8,), GAUSSIAN_GOTE)

    def test_p7_n2_is_admitted(self, no_maps):
        # the map counts alone: the route check that follows groups the maps
        assert count_rooted_maps(7, 2) == 19_305 <= maps._MAP_GUARD
        for n in (1, 2):
            maps._check_map_budget(7, n)


class TestUpFrontPricing:
    """Every run prices its tensor storage and each class's contraction at
    every N before the first sample."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the up-front check")

        monkeypatch.setattr(experiments, "sample_invariants", refuse)

    @pytest.mark.parametrize(
        "n, grid, message",
        [
            # K_{3,3} and other n = 6 classes at N = 128, after N = 16 is admitted
            (6, (16, 128), r"6-vertex map at N=128 is predicted to take 1\.77e\+13 FLOP"),
            (4, (256,), r"4-vertex map at N=256 is predicted to take 1\.11e\+12 FLOP"),
        ],
    )
    def test_contraction_refused_before_sampling(self, no_sampling, n, grid, message):
        with pytest.raises(ResourceLimitError, match=message):
            mc_moments(ExperimentConfig(p=3, n_max=n, N_grid=grid, samples=2))

    def test_largest_n_is_priced_first(self, monkeypatch, no_sampling):
        def no_plan(eq, N):
            raise AssertionError("a smaller cycle planned before the 53-cycle")

        monkeypatch.setattr(tensor, "_plan", no_plan)
        with pytest.raises(ResourceLimitError, match="53 edges exceeds the contraction guard"):
            mc_moments(ExperimentConfig(p=2, n_max=53, N_grid=(4,), samples=2))

    def test_map_budget_is_read_at_the_given_degrees_only(self, monkeypatch):
        budgets = []
        monkeypatch.setattr(experiments, "_check_map_budget", lambda p, n: budgets.append(n))
        experiments._check_enumeration_feasible(4, [3], (8,), 4)
        assert budgets == [3]

    def test_check_builds_no_table(self, monkeypatch):
        def no_table(p, N):
            raise AssertionError("index table built by the check")

        monkeypatch.setattr(tensor, "_IndexTable", no_table)
        experiments._check_enumeration_feasible(3, [1, 2, 3, 4], (24, 40), 3)

    def test_storage_refused_before_sampling(self, no_sampling):
        message = r"order-6 tensor at N=32 needs 1\.75e\+10 bytes"
        with pytest.raises(ResourceLimitError, match=message):
            mc_moments(ExperimentConfig(p=6, n_max=2, N_grid=(32,), samples=2))

    def test_triangle_tensor_refused_before_sampling(self, monkeypatch, no_sampling):
        # the triangle tensor's 4 N^5 FLOP at N = 16, priced before any sample
        monkeypatch.setattr(tensor, "_MAX_FLOP", 4 * 16**5 - 1)
        message = r"triangle tensor at N=16 .* 4\.19e\+06 FLOP"
        with pytest.raises(ResourceLimitError, match=message):
            mc_moments(ExperimentConfig(p=3, n_max=6, N_grid=(8, 16), samples=2))

    def test_contract_prices_classes_at_the_contracted_order(self, monkeypatch, no_sampling):
        # order 4 contracted once: the order-3 tetrahedron's 1.18e6 FLOP at N = 16
        monkeypatch.setattr(tensor, "_MAX_FLOP", 10**6)
        with pytest.raises(ResourceLimitError, match=r"4-vertex map at N=16 .* 1\.18e\+06 FLOP"):
            mc_moments(ExperimentConfig(p=4, n_max=4, N_grid=(16,), samples=2), k=1)


class TestClosure:
    def test_melonic_weight_closure(self):
        for p, m in [(3, 1), (3, 2), (4, 1)]:
            assert Fraction(
                count_melonic_maps(p, m), math.factorial(p - 1) ** m
            ) == fuss_catalan(p, m)


def _contract_cfg(p, N, samples, seed, dist=GAUSSIAN_GOTE):
    return ExperimentConfig(p=p, n_max=2, N_grid=(N,), samples=samples, seed=seed, dist=dist)


class TestContraction:
    def test_depth_validation(self):
        with pytest.raises(ContractViolation):
            mc_moments(_contract_cfg(3, 8, 4, 1), k=2)
        with pytest.raises(ContractViolation):
            mc_moments(_contract_cfg(3, 8, 4, 1, EntryDistribution("rademacher")), k=1)
        with pytest.raises(ContractViolation):
            mc_moments(_contract_cfg(4, 8, 4, 1, FLAT), k=2)

    def test_targets_are_dilated_moments(self):
        rows = mc_moments(_contract_cfg(4, 8, 4, 1), k=2)
        by_n = {r.n: r.target for r in rows}
        assert by_n[2] == pytest.approx(1 / 3)
        assert by_n[1] == 0.0

    def test_random_unit_deterministic(self):
        a = mc_moments(_contract_cfg(3, 10, 8, 2), k=1, random_unit=True)
        b = mc_moments(_contract_cfg(3, 10, 8, 2), k=1, random_unit=True)
        assert a == b


class TestHeavyTail:
    def test_median_trend_toward_limit(self):
        rows = heavy_tail_moments(3, 2, (8, 16, 32), samples=150, seed=1, tail_index=3.5)
        devs = [abs(r.median - r.target) for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_gaussian_control_agrees(self):
        pareto = heavy_tail_moments(3, 2, (32,), samples=150, seed=1, tail_index=3.5)
        gauss = heavy_tail_moments(
            3, 2, (32,), samples=150, seed=1, tail_index=3.5, dist=GAUSSIAN_GOTE
        )
        assert abs(pareto[0].median - gauss[0].median) < 0.1

    def test_many_moments_tail_behaves_like_gaussian(self):
        light = heavy_tail_moments(3, 2, (32,), samples=150, seed=1, tail_index=6.0)
        gauss = heavy_tail_moments(
            3, 2, (32,), samples=150, seed=1, tail_index=6.0, dist=GAUSSIAN_GOTE
        )
        assert abs(light[0].median - gauss[0].median) < 0.1


class TestResolventCheck:
    def test_gap_below_tail_bound(self):
        r = resolvent_crosscheck(30, 3.0, 12, seed=4)
        assert r.gap <= r.tail_bound

    def test_far_point_small_gap(self):
        r = resolvent_crosscheck(30, 10.0, 6, seed=4)
        assert r.gap < 1e-3

    def test_zero_matrix_exact(self):
        r = resolvent_crosscheck(10, 4.0, 6, seed=1, tensor=SymTensor.zeros(2, 10))
        assert r.gap == 0.0 and r.series == 0.25

    def test_domain_error_near_spectrum(self):
        with pytest.raises(DomainError):
            resolvent_crosscheck(30, 1.0, 6, seed=4)


class TestConfigFromJson:
    @pytest.mark.parametrize("key", ["sede", "k", "format_", "threads"])
    def test_unknown_key_is_refused_by_name(self, key):
        with pytest.raises(ContractViolation, match=f"unknown config keys: {key}$"):
            ExperimentConfig.from_json({"p": 3, key: 5})

    def test_not_an_object(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig.from_json([["p", 3]])

    def test_field_names_round_trip(self):
        cfg = ExperimentConfig.from_json({"N_grid": [8], "fmt": "json", "out": None})
        assert cfg == ExperimentConfig(N_grid=(8,), fmt="json")

    @pytest.mark.parametrize("fmt,alias", [("csv", "json"), ("json", "json")])
    def test_fmt_and_format_together_are_refused(self, fmt, alias):
        with pytest.raises(ContractViolation, match="both fmt and format"):
            ExperimentConfig.from_json({"fmt": fmt, "format": alias})
        assert ExperimentConfig.from_json({"format": alias}).fmt == alias


class TestSampleInvariants:
    def test_row_idx_is_substream_idx(self):
        data = sample_invariants(3, 6, [2, 4], 3, 9, GAUSSIAN_GOTE)
        assert data.shape == (3, 2)
        for idx in range(3):
            W = sample_wigner(3, 6, GAUSSIAN_GOTE, (9, 6, 0, idx))
            assert data[idx].tolist() == [balanced_invariant(n, W) / 6 for n in (2, 4)]

    @pytest.mark.parametrize("p,N,ns", [(3, 5, [2, 4, 6]), (4, 3, [2, 3]), (2, 7, [1, 2, 8])])
    def test_batch_size_changes_no_bit(self, monkeypatch, p, N, ns):
        # batches of 1, 3 and every sample (5) give the same array
        outs = []
        for batch in (1, 3, 5):
            monkeypatch.setattr(experiments, "_SLICE_ELEMS", batch * N**p)
            outs.append(sample_invariants(p, N, ns, 5, 3, GAUSSIAN_GOTE))
        assert all(np.array_equal(out, outs[0]) for out in outs)
        assert outs[0].shape == (5, len(ns))

    def test_vectors_contract_and_rescale(self):
        u = np.full(5, 1 / math.sqrt(5))
        data = sample_invariants(4, 5, [2], 2, 1, GAUSSIAN_GOTE, vectors=[u, u])
        for idx in range(2):
            W = sample_wigner(4, 5, GAUSSIAN_GOTE, (1, 5, 0, idx))
            M = contract(W, [u, u]).scaled(5.0)
            assert data[idx, 0] == balanced_invariant(2, M) / 5
