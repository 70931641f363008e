"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them inline).

Every tolerance is pinned here exactly as stated.  Two sub-criteria are
implemented faithfully and fail, with the blocking analysis recorded in the
repository notes: the finite-N gap of the exact E[I_4]/N oracle at N=30
exceeds 0.5 for every admissible entry law (criterion 6, second clause), and
the fitted variance slope at p=3 is close to -3, below the stated band
(criterion 7; the variance bound O(1/N^2) itself holds with room).
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from melonic.counting import (
    count_dyck,
    count_melonic_maps,
    count_noncrossing_div,
    dyck_from_hypertree,
    enumerate_dyck_paths,
    fuss_catalan,
    generating_series_check,
    hypertree_from_dyck,
)
from melonic.experiments import (
    heavy_tail_moments,
    mc_moments,
    resolvent_crosscheck,
    variance_scaling,
)
from melonic.hypergraph import is_melonic_graph, melonic_partition
from melonic.limitlaw import (
    LimitLaw,
    density,
    inversion_density,
    stieltjes,
    support_radius,
)
from melonic.maps import enumerate_rooted_connected
from melonic import exact
from melonic.exact import (
    GAUSSIAN_GOTE,
    RADEMACHER,
    EntryDistribution,
    ExperimentConfig,
    expected_balanced_invariant,
    melonic_limit_table,
)
from melonic.tensor import SymTensor

from conftest import exact_i2_variance, expected_trace_exhaustive, moment_by_quadrature

FLAT = EntryDistribution("gaussian-offdiag-only")


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_enumeration_ground_truth():
    with _Timer(1.0) as t:
        five = enumerate_rooted_connected(3, 2)
        singles = [len(enumerate_rooted_connected(2, n)) for n in range(2, 9)]
        empties = [enumerate_rooted_connected(3, n) for n in (1, 3, 5)]
    ok = (
        len(five) == 5
        and singles == [1] * 7
        and all(e == [] for e in empties)
        and t.elapsed < 1.0
    )
    _report(
        "01",
        ok,
        f"|B_2^(3)|={len(five)}, p=2 counts {singles}, odd-n empty, {t.elapsed:.2f}s < 1s",
    )


def test_c02_melonic_counting_and_detector_agreement():
    with _Timer(30.0) as t:
        two = sum(is_melonic_graph(b) for b in enumerate_rooted_connected(3, 2))
        twelve = sum(is_melonic_graph(b) for b in enumerate_rooted_connected(3, 4))
        agree = True
        for p, n in [(3, 2), (3, 4), (4, 2)]:
            for b in enumerate_rooted_connected(p, n):
                agree &= is_melonic_graph(b) == (melonic_partition(b) is not None)
    ok = (
        two == 2
        and twelve == count_melonic_maps(3, 2) == 12
        and agree
        and t.elapsed < 30.0
    )
    _report(
        "02",
        ok,
        f"melonic counts 2 and {twelve}, detectors agree={agree}, {t.elapsed:.2f}s < 30s",
    )


def test_c03_counting_identities():
    with _Timer(10.0) as t:
        triple = all(
            fuss_catalan(p, n) == count_dyck(p, n) == count_noncrossing_div(p, n)
            for p in (2, 3, 4)
            for n in range(6)
        )
        row = [fuss_catalan(3, k) for k in range(1, 6)] == [1, 3, 12, 55, 273]
        series = all(generating_series_check(p, 6) for p in (2, 3, 5))
        round_ok = True
        for n in range(5):
            trees = set()
            for d in enumerate_dyck_paths(3, n):
                tr = hypertree_from_dyck(d)
                round_ok &= dyck_from_hypertree(tr) == d
                trees.add(tr)
            round_ok &= len(trees) == fuss_catalan(3, n)
    ok = triple and row and series and round_ok and t.elapsed < 10.0
    _report(
        "03",
        ok,
        f"closed=dyck=noncrossing, F_3 row, series, roundtrips; {t.elapsed:.2f}s < 10s",
    )


def test_c04_oracle_equivalence():
    with _Timer(60.0) as t:
        worst = 0.0
        for b in enumerate_rooted_connected(3, 2):
            for N in (4, 6, 8):
                for dist in (GAUSSIAN_GOTE, RADEMACHER):
                    a = expected_trace_exhaustive(b, N, dist)
                    c = exact._at(exact._polynomial(b, dist), b.p, b.n, N)
                    rel = abs(float(a - c)) / max(1e-300, abs(float(c)))
                    worst = max(worst, rel)
                    assert a == c  # the two exact routes agree identically
    ok = worst <= 1e-12 and t.elapsed < 60.0
    _report("04", ok, f"max relative gap {worst:.1e} <= 1e-12, {t.elapsed:.2f}s < 1min")


def test_c05_finite_size_melonic_limits():
    # Run with off-diagonal-only Gaussian entries: the admissible Wigner law
    # under which every clause of this criterion is satisfiable.  Melonic
    # rows are then exact at every N (deviation identically zero, which is
    # convergence in the strongest sense; the rate fit applies to the rows
    # with nonzero deviation).
    with _Timer(120.0) as t:
        rows = melonic_limit_table(3, 2, (8, 16, 32), FLAT)
        melon_exact = all(
            r.values == (0.5, 0.5, 0.5) for r in rows if r.melonic
        )
        slopes_ok = all(
            abs(r.slope + 1) <= 0.4 for r in rows if not r.melonic
        )
        zero_limits = all(
            r.values[-1] < 0.1 for r in rows if not r.melonic
        )
        total32 = sum(r.values[-1] for r in rows)
    ok = (
        melon_exact
        and slopes_ok
        and zero_limits
        and abs(total32 - 1.0) <= 0.15
        and t.elapsed < 120.0
    )
    _report(
        "05",
        ok,
        f"melonic rows exact 1/2, non-melonic slopes ~ -1, sum(N=32)={total32:.4f} "
        f"within 0.15 of 1; {t.elapsed:.1f}s < 2min",
    )


def test_c06_montecarlo_moments_and_universality():
    with _Timer(600.0) as t:
        checks = []
        for dist, name in ((FLAT, "gaussian"), (RADEMACHER, "rademacher")):
            rows = mc_moments(
                ExperimentConfig(p=3, n_max=4, N_grid=(30,), samples=200, seed=1, dist=dist)
            )
            by_n = {r.n: r for r in rows}
            for n in (2, 4):
                oracle = float(expected_balanced_invariant(3, n, 30, dist) / 30)
                z = (by_n[n].mean - oracle) / by_n[n].stderr
                checks.append((name, n, z))
        # universality: both entry laws drive the oracle toward the same
        # Fuss-Catalan limit, with the finite-size gap shrinking like 1/N
        same_limit = True
        for dist in (FLAT, RADEMACHER):
            d30 = abs(float(expected_balanced_invariant(3, 4, 30, dist) / 30) - 3.0)
            d60 = abs(float(expected_balanced_invariant(3, 4, 60, dist) / 60) - 3.0)
            same_limit &= d60 < 0.6 * d30
    ok = all(abs(z) <= 3 for _, _, z in checks) and same_limit and t.elapsed < 600.0
    detail = ", ".join(f"{name} I{n}/N z={z:+.2f}" for name, n, z in checks)
    _report("06", ok, f"means within 3 stderr of exact oracles ({detail}); "
                      f"universal limit; {t.elapsed:.0f}s < 10min")


def test_c06_oracle_finite_size_gap_below_half():
    """Faithful implementation of the clause 'oracle values within 0.5 of
    F_3(2) = 3' at N = 30.

    This fails for every admissible entry law: the exact finite-N correction
    of E[I_4]/N at N = 30 is +1.94 (invariant Gaussian profile), +1.91
    (Rademacher), +0.74 (off-diagonal-only Gaussian, the most favorable
    admissible choice).  The correction is ~48/N resp. ~21/N, so N ~ 100
    would be needed; the criterion pins N = 30.  See the decisions ledger.
    """
    gaps = {
        name: abs(float(expected_balanced_invariant(3, 4, 30, dist) / 30) - 3.0)
        for name, dist in (
            ("gaussian-gote", GAUSSIAN_GOTE),
            ("rademacher", RADEMACHER),
            ("gaussian-offdiag-only", FLAT),
        )
    }
    best = min(gaps.values())
    _report(
        "06b",
        best <= 0.5,
        f"|E[I_4]/N - 3| at N=30 per entry law: "
        + ", ".join(f"{k}={v:.3f}" for k, v in gaps.items())
        + " (stated tolerance 0.5)",
    )


def test_c07_variance_scaling_slope():
    """Faithful implementation of the stated band [-2.8, -1.2] for the
    fitted variance slope at p=3, n=2, N in {16, 32, 64}, 400 samples.

    The band cannot be met: the population variance is computed exactly here
    (second moments of I_2 are expected traces of disjoint-union maps) and
    decays like 1/N^3 on this grid - slope -3.18 for the invariant Gaussian
    profile, -3.00 off-diagonal-only, -3.08 Rademacher - faster than the
    O(1/N^2) bound, whose matrix-case rate -2 the band was built around.
    For the invariant Gaussian profile the pairing oracle gives it in closed
    form, Var[I_2/N] = 30/N^3 + 180/N^4 + 240/N^5
    (``exact.balanced_invariant_variance``), so the exact rate is N^-3.
    The bound itself is verified a fortiori.  See the decisions ledger.
    """
    with _Timer(600.0) as t:
        res = variance_scaling(
            ExperimentConfig(p=3, n_max=2, N_grid=(16, 32, 64), samples=400, seed=1)
        )
        bound_ok = all(v <= 4.0 / N**2 for N, v in res.rows)
        exact = [float(exact_i2_variance(N, GAUSSIAN_GOTE)) for N in (16, 32, 64)]
        exact_slope = float(
            np.polyfit(np.log([16.0, 32.0, 64.0]), np.log(exact), 1)[0]
        )
    ok = -2.8 <= res.slope <= -1.2 and t.elapsed < 600.0
    _report(
        "07",
        ok,
        f"fitted slope {res.slope:.3f}, exact population slope {exact_slope:.3f} "
        f"(stated band [-2.8, -1.2]); O(1/N^2) bound holds: {bound_ok}; "
        f"{t.elapsed:.0f}s < 10min",
    )


def test_c08_limit_law():
    with _Timer(30.0) as t:
        w3 = support_radius(3)
        mass = 2 * quad(lambda y: density(3, y), 0, w3, epsabs=1e-11, epsrel=1e-11,
                        limit=400)[0]
        m2 = moment_by_quadrature(3, 2)
        m4 = moment_by_quadrature(3, 4)
        endpoint_ok = abs(w3 - 2.598) <= 1e-3 and abs(w3 - math.sqrt(27 / 4)) < 1e-14
        # 100 evaluation points off the support: real beyond the edge and
        # strictly complex
        zs = [s * (w3 + 0.05 + 0.08 * i) for i in range(30) for s in (1, -1)]
        zs += [complex(0.11 * i - 2.2, 0.4) for i in range(40)]
        residual = max(
            abs(z ** 1 * stieltjes(3, z) ** 3 - z * stieltjes(3, z) + 1) for z in zs
        )
        grid = np.linspace(-1.9, 1.9, 101)
        gap2 = max(abs(inversion_density(2, y) - density(2, y)) for y in grid)
    ok = (
        abs(mass - 1) <= 1e-6
        and abs(m2 - 1) <= 1e-6
        and abs(m4 - 3) <= 1e-6
        and endpoint_ok
        and residual < 1e-12
        and gap2 < 1e-5
        and t.elapsed < 30.0
    )
    _report(
        "08",
        ok,
        f"mass-1={mass - 1:.1e}, m2-1={m2 - 1:.1e}, m4-3={m4 - 3:.1e}, "
        f"edge ok, residual={residual:.1e}, p=2 inversion gap={gap2:.1e}; "
        f"{t.elapsed:.1f}s < 30s",
    )


def test_c09_contracted_tensor_law():
    # Monte Carlo with off-diagonal-only Gaussian entries (admissible; for
    # k=1 the dilated limit is the same as for the invariant ensemble, and
    # the n=2 moment is unbiased at finite N, while the invariant profile
    # carries a +3/(2N) finite-size shift that no 200-sample run can absorb).
    with _Timer(600.0) as t:
        rows = mc_moments(
            ExperimentConfig(p=3, n_max=2, N_grid=(40,), samples=200, seed=1, dist=FLAT),
            k=1,
        )
        r2 = next(r for r in rows if r.n == 2)
        z = (r2.mean - 0.5) / r2.stderr
        support_exact = LimitLaw(3, 1).support_sq() == Fraction(2)
        renorm_exact = all(
            LimitLaw(p, p - 2).support_sq() / p == Fraction(4, p * (p - 1))
            for p in (3, 4)
        )
    ok = abs(z) <= 3 and support_exact and renorm_exact and t.elapsed < 600.0
    _report(
        "09",
        ok,
        f"I_2 mean {r2.mean:.4f} vs 1/2 (z={z:+.2f}); support^2=2 exact; "
        f"matrix-case renormalised support exact for p=3,4; {t.elapsed:.0f}s < 10min",
    )


def test_c10_matrix_resolvent():
    with _Timer(5.0) as t:
        r = resolvent_crosscheck(50, 3.0, 20, seed=1)
        example_bound = (2.5 / 3.0) ** 21 * 10
        zero4 = resolvent_crosscheck(10, 4.0, 8, seed=1, tensor=SymTensor.zeros(2, 10))
        zero3 = resolvent_crosscheck(10, 3.0, 8, seed=1, tensor=SymTensor.zeros(2, 10))
    ok = (
        r.gap <= r.tail_bound
        and r.gap < example_bound
        and zero4.gap == 0.0
        and zero4.series == 0.25
        and zero3.gap <= 2e-16
        and t.elapsed < 5.0
    )
    _report(
        "10",
        ok,
        f"gap={r.gap:.2e} <= tail bound {r.tail_bound:.2e}; zero tensor exact; "
        f"{t.elapsed:.1f}s < 5s",
    )


def test_c11_desk_scale_exclusions():
    # The infinite-N limit itself is never asserted (only finite-N rates),
    # heavy-tailed convergence in probability gets a qualitative median
    # trend, and p >= 4 densities are only checked for inversion-pipeline
    # self-consistency (see the limit-law tests).
    rows = heavy_tail_moments(3, 2, (8, 16, 32), samples=150, seed=1, tail_index=3.5)
    devs = [abs(r.median - r.target) for r in rows]
    trend = devs[0] > devs[1] > devs[2]
    _report(
        "11",
        trend,
        f"heavy-tail median deviations decreasing: "
        + " > ".join(f"{d:.3f}" for d in devs),
    )
