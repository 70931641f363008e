"""The paper's first result, universality, on the exact polynomials: with
E[I_n]/N = sum_j a_j N^{-j}, a_0 = F_p(n/2) under every exact law, the laws
of the invariant variance profile agree below a_{p-1}, and at a_{p-1} each
differs from gaussian-gote by one constant per (p, n) times its fourth
cumulant kappa_4: a group of four vertices costs p - 1 powers of N against
pairs."""

from fractions import Fraction

import pytest

from melonic import exact
from melonic.counting import fuss_catalan
from melonic.exact import GAUSSIAN_GOTE, RADEMACHER, EntryDistribution

from conftest import group_dp_run

UNIFORM = EntryDistribution("uniform")
FLAT = EntryDistribution("gaussian-offdiag-only")
KAPPA4 = {RADEMACHER: -2, UNIFORM: Fraction(-6, 5)}


def inverse_powers(p: int, n: int, dist: EntryDistribution) -> list[Fraction]:
    """a_0..a_top of E[I_n]/N = sum_j a_j N^{-j}, top = (n/2)(p-1) + 1, read
    from the group DP's polynomial of N^{(n/2)(p-1)} E[I_n]."""
    top = (n // 2) * (p - 1) + 1
    return group_dp_run(p, n, dist)[0][top::-1]


SIZES = [(2, 2, 0), (3, 2, 0), (4, 2, 0), (5, 2, 0), (6, 2, 0), (3, 4, 8), (3, 6, 72), (4, 4, 78)]


@pytest.mark.parametrize("p, n, c", SIZES)
def test_universality_and_the_order_where_the_law_enters(p, n, c):
    a = {dist: inverse_powers(p, n, dist) for dist in (GAUSSIAN_GOTE, RADEMACHER, UNIFORM, FLAT)}
    gote = a[GAUSSIAN_GOTE]
    assert {coeffs[0] for coeffs in a.values()} == {fuss_catalan(p, n // 2)}
    for dist, kappa4 in KAPPA4.items():
        assert a[dist][: p - 1] == gote[: p - 1]
        assert a[dist][p - 1] - gote[p - 1] == c * kappa4
    assert exact._law(RADEMACHER, p, 4)[4][0] == KAPPA4[RADEMACHER]
    assert exact._law(UNIFORM, p, 4)[4][0] == KAPPA4[UNIFORM]


def test_a2_at_p3_n4():
    assert [inverse_powers(3, 4, dist)[2] for dist in (GAUSSIAN_GOTE, RADEMACHER, UNIFORM)] == [
        279, 263, Fraction(1347, 5)
    ]


@pytest.mark.parametrize("p, n", [(p, n) for p, n, _ in SIZES] + [(2, 8)])
def test_terms_never_exceed_the_price(p, n):
    # the guard's bound, known before any map, holds for every class
    for dist in (GAUSSIAN_GOTE, RADEMACHER, UNIFORM, FLAT):
        assert 0 < group_dp_run(p, n, dist)[1] <= exact._price(p, n, dist)
