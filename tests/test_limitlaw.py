import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from melonic import cli, limitlaw
from melonic.errors import ContractViolation, DomainError, NumericalError
from melonic.counting import fuss_catalan
from melonic.limitlaw import (
    LimitLaw,
    critical_z,
    density,
    inversion_density,
    moment,
    stieltjes,
    support_radius,
)

from conftest import moment_by_quadrature, stieltjes_by_roots


class TestMoments:
    def test_odd_vanish(self):
        for p in (2, 3, 4):
            for n in (1, 3, 5, 7):
                assert moment(p, n) == 0

    def test_even_are_fuss_catalan(self):
        assert moment(3, 2) == 1
        assert moment(3, 4) == 3
        assert moment(2, 8) == 14
        assert moment(4, 6) == 22


class TestStieltjes:
    def test_semicircle_value(self):
        assert stieltjes(2, 3.0) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-13)

    def test_large_z_asymptotic(self):
        for p in (2, 3, 5):
            r = stieltjes(p, 50.0)
            assert abs(50.0 * r - 1) < 1e-3

    @staticmethod
    def _residual_grid(p):
        w = support_radius(p)
        return [w + 0.2, -w - 0.2, 3 * w, complex(0.3, 0.7), complex(-w, 0.05)]

    def test_residual_on_grid(self):
        for p in (2, 3, 4, 6):
            for z in self._residual_grid(p):
                r = stieltjes(p, z)
                assert abs(z ** (p - 2) * r**p - z * r + 1) < 1e-12

    def test_matches_roots_homotopy(self):
        for p in range(2, 9):
            for z in self._residual_grid(p):
                ref = stieltjes_by_roots(p, z)
                assert abs(stieltjes(p, z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("p", [4, 8])
    def test_matches_roots_homotopy_on_law_grid(self, p):
        # every point of the default `law` grid at both offsets of the
        # inversion, the support endpoints included
        for y in cli._grid(-support_radius(p), support_radius(p), 101):
            for eta in (1e-4, 2e-4):
                ref = stieltjes_by_roots(p, complex(y, eta))
                assert abs(stieltjes(p, complex(y, eta)) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("accepted", [0, 1])
    def test_refused_steps_end_in_numerical_error(self, monkeypatch, accepted):
        # with nothing certified the start is refused; with the start alone
        # certified every step is halved down to the floor; either way the
        # call raises instead of looping
        calls = []

        def refuse(p, z, zeta, r):
            calls.append(z)
            return len(calls) <= accepted

        monkeypatch.setattr(limitlaw, "_nearest_root", refuse)
        with pytest.raises(NumericalError):
            stieltjes(4, complex(0.3, 1e-4))
        assert len(calls) <= 2 + 40

    def test_series_coefficients(self):
        z = 10.0
        partial = sum(moment(3, n) / z ** (n + 1) for n in range(9))
        assert abs(stieltjes(3, z) - partial) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            stieltjes(3, 1.0)  # inside the support
        with pytest.raises(DomainError):
            stieltjes(2, 0)

    def test_conjugate_symmetry(self):
        r_up = stieltjes(3, complex(0.5, 1e-3))
        r_dn = stieltjes(3, complex(0.5, -1e-3))
        assert r_up == pytest.approx(r_dn.conjugate(), rel=1e-10)


class TestDensity:
    def test_semicircle_apex(self):
        assert density(2, 0.0) == pytest.approx(1 / math.pi)

    def test_support_endpoint_value(self):
        assert support_radius(3) == pytest.approx(2.598, abs=1e-3)
        assert critical_z(3) == pytest.approx(4 / 27)

    def test_outside_support(self):
        assert density(3, support_radius(3) + 0.1) == 0.0
        assert density(2, -2.5) == 0.0

    def test_symmetry(self):
        for p in (2, 3):
            for y in (0.3, 1.1, 2.0):
                assert density(p, y) == pytest.approx(density(p, -y), rel=1e-14)
        assert inversion_density(4, 0.7) == pytest.approx(
            inversion_density(4, -0.7), rel=1e-8
        )

    def test_normalisation_closed_forms(self):
        for p in (2, 3):
            val = 2 * quad(
                lambda y: density(p, y), 0, support_radius(p),
                epsabs=1e-11, epsrel=1e-11, limit=400,
            )[0]
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalisation_inversion_p4(self):
        val = 2 * quad(
            lambda y: density(4, y), 0, support_radius(4),
            epsabs=1e-7, epsrel=1e-7, limit=200,
        )[0]
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_ill_conditioned_endpoints(self):
        # At y = +-omega_c two roots nearly meet and the Richardson step
        # cancels.  The reference is the same Richardson quantity,
        # 2 m(1e-4) - m(2e-4) with m(eta) = -Im R(y + i eta) / pi, at these
        # float points and offsets, computed offline with 60-digit mpmath
        # (root tracking by mpmath.polyroots along the ray, nearest root).
        ref = 1.8784907834774507e-4
        w = support_radius(4)
        for y in (w, -w):
            assert abs(inversion_density(4, y) - ref) <= 1e-11 * ref

    def test_inversion_matches_closed_form_p2(self):
        grid = np.linspace(-1.9, 1.9, 101)
        gap = max(abs(inversion_density(2, y) - density(2, y)) for y in grid)
        assert gap < 1e-5


def _support_grid(p, points):
    w = support_radius(p)
    return np.linspace(-w, w, points)


def _max_rel_gap(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.abs(b)))


class TestContinuation:
    """A grid of points is one continuation path; each point must equal the
    per-point homotopy."""

    @pytest.mark.parametrize("p", [4, 5, 6])
    @pytest.mark.parametrize("points", [11, 101])
    def test_array_equals_per_point(self, p, points):
        ys = _support_grid(p, points)
        ref = [inversion_density(p, float(y)) for y in ys]
        dens = inversion_density(p, ys)
        assert isinstance(dens, np.ndarray) and dens.shape == ys.shape
        assert _max_rel_gap(dens, ref) <= 1e-12
        assert _max_rel_gap(inversion_density(p, ys[::-1])[::-1], ref) <= 1e-12

    def test_law_objects_equal_per_point(self):
        for law in (LimitLaw(4), LimitLaw(5, 1)):
            ys = np.linspace(*law.support(), 21)
            ref = [law.density(float(y)) for y in ys]
            dens = law.density(ys)
            assert dens[0] == dens[-1] == 0.0 == ref[0] == ref[-1]
            assert _max_rel_gap(dens[1:-1], ref[1:-1]) <= 1e-12

    def test_closed_forms_are_bit_identical(self):
        for p in (2, 3):
            ys = _support_grid(p, 41)
            assert density(p, ys).tolist() == [density(p, float(y)) for y in ys]

    def test_law_p4_makes_few_homotopies(self, monkeypatch, capsys):
        calls = []
        homotopy = limitlaw.stieltjes

        def counted(p, z):
            calls.append(z)
            return homotopy(p, z)

        monkeypatch.setattr(limitlaw, "stieltjes", counted)
        assert cli.main(["law", "--p", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "y,density" and len(rows) == 1 + 101 + 1 + 9
        # one path per eta; a homotopy only at each path's first point and
        # where the certificate fails (18 at the time of writing), not 202
        assert 2 <= len(calls) <= 50

    def test_scalars_stay_python_scalars(self):
        assert type(stieltjes(4, complex(0.3, 1e-4))) is complex
        assert type(inversion_density(4, 0.3)) is float
        assert type(inversion_density(4, np.float64(0.3))) is float
        assert type(inversion_density(4, np.array(0.3))) is float
        assert type(density(4, 0.3)) is float
        assert type(density(3, 0.3)) is float

    def test_lists_give_lists(self):
        ys = [-0.7, 0.3, 2.5]
        assert inversion_density(4, ys) == inversion_density(4, np.array(ys)).tolist()
        assert density(3, ys) == density(3, np.array(ys)).tolist()
        law = LimitLaw(5, 1)
        assert law.density(ys) == law.density(np.array(ys)).tolist()

    def test_point_on_support_is_refused(self):
        with pytest.raises(DomainError):
            limitlaw._stieltjes_path(4, [complex(0.1, 1e-4), complex(0.5, 0.0)])
        with pytest.raises(DomainError):
            limitlaw._stieltjes_path(4, [0j])


class TestQuadratureMoments:
    def test_reference_values(self):
        assert moment_by_quadrature(3, 0) == pytest.approx(1.0, abs=1e-6)
        assert moment_by_quadrature(3, 2) == pytest.approx(1.0, abs=1e-6)
        assert moment_by_quadrature(3, 4) == pytest.approx(3.0, abs=1e-6)
        assert moment_by_quadrature(2, 4) == pytest.approx(2.0, abs=1e-6)
        assert moment_by_quadrature(2, 6) == pytest.approx(5.0, abs=1e-6)

    def test_odd_zero(self):
        assert moment_by_quadrature(3, 3) == 0.0

    def test_degree_guard(self):
        with pytest.raises(ContractViolation):
            moment_by_quadrature(3, 9)


class TestLawObjects:
    def test_limit_law_api(self):
        law = LimitLaw(3)
        assert law.support() == (-support_radius(3), support_radius(3))
        assert law.moment(2) == Fraction(1)
        assert law.density(0.5) == pytest.approx(density(3, 0.5))
        r = law.stieltjes(4.0)
        assert abs(4.0 * r**3 - 4.0 * r + 1) < 1e-12

    def test_contracted_identity_at_k0(self):
        law = LimitLaw(3, 0)
        assert law.scale_sq == 1
        assert law.moment(2) == Fraction(1)
        assert law.support_sq() == Fraction(27, 4)

    def test_contracted_semicircle_p3_k1(self):
        law = LimitLaw(3, 1)
        assert law.support_sq() == Fraction(2)
        assert law.moment(2) == Fraction(1, 2)
        assert law.moment(4) == Fraction(2, 4)
        # density relation: dilated semicircle
        s = math.sqrt(2)
        for y in (0.0, 0.4, 1.0):
            assert law.density(y) == pytest.approx(s * density(2, y * s), rel=1e-12)

    def test_contracted_p4_k2(self):
        law = LimitLaw(4, 2)
        assert law.moment(2) == Fraction(1, 3)
        assert law.support_sq() == Fraction(4, 3)

    def test_support_endpoint_algebra(self):
        for p, k in [(3, 1), (4, 1), (4, 2)]:
            law = LimitLaw(p, k)
            q = p - k
            expected = Fraction(q**q, math.comb(p - 1, k) * (q - 1) ** (q - 1))
            assert law.support_sq() == expected

    def test_matrix_convention_renormalisation(self):
        # with the extra factor-p dilation, k = p-2 reproduces the support
        # +-2/sqrt(p(p-1)) of the contracted-matrix literature convention
        for p in (3, 4):
            law = LimitLaw(p, p - 2)
            assert law.support_sq() / p == Fraction(4, p * (p - 1))

    def test_contract_depth_validation(self):
        with pytest.raises(ContractViolation):
            LimitLaw(3, 2)
        with pytest.raises(ContractViolation):
            LimitLaw(4, -1)
        with pytest.raises(ContractViolation, match=r"depth k=1 outside \[0, 0\]"):
            LimitLaw(2, 1)
        with pytest.raises(ContractViolation, match="p must be at least 2"):
            LimitLaw(1)

    def test_moment_quadrature_dilated(self):
        # the contracted density is the order-(p-k) density dilated, so its
        # n-th moment is the undilated quadrature moment over dilation^n
        law = LimitLaw(3, 1)
        assert moment_by_quadrature(law.p, 2) / law.dilation**2 == pytest.approx(
            0.5, abs=1e-6
        )


@pytest.mark.parametrize(
    "p,k", [(p, k) for p in range(2, 7) for k in range(p - 1)]
)
def test_law_of_the_contracted_tensor_is_exact(p, k):
    # one law type for every depth: the order-(p-k) law dilated by
    # sqrt(C(p-1, k)), with exact moments and support
    law = LimitLaw(p, k)
    scale_sq = math.comb(p - 1, k)
    assert (law.source_p, law.k, law.p, law.scale_sq) == (p, k, p - k, scale_sq)
    assert law.dilation == math.sqrt(scale_sq)
    for n in range(9):
        expected = Fraction(fuss_catalan(p - k, n // 2), scale_sq ** (n // 2)) if n % 2 == 0 else 0
        assert law.moment(n) == expected
    q = p - k
    assert law.support_sq() == Fraction(q**q, scale_sq * (q - 1) ** (q - 1))
    assert law.omega_c**2 == pytest.approx(float(law.support_sq()), rel=1e-15)


def test_order_two_law_is_the_semicircle():
    law = LimitLaw(2)
    assert (law.p, law.k, law.dilation, law.support_sq()) == (2, 0, 1.0, 4)
    assert [law.moment(n) for n in range(9)] == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    assert law.support() == (-2.0, 2.0)
    for y in (0.0, 0.5, 1.9):
        assert law.density(y) == math.sqrt(4.0 - y * y) / (2.0 * math.pi)
    r = law.stieltjes(3.0)
    assert r == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)
