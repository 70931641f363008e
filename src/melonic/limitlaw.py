"""The compactly supported limit law with Fuss-Catalan even moments, its
Stieltjes transform, densities, and the dilated law of contracted tensors.

The Stieltjes transform R(z) is the solution of
``P(R) = z^{p-2} R^p - z R + 1 = 0`` on the branch behaving like 1/z at
infinity.  Branch selection:

- **Homotopy** (``stieltjes``, one point).  The root is tracked along the
  ray from far outside the support down to z: at each step ``np.roots``
  gives all p roots and the one nearest the previous step's root is kept
  and Newton-polished.  This is the unambiguous reading of the series
  definition, and it is the reference for the path below.
- **Continuation** (``_stieltjes_path``, a grid of points).  The first
  point runs the homotopy.  Each later point runs Newton from the previous
  point's root and keeps the result zeta only if it is certified to be the
  root nearest that previous root, the homotopy's own selection rule.  With
  ``gamma = max_{2<=k<=p} (C(p,k) |z^{p-2}| |zeta|^{p-k} / |P'(zeta)|)^{1/(k-1)}``
  the Taylor expansion of P at zeta gives ``1 <= sum_{k>=2} (gamma |d|)^{k-1}``
  for any other root zeta + d, so every other root is at least 1/(2 gamma)
  from zeta.  zeta is kept when it is finite, its residual is below
  ``_RESIDUAL_TOL``, and it lies within 1/(4 gamma) of the previous root.
  Otherwise the point falls back to the homotopy, so it gets the same value
  as a call of ``stieltjes`` at that point.

Densities use closed forms at p = 2, 3 and Stieltjes inversion with a small
imaginary offset plus one Richardson step for p >= 4; the inversion
pipeline is validated against the closed forms.  ``density`` and
``inversion_density`` take a scalar or an array of points and evaluate
either as one continuation path per imaginary offset; a scalar gives a
Python float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .counting import fuss_catalan
from .errors import ContractViolation, DomainError, NumericalError

_RESIDUAL_TOL = 1e-12
_INVERSION_ETA = 1e-4  # eta, the imaginary offset of Stieltjes inversion


def critical_z(p: int) -> float:
    """Radius of convergence z_c = (p-1)^{p-1} / p^p of the Fuss-Catalan
    generating series."""
    return (p - 1) ** (p - 1) / p**p


def support_radius(p: int) -> float:
    """Edge of the support: omega_c = sqrt(p^p / (p-1)^{p-1})."""
    return math.sqrt(p**p / (p - 1) ** (p - 1))


def moment(p: int, n: int) -> int:
    """n-th moment: zero for odd n, F_p(n/2) for even n."""
    if n < 0:
        raise ContractViolation("n must be nonnegative")
    if n % 2:
        return 0
    return fuss_catalan(p, n // 2)


def _fixed_point_residual(p: int, z: complex, r: complex) -> complex:
    return z ** (p - 2) * r**p - z * r + 1


def _polish(p: int, z: complex, r: complex) -> complex:
    for _ in range(60):
        f = _fixed_point_residual(p, z, r)
        if abs(f) < 1e-15 * max(1.0, abs(z * r)):
            break
        fp = p * z ** (p - 2) * r ** (p - 1) - z
        if fp == 0:
            break
        step = f / fp
        r -= step
        if abs(step) < 1e-16 * max(1.0, abs(r)):
            break
    return r


def _track_root(p: int, z: complex, r: complex) -> complex:
    """Root of the degree-p fixed-point polynomial nearest to r, polished."""
    coeffs = [z ** (p - 2)] + [0] * (p - 2) + [-z, 1]
    roots = np.roots(coeffs)
    r = complex(roots[np.argmin(np.abs(roots - r))])
    return _polish(p, z, r)


def _refuse_support(p: int, z: complex) -> None:
    if z == 0:
        raise DomainError("z = 0 is inside the support")
    omega = support_radius(p)
    if z.imag == 0 and abs(z.real) <= omega + 1e-9:
        raise DomainError(f"z = {z} lies on the support [-{omega:.6g}, {omega:.6g}]")


def stieltjes(p: int, z: complex) -> complex:
    """The Stieltjes transform of the limit law at z, by homotopy.

    Raises DomainError for z on (or within 1e-9 of) the real support
    interval, NumericalError if the homotopy fails to reach residual 1e-12.
    """
    if p < 2:
        raise ContractViolation("p must be at least 2")
    z = complex(z)
    _refuse_support(p, z)
    t0 = max(1.0, 4.0 * support_radius(p) / abs(z))
    for attempts in range(4):
        if t0 == 1.0:
            ts = [1.0]
        else:
            steps = 40 * 2**attempts
            # geometric approach of t -> 1 keeps steps dense near the endpoint
            ts = [1.0 + (t0 - 1.0) * 2.0 ** (-k * 12.0 / steps) for k in range(steps)]
            ts.append(1.0)
        r = 1.0 / (ts[0] * z)
        ok = True
        for t in ts:
            r = _track_root(p, t * z, r)
            if not (math.isfinite(r.real) and math.isfinite(r.imag)):
                ok = False
                break
        if ok and abs(_fixed_point_residual(p, z, r)) < _RESIDUAL_TOL:
            return r
    raise NumericalError(f"root tracking failed at p={p}, z={z}")


def _nearest_root(p: int, z: complex, zeta: complex, r: complex) -> bool:
    """Certificate that zeta is the root of P at z nearest to r (module
    docstring): finite, residual below tolerance, and |zeta - r| < 1/(4 gamma)."""
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        return False
    if abs(_fixed_point_residual(p, z, zeta)) >= _RESIDUAL_TOL:
        return False
    dp = abs(p * z ** (p - 2) * zeta ** (p - 1) - z)
    if dp == 0:
        return False
    lead = abs(z) ** (p - 2) / dp
    gamma = max(
        (math.comb(p, k) * lead * abs(zeta) ** (p - k)) ** (1.0 / (k - 1))
        for k in range(2, p + 1)
    )
    return 4.0 * gamma * abs(zeta - r) < 1.0


def _stieltjes_path(p: int, zs: np.ndarray) -> np.ndarray:
    """The Stieltjes transform at each point of the 1-d complex array zs,
    continued from point to point; the first point, and every point whose
    continued root is not certified, calls ``stieltjes``."""
    if p < 2:
        raise ContractViolation("p must be at least 2")
    points = zs.tolist()
    for z in points:
        _refuse_support(p, z)
    out = np.empty(len(points), dtype=complex)
    r = None
    for i, z in enumerate(points):
        if r is not None:
            zeta = _polish(p, z, r)
            if _nearest_root(p, z, zeta, r):
                out[i] = r = zeta
                continue
        out[i] = r = stieltjes(p, z)
    return out


def density(p: int, y):
    """Density of the limit law at y (a scalar or an array); zero outside
    the support.

    Closed forms at p = 2 (semicircle) and p = 3 (cube-root profile, with an
    integrable |y|^{-1/3} singularity at the origin); Stieltjes inversion for
    p >= 4.
    """
    if p < 2:
        raise ContractViolation("p must be at least 2")
    ys = np.asarray(y, dtype=float)
    out = np.zeros(ys.shape)
    inside = np.abs(ys) < support_radius(p)
    if p >= 4:
        out[inside] = inversion_density(p, ys[inside])
    else:
        out[inside] = [_closed_form(p, v) for v in ys[inside].tolist()]
    return out if np.ndim(y) else float(out)


def _closed_form(p: int, y: float) -> float:
    if p == 2:
        return math.sqrt(4.0 - y * y) / (2.0 * math.pi)
    if y == 0.0:
        return math.inf
    s = math.sqrt(1.0 - 4.0 * y * y / 27.0)
    bracket = (1.0 + s) ** (1.0 / 3.0) - (1.0 - s) ** (1.0 / 3.0)
    return math.sqrt(3.0) / (2.0 ** (4.0 / 3.0) * math.pi * abs(y) ** (1.0 / 3.0)) * bracket


def inversion_density(p: int, y):
    """Density by Stieltjes inversion: -Im R(y + i eta) / pi with one
    Richardson step in eta to cancel the O(eta) bias.  y, a scalar or an
    array, is evaluated as one continuation path per eta."""
    ys = np.asarray(y, dtype=float)
    m1 = -_stieltjes_path(p, ys.ravel() + 1j * _INVERSION_ETA).imag / math.pi
    m2 = -_stieltjes_path(p, ys.ravel() + 2j * _INVERSION_ETA).imag / math.pi
    out = np.maximum(0.0, 2.0 * m1 - m2).reshape(ys.shape)
    return out if np.ndim(y) else float(out)


class LimitLaw:
    """The symmetric law with even moments F_p(k), supported on
    [-omega_c, omega_c]."""

    __slots__ = ("p", "dilation")

    def __init__(self, p: int, dilation: float = 1.0):
        if p < 2:
            raise ContractViolation("p must be at least 2")
        if dilation <= 0:
            raise ContractViolation("dilation must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dilation", float(dilation))

    def __setattr__(self, name, value):
        raise AttributeError("LimitLaw is immutable")

    def __repr__(self) -> str:
        return f"LimitLaw(p={self.p}, dilation={self.dilation})"

    @property
    def omega_c(self) -> float:
        return support_radius(self.p) / self.dilation

    def support(self) -> tuple[float, float]:
        return (-self.omega_c, self.omega_c)

    def moment(self, n: int) -> Fraction:
        return Fraction(moment(self.p, n)) / Fraction(self.dilation) ** n

    def density(self, y):
        """Density at y, a scalar or an array."""
        return self.dilation * density(self.p, y * self.dilation)

    def stieltjes(self, z: complex) -> complex:
        return self.dilation * stieltjes(self.p, complex(z) * self.dilation)


class ContractedLaw(LimitLaw):
    """Limit law of the k-fold contracted, rescaled Gaussian tensor: the
    order-(p-k) law dilated by sqrt(C(p-1, k))."""

    __slots__ = ("source_p", "k", "scale_sq")

    def __init__(self, p: int, k: int):
        if p < 3:
            raise ContractViolation("contracted laws need p >= 3")
        if not 0 <= k <= p - 2:
            raise ContractViolation(f"contraction depth k={k} outside [0, {p - 2}]")
        scale_sq = math.comb(p - 1, k)
        super().__init__(p - k, math.sqrt(scale_sq))
        object.__setattr__(self, "source_p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "scale_sq", scale_sq)

    def __repr__(self) -> str:
        return f"ContractedLaw(p={self.source_p}, k={self.k})"

    def moment(self, n: int) -> Fraction:
        """Exact: zero for odd n, F_{p-k}(n/2) / C(p-1,k)^{n/2} for even."""
        if n % 2:
            return Fraction(0)
        return Fraction(fuss_catalan(self.p, n // 2), self.scale_sq ** (n // 2))

    def support_sq(self) -> Fraction:
        """Exact square of the support endpoint:
        (p-k)^{p-k} / (C(p-1,k) (p-k-1)^{p-k-1})."""
        q = self.p
        return Fraction(q**q, self.scale_sq * (q - 1) ** (q - 1))


def contracted_law(p: int, k: int) -> ContractedLaw:
    return ContractedLaw(p, k)
