"""The compactly supported limit law with Fuss-Catalan even moments, its
Stieltjes transform and densities; ``LimitLaw(p, k)`` is the law of the
k-times contracted order-p tensor, the order-(p-k) law dilated by
sqrt(C(p-1, k)).

The Stieltjes transform R(z) is the solution of
``P(R) = z^{p-2} R^p - z R + 1 = 0`` on the branch behaving like 1/z at
infinity.  Branch selection rests on one certificate (``_nearest_root``).
With ``gamma = max_{2<=k<=p} (C(p,k) |z^{p-2}| |zeta|^{p-k} / |P'(zeta)|)^{1/(k-1)}``
the Taylor expansion of P at zeta gives ``1 <= sum_{k>=2} (gamma |d|)^{k-1}``
for any other root zeta + d, so every other root is at least 1/(2 gamma)
from zeta.  A Newton result zeta is certified to be the root nearest a
point r when it is finite, its residual is below ``_RESIDUAL_TOL``, and it
lies within 1/(4 gamma) of r.  Newton runs while its step shrinks, which
near a simple root is to the float limit.

- **Homotopy** (``stieltjes``, one point).  The root is tracked along the
  segment from z0 = max(1, 4 omega_c / |z|) z, far outside the support,
  down to z.  At z0 it is the root nearest 1/z0.  Each step runs Newton
  from the previous root and keeps the result only if it is certified to be
  the root nearest that previous root; otherwise the step is halved, and a
  step below ``_STEP_FLOOR`` of the segment raises NumericalError.  This is
  the unambiguous reading of the series definition, and it is the
  reference for the path below.
- **Continuation** (``_stieltjes_path``, a grid of points).  The first
  point runs the homotopy.  Each later point runs Newton from the previous
  point's root and keeps the result if it is certified to be the root
  nearest that previous root.  Otherwise the point runs the homotopy, so it
  gets the same value as a call of ``stieltjes`` at that point.

Densities use closed forms at p = 2, 3 and Stieltjes inversion with a small
imaginary offset plus one Richardson step for p >= 4; the inversion
pipeline is validated against the closed forms.  ``density`` and
``inversion_density`` take a scalar, a list or an array of points and
evaluate them as one continuation path per imaginary offset.  The module
computes on Python floats and complex numbers; numpy is imported only to
give an array back for an array argument.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .counting import fuss_catalan
from .errors import ContractViolation, DomainError, NumericalError

_RESIDUAL_TOL = 1e-12
_INVERSION_ETA = 1e-4  # eta, the imaginary offset of Stieltjes inversion
_NEWTON_ITERATIONS = 60
_STEP_FLOOR = 2.0**-40  # smallest homotopy step, as a fraction of the segment


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


def _newton(p: int, z: complex, r: complex) -> complex:
    """Newton's iteration for P at z from r, run while its step shrinks:
    to the float limit near a simple root, and no further where it does not
    contract (the certificate then refuses the result).  An overflow gives
    NaN, which the certificate refuses too."""
    last = math.inf
    for _ in range(_NEWTON_ITERATIONS):
        try:
            fp = p * z ** (p - 2) * r ** (p - 1) - z
            if fp == 0:
                break
            step = _fixed_point_residual(p, z, r) / fp
        except OverflowError:
            return complex(math.nan, math.nan)
        if not abs(step) < last:
            break
        r -= step
        last = abs(step)
    return r


def _refuse_support(p: int, z: complex) -> None:
    if z == 0:
        raise DomainError("z = 0 is inside the support")
    omega = support_radius(p)
    if z.imag == 0 and abs(z.real) <= omega + 1e-9:
        raise DomainError(f"z = {z} lies on the support [-{omega:.6g}, {omega:.6g}]")


def stieltjes(p: int, z: complex) -> complex:
    """The Stieltjes transform of the limit law at z, by certified homotopy.

    Raises DomainError for z on (or within 1e-9 of) the real support
    interval, NumericalError if no certified step longer than
    ``_STEP_FLOOR`` of the segment is found.
    """
    if p < 2:
        raise ContractViolation("p must be at least 2")
    z = complex(z)
    _refuse_support(p, z)
    z0 = max(1.0, 4.0 * support_radius(p) / abs(z)) * z
    r = _newton(p, z0, 1.0 / z0)
    if not _nearest_root(p, z0, r, 1.0 / z0):
        raise NumericalError(f"no certified root at the homotopy start, p={p}, z={z}")
    s, h = 0.0, 1.0  # the part of the segment walked, the next step
    while s < 1.0:
        t = min(s + h, 1.0)
        zt = z if t == 1.0 else z0 + t * (z - z0)
        zeta = _newton(p, zt, r)
        if _nearest_root(p, zt, zeta, r):
            s, r, h = t, zeta, min(2.0 * h, 1.0 - t)
        elif h > _STEP_FLOOR:
            h *= 0.5
        else:
            raise NumericalError(f"root tracking stalled at p={p}, z={z}")
    return r


def _nearest_root(p: int, z: complex, zeta: complex, r: complex) -> bool:
    """Certificate that zeta is the root of P at z nearest to r (module
    docstring): finite, residual below tolerance, and |zeta - r| < 1/(4 gamma).
    An overflow refuses."""
    if not (math.isfinite(zeta.real) and math.isfinite(zeta.imag)):
        return False
    try:
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
    except OverflowError:
        return False
    return 4.0 * gamma * abs(zeta - r) < 1.0


def _stieltjes_path(p: int, zs: list[complex]) -> list[complex]:
    """The Stieltjes transform at each point of zs, continued from point to
    point; the first point, and every point whose continued root is not
    certified, calls ``stieltjes``."""
    if p < 2:
        raise ContractViolation("p must be at least 2")
    for z in zs:
        _refuse_support(p, z)
    out = []
    r = None
    for z in zs:
        if r is not None:
            zeta = _newton(p, z, r)
            if _nearest_root(p, z, zeta, r):
                out.append(zeta)
                r = zeta
                continue
        r = stieltjes(p, z)
        out.append(r)
    return out


def _pointwise(y, values):
    """values, a function from a list of floats to a list of floats, at y:
    a scalar gives a float, a list a list, an array an ndarray of its shape.
    numpy is imported for an array only, whose caller has loaded it."""
    if isinstance(y, list):
        return values([float(v) for v in y])
    if isinstance(y, numbers.Real):
        return values([float(y)])[0]
    import numpy as np

    ys = np.asarray(y, dtype=float)
    out = values(ys.ravel().tolist())
    return np.array(out, dtype=float).reshape(ys.shape) if ys.ndim else out[0]


def density(p: int, y):
    """Density of the limit law at y (a scalar, a list or an array); zero
    outside the support.

    Closed forms at p = 2 (semicircle) and p = 3 (cube-root profile, with an
    integrable |y|^{-1/3} singularity at the origin); Stieltjes inversion for
    p >= 4.
    """
    if p < 2:
        raise ContractViolation("p must be at least 2")
    return _pointwise(y, lambda ys: _densities(p, ys))


def _densities(p: int, ys: list[float]) -> list[float]:
    omega = support_radius(p)
    inside = [i for i, v in enumerate(ys) if abs(v) < omega]
    points = [ys[i] for i in inside]
    if p >= 4:
        vals = _inversion(p, points)
    else:
        vals = [_closed_form(p, v) for v in points]
    out = [0.0] * len(ys)
    for i, v in zip(inside, vals):
        out[i] = v
    return out


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
    Richardson step in eta to cancel the O(eta) bias.  y, a scalar, a list
    or an array, is evaluated as one continuation path per eta."""
    return _pointwise(y, lambda ys: _inversion(p, ys))


def _inversion(p: int, ys: list[float]) -> list[float]:
    m1, m2 = (
        [-r.imag / math.pi for r in _stieltjes_path(p, [complex(v, eta) for v in ys])]
        for eta in (_INVERSION_ETA, 2.0 * _INVERSION_ETA)
    )
    return [max(0.0, 2.0 * a - b) for a, b in zip(m1, m2)]


class LimitLaw:
    """The limit law of the k-times contracted order-p tensor (k = 0: the
    tensor itself): the symmetric law of order p - k with even moments
    F_{p-k}(m) / C(p-1, k)^m, that is the order-(p-k) law dilated by
    sqrt(C(p-1, k)), supported on [-omega_c, omega_c].  ``p`` is the law's
    order p - k, ``source_p`` the tensor's."""

    __slots__ = ("source_p", "k", "p", "scale_sq", "dilation")

    def __init__(self, p: int, k: int = 0):
        if p < 2:
            raise ContractViolation("p must be at least 2")
        if not 0 <= k <= p - 2:
            raise ContractViolation(f"contraction depth k={k} outside [0, {p - 2}]")
        scale_sq = math.comb(p - 1, k)
        object.__setattr__(self, "source_p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p - k)
        object.__setattr__(self, "scale_sq", scale_sq)
        object.__setattr__(self, "dilation", math.sqrt(scale_sq))

    def __setattr__(self, name, value):
        raise AttributeError("LimitLaw is immutable")

    def __repr__(self) -> str:
        return f"LimitLaw(p={self.source_p}, k={self.k})"

    @property
    def omega_c(self) -> float:
        return support_radius(self.p) / self.dilation

    def support(self) -> tuple[float, float]:
        return (-self.omega_c, self.omega_c)

    def support_sq(self) -> Fraction:
        """Exact square of the support endpoint:
        (p-k)^{p-k} / (C(p-1,k) (p-k-1)^{p-k-1})."""
        q = self.p
        return Fraction(q**q, self.scale_sq * (q - 1) ** (q - 1))

    def moment(self, n: int) -> Fraction:
        """Exact: zero for odd n, F_{p-k}(n/2) / C(p-1,k)^{n/2} for even."""
        return Fraction(moment(self.p, n), self.scale_sq ** (n // 2))

    def density(self, y):
        """Density at y, a scalar, a list or an array."""
        d = self.dilation
        return _pointwise(y, lambda ys: [d * v for v in density(self.p, [u * d for u in ys])])

    def stieltjes(self, z: complex) -> complex:
        return self.dilation * stieltjes(self.p, complex(z) * self.dilation)
