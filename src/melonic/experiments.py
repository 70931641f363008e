"""Monte Carlo engine for the desk-scale verification runs; the exact
finite-N tables and the run configuration live in the numpy-free ``exact``
module.  One function, ``mc_moments``, estimates the moments of I_n/N of
the tensor contracted k times (k = 0: the tensor itself) against the
limit law ``LimitLaw(p, k)``.

Reproducibility contract: every sample draws from its own RNG substream
derived from (seed, N, stream tag, sample index), and samples are drawn and
aggregated in index order, so results are bit-identical for a given
(config, seed).  Samples are evaluated in batches, but the draws of each
substream are those of a sample drawn alone, and a batch gives every sample
the bits it would get by itself: the batch size changes no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation, DomainError
from .exact import EntryDistribution, ExperimentConfig, _require_maps
from .limitlaw import LimitLaw, moment
from .maps import _check_map_budget
from .tensor import (
    _SLICE_ELEMS,
    SymTensor,
    _check_storage,
    _dense_stack,
    _route,
    balanced_invariants,
    contract,
    resolvent_series,
    sample_gote,
    sample_wigner,
)

_SAMPLE_STREAM = 0
_VECTOR_STREAM = 1
_SPECTRUM_MARGIN = 0.1  # resolvent_crosscheck refuses |z| this close to the spectrum


def _check_enumeration_feasible(
    p: int, ns: Sequence[int], N_grid: Sequence[int], order: int
) -> None:
    """Refuse a Monte Carlo run before its first sample: by the map count of
    every n in ns, the storage of the sampled order-``order`` tensor at every
    N, and the route of every class of every n in ns at every N, largest n
    first, with the triangle tensor wherever the route builds it."""
    for n in ns:
        _check_map_budget(p, n)
    for N in N_grid:
        _check_storage(order, N)
    for n in sorted((n for n in ns if n > 0), reverse=True):  # I_0 = N contracts nothing
        for N in N_grid:
            _route(p, n, N)


@dataclass
class MomentEstimate:
    """One Monte Carlo row: estimates of I_n/N at one dimension."""

    N: int
    n: int
    mean: float
    stderr: float
    variance: float
    target: float
    deviation: float


@dataclass
class HeavyTailEstimate:
    """Median-based row used for entry laws without high moments."""

    N: int
    n: int
    median: float
    iqr: float
    target: float


@dataclass
class VarianceScaling:
    rows: tuple[tuple[int, float], ...]
    slope: float


@dataclass
class ResolventCheck:
    N: int
    z: complex
    K: int
    series: complex
    direct: complex
    gap: float
    tail_bound: float
    spectral_radius: float


def sample_invariants(
    p: int,
    N: int,
    ns: Sequence[int],
    samples: int,
    seed: int,
    dist: EntryDistribution,
    vectors: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """I_n/N for every n in ``ns`` on ``samples`` Wigner tensors of order p
    and dimension N, as an array of shape (samples, len(ns)).

    Sample ``idx`` draws from the substream (seed, N, 0, idx) and row ``idx``
    holds its invariants.  Up to ``_SLICE_ELEMS // N**p`` samples (at least
    one) are drawn in index order and evaluated together, which gives each
    the bits it would get alone.  With k = len(vectors) > 0 each tensor is
    first contracted by the vectors and rescaled by N^{k/2}, so the
    invariants are those of the order-(p-k) tensor.
    """
    scale = float(N) ** (len(vectors) / 2.0)
    batch = max(1, _SLICE_ELEMS // N**p)
    rows: list = []
    for start in range(0, samples, batch):
        tensors = [
            sample_wigner(p, N, dist, (seed, N, _SAMPLE_STREAM, idx))
            for idx in range(start, min(start + batch, samples))
        ]
        if vectors:
            tensors = [contract(W, vectors).scaled(scale) for W in tensors]
        dense = _dense_stack(tensors)
        rows.extend(zip(*(balanced_invariants(n, dense) / N for n in ns)))
    return np.asarray(rows, dtype=np.float64)


def _estimate_rows(
    N: int, ns: Sequence[int], data: np.ndarray, targets: Sequence[float]
) -> list[MomentEstimate]:
    rows = []
    for j, n in enumerate(ns):
        col = data[:, j]
        mean = float(np.mean(col))
        var = float(np.var(col, ddof=1))
        stderr = math.sqrt(var / len(col))
        rows.append(
            MomentEstimate(
                N=N,
                n=n,
                mean=mean,
                stderr=stderr,
                variance=var,
                target=targets[j],
                deviation=mean - targets[j],
            )
        )
    return rows


def mc_moments(
    cfg: ExperimentConfig, k: int = 0, random_unit: bool = False
) -> list[MomentEstimate]:
    """Sample Wigner tensors, contract each k times and rescale it by
    N^{k/2}, and estimate E[I_n/N] for every n <= n_max on the N grid,
    against the moments of ``LimitLaw(p, k)``.

    At k = 0 the tensor is used as drawn, under any entry law.  For k >= 1
    the limit is proved for Gaussian entries only, and the off-diagonal-only
    profile for k <= 1 only.  The contraction vector is e^(1) (orthogonal
    invariance makes this free for the invariant ensemble); ``random_unit``
    draws one deterministic unit vector per dimension instead.
    """
    if k:
        if cfg.dist.kind not in ("gaussian-gote", "gaussian-offdiag-only"):
            raise ContractViolation("contraction experiments take Gaussian entries only")
        if cfg.dist.flat_profile and k >= 2:
            # with k indices pinned, diagonal-type variances enter the limit at
            # depth >= 2, so the flat profile would drift from the target law
            raise ContractViolation("the off-diagonal-only profile is valid for k <= 1 only")
    law = LimitLaw(cfg.p, k)  # validates p >= 2 and 0 <= k <= p-2
    ns = list(range(1, cfg.n_max + 1))
    _check_enumeration_feasible(law.p, ns, cfg.N_grid, cfg.p)
    targets = [float(law.moment(n)) for n in ns]
    rows: list[MomentEstimate] = []
    for N in cfg.N_grid:
        vectors = ()
        if k and random_unit:
            u = np.random.default_rng((cfg.seed, N, _VECTOR_STREAM)).standard_normal(N)
            vectors = [u / np.linalg.norm(u)] * k
        elif k:
            vectors = [np.eye(1, N)[0]] * k  # e^(1)
        data = sample_invariants(cfg.p, N, ns, cfg.samples, cfg.seed, cfg.dist, vectors)
        rows.extend(_estimate_rows(N, ns, data, targets))
    return rows


def variance_scaling(cfg: ExperimentConfig) -> VarianceScaling:
    """Sample variances of I_n/N along a dyadic N grid, with the fitted
    log-log slope.

    The variance is O(1/N^2), so the slope should come out at or below -2;
    the matrix case sits at -2, higher orders decay faster at desk sizes.
    """
    if len(cfg.N_grid) < 2:
        raise ContractViolation("variance scaling needs at least two dimensions")
    for a, b in zip(cfg.N_grid, cfg.N_grid[1:]):
        if b != 2 * a:
            raise ContractViolation("N_grid must double between consecutive entries")
    _require_maps(cfg.p, cfg.n_max)
    _check_enumeration_feasible(cfg.p, [cfg.n_max], cfg.N_grid, cfg.p)
    variances = []
    for N in cfg.N_grid:
        data = sample_invariants(cfg.p, N, [cfg.n_max], cfg.samples, cfg.seed, cfg.dist)
        variances.append(float(np.var(data[:, 0], ddof=1)))
    slope = float(
        np.polyfit(np.log(np.asarray(cfg.N_grid, float)), np.log(variances), 1)[0]
    )
    return VarianceScaling(rows=tuple(zip(cfg.N_grid, variances)), slope=slope)


def heavy_tail_moments(
    p: int,
    n: int,
    N_grid: Sequence[int],
    samples: int,
    seed: int,
    tail_index: float,
    dist: Optional[EntryDistribution] = None,
) -> list[HeavyTailEstimate]:
    """Median and interquartile range of I_n/N under heavy-tailed entries.

    Convergence here is in probability only, so medians replace means; the
    interesting regime is tail index in (p, p+1), where exactly p absolute
    moments exist.  A different ``dist`` can be passed as a control.
    """
    if dist is None:
        dist = EntryDistribution("symmetrized-pareto", tail_index)
    _require_maps(p, n)
    _check_enumeration_feasible(p, [n], N_grid, p)
    target = float(moment(p, n))
    rows = []
    for N in N_grid:
        data = sample_invariants(p, N, [n], samples, seed, dist)[:, 0]
        q25, q50, q75 = np.percentile(data, [25, 50, 75])
        rows.append(
            HeavyTailEstimate(N=N, n=n, median=float(q50), iqr=float(q75 - q25), target=target)
        )
    return rows


def resolvent_crosscheck(
    N: int,
    z: float,
    K: int,
    seed: int,
    tensor: Optional[SymTensor] = None,
) -> ResolventCheck:
    """p=2 consistency: the truncated moment expansion of the resolvent trace
    against the dense linear-algebra value (1/N) Tr((zI - M)^{-1}).

    The gap is bounded by the geometric tail (r/|z|)^{K+1} / (|z| - r) with r
    the spectral radius.
    """
    W = tensor if tensor is not None else sample_gote(2, N, (seed, N, _SAMPLE_STREAM, 0))
    if W.p != 2 or W.N != N:
        raise ContractViolation("resolvent cross-check needs an order-2 tensor of size N")
    dense = W.to_dense()
    radius = float(np.max(np.abs(np.linalg.eigvalsh(dense)))) if N else 0.0
    zc = complex(z)
    if abs(zc) <= radius + _SPECTRUM_MARGIN:
        raise DomainError(f"|z| = {abs(zc):.4g} too close to the spectrum (radius {radius:.4g})")
    series = resolvent_series(W, zc, K)
    direct = complex(np.trace(np.linalg.inv(zc * np.eye(N) - dense)) / N)
    gap = abs(series - direct)
    bound = (radius / abs(zc)) ** (K + 1) / (abs(zc) - radius)
    return ResolventCheck(
        N=N,
        z=zc,
        K=K,
        series=series,
        direct=direct,
        gap=gap,
        tail_bound=bound,
        spectral_radius=radius,
    )
