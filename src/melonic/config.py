"""Entry laws and the run configuration.

Every subcommand builds an ``ExperimentConfig``, so this module loads neither
numpy nor the map and oracle modules: a subcommand reads its settings
without them.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import ContractViolation

if TYPE_CHECKING:
    import numpy as np


KINDS = (
    "gaussian-gote",
    "gaussian-offdiag-only",
    "rademacher",
    "uniform",
    "symmetrized-pareto",
)


@dataclass(frozen=True)
class EntryDistribution:
    """Law of the unscaled tensor entries, all centered and symmetric.

    All kinds except ``gaussian-offdiag-only`` put the invariant variance
    profile prod_a c_a! / (p-1)! on every entry type; the off-diagonal-only
    kind keeps the off-diagonal variance 1/(p-1)! and gives diagonal types
    that same flat value (only the off-diagonal variance matters for the
    limit).  ``symmetrized-pareto`` has Pareto tails of the given index and
    no closed-form high moments, so it is Monte Carlo only.
    """

    kind: str
    tail_index: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown entry distribution {self.kind!r}")
        if self.kind == "symmetrized-pareto":
            if self.tail_index is None or not 2 < self.tail_index < math.inf:
                raise ContractViolation("symmetrized-pareto needs a finite tail_index > 2")
        elif self.tail_index is not None:
            raise ContractViolation("tail_index only applies to symmetrized-pareto")

    @classmethod
    def from_string(cls, text: str) -> "EntryDistribution":
        """Parse e.g. ``"rademacher"`` or ``"symmetrized-pareto:3.5"``."""
        if ":" in text:
            kind, arg = text.split(":", 1)
            try:
                tail_index = float(arg)
            except ValueError:
                raise ContractViolation(f"tail index {arg!r} is not a number") from None
            return cls(kind, tail_index)
        return cls(text)

    @property
    def flat_profile(self) -> bool:
        return self.kind == "gaussian-offdiag-only"

    @property
    def has_exact_moments(self) -> bool:
        return self.kind != "symmetrized-pareto"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Unit-variance raw variates."""
        if self.kind in ("gaussian-gote", "gaussian-offdiag-only"):
            return rng.standard_normal(size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size).astype("f8") * 2.0 - 1.0
        if self.kind == "uniform":
            r = math.sqrt(3.0)
            return rng.uniform(-r, r, size)
        alpha = self.tail_index
        mag = rng.random(size) ** (-1.0 / alpha)
        sign = rng.integers(0, 2, size).astype("f8") * 2.0 - 1.0
        return sign * mag / math.sqrt(alpha / (alpha - 2.0))

    def moment(self, m: int, sigma2: Fraction) -> Fraction:
        """Exact E[X^m] for an entry of variance sigma2."""
        if not self.has_exact_moments:
            raise ContractViolation(
                "symmetrized-pareto entries have no exact moment oracle"
            )
        if m % 2:
            return Fraction(0)
        half = m // 2
        if self.kind in ("gaussian-gote", "gaussian-offdiag-only"):
            return Fraction(math.prod(range(1, m, 2))) * sigma2**half
        if self.kind == "rademacher":
            return sigma2**half
        # uniform on [-a, a] with a^2 = 3 sigma2
        return (Fraction(3) * sigma2) ** half / (m + 1)


GAUSSIAN_GOTE = EntryDistribution("gaussian-gote")
RADEMACHER = EntryDistribution("rademacher")


@dataclass
class ExperimentConfig:
    """Shared knobs of the subcommands."""

    p: int = 3
    n_max: int = 2
    N_grid: tuple[int, ...] = (16, 32)
    samples: int = 200
    seed: int = 1
    dist: EntryDistribution = GAUSSIAN_GOTE
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("p", "n_max", "samples", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ContractViolation(f"{name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.N_grid, str) or not isinstance(self.N_grid, Iterable):
            raise ContractViolation(f"N_grid must be a list of integers, got {self.N_grid!r}")
        self.N_grid = tuple(self.N_grid)
        if not all(isinstance(N, numbers.Integral) for N in self.N_grid):
            raise ContractViolation(f"N_grid must be a list of integers, got {self.N_grid!r}")
        if isinstance(self.dist, str):
            self.dist = EntryDistribution.from_string(self.dist)
        if not isinstance(self.dist, EntryDistribution):
            raise ContractViolation(f"dist must be a distribution name, got {self.dist!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ContractViolation(f"out must be a path, got {self.out!r}")
        if list(self.N_grid) != sorted(self.N_grid) or len(set(self.N_grid)) != len(self.N_grid):
            raise ContractViolation("N_grid must be strictly ascending")
        if not self.N_grid:
            raise ContractViolation("N_grid must not be empty")
        if any(N < 1 for N in self.N_grid):
            raise ContractViolation("dimensions must be positive")
        if self.samples < 2:
            raise ContractViolation("need at least 2 samples to estimate a variance")
        if self.seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {self.seed}")
        if self.fmt not in ("csv", "json"):
            raise ContractViolation("format must be csv or json")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Build a config from a parsed JSON object whose keys are the field
        names (``format`` is accepted for ``fmt``, but not next to it);
        unknown keys are refused."""
        if not isinstance(obj, dict):
            raise ContractViolation("a config must be a JSON object")
        kw = dict(obj)
        if "format" in kw and "fmt" in kw:
            raise ContractViolation("config sets both fmt and format; keep one")
        if "format" in kw:
            kw["fmt"] = kw.pop("format")
        unknown = sorted(set(kw) - {f.name for f in fields(cls)})
        if unknown:
            raise ContractViolation(f"unknown config keys: {', '.join(unknown)}")
        return cls(**kw)
