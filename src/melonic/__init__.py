"""Trace invariants of symmetric random tensors.

Enumeration of p-regular combinatorial maps, melonic classification through
double hypertrees, Fuss-Catalan counting, trace-invariant evaluation on
symmetric tensors, the compactly supported limit law, and Monte Carlo
experiments reproducing the moment convergence at desk scale.
"""

import importlib
import types

from .counting import (
    DyckPath, PlaneHypertree, count_dyck, count_melonic_maps, count_noncrossing_div,
    count_rooted_maps, dyck_from_hypertree, fuss_catalan, generating_series_check,
    hypertree_from_dyck,
)
from .errors import (
    ContractViolation, DomainError, InvalidPartitionError, InvalidPathError, NumericalError,
    ResourceLimitError,
)
from .hypergraph import (
    Hypergraph, euler_deficiency, has_cycle, hypergraph_of, is_double_hypertree, is_hypertree,
    is_melonic_graph, melonic_partition,
)
from .maps import (
    CombinatorialMap, EdgePartition, Hypermap, Permutation, canonical_code, cycles, dual,
    edge_list, enumerate_edge_partitions, enumerate_rooted_connected, is_connected, merge_edges,
    relabel,
)
from .exact import (
    GAUSSIAN_GOTE, RADEMACHER, EntryDistribution, ExperimentConfig, balanced_invariant_variance,
    expected_balanced_invariant, melonic_limit_table,
)
from .limitlaw import (
    LimitLaw, density, inversion_density, moment, stieltjes, support_radius,
)

# The modules that load numpy are imported when one of their names is first
# read (PEP 562), so the exact subcommands start without numpy.
_LAZY = {
    "tensor": (
        "SymTensor", "balanced_invariant", "contract", "resolvent_series", "sample_gote",
        "sample_wigner", "trace_invariant",
    ),
    "experiments": (
        "HeavyTailEstimate", "MomentEstimate", "heavy_tail_moments", "mc_moments",
        "resolvent_crosscheck", "variance_scaling",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType)]
    + list(_LAZY_OWNER)
)


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        value = getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__all__})


__version__ = "0.1.0"
