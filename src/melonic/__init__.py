"""Trace invariants of symmetric random tensors.

Enumeration of p-regular combinatorial maps, melonic classification through
double hypertrees, Fuss-Catalan counting, trace-invariant evaluation on
symmetric tensors, the compactly supported limit law, and Monte Carlo
experiments reproducing the moment convergence at desk scale.
"""

import importlib

# Each public name is imported from its module when it is first read (PEP 562),
# so ``import melonic`` loads no submodule and a subcommand loads only the
# modules it runs.
_LAZY = {
    "config": ("EntryDistribution", "ExperimentConfig", "GAUSSIAN_GOTE", "RADEMACHER"),
    "counting": ("count_melonic_maps", "count_rooted_maps", "fuss_catalan"),
    "errors": (
        "ContractViolation", "DomainError", "InvalidPartitionError", "NumericalError",
        "ResourceLimitError",
    ),
    "exact": ("balanced_invariant_variance", "expected_balanced_invariant", "melonic_limit_table"),
    "experiments": (
        "HeavyTailEstimate", "MomentEstimate", "heavy_tail_moments", "mc_moments",
        "resolvent_crosscheck", "variance_scaling",
    ),
    "hypergraph": (
        "Hypergraph", "euler_deficiency", "hypergraph_of", "is_double_hypertree", "is_hypertree",
        "is_melonic_graph", "melonic_partition",
    ),
    "limitlaw": (
        "LimitLaw", "density", "inversion_density", "moment", "stieltjes", "support_radius",
    ),
    "maps": (
        "CombinatorialMap", "EdgePartition", "Hypermap", "Permutation", "canonical_code", "cycles",
        "dual", "edge_list", "enumerate_rooted_connected", "merge_edges",
    ),
    "tensor": (
        "SymTensor", "balanced_invariant", "contract", "resolvent_series", "sample_gote",
        "sample_wigner", "trace_invariant",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(_LAZY_OWNER)


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
