"""Trace invariants of symmetric random tensors.

Enumeration of p-regular combinatorial maps, melonic classification through
double hypertrees, Fuss-Catalan counting, trace-invariant evaluation on
symmetric tensors, the compactly supported limit law, and Monte Carlo
experiments reproducing the moment convergence at desk scale.
"""

from .counting import (
    DyckPath,
    PlaneHypertree,
    count_dyck,
    count_melonic_maps,
    count_noncrossing_div,
    count_rooted_maps,
    dyck_from_hypertree,
    fuss_catalan,
    generating_series_check,
    hypertree_from_dyck,
)
from .errors import (
    ContractViolation,
    DomainError,
    InvalidPartitionError,
    InvalidPathError,
    NumericalError,
    ResourceLimitError,
)
from .hypergraph import (
    Hypergraph,
    euler_deficiency,
    has_cycle,
    hypergraph_of,
    is_double_hypertree,
    is_hypertree,
    is_melonic_graph,
    melonic_partition,
)
from .limitlaw import (
    ContractedLaw,
    LimitLaw,
    contracted_law,
    density,
    inversion_density,
    moment,
    stieltjes,
    support_radius,
)
from .maps import (
    CombinatorialMap,
    EdgePartition,
    Hypermap,
    Permutation,
    canonical_code,
    cycles,
    dual,
    edge_list,
    enumerate_edge_partitions,
    enumerate_rooted_connected,
    is_connected,
    merge_edges,
    relabel,
)
from .tensor import (
    EntryDistribution,
    GAUSSIAN_GOTE,
    RADEMACHER,
    SymTensor,
    balanced_invariant,
    balanced_invariant_variance,
    contract,
    expected_balanced_invariant,
    expected_trace_partitions,
    resolvent_series,
    sample_gote,
    sample_wigner,
    trace_invariant,
)
from .experiments import (
    ExperimentConfig,
    HeavyTailEstimate,
    MomentEstimate,
    contraction_moments,
    heavy_tail_moments,
    mc_moments,
    melonic_limit_table,
    resolvent_crosscheck,
    variance_scaling,
)

__version__ = "0.1.0"
