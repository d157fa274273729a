"""Checks and certificates for kernel operators with increasing spectrum
relative to standard compressions."""

from .spaces import (
    MeasureSpace,
    StandardSet,
    build_space,
    enumerate_standard_pairs,
    nested_chain,
)
from .operators import (
    FiniteRankOperator,
    Operator,
    compress,
    densify,
    factor,
    kernel_operator,
    kernel_operator_from_function,
    modulus,
    numerical_rank,
    ones_kernel,
    sharpness_example,
    sharpness_example_factors,
    split_atom_diagonal,
    trace,
    trace_power,
    trace_split,
    volterra_linear,
)
from .spectral import (
    SpectrumReport,
    eigenvalues,
    nonzero_eigen_match,
    spectrum_subset,
)
from .increasing import (
    PropertyReport,
    atomic_vs_full_spectrum,
    check_increasing_spectrum,
    quasinilpotence_dichotomy,
    radius_profile,
)
from .cycles import (
    MomentMatrix,
    SupportDigraph,
    cycle_product,
    find_nondegenerate_cycle,
    moment_identities,
    moment_matrix,
    ncycle_trace_sum,
    shortest_cycle,
    support_digraph,
)
from .triangular import (
    TriangularizationCertificate,
    assert_nilpotent_compressions,
    eigenatom_peel,
    increasing_spectrum_block_form,
    max_kernel_projection,
    nilpotent_block_form,
    scc_triangularize,
    verify_certificate,
)
from .jsonio import (
    canonical_dumps,
    named_operator,
    operator_from_dict,
)
from .errors import (
    DimensionMismatchError,
    ExhaustiveCheckInfeasibleError,
    KernelTriError,
    PreconditionError,
    SpaceError,
    TheoremViolationError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
